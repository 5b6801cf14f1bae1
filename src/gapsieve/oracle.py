"""Exhaustive ground-truth engines and smooth-number tests.

exact_Y finds, by complete backtracking search, the longest prefix [1, y]
coverable by one residue class per prime up to x.  jacobsthal scans a full
period for the maximal gap between integers coprime to n; the two agree
through exact_Y(x) = jacobsthal(primorial(x)) - 1 and are implemented
independently so each checks the other.
"""

from dataclasses import dataclass

import numpy as np

from .primes import factorize, primes_up_to
from .residues import ResidueSystem

EXACT_Y_CUTOFF = 19
JACOBSTHAL_CUTOFF = 10**9


class InfeasibleError(ValueError):
    """Requested computation is beyond the configured exhaustive-search range."""


@dataclass(frozen=True)
class OracleResult:
    x: int
    Y: int
    witness: ResidueSystem
    nodes_explored: int


class _CoverSearch:
    """Backtracking feasibility search: can classes a_p mod p cover [1, y]?

    Branches on the smallest uncovered position t; any prime that covers t
    must be congruent to t, so each unassigned prime contributes exactly one
    candidate class.  Primes are tried largest first (larger moduli are the
    scarcer resource); correctness does not depend on the order.

    The covered set is one integer: bit t - 1 is set when t in [1, y] is
    covered.  A child ORs in its class's precomputed pattern, so nothing is
    undone on backtracking; a child that covers everything, or has no prime
    left to try, is settled without a call.
    """

    def __init__(self, primes):
        self.primes = sorted(primes, reverse=True)
        self.nodes = 0

    def feasible(self, y: int):
        full = (1 << y) - 1
        # pats[p][a]: the positions t in [1, y] with t = a (mod p)
        pats = {}
        for p in self.primes:
            comb = 0
            for k in range(0, y, p):
                comb |= 1 << k
            pats[p] = [(comb << ((a or p) - 1)) & full for a in range(p)]
        assignment = {}
        nodes = 0

        def rec(mask, free):
            nonlocal nodes
            t = (~mask & (mask + 1)).bit_length()  # smallest uncovered position
            for i, p in enumerate(free):
                nodes += 1
                a = t % p
                child = mask | pats[p][a]
                rest = free[:i] + free[i + 1 :]
                if child == full or (rest and rec(child, rest)):
                    assignment[p] = a
                    return True
            return False

        found = full == 0 or rec(0, tuple(self.primes))
        self.nodes += nodes
        return assignment if found else None


def exact_Y(x: int, cutoff: int = EXACT_Y_CUTOFF) -> OracleResult:
    """Largest y such that classes a_p mod p (p <= x) cover [1, y], exactly.

    Wraps the feasibility search in doubling plus binary search over the
    target, so optimality is certified by one exhausted search at Y + 1.
    """
    if x > cutoff:
        raise InfeasibleError(
            f"x = {x} exceeds the exhaustive cutoff {cutoff}; "
            "use jacobsthal(primorial(x)) for an independent route"
        )
    primes = list(primes_up_to(x))
    search = _CoverSearch(primes)
    lo, assignment = 1, search.feasible(1)
    if assignment is None:
        return OracleResult(x=x, Y=0, witness=ResidueSystem({}), nodes_explored=search.nodes)
    hi = 2
    while (found := search.feasible(hi)) is not None:
        lo, assignment = hi, found
        hi *= 2
    # invariant: assignment covers [1, lo], nothing covers [1, hi]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if (found := search.feasible(mid)) is not None:
            lo, assignment = mid, found
        else:
            hi = mid
    witness = {p: assignment.get(p, 0) for p in primes}
    return OracleResult(
        x=x, Y=lo, witness=ResidueSystem(witness), nodes_explored=search.nodes
    )


def jacobsthal(n: int) -> int:
    """Maximal gap between consecutive integers coprime to n.

    Scans one full period [1, n + 1] with a segmented bit vector; n beyond
    JACOBSTHAL_CUTOFF (1e9) is rejected rather than attempted.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > JACOBSTHAL_CUTOFF:
        raise InfeasibleError(f"n = {n} exceeds the period-scan cutoff {JACOBSTHAL_CUTOFF}")
    if n == 1:
        return 1
    ps = sorted(factorize(n))
    segment = 1 << 22
    max_gap = 0
    prev = None  # last coprime position of the previous segments
    for lo in range(1, n + 2, segment):
        hi = min(lo + segment - 1, n + 1)
        flags = np.ones(hi - lo + 1, dtype=bool)
        for p in ps:
            flags[(-lo) % p :: p] = False
        # never empty: segments outlast any coprime gap below the cutoff,
        # and n + 1 (coprime to n) lies in the last one
        pos = np.flatnonzero(flags)
        if prev is not None:
            max_gap = max(max_gap, int(pos[0]) + lo - prev)
        if len(pos) > 1:
            max_gap = max(max_gap, int(np.diff(pos).max()))
        prev = int(pos[-1]) + lo
    return max_gap


def smooth_mask(values, z: int) -> np.ndarray:
    """True where every prime factor of the value is <= z (1 is smooth).

    Divides out each prime up to z from the values it divides; a value is
    smooth exactly when its remaining cofactor is 1.  Values must be
    positive integers.
    """
    rem = np.array(values, dtype=np.int64)
    if rem.size and rem.min() < 1:
        raise ValueError("values must be positive")
    for p in primes_up_to(max(z, 1)):
        hit = np.flatnonzero(rem % p == 0)
        while len(hit):
            rem[hit] //= p
            hit = hit[rem[hit] % p == 0]
    return rem == 1

