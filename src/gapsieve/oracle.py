"""Exhaustive ground-truth engines and smooth-number tests.

exact_Y finds, by one exhaustive depth-first search, the longest prefix
[1, y] coverable by one residue class per prime up to x.  jacobsthal scans
half of one period (its odd half when n is even) for the maximal gap
between integers coprime to n; the two agree through
exact_Y(x) = jacobsthal(primorial(x)) - 1 and are implemented
independently so each checks the other.
"""

from dataclasses import dataclass

import numpy as np

from .primes import factorize, primes_up_to
from .residues import ResidueSystem

EXACT_Y_CUTOFF = 23
EXACT_Y_SPAN = 64  # bits of the first search; doubled while a choice covers them all
JACOBSTHAL_CUTOFF = 10**9
JACOBSTHAL_SEGMENT = 1 << 16  # scan entries per segment; small enough to stay in cache


class InfeasibleError(ValueError):
    """Requested computation is beyond the configured exhaustive-search range."""


@dataclass(frozen=True)
class OracleResult:
    x: int
    Y: int
    witness: ResidueSystem
    nodes_explored: int


def _longest_prefix(primes, span: int):
    """Longest prefix [1, y] that one class per prime covers, by one search.

    Walks every ordered choice of distinct primes, each new prime taking
    the class of the smallest position t not yet covered (any prime that
    covers t must be congruent to t), primes largest first.  Returns
    (y, assignment, nodes): y is the longest prefix any node covers, and
    the assignment is the path to the first node in preorder that covers
    it.  The covered set is one integer over `span` bits (bit t - 1 for
    position t), so nothing is undone on backtracking; a prefix of `span`
    means the span was too short and the caller must search again.
    """
    full = (1 << span) - 1
    # pats[p][a]: the positions t in [1, span] with t = a (mod p)
    pats = {}
    for p in primes:
        comb = 0
        for k in range(0, span, p):
            comb |= 1 << k
        pats[p] = [(comb << ((a or p) - 1)) & full for a in range(p)]
    best, best_path, nodes = 1, [], 0  # best: smallest uncovered t of any node
    path = [None] * len(primes)  # path[d]: the (p, a) chosen at depth d

    def rec(mask, t, free, d):
        nonlocal best, best_path, nodes
        nodes += len(free)
        for i, p in enumerate(free):
            a = t % p
            child = mask | pats[p][a]
            ct = (~child & (child + 1)).bit_length()
            path[d] = (p, a)
            if ct > best:
                best, best_path = ct, path[: d + 1]
            if len(free) > 2:
                rec(child, ct, free[:i] + free[i + 1 :], d + 1)
            elif len(free) == 2:  # the one grandchild is a leaf: settle it here
                q = free[1 - i]
                b = ct % q
                leaf = child | pats[q][b]
                nodes += 1
                if (lt := (~leaf & (leaf + 1)).bit_length()) > best:
                    path[d + 1] = (q, b)
                    best, best_path = lt, path[: d + 2]

    if primes:
        rec(0, 1, tuple(sorted(primes, reverse=True)), 0)
    return best - 1, dict(best_path), nodes


def exact_Y(x: int, cutoff: int = EXACT_Y_CUTOFF) -> OracleResult:
    """Largest y such that classes a_p mod p (p <= x) cover [1, y], exactly.

    One exhaustive search records the longest prefix any choice covers, so
    optimality is certified by the whole search; the witness gives every
    prime off the optimal path class 0.  The span of bits starts at
    EXACT_Y_SPAN and doubles whenever a choice covers all of it, so Y is
    never capped; nodes_explored counts every search run.
    """
    if x > cutoff:
        raise InfeasibleError(
            f"x = {x} exceeds the exhaustive cutoff {cutoff}; "
            "use jacobsthal(primorial(x)) for an independent route"
        )
    primes = [int(p) for p in primes_up_to(x)]
    span, total = EXACT_Y_SPAN, 0
    while True:
        Y, assignment, nodes = _longest_prefix(primes, span)
        total += nodes
        if Y < span:
            break
        span *= 2
    witness = {p: assignment.get(p, 0) for p in primes}
    return OracleResult(x=x, Y=Y, witness=ResidueSystem(witness), nodes_explored=total)


def jacobsthal(n: int) -> int:
    """Maximal gap between consecutive integers coprime to n.

    The coprime set is symmetric under t -> n - t, so only t <= n // 2 is
    scanned (odd t only when n is even), with a segmented bit vector.  The
    answer is the largest of the gaps inside the scan, the middle gap
    n - 2c around n / 2 (c the last coprime <= n / 2) and the gap 2 from
    n - 1 to n + 1.  n beyond JACOBSTHAL_CUTOFF (1e9) is rejected rather
    than attempted.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > JACOBSTHAL_CUTOFF:
        raise InfeasibleError(f"n = {n} exceeds the period-scan cutoff {JACOBSTHAL_CUTOFF}")
    if n == 1:
        return 1
    step = 2 if n % 2 == 0 else 1
    # entry i of the scan is t = 1 + step * i; odd p divides it exactly
    # when i = (p - 1) / step (mod p)
    hits = [(p, (p - 1) // step) for p in factorize(n) if p != 2]
    count = (n // 2 - 1) // step + 1
    max_gap = 2
    prev = None  # scan index of the last coprime t of the previous segments
    for lo in range(0, count, JACOBSTHAL_SEGMENT):
        flags = np.ones(min(JACOBSTHAL_SEGMENT, count - lo), dtype=bool)
        for p, r in hits:
            flags[(r - lo) % p :: p] = False
        pos = np.flatnonzero(flags)
        if not len(pos):  # a short last segment can hold no coprime entry
            continue
        if prev is not None:
            max_gap = max(max_gap, step * (int(pos[0]) + lo - prev))
        if len(pos) > 1:
            max_gap = max(max_gap, step * int(np.diff(pos).max()))
        prev = int(pos[-1]) + lo
    # t = 1 is coprime, so prev is set
    return max(max_gap, n - 2 * (1 + step * prev))


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

