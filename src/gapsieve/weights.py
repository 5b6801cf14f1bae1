"""Multidimensional sieve weights for the shifts n + h_i of an admissible tuple.

Given admissible offsets h_1, ..., h_k the module builds the classical
squared-divisor-sum weight

    w(n) = ( sum over d with d_i | n + h_i of lambda_d )^2

where the lambda coefficients come from a smooth cap F on the simplex via
the y-weight transform.  Everything is computed by direct enumeration over
the support tuples, exactly as the defining formulas read; the enumeration
is cheap because desk-scale truncation levels R keep the support tiny, and
it doubles as the oracle for any faster path.

The singular series are Euler products truncated at SERIES_CUTOFF; the
integrals I_k and J_k of the cap, which the normalizations read, are exact.
"""

import math
from fractions import Fraction
from functools import cached_property
from itertools import product, repeat
from math import gcd

import numpy as np

from .primes import factorize, is_admissible, is_prime, primes_up_to, sieve_interval
from .residues import crt_merge

SERIES_CUTOFF = 10**4  # the primes in every truncated singular series


class InadmissibleError(ValueError):
    """Some prime divides every value of the form product."""


class FormSystem:
    """The forms n + h_i of admissible offsets, with exceptional modulus B and level W.

    W is the product of primes up to 2k^2 not dividing B; B is 1 (default)
    or a prime standing in for a possible exceptional modulus, so
    phi_WB = phi(W*B) is the product of p - 1 over the primes of W and B.
    Offsets that cover every class mod some prime raise InadmissibleError,
    and repeated offsets ValueError.
    """

    def __init__(self, offsets, B: int = 1):
        self.offsets = tuple(offsets)
        self.k = len(self.offsets)
        if self.k < 1:
            raise ValueError("need at least one form")
        if B != 1 and not is_prime(B):
            raise ValueError("B must be 1 or a prime")
        if not is_admissible(self.offsets):
            raise InadmissibleError(f"offsets {self.offsets} cover every class mod a prime")
        self.B = B
        self.W = 1
        self.phi_WB = max(B - 1, 1)
        for p in primes_up_to(2 * self.k * self.k):
            if B % p != 0:
                self.W *= p
                self.phi_WB *= p - 1

    def omega(self, p):
        """The number of roots of prod (n + h_i) mod p: form j has the one root -h_j.

        p is an int (the count is an int) or an int64 array of primes (an
        int64 array of counts): the k x n matrix of roots mod p, sorted down
        each column, has one root more than changes in that column.
        """
        if np.ndim(p) == 0:
            return len({-h % p for h in self.offsets})
        roots = np.sort(-np.array(self.offsets)[:, None] % p, axis=0)
        return 1 + np.count_nonzero(roots[1:] != roots[:-1], axis=0)

    def allowed_positions(self, p: int) -> set:
        """Form indices j (1-based) that a prime p not dividing WB may enter: each root's least."""
        least = {}
        for j, h in enumerate(self.offsets, start=1):
            least.setdefault(-h % p, j)
        return set(least.values())


def singular_series(sys: FormSystem, cutoff: int, exclude: int = None) -> float:
    """Truncated Euler product prod_{p <= cutoff, p !| exclude} (1 - w(p)/p)(1 - 1/p)^-k.

    exclude defaults to B; WeightSystem passes W*B for the product over
    primes coprime to the level.
    """
    if exclude is None:
        exclude = sys.B
    p = sieve_interval(2, cutoff)
    p = p[~_divides(p, exclude)]
    # each factor rounds as the float expression (1 - w/p) * (1 - 1/p) ** -k
    # does; the power goes through libm per prime, since numpy's power may
    # differ in the last bit, and the product runs left to right
    power = np.fromiter(map(math.pow, (1 - 1 / p).tolist(), repeat(-sys.k)), float, len(p))
    return math.prod(((1 - sys.omega(p) / p) * power).tolist(), start=1.0)


def _divides(p, n: int) -> np.ndarray:
    """p | n for each entry of the int64 array p; n is an int, beyond int64 too."""
    if n.bit_length() < 64:
        return n % p == 0
    return np.array([n % q == 0 for q in p.ravel().tolist()], dtype=bool).reshape(p.shape)


def in_Dk(sys: FormSystem, d) -> bool:
    """Membership in the support lattice for coefficient tuples.

    Requires: the coordinate product squarefree, coprime to W*B, and each
    prime entering only at form positions it can actually divide.
    """
    if len(d) != sys.k:
        raise ValueError("tuple length must equal k")
    if any(x < 1 for x in d):
        raise ValueError("coordinates must be positive")
    prod = math.prod(d)
    if _moebius(prod) == 0:
        return False
    if gcd(prod, sys.W * sys.B) != 1:
        return False
    for j, x in enumerate(d, start=1):
        for p in factorize(x):
            if j not in sys.allowed_positions(p):
                return False
    return True


def simplex_power_cap(k: int):
    """F(t) = (1 - t_1 - ... - t_k)^(k+1) on the simplex, 0 outside.

    t is one point or an (N, k) array of points along the last axis.
    """

    def F(t):
        t = np.asarray(t, dtype=float)
        s = np.sum(t, axis=-1)
        inside = (t >= 0).all(axis=-1) & (s <= 1)
        return np.where(inside, (1.0 - s) ** (k + 1), 0.0)

    return F


class WeightSystem:
    """Lambda table and weight evaluation for one admissible form system."""

    def __init__(self, system: FormSystem, R: float):
        if not 1 <= R < math.inf:
            raise ValueError("R must be a finite number >= 1")
        self.system = system
        self.R = float(R)
        self.F = simplex_power_cap(system.k)
        self.Swb = singular_series(system, SERIES_CUTOFF, exclude=system.W * system.B)
        self.support = self._enumerate_support()
        self.y_table = self._y_table()
        self.table = self._lambda_table()

    @cached_property
    def S(self) -> float:
        """The singular series over the primes not dividing B (read by tau_u)."""
        return singular_series(self.system, SERIES_CUTOFF)

    def _enumerate_support(self):
        """All tuples in the support lattice with coordinate product <= R, sorted.

        Each prime p <= R not dividing W*B is multiplied into at most one
        position it may enter, so every tuple is built once: from the tuples
        made of smaller primes.
        """
        sysm = self.system
        out = [((1,) * sysm.k, 1)]  # (tuple, coordinate product)
        for p in primes_up_to(int(self.R)):
            if (sysm.W * sysm.B) % p == 0:
                continue
            positions = sysm.allowed_positions(p)
            out += [(d[: j - 1] + (d[j - 1] * p,) + d[j:], prod * p)
                    for d, prod in out if prod * p <= self.R
                    for j in positions]
        return sorted(d for d, _ in out)

    # -- tables ------------------------------------------------------------

    def _y_table(self) -> dict:
        """y_r = (WB / phi(WB))^k S_WB F(log r_1 / log R, ..., log r_k / log R)."""
        sysm = self.system
        WB = sysm.W * sysm.B
        scale = WB**sysm.k / sysm.phi_WB**sysm.k
        log_R = math.log(self.R)
        return {r: scale * self.Swb
                * float(self.F([math.log(x) / log_R if self.R > 1 else 0.0 for x in r]))
                for r in self.support}

    def _lambda_table(self) -> dict:
        """lambda_d = mu(d) prod(d) sum over r in the support with d | r of y_r / phi(r).

        phi(r) is the product over the primes p | prod r of p - omega(p).
        Each r, in support order, adds its term to every coordinate-wise
        divisor d, itself a support tuple, so each sum adds in support order.
        """
        sums = dict.fromkeys(self.support, 0.0)
        for r, y in self.y_table.items():
            if y:
                term = y / math.prod(p - self.system.omega(p) for p in factorize(math.prod(r)))
                for d in product(*map(_squarefree_divisors, r)):
                    sums[d] += term
        return {d: _moebius(math.prod(d)) * math.prod(d) * total for d, total in sums.items()}

    # -- evaluation ----------------------------------------------------------

    # m multiplies the offsets: the table runs against n + m*h_i
    def inner_sum(self, n: int, m: int = 1) -> float:
        vals = [n + m * h for h in self.system.offsets]
        total = 0.0
        for d, lam in self.table.items():
            if lam and all(v % di == 0 for di, v in zip(d, vals)):
                total += lam
        return total

    def weight(self, n: int, m: int = 1) -> float:
        s = self.inner_sum(n, m)
        return s * s

    def sum_over_interval(self, lo: int, hi: int, m: int = 1) -> float:
        """Exact sum of w(n) for n in [lo, hi] via pairwise lambda expansion.

        The divisibility constraints pin n to residue classes combined by
        CRT, and the class counts in the interval are exact floor arithmetic.
        """
        if hi < lo:
            return 0.0
        shifts = [m * h for h in self.system.offsets]
        items = [(d, lam) for d, lam in self.table.items() if lam]
        total = 0.0
        for d, lam_d in items:
            for e, lam_e in items:
                cls = (0, 1)
                for di, ei, c in zip(d, e, shifts):
                    mod = di * ei // gcd(di, ei)
                    cls = crt_merge(cls, ((-c) % mod, mod))
                    if cls is None:
                        break
                if cls is None:
                    continue
                r, m = cls
                count = (hi - r) // m - (lo - 1 - r) // m
                total += lam_d * lam_e * count
        return total


def _squarefree_divisors(n: int) -> list:
    out = [1]
    for p in factorize(n):
        out += [d * p for d in out]
    return out


def _moebius(n: int) -> int:
    f = factorize(n)
    if any(e > 1 for e in f.values()):
        return 0
    return -1 if len(f) % 2 else 1


# -- weights for shifted tuples -----------------------------------------------


class PairWeightContext:
    """Weights w(p, n) for the shifted forms n + h_i * p, clamped to [-y, y].

    R is fixed to (x/4)^(1/9) (theta = 1/3 with the R = x^(theta/3) choice).
    One lambda table for the base forms n + h_i serves every prime p > R:
    p divides no table coordinate and multiplying by p permutes the roots
    mod every q != p, so only the singular series' Euler factor at p differs
    (omega(p) drops to 1), and weights carry its squared ratio.

    Sieve mode covers almost nothing at desk scale: k = default_r(x) = 2 for
    x < e^243, so W = 210 and coordinates need primes in [11, R], none of
    which exist below x = 4 * 11^9 (about 9.4e9).  The table is then
    {(1, 1)}, w(p, .) is constant on [-y, y] (`units`, for all sieving
    primes at once), and each sieving prime draws a nonempty edge with
    probability (#nonempty anchors) / (2y + 1), about 0.083 at x = 2000.
    """

    def __init__(self, offsets, x: int):
        self.offsets = tuple(offsets)
        self.R = (x / 4) ** (1.0 / 9.0)
        self.ws = WeightSystem(FormSystem(self.offsets), R=max(self.R, 1.0))

    def _euler_ratio(self, p):
        """Squared ratio of the per-p singular series to the shared one.

        p is an int or an int64 array of sieving primes, each above R.
        """
        p = np.asarray(p, dtype=np.int64)
        if p.size and p.min() <= self.R:
            raise ValueError(f"sieving prime {p.min()} must exceed R = {self.R:.3g}")
        sysm = self.ws.system
        ratio = (1 - 1 / p) / (1 - sysm.omega(p) / p)
        return np.where((p > SERIES_CUTOFF) | _divides(p, sysm.W), 1.0, ratio * ratio)

    def weight(self, p: int, n: int, y: int) -> float:
        if abs(n) > y:
            return 0.0
        return self.ws.weight(n, p) * float(self._euler_ratio(p))

    def sum_over_support(self, p: int, y: int) -> float:
        return self.ws.sum_over_interval(-y, y, p) * float(self._euler_ratio(p))

    def units(self, primes, y: int) -> np.ndarray:
        """Each anchor's mass w(p, n) / sum over [-y, y] of w(p, .), for every
        sieving prime p of an int64 array, while the table is {(1, ..., 1)}.

        With lam the one table entry and r the Euler ratio at p, w(p, n) is
        lam^2 r on [-y, y] and the sum is (lam^2 (2y + 1)) r: the operations
        of weight(p, n, y) / sum_over_support(p, y), rounded alike.  Raises
        ValueError for a larger table, where w(p, .) depends on n.
        """
        if len(self.ws.table) != 1:
            raise ValueError(
                f"lambda table has {len(self.ws.table)} entries, so w(p, n) is not constant"
            )
        (lam,) = self.ws.table.values()
        square = lam * lam
        r = self._euler_ratio(primes)
        return (square * r) / ((square * (2 * y + 1)) * r)


# -- integrals of the cap and normalizations ------------------------------------


def cap_integrals(k: int):
    """(I_k, J_k) of the cap F = (1 - t_1 - ... - t_k)^(k+1), exactly.

    I_k = int F^2 and J_k = int (int F dt_k)^2 over the unit simplex.  A
    power of 1 - sum t integrates to int (1 - sum t)^a dt = a!/(a+k)! over
    the k-simplex, and int F dt_k = (1 - t_1 - ... - t_(k-1))^(k+2)/(k+2),
    so I_k = (2k+2)!/(3k+2)! and J_k = (2k+4)!/((k+2)^2 (3k+3)!).  Each is
    a Fraction rounded once to a float.
    """
    f = math.factorial
    I = Fraction(f(2 * k + 2), f(3 * k + 2))
    J = Fraction(f(2 * k + 4), (k + 2) ** 2 * f(3 * k + 3))
    return float(I), float(J)


def tau_u(ws: WeightSystem, x: int):
    """The normalization pair (tau, u) for a weight system at scale x >= 2.

    tau = 2 (B/phi(B))^k S (log R)^k (log x)^k I_k and
    u = (phi(B)/B) (log R / log x) k J_k / (2 I_k), with I_k and J_k the
    exact integrals of the cap F (`cap_integrals`), which the report
    labels.  x below 2 raises ValueError: both divide by log x.
    """
    if x < 2:
        raise ValueError(f"x must be >= 2 (tau and u divide by log x), got {x}")
    sysm = ws.system
    k = sysm.k
    I, J = cap_integrals(k)
    phi_B = max(sysm.B - 1, 1)  # B is 1 or a prime
    logR = math.log(ws.R)
    logx = math.log(x)
    tau = 2 * (sysm.B / phi_B) ** k * ws.S * logR**k * logx**k * I
    u = (phi_B / sysm.B) * (logR / logx) * k * J / (2 * I)
    return tau, u
