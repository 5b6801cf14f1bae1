"""Multidimensional sieve weights for the shifts n + h_i of an admissible tuple.

Given admissible offsets h_1, ..., h_k the module builds the classical
squared-divisor-sum weight

    w(n) = ( sum over d with d_i | n + h_i of lambda_d )^2

where the lambda coefficients come from a smooth cap F on the simplex via
the y-weight transform.  Everything is computed by direct enumeration over
the support tuples, exactly as the defining formulas read; the enumeration
is cheap because desk-scale truncation levels R keep the support tiny, and
it doubles as the oracle for any faster path.

The singular series are Euler products truncated at SERIES_CUTOFF.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from math import gcd

import numpy as np

from .primes import factorize, is_admissible, is_prime, primes_up_to
from .residues import crt_merge

SERIES_CUTOFF = 10**4  # the primes in every truncated singular series


class InadmissibleError(ValueError):
    """Some prime divides every value of the form product."""


def _euler_phi(n: int) -> int:
    out = n
    for p in factorize(n):
        out = out // p * (p - 1)
    return out


@dataclass(frozen=True)
class OmegaData:
    count: int
    roots: tuple  # n in [1, p] with p | prod (n + h_i), increasing
    j_least: tuple  # for each root, least form index (1-based) it kills


class FormSystem:
    """The forms n + h_i of admissible offsets, with exceptional modulus B and level W.

    W is the product of primes up to 2k^2 not dividing B; B is 1 (default)
    or a prime standing in for a possible exceptional modulus.  Offsets
    that cover every class mod some prime raise InadmissibleError, and
    repeated offsets ValueError.
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
        self._omega = {}
        self.W = 1
        for p in primes_up_to(2 * self.k * self.k):
            if B % p != 0:
                self.W *= p

    def omega(self, p: int) -> OmegaData:
        """Roots of prod (n + h_i) mod p in [1, p], with least-form assignments.

        Form j has the single root -h_j mod p, so the scan is O(k) per
        prime.  Results are cached on the instance.
        """
        if p in self._omega:
            return self._omega[p]
        root_to_j = {}
        for j, h in enumerate(self.offsets, start=1):
            n = -h % p or p  # represent classes by [1, p]
            root_to_j.setdefault(n, j)  # ascending j, so first hit is least
        roots = tuple(sorted(root_to_j))
        data = self._omega[p] = OmegaData(
            count=len(roots),
            roots=roots,
            j_least=tuple(root_to_j[n] for n in roots),
        )
        return data

    def allowed_positions(self, p: int) -> set:
        """Form indices j (1-based) that a prime p not dividing WB may enter."""
        return set(self.omega(p).j_least)

    def phi_omega(self, n: int) -> int:
        """prod over p | n of (p - omega(p))."""
        out = 1
        for p in factorize(n):
            out *= p - self.omega(p).count
        return out


def singular_series(sys: FormSystem, cutoff: int, exclude: int = None) -> float:
    """Truncated Euler product prod_{p <= cutoff, p !| exclude} (1 - w(p)/p)(1 - 1/p)^-k.

    exclude defaults to B; WeightSystem passes W*B for the product over
    primes coprime to the level.
    """
    if exclude is None:
        exclude = sys.B
    value = 1.0
    k = sys.k
    for p in primes_up_to(cutoff):
        if exclude % p == 0:
            continue
        w = sys.omega(p).count
        value *= (1 - w / p) * (1 - 1 / p) ** (-k)
    return value


def in_Dk(sys: FormSystem, d) -> bool:
    """Membership in the support lattice for coefficient tuples.

    Requires: the coordinate product squarefree, coprime to W*B, and each
    prime entering only at form positions it can actually divide.
    """
    if len(d) != sys.k:
        raise ValueError("tuple length must equal k")
    if any(x < 1 for x in d):
        raise ValueError("coordinates must be positive")
    prod = 1
    for x in d:
        prod *= x
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
    """F(t) = (1 - t_1 - ... - t_k)^(k+1) on the simplex, 0 outside."""

    def F(t):
        s = 0.0
        for ti in t:
            if ti < 0:
                return 0.0
            s += ti
        if s > 1:
            return 0.0
        return (1.0 - s) ** (k + 1)

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
        self.y_table = {r: self._y_weight(r) for r in self.support}
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
            out += [(d[: j - 1] + (d[j - 1] * p,) + d[j:], prod * p)
                    for d, prod in out if prod * p <= self.R
                    for j in sysm.allowed_positions(p)]
        return sorted(d for d, _ in out)

    # -- tables ------------------------------------------------------------

    def _y_weight(self, r) -> float:
        sysm = self.system
        prod = 1
        for x in r:
            prod *= x
        scale = (sysm.W * sysm.B) ** sysm.k / _euler_phi(sysm.W * sysm.B) ** sysm.k
        args = tuple(math.log(x) / math.log(self.R) if self.R > 1 else 0.0 for x in r)
        return scale * self.Swb * self.F(args)

    def _lambda_table(self) -> dict:
        sysm = self.system
        table = {}
        for d in self.support:
            prod_d = 1
            for x in d:
                prod_d *= x
            mu = _moebius(prod_d)
            total = 0.0
            for r in self.support:
                if all(ri % di == 0 for di, ri in zip(d, r)):
                    prod_r = 1
                    for x in r:
                        prod_r *= x
                    yr = self.y_table[r]
                    if yr:
                        total += yr / sysm.phi_omega(prod_r)
            table[d] = mu * prod_d * total
        return table

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
    {(1, 1)}, w(p, .) is constant on [-y, y] (`constant_weight`), and each
    sieving prime draws a nonempty edge with probability
    (#nonempty anchors) / (2y + 1), about 0.083 at x = 2000.
    """

    def __init__(self, offsets, x: int):
        self.offsets = tuple(offsets)
        self.R = (x / 4) ** (1.0 / 9.0)
        self.ws = WeightSystem(FormSystem(self.offsets), R=max(self.R, 1.0))

    def _euler_ratio(self, p: int) -> float:
        """Squared ratio of the per-p singular series to the shared one."""
        if p <= self.R:
            raise ValueError(f"sieving prime {p} must exceed R = {self.R:.3g}")
        if p > SERIES_CUTOFF or self.ws.system.W % p == 0:
            return 1.0
        ratio = (1 - 1 / p) / (1 - self.ws.system.omega(p).count / p)
        return ratio * ratio

    def weight(self, p: int, n: int, y: int) -> float:
        if abs(n) > y:
            return 0.0
        return self.ws.weight(n, p) * self._euler_ratio(p)

    def sum_over_support(self, p: int, y: int) -> float:
        return self.ws.sum_over_interval(-y, y, p) * self._euler_ratio(p)

    def constant_weight(self, p: int, y: int) -> float:
        """w(p, n), the same for every n in [-y, y] while the table is {(1, ..., 1)}.

        Raises ValueError for a larger table, where w(p, .) depends on n.
        """
        if len(self.ws.table) != 1:
            raise ValueError(
                f"lambda table has {len(self.ws.table)} entries, so w(p, n) is not constant"
            )
        return self.weight(p, 0, y)


# -- numeric integrals over the simplex ----------------------------------------


@dataclass(frozen=True)
class IntegralEstimates:
    I: float
    J: float
    se_I: float
    se_J: float
    samples: int


def integrals_IJ(F, k: int, samples: int, seed: int) -> IntegralEstimates:
    """Monte Carlo estimates of I = int F^2 and J = int (int F dt_k)^2.

    Both integrals are over the unit simplex; sampling is uniform over the
    unit cube with F vanishing outside the simplex.  J uses the identity
    (int F dt_k)^2 = E[F(t, a) F(t, b)] with a, b independent uniform.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    rng = np.random.default_rng(seed)
    pts = rng.random((samples, k))
    vals_sq = np.fromiter((F(tuple(row)) ** 2 for row in pts), dtype=float, count=samples)
    I = float(vals_sq.mean())
    se_I = float(vals_sq.std(ddof=1) / math.sqrt(samples))

    outer = rng.random((samples, k - 1)) if k > 1 else np.zeros((samples, 0))
    a = rng.random(samples)
    b = rng.random(samples)
    prods = np.fromiter(
        (
            F(tuple(outer[i]) + (a[i],)) * F(tuple(outer[i]) + (b[i],))
            for i in range(samples)
        ),
        dtype=float,
        count=samples,
    )
    J = float(prods.mean())
    se_J = float(prods.std(ddof=1) / math.sqrt(samples))
    return IntegralEstimates(I=I, J=J, se_I=se_I, se_J=se_J, samples=samples)


def check_scale(x: int) -> None:
    """Reject a scale x below 2: tau and u divide by log x."""
    if x < 2:
        raise ValueError(f"x must be >= 2 (tau and u divide by log x), got {x}")


def tau_u(ws: WeightSystem, x: int, ij: IntegralEstimates):
    """The normalization pair (tau, u) for a weight system at scale x.

    tau = 2 (B/phi(B))^k S (log R)^k (log x)^k I_k and
    u = (phi(B)/B) (log R / log x) k J_k / (2 I_k); both are relative to the
    chosen cap F, which the report labels.
    """
    check_scale(x)
    if ij.I == 0:
        raise ValueError(f"the Monte Carlo estimate of I_k is 0 (no sample of {ij.samples} "
                         "fell in the simplex); raise --samples")
    sysm = ws.system
    k = sysm.k
    phi_B = _euler_phi(sysm.B)
    logR = math.log(ws.R)
    logx = math.log(x)
    tau = 2 * (sysm.B / phi_B) ** k * ws.S * logR**k * logx**k * ij.I
    u = (phi_B / sysm.B) * (logR / logx) * k * ij.J / (2 * ij.I)
    return tau, u
