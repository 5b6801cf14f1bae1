"""Tests for the sieve-weight machinery.

The lambda table and the squared weight are checked against two
independently coded references: a brute-force double-loop table evaluator
and the y-weight expansion of the inner sum (Moebius route), both living in
this file only.
"""

import gc
import math
import time
import weakref
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from gapsieve import weights
from gapsieve.pipeline import StagedConfig, default_r, thresholds
from gapsieve.primes import admissible_tuple, is_admissible, primes_up_to, sieve_interval
from gapsieve.weights import (
    SERIES_CUTOFF,
    FormSystem,
    InadmissibleError,
    PairWeightContext,
    WeightSystem,
    cap_integrals,
    in_Dk,
    simplex_power_cap,
    singular_series,
    tau_u,
)


def twin_system():
    return FormSystem([0, 2])


# -- omega -------------------------------------------------------------------


def test_omega_twin_examples():
    fs = twin_system()
    # direct scan: n=1 -> 1*3 odd; n=2 -> 2*4 even; one root mod 2
    assert fs.omega(2) == 1
    assert fs.omega(2) == len([n for n in range(2) if n * (n + 2) % 2 == 0])
    assert fs.omega(3) == 2
    assert fs.omega(11) == 2  # n=9 kills n+2, n=11 kills n
    assert fs.allowed_positions(11) == {1, 2}
    assert fs.allowed_positions(2) == {1}  # the one root mod 2 kills n first


def test_omega_single_form():
    fs = FormSystem([0])
    for p in (2, 3, 5, 7, 101):
        assert fs.omega(p) == 1


def test_omega_matches_full_scan():
    fs = FormSystem([0, 6, 8])
    for p in primes_up_to(50):
        brute = [n for n in range(1, p + 1) if (n * (n + 6) * (n + 8)) % p == 0]
        assert fs.omega(p) == len(brute)
        least = {min(j for j, h in enumerate(fs.offsets, 1) if (root + h) % p == 0)
                 for root in brute}
        assert fs.allowed_positions(p) == least


def test_omega_shifted_system_counts_offsets():
    offsets = admissible_tuple(3)
    p0 = 10007
    fs = FormSystem([h * p0 for h in offsets])
    for s in primes_up_to(100):
        if s == p0:
            continue
        assert fs.omega(s) == len({h % s for h in offsets})


def test_omega_on_arrays_is_the_set_count():
    # random admissible offsets, negatives included; primes up to 600 divide
    # many of their differences, so roots coincide
    rng = np.random.default_rng(28)
    primes = sieve_interval(2, 600)
    systems = merged = 0
    while systems < 40:
        offsets = rng.choice(np.arange(-300, 300), size=rng.integers(1, 7), replace=False)
        if not is_admissible(offsets.tolist()):
            continue
        systems += 1
        fs = FormSystem(offsets.tolist())
        counts = fs.omega(primes)
        assert counts.dtype == np.int64 and counts.shape == primes.shape
        want = [len({-h % p for h in fs.offsets}) for p in primes.tolist()]
        assert counts.tolist() == want
        merged += sum(c < fs.k for c in want[3:])
    assert merged > 0  # roots coincided mod some prime above 5
    assert type(fs.omega(7)) is int
    assert fs.omega(np.empty(0, dtype=np.int64)).shape == (0,)


# -- singular series ------------------------------------------------------------


def singular_series_loop(fs, cutoff, exclude=None):
    """The truncated Euler product as one float loop over the primes."""
    if exclude is None:
        exclude = fs.B
    value = 1.0
    for p in primes_up_to(cutoff):
        if exclude % p == 0:
            continue
        value *= (1 - len({-h % p for h in fs.offsets}) / p) * (1 - 1 / p) ** (-fs.k)
    return value


@pytest.mark.parametrize("B", [1, 2, 3, 19, 2**61 - 1])
@pytest.mark.parametrize("k", range(1, 13))
def test_singular_series_is_the_loop_bit_for_bit(k, B):
    fs = FormSystem(admissible_tuple(k), B=B)
    for cutoff in (0, 1, 2, 10, 10**4):
        for exclude in (None, fs.W * fs.B):
            assert singular_series(fs, cutoff, exclude) == singular_series_loop(fs, cutoff, exclude)
    assert (fs.W * fs.B).bit_length() > 63 or k < 6  # W*B beyond int64 from k = 6 on


def test_singular_series_trivial_system():
    fs = FormSystem([0])
    for cutoff in (10, 100, 10**4):
        assert abs(singular_series(fs, cutoff) - 1.0) < 1e-12


def test_singular_series_twin_constant_recomputed():
    # independent recomputation through the Hardy-Littlewood product
    # 2 * prod_{p > 2} (1 - (p-1)^-2), a different formula route
    reference = 2.0
    for p in primes_up_to(10**6):
        if p > 2:
            reference *= 1 - 1 / (p - 1) ** 2
    val = singular_series(twin_system(), 10**5)
    assert abs(val - reference) < 1e-3
    assert abs(reference - 1.3203236) < 1e-6  # sanity on the oracle itself


def test_singular_series_inadmissible():
    with pytest.raises(InadmissibleError):
        FormSystem([0, 1])


def test_singular_series_tail_bound_on_doubling():
    fs = twin_system()
    k = fs.k
    for cutoff in (100, 400, 1600):
        v1 = singular_series(fs, cutoff)
        v2 = singular_series(fs, 2 * cutoff)
        bound = sum(
            2 * k * k / (p * p) for p in primes_up_to(2 * cutoff) if p > cutoff
        )
        assert abs(math.log(v2) - math.log(v1)) <= bound


def test_singular_series_excluded_modulus():
    fs = FormSystem([0, 2], B=3)
    v_wb = singular_series(fs, 1000, exclude=fs.W * fs.B)
    v_b = singular_series(fs, 1000)
    # W is the product of the primes up to 2k^2 = 8 other than B = 3, so
    # excluding W*B also divides out the local factors at 2, 5 and 7
    assert fs.W == 2 * 5 * 7
    factor = 1.0
    for p in (2, 5, 7):
        factor *= (1 - fs.omega(p) / p) * (1 - 1 / p) ** (-2)
    assert v_wb == pytest.approx(v_b / factor)


def test_singular_series_B_excludes_prime():
    fs = FormSystem([0, 2], B=3)
    v_b3 = singular_series(fs, 1000)
    v_b1 = singular_series(twin_system(), 1000)
    # removing p = 3 divides out its local factor (1 - 2/3)(1 - 1/3)^-2
    factor = (1 - 2 / 3) * (1 - 1 / 3) ** (-2)
    assert v_b3 == pytest.approx(v_b1 / factor)


# -- support lattice ---------------------------------------------------------------


def test_in_Dk_examples():
    fs = twin_system()
    assert in_Dk(fs, (1, 1))
    assert not in_Dk(fs, (3, 3))  # repeated prime: product not squarefree
    assert not in_Dk(fs, (2, 1))  # 2 divides W
    assert in_Dk(fs, (11, 1)) and in_Dk(fs, (1, 11))


def test_in_Dk_positions_brute_force():
    # re-derive roots and least-form assignments mod 11 and 13 by scanning
    fs = twin_system()
    for p in (11, 13):
        roots = [n for n in range(1, p + 1) if (n * (n + 2)) % p == 0]
        allowed = set()
        for root in roots:
            for j, h in enumerate(fs.offsets, 1):
                if (root + h) % p == 0:
                    allowed.add(j)
                    break
        for j in (1, 2):
            d = [1, 1]
            d[j - 1] = p
            assert in_Dk(fs, tuple(d)) == (j in allowed)


def test_in_Dk_validation():
    fs = twin_system()
    with pytest.raises(ValueError):
        in_Dk(fs, (1,))
    with pytest.raises(ValueError):
        in_Dk(fs, (0, 1))


def tuples_up_to(k, R):
    """Every k-tuple of positive integers with product <= R."""
    if k == 0:
        yield ()
        return
    for a in range(1, R + 1):
        for rest in tuples_up_to(k - 1, R // a):
            yield (a,) + rest


@pytest.mark.parametrize("R", [1, 30, 200])
@pytest.mark.parametrize("B", [1, 3, 5])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_support_is_every_lattice_tuple_up_to_R(k, B, R):
    fs = FormSystem(admissible_tuple(k), B=B)
    want = sorted(d for d in tuples_up_to(k, R) if in_Dk(fs, d))
    assert WeightSystem(fs, R=R).support == want


# -- lambda table ---------------------------------------------------------------------


def prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def phi_omega(fs, n):
    """prod over p | n of (p - omega(p))."""
    out = 1
    for p in prime_factors(n):
        out *= p - fs.omega(p)
    return out


def reference_lambda_table(fs, R, F, cutoff):
    """Independent double-loop evaluator for the lambda coefficients."""
    swb = 1.0
    for p in primes_up_to(cutoff):
        if (fs.W * fs.B) % p == 0:
            continue
        swb *= (1 - fs.omega(p) / p) * (1 - 1 / p) ** (-fs.k)

    def squarefree(n):
        i = 2
        while i * i <= n:
            if n % (i * i) == 0:
                return False
            i += 1
        return True

    def member(t):
        prod = 1
        for v in t:
            prod *= v
        if not squarefree(prod) or gcd(prod, fs.W * fs.B) != 1:
            return False
        for j, v in enumerate(t, 1):
            for p in prime_factors(v):
                if j not in fs.allowed_positions(p):
                    return False
        return True

    def mu(n):
        f = prime_factors(n)
        return -1 if len(f) % 2 else 1

    tuples = []
    limit = int(R)
    for a in range(1, limit + 1):
        for b in range(1, limit // a + 1):
            if member((a, b)):
                tuples.append((a, b))

    def y_val(r):
        scale = (fs.W * fs.B) ** fs.k
        phi_val = fs.W * fs.B
        for p in set(prime_factors(fs.W * fs.B)):
            phi_val = phi_val // p * (p - 1)
        args = tuple(math.log(v) / math.log(R) for v in r)
        return scale / phi_val**fs.k * swb * F(args)

    table = {}
    for d in tuples:
        total = 0.0
        for r in tuples:
            if r[0] % d[0] == 0 and r[1] % d[1] == 0:
                total += y_val(r) / phi_omega(fs, r[0] * r[1])
        table[d] = mu(d[0] * d[1]) * d[0] * d[1] * total
    return table


def double_loop_lambda_table(ws):
    """The lambda table with one loop over the support per entry d."""
    terms = [(r, y / math.prod(p - ws.system.omega(p) for p in prime_factors(math.prod(r))))
             for r, y in ws.y_table.items() if y]
    table = {}
    for d in ws.support:
        total = 0.0
        for r, term in terms:
            if all(ri % di == 0 for di, ri in zip(d, r)):
                total += term
        table[d] = weights._moebius(math.prod(d)) * math.prod(d) * total
    return table


@pytest.mark.parametrize("R", [30, 1000])
@pytest.mark.parametrize("B", [1, 5])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_lambda_table_matches_double_loop(k, B, R):
    # same entries in the same order, each with the same bits and sign of zero
    ws = WeightSystem(FormSystem(admissible_tuple(k), B=B), R=R)
    assert len(ws.table) > (1 if R > 30 else 0)
    want = double_loop_lambda_table(ws)
    assert [(d, repr(v)) for d, v in ws.table.items()] == [(d, repr(v)) for d, v in want.items()]


def test_lambda_table_degenerate_R():
    fs = twin_system()
    ws = WeightSystem(fs, R=5)  # every usable prime exceeds R
    assert set(ws.table) == {(1, 1)}
    lam = ws.table[(1, 1)]
    for n in (0, 1, 7, 100):
        assert ws.weight(n) == pytest.approx(lam * lam)


def test_lambda_table_matches_independent_evaluator():
    fs = twin_system()
    for R in (30, 35, 50):
        ws = WeightSystem(fs, R=R)
        ref = reference_lambda_table(fs, R, ws.F, SERIES_CUTOFF)
        assert set(ws.table) == set(ref)
        for d, lam in ws.table.items():
            assert lam == pytest.approx(ref[d], abs=1e-12, rel=1e-12)


def test_lambda_support_inside_lattice():
    fs = twin_system()
    for R in (20, 35, 50):
        ws = WeightSystem(fs, R=R)
        for d in ws.table:
            assert in_Dk(fs, d)
            prod = 1
            for v in d:
                prod *= v
            assert prod <= R


def test_lambda_sign_structure():
    ws = WeightSystem(twin_system(), R=50)
    for d, lam in ws.table.items():
        prod = d[0] * d[1]
        factors = sum(1 for p in primes_up_to(prod) if prod % p == 0)
        mu = -1 if factors % 2 else 1
        if lam:
            assert (lam > 0) == (mu > 0)


# -- weight evaluation ------------------------------------------------------------------


def y_expansion_weight(ws, n):
    """Moebius-route oracle: expand the inner sum through the y-weights.

    sum over support tuples r of y_r / phi_omega(prod r) times
    prod over primes p | r_j of (1 - p * [p | L_j(n)]).
    """
    fs = ws.system
    total = 0.0
    for r in ws.support:
        yr = ws.y_table[r]
        if not yr:
            continue
        prod_r = 1
        for v in r:
            prod_r *= v
        factor = 1.0
        for j, rj in enumerate(r):
            m = rj
            d = 2
            while d * d <= m:
                if m % d == 0:
                    if (n + fs.offsets[j]) % d == 0:
                        factor *= 1 - d
                    while m % d == 0:
                        m //= d
                d += 1
            if m > 1:
                if (n + fs.offsets[j]) % m == 0:
                    factor *= 1 - m
        total += yr / phi_omega(fs, prod_r) * factor
    return total * total


def test_weight_nonnegative_and_moebius_consistent():
    fs = twin_system()
    for R in (30, 35, 50):
        ws = WeightSystem(fs, R=R)
        for n in range(1, 1001):
            w = ws.weight(n)
            assert w >= 0
            assert w == pytest.approx(y_expansion_weight(ws, n), abs=1e-9, rel=1e-9)


def test_sum_over_interval_matches_direct():
    ws = WeightSystem(twin_system(), R=35)
    direct = sum(ws.weight(n) for n in range(-50, 301))
    assert ws.sum_over_interval(-50, 300) == pytest.approx(direct, rel=1e-9)
    assert ws.sum_over_interval(10, 9) == 0.0


# -- pair weights ------------------------------------------------------------------------


def test_pair_weight_support_clamp():
    ctx = PairWeightContext(admissible_tuple(2), x=10**5)
    p = 50021
    y = 1000
    assert ctx.weight(p, y + 1, y) == 0.0
    assert ctx.weight(p, -(y + 1), y) == 0.0
    for n in (-y, -1, 0, 1, y):
        assert ctx.weight(p, n, y) >= 0.0
    with pytest.raises(ValueError):  # 3 <= R = 3.08: the shared table is unsound
        ctx.weight(3, 0, y)


@pytest.mark.parametrize("x", [500, 2000, 200000])
def test_units_are_the_per_prime_arithmetic(x):
    y = thresholds(StagedConfig(x=x)).y
    ctx = PairWeightContext(admissible_tuple(default_r(x)), x)
    sieving = sieve_interval(x // 2 + 1, x)
    units = ctx.units(sieving, y)
    assert units.dtype == np.float64 and units.shape == sieving.shape
    want = [ctx.weight(p, 0, y) / ctx.sum_over_support(p, y) for p in sieving.tolist()]
    assert units.tolist() == want  # bit for bit
    assert (units > 0).all()
    # the weight one unit stands for is the same at every anchor of [-y, y]
    ns = sorted({-y, -1, 0, 1, y, *range(-y, y + 1, 97)})
    some = sieving.tolist()
    for p in some[:: max(1, len(some) // 12)] + some[-1:]:
        w = ctx.weight(p, 0, y)
        assert all(ctx.weight(p, n, y) == w for n in ns)
        assert ctx.weight(p, y + 1, y) == ctx.weight(p, -(y + 1), y) == 0.0


def test_units_refuse_a_nontrivial_table():
    ctx = PairWeightContext(admissible_tuple(2), 10**10)
    assert len(ctx.ws.table) > 1  # R = 11.07 admits the coordinate prime 11
    with pytest.raises(ValueError, match="not constant"):
        ctx.units(np.array([50021]), 1000)


def test_units_refuse_a_prime_at_most_R():
    ctx = PairWeightContext(admissible_tuple(2), x=10**5)  # R = 3.08
    with pytest.raises(ValueError, match="sieving prime 3 must exceed R"):
        ctx.units(np.array([50021, 3, 99991]), 1000)


def test_pair_context_builds_only_what_weights_read(monkeypatch):
    asked = []

    def recording(x):
        asked.append(x)
        return primes_up_to(x)

    def recording_interval(lo, hi):
        asked.append(hi)
        return sieve_interval(lo, hi)

    monkeypatch.setattr(weights, "primes_up_to", recording)
    monkeypatch.setattr(weights, "sieve_interval", recording_interval)
    ctx = PairWeightContext((3, 5), 2000)
    # no sieve beyond the series cutoff (no tail estimate) and no S, which
    # only tau_u reads; S is computed on its first read
    assert asked and max(asked) <= SERIES_CUTOFF
    assert "S" not in ctx.ws.__dict__
    assert ctx.ws.S == singular_series(ctx.ws.system, SERIES_CUTOFF)
    assert "S" in ctx.ws.__dict__


def per_prime_system(ctx, p):
    """The honest reference: a weight system built for the forms n + h_i * p."""
    return WeightSystem(FormSystem([h * p for h in ctx.offsets]), R=max(ctx.R, 1.0))


def test_pair_lambda_tables_agree_up_to_scalar():
    ctx = PairWeightContext(admissible_tuple(2), x=10**5)
    p1, p2 = 50021, 99991
    ws1, ws2 = per_prime_system(ctx, p1), per_prime_system(ctx, p2)
    t1, t2 = ws1.table, ws2.table
    assert set(t1) == set(t2) == set(ctx.ws.table)
    s1 = ws1.Swb
    s2 = ws2.Swb
    for d in t1:
        assert t1[d] * s2 == pytest.approx(t2[d] * s1, rel=1e-9, abs=1e-9)


def test_form_system_freed_with_its_context():
    ctx = PairWeightContext(admissible_tuple(2), x=10**5)
    ctx.weight(50021, 0, 10)
    ref = weakref.ref(ctx.ws.system)
    assert ref() is not None
    del ctx
    gc.collect()
    assert ref() is None


def test_pair_weight_omega_invariant_small():
    offsets = admissible_tuple(3)
    ctx = PairWeightContext(offsets, x=10**5)
    p = 50021
    fs = per_prime_system(ctx, p).system
    for s in primes_up_to(1000):
        if s != p:
            assert fs.omega(s) == len({h % s for h in offsets})


# -- integrals and normalizations --------------------------------------------------------


@pytest.mark.parametrize("k, one_over_I, one_over_J", [(1, 5, 9), (2, 56, 144)])
def test_cap_integrals_hand_values(k, one_over_I, one_over_J):
    # k = 1: int_0^1 (1 - t)^4 = 1/5 and (int_0^1 (1 - t)^2 dt)^2 = 1/9
    # k = 2: int (1 - s)^6 over the triangle = 6!/8! = 1/56 and
    # int_0^1 ((1 - t)^4 / 4)^2 dt = 1/144
    assert cap_integrals(k) == (1 / one_over_I, 1 / one_over_J)


def test_cap_integrals_shortcut_is_the_exact_rounding():
    # around the boundary where I_k and J_k underflow, the lgamma shortcut
    # gives the float of the exact Fraction, and both are 0.0 from k = 129 on
    f = math.factorial
    for k in range(100, 161):
        I = float(Fraction(f(2 * k + 2), f(3 * k + 2)))
        J = float(Fraction(f(2 * k + 4), (k + 2) ** 2 * f(3 * k + 3)))
        assert cap_integrals(k) == (I, J)
        assert (I == 0.0) == (J == 0.0) == (k >= 129)
    start = time.perf_counter()
    assert cap_integrals(10**12) == (0.0, 0.0)
    assert time.perf_counter() - start < 0.1
    with pytest.raises(ValueError, match="k must be >= 1"):
        cap_integrals(0)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_cap_integrals_match_monte_carlo(k):
    # uniform points in the unit cube, F zero outside the simplex; J by
    # (int F dt_k)^2 = E[F(t, a) F(t, b)] over independent last coordinates
    F = simplex_power_cap(k)
    n = 10**6
    rng = np.random.default_rng(1000 + k)
    sq = F(rng.random((n, k))) ** 2
    outer = rng.random((n, k - 1))
    prods = F(np.hstack((outer, rng.random((n, 1))))) * F(np.hstack((outer, rng.random((n, 1)))))
    I, J = cap_integrals(k)
    assert abs(sq.mean() - I) <= 4 * sq.std(ddof=1) / math.sqrt(n)
    assert abs(prods.mean() - J) <= 4 * prods.std(ddof=1) / math.sqrt(n)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_simplex_power_cap_on_arrays(k):
    F = simplex_power_cap(k)
    rng = np.random.default_rng(k)
    pts = rng.uniform(-0.2, 0.8, size=(4000, k))
    vals = F(pts)
    assert vals.shape == (4000,)
    s = pts.sum(axis=-1)
    outside = (pts < 0).any(axis=-1) | (s > 1)
    assert outside.any() and not outside.all()
    assert (vals[outside] == 0.0).all()
    want = (1 - s[~outside]) ** (k + 1)
    assert np.all(np.abs(vals[~outside] - want) <= 2 * np.spacing(want))
    for row in pts[:200]:
        one, batch = F(row), F(row[None, :])
        assert batch.shape == (1,) and abs(one - batch[0]) <= 2 * np.spacing(batch[0])


def test_tau_u_structure():
    ws = WeightSystem(twin_system(), R=35)
    tau, u = tau_u(ws, 10**5)
    assert tau > 0
    # B = 1 leaves no (B/phi(B))^k factor; I_2 = 1/56 and J_2 = 1/144
    expected_tau = 2 * ws.S * math.log(ws.R) ** 2 * math.log(10**5) ** 2 / 56
    assert tau == pytest.approx(expected_tau)
    assert u == pytest.approx(math.log(35) / math.log(10**5) * 2 * (56 / 144) / 2)
    # a prime B scales tau by (B/(B-1))^k and u by (B-1)/B
    wb = WeightSystem(FormSystem([0, 2], B=5), R=35)
    tau_b, u_b = tau_u(wb, 10**5)
    assert tau_b == pytest.approx(tau * (5 / 4) ** 2 * wb.S / ws.S)
    assert u_b == pytest.approx(u * 4 / 5)
    with pytest.raises(ValueError, match="x must be >= 2"):
        tau_u(ws, 1)


def test_form_system_phi_from_its_primes():
    # phi(W*B) is the product of p - 1 over the primes of W and B
    assert twin_system().phi_WB == 1 * 2 * 4 * 6  # W = 2*3*5*7
    fs = FormSystem([0, 2], B=3)
    assert (fs.W, fs.phi_WB) == (2 * 5 * 7, 1 * 4 * 6 * 2)
    big = FormSystem([0, 2], B=2**61 - 1)
    assert big.phi_WB == 48 * (2**61 - 2)
