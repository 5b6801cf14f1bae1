"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from law_oracle import oracle_distribution
from test_nibble import assert_law, engine_outcomes

from gapsieve import nibble as nib
from gapsieve.cli import main
from gapsieve.oracle import exact_Y, jacobsthal
from gapsieve.pipeline import StagedConfig, run_pipeline
from gapsieve.primes import (
    admissible_tuple,
    is_admissible,
    primorial,
    sieve_interval,
)
from gapsieve.residues import assemble_gap, read_system_file
from gapsieve.rng import stream, stream_seed
from gapsieve.weights import integrals_IJ

F = Fraction


def report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_oracle_agreement(exact_Y_23):
    t0 = time.time()
    pairs = []
    for x in (2, 3, 5, 7, 11, 13, 17, 19, 23):
        Y = exact_Y_23.Y if x == 23 else exact_Y(x).Y
        J = jacobsthal(primorial(x))
        pairs.append((x, Y, J))
        assert Y == J - 1, f"x={x}: exact_Y={Y} vs jacobsthal-1={J - 1}"
    dt = time.time() - t0
    report(1, dt < 300, f"exact_Y == jacobsthal(primorial)-1 on {pairs} in {dt:.2f}s")


def test_criterion_2_gap_realization_x13():
    t0 = time.time()
    res = exact_Y(13)
    cert = assemble_gap(res.witness, 13)
    ok = 13 < cert.m <= 30043 and cert.run_length == 21
    for t, p in cert.witnesses:
        ok = ok and (cert.m + t) % p == 0 and cert.m + t > p
    primes = [int(p) for p in sieve_interval(2, 30100)]
    below = max(p for p in primes if p <= cert.m)
    above = min(p for p in primes if p > cert.m + 21)
    gap_len = above - below
    ok = ok and gap_len >= 22
    dt = time.time() - t0
    report(2, ok and dt < 1.0,
           f"m={cert.m}, 21 witnessed composites, true gap {below}->{above} "
           f"(length {gap_len} >= 22) in {dt:.2f}s")


def independent_cover_check(system, lo, hi):
    """Test-local verification, no shared code with residues.sift."""
    covered = np.zeros(hi - lo + 1, dtype=bool)
    for p, a in system.entries.items():
        first = lo + ((a - lo) % p)
        covered[first - lo :: p] = True
    return int((~covered).sum())


def test_criterion_3_pipeline_soundness():
    t0 = time.time()
    runs = 0
    for x in (500, 1000, 5000):
        for seed in range(20):
            rep, system = run_pipeline(StagedConfig(x=x, seed=seed))
            survivors = independent_cover_check(system, x + 1, rep.achieved_y)
            assert survivors == 0, f"x={x} seed={seed}: {survivors} uncovered"
            runs += 1
    dt = time.time() - t0
    report(3, dt < 600, f"{runs} pipeline runs fully cover (x, achieved_y] in {dt:.1f}s")


def paired_ci95(diffs):
    mean = float(np.mean(diffs))
    half = 1.96 * float(np.std(diffs, ddof=1)) / math.sqrt(len(diffs))
    return mean, mean - half, mean + half


def test_criterion_4_strategy_ordering():
    # stage 3 must leave fewer survivors for final matching than skipping it
    seeds = list(range(20))
    residual = {"none": [], "nibble": [], "independent": []}
    for seed in seeds:
        for method, out in residual.items():
            rep, _ = run_pipeline(StagedConfig(x=5000, seed=seed, stage3_method=method))
            out.append(rep.residual_after_stage3)
    none = np.array(residual["none"])
    ok = True
    parts = []
    for method in ("nibble", "independent"):
        diffs = none - np.array(residual[method])
        mean, lo, hi = paired_ci95(diffs)
        ok = ok and bool((diffs > 0).all()) and lo > 0
        parts.append(f"none-{method} {mean:.1f} CI95 [{lo:.1f}, {hi:.1f}] "
                     f"min {int(diffs.min())}")
    mean, lo, hi = paired_ci95(np.array(residual["nibble"]) - np.array(residual["independent"]))
    report(4, ok,
           f"residual after stage 3 over {len(seeds)} seeds at x=5000: "
           f"{'; '.join(parts)} (reported only: nibble-independent {mean:.1f} "
           f"CI95 [{lo:.1f}, {hi:.1f}])")


def test_criterion_5_nibble_exactness_tiny():
    t0 = time.time()

    # instance A: one round, two indices, overlapping edges, remainder mass
    inst_a = nib.CoverInstance(
        n_vertices=3,
        rounds=[[0, 1]],
        dist={
            0: nib.EdgeDist([(frozenset({0, 1}), F(1, 2)), (frozenset({2}), F(1, 4))]),
            1: nib.EdgeDist([(frozenset({1}), F(1, 3)), (frozenset({0, 2}), F(1, 3))]),
        },
        params=nib.NibbleParams(delta=0.9, r_max=2, A=6, D=3, kappa=0.01),
    )
    prof_a = {(0, v): F(1) for v in range(3)}

    # instance B: two rounds with genuine cross-round conditioning and an
    # injected rational profile exercising the P_{j-1} reweighting
    inst_b = nib.CoverInstance(
        n_vertices=3,
        rounds=[[0], [1]],
        dist={
            0: nib.EdgeDist([(frozenset({0}), F(1, 2)), (frozenset({1}), F(1, 2))]),
            1: nib.EdgeDist([(frozenset({0, 1}), F(1, 2)), (frozenset({2}), F(1, 4))]),
        },
        params=nib.NibbleParams(delta=0.9, r_max=2, A=6, D=3, kappa=0.01),
    )
    prof_b = {}
    for v in range(3):
        prof_b[(0, v)] = F(1)
        prof_b[(1, v)] = F(1, 2)
        prof_b[(2, v)] = F(1, 4)

    n_keys = 20_000
    checked, worst = 0, 0.0
    for inst, prof_P, tol, m in (
        (inst_a, prof_a, F(9, 10), 1),
        (inst_b, prof_b, F(99, 100), 2),
    ):
        _, outcomes, survival = oracle_distribution(inst, prof_P, tol)
        assert len(outcomes) <= 2**12, "instance exceeds 12 binary outcomes"
        assert sum(outcomes.values()) == 1
        # the engine under the same injected targets, as float rows P[j]
        rows = [np.array([float(prof_P[(j, v)]) for v in range(3)]) for j in range(m)]
        drawn = engine_outcomes(inst, rows, float(tol), range(n_keys), check=1000)
        # (i) every sampled outcome lies in the exact law's support, and
        # (ii) its frequency within 4 sigma of the exact probability
        worst = max(worst, assert_law(Counter(drawn.values()), outcomes, n_keys, 4))
        # (iii) each vertex's survival frequency within 4 sigma of the exact one
        covered = [frozenset().union(*picks) for picks in drawn.values()]
        for v, q in survival.items():
            left = sum(v not in c for c in covered)
            worst = max(worst, assert_law({v: left}, {v: q}, n_keys, 4))
        checked += 1
    dt = time.time() - t0
    report(5, checked == 2 and dt < 10,
           f"the engine's rounds against the exact rational law on {checked} tiny "
           f"instances (one and two rounds, injected targets): {n_keys} keys each, "
           f"the first 1000 through nibble_round, every outcome "
           f"in the law's support, outcome and survival frequencies within 4 sigma "
           f"(worst |z| {worst:.2f}) in {dt:.2f}s")


def build_regular_5uniform(n_vertices, deg, rng):
    edges = []
    verts = list(range(n_vertices))
    for _ in range(deg):
        rng.shuffle(verts)
        for i in range(0, n_vertices, 5):
            edges.append(frozenset(verts[i : i + 5]))
    return edges


def test_criterion_6_nibble_calibration():
    t0 = time.time()
    n_v, deg = 3000, 20
    edges = build_regular_5uniform(n_v, deg, stream(2024, "edges"))
    counts = nib.uniform_round_counts(120, 2, 4)  # [120, 73, 45, 27]
    inst = nib.build_uniform_instance(n_v, edges, counts)
    hyp = nib.check_hypotheses(inst)
    assert hyp.all_structural_ok()  # only the delta-smallness bound may fail
    assert not hyp.delta_small_ok
    prof = nib.degree_profile(inst)
    m = len(counts)
    n_seeds = 50
    # the independent baseline is the engine with every index in one round:
    # round 1 conditions on W = V with P_0 = 1, so it draws the raw law
    baseline = nib.CoverInstance(inst.n_vertices, [list(inst.all_indices())], inst.dist,
                                 inst.params)

    survival_counts = np.zeros(n_v)
    nib_left, ind_left = [], []
    for seed in range(n_seeds):
        res = nib.run_cover(inst, stream_seed(seed, "cal-nib"), tol=0.5)
        for v in res.leftover:
            survival_counts[v] += 1
        nib_left.append(len(res.leftover))
        ind = nib.run_cover(baseline, stream_seed(seed, "cal-ind"))
        assert all(s.passed for s in ind.stats)
        ind_left.append(len(ind.leftover))

    P_m = prof.P[m]
    freqs = survival_counts / n_seeds
    se = np.sqrt(P_m * (1 - P_m) / n_seeds)
    inside = np.abs(freqs - P_m) <= 3 * se
    frac_inside = float(inside.mean())
    mean_nib = float(np.mean(nib_left))
    mean_ind = float(np.mean(ind_left))
    dt = time.time() - t0
    ok = frac_inside >= 0.95 and mean_nib < mean_ind and dt < 600
    report(6, ok,
           f"{frac_inside:.1%} of vertices within 3se of P_m "
           f"(target {float(P_m[0]):.4f}); mean leftover nibble {mean_nib:.1f} < "
           f"independent {mean_ind:.1f}; {dt:.1f}s")


def test_criterion_7_degree_profile_fixture():
    rows = [[5 ** (1 - j) * math.log(5)] for j in range(1, 7)]
    prof = nib.DegreeProfile(rows)
    worst = max(abs(prof.P[j][0] - 5.0 ** (-j)) for j in range(7))
    report(7, worst < 1e-9, f"P_j = 5^-j for j <= 6, max deviation {worst:.2e}")


def test_criterion_8_moebius_consistency():
    t0 = time.time()
    from gapsieve.weights import SERIES_CUTOFF, FormSystem, WeightSystem
    from test_weights import reference_lambda_table, y_expansion_weight

    fs = FormSystem([0, 2])
    worst_w = 0.0
    worst_lam = 0.0
    for R in (30, 35, 50):
        ws = WeightSystem(fs, R=R)
        ref = reference_lambda_table(fs, R, ws.F, SERIES_CUTOFF)
        assert set(ref) == set(ws.table)
        for d in ws.table:
            worst_lam = max(worst_lam, abs(ws.table[d] - ref[d]))
        for n in range(1, 1001):
            worst_w = max(worst_w, abs(ws.weight(n) - y_expansion_weight(ws, n)))
    dt = time.time() - t0
    ok = worst_w < 1e-9 and worst_lam < 1e-12 and dt < 60
    report(8, ok,
           f"lambda vs independent evaluator: {worst_lam:.2e} (<1e-12); "
           f"w(n) lambda-route vs y-route on [1,1000]: {worst_w:.2e} (<1e-9); "
           f"{dt:.1f}s")


def test_criterion_9_weight_structure():
    from gapsieve.primes import primes_up_to
    from gapsieve.weights import PairWeightContext
    from test_weights import per_prime_system

    x = 10**5
    offsets = admissible_tuple(3)
    ctx = PairWeightContext(offsets, x)
    sieving = [int(p) for p in sieve_interval(x // 2 + 1, x)]
    rng = stream(6, "choose-p")
    ps = sorted(rng.sample(sieving, 10))
    y = 2000
    ok = True
    for p in ps:
        for n in (-y - 1, y + 1, 2 * y):
            ok = ok and ctx.weight(p, n, y) == 0.0
        for n in range(-y, y + 1, 97):
            ok = ok and ctx.weight(p, n, y) >= 0.0
        fs = per_prime_system(ctx, p).system
        for s in primes_up_to(1000):
            if s == p:
                continue
            ok = ok and fs.omega(s) == len({h % s for h in offsets})

    # the shared table against per-prime systems: k = 2 with a trivial and a
    # nontrivial table (R = 11.07 at x = 1e10), k = 3, and primes on both
    # sides of the series cutoff 1e4
    worst = 0.0
    tables = []
    cases = [(2, 2000, (1009, 1999)), (2, 10**10, (13, 1009, 10007, 50021)),
             (3, 10**5, (13, 1009, 10007, 50021))]
    for k, xx, primes in cases:
        shared = PairWeightContext(admissible_tuple(k), xx)
        tables.append(len(shared.ws.table))
        for p in primes:
            ref = per_prime_system(shared, p)
            ok = ok and set(ref.table) == set(shared.ws.table)
            for yy in (60, 600):
                pairs = [(shared.sum_over_support(p, yy), ref.sum_over_interval(-yy, yy))]
                pairs += [(shared.weight(p, n, yy), ref.weight(n))
                          for n in range(-yy, yy + 1, 7)]
                for got, want in pairs:
                    ok = ok and (got == want == 0.0 or want > 0)
                    if want:
                        worst = max(worst, abs(got - want) / want)
    ok = ok and worst <= 1e-12 and tables[1] > 1
    report(9, ok,
           f"w(p,n) >= 0, support in [-y,y], and omega(s) = #offsets mod s "
           f"for s <= 1000 over 10 sampled p at x={x}, r=3; shared table "
           f"(sizes {tables}) vs per-prime systems: rel err {worst:.1e} (<=1e-12)")


def test_criterion_10_admissibility_and_integrals():
    for r in range(1, 201):
        assert is_admissible(admissible_tuple(r)), f"r={r} not admissible"

    def cap(t):
        u = t[..., 0]
        return np.where((0 <= u) & (u <= 1), (1 - u) ** 2, 0.0)

    ij = integrals_IJ(cap, 1, 10**6, 20240101)
    ok_I = abs(ij.I - 0.2) <= 3 * ij.se_I
    ok_J = abs(ij.J - 1 / 9) <= 3 * ij.se_J
    report(10, ok_I and ok_J,
           f"first-r-primes admissible for r <= 200; I1={ij.I:.6f} "
           f"(1/5 +- {3 * ij.se_I:.1e}), J1={ij.J:.6f} (1/9 +- {3 * ij.se_J:.1e}) "
           f"at 1e6 samples")


def test_criterion_11_cli_determinism(tmp_path):
    blobs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        code = main(["construct", "1000",
                     "--stage3", "nibble", "--seed", "11", "--out", str(out)])
        assert code == 0
        blobs.append(
            (out / "system.json").read_bytes() + (out / "report.json").read_bytes()
        )
    sieve_blobs = []
    for tag in ("sa", "sb"):
        out = tmp_path / tag
        code = main(["construct", "2000", "--mode", "paper-formula",
                     "--weights", "sieve", "--stage3", "independent",
                     "--seed", "11", "--out", str(out)])
        assert code == 0
        sieve_blobs.append(
            (out / "system.json").read_bytes() + (out / "report.json").read_bytes()
        )
    identical = blobs[0] == blobs[1] and sieve_blobs[0] == sieve_blobs[1]
    x, system, _ = read_system_file(tmp_path / "a" / "system.json")
    report(11, identical,
           f"construct outputs byte-identical across repeats "
           f"({len(system.entries)} classes for x={x}; sieve weights at x=2000)")
