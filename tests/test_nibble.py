"""Tests for the covering engine: profiles, reweighted sampling, enumeration.

The exact-law tests pit the engine's enumerator against the from-scratch
oracle in law_oracle.py; both work in rational arithmetic, so agreement
is exact equality, not approximate.
"""

import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from law_oracle import oracle_distribution

from gapsieve import nibble as nib
from gapsieve.rng import stream

F = Fraction


def make_params(**kw):
    base = dict(delta=0.5, r_max=4, A=9.0, D=4.0, kappa=0.01)
    base.update(kw)
    return nib.NibbleParams(**base)


def make_instance(n, rounds_atoms, **params):
    """rounds_atoms: list of rounds; each round a list of atom lists."""
    rounds = []
    dist = {}
    idx = 0
    for block in rounds_atoms:
        ids = []
        for atoms in block:
            dist[idx] = nib.EdgeDist(atoms=[(frozenset(e), q) for e, q in atoms])
            ids.append(idx)
            idx += 1
        rounds.append(ids)
    return nib.CoverInstance(n_vertices=n, rounds=rounds, dist=dist, params=make_params(**params))


def flat_profile(inst, values):
    """Injected rational profile: values[j] applies to every vertex."""
    P = {}
    for j, val in enumerate(values):
        for v in range(inst.n_vertices):
            P[(j, v)] = F(val)
    prof = nib.ExactProfile(len(values) - 1, P)
    return prof, P


# -- degree profile ------------------------------------------------------------


def test_profile_untouched_vertex():
    inst = make_instance(3, [[[({0}, 1.0)]], [[({0}, 0.5)]]])
    prof = nib.degree_profile(inst)
    for j in range(3):
        assert prof.d[j][2] == 0.0
        assert prof.P[j][2] == 1.0


def test_profile_single_certain_edge():
    inst = make_instance(1, [[[({0}, 1.0)]]])
    prof = nib.degree_profile(inst)
    assert prof.P[1][0] == pytest.approx(math.exp(-1), abs=1e-15)


def test_profile_geometric_fixture():
    # uniform d_j = 5^(1-j) log 5 makes the recursion collapse to P_j = 5^-j
    rows = [[5 ** (1 - j) * math.log(5)] for j in range(1, 7)]
    prof = nib.DegreeProfile(rows)
    for j in range(7):
        assert abs(prof.P[j][0] - 5.0 ** (-j)) < 1e-9


def test_profile_recursion_identity():
    rng = random.Random(4)
    rounds = []
    for _ in range(3):
        block = []
        for _ in range(4):
            atoms = []
            budget = 1.0
            for _ in range(rng.randrange(1, 4)):
                e = frozenset(rng.sample(range(12), rng.randrange(1, 4)))
                q = rng.uniform(0, budget / 3)
                budget -= q
                atoms.append((e, q))
            block.append(atoms)
        rounds.append(block)
    inst = make_instance(12, rounds)
    prof = nib.degree_profile(inst)
    for j in range(1, 4):
        for v in range(12):
            prev = prof.P[j - 1][v]
            expect = prev * math.exp(-prof.d[j][v] / prev)
            assert abs(prof.P[j][v] - expect) <= 1e-12 * max(expect, 1e-300)
            assert 0 < prof.P[j][v] <= prev


def certain_edge_instance():
    """Round 1: 800 indices that each take {0} with probability 1, so
    exp(-800) underflows and P_1(0) = 0.  Round 2 touches vertex 0 again,
    round 3 leaves it at degree 0 (the 0/0 case)."""
    return make_instance(2, [[[({0}, 1.0)]] * 800, [[({0}, 0.5)]], [[({1}, 0.5)]]])


def test_profile_keeps_underflowed_target_at_zero():
    inst = certain_edge_instance()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prof = nib.degree_profile(inst)
    assert not any(np.isnan(row).any() for row in prof.P)
    assert [prof.P[j][0] for j in range(4)] == [1.0, 0.0, 0.0, 0.0]
    for j in range(1, 4):  # a positive target is the plain recursion's value, bit for bit
        prev = prof.P[j - 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            plain = prev * np.exp(-prof.d[j] / prev)
        assert prof.P[j][1] == plain[1]


def test_round_against_a_zero_target_logs_infinite_X():
    inst = certain_edge_instance()
    prof = nib.degree_profile(inst)
    state = nib.NibbleState(W={0, 1})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        nib.nibble_round(inst, prof, state, 2, random.Random(0), tol=0.5)
    assert state.chosen[800] == frozenset()
    assert state.round_log[0].X == math.inf and not state.round_log[0].passed
    assert state.W == {0, 1}


def test_check_hypotheses_reads_a_zero_target_as_unbounded_degree():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = nib.check_hypotheses(certain_edge_instance())
    assert rep.max_degree_ratio == math.inf and not rep.degree_ok
    assert rep.min_survival == 0.0


# -- normalization factor --------------------------------------------------------


def test_normalization_full_and_empty():
    inst = make_instance(3, [[[({0, 1}, F(1, 3)), ({2}, F(1, 3))]]])
    prof, _ = flat_profile(inst, [1])
    X_full = nib.normalization_factor(inst, prof, 0, 1, {0, 1, 2})
    assert X_full == 1  # both atoms inside W plus 1/3 remainder
    # deterministic edge outside W, no remainder mass
    inst2 = make_instance(2, [[[({0}, F(1))]]])
    prof2, _ = flat_profile(inst2, [1])
    assert nib.normalization_factor(inst2, prof2, 0, 1, {1}) == 0


def test_normalization_round1_is_containment_probability():
    inst = make_instance(4, [[[({0, 1}, F(1, 2)), ({2}, F(1, 4)), ({3}, F(1, 4))]]])
    prof, _ = flat_profile(inst, [1])
    W = {0, 1, 2}
    # P_0 = 1: X = P(e subset W) = 1/2 + 1/4
    assert nib.normalization_factor(inst, prof, 0, 1, W) == F(3, 4)


# -- nibble rounds -----------------------------------------------------------------


def test_round_deterministic_edge():
    inst = make_instance(2, [[[({0}, 1.0)]]])
    prof = nib.degree_profile(inst)
    state = nib.NibbleState(W={0, 1})
    nib.nibble_round(inst, prof, state, 1, random.Random(0), tol=0.5)
    assert state.chosen[0] == frozenset({0})
    assert state.W == {1}


def test_round_drift_failure_yields_empty():
    # distribution 1/2 {0}, 1/2 {1}; W = {0}: X = 1/2, drift fails at tol < 1/2
    inst = make_instance(2, [[[({0}, 0.5), ({1}, 0.5)]]])
    prof, _ = flat_profile(inst, [1])
    state = nib.NibbleState(W={0})
    nib.nibble_round(inst, prof, state, 1, random.Random(0), tol=0.4)
    assert state.chosen[0] == frozenset()
    assert state.round_log[0].X == pytest.approx(0.5)
    assert not state.round_log[0].passed


def test_round_empirical_frequencies_match_law():
    # two indices, nontrivial overlap; verify sampled frequencies against the
    # exact reweighted law within 3 sigma
    inst = make_instance(
        3,
        [[
            [({0, 1}, F(1, 2)), ({2}, F(1, 4))],
            [({1}, F(1, 3)), ({2}, F(1, 3)), ({0, 2}, F(1, 3))],
        ]],
    )
    dist = nib.exact_cover_distribution(inst, F(9, 10))
    n_draws = 100_000
    rng = random.Random(321)
    counts = {i: {} for i in (0, 1)}
    prof = nib.degree_profile(inst)
    for _ in range(n_draws):
        state = nib.NibbleState(W={0, 1, 2})
        nib.nibble_round(inst, prof, state, 1, rng, tol=0.9)
        for i in (0, 1):
            key = state.chosen[i]
            counts[i][key] = counts[i].get(key, 0) + 1
    for i in (0, 1):
        for edge, p_exact in dist.marginals[i].items():
            p = float(p_exact)
            se = math.sqrt(p * (1 - p) / n_draws)
            freq = counts[i].get(edge, 0) / n_draws
            assert abs(freq - p) <= 3 * se + 1e-12, (i, edge, freq, p)


# -- run_cover ----------------------------------------------------------------------


def test_run_cover_zero_rounds():
    inst = nib.CoverInstance(5, [], {}, make_params())
    res = nib.run_cover(inst, random.Random(0))
    assert res.leftover == set(range(5))
    assert res.chosen == {}


def test_run_cover_deterministic_leftover():
    inst = make_instance(2, [[[({0}, 1.0)]]])
    for seed in range(20):
        res = nib.run_cover(inst, random.Random(seed), tol=0.5)
        assert res.leftover == {1}


def test_support_containment_and_disjointness():
    rng = random.Random(8)
    block1 = [[({0, 1}, 0.5), ({2, 3}, 0.3)], [({4}, 0.6)]]
    block2 = [[({5, 6}, 0.5), ({7}, 0.25)], [({8, 9}, 0.8)]]
    inst = make_instance(10, [block1, block2])
    prof = nib.degree_profile(inst)
    for seed in range(50):
        state = nib.NibbleState(W=set(range(10)))
        for j in (1, 2):
            w_before = set(state.W)
            nib.nibble_round(inst, prof, state, j, random.Random(seed * 7 + j), tol=0.9)
            for i in inst.rounds[j - 1]:
                e = state.chosen[i]
                support = {frozenset(a) for a, _ in inst.dist[i].atoms}
                assert e == frozenset() or e in support
                log = [s for s in state.round_log if s.round == j and s.index == i][0]
                if log.passed and e:
                    assert e <= w_before


# -- exact enumeration vs oracle -------------------------------------------------


def test_exact_distribution_single_round_vs_oracle():
    inst = make_instance(
        3,
        [[
            [({0, 1}, F(1, 2)), ({2}, F(1, 4))],
            [({1}, F(1, 3)), ({2}, F(1, 3)), ({0, 2}, F(1, 3))],
        ]],
    )
    tol = F(9, 10)
    got = nib.exact_cover_distribution(inst, tol)
    prof_P = {(0, v): F(1) for v in range(3)}
    order, outcomes, survival = oracle_distribution(inst, prof_P, tol)
    assert sum(got.outcomes.values()) == 1
    assert got.outcomes == outcomes
    assert got.survival == survival


def test_exact_distribution_two_rounds_self_consistent():
    # round 2 lives on vertices untouched in round 1, so the derived profile
    # stays rational and the whole process enumerates exactly
    inst = make_instance(
        4,
        [
            [[({0}, F(1, 2))], [({1}, F(1, 2))]],
            [[({2}, F(1, 2)), ({2, 3}, F(1, 2))]],
        ],
    )
    tol = F(6, 10)
    got = nib.exact_cover_distribution(inst, tol)
    prof_P = {}
    for j in range(3):
        for v in range(4):
            prof_P[(j, v)] = F(1)  # degrees on round-2 support are 0 after round 1
    order, outcomes, survival = oracle_distribution(inst, prof_P, tol)
    assert got.outcomes == outcomes
    assert got.survival == survival
    assert sum(got.outcomes.values()) == 1


def test_exact_distribution_cross_round_with_injected_profile():
    # genuine cross-round conditioning: round 2 edges overlap round 1; the
    # survival targets are injected as rationals so the reweighting law
    # (indicator / X times prob / P_{j-1}(edge)) is checked exactly
    inst = make_instance(
        3,
        [
            [[({0}, F(1, 2)), ({1}, F(1, 2))]],
            [[({0, 1}, F(1, 2)), ({2}, F(1, 4))]],
        ],
    )
    P = {}
    for v in range(3):
        P[(0, v)] = F(1)
        P[(1, v)] = F(1, 2)
        P[(2, v)] = F(1, 4)
    prof = nib.ExactProfile(2, P)
    tol = F(99, 100)
    got = nib.exact_cover_distribution(inst, tol, profile=prof)
    order, outcomes, survival = oracle_distribution(inst, P, tol)
    assert got.outcomes == outcomes
    assert got.survival == survival
    # hand check one branch: if round 1 picked {0}, W = {1, 2}; index 2's
    # X = (1/2)/(1/2 * 1/2) wait-free: only {2} inside W: X = (1/4)/(1/2) + 1/4
    X = F(1, 4) / F(1, 2) + F(1, 4)
    assert abs(X - 1) <= tol  # the drift test passes on this branch


def test_exact_distribution_taints_on_irrational_targets():
    # cross-round overlap without an injected profile must refuse, because
    # the true survival target exp(-1/2) is irrational
    inst = make_instance(
        2,
        [
            [[({0}, F(1, 2))]],
            [[({0, 1}, F(1, 2))]],
        ],
    )
    with pytest.raises(ValueError):
        nib.exact_cover_distribution(inst, F(1, 2))


def test_round1_mean_normalization_identity():
    # E[X_i(W)] over the round-1 randomness equals
    # sum_e P(e_i = e) P(e subset W) / P_0(e), by enumeration
    inst = make_instance(
        3,
        [
            [[({0}, F(1, 2)), ({1}, F(1, 2))]],
            [[({0, 1}, F(1, 3)), ({1, 2}, F(1, 3)), ({2}, F(1, 3))]],
        ],
    )
    P = {}
    for v in range(3):
        P[(0, v)] = F(1)
        P[(1, v)] = F(1, 2)
        P[(2, v)] = F(1, 4)
    prof = nib.ExactProfile(2, P)

    # enumerate round-1 outcomes to get the law of W
    w_law = {}
    for e, q in inst.dist[0].atoms:
        W = frozenset({0, 1, 2} - e)
        w_law[W] = w_law.get(W, F(0)) + q
    mean_X = F(0)
    for W, q in w_law.items():
        mean_X += q * nib.normalization_factor(inst, prof, 1, 2, set(W))
    expect = F(0)
    for e, q in inst.dist[1].atoms:
        containment = sum(qq for W, qq in w_law.items() if set(e) <= W)
        expect += F(q) * containment / prof.P_edge(1, e)
    assert mean_X == expect


# -- uniform instances ---------------------------------------------------------------


def test_cover_uniform_single_total_edge():
    inst = nib.build_uniform_instance(4, [frozenset({0, 1, 2, 3})], [1])
    res = nib.run_cover(inst, random.Random(0))
    assert res.leftover == set()
    assert [e for e in res.chosen.values() if e] == [frozenset({0, 1, 2, 3})]


def test_cover_uniform_singletons_coupon_collector():
    n = 200
    inst = nib.build_uniform_instance(n, [frozenset({v}) for v in range(n)], [n])
    exact = n * (1 - 1 / n) ** n  # exact per-vertex miss probability, summed
    obs = []
    for seed in range(100):
        res = nib.run_cover(inst, stream(seed, "cc"))
        assert sum(1 for e in res.chosen.values() if e) <= n
        obs.append(len(res.leftover))
    mean = sum(obs) / len(obs)
    sd = (sum((o - mean) ** 2 for o in obs) / (len(obs) - 1)) ** 0.5
    assert abs(mean - exact) <= 3 * sd / math.sqrt(len(obs)) + 1e-9
    # and the mean sits near |V| / e
    assert abs(mean - n / math.e) < 10


def test_cover_uniform_respects_budget():
    rng = stream(5, "budget")
    edges = [frozenset(rng.sample(range(60), 3)) for _ in range(80)]
    counts = [10, 6, 4]
    res = nib.run_cover(nib.build_uniform_instance(60, edges, counts), stream(1, "run"))
    used = [e for e in res.chosen.values() if e]
    assert len(used) <= sum(counts)
    covered = set()
    for e in used:
        covered |= e
    assert res.leftover == set(range(60)) - covered


def test_round_counts_recipe():
    assert nib.uniform_round_counts(300, 2, 4) == [300, 182, 111, 67]
    assert nib.uniform_round_counts(10, 1, 1) == [10]


# -- hypothesis checking ----------------------------------------------------------------


def test_check_hypotheses_singletons_pass_structure():
    inst = make_instance(
        2, [[[({0}, 1.0)], [({1}, 1.0)]]], delta=1.5, r_max=1, A=3, D=2, kappa=0.3
    )
    rep = nib.check_hypotheses(inst)
    assert rep.edge_size_ok
    assert rep.max_codegree == 0.0 and rep.codegree_ok
    assert rep.min_survival == pytest.approx(math.exp(-1))


def test_check_hypotheses_shared_pair_codegree():
    inst = make_instance(
        4,
        [[[({0, 1}, 1.0)], [({0, 1}, 1.0)]]],
        delta=1.5, r_max=2, A=5, D=3, kappa=0.1,
    )
    rep = nib.check_hypotheses(inst)
    assert rep.max_codegree == pytest.approx(2.0)
    assert not rep.codegree_ok  # delta = 1.5 < 2
    rep2 = nib.check_hypotheses(
        nib.CoverInstance(inst.n_vertices, inst.rounds, inst.dist,
                          make_params(delta=2.0, r_max=2, A=5, D=3, kappa=0.1))
    )
    assert rep2.codegree_ok


def test_delta_smallness_always_fails_at_desk_scale():
    inst = make_instance(2, [[[({0}, 0.4)], [({1}, 0.4)]]], delta=0.4)
    rep = nib.check_hypotheses(inst)
    assert not rep.delta_small_ok  # 10^(m+2) exponent is unreachable
    # and the report is still produced, nothing aborts
    assert rep.max_edge_size == 1


def test_instance_file_roundtrip():
    inst = make_instance(
        5, [[[({0, 1}, 0.5), ({2}, 0.25)]], [[({3, 4}, 0.9)]]]
    )
    text = nib.instance_to_json(inst)
    back = nib.instance_from_json(text)
    assert back.n_vertices == 5
    assert back.rounds == inst.rounds
    for i in inst.all_indices():
        assert sorted((sorted(e), q) for e, q in back.dist[i].atoms) == sorted(
            (sorted(e), q) for e, q in inst.dist[i].atoms
        )
    assert back.params == inst.params


def test_stats_csv():
    inst = make_instance(2, [[[({0}, 1.0)]]])
    res = nib.run_cover(inst, random.Random(0), tol=0.5)
    text = nib.stats_to_csv(res.stats)
    lines = text.strip().splitlines()
    assert lines[0] == "round,index,X,F_passed,W_size"
    assert lines[1].startswith("1,0,")
