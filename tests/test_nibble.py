"""Tests for the covering engine: profiles, normalizations, reweighted sampling.

The engine computes in floats.  Its X_i(W) is checked against exact values
from the rational oracle in law_oracle.py, or from hand calculation, within
1e-12; its draws are checked against the oracle's exact outcome law within
a few standard errors of the sampled frequencies.  The oracle itself is
pinned to laws enumerated by hand.
"""

import math
import random
import warnings
from collections import Counter, defaultdict
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from law_oracle import edge, oracle_X, oracle_distribution

from gapsieve import nibble as nib
from gapsieve.rng import stream, stream_seed, uniforms

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


def flat_profile(n, values):
    """Injected rational targets: values[j] applies to every vertex, as the
    oracle's {(j, v): P_j(v)} and as the engine's float rows P[j]."""
    P = {(j, v): F(val) for j, val in enumerate(values) for v in range(n)}
    return P, [np.full(n, float(val)) for val in values]


def round_X(inst, W, P=None, j=1):
    """The engine's float X_i(W) for the indices of round j, under the float
    targets P (default 1 on every vertex)."""
    inside = np.zeros(inst.n_vertices, dtype=bool)
    inside[list(W)] = True
    P = np.ones(inst.n_vertices) if P is None else P
    return inst.law.round_law(inst.rounds[j - 1], inside, P)[0]


def cover_state(n, W):
    """A run's state before its first round, W given as a set of vertices."""
    inside = np.zeros(n, dtype=bool)
    inside[list(W)] = True
    return nib.CoverResult(inside)


def chosen(res):
    """{index: edge} of a run so far, read through edge()."""
    return dict(zip(res.index, map(edge, res.rows)))


def engine_outcomes(inst, P, tol, keys, check=200):
    """{key: the engine's outcome}, the edges chosen with rounds in order and
    indices in listed order, under the float targets P[j].

    Keys that reach round j with the same W share one round_law, and each
    index draws for all of them at once: its uniforms are counted by (key,
    j, index), so these are nibble_round's draws for each key alone, which
    the first `check` keys confirm."""
    n = inst.n_vertices
    state = dict.fromkeys(keys, (frozenset(range(n)), ()))
    for j, block in enumerate(inst.rounds, start=1):
        by_W = defaultdict(list)
        for key, (W, _) in state.items():
            by_W[W].append(key)
        for W, ks in by_W.items():
            inside = np.zeros(n, dtype=bool)
            inside[list(W)] = True
            Xs, draw = inst.law.round_law(block, inside, P[j - 1])
            cols = [list(map(edge, draw(np.full(len(ks), k), np.array(ks), j)))
                    if abs(X - 1) <= tol else [frozenset()] * len(ks)
                    for k, X in enumerate(Xs.tolist())]
            for key, row in zip(ks, zip(*cols)):
                state[key] = (W.difference(*row), state[key][1] + row)
    for key in list(keys)[:check]:
        one = cover_state(n, range(n))
        for j in range(1, inst.m + 1):
            nib.nibble_round(inst, SimpleNamespace(P=P), one, j, key, tol)
        assert tuple(chosen(one)[i] for i in inst.all_indices()) == state[key][1], key
    return {key: picks for key, (_, picks) in state.items()}


def assert_law(counts, law, n_draws, sigmas):
    """Nothing sampled outside the exact law and every outcome's frequency
    within sigmas standard errors of it; returns the largest |z|."""
    assert {e for e, c in counts.items() if c} <= {e for e, q in law.items() if q}
    worst = 0.0
    for e, q in law.items():
        q = float(q)
        se = math.sqrt(q * (1 - q) / n_draws)
        err = abs(counts.get(e, 0) / n_draws - q)
        assert err <= sigmas * se + 1e-12, (e, counts.get(e, 0) / n_draws, q)
        worst = max(worst, err / se if se else 0.0)
    return worst


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
    state = cover_state(2, {0, 1})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        nib.nibble_round(inst, prof, state, 2, 0, tol=0.5)
    assert chosen(state)[800] == frozenset()
    assert state.stats[0].X == math.inf and not state.stats[0].passed
    assert set(state.leftover.tolist()) == {0, 1}


def test_check_hypotheses_reads_a_zero_target_as_unbounded_degree():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = nib.check_hypotheses(certain_edge_instance())
    assert rep.max_degree_ratio == math.inf and not rep.degree_ok
    assert rep.min_survival == 0.0


# -- normalization factor --------------------------------------------------------


def test_normalization_full_and_empty():
    inst = make_instance(3, [[[({0, 1}, F(1, 3)), ({2}, F(1, 3))]]])
    X_full = round_X(inst, {0, 1, 2})[0]
    assert abs(X_full - 1) <= 1e-12  # both atoms inside W plus 1/3 remainder
    # deterministic edge outside W, no remainder mass
    inst2 = make_instance(2, [[[({0}, F(1))]]])
    assert round_X(inst2, {1})[0] == 0


def test_normalization_round1_is_containment_probability():
    inst = make_instance(4, [[[({0, 1}, F(1, 2)), ({2}, F(1, 4)), ({3}, F(1, 4))]]])
    # P_0 = 1: X = P(e subset W) = 1/2 + 1/4
    assert abs(round_X(inst, {0, 1, 2})[0] - 0.75) <= 1e-12


def test_round_law_X_matches_exact_normalization():
    # the engine's float X_i(W) against the oracle's exact one, on random
    # tiny instances whose indices may share an EdgeDist, under injected
    # rational targets (zeros included) and random W
    rng = random.Random(17)
    infinite = 0
    for _ in range(300):
        n = rng.randrange(2, 7)
        dists = []
        for _ in range(rng.randrange(1, 4)):
            atoms, budget = [], F(1)
            for _ in range(rng.randrange(1, 4)):
                q = budget * F(rng.randrange(1, 6), 6)
                budget -= q
                atoms.append((frozenset(rng.sample(range(n), rng.randrange(1, min(n, 3) + 1))), q))
            dists.append(nib.EdgeDist(atoms=atoms))
        block = list(range(rng.randrange(1, 5)))
        inst = nib.CoverInstance(n, [block], {i: rng.choice(dists) for i in block},
                                 make_params(r_max=3))
        targets = [F(0), F(1, 3), F(2, 5), F(7, 9), F(1)]
        P = {(0, v): rng.choice(targets) for v in range(n)}
        W = {v for v in range(n) if rng.random() < 0.7}
        Xs = round_X(inst, W, np.array([float(P[(0, v)]) for v in range(n)]))
        for i, X in zip(block, Xs):
            try:
                want = float(oracle_X(inst.dist[i], P, 1, W))
            except ZeroDivisionError:  # an atom inside W has a zero target
                assert X == math.inf
                infinite += 1
                continue
            assert abs(X - want) <= 1e-12 * max(want, 1.0), (i, X, want)
    assert infinite > 0


# -- nibble rounds -----------------------------------------------------------------


def test_round_deterministic_edge():
    inst = make_instance(2, [[[({0}, 1.0)]]])
    prof = nib.degree_profile(inst)
    state = cover_state(2, {0, 1})
    nib.nibble_round(inst, prof, state, 1, 0, tol=0.5)
    assert chosen(state)[0] == frozenset({0})
    assert set(state.leftover.tolist()) == {1}


def test_round_drift_failure_yields_empty():
    # distribution 1/2 {0}, 1/2 {1}; W = {0}: X = 1/2, drift fails at tol < 1/2
    inst = make_instance(2, [[[({0}, 0.5), ({1}, 0.5)]]])
    prof = nib.degree_profile(inst)
    state = cover_state(2, {0})
    nib.nibble_round(inst, prof, state, 1, 0, tol=0.4)
    assert chosen(state)[0] == frozenset()
    assert state.stats[0].X == pytest.approx(0.5)
    assert not state.stats[0].passed


def test_round_empirical_frequencies_match_law():
    # two indices, nontrivial overlap; each index's sampled frequencies
    # against its exact marginal under the reweighted law, within 3 sigma
    inst = make_instance(
        3,
        [[
            [({0, 1}, F(1, 2)), ({2}, F(1, 4))],
            [({1}, F(1, 3)), ({2}, F(1, 3)), ({0, 2}, F(1, 3))],
        ]],
    )
    _, outcomes, _ = oracle_distribution(inst, flat_profile(3, [1])[0], F(9, 10))
    n_draws = 100_000
    keys = np.arange(n_draws)
    Xs, draw = inst.law.round_law(inst.rounds[0], np.ones(3, dtype=bool), np.ones(3))
    assert (abs(Xs - 1) <= 0.9).all()  # no index is skipped, so every key draws
    drawn = [list(map(edge, draw(np.full(n_draws, k), keys, 1))) for k in (0, 1)]
    prof = nib.degree_profile(inst)
    for key in range(200):  # the draws are nibble_round's, key for key
        state = cover_state(3, {0, 1, 2})
        nib.nibble_round(inst, prof, state, 1, key, tol=0.9)
        assert [chosen(state)[i] for i in (0, 1)] == [drawn[k][key] for k in (0, 1)]
    for k in (0, 1):
        marginal = Counter()
        for picks, q in outcomes.items():
            marginal[picks[k]] += q
        assert_law(Counter(drawn[k]), marginal, n_draws, 3)


def per_position_draws(inst, block, inside, P, ks, keys, j):
    """The draws one position at a time: each index's in-W atoms weighted
    q / P(e), their running sum read at u X with one searchsorted per
    position.  Kept as the reference for the engine's one searchsorted per
    distinct law."""
    laws = {}
    for i in set(block):
        atoms = inst.dist[i].atoms
        sel = [n for n, (e, _) in enumerate(atoms) if all(inside[v] for v in e)]
        w = [float(atoms[n][1]) / math.prod(P[v] for v in sorted(atoms[n][0]))
             if atoms[n][1] > 0 else 0.0 for n in sel]
        X = math.fsum(w) + max(0.0, 1 - sum(float(q) for _, q in atoms))
        laws[i] = [frozenset(atoms[n][0]) for n in sel], np.cumsum(w), X
    ids = np.array(block, dtype=np.uint64)[ks]
    edges = []
    for i, u in zip(ids.tolist(), uniforms(keys, j, ids).tolist()):
        chosen, cum, X = laws[i]
        pos = int(np.searchsorted(cum, u * X, side="right"))
        edges.append(chosen[pos] if pos < len(chosen) else frozenset())
    return edges


@pytest.mark.parametrize("inside, P", [
    ([True, True, True], [1.0, 1.0, 1.0]),
    ([True, False, True], [0.5, 0.25, 0.8]),
])
def test_round_draws_match_per_position_reference(inside, P):
    # the instance of test_round_empirical_frequencies_match_law plus a third
    # index sharing index 0's EdgeDist object; positions of all three laws
    # come interleaved and repeated, as nibble_round never asks but a caller may
    inst = make_instance(
        3,
        [[
            [({0, 1}, F(1, 2)), ({2}, F(1, 4))],
            [({1}, F(1, 3)), ({2}, F(1, 3)), ({0, 2}, F(1, 3))],
        ]],
    )
    inst.dist[2] = inst.dist[0]
    inst.rounds[0].append(2)
    block = inst.rounds[0]
    inside, P = np.array(inside), np.array(P)
    _, draw = inst.law.round_law(block, inside, P)
    ks = np.random.default_rng(3).integers(0, 3, 3000)
    for key in (0, 1, 2**40):
        assert list(map(edge, draw(ks, key, 2))) \
            == per_position_draws(inst, block, inside, P, ks, key, 2)
    assert list(map(edge, draw(np.zeros(0, dtype=np.int64), 0, 1))) == []
    keys = np.arange(100_000)  # the keys of test_round_empirical_frequencies_match_law
    for k in (0, 1):
        ks = np.full(len(keys), k)
        assert list(map(edge, draw(ks, keys, 1))) \
            == per_position_draws(inst, block, inside, P, ks, keys, 1)


# -- run_cover ----------------------------------------------------------------------


def test_run_cover_zero_rounds():
    inst = nib.CoverInstance(5, [], {}, make_params())
    res = nib.run_cover(inst, 0)
    assert set(res.leftover.tolist()) == set(range(5))
    assert chosen(res) == {}


def test_run_cover_deterministic_leftover():
    inst = make_instance(2, [[[({0}, 1.0)]]])
    for seed in range(20):
        res = nib.run_cover(inst, seed, tol=0.5)
        assert set(res.leftover.tolist()) == {1}


def test_run_cover_draws_for_any_integer_index_id():
    # instance files may name an index past int64 or below 0; the draw's
    # counters read index ids mod 2^64
    dist = {2**70: nib.EdgeDist([(frozenset({0}), 1.0)]),
            -3: nib.EdgeDist([(frozenset({1}), 0.5), (frozenset({2}), 0.5)])}
    inst = nib.CoverInstance(3, [[2**70, -3]], dist, make_params())
    res = nib.run_cover(inst, 0, tol=0.5)
    assert chosen(res)[2**70] == frozenset({0})
    assert chosen(res)[-3] in (frozenset({1}), frozenset({2}))
    assert len(res.leftover) == 1


def test_support_containment_and_disjointness():
    rng = random.Random(8)
    block1 = [[({0, 1}, 0.5), ({2, 3}, 0.3)], [({4}, 0.6)]]
    block2 = [[({5, 6}, 0.5), ({7}, 0.25)], [({8, 9}, 0.8)]]
    inst = make_instance(10, [block1, block2])
    prof = nib.degree_profile(inst)
    for seed in range(50):
        state = cover_state(10, range(10))
        for j in (1, 2):
            w_before = set(state.leftover.tolist())
            nib.nibble_round(inst, prof, state, j, seed, tol=0.9)
            for i in inst.rounds[j - 1]:
                e = chosen(state)[i]
                support = {frozenset(a) for a, _ in inst.dist[i].atoms}
                assert e == frozenset() or e in support
                log = [s for s in state.stats if s.round == j and s.index == i][0]
                if log.passed and e:
                    assert e <= w_before


# -- engine against the oracle's exact law ------------------------------------------


def two_round_instance():
    """Round 2 lives on vertices untouched in round 1."""
    return make_instance(
        4,
        [
            [[({0}, F(1, 2))], [({1}, F(1, 2))]],
            [[({2}, F(1, 2)), ({2, 3}, F(1, 2))]],
        ],
    )


def test_two_rounds_match_oracle():
    # the derived profile keeps P_1 = 1 on round 2's support, so the oracle
    # runs on targets 1
    inst = two_round_instance()
    prof = nib.degree_profile(inst)
    assert prof.P[1][2] == prof.P[1][3] == 1.0
    P, _ = flat_profile(4, [1, 1, 1])
    _, outcomes, _ = oracle_distribution(inst, P, F(6, 10))
    assert sum(outcomes.values()) == 1
    n_draws = 20_000
    drawn = engine_outcomes(inst, prof.P, 0.6, range(n_draws))
    assert_law(Counter(drawn.values()), outcomes, n_draws, 4)


def cross_round_instance():
    """Round 2's edges overlap round 1's, under injected targets
    P_0 = 1, P_1 = 1/2, P_2 = 1/4 on every vertex."""
    inst = make_instance(
        3,
        [
            [[({0}, F(1, 2)), ({1}, F(1, 2))]],
            [[({0, 1}, F(1, 2)), ({2}, F(1, 4))]],
        ],
    )
    return inst, *flat_profile(3, [1, F(1, 2), F(1, 4)])


def test_cross_round_with_injected_profile_matches_oracle():
    # genuine cross-round conditioning: the reweighting law (indicator / X
    # times prob / P_{j-1}(edge)) drawn by the engine against the exact law
    inst, P, rows = cross_round_instance()
    tol = F(99, 100)
    _, outcomes, _ = oracle_distribution(inst, P, tol)
    n_draws = 20_000
    drawn = engine_outcomes(inst, rows, float(tol), range(n_draws))
    assert_law(Counter(drawn.values()), outcomes, n_draws, 4)
    # hand check one branch: if round 1 picked {0}, W = {1, 2}, and only {2}
    # is inside W: X = (1/4)/(1/2) + 1/4 = 3/4, which passes the drift test
    assert oracle_X(inst.dist[1], P, 2, {1, 2}) == F(3, 4)
    assert abs(round_X(inst, {1, 2}, rows[1], j=2)[0] - 0.75) <= 1e-12


def test_oracle_matches_hand_enumeration():
    # two rounds, no overlap: each round-1 index takes its vertex or nothing
    # with 1/2 each; round 2 draws {2} or {2, 3} with 1/2 each
    P, _ = flat_profile(4, [1, 1, 1])
    _, outcomes, survival = oracle_distribution(two_round_instance(), P, F(6, 10))
    e = frozenset()
    a, b, c, cd = (frozenset(s) for s in ({0}, {1}, {2}, {2, 3}))
    assert outcomes == {(x, y, z): F(1, 8) for x in (a, e) for y in (b, e) for z in (c, cd)}
    assert survival == {0: F(1, 2), 1: F(1, 2), 2: 0, 3: F(1, 2)}
    # cross round: round 1 takes {0} or {1}; then W = {1, 2} leaves only {2}
    # (X = 3/4: {2} with (1/2)/(3/4) = 2/3, nothing with 1/3), and W = {0, 2}
    # the same
    inst, P, _ = cross_round_instance()
    _, outcomes, survival = oracle_distribution(inst, P, F(99, 100))
    assert outcomes == {(a, c): F(1, 3), (a, e): F(1, 6), (b, c): F(1, 3), (b, e): F(1, 6)}
    assert survival == {0: F(1, 2), 1: F(1, 2), 2: F(1, 3)}
    # started from W = {1, 2}: round 1 draws {1} for sure, round 2 as above
    _, outcomes, survival = oracle_distribution(inst, P, F(99, 100), W={1, 2})
    assert outcomes == {(b, c): F(2, 3), (b, e): F(1, 3)}
    assert survival == {0: 0, 1: 0, 2: F(1, 3)}


def test_round1_mean_normalization_identity():
    # E[X_i(W)] over the round-1 randomness equals
    # sum_e P(e_i = e) P(e subset W) / P_1(e), with the engine's X per W
    inst = make_instance(
        3,
        [
            [[({0}, F(1, 2)), ({1}, F(1, 2))]],
            [[({0, 1}, F(1, 3)), ({1, 2}, F(1, 3)), ({2}, F(1, 3))]],
        ],
    )
    _, rows = flat_profile(3, [1, F(1, 2), F(1, 4)])

    # enumerate round-1 outcomes to get the law of W
    w_law = {}
    for e, q in inst.dist[0].atoms:
        W = frozenset({0, 1, 2} - e)
        w_law[W] = w_law.get(W, F(0)) + q
    mean_X = sum(float(q) * round_X(inst, W, rows[1], j=2)[0] for W, q in w_law.items())
    expect = F(0)
    for e, q in inst.dist[1].atoms:
        containment = sum(qq for W, qq in w_law.items() if set(e) <= W)
        expect += F(q) * containment / F(1, 2) ** len(e)
    assert abs(mean_X - expect) <= 1e-12


# -- uniform instances ---------------------------------------------------------------


def test_cover_uniform_single_total_edge():
    inst = nib.build_uniform_instance(4, [frozenset({0, 1, 2, 3})], [1])
    res = nib.run_cover(inst, 0)
    assert set(res.leftover.tolist()) == set()
    assert [e for e in chosen(res).values() if e] == [frozenset({0, 1, 2, 3})]


def test_cover_uniform_singletons_coupon_collector():
    n = 200
    inst = nib.build_uniform_instance(n, [frozenset({v}) for v in range(n)], [n])
    exact = n * (1 - 1 / n) ** n  # exact per-vertex miss probability, summed
    obs = []
    for seed in range(100):
        res = nib.run_cover(inst, stream_seed(seed, "cc"))
        assert sum(1 for e in chosen(res).values() if e) <= n
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
    res = nib.run_cover(nib.build_uniform_instance(60, edges, counts), stream_seed(1, "run"))
    used = [e for e in chosen(res).values() if e]
    assert len(used) <= sum(counts)
    covered = set()
    for e in used:
        covered |= e
    assert set(res.leftover.tolist()) == set(range(60)) - covered


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


@pytest.mark.parametrize("vertex", [3, -1, -2])
def test_vertex_out_of_range_is_rejected(vertex):
    # -1 is also the arrays' mark for a missing member, so it must not pass
    inst = make_instance(3, [[[({0, vertex}, 0.5)]]])
    with pytest.raises(ValueError, match=f"index 0: vertex {vertex} out of range"):
        nib.run_cover(inst, 0)


def test_stats_csv():
    inst = make_instance(2, [[[({0}, 1.0)]]])
    res = nib.run_cover(inst, 0, tol=0.5)
    text = nib.stats_to_csv(res.stats)
    lines = text.strip().splitlines()
    assert lines[0] == "round,index,X,F_passed,W_size"
    assert lines[1].startswith("1,0,")
