"""Tests for the closed-form stage-3 law against its atoms.

Every PairLaw index can be read as the atom list of the per-anchor
construction (tests/test_pipeline.py checks that list against a Python
reference).  Here the closed form's draws, round normalizations and greedy
choices are checked against those atoms: draws, and X_p(W) in a later
round, against law_oracle.py's exact law; X_p(W) against nibble.DistLaw
reading the law's own EdgeDists; and greedy against a first-maximum greedy
over the rows of PairLaw.atoms.
Draws of both laws are also checked not to depend on which other block
positions are drawn with them, or in what order.
"""

import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from law_oracle import edge, oracle_X, oracle_distribution

from gapsieve import nibble as nib
from gapsieve.pairlaw import PairLaw, correlation
from gapsieve.pipeline import (
    StagedConfig,
    build_edge_distributions,
    stage1_zero_classes,
    stage2_random_small,
    stage3_select,
    survivors_after_small,
)
from gapsieve.primes import sieve_interval
from gapsieve.rng import stream, stream_seed

F = Fraction
# primes of (100, 200] and three sieving primes, with (3, 5) as the tuple:
# the gaps 2p = 6, 10, 14 give pair edges
TINY_Q = sieve_interval(101, 200).tolist()
TINY_PRIMES = [3, 5, 7]


def tiny_laws():
    """The uniform law, and a sieve-style one whose window |n| <= 120 cuts
    anchors of every prime and leaves remainder mass."""
    return [PairLaw(TINY_Q, (3, 5), TINY_PRIMES),
            PairLaw(TINY_Q, (3, 5), TINY_PRIMES, units=[1 / 150] * 3, window=120)]


def split_of(cfg):
    return survivors_after_small(cfg, stage1_zero_classes(cfg), stage2_random_small(cfg))


def assert_frequencies(counts, law, n_draws, where):
    """Every outcome of an exact law within 4 sigma of its sampled frequency,
    and nothing sampled outside the law."""
    assert set(counts) <= {e for e, q in law.items() if q}, where
    for e, q in law.items():
        q = max(float(q), 0.0)  # a float total may overshoot 1 by an ulp
        se = math.sqrt(q * (1 - q) / n_draws)
        assert abs(counts.get(e, 0) / n_draws - q) <= 4 * se + 1e-12, (where, sorted(e), q)


def test_correlation_counts_exactly():
    rng = np.random.default_rng(3)
    a = (rng.random(500) < 0.3).astype(float)
    b = (rng.random(500) < 0.5).astype(float)
    lags = [0, 1, 7, 250, 499, 500, 900]
    direct = [int(np.dot(a[: max(500 - lag, 0)], b[lag:])) for lag in lags]
    assert correlation(a, b, lags).tolist() == direct
    assert correlation(a, a, lags).tolist() == [int(np.dot(a[: max(500 - lag, 0)], a[lag:]))
                                                for lag in lags]


@pytest.mark.parametrize("which", [0, 1], ids=["uniform", "window"])
def test_draw_frequencies_match_atom_masses(which):
    law = tiny_laws()[which]
    assert law.pairs.all()  # every prime has pair edges
    if which:
        assert law.cut.all() and (law.rem > 0.1).all()
    n_draws = 20_000
    keys = np.arange(n_draws)  # one draw per key
    ones = np.ones(len(TINY_Q))
    _, draw = law.round_law(range(len(law)), ones.astype(bool), ones)  # the raw law
    for i in range(len(law)):
        one = nib.CoverInstance(n_vertices=len(TINY_Q), rounds=[[0]], dist={0: law[i]},
                                params=nib.NibbleParams(0.5, 2, 6.0, 1.0, 1e-9))
        P = {(0, v): F(1) for v in range(len(TINY_Q))}
        _, outcomes, _ = oracle_distribution(one, P, F(1))
        exact = {picks[0]: q for picks, q in outcomes.items()}
        counts = Counter(map(edge, draw(np.full(n_draws, i), keys, 1)))
        assert_frequencies(counts, exact, n_draws, (which, i))


def test_later_round_draws_match_exact_law():
    law = tiny_laws()[0]
    W = set(random.Random(5).sample(range(len(TINY_Q)), 20))
    inside = np.zeros(len(TINY_Q), dtype=bool)
    inside[list(W)] = True
    P = 0.6
    Xs, draw = law.round_law([0, 1, 2], inside, np.full(len(TINY_Q), P))
    n_draws = 20_000
    keys = np.arange(n_draws)  # one draw per key
    prof = {(0, v): F(P) for v in range(len(TINY_Q))}
    for k in range(3):
        one = nib.CoverInstance(n_vertices=len(TINY_Q), rounds=[[0]], dist={0: law[k]},
                                params=nib.NibbleParams(0.5, 2, 6.0, 1.0, 1e-9))
        assert Xs[k] == pytest.approx(float(oracle_X(law[k], prof, 1, W)), rel=1e-12)
        # the law conditioned on W, with no drift test: every X passes tol 2
        _, outcomes, _ = oracle_distribution(one, prof, F(2), W=W)
        exact = {picks[0]: q for picks, q in outcomes.items()}
        counts = Counter(map(edge, draw(np.full(n_draws, k), keys, 1)))
        assert_frequencies(counts, exact, n_draws, k)


def drawn_by_index(law, block, inside, P, pieces):
    """{index: edge} of one round over block, drawn one piece of block
    positions per call."""
    _, draw = law.round_law(block, inside, P)
    key = stream_seed(13, "order")
    drawn = {}
    for ks in pieces:
        drawn.update(zip([block[k] for k in ks],
                         map(edge, draw(np.asarray(ks, dtype=np.int64), key, 2))))
    return drawn


@pytest.mark.parametrize("which, later", [("uniform", False), ("uniform", True),
                                          ("window", False), ("dist", False), ("dist", True)])
def test_draws_do_not_depend_on_order_or_split(which, later):
    """An index draws the same edge when the block is permuted, or split
    across calls drawn in another order; the window instance's sieve law
    cuts anchors of some primes."""
    if which == "window":
        cfg = StagedConfig(x=2000, mode="paper-formula", seed=1, weights="sieve")
    else:
        cfg = StagedConfig(x=1000, mode="paper-formula", seed=1)
    law = build_edge_distributions(cfg, split_of(cfg)).cover.law
    n, block = len(law.Q), list(range(len(law)))
    if which == "window":
        assert law.cut.any()
    if which == "dist":
        law = nib.DistLaw({i: law[i] for i in block}, n)
    rng = np.random.default_rng(5)
    inside, P = np.ones(n, dtype=bool), np.ones(n)
    if later:  # a later round: W is part of Q and P < 1
        inside, P = rng.random(n) < 0.7, np.full(n, 0.6)
    whole = drawn_by_index(law, block, inside, P, [range(len(block))])
    assert any(whole.values())
    perm = rng.permutation(block).tolist()
    assert drawn_by_index(law, perm, inside, P, [range(len(perm))]) == whole
    cut = len(perm) // 3
    assert drawn_by_index(law, perm, inside, P, [range(cut, len(perm)), range(cut)]) == whole
    # a position drawn twice in one call draws its edge twice
    _, draw = law.round_law(block, inside, P)
    assert list(map(edge, draw([3, 3, 1], stream_seed(13, "order"), 2))) \
        == [whole[3], whole[3], whole[1]]


def test_round_two_X_matches_dist_law():
    cfg = StagedConfig(x=3000, mode="paper-formula", seed=1)
    pinst = build_edge_distributions(cfg, split_of(cfg))
    law = pinst.cover.law
    n = pinst.cover.n_vertices
    table = nib.DistLaw({i: law[i] for i in range(len(law))}, n)
    rng = np.random.default_rng(7)
    block = rng.permutation(len(law)).tolist()
    for P in (0.83, 0.4):  # P < 1/2 tilts the sampler toward pairs
        inside = rng.random(n) < 0.7
        P_row = np.full(n, P)
        got, _ = law.round_law(block, inside, P_row)
        want, _ = table.round_law(block, inside, P_row)
        assert np.allclose(got, want, rtol=1e-12, atol=0)
    # the raw law's X is its total plus the remainder
    got, _ = law.round_law(block, np.ones(n, dtype=bool), np.ones(n))
    want, _ = table.round_law(block, np.ones(n, dtype=bool), np.ones(n))
    assert np.allclose(got, want, rtol=1e-12, atol=0)


def test_later_rounds_need_one_target_and_no_window_cut():
    uniform, window = tiny_laws()
    n = len(TINY_Q)
    inside = np.ones(n, dtype=bool)
    inside[0] = False
    P = np.full(n, 0.5)
    P[3] = 0.4
    with pytest.raises(ValueError, match="one survival target"):
        uniform.round_law([0], inside, P)
    with pytest.raises(ValueError, match="window"):
        window.round_law([0], inside, np.full(n, 0.5))
    # round 1 of a window-cut law is its raw law
    Xs, _ = window.round_law([0, 1, 2], np.ones(n, dtype=bool), np.ones(n))
    assert Xs == pytest.approx([1.0] * 3, rel=1e-12)


GREEDY_CONFIGS = [
    StagedConfig(x=x, mode=mode, seed=seed, stage3_method="greedy", weights=weights)
    for x, mode, weights in [(3000, "paper-formula", "uniform"), (5000, "desk-preset", "uniform"),
                             (20000, "desk-preset", "uniform"), (5000, "paper-formula", "uniform"),
                             (2000, "paper-formula", "sieve")]
    for seed in (1, 2, 3)
]


def atom_greedy(law, order):
    """For each index in order, its first atom (in anchor order) with the
    most uncovered members, read off the rows of law.atoms."""
    uncovered = np.ones(len(law.Q) + 1, dtype=np.int64)
    uncovered[-1] = 0  # what a missing member (-1) reads
    chosen = []
    for i in order:
        rows, _ = law.atoms(i)
        row = rows[int(np.argmax(uncovered[rows].sum(axis=1)))]
        uncovered[row] = 0
        chosen.append(frozenset(v for v in row.tolist() if v >= 0))
    return chosen


@pytest.mark.parametrize("cfg", GREEDY_CONFIGS,
                         ids=lambda c: f"{c.mode}-{c.x}-{c.weights}-s{c.seed}")
def test_closed_form_greedy_matches_atom_greedy(cfg):
    pinst = build_edge_distributions(cfg, split_of(cfg))
    law = pinst.cover.law
    # stage3_select's greedy order
    order = list(range(len(pinst.index_primes)))
    stream(cfg.seed, "stage3-order").shuffle(order)
    want = dict(zip(order, atom_greedy(law, order)))
    rows = stage3_select(cfg, pinst)  # one row per index, in index order
    assert list(map(edge, rows)) == [want[i] for i in range(len(pinst.index_primes))]
    if cfg.weights == "sieve":  # the window cuts anchors of some primes
        assert law.cut.any()


@pytest.mark.parametrize("c", [1.0, 0.5])
def test_window_cut_counts_match_atoms(c):
    cfg = StagedConfig(x=2000, mode="paper-formula", seed=1, weights="sieve", c=c)
    law = build_edge_distributions(cfg, split_of(cfg)).cover.law
    for i in np.flatnonzero(law.cut).tolist():
        rows, mass = law.atoms(i)
        assert int((rows[:, 1] >= 0).sum()) == law.pairs[i]
        assert math.fsum(mass.tolist()) == pytest.approx(float(law.mass[i]), rel=1e-12)
    # at c = 0.5 the window cuts pair anchors below -y, which the build recounts
    assert law.bounds[0].any() == (c == 0.5)
