"""check_hypotheses, which asks each round's law for its extremes, against a
walk over every atom of every index."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from gapsieve import nibble as nib
from gapsieve.pipeline import (
    StagedConfig,
    build_edge_distributions,
    stage1_zero_classes,
    stage2_random_small,
    survivors_after_small,
)
from gapsieve.rng import stream


def reference_hypotheses(inst):
    """The report from the atoms: each distinct EdgeDist object of a round
    is walked once, and its pairs count once per index that holds it."""
    inst.validate()
    p = inst.params
    profile = nib.degree_profile(inst)
    max_size, max_sparsity, max_codeg = 0, 0.0, 0.0
    for block in inst.rounds:
        sqrt_nj = math.sqrt(len(block))
        pair_sums, seen = {}, {}
        for i in block:
            d = inst.dist[i]
            seen[id(d)] = (d, seen.get(id(d), (d, 0))[1] + 1)
        for d, cnt in seen.values():
            probs = {}
            for e, q in d.atoms:
                max_size = max(max_size, len(e))
                for v in e:
                    probs[v] = probs.get(v, 0) + q
            for q in probs.values():
                max_sparsity = max(max_sparsity, float(q) * sqrt_nj)
            for e, q in d.atoms:
                verts = sorted(e)
                for a in range(len(verts)):
                    for b in range(a + 1, len(verts)):
                        key = (verts[a], verts[b])
                        pair_sums[key] = pair_sums.get(key, 0.0) + cnt * float(q)
        if pair_sums:
            max_codeg = max(max_codeg, max(pair_sums.values()))
    max_ratio, min_P = 0.0, 1.0
    for j in range(1, inst.m + 1):
        prev, d = profile.P[j - 1], profile.d[j]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.max(np.where(d > 0, d / prev, 0.0)) if inst.n_vertices else 0.0
        max_ratio = max(max_ratio, float(ratio))
    for j in range(0, inst.m + 1):
        if inst.n_vertices:
            min_P = min(min_P, float(np.min(profile.P[j])))
    log_thresh = 10 ** (inst.m + 2) * (p.A * math.log(p.kappa) - p.A * p.D)
    return nib.HypothesisReport(
        max_edge_size=max_size,
        edge_size_ok=max_size <= p.r_max,
        max_sparsity=max_sparsity,
        sparsity_ok=max_sparsity <= p.delta + 1e-15,
        max_codegree=max_codeg,
        codegree_ok=max_codeg <= p.delta + 1e-15,
        max_degree_ratio=max_ratio,
        degree_ok=max_ratio <= p.D + 1e-12,
        min_survival=min_P,
        survival_ok=min_P >= p.kappa - 1e-12,
        delta_log_bound=log_thresh,
        delta_small_ok=p.delta > 0 and math.log(p.delta) <= log_thresh,
    )


def pipeline_cover(**kw):
    cfg = StagedConfig(**kw)
    split = survivors_after_small(cfg, stage1_zero_classes(cfg), stage2_random_small(cfg))
    return build_edge_distributions(cfg, split).cover


def in_rounds(inst, m, seed):
    """The instance's indices dealt into m rounds at random, as stage 3's
    nibble deals them."""
    order = list(inst.all_indices())
    random.Random(seed).shuffle(order)
    return nib.CoverInstance(inst.n_vertices, [order[j::m] for j in range(m)], inst.dist,
                             inst.params)


def random_shared(seed, exact=False):
    """A few EdgeDist objects, each held by several indices of several rounds."""
    rng = random.Random(seed)
    n = rng.randrange(3, 12)
    dists = []
    for _ in range(rng.randrange(1, 5)):
        atoms, budget = [], Fraction(1)
        for _ in range(rng.randrange(1, 6)):
            q = budget * Fraction(rng.randrange(1, 7), 7)
            budget -= q
            e = frozenset(rng.sample(range(n), rng.randrange(1, min(n, 4) + 1)))
            atoms.append((e, q if exact else float(q)))
        dists.append(nib.EdgeDist(atoms=atoms))
    indices = list(range(rng.randrange(2, 12)))
    m = rng.randrange(1, min(len(indices), 4) + 1)
    return nib.CoverInstance(
        n, [indices[j::m] for j in range(m)], {i: rng.choice(dists) for i in indices},
        nib.NibbleParams(delta=0.5, r_max=4, A=5, D=2.0, kappa=0.01))


def regular_5uniform():
    """Criterion 6's instance."""
    rng, verts, edges = stream(2024, "edges"), list(range(3000)), []
    for _ in range(20):
        rng.shuffle(verts)
        edges += [frozenset(verts[i : i + 5]) for i in range(0, 3000, 5)]
    return nib.build_uniform_instance(3000, edges, nib.uniform_round_counts(120, 2, 4))


def uniform_shared():
    """nibble-bench's pinned uniform-shared instance."""
    rng = random.Random(5)
    edges = [rng.sample(range(60), rng.randrange(1, 4)) for _ in range(90)]
    return nib.build_uniform_instance(60, edges, nib.uniform_round_counts(40, 3, 3))


FLOAT_INSTANCES = {
    "paper-3000-s1": lambda: pipeline_cover(x=3000, mode="paper-formula", seed=1),
    "paper-3000-s1-rounds": lambda: in_rounds(
        pipeline_cover(x=3000, mode="paper-formula", seed=1), 4, 1),
    **{f"desk-5000-s{s}": (lambda s=s: pipeline_cover(x=5000, seed=s)) for s in (1, 2, 3)},
    **{f"paper-2000-sieve-c{c}": (lambda c=c: pipeline_cover(
        x=2000, mode="paper-formula", seed=1, weights="sieve", c=c)) for c in (1.0, 0.5)},
    "criterion-6": regular_5uniform,
    "uniform-shared": uniform_shared,
    "random-shared": lambda: [random_shared(seed) for seed in range(40)],
}


@pytest.mark.parametrize("name", FLOAT_INSTANCES)
def test_law_extremes_match_atom_walk_bit_for_bit(name):
    insts = FLOAT_INSTANCES[name]()
    for inst in insts if isinstance(insts, list) else [insts]:
        assert repr(nib.check_hypotheses(inst)) == repr(reference_hypotheses(inst))


def test_law_extremes_match_atom_walk_on_fractions():
    # the walk sums a vertex's Fraction probabilities exactly, the law in
    # floats: the two may differ in the last bit
    for seed in range(40):
        inst = random_shared(seed, exact=True)
        got, want = nib.check_hypotheses(inst), reference_hypotheses(inst)
        for field, value in vars(want).items():
            if isinstance(value, float):
                value = pytest.approx(value, rel=1e-12, abs=0)
            assert getattr(got, field) == value, (seed, field)
