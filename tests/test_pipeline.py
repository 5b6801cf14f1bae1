"""Tests for the staged pipeline: thresholds, stages, matching, full runs."""

import dataclasses
import math
import tracemalloc
import weakref
from itertools import product

import numpy as np
import pytest
from law_oracle import edge
from test_cli import pinned_bench_instance

from gapsieve import nibble as nib
from gapsieve import pipeline, primes
from gapsieve.pairlaw import PairLaw
from gapsieve.pipeline import (
    PipelineInstance,
    StagedConfig,
    _sieving_primes,
    build_edge_distributions,
    default_r,
    default_rounds,
    final_matching,
    memory_floor,
    paper_thresholds_log,
    run_pipeline,
    sigma_of,
    stage1_zero_classes,
    stage2_random_small,
    stage3_select,
    survivors_after_small,
    thresholds,
)
from gapsieve.primes import admissible_tuple, primes_up_to, sieve_interval
from gapsieve.residues import InfeasibleError, ResidueSystem, SiftedInterval, sift
from gapsieve.rng import stream, stream_seed
from gapsieve.weights import PairWeightContext


def test_config_validation():
    with pytest.raises(ValueError):
        StagedConfig(x=50).validate()
    with pytest.raises(ValueError):
        StagedConfig(x=500, c=-1).validate()
    with pytest.raises(ValueError):
        StagedConfig(x=500, stage3_method="magic").validate()
    StagedConfig(x=500).validate()
    # an invalid config cannot be constructed at all
    with pytest.raises(ValueError, match="x must be"):
        StagedConfig(x=50)
    with pytest.raises(ValueError, match="weights"):
        dataclasses.replace(StagedConfig(x=500), weights="magic")
    # an empty interval (x, y]
    assert thresholds(StagedConfig(x=100, c=0.34)).y > 100
    with pytest.raises(ValueError, match=r"--c 0\.3 gives y = 91 <= x = 100"):
        StagedConfig(x=100, c=0.3)
    # y >= (x//2 + 1)^2 could leave a product of two primes above x/2
    # after stage 1, which the split does not generate
    assert thresholds(StagedConfig(x=100, c=8.5)).y == 2_564
    with pytest.raises(InfeasibleError, match=r"y = 2714 >= \(x//2 \+ 1\)\^2 = 2601"):
        StagedConfig(x=100, c=9)


def test_desk_thresholds_examples():
    th = thresholds(StagedConfig(x=10**4))
    assert 2 < th.v < 3  # x^0.10 ~ 2.51: zero classes at p = 2 only
    assert 25 < th.z < 26  # x^0.35 ~ 25.1
    s1 = stage1_zero_classes(StagedConfig(x=10**4))
    very_small = [p for p in s1.entries if p <= th.v]
    medium = [p for p in s1.entries if p > th.z]
    assert very_small == [2]
    assert min(medium) == 29 and max(medium) == 4999


def test_paper_mode_clamps_at_desk_scale():
    th = thresholds(StagedConfig(x=10**4, mode="paper-formula"))
    assert th.clamped  # log^20 x vastly exceeds x^(1/4) here
    assert th.v == pytest.approx((10**4) ** 0.25)


def test_paper_thresholds_symbolic_at_huge_x():
    # x = 10^1000, evaluated purely in log space
    log_x = 1000 * math.log(10)
    log_v, log_z, clamped = paper_thresholds_log(log_x)
    log2 = math.log(log_x)
    log3 = math.log(log2)
    assert log_v == pytest.approx(min(20 * log2, log_x / 4), rel=1e-15)
    assert log_z == pytest.approx(log3 / (4 * log2) * log_x, rel=1e-15)
    assert not clamped  # 20 log2 x < x/4 in logs at this size
    # the clamp activates exactly when 20 log2 x exceeds log x / 4
    log_x_small = math.log(10**4)
    _, _, clamped_small = paper_thresholds_log(log_x_small)
    assert clamped_small


def test_sets_are_disjoint():
    cfg = StagedConfig(x=2000)
    th = thresholds(cfg)
    s1 = stage1_zero_classes(cfg)
    s2 = stage2_random_small(cfg)
    assert not (s1.entries.keys() & s2.entries.keys())
    for s in s2.entries:
        assert th.v < s <= th.z
    for p in s1.entries:
        assert p <= th.v or th.z < p <= cfg.x / 2


def test_stage2_empty_when_no_small_primes():
    # paper-formula thresholds at x = 150 give v = 3.5 > z = 1.45: S is empty
    cfg = StagedConfig(x=150, mode="paper-formula")
    th = thresholds(cfg)
    assert th.v > th.z
    assert stage2_random_small(cfg).entries == {}


def test_stage2_deterministic_and_uniform():
    cfg = StagedConfig(x=10**4, seed=42)
    a = stage2_random_small(cfg)
    b = stage2_random_small(cfg)
    assert a.entries == b.entries
    th = thresholds(cfg)
    assert 5 in a.entries  # S = (2.51, 25.1] contains 5
    counts = {r: 0 for r in range(5)}
    n_seeds = 2000
    for seed in range(n_seeds):
        counts[stage2_random_small(StagedConfig(x=10**4, seed=seed)).entries[5]] += 1
    se = math.sqrt(0.2 * 0.8 / n_seeds)
    for r in range(5):
        assert abs(counts[r] / n_seeds - 0.2) <= 3 * se + 1e-12


def test_survivors_definitional_on_zero_classes():
    cfg = StagedConfig(x=500, seed=0)
    s1, s2 = stage1_zero_classes(cfg), stage2_random_small(cfg)
    split = survivors_after_small(cfg, s1, s2)
    th = thresholds(cfg)
    for n in range(501, th.y + 1):
        expected = all(n % p != a for p, a in {**s1.entries, **s2.entries}.items())
        assert split.interval.survivors[n - split.interval.lo] == expected


def test_survivor_split_cross_checked_against_smooth_oracle():
    cfg = StagedConfig(x=5000, seed=3)
    th = thresholds(cfg)
    s1, s2 = stage1_zero_classes(cfg), stage2_random_small(cfg)
    split = survivors_after_small(cfg, s1, s2)
    prime_set = set(int(p) for p in sieve_interval(cfg.x + 1, th.y))
    small = [p for p in range(2, int(th.z) + 1) if all(p % d for d in range(2, p))]

    def smooth(n):
        for p in small:
            while n % p == 0:
                n //= p
        return n == 1

    composite = [n for n in split.interval.positions().tolist() if n not in prime_set]
    assert split.primes.tolist() == [n for n in split.interval.positions().tolist() if n in prime_set]
    assert split.smooth.tolist() == [n for n in composite if smooth(n)]
    assert split.other.tolist() == [n for n in composite if not smooth(n)]
    assert len(split.survivors) == len(split.primes) + len(split.smooth) + len(split.other)
    assert len(split.survivors) == split.interval.count()


def reference_split(cfg, s1, s2):
    """The split as a sift of both stages: sift stage 1, count, clear stage
    2 in place, prime_mask on the survivors, then trial division by the
    primes up to z of the composite ones.  Returns (after_stage1, leaves,
    survivors, primes, smooth, other)."""
    th = thresholds(cfg)
    leaves = sift(s1, cfg.x + 1, th.y)
    after_stage1 = leaves.count()
    sift(s2, cfg.x + 1, th.y, leaves)
    survivors = leaves.positions()
    is_q = primes.prime_mask(survivors)
    composite = survivors[~is_q]
    rem = composite.copy()
    for p in primes_up_to(int(th.z)):
        hit = np.flatnonzero(rem % p == 0)
        while len(hit):
            rem[hit] //= p
            hit = hit[rem[hit] % p == 0]
    return (after_stage1, leaves, survivors, survivors[is_q], composite[rem == 1],
            composite[rem != 1])


SPLIT_CASES = [StagedConfig(x=x, mode=mode, seed=seed)
               for x, mode in [*((x, "desk-preset") for x in (100, 150, 500, 1001, 5000, 50_000)),
                               *((x, "paper-formula") for x in (150, 3000, 20_000))]
               for seed in range(4)]


@pytest.mark.parametrize("cfg", SPLIT_CASES, ids=lambda c: f"{c.mode}-{c.x}-s{c.seed}")
def test_generated_split_matches_the_sifted_one(monkeypatch, cfg):
    # desk x < 1024 (v = x^0.1 < 2) draws stage-2 classes of 2 and 3, so the
    # leaves hold every position there; paper-formula x = 150 has no stage 2
    s1, s2 = stage1_zero_classes(cfg), stage2_random_small(cfg)
    for limit in (primes.TABLE_LIMIT, 0):
        monkeypatch.setattr(primes, "TABLE_LIMIT", limit)
        split = survivors_after_small(cfg, s1, s2)
        after_stage1, leaves, *kinds = reference_split(cfg, s1, s2)
        assert split.after_stage1 == after_stage1
        for got, want in zip((split.survivors, split.primes, split.smooth, split.other), kinds):
            assert got.dtype == np.int64 and got.tolist() == want.tolist()
        got = split.interval
        assert (got.lo, got.hi, got.first, got.step) == (leaves.lo, leaves.hi, leaves.first,
                                                         leaves.step)
        assert np.array_equal(got.bits, leaves.bits)
    assert (split.interval.step == 2) == (cfg.x >= 1024 or cfg.mode == "paper-formula")


def test_split_refuses_a_stage1_it_cannot_generate():
    cfg = StagedConfig(x=1000, seed=1)
    s1, s2 = stage1_zero_classes(cfg), stage2_random_small(cfg)
    nonzero = ResidueSystem(moduli=s1.moduli, classes=np.ones_like(s1.classes))
    with pytest.raises(ValueError, match="class 0"):
        survivors_after_small(cfg, nonzero, s2)
    # without the primes from 13 to 31 they are free, but above z = 11.2
    high = s1.moduli >= 37
    with pytest.raises(ValueError, match="31 has no stage-1 class but exceeds z"):
        survivors_after_small(cfg, ResidueSystem(moduli=s1.moduli[high],
                                                 classes=s1.classes[high]), s2)
    # without the primes above 50, y = 3,575 reaches 53^2
    low = s1.moduli <= 50
    with pytest.raises(ValueError, match=r"reaches 53\^2, the square of a prime above B = 47"):
        survivors_after_small(cfg, ResidueSystem(moduli=s1.moduli[low],
                                                 classes=s1.classes[low]), s2)


def test_prime_survivor_count_concentrates():
    cfg0 = StagedConfig(x=5000)
    th = thresholds(cfg0)
    n_Q = len(sieve_interval(cfg0.x + 1, th.y))
    counts = []
    for seed in range(50):
        cfg = StagedConfig(x=5000, seed=seed)
        s1, s2 = stage1_zero_classes(cfg), stage2_random_small(cfg)
        split = survivors_after_small(cfg, s1, s2)
        counts.append(len(split.primes))
    sigma = sigma_of(sorted(stage2_random_small(cfg0).entries))
    mean = float(np.mean(counts))
    se = float(np.std(counts, ddof=1)) / math.sqrt(len(counts))
    # E[#primes surviving] = sigma * #Q exactly (uniform independent classes)
    assert abs(mean - sigma * n_Q) <= 3 * se


def test_edge_construction_shifted_tuple():
    # p = 67 with offsets (3, 5): anchor 1 gives the edge {202, 336}
    cfg = StagedConfig(x=100, seed=0)
    split_primes = [202, 336]  # vertex labels; only arithmetic matters
    split = type("S", (), {"primes": split_primes})()
    pinst = build_edge_distributions(cfg, split)
    law = pinst.cover.law
    assert admissible_tuple(default_r(cfg.x)) == (3, 5)
    idx = law.ps.tolist().index(67)
    full_edge = frozenset({0, 1})
    assert full_edge in [e for e, _ in pinst.cover.dist[idx].atoms]
    # 202 - 3*67 = 1 = 336 - 5*67: both members carry the anchor's class
    assert [law.Q[v] % 67 for v in sorted(full_edge)] == [1, 1]
    total = sum(q for _, q in pinst.cover.dist[idx].atoms)
    assert total == pytest.approx(1.0)


def test_edge_single_survivor_gets_full_mass():
    # one survivor, one sieving prime: every nonempty edge is {q}, so the
    # merged edge carries the whole conditional mass
    cfg = StagedConfig(x=100, seed=0)
    split = type("S", (), {"primes": [260]})()
    pinst = build_edge_distributions(cfg, split)
    for idx in range(len(pinst.cover.law)):
        atoms = pinst.cover.dist[idx].atoms
        assert [e for e, _ in atoms] == [frozenset({0})]
        assert atoms[0][1] == pytest.approx(1.0)


def test_edge_codegree_at_most_one_prime_per_pair():
    cfg = StagedConfig(x=1000, seed=2)
    s1, s2 = stage1_zero_classes(cfg), stage2_random_small(cfg)
    split = survivors_after_small(cfg, s1, s2)
    law = build_edge_distributions(cfg, split).cover.law
    pair_owners = {}
    for idx, p in enumerate(law.ps):
        seen_pairs = set()
        for e, _ in law[idx].atoms:
            verts = sorted(e)
            for a in range(len(verts)):
                for b in range(a + 1, len(verts)):
                    seen_pairs.add((verts[a], verts[b]))
        for pair in seen_pairs:
            pair_owners.setdefault(pair, set()).add(p)
    for (v1, v2), owners in pair_owners.items():
        q1, q2 = law.Q[v1], law.Q[v2]
        assert len(owners) <= 1
        for p in owners:
            assert (q1 - q2) % p == 0


def reference_edge_distributions(cfg, split):
    """The per-anchor builder that build_edge_distributions replaced.

    Loops over survivors x offsets in Python, one dict of anchor -> edge per
    sieving prime, merged edge by edge; kept as the oracle for the array
    build.  Returns the fields the array build must reproduce exactly, plus
    each atom's smallest anchor, whose class every member of the edge shares.
    """
    th = thresholds(cfg)
    offsets = admissible_tuple(default_r(cfg.x))
    values = split.primes.tolist()
    vmap = {q: i for i, q in enumerate(values)}
    weight_ctx = PairWeightContext(offsets, cfg.x) if cfg.weights == "sieve" else None

    index_primes, anchors, dists, skipped = [], [], [], []
    for p in _sieving_primes(cfg).tolist():
        edge_by_anchor = {}
        for q in values:
            for h in offsets:
                n = q - h * p
                if n in edge_by_anchor:
                    continue
                edge_by_anchor[n] = frozenset(
                    vmap[n + hh * p] for hh in offsets if (n + hh * p) in vmap
                )
        total = (weight_ctx.sum_over_support(p, th.y) if weight_ctx
                 else len(edge_by_anchor))
        merged = {}  # edge -> (representative anchor, probability mass)
        if total > 0:
            for n in sorted(edge_by_anchor):
                w = weight_ctx.weight(p, n, th.y) if weight_ctx else 1.0
                if w <= 0:
                    continue
                e = edge_by_anchor[n]
                rep, q_acc = merged.get(e, (n, 0.0))
                merged[e] = (min(rep, n), q_acc + w / total)
        if not merged:
            skipped.append(p)
            continue
        index_primes.append(p)
        anchors.append({e: rep for e, (rep, q) in merged.items()})
        dists.append(nib.EdgeDist(
            atoms=[(e, q) for e, (rep, q) in sorted(merged.items(), key=lambda kv: kv[1][0])]
        ))

    degree = [0.0] * len(values)
    max_vertex_prob = 0.0
    for dist in dists:
        probs = {}
        for e, q in dist.atoms:
            for v in e:
                probs[v] = probs.get(v, 0) + q
        for v, q in probs.items():
            degree[v] += q
            max_vertex_prob = max(max_vertex_prob, q)
    return {
        "values": values,
        "index_primes": index_primes,
        "skipped_primes": skipped,
        "atoms": [d.atoms for d in dists],
        "anchors": [list(a.items()) for a in anchors],
        "C_measured": sum(degree) / len(degree),
        "delta": max_vertex_prob,
    }


def _split(cfg):
    return survivors_after_small(cfg, stage1_zero_classes(cfg), stage2_random_small(cfg))


@pytest.mark.parametrize("cfg", [
    *(StagedConfig(x=x, seed=seed) for x in (100, 1000, 5000) for seed in (0, 1, 2)),
    StagedConfig(x=3000, mode="paper-formula", seed=1),
    StagedConfig(x=500, seed=2, weights="sieve"),
    StagedConfig(x=2000, mode="paper-formula", seed=1, weights="sieve"),
    # y = 1.92x: the window cuts anchors of both offsets, 57 vertex groups
    StagedConfig(x=3000, c=0.5, weights="sieve", seed=1),
], ids=lambda c: f"{c.mode}-{c.x}-{c.weights}-s{c.seed}")
def test_edge_build_matches_per_anchor_reference(cfg):
    split = _split(cfg)
    if not len(split.primes):  # x = 100, seed 0: stage 2 leaves no prime
        with pytest.raises(ValueError, match="no surviving primes"):
            build_edge_distributions(cfg, split)
        return
    pinst = build_edge_distributions(cfg, split)
    law = pinst.cover.law
    ref = reference_edge_distributions(cfg, split)
    assert law.Q.tolist() == ref["values"]
    assert law.ps.tolist() == ref["index_primes"]
    assert pinst.skipped_primes.tolist() == ref["skipped_primes"]
    assert pinst.cover.rounds == [list(range(len(ref["index_primes"])))]
    # atom order, edges and masses, all compared with ==
    assert [law[i].atoms for i in range(len(law))] == ref["atoms"]
    # every member of an edge carries its anchor's class, the class stage 3 reads
    for p, anchors in zip(ref["index_primes"], ref["anchors"]):
        for e, rep in anchors:
            assert {law.Q[v] % p for v in e} == {rep % p}
    assert pinst.C_measured == ref["C_measured"]
    assert pinst.cover.params.delta == ref["delta"]
    assert type(pinst.cover.params.delta) is float
    if cfg.mode == "paper-formula":  # pair edges; the desk preset has singletons only
        assert max(len(e) for d in pinst.cover.dist.values() for e, _ in d.atoms) == 2


def test_pipeline_instance_holds_no_atom_arrays():
    # the closed-form law keeps arrays per index or per vertex; none grows
    # with the atoms or with the span of Q
    cfg = StagedConfig(x=1000, mode="paper-formula", seed=2)
    pinst = build_edge_distributions(cfg, _split(cfg))
    law = pinst.cover.law
    assert pinst.cover.dist is law and isinstance(law, PairLaw)
    assert [f.name for f in dataclasses.fields(pinst)] == ["cover", "C_measured",
                                                          "skipped_primes"]
    n_atoms = sum(len(law[i].atoms) for i in range(len(law)))
    sizes = {len(law.ps), len(law.Q)}
    assert n_atoms > 10 * max(sizes)
    arrays = [v for v in vars(law).values() if isinstance(v, np.ndarray)]
    arrays += [b for b in law.bounds]
    assert len(arrays) >= 8
    assert all(a.ndim == 1 and len(a) in sizes for a in arrays)


def test_edge_build_memory_is_bounded():
    # 1,965 vertex groups meet 4,459 sieving primes here; the law's degrees
    # and extremes hold no (group x prime) matrix, which alone is 67 MiB
    cfg = StagedConfig(x=10**5, c=0.5, weights="sieve", seed=1)
    split = _split(cfg)
    tracemalloc.start()
    try:
        build_edge_distributions(cfg, split)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_instance_file_round_trip_of_pipeline_instance():
    cfg = StagedConfig(x=1000, mode="paper-formula", seed=1)
    inst = build_edge_distributions(cfg, _split(cfg)).cover
    back = nib.instance_from_json(nib.instance_to_json(inst))
    assert isinstance(back.law, nib.DistLaw)  # read from EdgeDists, not the same law
    assert back.rounds == inst.rounds and back.params == inst.params
    assert all(back.dist[i].atoms == inst.dist[i].atoms for i in inst.all_indices())
    # the file's instance samples as the law's own EdgeDists do; the closed
    # form draws the same law with other random numbers
    on_dists = dataclasses.replace(inst, dist={i: inst.dist[i] for i in inst.all_indices()})
    a = nib.run_cover(on_dists, stream_seed(7, "round-trip"))
    b = nib.run_cover(back, stream_seed(7, "round-trip"))
    a_chosen, b_chosen = (dict(zip(r.index, map(edge, r.rows))) for r in (a, b))
    assert any(a_chosen.values())
    assert a_chosen == b_chosen
    assert a.leftover.tolist() == b.leftover.tolist()
    c = nib.run_cover(inst, stream_seed(7, "round-trip"))
    assert all(not e or e in {f for f, _ in inst.dist[i].atoms}
               for i, e in zip(c.index, map(edge, c.rows)))


def test_memory_floor_is_below_what_a_run_holds():
    # stage 1's primes up to x/2, 16 bytes each, and the leaves' bits
    for x in (100, 10_007, 10**6):
        y = thresholds(StagedConfig(x=x)).y
        held = 16 * len(sieve_interval(2, x // 2)) + len(range(x + 1, y + 1, 2))
        assert 0 < memory_floor(x, y) <= held
    # desk 1e8 is kept on a host of 1 GiB
    assert memory_floor(10**8, thresholds(StagedConfig(x=10**8)).y) < 2**30


@pytest.mark.parametrize("method", ["none", "independent", "greedy", "nibble"])
def test_residual_after_stage3_matches_full_sift(method):
    cfg = StagedConfig(x=2000, seed=3, stage3_method=method)
    report, system = run_pipeline(cfg)
    stages123 = ResidueSystem({p: a for p, a in system.entries.items() if p <= cfg.x})
    residual = sift(stages123, cfg.x + 1, report.y).positions().tolist()
    fresh = sorted(p for p in system.entries if p > cfg.x)
    assert len(residual) == report.residual_after_stage3 == len(fresh)
    # the final matching pairs the residual with fresh primes in order
    assert all(n % p == system.entries[p] for n, p in zip(residual, fresh))
    assert report.max_modulus == max(system.entries) == fresh[-1]


RESIDUAL_CASES = [StagedConfig(x=x, mode=mode, seed=seed, stage3_method=method)
                  for x, mode in ((50_000, "desk-preset"), (3000, "paper-formula"))
                  for method in ("none", "independent", "greedy", "nibble")
                  for seed in (1, 2)]


@pytest.mark.parametrize("cfg", RESIDUAL_CASES,
                         ids=lambda c: f"{c.mode}-{c.x}-{c.stage3_method}-{c.seed}")
def test_residual_handed_to_matching_equals_a_fresh_sift(monkeypatch, cfg):
    # run_pipeline reads the residual off the stage 1-2 survivors; it must be
    # the positions a from-scratch sift of stages 1-3 leaves, which are the
    # classes of the combined system below the fresh primes (all above x)
    handed = []

    def recording_matching(cfg, residual):
        handed.append(residual)
        return final_matching(cfg, residual)

    monkeypatch.setattr(pipeline, "final_matching", recording_matching)
    report, system = run_pipeline(cfg)
    low = system.moduli <= cfg.x
    sys123 = ResidueSystem(moduli=system.moduli[low], classes=system.classes[low])
    [residual] = handed
    assert residual.dtype == np.int64
    assert np.array_equal(residual, sift(sys123, cfg.x + 1, report.y).positions())
    assert len(residual) == report.residual_after_stage3


@pytest.mark.parametrize("method", ["none", "independent", "greedy", "nibble"])
def test_run_pipeline_releases_the_leaves_before_matching(monkeypatch, method):
    # stage 3 clears its classes on the split's own leaves, and run_pipeline
    # drops them once the residual is read, so no stage 1-2 bits of (x, y]
    # are alive through final matching and the check sift
    refs, alive = [], []

    def recording_split(cfg, s1, s2):
        split = survivors_after_small(cfg, s1, s2)
        refs.extend([weakref.ref(split.interval), weakref.ref(split.interval.bits)])
        return split

    def recording_matching(cfg, residual):
        alive.append([ref() is not None for ref in refs])
        return final_matching(cfg, residual)

    monkeypatch.setattr(pipeline, "survivors_after_small", recording_split)
    monkeypatch.setattr(pipeline, "final_matching", recording_matching)
    report, _ = run_pipeline(StagedConfig(x=50_000, seed=1, stage3_method=method))
    assert alive == [[False, False]]
    assert (report.stage3_assigned > 0) == (method != "none")


@pytest.mark.parametrize("method, sifts", [("none", 2), ("independent", 3), ("greedy", 3),
                                           ("nibble", 3)])
def test_run_pipeline_extracts_the_survivors_once(monkeypatch, method, sifts):
    # stage 2 (stage 1's survivors are generated, not sifted), stage 3 in
    # place (only when it assigns a class) and the check; the leaves'
    # positions are read once, by the split (the sieve's segments are
    # SiftedIntervals too, and are not counted)
    calls = {"sift": 0, "positions": 0}
    positions, sifted = SiftedInterval.positions, []

    def counting_sift(*args):
        calls["sift"] += 1
        sifted.append(sift(*args))
        return sifted[-1]

    def counting_positions(self):
        calls["positions"] += any(self is s for s in sifted)
        return positions(self)

    monkeypatch.setattr(pipeline, "sift", counting_sift)
    monkeypatch.setattr(SiftedInterval, "positions", counting_positions)
    report, _ = run_pipeline(StagedConfig(x=50_000, seed=1, stage3_method=method))
    assert (report.stage3_assigned > 0) == (method != "none")
    assert calls == {"sift": sifts, "positions": 1}


def pair_instance(values, primes):
    """A PipelineInstance over the uniform PairLaw(values, (3, 5), primes)."""
    return PipelineInstance.of(PairLaw(values, (3, 5), primes), primes)


def test_stage3_single_option_chosen_by_all_methods():
    # both anchors of 101 (1009 - 3*101 and 1009 - 5*101) give the edge
    # {1009}: one atom {0} of mass 1
    pinst = pair_instance([1009], [101])
    assert pinst.cover.law[0].atoms == [(frozenset({0}), 1.0)]
    for method in ("independent", "greedy", "nibble"):
        cfg = StagedConfig(x=500, seed=1, stage3_method=method)
        rows = stage3_select(cfg, pinst)
        assert dict(zip(pinst.cover.law.ps, map(edge, rows))) == {101: frozenset({0})}


def test_stage3_greedy_maximizes_residual_coverage():
    # 101 holds the pair {1000, 1202} and 103 the pair {1000, 1206}, so the
    # second index in either order still covers a new vertex; brute force
    # over all atom choices: greedy's total coverage must be the best
    values = [1000, 1202, 1206, 1500]
    pinst = pair_instance(values, [101, 103])
    law = pinst.cover.law
    best = max(len(set().union(*rows) - {-1})
               for rows in product(*(law.atoms(i)[0].tolist() for i in range(len(law)))))
    assert best == 3
    for seed in range(1, 5):  # both processing orders
        cfg = StagedConfig(x=500, seed=seed, stage3_method="greedy")
        cover = set().union(*map(edge, stage3_select(cfg, pinst)))
        assert len(cover) == best


def test_stage3_nibble_round_recipe_covers_all_when_scaled():
    cfg = StagedConfig(x=5000, seed=4, stage3_method="nibble")
    s1, s2 = stage1_zero_classes(cfg), stage2_random_small(cfg)
    split = survivors_after_small(cfg, s1, s2)
    pinst = build_edge_distributions(cfg, split)
    rows = stage3_select(cfg, pinst)
    assert len(rows) == len(pinst.cover.law)  # one row per index; skipped primes have none
    assigned = sum(1 for e in map(edge, rows) if e)
    assert assigned > 0


def count_degree_passes(monkeypatch, law):
    """A list that grows by one entry per degrees call on law's class."""
    calls, degrees = [], type(law).degrees

    def counting(self, block, n_vertices):
        calls.append(len(block))
        return degrees(self, block, n_vertices)

    monkeypatch.setattr(type(law), "degrees", counting)
    return calls


def test_degree_passes_are_only_those_read(monkeypatch):
    # round j draws against P_{j-1}, so run_cover sums the degrees of rounds
    # 1..m-1 alone and stage 3's one round sums none; the hypothesis check
    # reads d_m and P_m, so it sums every round's
    cfg = StagedConfig(x=5000, seed=4, stage3_method="nibble")
    pinst = build_edge_distributions(cfg, _split(cfg))
    calls = count_degree_passes(monkeypatch, pinst.cover.law)
    stage3_select(cfg, pinst)
    assert calls == []
    inst = pinned_bench_instance("uniform-shared")
    assert inst.m == 3
    calls = count_degree_passes(monkeypatch, inst.law)
    nib.run_cover(inst, stream_seed(1, "degree-passes"))
    assert len(calls) == 2
    calls.clear()
    nib.check_hypotheses(inst)
    assert len(calls) == 3


def test_final_matching_cases():
    cfg = StagedConfig(x=1000)
    assert final_matching(cfg, []).entries == {}
    ext = final_matching(cfg, [1500])
    assert len(ext.entries) == 1
    p, a = next(iter(ext.entries.items()))
    assert p == 1009  # first prime above 1000
    assert a == 1500 % p
    residuals = [1101, 1202, 1303, 1404, 1505]
    ext5 = final_matching(cfg, residuals)
    assert len(ext5.entries) == 5
    assert all(1000 < p <= 10_000 for p in ext5.entries)
    for n in residuals:
        assert any(n % p == a for p, a in ext5.entries.items())
    # an unsorted residual is paired in increasing order all the same
    assert final_matching(cfg, residuals[::-1]) == ext5
    assert final_matching(cfg, np.array([1303, 1101, 1505, 1202, 1404])) == ext5


def test_final_matching_sieves_only_the_primes_it_spends(monkeypatch):
    spans = []

    def recording_sieve(lo, hi):
        if lo != 3:  # not the base primes of a window
            spans.append((lo, hi))
        return sieve_interval(lo, hi)

    monkeypatch.setattr(primes, "sieve_interval", recording_sieve)
    cfg = StagedConfig(x=100_000)
    residual = list(range(200_001, 400_001, 2))  # more primes than one block holds
    ext = final_matching(cfg, residual)
    fresh = sieve_interval(cfg.x + 1, 30 * cfg.x)[: len(residual)].tolist()
    assert list(ext.entries) == fresh
    assert list(ext.entries.values()) == [n % p for n, p in zip(residual, fresh)]
    # blocks stop at the one holding the last prime spent, far below 3e6
    assert spans[0][0] == cfg.x + 1 and all(b[0] == a[1] + 1 for a, b in zip(spans, spans[1:]))
    assert spans[-2][1] < fresh[-1] <= spans[-1][1] < 30 * cfg.x


def test_stage1_is_sifted_once(monkeypatch):
    sifted = []

    def recording_sift(sys, lo, hi, survivors=None):
        sifted.append(sys)
        return sift(sys, lo, hi, survivors)

    monkeypatch.setattr(pipeline, "sift", recording_sift)
    cfg = StagedConfig(x=5000, seed=3, stage3_method="greedy")
    report, combined = run_pipeline(cfg)
    s1, s2 = stage1_zero_classes(cfg), stage2_random_small(cfg)
    # stage 2, stage 3 in place, and the independent check of the whole,
    # the one sift by stage 1's classes: the split generates their survivors
    assert sifted[0].entries == s2.entries
    assert [len(s) for s in sifted] == [len(s2), report.stage3_assigned, len(combined)]
    lo, hi = cfg.x + 1, report.y
    assert report.survivors_after_stage1 == sift(s1, lo, hi).count()
    split = survivors_after_small(cfg, s1, s2)
    assert split.after_stage1 == report.survivors_after_stage1
    assert (split.interval.survivors == sift(s1.merged(s2), lo, hi).survivors).all()
    assert len(split.survivors) == report.survivors_after_stage12


def test_run_pipeline_x500_always_covers():
    for seed in (0, 1, 2):
        report, system = run_pipeline(StagedConfig(x=500, seed=seed))
        assert report.achieved_y > 500
        check = sift(system, 501, report.achieved_y)
        assert check.count() == 0


def test_run_pipeline_report_consistency():
    cfg = StagedConfig(x=1000, seed=11)
    report, system = run_pipeline(cfg)
    # sigma recomputed independently
    th = thresholds(cfg)
    sigma = 1.0
    for s in primes_up_to(int(th.z)):
        if s > th.v:
            sigma *= 1 - 1 / s
    assert abs(report.sigma - sigma) < 1e-12
    # survivor counts weakly decreasing across stages
    assert report.interval_size >= report.survivors_after_stage1
    assert report.survivors_after_stage1 >= report.survivors_after_stage12
    assert report.survivors_after_stage12 >= report.residual_after_stage3
    assert report.prime_survivors + report.smooth_survivors + report.other_survivors \
        == report.survivors_after_stage12
    assert report.extra_primes_used == report.residual_after_stage3
    # matching moduli disjoint from stage moduli and above x
    stage_moduli = {p for p in system.entries if p <= cfg.x}
    extra_moduli = {p for p in system.entries if p > cfg.x}
    assert len(extra_moduli) == report.extra_primes_used
    assert not (stage_moduli & extra_moduli)


def test_run_pipeline_method_and_seed_determinism():
    a = run_pipeline(StagedConfig(x=500, seed=5))
    b = run_pipeline(StagedConfig(x=500, seed=5))
    assert a[1].entries == b[1].entries
    c = run_pipeline(StagedConfig(x=500, seed=6))
    assert c[1].entries != a[1].entries  # different seed, different draw


def test_run_pipeline_stage3_none():
    report, system = run_pipeline(StagedConfig(x=500, seed=1, stage3_method="none"))
    assert report.stage3_assigned == 0
    assert sift(system, 501, report.achieved_y).count() == 0


def test_run_pipeline_sieve_weights_mode():
    report, system = run_pipeline(StagedConfig(x=500, seed=2, weights="sieve"))
    assert sift(system, 501, report.achieved_y).count() == 0
    assert report.stage3_indices > 0


def test_default_parameters():
    assert default_r(5000) == 2
    assert default_rounds(5000) == 1
    assert default_r(10**6) >= 2


def test_report_json_stable_field_order():
    # construct writes report.__dict__, so its key order is the file's field order
    report, _ = run_pipeline(StagedConfig(x=500, seed=0))
    keys = list(report.__dict__)
    assert keys == [f.name for f in dataclasses.fields(report)]
    assert keys.index("x") < keys.index("y") < keys.index("sigma")
    assert keys.index("stage3_skips") + 1 == keys.index("stage3_edge_sizes") \
        < keys.index("residual_after_stage3")


@pytest.mark.parametrize("cfg, pairs", [
    (StagedConfig(x=3000, mode="paper-formula", seed=1), True),
    (StagedConfig(x=3000, mode="paper-formula", seed=1, stage3_method="greedy"), True),
    # desk x = 5000 draws a class of 3 (here 2, not 0), so no q, q + 2p both survive
    (StagedConfig(x=5000, seed=1), False),
    (StagedConfig(x=2000, seed=1, stage3_method="none"), False),
], ids=lambda v: f"{v.mode}-{v.x}-{v.stage3_method}" if isinstance(v, StagedConfig) else "")
def test_report_counts_chosen_edge_sizes(cfg, pairs):
    report, _ = run_pipeline(cfg)
    sizes = report.stage3_edge_sizes
    assert len(sizes) == default_r(cfg.x) == 2
    assert sum(sizes) == report.stage3_assigned
    assert (sizes[1] > 0) == pairs
    # every prime of (x/2, x] is assigned or skipped, unless stage 3 is off
    primes = 0 if cfg.stage3_method == "none" else len(sieve_interval(cfg.x // 2 + 1, cfg.x))
    assert report.stage3_assigned + report.stage3_skips == primes
