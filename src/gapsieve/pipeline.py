"""Staged construction of a covering system for the interval (x, y].

Stage 1 fixes the class 0 mod p for very small primes (p <= v) and medium
primes (z < p <= x/2): their multiples blanket most of the interval.
Stage 2 draws one uniform class per small prime in (v, z].  The survivors
are mostly the primes of (x, y] plus a sprinkling of z-smooth numbers and
small-times-large composites.  Stage 3 spends the primes of (x/2, x]: an
anchor n gives p the edge of surviving primes n + h_i p (h an admissible
tuple), each p picks one edge independently, greedily, or through the
nibble covering engine, and takes the class its members share, q mod p.
Whatever survives is matched to fresh primes above x, one each, which
completes the cover of (x, y].

Thresholds come in two modes.  The paper-formula mode uses the asymptotic
expressions (the very-small bound log^20 x is clamped to x^(1/4), since it
exceeds x for every feasible x, and `Thresholds.clamped` records when the
clamp applies); the desk preset uses the fixed powers v = x^0.10 and
z = x^0.35 (DESK_V_EXP, DESK_Z_EXP), preserving the staged structure at
reachable sizes.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import nibble as nib
from .oracle import smooth_mask
from .primes import admissible_tuple, primes_up_to, sieve_interval
from .residues import ResidueSystem, sift
from .rng import stream
from .weights import PairWeightContext

DESK_V_EXP = 0.10  # desk preset: very small primes p <= x^0.10
DESK_Z_EXP = 0.35  # desk preset: small primes up to x^0.35


class BudgetError(RuntimeError):
    """Final matching ran out of fresh primes."""

    def __init__(self, needed: int, available: int, required_C_extra: float):
        self.required_C_extra = required_C_extra
        super().__init__(
            f"matching needs {needed} fresh primes but only {available} are "
            f"available; C_extra of about {required_C_extra:.1f} would suffice"
        )


class VerificationError(RuntimeError):
    """The combined system failed its independent full-cover check."""


@dataclass(frozen=True)
class StagedConfig:
    x: int
    c: float = 1.0
    mode: str = "desk-preset"  # "desk-preset" | "paper-formula"
    seed: int = 0
    stage3_method: str = "nibble"  # "independent" | "greedy" | "nibble" | "none"
    C_extra: float = 10.0
    weights: str = "uniform"  # "uniform" | "sieve"

    def __post_init__(self):
        self.validate()

    def validate(self):
        if self.x < 100:
            raise ValueError("x must be >= 100")
        if not 0 < self.c < math.inf:
            raise ValueError(f"--c must be positive and finite, got {self.c}")
        if not 1 < self.C_extra < math.inf:
            raise ValueError(
                f"--c-extra must exceed 1 (fresh primes come from (x, C_extra*x]), "
                f"got {self.C_extra}"
            )
        if self.mode not in ("desk-preset", "paper-formula"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.stage3_method not in ("independent", "greedy", "nibble", "none"):
            raise ValueError(f"unknown stage3 method {self.stage3_method!r}")
        if self.weights not in ("uniform", "sieve"):
            raise ValueError(f"unknown weights mode {self.weights!r}")
        y = thresholds(self).y
        if y <= self.x:
            raise ValueError(f"--c {self.c} gives y = {y} <= x = {self.x}, an empty interval")


def _iterated_logs(x: float):
    l1 = math.log(x)
    l2 = math.log(l1) if l1 > 1 else 1.0
    l3 = math.log(l2) if l2 > 1 else 1.0
    return l1, l2, l3


def paper_thresholds_log(log_x: float):
    """(log v, log z, clamped) for the paper-formula thresholds, given log x.

    Works directly in log space so astronomically large x can be checked:
    v = min(log^20 x, x^(1/4)) and z = x^(log3 x / (4 log2 x)).
    """
    log2 = math.log(log_x)
    log3 = math.log(log2)
    log_v_raw = 20 * log2
    log_v_clamp = log_x / 4
    clamped = log_v_raw > log_v_clamp
    log_z = (log3 / (4 * log2)) * log_x
    return min(log_v_raw, log_v_clamp), log_z, clamped


@dataclass(frozen=True)
class Thresholds:
    v: float
    z: float
    y_formula: float  # c x log x max(1, log3 x) / max(1, log2 x); y is its ceiling
    clamped: bool

    @property
    def y(self) -> int:
        return math.ceil(self.y_formula)

    def small_primes(self):
        """The random-class primes: v < s <= z."""
        return [p for p in primes_up_to(int(self.z)) if p > self.v]


def thresholds(cfg: StagedConfig) -> Thresholds:
    x = cfg.x
    l1, l2, l3 = _iterated_logs(x)
    y_formula = cfg.c * x * l1 * max(1.0, l3) / max(1.0, l2)
    if cfg.mode == "desk-preset":
        return Thresholds(v=x**DESK_V_EXP, z=x**DESK_Z_EXP, y_formula=y_formula, clamped=False)
    log_v, log_z, clamped = paper_thresholds_log(l1)
    return Thresholds(v=math.exp(log_v), z=math.exp(log_z), y_formula=y_formula,
                      clamped=clamped)


def default_r(x: int) -> int:
    """Tuple length floor(log^(1/5) x), clamped to at least 2."""
    return max(2, math.floor(math.log(x) ** 0.2))


def default_rounds(x: int) -> int:
    """floor(log3 x / log 5), clamped to at least 1 round."""
    _, _, l3 = _iterated_logs(x)
    return max(1, math.floor(l3 / math.log(5)))


def sigma_of(small_primes) -> float:
    out = 1.0
    for s in small_primes:
        out *= 1 - 1 / s
    return out


# -- stages -------------------------------------------------------------------


def stage1_zero_classes(cfg: StagedConfig) -> ResidueSystem:
    """Class 0 mod p for very small primes p <= v and medium z < p <= x/2."""
    th = thresholds(cfg)
    entries = {}
    for p in primes_up_to(cfg.x // 2):
        if p <= th.v or th.z < p <= cfg.x / 2:
            entries[p] = 0
    return ResidueSystem(entries)


def stage2_random_small(cfg: StagedConfig) -> ResidueSystem:
    """One uniform class per small prime; stream-per-prime keeps the draw
    independent of iteration order."""
    th = thresholds(cfg)
    return ResidueSystem({s: stream(cfg.seed, "stage2", s).randrange(s)
                          for s in th.small_primes()})


@dataclass
class SurvivorSplit:
    interval: object  # SiftedInterval over (x, y]
    primes: list
    smooth: list
    other: list

    def total(self) -> int:
        return self.interval.count()


def survivors_after_small(cfg: StagedConfig, sys12: ResidueSystem) -> SurvivorSplit:
    """Sift (x, y] by stages 1-2 and classify survivors.

    Survivors are split into primes of (x, y], z-smooth numbers (every
    prime factor <= z, tested exactly on the non-prime survivors only), and
    the rest.
    """
    th = thresholds(cfg)
    interval = sift(sys12, cfg.x + 1, th.y)
    survivors = np.flatnonzero(interval.survivors) + interval.lo
    is_q = np.isin(survivors, sieve_interval(cfg.x + 1, th.y), assume_unique=True)
    composite = survivors[~is_q]
    smooth = smooth_mask(composite, int(th.z))
    return SurvivorSplit(
        interval=interval,
        primes=survivors[is_q].tolist(),
        smooth=composite[smooth].tolist(),
        other=composite[~smooth].tolist(),
    )


@dataclass
class PipelineInstance:
    """Edge-distribution bundle for stage 3.

    The cover instance works on vertex ids 0..len(values)-1; values maps ids
    back to surviving primes.  Each index belongs to one sieving prime p,
    and every member q of one of its edges is n + h_i p for the same anchor
    n, so any member fixes the class q mod p that the edge stands for.
    """

    cover: nib.CoverInstance
    values: list  # vertex id -> surviving prime q
    index_primes: list  # index id -> sieving prime p
    C_measured: float
    skipped_primes: list  # primes with no nonempty edge


def _sieving_primes(cfg: StagedConfig):
    return sieve_interval(cfg.x // 2 + 1, cfg.x).tolist()


def build_edge_distributions(cfg: StagedConfig, split: SurvivorSplit) -> PipelineInstance:
    """For each sieving prime, the distribution of its survivor edge.

    An anchor n yields the edge {n + h_i p} intersected with the surviving
    primes.  In uniform mode anchors with nonempty edges are equally likely.
    In sieve mode anchor probabilities are proportional to the pair weight
    w(p, n), which is one constant on [-y, y] and 0 outside it
    (`PairWeightContext.constant_weight`), so each anchor with |n| <= y gets
    w / (sum of w over [-y, y]) and the mass on empty-edge anchors becomes an
    explicit remainder: one weight evaluation per sieving prime.
    Anchors with equal edges merge into one atom, listed by its smallest
    anchor.  Each prime's atoms are appended to one AtomTable: a sorted row
    of member ids (-1 for a missing member) and a mass per atom.
    """
    th = thresholds(cfg)
    offsets = admissible_tuple(default_r(cfg.x)).offsets
    values = sorted(split.primes)
    if not values:
        raise ValueError("no surviving primes to cover")
    Q = np.array(values, dtype=np.int64)
    H = np.array(offsets, dtype=np.int64)
    weight_ctx = PairWeightContext(offsets, cfg.x) if cfg.weights == "sieve" else None
    # a member row is one int64 key, (ids + 1) in base len(values) + 1
    key_dims = (len(values) + 1,) * len(offsets)
    assert math.prod(key_dims) <= np.iinfo(np.int64).max, "member-row keys overflow int64"

    index_primes = []
    member_rows = []  # per sieving prime: its atoms' sorted member ids
    masses = []  # per sieving prime: its atoms' probabilities
    skipped = []
    degree = np.zeros(len(values))
    max_vertex_prob = 0.0
    for p in _sieving_primes(cfg):
        ns = np.unique(Q[:, None] - H * p)  # every anchor with a nonempty edge
        if weight_ctx is None:  # uniform mode: every anchor equally likely
            unit = 1.0 / len(ns)
        else:
            total = weight_ctx.sum_over_support(p, th.y)
            unit = weight_ctx.constant_weight(p, th.y) / total
            ns = ns[np.abs(ns) <= th.y]
        if not len(ns):
            skipped.append(p)
            continue

        members = ns[:, None] + H * p
        ids = np.searchsorted(Q, members)
        hit = Q[np.minimum(ids, len(Q) - 1)] == members
        rows = np.sort(np.where(hit, ids, -1), axis=1)
        # keys sort like the rows, so atoms and their order match a row-wise unique
        key = np.ravel_multi_index((rows + 1).T, key_dims)
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        order = np.argsort(first)  # atoms by representative anchor
        mass = np.bincount(inverse, weights=np.full(len(ns), unit))[order]
        uniq = rows[first[order]]
        flat = uniq.ravel()
        present = flat >= 0
        vec = np.bincount(flat[present], weights=np.repeat(mass, len(offsets))[present],
                          minlength=len(values))  # P(v in e_p), summed in atom order
        degree += vec
        max_vertex_prob = max(max_vertex_prob, float(vec.max()))

        index_primes.append(p)
        member_rows.append(uniq.astype(np.int32))
        masses.append(mass)

    if not index_primes:
        raise ValueError("every sieving prime has an empty edge distribution")

    r_max = len(offsets)
    n_indices = len(index_primes)
    atoms = nib.AtomTable(
        ptr=np.concatenate(([0], np.cumsum([len(m) for m in masses]))),
        members=np.concatenate(member_rows),
        probs=np.concatenate(masses),
        slot={idx: idx for idx in range(n_indices)},
    )
    cover = nib.CoverInstance(
        n_vertices=len(values),
        rounds=[list(range(n_indices))],
        dist=atoms,
        # delta records the measured sparsity witness max P(v in e_p); the
        # full hypothesis extremes come from check_hypotheses on demand
        params=nib.NibbleParams(
            delta=max_vertex_prob, r_max=r_max, A=2 * r_max + 2, D=1.0, kappa=1e-300
        ),
    )
    return PipelineInstance(
        cover=cover,
        values=values,
        index_primes=index_primes,
        C_measured=sum(degree.tolist()) / len(values),
        skipped_primes=skipped,
    )


def _paper_round_lengths(C: float, m: int):
    """Membership interval lengths 5^(1-j) log 5 / C, scaled to fit [0, 1]."""
    lengths = [5 ** (1 - j) * math.log(5) / C for j in range(1, m + 1)]
    total = sum(lengths)
    if total > 1:
        lengths = [l / total for l in lengths]
    return lengths


def stage3_select(cfg: StagedConfig, pinst: PipelineInstance) -> dict:
    """Choose an edge for every sieving prime: {p: edge}, EMPTY for a skip."""
    method = cfg.stage3_method
    chosen = {p: nib.EMPTY for p in pinst.skipped_primes}

    atoms = pinst.cover.atoms
    if method == "independent":
        for idx, p in enumerate(pinst.index_primes):
            chosen[p] = atoms.draw(idx, stream(cfg.seed, "stage3", p).random())
        return chosen

    if method == "greedy":
        order = list(range(len(pinst.index_primes)))
        stream(cfg.seed, "stage3-order").shuffle(order)
        uncovered = np.ones(pinst.cover.n_vertices + 1, dtype=np.int8)
        uncovered[-1] = 0  # what a missing member (-1) reads
        for idx in order:
            a, b = atoms.span(idx)
            # atoms are listed by anchor and argmax takes the first maximum,
            # so ties go to the smallest anchor
            k = a + int(np.argmax(atoms.fold(np.add, uncovered, a, b)))
            uncovered[atoms.members[k]] = 0
            chosen[pinst.index_primes[idx]] = atoms.edge(k)
        return chosen

    # nibble: round membership via the geometric interval recipe; primes
    # outside every membership interval keep EMPTY
    m = default_rounds(cfg.x)
    bounds = list(accumulate(_paper_round_lengths(pinst.C_measured, m)))
    rounds = [[] for _ in range(m)]
    for idx, p in enumerate(pinst.index_primes):
        j = bisect_right(bounds, stream(cfg.seed, "stage3-round", p).random())
        if j < m:
            rounds[j].append(idx)
    inst = nib.CoverInstance(
        n_vertices=pinst.cover.n_vertices,
        rounds=[blk for blk in rounds if blk],
        dist=atoms,
        params=pinst.cover.params,
    )
    result = nib.run_cover(inst, stream(cfg.seed, "stage3-nibble"))
    for idx, p in enumerate(pinst.index_primes):
        chosen[p] = result.chosen.get(idx, nib.EMPTY)
    return chosen


def final_matching(cfg: StagedConfig, residual_survivors) -> ResidueSystem:
    """Assign each leftover survivor its own fresh prime in (x, C_extra x].

    Survivors and primes are paired in increasing order; a fresh prime p'
    covers its survivor through the class n mod p'.  Exceeding the budget
    raises with the C_extra that would have sufficed.
    """
    residual = sorted(residual_survivors)
    if not residual:
        return ResidueSystem({})
    hi = int(cfg.C_extra * cfg.x)
    fresh = sieve_interval(cfg.x + 1, hi)
    if len(residual) > len(fresh):
        # estimate the budget that would work: primes thin out slowly, so
        # scale the span proportionally with slack
        needed_ratio = len(residual) / max(len(fresh), 1)
        raise BudgetError(
            needed=len(residual),
            available=len(fresh),
            required_C_extra=cfg.C_extra * needed_ratio * 1.5,
        )
    return ResidueSystem({p: n % p for n, p in zip(residual, fresh[: len(residual)].tolist())})


# -- orchestration ---------------------------------------------------------------


@dataclass
class PipelineReport:
    x: int
    y: int
    v: float
    z: float
    c: float
    seed: int
    mode: str
    method: str
    sigma: float
    interval_size: int
    survivors_after_stage1: int
    survivors_after_stage12: int
    prime_survivors: int
    smooth_survivors: int
    other_survivors: int
    stage3_indices: int
    stage3_assigned: int
    stage3_skips: int
    residual_after_stage3: int
    extra_primes_used: int
    achieved_y: int
    C_measured: float
    C_target: float  # 1/c, the expected order of the covering constant
    prime_survivor_target: float  # 80 c x log2 x / log x
    prime_survivor_ratio: float
    y_formula: float
    achieved_ratio: float


def run_pipeline(cfg: StagedConfig):
    """Execute all stages; returns (report, combined ResidueSystem).

    The combined system is re-verified from scratch: a full sift of
    (x, achieved_y] must leave zero survivors.
    """
    th = thresholds(cfg)
    l1, l2, _ = _iterated_logs(cfg.x)

    s1 = stage1_zero_classes(cfg)
    s2 = stage2_random_small(cfg)
    sys12 = s1.merged(s2)
    small = sorted(s2.entries)
    sigma = sigma_of(small)

    after1 = sift(s1, cfg.x + 1, th.y).count()
    split = survivors_after_small(cfg, sys12)

    stage3_entries = {}
    skips = 0
    n_indices = 0
    C_measured = 0.0
    if cfg.stage3_method != "none" and split.primes:
        pinst = build_edge_distributions(cfg, split)
        n_indices = len(pinst.index_primes)
        C_measured = pinst.C_measured
        for p, edge in stage3_select(cfg, pinst).items():
            if edge:  # every member is n + h_i p for the edge's anchor n
                stage3_entries[p] = pinst.values[min(edge)] % p
            else:
                skips += 1
    sys3 = ResidueSystem(stage3_entries)

    # only the stage-3 classes are sifted here; stages 1-2 are in split
    after3 = sift(sys3, cfg.x + 1, th.y)
    after3.survivors &= split.interval.survivors
    residual = after3.survivor_list()
    ext = final_matching(cfg, residual)
    combined = sys12.merged(sys3).merged(ext)

    check = sift(combined, cfg.x + 1, th.y)
    if check.count() != 0:
        raise VerificationError(
            f"cover check failed: first uncovered at {check.first_survivor()}"
        )
    achieved_y = th.y

    target_prime_survivors = 80 * cfg.c * cfg.x * l2 / l1
    report = PipelineReport(
        x=cfg.x,
        y=th.y,
        v=th.v,
        z=th.z,
        c=cfg.c,
        seed=cfg.seed,
        mode=cfg.mode,
        method=cfg.stage3_method,
        sigma=sigma,
        interval_size=th.y - cfg.x,
        survivors_after_stage1=after1,
        survivors_after_stage12=split.total(),
        prime_survivors=len(split.primes),
        smooth_survivors=len(split.smooth),
        other_survivors=len(split.other),
        stage3_indices=n_indices,
        stage3_assigned=len(stage3_entries),
        stage3_skips=skips,
        residual_after_stage3=len(residual),
        extra_primes_used=len(ext),
        achieved_y=achieved_y,
        C_measured=C_measured,
        C_target=1.0 / cfg.c,
        prime_survivor_target=target_prime_survivors,
        prime_survivor_ratio=len(split.primes) / target_prime_survivors,
        y_formula=th.y_formula,
        achieved_ratio=achieved_y / th.y_formula,
    )
    return report, combined
