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
import os
from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np

from . import nibble as nib
from .oracle import smooth_numbers
from .pairlaw import PairLaw
from .primes import SEGMENT_SIZE, admissible_tuple, first_primes, primes_up_to, sieve_interval
from .residues import InfeasibleError, ResidueSystem, fresh_interval, sift
from .rng import stream, stream_seed, uniforms
from .weights import PairWeightContext

DESK_V_EXP = 0.10  # desk preset: very small primes p <= x^0.10
DESK_Z_EXP = 0.35  # desk preset: small primes up to x^0.35


class VerificationError(RuntimeError):
    """The combined system failed its independent full-cover check."""


@dataclass(frozen=True)
class StagedConfig:
    x: int
    c: float = 1.0
    mode: str = "desk-preset"  # "desk-preset" | "paper-formula"
    seed: int = 0
    stage3_method: str = "nibble"  # "independent" | "greedy" | "nibble" | "none"
    weights: str = "uniform"  # "uniform" | "sieve"

    def __post_init__(self):
        self.validate()

    def validate(self):
        if self.x < 100:
            raise ValueError("x must be >= 100")
        if not 0 < self.c < math.inf:
            raise ValueError(f"--c must be positive and finite, got {self.c}")
        if self.mode not in ("desk-preset", "paper-formula"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.stage3_method not in ("independent", "greedy", "nibble", "none"):
            raise ValueError(f"unknown stage3 method {self.stage3_method!r}")
        if self.weights not in ("uniform", "sieve"):
            raise ValueError(f"unknown weights mode {self.weights!r}")
        t = thresholds(self)
        if not math.isfinite(t.y_formula):
            raise ValueError(f"--c {self.c} gives y = {t.y_formula} at x = {self.x}, not finite")
        y = t.y
        if y <= self.x:
            raise ValueError(f"--c {self.c} gives y = {y} <= x = {self.x}, an empty interval")
        if y >= (self.x // 2 + 1) ** 2:
            raise InfeasibleError(f"--c {self.c} gives y = {y} >= (x//2 + 1)^2 = "
                                  f"{(self.x // 2 + 1) ** 2}, where stage 1 can leave a "
                                  "product of two primes above x/2")


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
    primes = sieve_interval(2, cfg.x // 2)
    primes = primes[(primes <= th.v) | (primes > th.z)]
    return ResidueSystem(moduli=primes, classes=np.zeros_like(primes))


def stage2_random_small(cfg: StagedConfig) -> ResidueSystem:
    """One uniform class per small prime; stream-per-prime keeps the draw
    independent of iteration order."""
    th = thresholds(cfg)
    return ResidueSystem({s: stream(cfg.seed, "stage2", s).randrange(s)
                          for s in th.small_primes()})


@dataclass
class SurvivorSplit:
    after_stage1: int  # survivors of (x, y] after stage 1 alone
    interval: object  # SiftedInterval over (x, y] after stages 1-2; run_pipeline sets None
    survivors: np.ndarray  # int64, increasing: the positions of interval
    primes: np.ndarray  # int64, increasing
    smooth: np.ndarray
    other: np.ndarray


def survivors_after_small(cfg: StagedConfig, s1: ResidueSystem,
                          s2: ResidueSystem) -> SurvivorSplit:
    """Generate stage 1's survivors of (x, y], keep those stage 2 leaves,
    and classify them.

    Stage 1 gives class 0 to its moduli, so its survivors are the integers
    with no prime factor among them.  With B the largest modulus and the
    free primes those up to B that stage 1 leaves without a class, a
    survivor is free-smooth (`smooth_numbers`), a prime, or m P with m > 1
    free-smooth and P a prime above B, as y < P^2 for every such P.  Stage 2
    is sifted on a fresh interval laid out as a sift of stage 1 would be.
    The free-smooth numbers and the products m P (P from `sieve_interval`,
    one sieve segment at a time) keep their bits where set; `keep_primes`
    then clears every composite, and those kept bits are set again.  Every
    candidate counts towards after_stage1.  The kinds are the split: primes
    of (x, y], free-smooth numbers (z-smooth, as every free prime is at
    most z) and the products m P.
    """
    th = thresholds(cfg)
    lo, hi = cfg.x + 1, th.y
    if not len(s1) or s1.classes.any():
        raise ValueError("stage 1 must give class 0 to one prime or more")
    B = int(s1.moduli[-1])
    below = sieve_interval(2, max(B, math.isqrt(hi)))
    if below[-1] > B:
        P = below[np.searchsorted(below, B, "right")]
        raise ValueError(f"y = {hi} reaches {P}^2, the square of a prime above B = {B}")
    staged = np.zeros(B + 1, dtype=bool)
    staged[s1.moduli] = True
    free = below[~staged[below]]
    del below, staged
    if len(free) and free[-1] > th.z:
        raise ValueError(f"{free[-1]} has no stage-1 class but exceeds z = {th.z}")

    interval = sift(s2, lo, hi, fresh_interval(s1, lo, hi))
    smooth = smooth_numbers(free, lo, hi)
    after_stage1 = len(smooth)
    smooth = smooth[interval.holds(smooth)]
    cofactors = smooth_numbers(free, 2, hi // (B + 1)).tolist()
    other = []
    top = hi // cofactors[0] if cofactors else B  # the largest P of a product
    for wlo in range(B + 1, top + 1, 2 * SEGMENT_SIZE):
        P = sieve_interval(wlo, min(wlo + 2 * SEGMENT_SIZE - 1, top))
        for m in cofactors:
            q = m * P[np.searchsorted(P, -(-lo // m)): np.searchsorted(P, hi // m, "right")]
            after_stage1 += len(q)
            other.append(q[interval.holds(q)])
    other = np.sort(np.concatenate((np.empty(0, dtype=np.int64), *other)))
    after_stage1 += interval.keep_primes()
    primes = interval.positions()
    interval.restore(smooth)
    interval.restore(other)
    survivors = np.concatenate((primes, smooth, other))
    survivors.sort(kind="stable")  # timsort merges the three increasing runs
    return SurvivorSplit(
        after_stage1=after_stage1,
        interval=interval,
        survivors=survivors,
        primes=primes,
        smooth=smooth,
        other=other,
    )


@dataclass
class PipelineInstance:
    """Stage 3's instance, built once and handed whole from build to select.

    cover has one round of every index over a PairLaw, cover.law, whose Q
    maps vertex ids to surviving primes and ps index ids to sieving primes;
    any member q of an edge of p fixes the class q mod p it stands for.
    C_measured is the mean vertex degree; skipped_primes are the sieving
    primes with no nonempty edge.
    """

    cover: nib.CoverInstance
    C_measured: float
    skipped_primes: np.ndarray

    @classmethod
    def of(cls, law: PairLaw, primes):
        """law's instance, primes being every sieving prime."""
        if not len(law):
            raise ValueError("every sieving prime has an empty edge distribution")
        indices, n = range(len(law)), len(law.Q)
        # delta records the law's largest P(v in e_p); check_hypotheses reads
        # the other extremes from the same law on demand
        params = nib.NibbleParams(delta=law.extremes(indices)[1], r_max=2, A=6, D=1.0,
                                  kappa=1e-300)
        return cls(cover=nib.CoverInstance(n, [list(indices)], law, params),
                   C_measured=sum(law.degrees(indices, n).tolist()) / n,
                   skipped_primes=np.setdiff1d(primes, law.ps, assume_unique=True))


def _sieving_primes(cfg: StagedConfig):
    return sieve_interval(cfg.x // 2 + 1, cfg.x)


def build_edge_distributions(cfg: StagedConfig, split: SurvivorSplit) -> PipelineInstance:
    """For each sieving prime, the distribution of its survivor edge.

    An anchor n yields the edge {n + h_i p} intersected with the surviving
    primes.  In uniform mode anchors with nonempty edges are equally likely.
    In sieve mode anchor probabilities are proportional to the pair weight
    w(p, n), which is one constant on [-y, y] and 0 outside it, so each
    anchor with |n| <= y gets w / (sum of w over [-y, y]) and the mass on
    empty-edge anchors becomes an explicit remainder; one array pass
    (`PairWeightContext.units`) gives that mass for every sieving prime,
    with no weight evaluated per prime or per anchor.  The law is
    kept in closed form (`PairLaw`), from one pair count per prime; anchors
    with equal edges merge into one atom only when an index is read as an
    EdgeDist.
    """
    th = thresholds(cfg)
    offsets = admissible_tuple(default_r(cfg.x))
    values = split.primes
    if not len(values):
        raise ValueError("no surviving primes to cover")
    primes = _sieving_primes(cfg)
    if cfg.weights == "sieve":
        units = PairWeightContext(offsets, cfg.x).units(primes, th.y)
        law = PairLaw(values, offsets, primes, units=units, window=th.y)
    else:
        law = PairLaw(values, offsets, primes)
    return PipelineInstance.of(law, primes)


def _paper_round_lengths(C: float, m: int):
    """Membership interval lengths 5^(1-j) log 5 / C, scaled to fit [0, 1]."""
    lengths = [5 ** (1 - j) * math.log(5) / C for j in range(1, m + 1)]
    total = sum(lengths)
    if total > 1:
        lengths = [l / total for l in lengths]
    return lengths


def stage3_select(cfg: StagedConfig, pinst: PipelineInstance) -> np.ndarray:
    """Choose an edge for every index, in the order of pinst.cover.law.ps:
    one row of member ids per index, padded with -1, a row of -1 alone
    being a skip."""
    method = cfg.stage3_method
    law = pinst.cover.law
    indices = np.arange(len(law))
    if method == "independent":  # the engine's first round (W = V, P = 1) is the raw law
        n = pinst.cover.n_vertices
        _, draw = law.round_law(indices, np.ones(n, bool), np.ones(n))
        return draw(indices, stream_seed(cfg.seed, "stage3"), 1)

    if method == "greedy":
        order = indices.tolist()
        stream(cfg.seed, "stage3-order").shuffle(order)
        return law.greedy(order)[np.argsort(order)]

    # nibble: round membership via the geometric interval recipe; indices
    # outside every membership interval keep no edge
    m = default_rounds(cfg.x)
    bounds = list(accumulate(_paper_round_lengths(pinst.C_measured, m)))
    u = uniforms(stream_seed(cfg.seed, "stage3-round"), law.ps)
    member = np.searchsorted(bounds, u, "right")
    rounds = [indices[member == j].tolist() for j in range(m)]
    inst = replace(pinst.cover, rounds=[blk for blk in rounds if blk])
    result = nib.run_cover(inst, stream_seed(cfg.seed, "stage3-nibble"))
    drawn = result.rows
    rows = np.full((len(indices), drawn.shape[1]), -1, dtype=np.int64)
    rows[result.index] = drawn
    return rows


def final_matching(cfg: StagedConfig, residual_survivors) -> ResidueSystem:
    """Assign each leftover survivor its own fresh prime above x.

    Survivors and primes are paired in increasing order; a fresh prime p'
    covers its survivor through the class n mod p'.
    """
    residual = np.asarray(residual_survivors, dtype=np.int64)
    if not len(residual):
        return ResidueSystem({})
    if not (residual[1:] >= residual[:-1]).all():  # every pipeline residual is increasing
        residual = np.sort(residual)
    fresh = first_primes(cfg.x + 1, len(residual))
    return ResidueSystem(moduli=fresh, classes=residual % fresh)


# -- orchestration ---------------------------------------------------------------


def memory_floor(x: int, y: int) -> int:
    """A lower bound on the bytes a run over (x, y] holds at once: 16 per
    prime up to x/2 (stage 1's moduli and classes, int64), counted by
    pi(n) > n / ln n for n >= 17 (Rosser-Schoenfeld; x >= 100 gives
    n >= 50), and the floor((y - x) / 2) bytes of the stage 1-2 leaves."""
    n = x // 2
    return int(16 * n / math.log(n)) + (y - x) // 2


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
    stage3_edge_sizes: list  # chosen edges of size 1, 2, ..., r
    residual_after_stage3: int
    extra_primes_used: int
    max_modulus: int  # the combined system's largest modulus: the cover's prime bound
    achieved_y: int
    C_measured: float
    C_target: float  # 1/c, the expected order of the covering constant
    prime_survivor_target: float  # 80 c x log2 x / log x
    prime_survivor_ratio: float
    y_formula: float
    achieved_ratio: float


def run_pipeline(cfg: StagedConfig):
    """Execute all stages; returns (report, combined ResidueSystem).

    A run whose `memory_floor` exceeds physical memory is refused with
    MemoryError before stage 1.  The combined system is re-verified from scratch: a full sift of
    (x, achieved_y] must leave zero survivors.
    """
    th = thresholds(cfg)
    if cfg.x // 2 < 2**63:  # beyond, stage 1's sieve refuses the window itself
        need = memory_floor(cfg.x, th.y)
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        if need > have:
            raise MemoryError(f"x = {cfg.x} holds at least {need / 2**30:,.1f} GiB at once, "
                              f"more than the {have / 2**30:.1f} GiB of memory")
    l1, l2, _ = _iterated_logs(cfg.x)

    s1 = stage1_zero_classes(cfg)
    s2 = stage2_random_small(cfg)
    sys12 = s1.merged(s2)
    small = s2.moduli.tolist()
    sigma = sigma_of(small)

    split = survivors_after_small(cfg, s1, s2)

    sys3 = ResidueSystem({})
    sizes = np.zeros(default_r(cfg.x) + 1, dtype=np.int64)  # edges chosen of size 0, 1, ..., r
    n_indices, skipped, C_measured = 0, 0, 0.0
    if cfg.stage3_method != "none" and len(split.primes):
        pinst = build_edge_distributions(cfg, split)
        law = pinst.cover.law
        n_indices, skipped = len(law), len(pinst.skipped_primes)
        C_measured = pinst.C_measured
        rows = stage3_select(cfg, pinst)
        sizes = np.bincount((rows >= 0).sum(axis=1), minlength=len(sizes))
        # every member is n + h_i p for the edge's anchor n, so any one gives the class
        member = rows.max(axis=1)
        p = law.ps[member >= 0]
        q = law.Q[member[member >= 0]]
        sys3 = ResidueSystem(moduli=p, classes=q % p)

    # stage 3 clears its classes on the stage 1-2 leaves in place; the
    # residual is the survivors whose bit is still set
    residual = split.survivors
    if len(sys3):
        leaves = sift(sys3, cfg.x + 1, th.y, split.interval)
        residual = residual[leaves.holds(residual)]
    split.interval = leaves = None  # released before the check sift allocates its own bits
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
        survivors_after_stage1=split.after_stage1,
        survivors_after_stage12=len(split.survivors),
        prime_survivors=len(split.primes),
        smooth_survivors=len(split.smooth),
        other_survivors=len(split.other),
        stage3_indices=n_indices,
        stage3_assigned=len(sys3),
        stage3_skips=skipped + int(sizes[0]),
        stage3_edge_sizes=sizes[1:].tolist(),
        residual_after_stage3=len(residual),
        extra_primes_used=len(ext),
        max_modulus=int(combined.moduli[-1]),
        achieved_y=achieved_y,
        C_measured=C_measured,
        C_target=1.0 / cfg.c,
        prime_survivor_target=target_prime_survivors,
        prime_survivor_ratio=len(split.primes) / target_prime_survivors,
        y_formula=th.y_formula,
        achieved_ratio=achieved_y / th.y_formula,
    )
    return report, combined
