"""Semi-random ("nibble") covering engine with variable-size random edges.

The engine selects one edge per index across m rounds.  Within round j each
index i samples from its edge distribution conditioned to lie inside the
current survivor set W and reweighted by the survival target P_{j-1}(edge),
which cancels the size bias against large edges.  Indices whose
normalization factor X_i(W) drifts too far from 1 are skipped (empty edge)
for that run.

Quantities:
    d_{I_j}(v)  normalized degree: sum over round-j indices of P(v in e_i)
    P_j(v)      survival target: P_0 = 1, P_{j+1} = P_j * exp(-d_{j+1}/P_j)
    X_i(W)      normalization: sum over edges e inside W of P(e_i=e)/P_{j-1}(e),
                counting the empty-edge remainder mass (P_{j-1}(empty) = 1)

The engine computes in floats: it reads any real probability as a float.
The exact reference for its law is tests/law_oracle.py, which enumerates
the process in rational arithmetic on tiny instances.
"""

import json
import math
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .residues import _is_int
from .rng import uniforms


@dataclass(frozen=True)
class NibbleParams:
    delta: float
    r_max: int
    A: float
    D: float
    kappa: float


_UINT64 = (1 << 64) - 1


@dataclass
class EdgeDist:
    """Finite edge distribution: subsets of V with probabilities summing <= 1.

    The missing mass, 1 minus the total, is the empty edge's.  The sampler
    reads it through an EdgeLaw: DistLaw caches float arrays of each
    EdgeDist object it is given, and pairlaw.PairLaw builds its EdgeDists
    from a closed form.
    """

    atoms: list  # [(frozenset of vertex ids, probability)]


class EdgeLaw:
    """The edge distributions of an instance, as the engine reads them.

    The engine asks only for the methods below, so a law may read an
    instance's EdgeDists (DistLaw) or hold the atoms in closed form
    (pairlaw.PairLaw, which is also the instance's mapping of EdgeDists):

    - check(n_vertices, r_max): ValueError unless every law is well formed;
    - degrees(block, n_vertices): the summed P(v in e_i) over a round;
    - round_law(block, inside, P): X_i(W) for each index of a round, as an
      array, and a draw(ks, key, j) that returns one edge for each block
      position in ks, from the law of that index conditioned on W and
      reweighted by 1/P(e).  The edges are the rows of an int64 matrix:
      member ids padded with -1, a row of -1 alone being the empty edge.
      Its uniforms are rng.uniforms(key, j, i, ...) for index id i, so an
      index draws the same edge whichever other positions are drawn with
      it;
    - extremes(block): over a round, the largest edge, the largest
      P(v in e_i) and the largest sum over the round of P(u, v in e_i),
      which the hypothesis check reads.

    Each also answers `i in law` and iterates over its index ids without
    building any EdgeDist.
    Stage 3's independent method draws from round_law's first round
    (W = V, P = 1), which is the raw law; its greedy method is
    pairlaw.PairLaw.greedy, which returns rows in the same form.
    """


class _Atoms:
    """One EdgeDist read into arrays: a row of sorted member ids per atom
    (-1 for a missing member), the atom probabilities as floats and their
    total, summed in atom order.  It keeps the EdgeDist, so that its id
    names it while the law lives, and the index it was first read for,
    which errors name."""

    def __init__(self, dist: EdgeDist, i, n_vertices: int):
        self.dist, self.index = dist, i
        rows = [sorted(e) for e, _ in dist.atoms]
        for row in rows:
            if row and not (0 <= row[0] and row[-1] < n_vertices):
                v = next(v for v in row if not 0 <= v < n_vertices)
                raise ValueError(f"index {i}: vertex {v} out of range")
        width = max(map(len, rows), default=1) or 1
        self.members = np.array([row + [-1] * (width - len(row)) for row in rows],
                                dtype=np.int64).reshape(len(rows), width)
        self.probs = np.array([float(q) for _, q in dist.atoms])
        self.total = sum(self.probs.tolist())

    def fold(self, op, values):
        """op over values[v] for the members v of each atom, left to right in
        member order; a missing member (-1) reads values[-1]."""
        out = values[self.members[:, 0]]
        for c in range(1, self.members.shape[1]):  # one column at a time: r is small
            out = op(out, values[self.members[:, c]])
        return out

    def vertex_mass(self, n_vertices):
        """P(v in e) for each vertex v, summed in atom order."""
        present = self.members >= 0
        q = np.broadcast_to(self.probs[:, None], self.members.shape)
        return np.bincount(self.members[present], weights=q[present], minlength=n_vertices)


class DistLaw(EdgeLaw):
    """{index: EdgeDist} as the engine reads it.

    Each distinct EdgeDist object is read into arrays (_Atoms) once, on
    first use, and indices holding one object share them, so a round reads
    each distinct object once.  The cache keeps every object it has read
    alive, so an id names one object for the law's lifetime.
    """

    def __init__(self, dist, n_vertices: int):
        self.dist = dist
        self.n_vertices = n_vertices
        self._read = {}  # id(EdgeDist) -> _Atoms

    def __contains__(self, i):
        return i in self.dist

    def __iter__(self):
        return iter(self.dist)

    def atoms(self, i) -> _Atoms:
        d = self.dist[i]
        read = self._read.get(id(d))
        if read is None:
            read = self._read[id(d)] = _Atoms(d, i, self.n_vertices)
        return read

    def check(self, n_vertices, r_max) -> None:
        read = dict.fromkeys(map(self.atoms, self.dist))  # each object once, in order
        for what, bad in (
            ("probability not finite and >= 0",
             lambda a: ~(np.isfinite(a.probs) & (a.probs >= 0))),
            ("edge larger than r_max", lambda a: (a.members >= 0).sum(axis=1) > r_max),
            ("probabilities sum above 1", lambda a: a.total > 1 + 1e-12),
        ):
            for a in read:
                if np.any(bad(a)):
                    raise ValueError(f"index {a.index}: {what}")

    def degrees(self, block, n_vertices):
        """Each distinct object's vertex probabilities, summed in atom order,
        times the number of the block's indices that hold it, in order of
        first use."""
        row = np.zeros(n_vertices)
        for a, cnt in Counter(map(self.atoms, block)).items():
            row += cnt * a.vertex_mass(n_vertices)
        return row

    def extremes(self, block):
        """Each distinct object once, in order of first use.  A pair {u, v} of
        an atom weighs q times the number of the block's indices holding the
        object; a pair's weights are summed in object and then atom order."""
        size, vertex, keys, weights = 0, 0.0, [np.zeros(0, np.int64)], [np.zeros(0)]
        for a, cnt in Counter(map(self.atoms, block)).items():
            size = max(size, int((a.members >= 0).sum(axis=1).max(initial=0)))
            vertex = max(vertex, float(a.vertex_mass(0).max(initial=0.0)))
            c1, c2 = np.triu_indices(a.members.shape[1], 1)
            both = a.members[:, c2] >= 0  # a row is sorted ids, then -1s
            keys.append((a.members[:, c1] * self.n_vertices + a.members[:, c2])[both])
            weights.append(np.broadcast_to(cnt * a.probs[:, None], both.shape)[both])
        _, pair = np.unique(np.concatenate(keys), return_inverse=True)
        sums = np.bincount(pair, weights=np.concatenate(weights))
        return size, vertex, float(sums.max(initial=0.0))

    def round_law(self, block, inside, P):
        """Each distinct object is read once, for its in-W atoms, their
        weights P(e_i = e) / P(e) under the targets P, and X.  An atom of
        positive mass whose target is 0 weighs +inf, so its index has X = inf.
        A draw reads index i's cumulative weights at uniforms(key, j, i) X."""
        inside = np.append(inside, True)  # what a missing member (-1) reads
        P = np.append(P, 1.0)
        cache = {}  # _Atoms -> its position in laws
        laws = []  # per distinct object: (itself, in-W atoms, cumulative weights, X)
        law_of = []  # per block position: its object's position in laws
        for a in map(self.atoms, block):
            if a not in cache:
                sel = np.flatnonzero(a.fold(np.logical_and, inside))
                q = a.probs[sel]
                with np.errstate(divide="ignore", over="ignore"):
                    w = np.divide(q, a.fold(np.multiply, P)[sel],
                                  out=np.zeros_like(q), where=q > 0)
                cache[a] = len(laws)
                laws.append((a, sel, np.cumsum(w), math.fsum(w.tolist()) + max(0.0, 1 - a.total)))
            law_of.append(cache[a])
        law_of = np.array(law_of, dtype=np.int64)

        ids = np.array([int(i) & _UINT64 for i in block], dtype=np.uint64)  # ids mod 2^64
        width = max((a.members.shape[1] for a, *_ in laws), default=1)

        def draw(ks, key, j):
            """One searchsorted per distinct object, over all its positions;
            rows as wide as the round's widest atom."""
            ks = np.asarray(ks, dtype=np.int64)
            u = uniforms(key, j, ids[ks])
            rows = np.full((len(ks), width), -1, dtype=np.int64)
            d = law_of[ks]
            by_law = np.argsort(d, kind="stable")
            for at in np.split(by_law, np.flatnonzero(np.diff(d[by_law])) + 1):
                if len(at):
                    a, sel, cum, X = laws[d[at[0]]]
                    pos = np.searchsorted(cum, u[at] * X, side="right")
                    hit = pos < len(sel)
                    rows[at[hit], : a.members.shape[1]] = a.members[sel[pos[hit]]]
            return rows

        return np.array([X for *_, X in laws])[law_of], draw


@dataclass
class CoverInstance:
    """Vertices 0..n_vertices-1, disjoint rounds of indices, one EdgeDist per index.

    dist is either {index: EdgeDist}, read through a DistLaw (objects may be
    shared), or an EdgeLaw that is also such a mapping, which is then `law`
    itself.
    """

    n_vertices: int
    rounds: list  # [[index ids in round 1], [round 2], ...]
    dist: Mapping  # index id -> EdgeDist
    params: NibbleParams
    law: EdgeLaw = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        law = self.dist
        self.law = law if isinstance(law, EdgeLaw) else DistLaw(law, self.n_vertices)

    @property
    def m(self) -> int:
        return len(self.rounds)

    def all_indices(self):
        for block in self.rounds:
            yield from block

    def validate(self) -> None:
        """At least 0 vertices; rounds disjoint and nonempty; every index's
        law well formed."""
        if self.n_vertices < 0:
            raise ValueError(f"vertices must be at least 0, got {self.n_vertices}")
        if not all(self.rounds):
            raise ValueError("rounds must be nonempty")
        ids = list(chain.from_iterable(self.rounds))
        seen = set(ids)
        if len(seen) < len(ids):
            seen = set()
            i = next(i for i in ids if i in seen or seen.add(i))
            raise ValueError(f"index {i} appears in two rounds")
        missing = seen.difference(self.law)
        if missing:
            i = next(i for i in ids if i in missing)
            raise ValueError(f"index {i} has no edge distribution")
        self.law.check(self.n_vertices, self.params.r_max)


class DegreeProfile:
    """Normalized degrees d[j] and survival targets P[j] as float arrays.

    d[j][v] for j = 1..m (d[0] is zeros); P[j][v] for j = 0..m with
    P[0] = 1 and P[j+1] = P[j] * exp(-d[j+1] / P[j]).  A target that has
    underflowed to 0 stays 0.
    """

    def __init__(self, d_rows):
        n = len(d_rows[0]) if d_rows else 0
        self.m = len(d_rows)
        self.d = [np.zeros(n)] + [np.asarray(row, dtype=float) for row in d_rows]
        self.P = [np.ones(n)]
        for j in range(1, self.m + 1):
            prev = self.P[j - 1]
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                step = prev * np.exp(-self.d[j] / prev)
            self.P.append(np.where(prev > 0, step, 0.0))


def degree_profile(inst: CoverInstance) -> DegreeProfile:
    """Exact degree sums, as the instance's law gives them, and the P recursion."""
    return DegreeProfile([inst.law.degrees(block, inst.n_vertices) for block in inst.rounds])


@dataclass
class RoundStats:
    round: int
    index: int
    X: float
    passed: bool
    w_size: int


@dataclass
class CoverResult:
    """A cover run, round by round: W as a bool mask over the vertices, and
    per round its number j, index ids, X array, drift results, |W| before
    the round and the edges drawn, one member row per index (-1 pads a row;
    a row of -1 alone is no edge).  The properties read the run in round
    order."""

    inside: np.ndarray
    rounds: list = field(default_factory=list)  # (j, block, Xs, passed, |W|, rows)

    @property
    def index(self) -> list:
        return [i for _, block, *_ in self.rounds for i in block]

    @property
    def rows(self) -> np.ndarray:
        """One row per index of self.index, padded to the widest round's."""
        parts = [rows for *_, rows in self.rounds]
        width = max((r.shape[1] for r in parts), default=1)
        return np.concatenate([np.full((0, width), -1, dtype=np.int64)] + [
            np.pad(r, ((0, 0), (0, width - r.shape[1])), constant_values=-1) for r in parts])

    @property
    def leftover(self) -> np.ndarray:
        return np.flatnonzero(self.inside)

    @property
    def stats(self) -> list:
        """One RoundStats per index of each round so far, built when read."""
        return [RoundStats(j, i, X, ok, w_size) for j, block, Xs, passed, w_size, _ in self.rounds
                for i, X, ok in zip(block, Xs.tolist(), passed.tolist())]


def default_tol(params: NibbleParams, m: int) -> float:
    """max(delta^(1/(3*10^m)), 0.1), clamped below 1.

    The asymptotic-strength band is hopeless at desk scale; the clamp keeps
    the drift test meaningful (tol < 1 guarantees X = 0 can never pass it).
    """
    if params.delta <= 0:
        return 0.1
    return min(max(params.delta ** (1.0 / (3 * 10**m)), 0.1), 0.999)


def nibble_round(inst: CoverInstance, profile, state: CoverResult, j: int, key: int, tol):
    """Execute round j: sample one edge (or skip) per index, then shrink W.

    All indices of the round sample against the same W, in one draw from
    the instance's law keyed by key; the drawn members leave the mask W
    only after the whole round has been drawn.  tol is in [0, 1), which
    run_cover checks.
    """
    inside = state.inside
    w_size = int(np.count_nonzero(inside))
    block = inst.rounds[j - 1]
    Xs, draw = inst.law.round_law(block, inside, profile.P[j - 1])
    passed = np.abs(Xs - 1) <= tol
    assert (Xs[passed] > 0).all(), "X = 0 cannot pass the drift test with tol < 1"
    ks = np.flatnonzero(passed)
    drawn = draw(ks, key, j)
    rows = np.full((len(block), drawn.shape[1]), -1, dtype=np.int64)
    rows[ks] = drawn
    state.rounds.append((j, block, Xs, passed, w_size, rows))
    inside[drawn[drawn >= 0]] = False
    return state


def run_cover(inst: CoverInstance, key: int, tol=None) -> CoverResult:
    """Run all m rounds, drawing with rng.uniforms keyed by key; m = 0 leaves
    every vertex uncovered (vacuous case)."""
    inst.validate()
    if tol is None:
        tol = default_tol(inst.params, inst.m)
    if not 0 <= tol < 1:
        raise ValueError(f"tol must be in [0, 1) so that X = 0 always fails the drift test "
                         f"and X = 1 passes it, got {tol}")
    profile = degree_profile(inst)
    state = CoverResult(np.ones(inst.n_vertices, dtype=bool))
    for j in range(1, inst.m + 1):
        nibble_round(inst, profile, state, j, key, tol)
    return state


# -- hypothesis checking ------------------------------------------------------


@dataclass
class HypothesisReport:
    """Measured extremal values for each covering-theorem hypothesis.

    Reporting only: desk-scale instances always fail the delta-smallness
    bound (its exponent is 10^(m+2)), and the report says so without
    aborting anything.
    """

    max_edge_size: int
    edge_size_ok: bool
    max_sparsity: float  # max over j, i, v of P(v in e_i) * sqrt(#I_j)
    sparsity_ok: bool
    max_codegree: float  # max over j, pairs of sum_i P(v1, v2 in e_i)
    codegree_ok: bool
    max_degree_ratio: float  # max over j, v of d_j(v) / P_{j-1}(v)
    degree_ok: bool
    min_survival: float  # min over j, v of P_j(v)
    survival_ok: bool
    delta_log_bound: float  # log of the smallness threshold
    delta_small_ok: bool

    def all_structural_ok(self) -> bool:
        """Everything except the asymptotic delta-smallness condition."""
        return (
            self.edge_size_ok
            and self.sparsity_ok
            and self.codegree_ok
            and self.degree_ok
            and self.survival_ok
        )


def check_hypotheses(inst: CoverInstance) -> HypothesisReport:
    inst.validate()
    p = inst.params
    profile = degree_profile(inst)

    max_size, max_sparsity, max_codeg, max_ratio = 0, 0.0, 0.0, 0.0
    for j, block in enumerate(inst.rounds, start=1):
        size, vertex, pair = inst.law.extremes(block)
        max_size = max(max_size, size)
        max_sparsity = max(max_sparsity, vertex * math.sqrt(len(block)))
        max_codeg = max(max_codeg, pair)
        prev, d = profile.P[j - 1], profile.d[j]
        with np.errstate(divide="ignore", invalid="ignore"):  # d / 0 is inf, 0 / 0 reads 0
            ratio = np.where(d > 0, d / prev, 0.0)
        max_ratio = max(max_ratio, float(ratio.max(initial=0.0)))
    min_P = min(float(P.min(initial=1.0)) for P in profile.P)

    # delta <= (kappa^A / exp(A D))^(10^(m+2)), compared in logs
    log_thresh = 10 ** (inst.m + 2) * (p.A * math.log(p.kappa) - p.A * p.D)
    delta_ok = p.delta > 0 and math.log(p.delta) <= log_thresh

    return HypothesisReport(
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
        delta_small_ok=delta_ok,
    )


# -- uniform-hypergraph wrapper ----------------------------------------------


def uniform_round_counts(n1: int, k: int, m: int) -> list:
    """Round sizes n_j = ceil(n1 * e^{(1-j)/k}) for j = 1..m."""
    return [math.ceil(n1 * math.exp((1 - j) / k)) for j in range(1, m + 1)]


def build_uniform_instance(n_vertices: int, edges, counts) -> CoverInstance:
    """Instance where every index draws uniformly from one edge list.

    delta, D and kappa are the tightest values the instance satisfies, as
    check_hypotheses measures them.
    """
    edges = [frozenset(e) for e in edges]
    if not edges:
        raise ValueError("edge list must be nonempty")
    shared = EdgeDist(atoms=[(e, 1.0 / len(edges)) for e in edges])
    rounds = []
    nxt = 0
    for nj in counts:
        rounds.append(list(range(nxt, nxt + nj)))
        nxt += nj
    r_max = max(len(e) for e in edges)
    A = 2 * r_max * len(counts) + 1
    inst = CoverInstance(
        n_vertices=n_vertices,
        rounds=rounds,
        dist={i: shared for i in range(nxt)},
        # delta, D and kappa are placeholders until measured below
        params=NibbleParams(delta=1.0, r_max=r_max, A=A, D=1.0, kappa=1.0),
    )
    hyp = check_hypotheses(inst)
    inst.params = NibbleParams(
        delta=max(hyp.max_sparsity, hyp.max_codegree),
        r_max=r_max,
        A=A,
        D=hyp.max_degree_ratio,
        kappa=max(hyp.min_survival, 1e-300),
    )
    return inst


# -- hypergraph instance file format -------------------------------------------
#
# {"vertices": N, "rounds": [[indices...], ...],
#  "dist": {"index": [[sorted edge, prob], ...], ...},
#  "params": {"delta": ..., "r_max": ..., "A": ..., "D": ..., "kappa": ...}}


def instance_to_json(inst: CoverInstance) -> str:
    dist_doc = {}
    for i in inst.all_indices():
        dist_doc[str(i)] = [[sorted(e), float(q)] for e, q in inst.dist[i].atoms]
    doc = {
        "vertices": inst.n_vertices,
        "rounds": [list(b) for b in inst.rounds],
        "dist": dist_doc,
        "params": {
            "delta": inst.params.delta,
            "r_max": inst.params.r_max,
            "A": inst.params.A,
            "D": inst.params.D,
            "kappa": inst.params.kappa,
        },
    }
    return json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n"


def _ints(values, what) -> list:
    values = list(values)
    if not all(map(_is_int, values)):
        raise ValueError(f"cover instance: {what} must be integers")
    return values


def _number(v, what) -> float:
    """A finite JSON number as a float; true, false and strings are not numbers."""
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise ValueError(f"cover instance: {what} must be a finite number")
    return float(v)


def _object(pairs) -> dict:
    doc = dict(pairs)
    if len(doc) < len(pairs):
        raise ValueError("cover instance: a key appears twice in one object")
    return doc


def instance_from_json(text: str) -> CoverInstance:
    """Parse an instance file; a missing key, a wrong shape, an id that is
    not an integer, a probability or param that is not a finite JSON number
    or a key that is repeated or not in canonical form is a ValueError."""
    doc = json.loads(text, object_pairs_hook=_object)
    try:
        raw = doc["params"]
        params = NibbleParams(r_max=_ints([raw["r_max"]], "r_max")[0], **{
            key: _number(raw[key], f"params.{key}") for key in ("delta", "A", "D", "kappa")})
        dist = {}
        for key, atoms in doc["dist"].items():
            i = int(key)
            if key != str(i):  # "01" or " 1" would name index 1 a second time
                raise ValueError(f"cover instance: index key {key!r} is not written as {i}")
            dist[i] = EdgeDist(
                atoms=[(frozenset(_ints(e, "vertex ids")), _number(q, "a probability"))
                       for e, q in atoms]
            )
        inst = CoverInstance(
            n_vertices=_ints([doc["vertices"]], "vertices")[0],
            rounds=[_ints(block, "round entries") for block in doc["rounds"]],
            dist=dist,
            params=params,
        )
        inst.validate()
    except KeyError as exc:
        raise ValueError(f"cover instance: missing key {exc}") from None
    except (TypeError, AttributeError, IndexError, OverflowError) as exc:
        raise ValueError(f"cover instance: wrong shape ({exc})") from None
    return inst


def stats_to_csv(stats) -> str:
    lines = ["round,index,X,F_passed,W_size"]
    for s in stats:
        lines.append(f"{s.round},{s.index},{s.X!r},{int(s.passed)},{s.w_size}")
    return "\n".join(lines) + "\n"
