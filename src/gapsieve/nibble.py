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

Probabilities may be floats or Fractions; with Fractions (and a profile
whose survival targets stay rational) the full outcome distribution of the
process can be enumerated exactly.
"""

import math
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np


@dataclass(frozen=True)
class NibbleParams:
    delta: float
    r_max: int
    A: float
    D: float
    kappa: float


EMPTY = frozenset()


@dataclass
class EdgeDist:
    """Finite edge distribution: subsets of V with probabilities summing <= 1.

    The missing mass is an explicit remainder on the empty edge.  This is
    the exact form: with Fraction probabilities it feeds the enumerator and
    the hypothesis checks of tiny instances.  The sampler runs on the float
    arrays of an AtomTable.
    """

    atoms: list  # [(frozenset of vertex ids, probability)]

    def total(self):
        return sum(q for _, q in self.atoms)

    def remainder(self):
        rem = 1 - self.total()
        if isinstance(rem, Fraction):
            return rem if rem > 0 else Fraction(0)
        return max(0.0, float(rem))

    def vertex_probs(self) -> dict:
        probs = {}
        for e, q in self.atoms:
            for v in e:
                probs[v] = probs.get(v, 0) + q
        return probs

    def max_edge_size(self) -> int:
        return max((len(e) for e, _ in self.atoms), default=0)


def _edge(row) -> frozenset:
    return frozenset(v for v in row if v >= 0)


class AtomTable(Mapping):
    """Every index's atoms in one CSR: the arrays the sampler runs on.

    Index i owns the atoms ptr[s]:ptr[s + 1] of its slot s = slot[i], and
    indices may share a slot.  members has one row of vertex ids per atom,
    sorted, -1 for a missing member; probs holds the atom probabilities and
    total each slot's sum, taken in atom order as EdgeDist.total does.  As a
    mapping the table gives each index an EdgeDist built from the arrays.
    """

    def __init__(self, ptr, members, probs, slot):
        self.ptr = ptr  # int64, one more than the slots
        self.members = members  # int32, (atoms, r)
        self.probs = probs  # float64, one per atom
        self.slot = slot  # index id -> slot
        bounds = ptr.tolist()
        self.total = np.array([sum(probs[a:b].tolist()) for a, b in zip(bounds, bounds[1:])])

    @classmethod
    def pack(cls, dist, n_vertices: int) -> "AtomTable":
        """Pack {index: EdgeDist}; indices holding one object share a slot."""
        slot, slot_of_object = {}, {}
        rows, probs, ptr = [], [], [0]
        for i, d in dist.items():
            if id(d) not in slot_of_object:
                slot_of_object[id(d)] = len(ptr) - 1
                for e, q in d.atoms:
                    row = sorted(set(e))  # an edge is a set: repeated members count once
                    for v in row:
                        if not 0 <= v < n_vertices:
                            raise ValueError(f"index {i}: vertex {v} out of range")
                    rows.append(row)
                    probs.append(float(q))
                ptr.append(len(rows))
            slot[i] = slot_of_object[id(d)]
        members = np.full((len(rows), max(map(len, rows), default=1) or 1), -1, dtype=np.int32)
        for k, row in enumerate(rows):
            members[k, : len(row)] = row
        return cls(np.array(ptr, dtype=np.int64), members, np.array(probs, dtype=float), slot)

    def __getitem__(self, i) -> EdgeDist:
        a, b = self.span(i)
        return EdgeDist(atoms=[(_edge(row), q) for row, q in
                               zip(self.members[a:b].tolist(), self.probs[a:b].tolist())])

    def __iter__(self):
        return iter(self.slot)

    def __len__(self):
        return len(self.slot)

    def span(self, i):
        """The atom range [a, b) of index i."""
        s = self.slot[i]
        return int(self.ptr[s]), int(self.ptr[s + 1])

    def edge(self, k) -> frozenset:
        return _edge(self.members[k].tolist())

    def draw(self, i, u) -> frozenset:
        """The edge at u in [0, 1) of index i's raw distribution (EMPTY past its total)."""
        a, b = self.span(i)
        pos = int(np.searchsorted(np.cumsum(self.probs[a:b]), u, side="right"))
        return self.edge(a + pos) if a + pos < b else EMPTY

    def fold(self, op, values, a, b):
        """op over values[v] for the members v of each atom in [a, b), left to
        right in member order; a missing member (-1) reads values[-1]."""
        members = self.members[a:b]
        out = values[members[:, 0]]
        for c in range(1, members.shape[1]):  # one column at a time: r is small
            out = op(out, values[members[:, c]])
        return out

    def index_of_slot(self, s):
        return next(i for i, t in self.slot.items() if t == s)


@dataclass
class CoverInstance:
    """Vertices 0..n_vertices-1, disjoint rounds of indices, one EdgeDist per index.

    dist is either {index: EdgeDist}, packed into `atoms` here (objects may
    be shared), or an AtomTable, which is then `atoms` itself.
    """

    n_vertices: int
    rounds: list  # [[index ids in round 1], [round 2], ...]
    dist: Mapping  # index id -> EdgeDist
    params: NibbleParams
    atoms: AtomTable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if isinstance(self.dist, AtomTable):
            self.atoms = self.dist
        else:
            self.atoms = AtomTable.pack(self.dist, self.n_vertices)

    @property
    def m(self) -> int:
        return len(self.rounds)

    def all_indices(self):
        for block in self.rounds:
            yield from block

    def validate(self) -> None:
        """Rounds disjoint and nonempty; every atom of every slot well formed."""
        t = self.atoms
        seen = set()
        for block in self.rounds:
            if not block:
                raise ValueError("rounds must be nonempty")
            for i in block:
                if i in seen:
                    raise ValueError(f"index {i} appears in two rounds")
                if i not in t.slot:
                    raise ValueError(f"index {i} has no edge distribution")
                seen.add(i)
        n, r_max = self.n_vertices, self.params.r_max

        def fail_at(bad, what):
            s = int(np.searchsorted(t.ptr, np.argmax(bad), side="right")) - 1
            raise ValueError(f"index {t.index_of_slot(s)}: {what}")

        bad = ~(np.isfinite(t.probs) & (t.probs >= 0))
        if bad.any():
            fail_at(bad, "probability not finite and >= 0")
        if t.members.shape[1] > r_max:
            bad = (t.members >= 0).sum(axis=1) > r_max
            if bad.any():
                fail_at(bad, "edge larger than r_max")
        if t.members.size and not -1 <= t.members.min() <= t.members.max() < n:
            fail_at(((t.members < -1) | (t.members >= n)).any(axis=1), "vertex out of range")
        over = t.total > 1 + 1e-12
        if over.any():
            raise ValueError(f"index {t.index_of_slot(int(np.argmax(over)))}: "
                             "probabilities sum above 1")


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

    def P_row(self, j: int):
        return self.P[j]


def degree_profile(inst: CoverInstance) -> DegreeProfile:
    """Exact degree sums and the P recursion for an instance.

    Per round, each distinct slot's vertex probabilities are summed in atom
    order and added, times the number of the round's indices that use the
    slot, in order of first use.
    """
    t = inst.atoms
    rows = []
    for block in inst.rounds:
        row = np.zeros(inst.n_vertices)
        for s, cnt in Counter(t.slot[i] for i in block).items():
            members = t.members[t.ptr[s] : t.ptr[s + 1]]
            present = members >= 0
            q = np.broadcast_to(t.probs[t.ptr[s] : t.ptr[s + 1], None], members.shape)
            v, inverse = np.unique(members[present], return_inverse=True)
            row[v] += cnt * np.bincount(inverse, weights=q[present])
        rows.append(row)
    return DegreeProfile(rows)


class ExactProfile:
    """Survival targets in exact arithmetic, for enumeration tests.

    P values stay Fractions as long as the recursion multiplier is exp(0);
    a vertex whose degree becomes nonzero has an irrational target from the
    next round on and is marked tainted (None).  Tests may also construct
    this class directly to inject chosen rational targets.
    """

    def __init__(self, m: int, P: dict):
        self.m = m
        self._P = P  # (j, v) -> Fraction | None

    @classmethod
    def from_instance(cls, inst: CoverInstance) -> "ExactProfile":
        P = {}
        for v in range(inst.n_vertices):
            P[(0, v)] = Fraction(1)
        for j, block in enumerate(inst.rounds, start=1):
            # probabilities are >= 0, so a degree is nonzero iff one term is
            touched = {v for i in block for v, q in inst.dist[i].vertex_probs().items() if q}
            for v in range(inst.n_vertices):
                prev = P[(j - 1, v)]
                P[(j, v)] = None if prev is None or v in touched else prev
        return cls(len(inst.rounds), P)

    def P_vertex(self, j, v):
        val = self._P[(j, v)]
        if val is None:
            raise ValueError(
                f"survival target P_{j}({v}) is irrational; "
                "exact enumeration needs rational targets on every support edge"
            )
        return val

    def P_edge(self, j, edge):
        out = Fraction(1)
        for v in edge:
            out *= self.P_vertex(j, v)
        return out

    def P_row(self, j: int):
        """P_j rounded to floats, for running the float sampler on these targets."""
        n = 1 + max((v for _, v in self._P), default=-1)
        return np.array([float(self.P_vertex(j, v)) for v in range(n)])


@dataclass
class RoundStats:
    round: int
    index: int
    X: float
    passed: bool
    w_size: int


@dataclass
class NibbleState:
    W: set
    chosen: dict = field(default_factory=dict)  # index -> frozenset (EMPTY = skip)
    round_log: list = field(default_factory=list)


def default_tol(params: NibbleParams, m: int) -> float:
    """max(delta^(1/(3*10^m)), 0.1), clamped below 1.

    The asymptotic-strength band is hopeless at desk scale; the clamp keeps
    the drift test meaningful (tol < 1 guarantees X = 0 can never pass it).
    """
    if params.delta <= 0:
        return 0.1
    return min(max(params.delta ** (1.0 / (3 * 10**m)), 0.1), 0.999)


def _exact_law(dist: EdgeDist, profile, j: int, W):
    """Index law in round j, exactly: the atoms e inside W with their weights
    q / P_{j-1}(e), the remainder mass and X = their sum plus the remainder."""
    atoms = [(e, Fraction(q) / profile.P_edge(j - 1, e)) for e, q in dist.atoms if e <= W]
    rem = Fraction(dist.remainder())
    return atoms, rem, sum((w for _, w in atoms), Fraction(0)) + rem


def normalization_factor(inst: CoverInstance, profile, i, j: int, W) -> Fraction:
    """X_i(W) for index i in round j: conditioned, reweighted total mass,
    exact for Fraction probabilities and an ExactProfile."""
    return _exact_law(inst.dist[i], profile, j, W)[2]


def nibble_round(inst: CoverInstance, profile, state: NibbleState, j: int, rng, tol):
    """Execute round j: sample one edge (or skip) per index, then shrink W.

    All indices of the round sample against the same W; the union of their
    choices is removed only after the whole round has been drawn.  Each
    distinct slot is read once, for its in-W atoms, their weights
    P(e)/P_{j-1}(e) and X.  An atom of positive mass whose target is 0
    weighs +inf, so its index fails the drift test with X = inf.
    """
    if not tol < 1:
        raise ValueError("tol must be < 1 so that X = 0 always fails the drift test")
    W = state.W
    w_size = len(W)
    t = inst.atoms
    inside = np.zeros(inst.n_vertices + 1, dtype=bool)
    inside[np.fromiter(W, dtype=np.int64, count=w_size)] = True
    inside[-1] = True  # what a missing member (-1) reads
    P = np.append(profile.P_row(j - 1), 1.0)
    cache = {}  # slot -> (in-W atoms, cumulative weights, X)
    for i in inst.rounds[j - 1]:
        s = t.slot[i]
        if s not in cache:
            a, b = t.ptr[s], t.ptr[s + 1]
            sel = np.flatnonzero(t.fold(np.logical_and, inside, a, b))
            q = t.probs[a:b][sel]
            with np.errstate(divide="ignore", over="ignore"):
                w = np.divide(q, t.fold(np.multiply, P, a, b)[sel],
                              out=np.zeros_like(q), where=q > 0)
            rem = max(0.0, 1 - float(t.total[s]))
            cache[s] = (a + sel, np.cumsum(w), math.fsum(w.tolist()) + rem)
        sel, cum, X = cache[s]
        passed = abs(X - 1) <= tol
        if not passed:
            state.chosen[i] = EMPTY
        else:
            assert X > 0, "X = 0 cannot pass the drift test with tol < 1"
            u = rng.random() * X
            pos = int(np.searchsorted(cum, u, side="right"))
            state.chosen[i] = t.edge(sel[pos]) if pos < len(sel) else EMPTY
        state.round_log.append(RoundStats(j, i, float(X), passed, w_size))
    removed = set()
    for i in inst.rounds[j - 1]:
        removed |= state.chosen[i]
    state.W = W - removed
    return state


@dataclass
class CoverResult:
    chosen: dict  # index -> frozenset (EMPTY = no edge)
    leftover: set
    stats: list


def run_cover(inst: CoverInstance, rng, tol=None) -> CoverResult:
    """Run all m rounds; m = 0 leaves every vertex uncovered (vacuous case)."""
    inst.validate()
    profile = degree_profile(inst)
    if tol is None:
        tol = default_tol(inst.params, inst.m)
    state = NibbleState(W=set(range(inst.n_vertices)))
    for j in range(1, inst.m + 1):
        nibble_round(inst, profile, state, j, rng, tol)
    return CoverResult(chosen=state.chosen, leftover=state.W, stats=state.round_log)


def independent_select(inst: CoverInstance, rng) -> dict:
    """Baseline: every index samples its raw distribution, no conditioning."""
    return {i: inst.atoms.draw(i, rng.random()) for i in inst.all_indices()}


def leftover_of(inst: CoverInstance, chosen: dict) -> set:
    removed = set()
    for e in chosen.values():
        removed |= e
    return set(range(inst.n_vertices)) - removed


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

    max_size = 0
    max_sparsity = 0.0
    max_codeg = 0.0
    for j, block in enumerate(inst.rounds, start=1):
        sqrt_nj = math.sqrt(len(block))
        pair_sums = {}
        seen_dists = {}
        for i in block:
            d = inst.dist[i]
            seen_dists[id(d)] = (d, seen_dists.get(id(d), (d, 0))[1] + 1)
        for d, cnt in seen_dists.values():
            max_size = max(max_size, d.max_edge_size())
            for q in d.vertex_probs().values():
                max_sparsity = max(max_sparsity, float(q) * sqrt_nj)
            for e, q in d.atoms:
                verts = sorted(e)
                for a in range(len(verts)):
                    for b in range(a + 1, len(verts)):
                        key = (verts[a], verts[b])
                        pair_sums[key] = pair_sums.get(key, 0.0) + cnt * float(q)
        if pair_sums:
            max_codeg = max(max_codeg, max(pair_sums.values()))

    max_ratio = 0.0
    min_P = 1.0
    for j in range(1, inst.m + 1):
        prev, d = profile.P[j - 1], profile.d[j]
        with np.errstate(divide="ignore", invalid="ignore"):  # d / 0 is inf, 0 / 0 reads 0
            ratio = np.max(np.where(d > 0, d / prev, 0.0)) if inst.n_vertices else 0.0
        max_ratio = max(max_ratio, float(ratio))
    for j in range(0, inst.m + 1):
        if inst.n_vertices:
            min_P = min(min_P, float(np.min(profile.P[j])))

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


# -- exact outcome enumeration -------------------------------------------------


@dataclass
class ExactDistribution:
    """Full law of the nibble process for a tiny instance.

    outcomes maps a tuple of chosen edges (rounds in order, indices in listed
    order) to its exact probability; survival[v] is the probability vertex v
    is never covered; marginals[i][edge] is the law of each index's choice.
    """

    index_order: tuple
    outcomes: dict
    survival: dict
    marginals: dict


def exact_cover_distribution(inst: CoverInstance, tol, profile=None) -> ExactDistribution:
    """Enumerate every sampling path of run_cover in exact arithmetic.

    Requires Fraction probabilities.  With the derived profile this only
    works when all support vertices keep rational survival targets (degree
    zero until used); tests may inject any rational profile instead.
    """
    inst.validate()
    if profile is None:
        profile = ExactProfile.from_instance(inst)
    tol = Fraction(tol)

    index_order = tuple(inst.all_indices())
    states = {(frozenset(range(inst.n_vertices)), ()): Fraction(1)}
    for j, block in enumerate(inst.rounds, start=1):
        nxt = {}
        for (W, picks), prob in states.items():
            options_per_index = []
            for i in block:
                atoms, rem, X = _exact_law(inst.dist[i], profile, j, W)
                if abs(X - 1) > tol:
                    options_per_index.append([(EMPTY, Fraction(1))])
                else:
                    opts = [(e, w / X) for e, w in atoms]
                    if rem:
                        opts.append((EMPTY, rem / X))
                    options_per_index.append(opts)
            combos = [((), Fraction(1))]
            for opts in options_per_index:
                combos = [
                    (picked + (e,), pr * q) for picked, pr in combos for e, q in opts if q
                ]
            for picked, pr in combos:
                removed = set()
                for e in picked:
                    removed |= e
                key = (W - removed, picks + picked)
                nxt[key] = nxt.get(key, Fraction(0)) + prob * pr
        states = nxt

    outcomes = {}
    survival = {v: Fraction(0) for v in range(inst.n_vertices)}
    marginals = {i: {} for i in index_order}
    for (W, picks), prob in states.items():
        outcomes[picks] = outcomes.get(picks, Fraction(0)) + prob
        for v in W:
            survival[v] += prob
        for i, e in zip(index_order, picks):
            marginals[i][e] = marginals[i].get(e, Fraction(0)) + prob
    return ExactDistribution(
        index_order=index_order, outcomes=outcomes, survival=survival, marginals=marginals
    )


# -- hypergraph instance file format -------------------------------------------
#
# {"vertices": N, "rounds": [[indices...], ...],
#  "dist": {"index": [[sorted edge, prob], ...], ...},
#  "params": {"delta": ..., "r_max": ..., "A": ..., "D": ..., "kappa": ...}}


def instance_to_json(inst: CoverInstance) -> str:
    import json

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


def instance_from_json(text: str) -> CoverInstance:
    """Parse an instance file; a missing key or a wrong shape is a ValueError."""
    import json

    doc = json.loads(text)
    try:
        params = NibbleParams(
            delta=float(doc["params"]["delta"]),
            r_max=int(doc["params"]["r_max"]),
            A=float(doc["params"]["A"]),
            D=float(doc["params"]["D"]),
            kappa=float(doc["params"]["kappa"]),
        )
        dist = {}
        for key, atoms in doc["dist"].items():
            dist[int(key)] = EdgeDist(
                atoms=[(frozenset(int(v) for v in e), float(q)) for e, q in atoms]
            )
        inst = CoverInstance(
            n_vertices=int(doc["vertices"]),
            rounds=[[int(i) for i in block] for block in doc["rounds"]],
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
