"""From-scratch enumeration of the nibble's reweighted process law.

This is the exact reference the engine (`nibble.nibble_round`, `run_cover`
and each law's `round_law`) is tested against.  It is written independently
of the engine (plain dict walking, no shared helpers) and works in rational
arithmetic, so its laws and X values are exact.  `edge` reads the engine's
edges, rows of member ids padded with -1, as the frozensets the oracle uses.
"""

from fractions import Fraction as F
from itertools import product


def edge(row):
    """The frozenset of the member ids in one row of the engine's edges."""
    return frozenset(v for v in row.tolist() if v >= 0)


def P_edge(profile_P, j, e):
    out = F(1)
    for v in e:
        out *= profile_P[(j, v)]
    return out


def oracle_X(dist, profile_P, j, W):
    """X_i(W) in round j of an index with edge distribution dist: the
    remainder mass plus q / P_{j-1}(e) over the atoms e inside W.  A zero
    target on such an atom raises ZeroDivisionError."""
    rem = 1 - sum(F(q) for _, q in dist.atoms)
    return rem + sum(F(q) / P_edge(profile_P, j - 1, e) for e, q in dist.atoms if set(e) <= W)


def oracle_distribution(inst, profile_P, tol, W=None):
    """(index order, outcome law, survival law) of the process on inst,
    started from the survivor set W (default: every vertex).

    profile_P maps (j, vertex) -> Fraction survival target.
    """
    start = set(range(inst.n_vertices)) if W is None else set(W)
    index_order = [i for blk in inst.rounds for i in blk]
    results = {}

    def recurse(round_no, W, picks, prob):
        if round_no > len(inst.rounds):
            results[tuple(picks)] = results.get(tuple(picks), F(0)) + prob
            return
        block = inst.rounds[round_no - 1]
        laws = []
        for i in block:
            atoms = inst.dist[i].atoms
            rem = 1 - sum(F(q) for _, q in atoms)
            X = oracle_X(inst.dist[i], profile_P, round_no, W)
            if abs(X - 1) > tol:
                laws.append([(frozenset(), F(1))])
            else:
                law = [
                    (e, F(q) / P_edge(profile_P, round_no - 1, e) / X)
                    for e, q in atoms
                    if set(e) <= W
                ]
                if rem:
                    law.append((frozenset(), rem / X))
                laws.append([(e, q) for e, q in law if q])
        for combo in product(*laws):
            p = prob
            removed = set()
            sel = []
            for e, q in combo:
                p *= q
                removed |= e
                sel.append(e)
            recurse(round_no + 1, W - removed, picks + sel, p)

    recurse(1, start, [], F(1))
    survival = {v: F(0) for v in range(inst.n_vertices)}
    for picks, p in results.items():
        covered = set()
        for e in picks:
            covered |= e
        for v in start - covered:
            survival[v] += p
    return index_order, results, survival
