"""From-scratch enumeration of the nibble's reweighted process law.

The exact-law tests pit `nibble.exact_cover_distribution` against this
oracle.  It is written independently of the engine (plain dict walking, no
shared helpers) and works in rational arithmetic, so agreement is exact.
"""

from fractions import Fraction as F
from itertools import product


def oracle_distribution(inst, profile_P, tol):
    """(index order, outcome law, survival law) of the process on inst.

    profile_P maps (j, vertex) -> Fraction survival target.
    """

    def P_edge(j, e):
        out = F(1)
        for v in e:
            out *= profile_P[(j, v)]
        return out

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
            X = rem + sum(
                F(q) / P_edge(round_no - 1, e) for e, q in atoms if set(e) <= W
            )
            if abs(X - 1) > tol:
                laws.append([(frozenset(), F(1))])
            else:
                law = [
                    (e, F(q) / P_edge(round_no - 1, e) / X)
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

    recurse(1, set(range(inst.n_vertices)), [], F(1))
    survival = {v: F(0) for v in range(inst.n_vertices)}
    for picks, p in results.items():
        covered = set()
        for e in picks:
            covered |= e
        for v in range(inst.n_vertices):
            if v not in covered:
                survival[v] += p
    return index_order, results, survival
