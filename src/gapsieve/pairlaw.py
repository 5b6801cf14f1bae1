"""Stage 3's edge law in closed form, for a 2-tuple (h1, h2).

Sieving prime p and anchor n give the edge {n + h1 p, n + h2 p} & Q, where Q
is the set of surviving primes.  The anchors with a nonempty edge are
Q - h1 p and Q - h2 p, each of mass unit_p.  With d = h2 - h1, the edges are
pairs {v, v + d p} (anchor v - h1 p) and singletons {v}, which merge the
anchors v - h1 p (when v + d p is not in Q) and v - h2 p (when v - d p is
not); so a singleton has mass (2 - m_p(v)) unit_p, where m_p(v) counts which
of v +- d p lie in Q.  Uniform mode gives each of the 2|Q| - pairs_p anchors
the same mass, pairs_p = |Q & (Q + d p)|, and every pairs_p comes from one
FFT autocorrelation of Q's indicator.  Sieve mode keeps only the anchors
with |n| <= y; the few primes whose anchors the window cuts are counted
directly.

Every vertex has the same degree sum_p 2 unit_p outside such cuts, so a
nibble round has one survival target P, and X_p(W) is
[(2|W| - c(d p)) / P + a(d p) / P^2] unit_p plus the remainder mass, where c
is the cross-correlation of W's and Q's indicators at lags +-d p and a the
autocorrelation of W's at d p.  Draws are by rejection, in array passes
over every index still rejecting: a uniform (offset, member of W) names an
anchor, which is kept when its edge lies in W, with probability
proportional to P^-|e| / |e|.
"""

import math
from collections.abc import Mapping

import numpy as np

from .nibble import EdgeDist, EdgeLaw
from .rng import uniforms

_FFT_FACTORS = (1, 3, 5, 9, 15, 25, 27)


def _fft_len(n: int) -> int:
    """A length >= n with small prime factors only, where FFTs are fast."""
    return min(m << (-(-n // m) - 1).bit_length() for m in _FFT_FACTORS)


def correlation(a, b, lags):
    """sum_t a[t] b[t + lag] for each lag: exact counts for 0/1 arrays a, b
    of one length, read off one FFT product."""
    lags = np.asarray(lags, dtype=np.int64)
    out = np.zeros(len(lags))
    short = lags < len(a)  # longer lags overlap nothing
    if short.any():
        n = _fft_len(len(a) + int(lags[short].max()))  # no wrap-around up to that lag
        fa = np.fft.rfft(a, n)
        fb = fa if b is a else np.fft.rfft(b, n)
        out[short] = np.fft.irfft(np.conj(fa) * fb, n)[lags[short]]
    counts = np.rint(out)
    err = float(np.abs(out - counts).max(initial=0.0))
    if err > 1e-6:
        raise ArithmeticError(f"FFT correlation is {err:.2g} away from an integer count")
    return counts.astype(np.int64)


class PairLaw(EdgeLaw, Mapping):
    """One sieving prime per index; vertex ids are positions in sorted Q.

    Holds Q, a position index over [min Q, max Q], and per index the prime,
    its mass per anchor, its number of anchors of positive mass and its
    number of pair edges.  As a mapping it materializes an index's atoms on
    demand, listed by smallest anchor as the per-anchor construction lists
    them; the engine never does.
    """

    def __init__(self, values, offsets, primes, units=None, window=None):
        """values: sorted surviving primes; units: each prime's mass per
        anchor (None: uniform, 1 / anchors); window: y, keeping the anchors
        with |n| <= y only (None: every anchor)."""
        if len(offsets) != 2:
            raise ValueError(f"the closed form needs a 2-tuple, got {len(offsets)} offsets")
        Q = np.asarray(values, dtype=np.int64)
        n = len(Q)
        self.Q = Q
        self.h1, self.h2 = offsets
        self.d = self.h2 - self.h1
        self.window = y = math.inf if window is None else window
        self.lo = int(Q[0])
        self.pos = np.full(int(Q[-1]) - self.lo + 1, -1, dtype=np.int32)
        self.pos[Q - self.lo] = np.arange(n)

        ps = np.asarray(primes, dtype=np.int64)
        indicator = (self.pos >= 0).astype(float)
        pairs = correlation(indicator, indicator, self.d * ps)
        # vertices whose h-anchor has positive mass: ids [lo_h, hi_h)
        bounds = [np.searchsorted(Q, h * ps + side * y, "left" if side < 0 else "right")
                  for h in offsets for side in (-1, 1)]
        lo1, hi1, lo2, hi2 = bounds
        for k in np.flatnonzero((lo1 > 0) | (hi1 < n)):  # pair anchors the window cuts
            pairs[k] = np.count_nonzero(self._ids(Q[lo1[k] : hi1[k]] + self.d * ps[k]) >= 0)
        count = (hi1 - lo1) + (hi2 - lo2) - pairs
        unit = 1.0 / np.maximum(count, 1) if units is None else np.asarray(units, dtype=float)

        keep = count > 0
        self.ps = ps[keep]
        self.unit = unit[keep]
        self.pairs = pairs[keep]
        self.bounds = lo1, hi1, lo2, hi2 = [b[keep] for b in bounds]
        self.cut = (lo1 > 0) | (hi1 < n) | (lo2 > 0) | (hi2 < n)  # the window cuts anchors
        self.mass = count[keep] * self.unit
        self.rem = np.maximum(0.0, 1 - self.mass)

    # -- positions ------------------------------------------------------------

    def _ids(self, values):
        """Vertex ids of values, -1 where a value is not in Q."""
        k = values - self.lo
        ok = (k >= 0) & (k < len(self.pos))
        out = np.full(len(k), -1, dtype=np.int64)
        out[ok] = self.pos[k[ok]]
        return out

    # -- the mapping: atoms on demand -----------------------------------------

    def atoms(self, i):
        """Index i's atoms in order of their smallest anchor: member rows
        (ids, -1 for a missing member) and masses."""
        p, u, Q = self.ps[i], self.unit[i], self.Q
        ids = np.arange(len(Q))
        up, down = self._ids(Q + self.d * p), self._ids(Q - self.d * p)
        a1, a2 = Q - self.h1 * p, Q - self.h2 * p
        lo1, hi1, lo2, hi2 = (int(b[i]) for b in self.bounds)
        in1, in2 = (lo1 <= ids) & (ids < hi1), (lo2 <= ids) & (ids < hi2)
        pair = in1 & (up >= 0)
        s1, s2 = in1 & (up < 0), in2 & (down < 0)  # the anchors of the singleton {v}
        single = s1 | s2
        anchors = np.concatenate((a1[pair], np.where(s2, a2, a1)[single]))
        rows = np.concatenate((np.stack((ids[pair], up[pair]), axis=1),
                               np.stack((ids[single], np.full(single.sum(), -1)), axis=1)))
        mass = np.concatenate((np.full(pair.sum(), u), (s1.astype(np.int64) + s2)[single] * u))
        order = np.argsort(anchors)
        return rows[order], mass[order]

    def __getitem__(self, i) -> EdgeDist:
        rows, mass = self.atoms(i)
        return EdgeDist(atoms=[(frozenset(v for v in row if v >= 0), q)
                               for row, q in zip(rows.tolist(), mass.tolist())])

    def __iter__(self):
        return iter(range(len(self.ps)))

    def __len__(self):
        return len(self.ps)

    def __contains__(self, i):
        return isinstance(i, (int, np.integer)) and 0 <= i < len(self.ps)

    # -- the engine's questions -----------------------------------------------

    def check(self, n_vertices, r_max) -> None:
        if n_vertices != len(self.Q):
            raise ValueError(f"law over {len(self.Q)} vertices, instance has {n_vertices}")
        for bad, what in ((~(np.isfinite(self.unit) & (self.unit >= 0)),
                           "probability not finite and >= 0"),
                          ((self.pairs > 0) & (r_max < 2), "edge larger than r_max"),
                          (self.mass > 1 + 1e-12, "probabilities sum above 1")):
            if bad.any():
                raise ValueError(f"index {int(np.argmax(bad))}: {what}")

    def _vertex_probs(self, block):
        """Vertices grouped by equal laws: (group sizes, probs) with
        probs[g, k] = P(v in e) of the k-th index of block for v in group g,
        k unit_p where k counts v's anchors of positive mass."""
        b = np.asarray(block, dtype=np.int64)
        n = len(self.Q)
        lo1, hi1, lo2, hi2 = (bound[b] for bound in self.bounds)
        starts = np.unique(np.concatenate(([0], lo1, hi1, lo2, hi2)))
        starts = starts[starts < n]
        g = starts[:, None]
        k = ((lo1 <= g) & (g < hi1)).astype(np.int64) + ((lo2 <= g) & (g < hi2))
        return np.diff(np.append(starts, n)), k * self.unit[b]

    def degrees(self, block, n_vertices):
        sizes, probs = self._vertex_probs(block)
        # a running sum adds in block order, as a per-index accumulation does
        d = probs.cumsum(axis=1)[:, -1] if probs.shape[1] else np.zeros(len(sizes))
        return np.repeat(d, sizes)

    def extremes(self, block):
        """A pair {v, v + d p} is the edge of one anchor of one prime alone,
        so a pair's sum over the block is that prime's unit_p."""
        b = np.asarray(block, dtype=np.int64)
        paired = self.pairs[b] > 0
        return (2 if paired.any() else int(len(b) > 0),
                float(self._vertex_probs(b)[1].max(initial=0.0)),
                float(self.unit[b][paired].max(initial=0.0)))

    def _draw(self, idx, key, j, X, part, verts, inside, P):
        """Edge rows of indices idx (an index may repeat; key is an int or one
        per entry of idx): no edge with probability 1 - part / X, else an
        anchor whose edge lies in W (all of Q when verts is None), with
        probability proportional to P^-|e|.  The uniforms of index i are
        uniforms(key, j, i, 0, 0) for the first choice and
        uniforms(key, j, i, attempt, 0 or 1) for each rejection attempt."""
        keys = np.broadcast_to(np.asarray(key), idx.shape)
        rows = np.full((len(idx), 2), -1, dtype=np.int64)  # drawn member, other member
        todo = np.flatnonzero(uniforms(keys, j, idx, 0, 0) * X < part)
        # P^-|e| / |e| for |e| = 1, 2, over the larger of the two
        accept = np.array([min(1.0, 2 * P), min(1.0, 1 / (2 * P))])
        n_slots = 2 * (len(self.Q) if verts is None else len(verts))
        attempt = 0
        while len(todo):
            attempt += 1
            i = idx[todo]
            pick, keep = uniforms(keys[todo], j, i, attempt, np.array([[0], [1]]))
            t = (pick * n_slots).astype(np.int64)
            v = t >> 1 if verts is None else verts[t >> 1]
            second = (t & 1).astype(bool)  # v is the anchor's h2 member
            p, q = self.ps[i], self.Q[v]
            other = self._ids(q + np.where(second, -self.d, self.d) * p)
            ok = np.abs(q - np.where(second, self.h2, self.h1) * p) <= self.window
            if inside is not None:
                ok &= (other < 0) | inside[other]
            ok &= keep < np.where(other >= 0, accept[1], accept[0])
            rows[todo[ok]] = np.stack((v, other), axis=1)[ok]
            todo = todo[~ok]
        return rows

    def round_law(self, block, inside, P):
        """Round 1 (W = Q, P = 1) is the raw law.  Later rounds need one
        target P for every vertex and no window-cut prime in the block."""
        b = np.asarray(block, dtype=np.int64)
        if inside.all() and (P == 1).all():
            part = self.mass[b]
            verts, inside, P0 = None, None, 1.0
        else:
            P0 = float(P[0])
            if not (P == P0).all():
                raise ValueError("a pair law reweights by one survival target, "
                                 "but P differs across vertices")
            if self.cut[b].any():
                raise ValueError("a pair law conditions on W only where the window "
                                 "cuts no anchor")
            verts = np.flatnonzero(inside)
            w = np.zeros(len(self.pos))
            w[self.Q[verts] - self.lo] = 1.0
            q = (self.pos >= 0).astype(float)
            lags = self.d * self.ps[b]
            singles = 2 * len(verts) - correlation(w, q, lags) - correlation(q, w, lags)
            pairs = correlation(w, w, lags)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                part = (np.where(singles > 0, singles / P0, 0.0)
                        + np.where(pairs > 0, pairs / (P0 * P0), 0.0)) * self.unit[b]
        Xs = part + self.rem[b]

        def draw(ks, key, j):
            return self._draw(b[ks], key, j, Xs[ks], part[ks], verts, inside, P0)

        return Xs, draw

    def greedy(self, order, n_vertices):
        """The atom greedy without atoms, one member row per index of order:
        a pair with both members uncovered if one exists (the first); else
        the smallest anchor whose edge holds an uncovered vertex; else the
        smallest anchor."""
        Q, n = self.Q, len(self.Q)
        uncovered = np.ones(n + 1, dtype=bool)
        uncovered[n] = False  # what a missing member (-1) reads
        first = 0  # every vertex below is covered

        def first_uncovered(lo, hi):
            if lo <= first:
                return first if first < hi else None
            k = lo + int(np.argmax(uncovered[lo:hi])) if lo < hi else hi
            return k if k < hi and uncovered[k] else None

        rows = np.full((len(order), 2), -1, dtype=np.int64)
        for k, i in enumerate(order):
            p = int(self.ps[i])
            lo1, hi1, lo2, hi2 = (int(b[i]) for b in self.bounds)
            while first < n and not uncovered[first]:
                first += 1
            e = None
            if self.pairs[i]:
                start, size = max(first, lo1), 256
                while e is None and start < hi1:
                    stop = min(hi1, start + size)
                    partner = self._ids(Q[start:stop] + self.d * p)
                    hit = uncovered[start:stop] & uncovered[partner]
                    if hit.any():
                        at = int(np.argmax(hit))
                        e = start + at, partner[at]
                    start, size = stop, 2 * size
            if e is None:
                anchors = []
                for h, lo, hi in ((self.h2, lo2, hi2), (self.h1, lo1, hi1)):
                    v = first_uncovered(lo, hi)
                    if v is not None:
                        anchors.append(int(Q[v]) - h * p)
                if not anchors:  # every edge is covered: the smallest anchor
                    anchors = [int(Q[lo]) - h * p
                               for h, lo, hi in ((self.h2, lo2, hi2), (self.h1, lo1, hi1))
                               if lo < hi]
                e = self._ids(min(anchors) + np.array([self.h1, self.h2]) * p)
            rows[k] = e
            uncovered[rows[k]] = False
        return rows
