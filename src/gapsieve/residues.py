"""Covering systems of congruences: sifting, CRT assembly, verification.

A residue system is a finite choice of one class a_p mod p per prime p.
Sifting an interval keeps the integers that avoid every chosen class;
a system that leaves no survivor in [1, y] "covers" that prefix, and the
Chinese remainder theorem turns such a cover into a concrete run of y
consecutive composites.
"""

import json
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain
from math import gcd
from types import MappingProxyType

import numpy as np

from .primes import SiftedInterval, prime_mask

PREFIX_SCAN_LIMIT = 10**7
SIFT_CHUNK = 1 << 16  # bytes of int64 moduli that sift reads at a time
SYSTEM_TEXT_CHUNK = 2**14  # classes the system writer formats at a time


class InfeasibleError(ValueError):
    """Requested computation is beyond a configured limit (a scan or search range)."""


class CoverageError(Exception):
    """A position that was supposed to be covered is not."""

    def __init__(self, position: int):
        self.position = position
        super().__init__(f"position {position} is not covered by any class")


class ResidueSystem:
    """One residue class a_p in [0, p) per prime p, as two arrays sorted by p.

    `moduli` and `classes` are int64 when every value fits and otherwise
    object arrays of Python ints; both are read-only.  Build one from a
    mapping {p: a_p} or from moduli= and classes= sequences in any order.
    """

    __slots__ = ("moduli", "classes")
    __hash__ = None

    def __init__(self, entries=None, *, moduli=None, classes=None):
        self.__post_init__(entries, moduli, classes)

    def __post_init__(self, entries, moduli, classes):
        """All of construction: the arrays, sorted by modulus with a modulus
        given twice refused, and the one proof that every modulus is prime
        and every class in [0, p).  (Named as a dataclass hook so that
        perfbench/tracing.py times the whole of it.)"""
        if entries is not None:
            if moduli is not None or classes is not None:
                raise TypeError("give a mapping or moduli= and classes=, not both")
            moduli, classes = list(entries), list(entries.values())
        elif (moduli is None) != (classes is None):
            raise TypeError("moduli= and classes= go together")
        elif moduli is None:
            moduli = classes = ()
        try:
            p = np.array(moduli, dtype=np.int64)
            a = np.array(classes, dtype=np.int64)
        except OverflowError:  # a value beyond int64
            p = _object_array(moduli)
            a = _object_array(classes)
        if p.ndim != 1 or p.shape != a.shape:
            raise ValueError("moduli and classes must be two sequences of one length")
        _set_sorted(self, p, a)
        p, a = self.moduli, self.classes
        composite = np.flatnonzero(~prime_mask(p))
        if len(composite):
            raise ValueError(f"modulus {p[composite[0]]} is not prime")
        bad = np.flatnonzero((a < 0) | (a >= p))
        if len(bad):
            raise ValueError(f"residue {a[bad[0]]} out of range for modulus {p[bad[0]]}")

    def __setattr__(self, name, value):
        raise AttributeError("ResidueSystem is immutable")

    def __len__(self):
        return len(self.moduli)

    def __eq__(self, other):
        if not isinstance(other, ResidueSystem):
            return NotImplemented
        return (np.array_equal(self.moduli, other.moduli)
                and np.array_equal(self.classes, other.classes))

    def __repr__(self):
        return f"ResidueSystem(moduli={self.moduli.tolist()}, classes={self.classes.tolist()})"

    @property
    def entries(self):
        """A read-only {p: a_p} view, built from the arrays on each read."""
        return MappingProxyType(dict(zip(self.moduli.tolist(), self.classes.tolist())))

    def merged(self, other: "ResidueSystem") -> "ResidueSystem":
        """Union of two systems over disjoint prime sets.

        Both parts were checked when they were built, so the union skips
        the constructor's proof of every modulus.
        """
        union = object.__new__(ResidueSystem)
        _set_sorted(union, np.concatenate((self.moduli, other.moduli)),
                    np.concatenate((self.classes, other.classes)))
        return union


def _object_array(values):
    out = np.empty(len(values), dtype=object)
    out[:] = [int(v) for v in values]
    return out


def _set_sorted(sys, p, a):
    """Store p and a, arrays no caller keeps, on sys sorted by p (stable),
    refusing a modulus twice.  Strictly increasing moduli, as every
    producer gives, are stored as they are."""
    if not (p[1:] > p[:-1]).all():
        order = np.argsort(p, kind="stable")
        p, a = p[order], a[order]
        twice = p[1:][p[1:] == p[:-1]]
        if len(twice):
            raise ValueError(f"moduli assigned twice: {sorted(set(twice.tolist()))}")
    p.flags.writeable = a.flags.writeable = False
    object.__setattr__(sys, "moduli", p)
    object.__setattr__(sys, "classes", a)


def fresh_interval(sys: ResidueSystem, lo: int, hi: int) -> SiftedInterval:
    """The interval a new sift of sys over [lo, hi] starts from, every bit
    set: the parity that sys's class mod 2 leaves (step 2), or every
    position (step 1) when sys has no class mod 2."""
    if len(sys.moduli) and sys.moduli[0] == 2:
        return SiftedInterval.of(lo, hi, lo + (int(sys.classes[0]) - lo + 1) % 2, 2)
    return SiftedInterval.of(lo, hi, lo, 1)


def sift(sys: ResidueSystem, lo: int, hi: int, into=None) -> SiftedInterval:
    """Survivor bits of n in [lo, hi]: n survives iff n mod p != a_p for
    every entry.

    into, when given, is a SiftedInterval of the same [lo, hi] left by
    another system; its bits are cleared in place and it is returned, so
    sifting two systems in turn gives the bits of their union.

    A new interval of a system with a class mod 2 holds only the parity 2
    leaves (step 2), so 2's class costs nothing and the odd moduli act on
    ceil(n/2) or floor(n/2) contiguous bits; otherwise it holds every
    position (step 1), and 2 is cleared like any other modulus.  The
    classes are cleared SIFT_CHUNK // 8 at a time, so the memory beyond the
    bits stays bounded whatever the system's size.
    """
    if lo > hi:
        raise ValueError("lo must be <= hi")
    moduli, classes = sys.moduli, sys.classes
    has2 = bool(len(moduli)) and moduli[0] == 2
    if into is None:
        into = fresh_interval(sys, lo, hi)
    elif (into.lo, into.hi) != (lo, hi):
        raise ValueError(f"interval mismatch: sifting [{lo}, {hi}] into [{into.lo}, {into.hi}]")
    if has2 and into.step == 2:  # 2's class holds all of the leaves or none of them
        if (into.first - int(classes[0])) % 2 == 0:
            into.bits[:] = False
            return into
        moduli, classes = moduli[1:], classes[1:]
    chunk = SIFT_CHUNK // 8
    for i in range(0, len(moduli), chunk):
        into.clear(moduli[i : i + chunk], classes[i : i + chunk])
    return into


def covered_prefix_length(sys: ResidueSystem) -> int:
    """Largest y with no survivor in [1, y]; 0 if 1 itself survives.

    Scans in blocks, stopping at the first survivor, so no arbitrary bound
    has to be guessed ahead of time.  A system with no survivor up to
    PREFIX_SCAN_LIMIT raises InfeasibleError.
    """
    block = 1024
    lo = 1
    while lo <= PREFIX_SCAN_LIMIT:
        hi = min(lo + block - 1, PREFIX_SCAN_LIMIT)
        first = sift(sys, lo, hi).first_survivor()
        if first is not None:
            return first - 1
        lo = hi + 1
        block *= 2
    raise InfeasibleError(f"no survivor found below {PREFIX_SCAN_LIMIT}")


def crt_merge(a, b):
    """Merge two congruences (r, m) whose moduli may share factors.

    Returns (r, lcm) with r the class mod lcm(m1, m2) satisfying both, or
    None when they are incompatible.
    """
    r1, m1 = a
    r2, m2 = b
    g = gcd(m1, m2)
    if (r2 - r1) % g != 0:
        return None
    l = m1 // g * m2
    t = ((r2 - r1) // g * pow(m1 // g, -1, m2 // g)) % (m2 // g)
    return (r1 + m1 * t) % l, l


def crt_combine(congruences) -> tuple:
    """Combine (residue, modulus) pairs with pairwise coprime moduli.

    Returns (r, M) with M the product of the moduli and r the unique class
    mod M satisfying all congruences; arbitrary precision.
    """
    cls = (0, 1)
    for a, q in congruences:
        if q < 1:
            raise ValueError(f"modulus {q} must be positive")
        g = gcd(cls[1], q)
        if g != 1:
            raise ValueError(f"moduli not pairwise coprime (gcd {g})")
        cls = crt_merge(cls, (a, q))
    return cls


@dataclass(frozen=True)
class GapCertificate:
    """A run of consecutive composites with explicit witness divisors."""

    m: int
    run_length: int
    witnesses: tuple  # (offset t, witness prime p) with p | m + t


def assemble_gap(sys: ResidueSystem, x: int) -> GapCertificate:
    """Realize the covered prefix of sys as a run of composites after m.

    m is the smallest integer > x with m = -a_p (mod p) for every entry;
    when the system assigns all primes <= x, m is the unique such value in
    (x, x + P(x)].  Every m + t for t in [1, run_length] is certified
    composite by exhibiting a witness divisor.
    """
    moduli, classes = sys.moduli.tolist(), sys.classes.tolist()
    beyond = bisect_right(moduli, x)
    if beyond < len(moduli):
        raise ValueError(f"modulus {moduli[beyond]} exceeds x = {x}")
    y = covered_prefix_length(sys)
    residue, modulus = crt_combine([((-a) % p, p) for p, a in zip(moduli, classes)])
    # smallest m > x in the CRT class
    m = x + 1 + (residue - (x + 1)) % modulus
    # p | m + t iff t = a_p (mod p); written largest modulus first, so the
    # smallest modulus dividing m + t is the one left at t
    witness = [0] * (y + 1)
    for p, a in zip(reversed(moduli), reversed(classes)):
        start = a or p
        witness[start::p] = [p] * len(range(start, y + 1, p))
    for t in range(1, y + 1):
        if not witness[t] or m + t <= witness[t]:
            raise CoverageError(t)
    return GapCertificate(m=m, run_length=y, witnesses=tuple(enumerate(witness))[1:])


# -- residue-system file format ---------------------------------------------
#
# One JSON document: {"x": int, "interval": [lo, hi], "classes": [[p, a_p], ...]}
# with classes sorted by p.  "interval" is optional: the range [lo, hi]
# (lo <= hi) the system claims to cover, which `verify` checks by default.


def system_to_json(x: int, sys: ResidueSystem, interval=None) -> str:
    """The compact json.dumps form of the document, with the class list
    written a chunk of classes at a time rather than through one list per
    class."""
    return _system_bytes(x, sys, interval).decode("ascii")


def _system_bytes(x: int, sys: ResidueSystem, interval) -> bytes:
    """The document as bytes: the head, the class chunks and the tail,
    joined once."""
    head = b'{"x":%d' % int(x)
    if interval is not None:
        head += b',"interval":[%d,%d]' % (int(interval[0]), int(interval[1]))
    return b"".join((head, b',"classes":[', *_classes_bytes(sys.moduli, sys.classes), b"]}\n"))


def _classes_bytes(p, a):
    """b'[p,a],[p,a],...' in array order, as one bytes object per
    SYSTEM_TEXT_CHUNK classes.

    One numpy kernel writes each chunk: the bytes '[', W digits of p, ',',
    W digits of a, ']', ',' of each class (W the width of the largest
    modulus of the whole system, which a < p fits too) fill one byte column
    each of an n x (2W + 4) matrix, from W rounds of % 10 and // 10 per
    number, and one boolean gather drops the leading zeros and, after the
    last class, the comma.  The same arithmetic runs on int64 and on object
    arrays of Python ints, and on uint32 copies when the largest modulus is
    below 2**32.  The memory beyond the output stays bounded by the chunk.
    """
    if not len(p):
        return
    w = len(str(int(p[-1])))
    narrow = p.dtype == np.int64 and p[-1] < 2**32
    chunk = SYSTEM_TEXT_CHUNK
    for i in range(0, len(p), chunk):
        pc, ac = p[i : i + chunk], a[i : i + chunk]
        if narrow:
            pc, ac = pc.astype(np.uint32), ac.astype(np.uint32)
        cols = np.empty((2 * w + 4, len(pc)), dtype=np.uint8)  # the matrix, transposed
        keep = np.ones(cols.shape, dtype=bool)
        cols[[0, w + 1, 2 * w + 2, 2 * w + 3]] = np.frombuffer(b"[,],", dtype=np.uint8)[:, None]
        for col, v in ((1, pc), (w + 2, ac)):
            for k in range(col + w - 1, col - 1, -1):  # last digit first
                keep[k] = v > 0  # else a leading zero, unless it is the last digit
                q = v // 10
                cols[k] = v - 10 * q + ord("0")
                v = q
            keep[col + w - 1] = True
        if i + chunk >= len(p):
            keep[-1, -1] = False  # no comma after the last class
        yield cols.T[keep.T].tobytes()


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def strict_json(text: str, what: str):
    """json.loads that refuses a key repeated in one object and nesting too
    deep to parse, each as a ValueError that names what the text is."""

    def unique(pairs):
        doc = dict(pairs)
        if len(doc) < len(pairs):
            raise ValueError(f"{what}: a key appears twice in one object")
        return doc

    try:
        return json.loads(text, object_pairs_hook=unique)
    except RecursionError:
        raise ValueError(f"{what}: JSON nested too deeply") from None


def system_from_json(text: str):
    """(x, system, interval) from a system file; interval is None when absent.
    A key repeated in one object or JSON nested too deeply is a ValueError."""
    doc = strict_json(text, "system file")
    if not isinstance(doc, dict) or "x" not in doc or "classes" not in doc:
        raise ValueError("expected {\"x\": ..., \"classes\": [[p, a], ...]}")
    x, classes = doc["x"], doc["classes"]
    if not _is_int(x):
        raise ValueError("\"x\" must be an integer")
    interval = doc.get("interval")
    if interval is not None:
        if not (isinstance(interval, list) and len(interval) == 2
                and all(map(_is_int, interval)) and interval[0] <= interval[1]):
            raise ValueError("\"interval\" must be [lo, hi] with integers lo <= hi")
        interval = tuple(interval)
    # json.loads gives plain lists and ints, and bool is not int, so the
    # types are checked as sets, one pass over the pairs and one over the values
    if not (isinstance(classes, list) and set(map(type, classes)) <= {list}
            and set(map(len, classes)) <= {2}
            and set(map(type, flat := list(chain.from_iterable(classes)))) <= {int}):
        raise ValueError("\"classes\" must be a list of [p, a] integer pairs")
    return x, ResidueSystem(moduli=flat[::2], classes=flat[1::2]), interval


def write_system_file(path, x: int, sys: ResidueSystem, interval=None) -> bytes:
    """Write the system document to path; returns the bytes written."""
    data = _system_bytes(x, sys, interval)
    with open(path, "wb") as fh:
        fh.write(data)
    return data


def read_system_file(path):
    with open(path) as fh:
        return system_from_json(fh.read())
