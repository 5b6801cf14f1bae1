"""Covering systems of congruences: sifting, CRT assembly, verification.

A residue system is a finite choice of one class a_p mod p per prime p.
Sifting an interval keeps the integers that avoid every chosen class;
a system that leaves no survivor in [1, y] "covers" that prefix, and the
Chinese remainder theorem turns such a cover into a concrete run of y
consecutive composites.
"""

import json
from dataclasses import dataclass, field
from math import gcd

import numpy as np

from .primes import prime_mask

PREFIX_SCAN_LIMIT = 10**7
SIFT_CHUNK = 1 << 16  # most positions one scatter of sift writes


class CoverageError(Exception):
    """A position that was supposed to be covered is not."""

    def __init__(self, position: int):
        self.position = position
        super().__init__(f"position {position} is not covered by any class")


@dataclass(frozen=True)
class ResidueSystem:
    """Map prime -> chosen residue class a_p in [0, p)."""

    entries: dict = field(default_factory=dict)

    def __post_init__(self):
        moduli = list(self.entries)
        composite = np.flatnonzero(~prime_mask(moduli))
        if len(composite):
            raise ValueError(f"modulus {moduli[composite[0]]} is not prime")
        try:
            p = np.fromiter(self.entries, np.int64, len(moduli))
            a = np.fromiter(self.entries.values(), np.int64, len(moduli))
            bad = np.flatnonzero((a < 0) | (a >= p))
        except OverflowError:  # a class beyond int64
            bad = [i for i, (p, a) in enumerate(self.entries.items()) if not 0 <= a < p]
        if len(bad):
            first = moduli[bad[0]]
            raise ValueError(f"residue {self.entries[first]} out of range for modulus {first}")

    def __len__(self):
        return len(self.entries)

    def merged(self, other: "ResidueSystem") -> "ResidueSystem":
        """Union of two systems over disjoint prime sets.

        Both parts were checked when they were built, so the union skips
        the constructor's proof of every modulus.
        """
        overlap = self.entries.keys() & other.entries.keys()
        if overlap:
            raise ValueError(f"moduli assigned twice: {sorted(overlap)}")
        union = object.__new__(ResidueSystem)
        object.__setattr__(union, "entries", {**self.entries, **other.entries})
        return union


@dataclass
class SiftedInterval:
    """Integers of [lo, hi] that avoided every class of the generating system."""

    lo: int
    hi: int
    survivors: np.ndarray  # bool, indexed by n - lo

    def count(self) -> int:
        return int(self.survivors.sum())

    def survivor_list(self) -> list:
        return (np.flatnonzero(self.survivors) + self.lo).tolist()

    def first_survivor(self):
        idx = np.flatnonzero(self.survivors)
        return int(idx[0]) + self.lo if len(idx) else None


def sift(sys: ResidueSystem, lo: int, hi: int, survivors=None) -> SiftedInterval:
    """Survivor bit for n in [lo, hi] iff n mod p != a_p for every entry.

    survivors, when given, holds the bits of [lo, hi] left by another system
    and is cleared in place, so sifting two systems in turn gives the bits
    of their union.

    Classes are read SIFT_CHUNK // 64 at a time into int64 arrays, so the
    memory beyond the bits stays bounded whatever the system's size.  With
    n = hi - lo + 1 positions, a modulus p < n/64 clears its more than 64
    hits with one strided slice; every other modulus hits at most 64
    positions, which are computed in numpy and cleared with one scatter of
    at most SIFT_CHUNK positions per read.  The bits are exact for any
    Python ints: when a class or lo does not fit int64, every class takes
    the strided slice, in Python ints.
    """
    if lo > hi:
        raise ValueError("lo must be <= hi")
    n = hi - lo + 1
    if survivors is None:
        flags = np.ones(n, dtype=bool)
    elif len(survivors) == n:
        flags = survivors
    else:
        raise ValueError(f"survivors hold {len(survivors)} bits, not {n}")
    entries = sys.entries
    if -(2**63) <= lo < 2**63:  # numpy < 2 would cast a larger lo rather than raise
        keys, values = iter(entries), iter(entries.values())
        try:
            for left in range(len(entries), 0, -(SIFT_CHUNK // 64)):
                count = min(left, SIFT_CHUNK // 64)
                _clear(flags, lo, np.fromiter(keys, np.int64, count),
                       np.fromiter(values, np.int64, count))
            return SiftedInterval(lo=lo, hi=hi, survivors=flags)
        except OverflowError:  # a class beyond int64; clearing a bit twice is harmless
            pass
    for p, a in entries.items():
        flags[(a - lo) % p :: p] = False
    return SiftedInterval(lo=lo, hi=hi, survivors=flags)


def _clear(flags, lo, p, a):
    """Clear the positions n - lo of flags with n = a (mod p), for int64
    arrays of classes p, a."""
    n = len(flags)
    start = (a - lo % p) % p
    strided = p < (n + 63) // 64  # p < n/64
    for s, q in zip(start[strided].tolist(), p[strided].tolist()):
        flags[s::q] = False
    scattered = ~strided & (start < n)
    flags[start[scattered & (p >= n)]] = False
    scattered &= p < n
    if scattered.any():  # here n/64 <= p < n: at most 64 hits each
        step = p[scattered]
        pos = step[:, None] * np.arange((n - 1) // step.min() + 1)
        pos += start[scattered, None]  # in place: one array of positions at a time
        flags[pos[pos < n]] = False


def covered_prefix_length(sys: ResidueSystem) -> int:
    """Largest y with no survivor in [1, y]; 0 if 1 itself survives.

    Scans in blocks, stopping at the first survivor, so no arbitrary bound
    has to be guessed ahead of time.  PREFIX_SCAN_LIMIT guards against
    systems whose first survivor is absurdly far out.
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
    raise RuntimeError(f"no survivor found below {PREFIX_SCAN_LIMIT}")


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
    for p in sys.entries:
        if p > x:
            raise ValueError(f"modulus {p} exceeds x = {x}")
    y = covered_prefix_length(sys)
    residue, modulus = crt_combine(
        [((-a) % p, p) for p, a in sorted(sys.entries.items())]
    )
    # smallest m > x in the CRT class
    m = x + 1 + (residue - (x + 1)) % modulus
    witnesses = []
    for t in range(1, y + 1):
        for p, a in sys.entries.items():
            if (m + t) % p == 0:
                if m + t <= p:
                    raise CoverageError(t)
                witnesses.append((t, p))
                break
        else:
            raise CoverageError(t)
    return GapCertificate(m=m, run_length=y, witnesses=tuple(witnesses))


# -- residue-system file format ---------------------------------------------
#
# One JSON document: {"x": int, "interval": [lo, hi], "classes": [[p, a_p], ...]}
# with classes sorted by p.  "interval" is optional: the range [lo, hi]
# (lo <= hi) the system claims to cover, which `verify` checks by default.


def system_to_json(x: int, sys: ResidueSystem, interval=None) -> str:
    """The compact json.dumps form of the document, with the class list
    written as one join rather than through one list per class."""
    head = f'{{"x":{int(x)}'
    if interval is not None:
        head += f',"interval":[{int(interval[0])},{int(interval[1])}]'
    classes = ",".join(f"[{p},{a}]" for p, a in sorted(sys.entries.items()))
    return f'{head},"classes":[{classes}]}}\n'


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def system_from_json(text: str):
    """(x, system, interval) from a system file; interval is None when absent."""
    doc = json.loads(text)
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
    if not isinstance(classes, list) or not all(
        isinstance(c, list) and len(c) == 2 and all(map(_is_int, c)) for c in classes
    ):
        raise ValueError("\"classes\" must be a list of [p, a] integer pairs")
    entries = {}
    for p, a in classes:
        if p in entries:
            raise ValueError(f"duplicate modulus {p}")
        entries[p] = a
    return x, ResidueSystem(entries), interval


def write_system_file(path, x: int, sys: ResidueSystem, interval=None) -> None:
    with open(path, "w") as fh:
        fh.write(system_to_json(x, sys, interval))


def read_system_file(path):
    with open(path) as fh:
        return system_from_json(fh.read())
