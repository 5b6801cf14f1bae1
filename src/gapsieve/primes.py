"""Prime generation, batch primality, primorials, admissible tuples.

Up to TABLE_LIMIT = 2**16 nothing is sieved: one exact table over
[0, TABLE_LIMIT], the flags and the primes, is built once at import by a
plain sieve of Eratosthenes (about 115 KiB), and sieve_interval and
prime_mask read windows and values up to the limit from it.  Above it,
sieving is done with a segmented sieve of Eratosthenes over the odd
numbers (numpy bool segments of SEGMENT_SIZE = 2**20 entries, each entry
one odd number, so a segment spans 2**21 integers) so intervals up to 1e8
stay cheap and memory-local.  `_odd_segments` yields those segments,
`SiftedInterval`s as `residues.sift` does, with base primes from the table
whenever hi < 2**32; `sieve_interval` and `first_primes` list their primes,
and prime_mask, the one batch primality test, reads dense inputs straight
from their bits and sparse ones from Miller-Rabin, by `sieve_pays`; a short
sieve_interval window far out takes the same rule.  Setting TABLE_LIMIT = 0
turns the table off (nonpositive values aside, which no path calls prime).
The admissible r-tuple, the first r primes above r, ends at or below 2r^2.
"""

from dataclasses import dataclass
from math import isqrt, log

import numpy as np

SEGMENT_SIZE = 1 << 20
# psi_12, the least strong pseudoprime to the 12 bases 2..37, is
# 399,165,290,221 * 798,330,580,441 (Sorenson and Webster, 2017)
MR_LIMIT = 318_665_857_834_031_151_167_461
TABLE_LIMIT = 1 << 16


def _eratosthenes(limit: int) -> np.ndarray:
    """flags[n] is True iff n is prime, for 0 <= n <= limit."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


_TABLE_FLAGS = _eratosthenes(TABLE_LIMIT)
_TABLE_PRIMES = np.flatnonzero(_TABLE_FLAGS).astype(np.int64)


def _table_primes(lo: int, hi: int) -> np.ndarray:
    """The table's primes in [lo, hi], for hi <= TABLE_LIMIT: a view."""
    return _TABLE_PRIMES[np.searchsorted(_TABLE_PRIMES, lo):
                         np.searchsorted(_TABLE_PRIMES, hi, side="right")]


@dataclass
class SiftedInterval:
    """Bits over [lo, hi]: bits[k] is the bit of the position first + step * k,
    step 1 or 2, with first lo or lo + 1.  The sieve's segments hold the odd
    numbers, set on the primes; `residues.sift` gives the integers that avoid
    every class of a system."""

    lo: int
    hi: int
    first: int
    step: int
    bits: np.ndarray  # bool

    @classmethod
    def of(cls, lo: int, hi: int, first: int, step: int) -> "SiftedInterval":
        """Every position set; MemoryError at 2**63 bits or more."""
        size = max(hi - first, -1) // step + 1
        if size >= 2**63:  # no memory holds it, and numpy cannot even index it
            raise MemoryError(f"an interval of {size} bits is more than numpy can index")
        return cls(lo, hi, first, step, np.ones(size, dtype=bool))

    def clear(self, p, a) -> None:
        """Clear the positions in the classes a mod p (arrays of one length,
        every p odd when step is 2).  Fewer than 64 classes, object arrays
        and a first position beyond int64 take one strided slice per class
        in Python ints.  Otherwise, with n bits, p < n/64 takes one strided
        slice, p >= n hits at most once, and the moduli in between step
        together over the whole array, one step per multiple (at most 64),
        until fewer than 64 are left, which take a strided slice each."""
        bits, first, step, n = self.bits, self.first, self.step, len(self.bits)
        if len(p) < 64 or p.dtype != np.int64 or not -(2**63) <= first < 2**63:
            for q, c in zip(p.tolist(), a.tolist()):
                bits[(c - first) * pow(step, -1, q) % q :: q] = False
            return
        r = (a - first % p) % p
        if step == 1:
            start = r
        else:  # 2k = r (mod p), with the inverse (p + 1) / 2 of 2 taken without overflow
            start = r // 2 + (r & 1) * (p // 2 + 1)
        strided = p < (n + 63) // 64  # p < n/64
        for s, q in zip(start[strided].tolist(), p[strided].tolist()):
            bits[s::q] = False
        bits[start[(p >= n) & (start < n)]] = False
        # here n/64 <= p < n, so each steps at most 64 times; s + q < 2n never wraps
        live = ~strided & (p < n) & (start < n)
        s, q = start[live], p[live]
        while len(s) >= 64:
            bits[s] = False
            s += q
            live = s < n
            s, q = s[live], q[live]
        for s, q in zip(s.tolist(), q.tolist()):
            bits[s::q] = False

    def restore(self, values) -> None:
        """Set the bits of the positions values."""
        self.bits[(values - self.first) // self.step] = True

    def holds(self, values) -> np.ndarray:
        """Whether each int64 value of [lo, hi] is a position with its bit set."""
        if not len(self.bits):  # [lo, hi] is lo alone, off the progression
            return np.zeros(len(values), dtype=bool)
        # off the progression, odd k masks the bit below (the last bit at k = -1)
        k, shift = values - self.first, self.step // 2
        return self.bits[k >> shift] & ((k & shift) == 0)

    def count(self) -> int:
        return int(np.count_nonzero(self.bits))

    def positions(self) -> np.ndarray:
        """The positions whose bit is set, increasing, as int64."""
        out = np.flatnonzero(self.bits)
        out *= self.step
        out += self.first
        return out

    def keep_primes(self) -> int:
        """Clear the bit of every position that is not prime, reading the
        sieve's segments of [lo, hi], which must lie above 2; returns how
        many primes [lo, hi] holds, set or not."""
        if self.lo < 3:
            raise ValueError("keep_primes needs lo >= 3")
        count = 0
        for seg in _odd_segments(self.lo, self.hi):
            count += seg.count()
            i = -(-(seg.lo - self.first) // self.step)  # the first position in seg's span
            n = (seg.hi - self.first) // self.step + 1 - i
            if n <= 0:
                continue
            k = self.first + self.step * i - seg.first  # its offset among seg's numbers
            d = k % 2  # 1 when it is even, off seg's odd numbers
            if self.step == 2:
                bits = self.bits[i : i + n]
                if d:
                    bits[:] = False
                else:
                    bits &= seg.bits[k // 2 : k // 2 + n]
            else:
                self.bits[i + 1 - d : i + n : 2] = False  # the even positions
                odd = self.bits[i + d : i + n : 2]
                odd &= seg.bits[(k + d) // 2 : (k + d) // 2 + len(odd)]
        return count

    def first_survivor(self):
        idx = np.flatnonzero(self.bits)
        return self.first + self.step * int(idx[0]) if len(idx) else None

    @property
    def survivors(self) -> np.ndarray:
        """A new bool array over all of [lo, hi], indexed by n - lo."""
        out = np.zeros(self.hi - self.lo + 1, dtype=bool)
        out[self.first - self.lo :: self.step] = self.bits
        return out


def _odd_segments(lo: int, hi: int):
    """The sieve's segments of the odd numbers from lo (>= 3) to hi, in
    order: step-2 SiftedIntervals set on the primes, the first from lo and
    each spanning every integer below the next one's lo.  Each clears class
    0 of the odd base primes up to isqrt(seg.hi), which sieve_interval reads
    from the table when hi < 65537**2, and restores the base primes inside
    it."""
    base = sieve_interval(3, isqrt(hi))
    for seg_lo in range(lo, hi + 1, 2 * SEGMENT_SIZE):
        seg = SiftedInterval.of(seg_lo, min(seg_lo + 2 * SEGMENT_SIZE - 1, hi), seg_lo | 1, 2)
        ps = base[: np.searchsorted(base, isqrt(seg.hi), side="right")]
        seg.clear(ps, np.zeros_like(ps))
        seg.restore(ps[ps >= seg_lo])
        yield seg


def sieve_interval(lo: int, hi: int) -> np.ndarray:
    """Primes in [lo, hi]: a copy of the table's slice when hi <= TABLE_LIMIT,
    else via a segmented sieve of the odd numbers, or, where `sieve_pays`
    says the sieve does not pay for them, the odd numbers that prime_mask
    finds prime; 2 is emitted when lo <= 2.  MemoryError when hi >= 2**63:
    int64 cannot hold the window's primes."""
    if hi < max(lo, 2):
        return np.empty(0, dtype=np.int64)
    if hi >= 2**63:
        raise MemoryError("a sieve window reaching 2**63 holds primes that do not fit int64")
    if hi <= TABLE_LIMIT:
        return _table_primes(lo, hi).copy()
    out = [np.array([2], dtype=np.int64)] if lo <= 2 else []
    first = max(lo, 3) | 1
    count = (hi - first) // 2 + 1  # odd numbers in [first, hi]
    if sieve_pays(count, first, hi):
        out += [seg.positions() for seg in _odd_segments(first, hi)]
    else:  # built from first, as hi + 1 may be 2**63
        odd = first + 2 * np.arange(count, dtype=np.int64)
        out.append(odd[prime_mask(odd)])
    return np.concatenate(out) if out else np.empty(0, dtype=np.int64)


def first_primes(lo: int, count: int) -> np.ndarray:
    """The first count primes >= lo, as int64, sieved window by window up to
    the window holding the count-th: SEGMENT_SIZE integers (half a sieve
    segment), or 9 lo at small lo, so a few hundred primes do not cost a
    whole segment."""
    size = min(SEGMENT_SIZE, 9 * max(lo, 1))
    windows, found = [], 0
    while found < count:
        windows.append(sieve_interval(lo, lo + size - 1))
        found += len(windows[-1])
        lo += size
    return np.concatenate(windows)[:count] if windows else np.empty(0, dtype=np.int64)


def primes_up_to(x: int) -> tuple:
    """All primes <= x (x >= 0), increasing."""
    if x < 0:
        raise ValueError("x must be nonnegative")
    return tuple(sieve_interval(2, x).tolist())


def primorial(x: int) -> int:
    """Product of all primes <= x; 1 when x < 2 (empty product)."""
    result = 1
    for p in primes_up_to(x):
        result *= p
    return result


def factorize(n: int) -> dict:
    """{prime: exponent} for |n| by trial division, primes increasing."""
    n = abs(n)
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(n: int) -> bool:
    """Miller-Rabin to the bases 2..37, a proof for every n < MR_LIMIT.

    MR_LIMIT = psi_12 (about 3.2e23, every int64 value lies below it) is the
    least composite that passes all 12 bases; for n >= MR_LIMIT a pass would
    prove nothing, so ValueError is raised.
    """
    if n >= MR_LIMIT:
        raise ValueError(f"primality of {n} is not proven: Miller-Rabin to the bases "
                         f"2..37 is a proof only below {MR_LIMIT}")
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        y = pow(a, d, n)
        if y in (1, n - 1):
            continue
        for _ in range(s - 1):
            y = y * y % n
            if y == n - 1:
                break
        else:
            return False
    return True


def sieve_pays(count: int, lo: int, hi: int) -> bool:
    """Whether prime_mask reads count values in [lo, hi] from the sieve.

    The sieve's cost is the span plus 64 per strided write, one write per
    odd base prime up to m = isqrt(hi) per segment (2 * SEGMENT_SIZE
    integers); the base primes are counted by pi(m) < 1.25506 m / ln m
    (Rosser-Schoenfeld).  It pays when that is within 2**20 plus 64 per
    value, the cost charged to Miller-Rabin, so time and memory stay linear
    in the number of values either way.
    """
    span = hi - lo + 1
    segments = -(-span // (2 * SEGMENT_SIZE))
    m = isqrt(max(hi, 0))
    base = 1.25506 * m / log(m) if m > 1 else 0.0
    return span + 64 * base * segments <= SEGMENT_SIZE + 64 * count


def prime_mask(values) -> np.ndarray:
    """Exact primality of each integer in values, as a bool array in input order.

    When every value is at most TABLE_LIMIT, each is read from the table
    (0, 1 and negatives are not prime).  Otherwise, when `sieve_pays`, the
    values are taken in increasing order and each is looked up in the bits
    of its segment of one sieve over the odd numbers of their span; no table
    of the span is built.  Otherwise, and for values beyond int64, is_prime
    tests each value.
    """
    try:
        values = np.asarray(values, dtype=np.int64)  # an int64 array is read in place
    except OverflowError:  # beyond int64: each value by is_prime
        values = list(map(int, values))
        return np.fromiter(map(is_prime, values), dtype=bool, count=len(values))
    if not len(values):
        return np.zeros(0, dtype=bool)
    hi = int(values.max())
    if hi <= TABLE_LIMIT:
        return _TABLE_FLAGS[np.maximum(values, 0)]
    if not sieve_pays(len(values), int(values.min()), hi):
        return np.fromiter(map(is_prime, values.tolist()), dtype=bool, count=len(values))
    if (values[1:] < values[:-1]).any():
        order = np.argsort(values, kind="stable")
        mask = np.empty(len(values), dtype=bool)
        mask[order] = _sieved_mask(values[order])
        return mask
    return _sieved_mask(values)


def _sieved_mask(values) -> np.ndarray:
    """prime_mask of increasing int64 values, read from _odd_segments."""
    mask = values == 2
    i = int(np.searchsorted(values, 3))
    if i == len(values):
        return mask
    # segments start at an odd number <= values[i] and each spans every value
    # below the next one's start
    for seg in _odd_segments((int(values[i]) - 1) | 1, int(values[-1])):
        j = int(np.searchsorted(values, seg.hi, side="right"))
        mask[i:j] = seg.holds(values[i:j])
        i = j
    return mask


def is_admissible(offsets: tuple) -> bool:
    """True iff for every prime p <= r the r offsets miss some class mod p.

    Primes p > r are automatically fine: r distinct offsets occupy at most
    r < p classes.
    """
    if len(set(offsets)) != len(offsets):
        raise ValueError("offsets must be distinct")
    for p in primes_up_to(len(offsets)):
        if len({h % p for h in offsets}) == p:
            return False
    return True


def admissible_tuple(r: int) -> tuple:
    """The first r primes larger than r, as an admissible r-tuple.

    Admissible because no prime p <= r is among the offsets, so none of
    them lies in the class 0 mod p.  The offsets end at or below 2r^2: the
    r-th prime above r is at most p_{2r} < 2r(log 2r + log log 2r) (Rosser).
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    return tuple(first_primes(r + 1, r).tolist())
