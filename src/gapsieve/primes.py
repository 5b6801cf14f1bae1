"""Prime generation, batch primality, primorials, admissible tuples.

Up to TABLE_LIMIT = 2**16 nothing is sieved: one exact table over
[0, TABLE_LIMIT], the flags and the primes, is built once at import by a
plain sieve of Eratosthenes (about 115 KiB), and sieve_interval and
prime_mask read windows and values up to the limit from it.  Above it,
sieving is done with a segmented sieve of Eratosthenes over the odd
numbers (numpy bool segments of SEGMENT_SIZE = 2**20 entries, each entry
one odd number, so a segment spans 2**21 integers) so intervals up to 1e8
stay cheap and memory-local.  `_odd_segments` yields those segments, with
its base primes read from the table whenever hi < 2**32; `sieve_interval`
lists their primes, and prime_mask, the one batch primality test, reads
dense inputs straight from their flags and sparse ones from Miller-Rabin.
Setting TABLE_LIMIT = 0 turns the table off (nonpositive values aside,
which no path calls prime).  The admissible r-tuple is the first r primes
above r, which always ends at or below 2r^2.
"""

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


def _odd_segments(lo: int, hi: int):
    """(seg_lo, flags) for each segment of the odd numbers in [lo, hi], in
    order: flags[k] is True iff seg_lo + 2k is prime.  The odd base primes up
    to isqrt(hi) come from sieve_interval, which reads them from the table
    when hi < 65537**2."""
    base = sieve_interval(3, isqrt(hi)).tolist()
    for seg_lo in range(max(lo, 1) | 1, hi + 1, 2 * SEGMENT_SIZE):
        seg_hi = min(seg_lo + 2 * SEGMENT_SIZE - 2, hi)
        flags = np.ones((seg_hi - seg_lo) // 2 + 1, dtype=bool)
        for p in base:
            start = max(p * p, -(-seg_lo // p) * p)
            if start % 2 == 0:  # the next odd multiple
                start += p
            if start > seg_hi:
                continue
            flags[(start - seg_lo) // 2 :: p] = False
        if seg_lo == 1:
            flags[0] = False
        yield seg_lo, flags


def sieve_interval(lo: int, hi: int) -> np.ndarray:
    """Primes in [lo, hi]: a copy of the table's slice when hi <= TABLE_LIMIT,
    else via a segmented sieve of the odd numbers; 2 is emitted when lo <= 2."""
    if hi < max(lo, 2):
        return np.empty(0, dtype=np.int64)
    if hi <= TABLE_LIMIT:
        return _table_primes(lo, hi).copy()
    out = [np.array([2], dtype=np.int64)] if lo <= 2 else []
    out += [np.flatnonzero(flags).astype(np.int64, copy=False) * 2 + seg_lo
            for seg_lo, flags in _odd_segments(lo, hi)]
    return np.concatenate(out) if out else np.empty(0, dtype=np.int64)


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
    values are taken in increasing order and each is looked up in the flags
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
    # segments start at an odd number <= values[i]; each takes every value
    # below the next one's start, so an even value indexes the odd number
    # just below it and is masked out by its parity
    for seg_lo, flags in _odd_segments((int(values[i]) - 1) | 1, int(values[-1])):
        j = int(np.searchsorted(values, seg_lo + 2 * len(flags) - 1, side="right"))
        v = values[i:j]
        mask[i:j] = flags[(v - seg_lo) // 2] & (v % 2 == 1)
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
    # primes > r; generous sieve bound r*(log r + log log r) + slack
    hi = max(4 * r, 64)
    while True:
        ps = [int(p) for p in sieve_interval(r + 1, hi)]
        if len(ps) >= r:
            return tuple(ps[:r])
        hi *= 2
