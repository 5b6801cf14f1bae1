"""Prime generation, batch primality, primorials, admissible tuples.

All sieving is done with a segmented sieve of Eratosthenes (numpy bool
segments of SEGMENT_SIZE = 2**20 entries) so intervals up to 1e8 stay
cheap and memory-local.  The admissible r-tuple is the first r primes
above r, which always ends at or below 2r^2.
"""

from math import isqrt

import numpy as np

SEGMENT_SIZE = 1 << 20


def sieve_interval(lo: int, hi: int) -> np.ndarray:
    """Primes in [lo, hi] via a segmented sieve; the base primes up to
    isqrt(hi) come from the same sieve."""
    if hi < max(lo, 2):
        return np.empty(0, dtype=np.int64)
    lo = max(lo, 2)
    base = sieve_interval(2, isqrt(hi))
    out = []
    for seg_lo in range(lo, hi + 1, SEGMENT_SIZE):
        seg_hi = min(seg_lo + SEGMENT_SIZE - 1, hi)
        flags = np.ones(seg_hi - seg_lo + 1, dtype=bool)
        for p in base:
            p = int(p)
            start = max(p * p, ((seg_lo + p - 1) // p) * p)
            if start > seg_hi:
                continue
            flags[start - seg_lo :: p] = False
        if seg_lo <= 1:
            flags[: 2 - seg_lo] = False
        out.append(np.flatnonzero(flags).astype(np.int64) + seg_lo)
    return np.concatenate(out) if out else np.empty(0, dtype=np.int64)


def primes_up_to(x: int) -> tuple:
    """All primes <= x (x >= 0), increasing."""
    if x < 0:
        raise ValueError("x must be nonnegative")
    return tuple(int(p) for p in sieve_interval(2, x))


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
    """Deterministic Miller-Rabin, valid for all n < 3.3e24 (covers 64-bit)."""
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


def prime_mask(values) -> np.ndarray:
    """Exact primality of each integer in values, as a bool array in input order.

    Dense inputs are read from one segmented sieve over their span [lo, hi];
    sparse or huge ones go through is_prime value by value.  The sieve is
    taken when its cost, the span plus 64 table writes per base-prime
    candidate up to isqrt(hi) per segment, is within 2**20 plus 64 per
    value, so time and memory stay linear in the number of values.
    """
    try:
        values = np.asarray(values, dtype=np.int64)  # an int64 array is read in place
    except OverflowError:  # beyond int64: each value by is_prime
        values = list(map(int, values))
        return np.fromiter(map(is_prime, values), dtype=bool, count=len(values))
    if not len(values):
        return np.zeros(0, dtype=bool)
    lo, hi = int(values.min()), int(values.max())
    span = hi - lo + 1
    segments = -(-span // SEGMENT_SIZE)
    if span + 64 * isqrt(max(hi, 0)) * segments > SEGMENT_SIZE + 64 * len(values):
        return np.fromiter(map(is_prime, values.tolist()), dtype=bool, count=len(values))
    table = np.zeros(span, dtype=bool)
    table[sieve_interval(lo, hi) - lo] = True
    return table[values - lo]


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
