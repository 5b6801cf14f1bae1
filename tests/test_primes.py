"""Tests for prime generation, primorials, admissible tuples."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapsieve import primes
from gapsieve.primes import (
    SEGMENT_SIZE,
    SiftedInterval,
    admissible_tuple,
    first_primes,
    is_admissible,
    is_prime,
    prime_mask,
    primes_up_to,
    primorial,
    sieve_interval,
)


def naive_sieve(limit):
    """Independent reference sieve (no shared code with the package path)."""
    if limit < 2:
        return []
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            for q in range(p * p, limit + 1, p):
                flags[q] = False
    return [i for i, f in enumerate(flags) if f]


def trial_division_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def table_settings(monkeypatch):
    """Run the loop body once with the prime table and once with
    TABLE_LIMIT = 0, so the segmented sieve keeps its coverage below 2^16."""
    for limit in (primes.TABLE_LIMIT, 0):
        with monkeypatch.context() as mp:
            mp.setattr(primes, "TABLE_LIMIT", limit)
            yield


def test_table_is_a_naive_sieve_to_2_16():
    limit = primes.TABLE_LIMIT
    assert limit == 2**16
    ref = naive_sieve(limit)
    assert primes._TABLE_FLAGS.shape == (limit + 1,)
    assert primes._TABLE_FLAGS.nonzero()[0].tolist() == ref
    assert primes._TABLE_PRIMES.dtype == np.int64
    assert primes._TABLE_PRIMES.tolist() == ref


def test_sieve_interval_windows_around_the_table(monkeypatch):
    limit = primes.TABLE_LIMIT
    # 65537 is prime, so 65537^2 is struck out only by the first base prime
    # past the table; the last window straddles 2^32 and reaches it
    windows = [(lo, limit + d) for lo in (0, 2, 3, limit - 2000, limit - 1, limit, limit + 1)
               for d in (-1, 0, 1)]
    windows += [(limit - 1, limit - 1), (limit + 1, limit + 1), (2**32 - 200, 65537**2 + 200)]
    for _ in table_settings(monkeypatch):
        for lo, hi in windows:
            got = sieve_interval(lo, hi)
            assert got.dtype == np.int64
            assert got.tolist() == [n for n in range(lo, hi + 1) if is_prime(n)]
        assert 65537**2 not in sieve_interval(2**32 - 200, 65537**2 + 200).tolist()
    # a caller may write into what it gets: the table is not shared
    got = sieve_interval(2, 100)
    got[:] = 0
    assert sieve_interval(2, 100).tolist() == naive_sieve(100)


def test_base_primes_need_at_most_one_more_sieve(monkeypatch):
    calls = []
    original = primes.sieve_interval

    def recording(lo, hi):
        calls.append(hi)
        return original(lo, hi)

    monkeypatch.setattr(primes, "sieve_interval", recording)
    # each call past the first lists base primes; only the last is a table slice
    for hi, his in ((primes.TABLE_LIMIT, [primes.TABLE_LIMIT]), (10**8, [10**8, 10**4]),
                    (65537**2 - 1, [65537**2 - 1, 65536]),
                    (65537**2, [65537**2, 65537, 256])):
        calls.clear()
        primes.sieve_interval(hi - 100, hi)
        assert calls == his


def test_base_primes_past_n_over_64_take_whole_array_steps():
    # a segment of 10^5 entries: the base primes from n/64 = 1563 up to
    # isqrt(hi) = 22365 are cleared by the kernel's whole-array steps
    lo = 5 * 10**8
    got = sieve_interval(lo, lo + 2 * 10**5)
    assert got.tolist() == [n for n in range(lo, lo + 2 * 10**5 + 1) if is_prime(n)]


def test_sieve_window_past_int64_is_refused(monkeypatch):
    # refused before any work: no segment is sieved, not even the base primes
    monkeypatch.setattr(primes, "_odd_segments", lambda lo, hi: pytest.fail("sieved"))
    with pytest.raises(MemoryError, match=r"2\*\*63"):
        sieve_interval(2**63, 2**63 + 10)
    with pytest.raises(MemoryError, match=r"2\*\*63"):
        primes_up_to(10**300)


def test_short_window_far_out_tests_each_odd_number(monkeypatch):
    # sieving 100 numbers below 2**63 would first list the base primes up to
    # 3.04e9; sieve_pays says Miller-Rabin is cheaper, as prime_mask would
    monkeypatch.setattr(primes, "_odd_segments", lambda lo, hi: pytest.fail("sieved"))
    tracemalloc.start()
    try:
        got = sieve_interval(2**63 - 100, 2**63 - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.dtype == np.int64 and got.tolist() == [2**63 - 25]
    assert peak < 2**20
    lo = 10**12 - 1000  # an even lo and hi, and the same numbers by the sieve
    assert sieve_interval(lo, lo + 2000).tolist() \
        == [n for n in range(lo, lo + 2001) if is_prime(n)]


@pytest.mark.parametrize("lo", [0, 1, 2, 3, 2**16 - 1, 2**16, 2**16 + 1, 2**21 - 1, 2**21 + 1,
                                10**6 + 1])
def test_first_primes_are_the_head_of_one_long_sieve(monkeypatch, lo):
    size = min(SEGMENT_SIZE, 9 * max(lo, 1))  # lo = 0 steps like lo = 1
    ref = sieve_interval(lo, lo + 3 * size).tolist()
    spans, depth = [], [0]
    original = primes.sieve_interval

    def recording(a, b):  # only first_primes' own windows, not base-prime sieves
        if not depth[0]:
            spans.append((a, b))
        depth[0] += 1
        try:
            return original(a, b)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(primes, "sieve_interval", recording)
    beyond = len([p for p in ref if p < lo + size]) + 1  # its last prime is in window 2
    for k in (0, 1, beyond):
        spans.clear()
        got = first_primes(lo, k)
        assert got.dtype == np.int64
        assert got.tolist() == ref[:k]
        assert spans == [(lo + i * size, lo + (i + 1) * size - 1) for i in range(len(spans))]
        if k:  # the last window sieved holds the k-th prime
            assert spans[-1][0] <= ref[k - 1] <= spans[-1][1]
        else:
            assert spans == []
    assert len(spans) >= 2


def test_primes_up_to_small():
    assert primes_up_to(10) == (2, 3, 5, 7)
    assert primes_up_to(1) == ()
    assert primes_up_to(0) == ()
    assert primes_up_to(2) == (2,)


def test_primes_up_to_gives_python_ints():
    table = primes_up_to(10**4)
    assert len(table) == 1229
    assert {type(p) for p in table} == {int}


def test_primes_up_to_million_cross_checked():
    table = primes_up_to(10**6)
    assert len(table) == 78498
    # full cross-check against an independently written sieve
    assert list(table) == naive_sieve(10**6)
    # trial-division recount on random samples
    rng = random.Random(12345)
    prime_set = set(table)
    for _ in range(1000):
        n = rng.randrange(2, 10**6)
        assert (n in prime_set) == trial_division_is_prime(n)


def test_segmented_interval_matches_naive(monkeypatch):
    top = 2 * SEGMENT_SIZE + 50_000
    ref = naive_sieve(top)
    # a segment holds the odd numbers of 2 * SEGMENT_SIZE integers from the
    # first odd n >= lo, so (3, top) crosses a segment boundary; from lo =
    # 1019 or 1018 the first segment ends at the prime 1019 + 2^21 - 2 and
    # the second starts at its twin, and the windows end around that boundary
    windows = [(2, 100), (90, 90), (1234, 6789), (49_000, 50_000), (10, 2),
               (3, top), (SEGMENT_SIZE - 1000, SEGMENT_SIZE + 1000)]
    boundary = 1019 + 2 * SEGMENT_SIZE
    assert {boundary - 2, boundary} <= set(ref)
    for lo in (1019, 1018):
        windows += [(lo, boundary + d) for d in (-3, -2, -1, 0, 1, 2)]
    for _ in table_settings(monkeypatch):
        for lo, hi in windows:
            expect = [p for p in ref if lo <= p <= hi]
            got = [int(p) for p in sieve_interval(lo, hi)]
            assert got == expect


def test_every_short_interval_matches_naive(monkeypatch):
    ref = naive_sieve(400)
    for _ in table_settings(monkeypatch):
        for lo in range(0, 401):
            for hi in range(lo - 3, 401):  # hi below lo gives no primes
                assert sieve_interval(lo, hi).tolist() == [p for p in ref if lo <= p <= hi]


def test_segments_join_to_the_naive_sieve(monkeypatch):
    # segments of 8 or 64 odd numbers, so every window crosses many
    # boundaries: the segments tile [lo, hi], odd or even lo, their
    # positions join to the odd primes, and holds reads the primes off every
    # integer of the window
    ref = naive_sieve(3000)
    for _ in table_settings(monkeypatch):
        for size in (8, 64):
            monkeypatch.setattr(primes, "SEGMENT_SIZE", size)
            for lo, hi in ((3, 3), (3, 2000), (1001, 1016), (1001, 1017), (2001, 3000),
                           (4, 4), (1000, 1016), (2000, 3000)):
                segs = list(primes._odd_segments(lo, hi))
                assert [s.lo for s in segs[1:]] == [s.hi + 1 for s in segs[:-1]]
                assert segs[0].lo == lo and segs[-1].hi == hi
                # from an even lo, each segment's odd numbers start one above it
                assert all(s.first == s.lo + 1 - s.lo % 2 and s.step == 2 for s in segs)
                got = np.concatenate([s.positions() for s in segs]).tolist()
                assert got == [p for p in ref if lo <= p <= hi]
                for s in segs:
                    ns = np.arange(s.lo, s.hi + 1, dtype=np.int64)
                    assert s.holds(ns).tolist() == [n in set(ref) for n in ns.tolist()]


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_holds_matches_membership(data):
    step = data.draw(st.sampled_from([1, 2]))
    lo = data.draw(st.one_of(st.integers(-1000, 1000), st.integers(2**62, 2**62 + 1000)))
    hi = lo + data.draw(st.integers(0, 100))
    first = lo + (data.draw(st.integers(0, 1)) if step == 2 else 0)
    interval = SiftedInterval.of(lo, hi, first, step)
    interval.bits[:] = data.draw(st.lists(st.booleans(), min_size=len(interval.bits),
                                          max_size=len(interval.bits)))
    held = set(interval.positions().tolist())
    assert held == {first + step * k for k, b in enumerate(interval.bits.tolist()) if b}
    values = data.draw(st.lists(st.integers(lo, hi), max_size=50))
    got = interval.holds(np.array(values, dtype=np.int64))
    assert got.dtype == bool and got.tolist() == [v in held for v in values]


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_keep_primes_matches_a_naive_filter(data):
    # segments of 8 odd numbers cross [lo, hi] many times; either layout,
    # either parity of lo and of the first position, random bits
    ref = set(naive_sieve(4000))
    step = data.draw(st.sampled_from([1, 2]))
    lo = data.draw(st.integers(3, 3000))
    hi = lo + data.draw(st.integers(0, 600))
    first = lo + (data.draw(st.integers(0, 1)) if step == 2 else 0)
    interval = SiftedInterval.of(lo, hi, first, step)
    bits = data.draw(st.lists(st.booleans(), min_size=len(interval.bits),
                              max_size=len(interval.bits)))
    interval.bits[:] = bits
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(primes, "SEGMENT_SIZE", data.draw(st.sampled_from([8, SEGMENT_SIZE])))
        mp.setattr(primes, "TABLE_LIMIT", data.draw(st.sampled_from([primes.TABLE_LIMIT, 0])))
        assert interval.keep_primes() == len([p for p in ref if lo <= p <= hi])
    assert interval.bits.tolist() == [b and first + step * k in ref for k, b in enumerate(bits)]
    with pytest.raises(ValueError, match="lo >= 3"):
        SiftedInterval.of(2, hi, 2, 1).keep_primes()


def naive_clear(first, step, size, entries):
    return [all((first + step * k) % p != a for p, a in entries) for k in range(size)]


def test_clear_in_python_ints_matches_a_naive_loop():
    rng = random.Random(36)
    odd = [3, 5, 7, 61, 67, 701, 2**61 - 1]
    # a first position at or beyond 2^63, with int64 moduli: 64 and more
    # classes too, which would take the kernel from an int64 first position
    many = sieve_interval(3, 600).tolist()
    for lo in (2**63, 2**63 + 1, 2**64 + 5, -(2**63) - 3):
        for moduli in (odd, many):
            entries = [(p, rng.randrange(p)) for p in moduli]
            interval = SiftedInterval.of(lo, lo + 800, lo | 1, 2)
            interval.clear(np.array(moduli, dtype=np.int64), np.array([a for _, a in entries]))
            assert interval.bits.tolist() == naive_clear(lo | 1, 2, len(interval.bits), entries)
    # object-array moduli, one beyond int64, on both layouts from an int64 first position
    moduli = np.empty(4, dtype=object)
    moduli[:] = [3, 7, 2**61 - 1, 2**78 - 11]
    for first, step in ((10, 1), (-(10**6) - 1, 2), (2**63 - 801, 2)):
        entries = [(p, (first + rng.randrange(400)) % p) for p in moduli.tolist()]
        classes = np.empty(4, dtype=object)
        classes[:] = [a for _, a in entries]
        interval = SiftedInterval.of(first, first + 800, first, step)
        interval.clear(moduli, classes)
        assert interval.bits.tolist() == naive_clear(first, step, len(interval.bits), entries)
    interval.clear(moduli[:0], classes[:0])  # no class: nothing changes
    assert interval.bits.tolist() == naive_clear(first, step, len(interval.bits), entries)


# every kind of modulus for bits of up to 700 entries: below the strided cut
# n/64, between it and n, at least n, and near 2^63
KERNEL_PRIMES = sieve_interval(3, 8000).tolist() + [2**61 - 1, 2**63 - 25]


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_clear_kernel_matches_a_naive_loop(data):
    # 64 classes or more on int64 arrays take the kernel
    step = data.draw(st.sampled_from([1, 2]))
    first = data.draw(st.one_of(st.integers(-(10**6), 10**6), st.integers(2**63 - 2000, 2**63 - 1),
                                st.integers(-(2**63), -(2**63) + 2000)))
    size = data.draw(st.integers(1, 700))
    moduli = data.draw(st.lists(st.sampled_from(KERNEL_PRIMES), min_size=64, max_size=120,
                                unique=True))
    if step == 1:
        moduli += data.draw(st.sampled_from([[], [2]]))
    entries = [(p, data.draw(st.integers(0, p - 1))) for p in moduli]
    interval = SiftedInterval.of(first, first + step * (size - 1), first, step)
    interval.clear(np.array(moduli, dtype=np.int64), np.array([a for _, a in entries]))
    assert interval.bits.tolist() == naive_clear(first, step, size, entries)


def test_clear_kernel_cuts_match_a_naive_loop():
    # the kernel's cuts on m = 64 * 67 bits: 61 < m/64 is strided, 67 = m/64
    # and 131, 701 and 64 more between m/64 and m step together (67 hits 64
    # times), and 4289 >= m hits once or not at all
    rng = random.Random(37)
    m = 64 * 67
    filler = rng.sample([p for p in sieve_interval(137, m - 1).tolist() if p != 701], 64)
    for step in (1, 2):
        for first in (0, 1, -(10**6) - 1):
            entries = [(61, 5), (67, 66), (131, 0), (701, 350), (4289, 4000), (4289, 4288)]
            entries += [(p, rng.randrange(p)) for p in filler]
            interval = SiftedInterval.of(first, first + step * (m - 1), first, step)
            interval.clear(np.array([p for p, _ in entries]), np.array([a for _, a in entries]))
            assert interval.bits.tolist() == naive_clear(first, step, m, entries)


def test_primorial_values():
    assert primorial(1) == 1
    assert primorial(0) == 1
    assert primorial(7) == 2 * 3 * 5 * 7 == 210
    assert primorial(13) == 2 * 3 * 5 * 7 * 11 * 13 == 30030
    assert primorial(2) == 2


def test_first_r_primes_tuple():
    assert admissible_tuple(1) == (2,)
    assert admissible_tuple(2) == (3, 5)
    assert admissible_tuple(5) == (7, 11, 13, 17, 19)
    with pytest.raises(ValueError):
        admissible_tuple(0)


def test_is_admissible_examples():
    assert not is_admissible((0, 1))  # both classes mod 2
    assert not is_admissible((0, 2, 4))  # 0,2,1 mod 3
    assert is_admissible((0, 2, 6))
    with pytest.raises(ValueError):
        is_admissible((1, 1))


def test_first_primes_tuples_admissible_to_200():
    for r in range(1, 201):
        assert is_admissible(admissible_tuple(r))


def test_span_bound_and_fallback():
    # the first r primes above r end at or below 2r^2 for every r, so no
    # fallback tuple is needed
    for r in range(1, 201):
        assert admissible_tuple(r)[-1] <= 2 * r * r


@given(st.integers(min_value=2, max_value=40), st.data())
@settings(max_examples=50, deadline=None)
def test_subsets_of_admissible_stay_admissible(r, data):
    t = admissible_tuple(r)
    size = data.draw(st.integers(min_value=1, max_value=r))
    subset = tuple(sorted(data.draw(
        st.lists(st.sampled_from(t), min_size=size, max_size=size, unique=True)
    )))
    assert is_admissible(subset)


def test_is_prime_matches_trial_division():
    for n in range(0, 2000):
        assert is_prime(n) == trial_division_is_prime(n)
    assert is_prime(2**61 - 1)  # Mersenne prime
    assert not is_prime(2**61 + 1)


# psi_12 and psi_13, the least strong pseudoprimes to the first 12 and 13
# prime bases, with their factors
PSI_12 = 318_665_857_834_031_151_167_461
PSI_13 = 3_317_044_064_679_887_385_961_981


def test_is_prime_refuses_values_beyond_its_bases():
    assert PSI_12 == primes.MR_LIMIT == 399_165_290_221 * 798_330_580_441
    assert PSI_13 == 1_287_836_182_261 * 2_575_672_364_521
    assert is_prime(2**78 - 11) and not is_prime(2**78 + 1)  # both below psi_12
    assert not is_prime(PSI_12 - 1)
    for n in (PSI_12, PSI_13, 2**89 - 1):
        with pytest.raises(ValueError, match=f"primality of {n} is not proven"):
            is_prime(n)
        with pytest.raises(ValueError, match=f"primality of {n} is not proven"):
            prime_mask([3, n])


def test_prime_mask_matches_is_prime():
    for values in (range(-5, 5000), [3, 2**61 - 1, 2**61 + 1, 10**12 + 39]):
        mask = prime_mask(values)
        assert mask.dtype == bool
        assert mask.tolist() == [is_prime(v) for v in values]
    assert prime_mask([]).shape == (0,)


def test_prime_mask_dense_run_uses_one_sieve(monkeypatch):
    import gapsieve.primes as primes

    values = [int(p) for p in sieve_interval(2, 1_100_000)]
    values[1000:1000] = [561, 1009**2]
    expected = [is_prime(v) for v in values]
    assert expected.count(False) == 2

    def refuse(n):
        raise AssertionError("dense input went through is_prime")

    monkeypatch.setattr(primes, "is_prime", refuse)
    assert prime_mask(values).tolist() == expected


def test_prime_mask_sparse_values_use_is_prime(monkeypatch):
    import gapsieve.primes as primes

    # four values over a span of 1e12: a sieve would cost far more than
    # four Miller-Rabin tests
    values = [10**12 + 39, 3, 561, 10**6 + 3]
    expected = [trial_division_is_prime(v) for v in values]
    assert expected == [True, True, False, True]

    def refuse(lo, hi):
        raise AssertionError("sparse input went through the sieve")

    monkeypatch.setattr(primes, "sieve_interval", refuse)
    assert prime_mask(values).tolist() == expected


def test_sieve_pays_picks_the_sieve_for_dense_spans_only():
    # the survivors of construct 100000000 --stage3 none: 12,677,170 values
    # over 576,102,985 integers above 1e8 (this charges 6.3e8 to the sieve
    # and 8.1e8 to Miller-Rabin)
    assert primes.sieve_pays(12_677_170, 10**8 + 1, 10**8 + 576_102_985)
    assert not primes.sieve_pays(4, 3, 10**12 + 39)
    assert not primes.sieve_pays(1, 2**61 + 1, 2**61 + 1)
    # the dense run of test_prime_mask_dense_run_uses_one_sieve
    assert primes.sieve_pays(85_716, 2, 1_100_000)


def test_prime_mask_reads_segment_flags_in_input_order(monkeypatch):
    # segments of 8 odd numbers (16 integers), counted from the smallest odd
    # value >= 3, so values fall on both edges of many segments
    rng = random.Random(26)
    for first in (3, 1001):
        edges = [first + 16 * k + d for k in range(20) for d in (0, 14, 16)]
        values = edges + [0, 1, 2, 2, -1, -2, -7, 4, 100, 97, 97, first + 14, first + 996]
        values += rng.sample(range(-20, first + 400), 150)
        rng.shuffle(values)
        expected = [trial_division_is_prime(v) for v in values]
        for _ in table_settings(monkeypatch):
            with monkeypatch.context() as mp:
                mp.setattr(primes, "SEGMENT_SIZE", 8)
                mp.setattr(primes, "sieve_pays", lambda count, lo, hi: True)
                mp.setattr(primes, "is_prime", lambda n: pytest.fail("went through is_prime"))
                assert prime_mask(values).tolist() == expected
                order = sorted(range(len(values)), key=values.__getitem__)
                assert (prime_mask([values[i] for i in order]).tolist()
                        == [expected[i] for i in order])
                assert prime_mask([0, 1, 2, -3, 4]).tolist() == [False, False, True, False, False]


def test_prime_mask_around_the_table_limit(monkeypatch):
    limit = primes.TABLE_LIMIT
    rng = random.Random(29)
    near = [limit + d for d in range(-40, 41)] + [65521, 65537, 65539, 65543, 65536]
    values = near + [0, 1, 2, 3, -1, -2, -65537, 4, 97, 65535] + rng.sample(range(-10, limit), 200)
    below = [v for v in values if v <= limit]
    for vals in (values, below):
        expected = [is_prime(v) for v in vals]
        shuffled = list(range(len(vals)))
        rng.shuffle(shuffled)
        for order in (shuffled, sorted(shuffled, key=vals.__getitem__)):
            got = prime_mask(np.array([vals[i] for i in order]))
            assert got.dtype == bool
            assert got.tolist() == [expected[i] for i in order]
    # values up to the limit are read from the table: no sieve, no Miller-Rabin
    monkeypatch.setattr(primes, "_odd_segments", lambda lo, hi: pytest.fail("sieved"))
    monkeypatch.setattr(primes, "is_prime", lambda n: pytest.fail("went through is_prime"))
    assert prime_mask(below).tolist() == [trial_division_is_prime(v) for v in below]
