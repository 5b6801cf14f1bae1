"""Tests for prime generation, primorials, admissible tuples."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapsieve import primes
from gapsieve.primes import (
    SEGMENT_SIZE,
    admissible_tuple,
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
