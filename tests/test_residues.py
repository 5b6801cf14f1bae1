"""Tests for sifting, covered prefixes, CRT assembly, and the file format."""

import json
import math
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapsieve import residues
from gapsieve.oracle import exact_Y
from gapsieve.pipeline import StagedConfig, run_pipeline
from gapsieve.primes import is_prime, sieve_interval
from gapsieve.residues import (
    CoverageError,
    ResidueSystem,
    assemble_gap,
    covered_prefix_length,
    crt_combine,
    crt_merge,
    sift,
    system_from_json,
    system_to_json,
    write_system_file,
)

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def test_residue_system_validation():
    with pytest.raises(ValueError):
        ResidueSystem({4: 1})  # composite modulus
    with pytest.raises(ValueError):
        ResidueSystem({5: 5})  # residue out of range
    with pytest.raises(ValueError):
        ResidueSystem({5: -1})


def test_merged_rejects_overlap():
    a = ResidueSystem({2: 0})
    b = ResidueSystem({2: 1})
    with pytest.raises(ValueError):
        a.merged(b)
    c = a.merged(ResidueSystem({3: 1}))
    assert c.entries == {2: 0, 3: 1}


def test_merged_equals_the_checked_constructor(monkeypatch):
    rng = random.Random(11)
    a = ResidueSystem({p: rng.randrange(p) for p in SMALL_PRIMES[:8]})
    b = ResidueSystem({p: rng.randrange(p) for p in SMALL_PRIMES[8:]})
    checked = ResidueSystem({**a.entries, **b.entries})

    def refuse(*args, **kwargs):
        raise AssertionError("merged proved its moduli again")

    monkeypatch.setattr(residues, "prime_mask", refuse)
    union = a.merged(b)
    assert union == checked
    assert list(union.entries.items()) == list(checked.entries.items())
    monkeypatch.undo()
    # direct construction still proves each modulus and range-checks each class
    with pytest.raises(ValueError, match="modulus 49 is not prime"):
        ResidueSystem({**union.entries, 49: 1})
    with pytest.raises(ValueError, match="residue 53 out of range"):
        ResidueSystem({**union.entries, 53: 53})


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_constructor_keeps_private_arrays_sorted_or_not(dtype, monkeypatch):
    big = 2**78 - 11 if dtype is object else 13  # object arrays need a value past int64
    moduli, classes = [3, 5, 7, 11, big], [2, 4, 6, 10, big - 1]
    for order in ([0, 1, 2, 3, 4], [4, 2, 0, 3, 1]):
        p = np.array([moduli[i] for i in order], dtype=dtype)
        a = np.array([classes[i] for i in order], dtype=dtype)
        system = ResidueSystem(moduli=p, classes=a)
        assert system.moduli.dtype == dtype
        p[:] = 17
        a[:] = 0
        assert system.moduli.tolist() == moduli and system.classes.tolist() == classes
        assert not (system.moduli.flags.writeable or system.classes.flags.writeable)
    for twice in ([3, 5, 5, big], [big, 5, 3, 5], [3, 7, big, big], [big, 3, big, 7]):
        repeated = 5 if 5 in twice else big
        with pytest.raises(ValueError, match=rf"moduli assigned twice: \[{repeated}\]"):
            ResidueSystem(moduli=np.array(twice, dtype=dtype),
                          classes=np.array([1, 1, 1, 1], dtype=dtype))

    def refuse(*args, **kwargs):
        raise AssertionError("sorted moduli sorted again")

    monkeypatch.setattr(np, "argsort", refuse)  # strictly increasing moduli skip the sort
    sorted_system = ResidueSystem(moduli=np.array(moduli, dtype=dtype),
                                  classes=np.array(classes, dtype=dtype))
    assert ResidueSystem({2: 1}).merged(sorted_system).moduli.tolist() == [2] + moduli


# primes and composites of every size class: int64 and beyond, below and
# inside the span of the others
ROUTE_MODULI = [2, 3, 5, 7, 11, 13, 4, 9, 561, 7919, 2**61 - 1, 2**61 + 1,
                2**63 + 29, 2**78 - 11, 2**78 + 1]


def expected_fault(pairs):
    """The message the constructor gives for (p, a) pairs, or None: a
    modulus twice, else the smallest composite modulus, else the class of
    the smallest modulus that is out of range."""
    moduli = [p for p, _ in pairs]
    twice = sorted({p for p in moduli if moduli.count(p) > 1})
    if twice:
        return f"moduli assigned twice: {twice}"
    for p, a in sorted(pairs):
        if p in (4, 9, 561, 2**61 + 1, 2**78 + 1):
            return f"modulus {p} is not prime"
    for p, a in sorted(pairs):
        if not 0 <= a < p:
            return f"residue {a} out of range for modulus {p}"
    return None


def built(make):
    """(system, None) or (None, the ValueError message)."""
    try:
        return make(), None
    except ValueError as err:
        return None, str(err)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_mapping_arrays_and_merged_build_equal_systems(data):
    moduli = data.draw(st.lists(st.sampled_from(ROUTE_MODULI), max_size=8))
    pairs = [(p, data.draw(st.one_of(st.integers(0, p - 1), st.sampled_from([-1, p, p + 2**64]))))
             for p in moduli]
    message = expected_fault(pairs)
    classes = [a for _, a in pairs]
    fits = all(-(2**63) <= v < 2**63 for v in moduli + classes)
    arrays, err = built(lambda: ResidueSystem(moduli=moduli, classes=classes))
    assert err == message
    if message is None:
        assert arrays.moduli.dtype == arrays.classes.dtype == (np.int64 if fits else object)
        assert arrays.moduli.tolist() == sorted(moduli)
        assert arrays.entries == dict(pairs)
    if len(set(moduli)) == len(moduli):
        mapping, err = built(lambda: ResidueSystem(dict(pairs)))
        assert err == message and mapping == arrays
    if fits:  # int64 arrays in
        as_int64, err = built(lambda: ResidueSystem(moduli=np.array(moduli, dtype=np.int64),
                                                    classes=np.array(classes, dtype=np.int64)))
        assert err == message and as_int64 == arrays


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_merged_matches_the_constructor_on_valid_parts(data):
    moduli = data.draw(st.lists(st.sampled_from([p for p in ROUTE_MODULI
                                                 if expected_fault([(p, 0)]) is None]),
                                max_size=8))
    pairs = [(p, data.draw(st.integers(0, p - 1))) for p in moduli]
    cut = data.draw(st.integers(0, len(pairs)))
    left, right = pairs[:cut], pairs[cut:]
    if len({p for p, _ in left}) < len(left) or len({p for p, _ in right}) < len(right):
        return  # each part must be a valid system on its own
    a = ResidueSystem(moduli=[p for p, _ in left], classes=[c for _, c in left])
    b = ResidueSystem(moduli=[p for p, _ in right], classes=[c for _, c in right])
    whole, err = built(lambda: ResidueSystem(moduli=moduli, classes=[c for _, c in pairs]))
    union, merge_err = built(lambda: a.merged(b))
    assert merge_err == err == expected_fault(pairs)
    if err is None:
        assert union == whole
        assert union.moduli.dtype == whole.moduli.dtype
        assert b.merged(a) == whole


def test_residue_system_equality_and_view():
    a = ResidueSystem({3: 1, 2: 0})
    assert a == ResidueSystem(moduli=[2, 3], classes=[0, 1])
    assert a == ResidueSystem(moduli=np.array([3, 2]), classes=np.array([1, 0]))
    assert a != ResidueSystem({2: 0, 3: 2}) and a != ResidueSystem({2: 0})
    assert a != {2: 0, 3: 1}  # a system is not its mapping
    # dtype-agnostic: the same classes held as Python ints compare equal
    wide = ResidueSystem({2: 0, 3: 1, 2**78 - 11: 5})
    assert wide.moduli.dtype == object
    assert ResidueSystem({2: 0, 3: 1}).merged(ResidueSystem({2**78 - 11: 5})) == wide
    assert ResidueSystem(moduli=np.array([2, 3], dtype=object),
                         classes=np.array([0, 1], dtype=object)) == a
    with pytest.raises(TypeError):
        hash(a)
    assert list(a.entries.items()) == [(2, 0), (3, 1)]  # sorted by modulus
    with pytest.raises(TypeError):
        a.entries[5] = 1
    with pytest.raises(AttributeError):
        a.moduli = np.array([5])
    with pytest.raises(ValueError):
        a.moduli[0] = 5
    with pytest.raises(TypeError):
        ResidueSystem({2: 0}, moduli=[2], classes=[0])
    with pytest.raises(TypeError):
        ResidueSystem(moduli=[2])
    with pytest.raises(ValueError, match="one length"):
        ResidueSystem(moduli=[2, 3], classes=[0])
    assert len(ResidueSystem()) == 0 and ResidueSystem() == ResidueSystem({})


def test_sift_examples():
    assert sift(ResidueSystem({2: 0}), 1, 10).positions().tolist() == [1, 3, 5, 7, 9]
    assert sift(ResidueSystem({2: 1, 3: 0}), 1, 10).positions().tolist() == [2, 4, 8, 10]
    assert sift(ResidueSystem({2: 1, 3: 2}), 1, 3).positions().tolist() == []
    assert all(type(v) is int for v in sift(ResidueSystem({2: 0}), 1, 10).positions().tolist())


def test_sift_matches_naive_double_loop():
    rng = random.Random(777)
    for _ in range(200):
        k = rng.randrange(1, 8)
        entries = {}
        for p in rng.sample(SMALL_PRIMES, k):
            entries[p] = rng.randrange(p)
        sys = ResidueSystem(entries)
        lo = rng.randrange(1, 500)
        hi = lo + rng.randrange(0, 10_000)
        got = sift(sys, lo, hi).survivors
        for n in range(lo, hi + 1):
            naive = all(n % p != a for p, a in entries.items())
            assert got[n - lo] == naive


# moduli of every kind relative to an interval of n <= 700 positions: below
# the strided cut n/64, between it and n, at least n, and beyond 2^63
KERNEL_MODULI = (SMALL_PRIMES + [53, 211, 691, 701, 997, 7919]
                 + [2**61 - 1, 2**63 + 29, 2**78 - 11])


def naive_survivors(entries, lo, hi):
    return [all(n % p != a for p, a in entries.items()) for n in range(lo, hi + 1)]


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_sift_kernel_matches_naive_double_loop(data):
    moduli = data.draw(st.lists(st.sampled_from(KERNEL_MODULI), max_size=10, unique=True))
    entries = {p: data.draw(st.integers(0, p - 1)) for p in moduli}
    lo = data.draw(st.one_of(st.integers(-2000, 2000), st.integers(-(2**70), 2**70),
                             st.integers(-(2**63), -(2**63) + 2000),  # int64's edges
                             st.integers(2**63 - 2000, 2**63 + 2000)))
    hi = lo + data.draw(st.integers(0, 700))  # includes lo == hi
    # SIFT_CHUNK = 64 reads eight classes at a time
    chunk = data.draw(st.sampled_from([64, residues.SIFT_CHUNK]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(residues, "SIFT_CHUNK", chunk)
        system = ResidueSystem(entries)
        # a modulus beyond int64 holds the system in object arrays
        assert (system.moduli.dtype == object) == any(p >= 2**63 for p in entries)
        got = sift(system, lo, hi)
        # the same bits from two halves of the system, the second cleared in place
        half = dict(list(entries.items())[: len(entries) // 2])
        rest = {p: a for p, a in entries.items() if p not in half}
        first = sift(ResidueSystem(half), lo, hi)
        again = sift(ResidueSystem(rest), lo, hi, first)
    assert got.survivors.tolist() == naive_survivors(entries, lo, hi)
    assert again is first
    assert again.survivors.tolist() == got.survivors.tolist()


def test_sift_kernel_edge_cases(monkeypatch):
    # a modulus beyond int64 sends every class through Python ints, also
    # when it comes after classes already cleared (eight classes per read)
    entries = {2: 1, 3: 0, 2**61 - 1: 5, 2**78 - 11: 7}
    assert sift(ResidueSystem(entries), 1, 20).survivors.tolist() == naive_survivors(entries, 1, 20)
    with monkeypatch.context() as mp:
        mp.setattr(residues, "SIFT_CHUNK", 64)
        assert sift(ResidueSystem(entries), 1, 20).survivors.tolist() == naive_survivors(entries, 1, 20)
    assert sift(ResidueSystem({}), 5, 5).positions().tolist() == [5]
    # p >= n hits once or not at all (start >= n)
    assert sift(ResidueSystem({101: 7}), 1, 10).positions().tolist() == [n for n in range(1, 11) if n != 7]
    assert sift(ResidueSystem({101: 50}), 1, 10).count() == 10
    # p = n/64 exactly hits 64 positions (the kernel's cuts, with 64 classes
    # or more, are in tests/test_primes.py)
    for p in (61, 67):
        got = sift(ResidueSystem({p: 3}), 0, 64 * 67 - 1)
        assert got.survivors.tolist() == naive_survivors({p: 3}, 0, 64 * 67 - 1)
    # 2's class alone and with odd moduli, from every parity of lo, over
    # 1 to 3 positions: the view of the other parity may be empty
    for a2 in (0, 1):
        for entries in ({2: a2}, {2: a2, 3: 1, 5: 4}):
            for lo in (10, 11, -7, -8):
                for n in (1, 2, 3):
                    got = sift(ResidueSystem(entries), lo, lo + n - 1)
                    assert got.survivors.tolist() == naive_survivors(entries, lo, lo + n - 1)
    # with 2 the odd moduli see a view of m = ceil(n/2) or floor(n/2) entries:
    # here m = 64 * 67, so 61 < m/64, 67 = m/64, 131 and 701 lie between m/64
    # and m, and 4289 >= m hits once
    n = 2 * 64 * 67
    for a2 in (0, 1):
        entries = {2: a2, 61: 5, 67: 66, 131: 0, 701: 350, 4289: 4000}
        for lo in (0, 1, -(10**6) - 1):
            for chunk in (64, residues.SIFT_CHUNK):
                with monkeypatch.context() as mp:
                    mp.setattr(residues, "SIFT_CHUNK", chunk)
                    got = sift(ResidueSystem(entries), lo, lo + n - 1)
                    assert got.survivors.tolist() == naive_survivors(entries, lo, lo + n - 1)
                    # in place: 2 and half the odd moduli cleared on bits another system left
                    first = sift(ResidueSystem({61: 5, 67: 66}), lo, lo + n - 1)
                    rest = {p: a for p, a in entries.items() if p not in (61, 67)}
                    again = sift(ResidueSystem(rest), lo, lo + n - 1, first)
                    assert again is first
                    assert again.survivors.tolist() == got.survivors.tolist()
    # the parity 2 leaves' first position lo + 1 may be 2^63, beyond int64
    for a2 in (0, 1):
        entries = {2: a2, 3: 2, 2**61 - 1: 12345}
        for lo in (2**63 - 2, 2**63 - 1):
            got = sift(ResidueSystem(entries), lo, lo + 40)
            assert got.survivors.tolist() == naive_survivors(entries, lo, lo + 40)
    with pytest.raises(ValueError, match="lo must be <= hi"):
        sift(ResidueSystem({2: 0}), 3, 2)
    with pytest.raises(ValueError, match="interval mismatch"):
        sift(ResidueSystem({2: 0}), 1, 4, sift(ResidueSystem({}), 1, 3))


def test_sift_kernel_across_many_blocks(monkeypatch):
    # every prime up to 30,000 over 20,000 positions, read 1,024 classes at
    # a time: 2 leaves 10,000 odd positions, on which 35 classes are
    # strided, 1,193 stepped and 2,016 have p >= n; the reference tests each
    # class by division
    monkeypatch.setattr(residues, "SIFT_CHUNK", 8 * 1024)
    rng = random.Random(8)
    entries = {int(p): rng.randrange(p) for p in sieve_interval(2, 30_000)}
    lo, hi = 10**12 + 7, 10**12 + 20_006
    ns = np.arange(lo, hi + 1, dtype=np.int64)
    expected = np.ones(len(ns), dtype=bool)
    for p, a in entries.items():
        expected &= ns % p != a
    assert len(entries) > 3 * (residues.SIFT_CHUNK // 8)
    assert (sift(ResidueSystem(entries), lo, hi).survivors == expected).all()


def assert_sifts_naively(got, entries, lo, hi):
    """got holds the bits of [lo, hi] under entries, read every way."""
    naive = naive_survivors(entries, lo, hi)
    listed = [n for n, keep in zip(range(lo, hi + 1), naive) if keep]
    assert got.survivors.tolist() == naive
    assert got.count() == len(listed)
    assert got.first_survivor() == (listed[0] if listed else None)
    if -(2**63) <= lo and hi < 2**63:
        positions = got.positions()
        assert positions.dtype == np.int64 and positions.tolist() == listed


def test_sift_step_kernel_against_naive():
    rng = random.Random(26)

    def primes_in(a, b, k):
        return rng.sample(sieve_interval(a, b).tolist(), k)

    n = 3840  # n/64 = 60: 59 is strided, 61 is stepped
    cases = [
        # 60 moduli with 10 to 63 hits and 40 with 4 to 9 keep 64 or more
        # live for at least 4 steps; fewer than 64 are left by step 10 and
        # sliced
        primes_in(61, 400, 60) + primes_in(400, 960, 40),
        # n/64 - 1 and n/64 + 1, beside 70 stepped moduli
        [59, 61] + primes_in(62, n // 2, 70),
        # 80 moduli >= n: each hits at most once
        primes_in(n, 5 * n, 80),
        # the three kinds in one read, with strided ones below n/64
        primes_in(3, 59, 10) + primes_in(61, n - 1, 100) + primes_in(n, 3 * n, 40),
    ]
    for moduli in cases:
        for lo in (1, 10**12 + 1, -(10**6)):
            hi = lo + n - 1
            # classes whose first hit is inside [lo, hi]
            entries = {p: (lo + rng.randrange(min(p, n))) % p for p in moduli}
            assert_sifts_naively(sift(ResidueSystem(entries), lo, hi), entries, lo, hi)
            # with 2, the same moduli act on n/2 leaves
            for a2 in (0, 1):
                both = {2: a2, **entries}
                assert_sifts_naively(sift(ResidueSystem(both), lo, hi), both, lo, hi)
    # 64 or more int64 moduli within 2^12 of 2^63, each >= n: starts near
    # 2^63 never step on, so nothing wraps
    huge = [p for p in range(2**63 - 4095, 2**63, 2) if is_prime(p)]
    assert len(huge) >= 64
    for lo in (0, 2**63 - 5000, 2**63 - 701, -(2**63)):
        hi = lo + 700
        entries = {p: (lo + rng.randrange(701)) % p for p in huge}
        for extra in ({}, {2: 1}, {3: 2}):
            system = ResidueSystem({**entries, **extra})
            assert system.moduli.dtype == np.int64
            assert_sifts_naively(sift(system, lo, hi), {**entries, **extra}, lo, hi)


def test_sift_in_place_on_leaves():
    rng = random.Random(27)
    odd = {p: rng.randrange(p) for p in (3, 5, 7, 61, 67, 131, 701, 4289)}
    for lo in (0, 1, -(10**6) - 1, 2**63 - 3000):
        hi = lo + 2 * 64 * 67 - 1 - (lo & 1)  # odd and even lengths
        for a2 in (0, 1):
            leaves = {2: a2, 13: 1}
            first = sift(ResidueSystem(leaves), lo, hi)
            assert first.step == 2 and len(first.bits) == len(range(first.first, hi + 1, 2))
            # a second system with 2's class on the other side of the
            # leaves, on them (so every bit clears), or with no class mod 2
            for second in ({2: a2, **odd}, {2: 1 - a2, **odd}, odd,
                           {2: a2, 2**78 - 11: 5, 7: 3},  # object arrays
                           {2: 1 - a2, 2**78 - 11: 5, 7: 3},
                           {2**78 - 11: 5, 2**63 + 29: (lo + 4) % (2**63 + 29)}):
                system = ResidueSystem(second)
                got = sift(system, lo, hi, replace(first, bits=first.bits.copy()))
                union = {**second, 13: 1}
                union[2] = a2 if 2 not in second or second[2] == a2 else None
                if union[2] is None:  # both parities cleared
                    assert got.count() == 0
                else:
                    assert_sifts_naively(got, union, lo, hi)
                    assert got.count() == sift(ResidueSystem(union), lo, hi).count()
        # full bits (no class mod 2) sifted in place by a system with one
        full = sift(ResidueSystem(odd), lo, hi)
        assert full.step == 1 and full.first == lo
        again = sift(ResidueSystem({2: 1, 11: 4, 2**78 - 11: 9}), lo, hi, full)
        assert again is full
        assert_sifts_naively(again, {**odd, 2: 1, 11: 4, 2**78 - 11: 9}, lo, hi)


def test_covered_prefix_length_examples():
    assert covered_prefix_length(ResidueSystem({2: 1, 3: 2})) == 3
    assert covered_prefix_length(ResidueSystem({})) == 0
    # exhaustive check: 8 = 0 mod 2, 2 mod 3, 3 mod 5, 1 mod 7 escapes
    # every class of {2->1, 3->0, 5->2, 7->4}, so the prefix stops at 7
    assert covered_prefix_length(ResidueSystem({2: 1, 3: 0, 5: 2, 7: 4})) == 7
    # an optimal witness for x = 7 reaches the oracle value 9
    assert covered_prefix_length(ResidueSystem({2: 1, 3: 2, 5: 4, 7: 6})) == 9
    assert exact_Y(7).Y == 9


def test_covered_prefix_is_first_survivor_minus_one():
    rng = random.Random(31)
    for _ in range(50):
        entries = {p: rng.randrange(p) for p in rng.sample(SMALL_PRIMES, 4)}
        sys = ResidueSystem(entries)
        y = covered_prefix_length(sys)
        window = sift(sys, 1, y + 1)
        assert window.first_survivor() == y + 1
        if y:
            assert sift(sys, 1, y).count() == 0


def test_crt_combine_examples():
    assert crt_combine([(1, 2), (1, 3)]) == (1, 6)
    assert crt_combine([(1, 2), (2, 3), (3, 5)]) == (23, 30)
    with pytest.raises(ValueError):
        crt_combine([(0, 2), (0, 4)])
    assert crt_combine([]) == (0, 1)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_crt_combine_satisfies_all_congruences(data):
    moduli = data.draw(
        st.lists(st.sampled_from(SMALL_PRIMES), min_size=1, max_size=6, unique=True)
    )
    congruences = [(data.draw(st.integers(0, m - 1)), m) for m in moduli]
    r, M = crt_combine(congruences)
    prod = 1
    for _, m in congruences:
        prod *= m
    assert M == prod
    assert 0 <= r < M
    for a, m in congruences:
        assert r % m == a % m


@given(st.integers(1, 36), st.integers(1, 36), st.data())
@settings(max_examples=200, deadline=None)
def test_crt_merge_matches_brute_force(m1, m2, data):
    # moduli up to 36 share factors often (e.g. 12 and 18), so both the
    # compatible and the incompatible case come up
    r1 = data.draw(st.integers(-50, 50))
    r2 = data.draw(st.integers(-50, 50))
    lcm = m1 * m2 // math.gcd(m1, m2)
    solutions = [n for n in range(lcm) if n % m1 == r1 % m1 and n % m2 == r2 % m2]
    merged = crt_merge((r1, m1), (r2, m2))
    if solutions:
        assert merged == (solutions[0], lcm) and len(solutions) == 1
    else:
        assert merged is None


def test_assemble_gap_toy():
    cert = assemble_gap(ResidueSystem({2: 1, 3: 2}), 3)
    # hand CRT: m = 1 mod 6, m in (3, 9]
    assert cert.m == 7
    assert cert.run_length == 3
    for t, p in cert.witnesses:
        assert (cert.m + t) % p == 0
        assert cert.m + t > p


def test_assemble_gap_empty():
    cert = assemble_gap(ResidueSystem({}), 2)
    assert cert.run_length == 0
    assert 2 < cert.m <= 4


def test_assemble_gap_congruences_and_bounds():
    res = exact_Y(11)
    cert = assemble_gap(res.witness, 11)
    for p, a in res.witness.entries.items():
        assert cert.m % p == (-a) % p
    P11 = 2 * 3 * 5 * 7 * 11
    assert 11 < cert.m <= 11 + P11
    assert cert.run_length == res.Y


def test_assemble_gap_rejects_oversized_moduli():
    with pytest.raises(ValueError):
        assemble_gap(ResidueSystem({5: 1}), 3)


def test_full_gap_realization_x13():
    res = exact_Y(13)
    assert res.Y == 21
    cert = assemble_gap(res.witness, 13)
    assert cert.run_length == 21
    assert 13 < cert.m <= 30043
    # every m+t certified composite by its witness divisor
    assert len(cert.witnesses) == 21
    for t, p in cert.witnesses:
        assert (cert.m + t) % p == 0 and cert.m + t > p
    # the enclosing true prime gap has length >= run + 1
    primes = [int(p) for p in sieve_interval(2, 30100)]
    below = max(p for p in primes if p <= cert.m)
    above = min(p for p in primes if p > cert.m + 21)
    assert above - below >= 22


def per_position_gap(sys, x):
    """The assembly one position at a time: for each t in [1, y], the first
    class in modulus order that divides m + t.  Kept as the reference for
    assemble_gap's one strided pass over the classes."""
    entries = sorted(sys.entries.items())
    for p, _ in entries:
        if p > x:
            raise ValueError(f"modulus {p} exceeds x = {x}")
    y = covered_prefix_length(sys)
    residue, modulus = crt_combine([((-a) % p, p) for p, a in entries])
    m = x + 1 + (residue - (x + 1)) % modulus
    witnesses = []
    for t in range(1, y + 1):
        for p, _ in entries:
            if (m + t) % p == 0:
                if m + t <= p:
                    raise CoverageError(t)
                witnesses.append((t, p))
                break
        else:
            raise CoverageError(t)
    return residues.GapCertificate(m=m, run_length=y, witnesses=tuple(witnesses))


def test_assemble_gap_matches_per_position_reference():
    for x in range(2, 18):  # the exact_Y witnesses
        witness = exact_Y(x).witness
        assert assemble_gap(witness, x) == per_position_gap(witness, x)
    rng = random.Random(12)
    shared = 0  # covered positions that more than one modulus divides
    for _ in range(300):  # hand-built systems
        x = rng.choice(SMALL_PRIMES[3:])
        primes = [p for p in SMALL_PRIMES if p <= x]
        chosen = rng.sample(primes, rng.randrange(len(primes) + 1))
        entries = {p: rng.choice([0, 1, p - 1, rng.randrange(p)]) for p in chosen}
        cert = assemble_gap(ResidueSystem(entries), x)
        assert cert == per_position_gap(ResidueSystem(entries), x)
        shared += sum(sum(t % p == a for p, a in entries.items()) > 1
                      for t in range(1, cert.run_length + 1))
    assert shared > 100
    with pytest.raises(ValueError, match="modulus 7 exceeds x = 5$"):
        assemble_gap(ResidueSystem({2: 1, 7: 3, 11: 0}), 5)


def test_system_file_roundtrip():
    sys = ResidueSystem({2: 1, 3: 2, 13: 5})
    text = system_to_json(13, sys)
    x, back, interval = system_from_json(text)
    assert x == 13
    assert back.entries == sys.entries
    assert interval is None and "interval" not in text
    # classes must come out sorted by modulus
    assert text.index("[2,") < text.index("[3,") < text.index("[13,")
    text = system_to_json(13, sys, (14, 20))
    assert text.startswith('{"x":13,"interval":[14,20],"classes":')
    x, back, interval = system_from_json(text)
    assert (x, back.entries, interval) == (13, sys.entries, (14, 20))


def dumps_reference(x, sys, interval=None):
    """The document json.dumps writes from one list per class: the byte
    reference for system_to_json."""
    doc = {"x": int(x)}
    if interval is not None:
        doc["interval"] = [int(interval[0]), int(interval[1])]
    doc["classes"] = [[int(p), int(a)] for p, a in sorted(sys.entries.items())]
    return json.dumps(doc, separators=(",", ":")) + "\n"


def test_system_file_bytes_equal_json_dumps():
    rng = random.Random(4)
    primes = sieve_interval(2, 5000).tolist()
    # the writer runs on uint32 up to the largest prime below 2^32 and on
    # int64 from the first prime above it
    for sys in (ResidueSystem({}), ResidueSystem({2: 1}),
                ResidueSystem({p: rng.randrange(p) for p in rng.sample(primes, 300)}),
                ResidueSystem({3: 2, 4_294_967_291: 4_294_967_290}),
                ResidueSystem({3: 0, 4_294_967_291: 0, 4_294_967_311: 4_294_967_310})):
        for interval in (None, (14, 20), (10**6 + 1, 5_250_000)):
            assert system_to_json(10**6, sys, interval) == dumps_reference(10**6, sys, interval)


# 22 primes in chunks of 7: the digit width grows inside the first three
# chunks (7 | 11, 997 | 1009, 99991 | 100003) and across each chunk
# boundary (97 | 101, 9973 | 10007, 1000003 | 2^61 - 1)
CHUNKED_PRIMES = [2, 3, 5, 7, 11, 13, 97,
                  101, 103, 107, 997, 1009, 1013, 9973,
                  10007, 10009, 99991, 100003, 100019, 999983, 1000003,
                  2**61 - 1]


def chunked_systems():
    """Systems of 0, 1, 6, 7, 8, 14, 15 and 22 classes over CHUNKED_PRIMES,
    and for each nonempty one an object-array system whose last modulus is
    beyond int64 (for 8, 15 and 22 classes, the first of a chunk)."""
    rng = random.Random(9)

    def system(moduli):
        return ResidueSystem(moduli=moduli, classes=[
            (0, p - 1, rng.randrange(p))[i % 3] for i, p in enumerate(moduli)])

    for k in (0, 1, 6, 7, 8, 14, 15, 22):
        yield system(CHUNKED_PRIMES[:k])
        if k:
            yield system(CHUNKED_PRIMES[: k - 1] + [(2**63 + 29, 2**78 - 11)[k % 2]])


def test_chunked_writer_matches_json_dumps(monkeypatch, tmp_path):
    monkeypatch.setattr(residues, "SYSTEM_TEXT_CHUNK", 7)
    systems = list(chunked_systems())
    assert [len(s) for s in systems] == [0, 1, 1, 6, 6, 7, 7, 8, 8, 14, 14, 15, 15, 22, 22]
    assert sum(s.moduli.dtype == object for s in systems) == 7
    path = tmp_path / "system.json"
    for sys in systems:
        for interval in (None, (14, 20), (2**70, 2**70 + 5)):
            text = system_to_json(10**6, sys, interval)
            assert text == dumps_reference(10**6, sys, interval)
            data = write_system_file(path, 10**6, sys, interval)
            assert type(data) is bytes and data == path.read_bytes() == text.encode()
            assert system_from_json(text)[1] == sys


def test_system_writer_memory_is_bounded(tmp_path):
    # the 185,269-class system of construct 1000000 --stage3 none --seed 1:
    # beside the file's bytes, the writer holds one copy of them (the
    # chunks it joins) and one chunk's matrices
    cfg = StagedConfig(x=10**6, seed=1, stage3_method="none")
    report, system = run_pipeline(cfg)
    assert len(system) == 185_269
    tracemalloc.start()
    try:
        data = write_system_file(tmp_path / "system.json", cfg.x, system,
                                 (cfg.x + 1, report.achieved_y))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * len(data) + 2**20


def fstring_json(x, sys, interval=None):
    """The writer before the numpy kernel: one f-string per class, joined.
    Kept as the byte reference for system_to_json."""
    head = f'{{"x":{int(x)}'
    if interval is not None:
        head += f',"interval":[{int(interval[0])},{int(interval[1])}]'
    classes = ",".join(f"[{p},{a}]" for p, a in sorted(sys.entries.items()))
    return f'{head},"classes":[{classes}]}}\n'


def test_system_to_json_matches_the_fstring_join():
    # digit-width boundaries 9/10, 99/100 and 999999/1000003, with classes
    # 0, p - 1 and classes one digit shorter than their modulus
    systems = [
        {},
        {2: 0},
        {7: 6, 11: 0},
        {7: 0, 11: 9, 97: 96, 101: 99},
        {97: 0, 101: 100, 999983: 999982, 1000003: 999999},
        {999983: 0, 1000003: 1000002},
        {1000003: 0},
        {2**61 - 1: 2**61 - 2},  # int64, 19 digits
        {2**61 - 1: 0, 2: 1},
        {3: 2, 2**61 - 1: 5, 2**63 + 29: 2**63 + 28, 2**78 - 11: 0},  # object arrays
        {2**63 + 29: 7},
        {2**78 - 11: 2**78 - 12, 5: 0},
    ]
    rng = random.Random(6)
    primes = sieve_interval(2, 2_000_000).tolist()
    systems.append({p: rng.randrange(p) for p in rng.sample(primes, 5000)})
    for entries in systems:
        sys = ResidueSystem(entries)
        assert (sys.moduli.dtype == object) == any(p >= 2**63 for p in entries)
        for interval in (None, (14, 20)):
            text = system_to_json(10**6, sys, interval)
            assert text == fstring_json(10**6, sys, interval)
            assert system_from_json(text)[1] == sys


def test_system_file_rejects_bad_documents():
    with pytest.raises(ValueError):
        system_from_json('{"x": 5, "classes": [[3, 1], [3, 2]]}')  # duplicate
    with pytest.raises(ValueError):
        system_from_json('{"x": 5, "classes": [[3, 3]]}')  # out of range
    with pytest.raises(ValueError):
        system_from_json('[1, 2, 3]')
    for interval in ("[5, 4]", "[1]", "[1, true]", "[1, 2.5]", '"1-9"'):
        with pytest.raises(ValueError, match="interval"):
            system_from_json('{"x": 5, "interval": %s, "classes": [[3, 1]]}' % interval)


def test_residue_system_names_composite_among_sieve_primes():
    primes = [int(p) for p in sieve_interval(2, 480_000)]
    assert len(primes) > 39_000
    entries = {p: 0 for p in primes[:20_000]}
    entries[691**2] = 1  # a prime square inside the span of the sieve primes
    entries.update({p: 1 for p in primes[20_000:]})
    with pytest.raises(ValueError, match=f"modulus {691**2} is not prime"):
        ResidueSystem(entries)
    with pytest.raises(ValueError, match="modulus 561 is not prime"):
        ResidueSystem({**{p: 1 for p in primes[20_000:]}, 561: 0})  # below the rest


def test_residue_system_proves_huge_moduli():
    assert ResidueSystem({3: 0, 2**61 - 1: 5}).entries == {3: 0, 2**61 - 1: 5}
    with pytest.raises(ValueError, match=f"modulus {2**61 + 1} is not prime"):
        ResidueSystem({2**61 + 1: 0})


def test_residue_system_refuses_moduli_beyond_psi_12():
    # Miller-Rabin to the bases 2..37 proves nothing from psi_12 on, where a
    # composite (psi_12 itself) passes every base
    for p in (318_665_857_834_031_151_167_461, 3_317_044_064_679_887_385_961_981, 2**89 - 1):
        with pytest.raises(ValueError, match=f"primality of {p} is not proven"):
            ResidueSystem({2: 0, 3: 1, p: 1})


def test_residue_system_range_checks_any_ints():
    assert ResidueSystem({2**78 - 11: 2**78 - 12}).entries == {2**78 - 11: 2**78 - 12}
    for p, a in ((53, 53), (5, -1), (2**61 - 1, 2**61 - 1), (5, 2**70), (5, -(2**70)),
                 (2**78 - 11, 2**78 - 11)):
        with pytest.raises(ValueError, match=f"residue {a} out of range for modulus {p}$"):
            ResidueSystem({2: 1, 3: 0, p: a, 7: 6})


def test_coverage_error_names_position():
    # {2->0} covers the evens only; assembling over [1, y] must fail at t=1
    # (position 1 is odd) -- forced by building a fake "covered" system
    sys = ResidueSystem({2: 0})
    # covered_prefix_length is 0, so assemble_gap succeeds with empty run
    cert = assemble_gap(sys, 2)
    assert cert.run_length == 0
    err = CoverageError(5)
    assert err.position == 5 and "5" in str(err)
