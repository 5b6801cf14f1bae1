"""Tests for sifting, covered prefixes, CRT assembly, and the file format."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapsieve.oracle import exact_Y
from gapsieve.primes import sieve_interval
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


def test_sift_examples():
    assert sift(ResidueSystem({2: 0}), 1, 10).survivor_list() == [1, 3, 5, 7, 9]
    assert sift(ResidueSystem({2: 1, 3: 0}), 1, 10).survivor_list() == [2, 4, 8, 10]
    assert sift(ResidueSystem({2: 1, 3: 2}), 1, 3).survivor_list() == []
    assert all(type(v) is int for v in sift(ResidueSystem({2: 0}), 1, 10).survivor_list())


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
        got = sift(sys, lo, hi)
        for n in range(lo, hi + 1):
            naive = all(n % p != a for p, a in entries.items())
            assert got.is_survivor(n) == naive


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


def test_coverage_error_names_position():
    # {2->0} covers the evens only; assembling over [1, y] must fail at t=1
    # (position 1 is odd) -- forced by building a fake "covered" system
    sys = ResidueSystem({2: 0})
    # covered_prefix_length is 0, so assemble_gap succeeds with empty run
    cert = assemble_gap(sys, 2)
    assert cert.run_length == 0
    err = CoverageError(5)
    assert err.position == 5 and "5" in str(err)
