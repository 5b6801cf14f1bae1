"""Tests for the exhaustive oracles and the smooth-number enumerator."""

import hashlib
import math
import random

import numpy as np
import pytest

import gapsieve.oracle as oracle
from gapsieve.oracle import (
    JACOBSTHAL_CUTOFF,
    InfeasibleError,
    _longest_prefix,
    exact_Y,
    jacobsthal,
    smooth_numbers,
)
from gapsieve.primes import primes_up_to, primorial
from gapsieve.residues import ResidueSystem, covered_prefix_length, sift, system_to_json


def test_exact_Y_small():
    # two classes mod 2 can never cover both 1 and 2 with one choice
    assert exact_Y(2).Y == 1
    res3 = exact_Y(3)
    assert res3.Y == 3
    assert covered_prefix_length(res3.witness) == 3
    assert exact_Y(7).Y == 9
    assert exact_Y(1).Y == 0


def test_exact_Y_witness_is_optimal():
    for x in (2, 3, 5, 7, 11):
        res = exact_Y(x)
        # witness covers [1, Y] and, filled with zero classes for unused
        # primes, still stops exactly at Y: no assignment covers Y + 1
        assert sift(res.witness, 1, max(res.Y, 1)).count() == (0 if res.Y else 1)
        assert covered_prefix_length(res.witness) == res.Y
        assert res.nodes_explored > 0


def test_exact_Y_monotone():
    values = [exact_Y(x).Y for x in range(2, 14)]
    assert values == sorted(values)


def test_no_strategy_beats_the_oracle():
    # any choice of classes over the primes <= x covers a prefix of at most
    # exact_Y(x); probed with random and greedy-flavored systems
    rng = random.Random(17)
    for x in (5, 7, 11):
        bound = exact_Y(x).Y
        primes = [p for p in (2, 3, 5, 7, 11) if p <= x]
        for _ in range(200):
            sys = ResidueSystem({p: rng.randrange(p) for p in primes})
            assert covered_prefix_length(sys) <= bound


# x: (Y, nodes_explored, sha256 of system_to_json(x, witness)); the search
# visits every node of the tree of ordered class choices once, so
# nodes_explored is that tree's size, and the witness is the path of the
# first node in preorder that covers [1, Y] with class 0 elsewhere, which
# pins the bytes of oracle files
EXACT_Y_GOLDEN = {
    2: (1, 1, "833233bdb5a09c2ed1fe72735edc0a66c6984e97cc3584cf18c567244366f054"),
    3: (3, 4, "521aa18cd4b9d62fbdb3581b789f9720c1e960d8251b462929e83dd6555fd77b"),
    5: (5, 15, "671717093d0584d475d3fb0269fac8db459f5bf032381eb604f6364b04b9241a"),
    7: (9, 64, "be5c6a88a179667e5f536ccab95c6919f6bc39cb5fac91d2b0ffa346f3ba6aff"),
    11: (13, 325, "8734124ecdad32d0f4749d5fcbce8f775a8433215a8f3d397690ff2c765255cd"),
    13: (21, 1956, "27df0a7d533d929445df52bd3b369261066ca55482e4b06df76b605462242c51"),
    17: (25, 13699, "da2e0aaa364c32913247562e6f979d4708ed6d8128c9921ea9848a1793d981ae"),
    19: (33, 109600, "d61ffe9e082a9711db9e46bf05de5e54db1df0a83903b60c24867dd638594dc4"),
    23: (39, 986409, "96ebc32c9b3e97f215868a2e21de90ad1af10a127c0ee4523efc3b0377d1dbfb"),
}


def ordered_choices(m):
    """Nodes of the tree of ordered choices of distinct primes among m."""
    return sum(math.perm(m, k) for k in range(1, m + 1))


@pytest.mark.parametrize("x", sorted(EXACT_Y_GOLDEN))
def test_exact_Y_golden(x, request):
    res = request.getfixturevalue("exact_Y_23") if x == 23 else exact_Y(x)
    digest = hashlib.sha256(system_to_json(x, res.witness).encode()).hexdigest()
    assert (res.Y, res.nodes_explored, digest) == EXACT_Y_GOLDEN[x]
    assert res.nodes_explored == ordered_choices(len(res.witness))


def coverable_by_enumeration(primes, y):
    """Whether some choice of one class per prime covers [1, y], trying all."""
    ps = np.array(primes)
    grids = np.meshgrid(*(np.arange(p) for p in primes), indexing="ij")
    choices = np.stack(grids, axis=-1).reshape(-1, len(primes))
    for t in range(1, y + 1):
        choices = choices[(t % ps == choices).any(axis=1)]  # the choices covering [1, t]
    return len(choices) > 0


def test_cover_search_matches_enumeration():
    rng = random.Random(2024)
    small = [2, 3, 5, 7, 11, 13]
    for _ in range(120):
        primes = rng.sample(small, rng.randint(1, len(small)))
        y, assignment, nodes = _longest_prefix(primes, 64)
        assert coverable_by_enumeration(primes, y), (primes, y)
        assert not coverable_by_enumeration(primes, y + 1), (primes, y)
        assert nodes == ordered_choices(len(primes))
        assert set(assignment) <= set(primes)
        assert all(0 <= a < p for p, a in assignment.items())
        for t in range(1, y + 1):
            assert any(t % p == a for p, a in assignment.items()), (primes, y, t)


def test_exact_Y_span_doubling(monkeypatch):
    # from x = 5 on some choice covers all of a 4-bit first span, so the
    # search runs again on 8, 16, ... bits until the optimum fits
    expect = {x: exact_Y(x) for x in (2, 5, 7, 13)}
    monkeypatch.setattr(oracle, "EXACT_Y_SPAN", 4)
    for x, want in expect.items():
        res = exact_Y(x)
        assert (res.Y, res.witness) == (want.Y, want.witness)
        tree = ordered_choices(len(want.witness))
        restarts = (want.Y // 4).bit_length()
        assert res.nodes_explored == tree * (1 + restarts)


def test_exact_Y_cutoff():
    with pytest.raises(InfeasibleError):
        exact_Y(29)
    with pytest.raises(InfeasibleError):
        exact_Y(5, cutoff=3)


def test_jacobsthal_values():
    assert jacobsthal(6) == 4  # coprime: 1, 5, 7
    assert jacobsthal(2) == 2
    assert jacobsthal(210) == 10
    assert jacobsthal(1) == 1
    assert jacobsthal(30) == 6


def test_jacobsthal_matches_exact_Y():
    for x in (2, 3, 5, 7):
        assert exact_Y(x).Y == jacobsthal(primorial(x)) - 1


def full_period_coprime_gap(n, prime_factors):
    """Maximal coprime gap from one unsegmented scan of [1, n + 1]."""
    coprime = np.ones(n + 2, dtype=bool)
    coprime[0] = False
    for p in prime_factors:
        coprime[::p] = False
    return int(np.diff(np.flatnonzero(coprime)).max())


def distinct_prime_factors(n):
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % d for d in range(2, p))]


def test_jacobsthal_matches_full_period_scan():
    # every n up to 3000: odd, even, prime and prime-power periods
    for n in range(1, 3001):
        assert jacobsthal(n) == full_period_coprime_gap(n, distinct_prime_factors(n)), n
    rng = random.Random(25)
    pool = [2, 2, 3, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 97, 101]
    for _ in range(60):
        factors, n = set(), 1
        while n * 101 <= 2 * 10**6 and rng.random() < 0.85:
            p = rng.choice(pool)
            factors.add(p)
            n *= p
        assert jacobsthal(n) == full_period_coprime_gap(n, sorted(factors)), n


def test_jacobsthal_across_scan_segments(monkeypatch):
    # with 4099-entry segments each half-period scan crosses hundreds of
    # segment boundaries, so gaps that straddle one are measured too, for
    # even n (odd entries only) and odd n; 3-entry segments, shorter than
    # some gaps, leave segments with no coprime entry at all
    monkeypatch.setattr(oracle, "JACOBSTHAL_SEGMENT", 4099)
    cases = [
        (primorial(19), (2, 3, 5, 7, 11, 13, 17, 19)),
        (2**3 * 3**2 * 5 * 7 * 11 * 13 * 29, (2, 3, 5, 7, 11, 13, 29)),
        (3**2 * 5 * 7 * 11 * 13 * 17 * 19, (3, 5, 7, 11, 13, 17, 19)),
    ]
    for n, factors in cases:
        assert n // 4 > 100 * 4099
        assert jacobsthal(n) == full_period_coprime_gap(n, factors)
    monkeypatch.setattr(oracle, "JACOBSTHAL_SEGMENT", 3)
    for n, factors in [(30030, (2, 3, 5, 7, 11, 13)), (15015, (3, 5, 7, 11, 13))]:
        assert jacobsthal(n) == full_period_coprime_gap(n, factors)


def test_jacobsthal_cutoff():
    with pytest.raises(InfeasibleError):
        jacobsthal(JACOBSTHAL_CUTOFF + 1)


def is_smooth_by_trial_division(n, z):
    d = 2
    while d <= z and n > 1:
        while n % d == 0:
            n //= d
        d += 1
    return n == 1


def smooth_by_trial_division(y, z):
    return sum(1 for n in range(1, y + 1) if is_smooth_by_trial_division(n, z))


def count_5_smooth(limit):
    """Recursive 2^a 3^b 5^c enumeration, independent of any sieve."""
    count = 0
    a = 1
    while a <= limit:
        b = a
        while b <= limit:
            c = b
            while c <= limit:
                count += 1
                c *= 5
            b *= 3
        a *= 2
    return count


def smooth_count(y, z):
    """#{1 <= n <= y : every prime factor of n is <= z}, read off smooth_numbers."""
    return len(smooth_numbers(primes_up_to(z), 1, y))


def test_smooth_count_examples():
    assert smooth_count(10, 2) == 4  # {1, 2, 4, 8}
    assert smooth_count(100, 5) == 34
    assert count_5_smooth(100) == 34  # double-checked by power enumeration
    assert smooth_count(50, 50) == 50
    assert smooth_count(0, 10) == 0


def test_smooth_count_matches_trial_division():
    rng = random.Random(5)
    for _ in range(25):
        y = rng.randrange(1, 3000)
        z = rng.randrange(2, 60)
        assert smooth_count(y, z) == smooth_by_trial_division(y, z)


def test_smooth_count_monotone():
    for z in (2, 3, 7, 20):
        vals = [smooth_count(y, z) for y in range(1, 200)]
        assert vals == sorted(vals)
    for y in (100, 500):
        vals = [smooth_count(y, z) for z in range(2, 40)]
        assert vals == sorted(vals)
        assert smooth_count(y, y) == y


def test_smooth_numbers_consistent_with_count():
    small = primes_up_to(7)
    got = smooth_numbers(small, 1, 500)
    assert got.dtype == np.int64 and (got[1:] > got[:-1]).all()
    assert got.tolist() == [n for n in range(1, 501) if is_smooth_by_trial_division(n, 7)]
    assert len(smooth_numbers(small, 101, 500)) == (smooth_by_trial_division(500, 7)
                                                    - smooth_by_trial_division(100, 7))
    # single values far apart, each checked by trial division
    values = [1, 97 * 2, 2**40, 3**20 * 5, 11, 7 * 7 * 7, 1000003]
    expect = [is_smooth_by_trial_division(v, 7) for v in values]
    assert expect == [True, False, True, True, False, True, False]
    assert [len(smooth_numbers(small, v, v)) == 1 for v in values] == expect
    # any set of primes, not only a prefix: the pipeline's free primes
    assert smooth_numbers([13, 5], 1, 200).tolist() == [1, 5, 13, 25, 65, 125, 169]
    for bad in ([2, 4], [3, 3]):
        with pytest.raises(ValueError, match="distinct primes"):
            smooth_numbers(bad, 1, 10)
