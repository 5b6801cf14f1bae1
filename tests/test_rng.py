"""Tests for rng.uniforms, the counter-based generator stage 3 draws from."""

import numpy as np

from gapsieve.rng import stream_seed, uniforms

KEY = stream_seed(1, "test-rng")


def test_uniforms_broadcast_elementwise():
    grid = uniforms(KEY, 2, np.arange(6)[:, None], np.array([0, 1, 7]))
    assert grid.shape == (6, 3)
    for i in range(6):
        for k, c in enumerate((0, 1, 7)):
            assert grid[i, k] == uniforms(KEY, 2, i, c)
    # a key array broadcasts with the counters as one more counter would
    keys = np.array([KEY, 5, 2**64 - 1], dtype=np.uint64)
    assert uniforms(keys, 3, 4).tolist() == [float(uniforms(k, 3, 4)) for k in (KEY, 5, 2**64 - 1)]


def test_uniforms_have_53_bits_in_unit_interval():
    u = uniforms(KEY, np.arange(200_000))
    assert u.dtype == np.float64 and 0 <= u.min() and u.max() < 1
    assert np.all(u * 2.0**53 == np.floor(u * 2.0**53))
    # uniform: each of 20 bins within 5 sigma of its share
    counts = np.bincount((u * 20).astype(np.int64), minlength=20)
    sigma = np.sqrt(len(u) / 20 * (1 - 1 / 20))
    assert np.abs(counts - len(u) / 20).max() < 5 * sigma


def test_distinct_counter_tuples_do_not_collide():
    # one counter p * c + a would send (1, 2, 0) and (2, 1, 0) to one
    # uniform; each counter gets its own hash round, so the grid has no repeat
    p, c, a = np.meshgrid(np.arange(300), np.arange(4), np.arange(12), indexing="ij")
    u = uniforms(KEY, p, c, a)
    assert len(np.unique(u)) == u.size
    # the order of counters matters, and so does their number
    assert uniforms(KEY, 1, 2) != uniforms(KEY, 2, 1)
    assert uniforms(KEY, 0) != uniforms(KEY, 0, 0)
    assert uniforms(KEY, 7) != uniforms(KEY + 1, 7)
