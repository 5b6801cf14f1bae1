"""Named random streams and counter-based uniforms.

Every randomized routine in this package draws from a master seed plus a
tuple of string/int tags, so results are reproducible across runs and
independent of how work is scheduled.  There are two ways to draw:

- ``stream(seed, *tags)`` is a ``random.Random`` for a routine that draws a
  few numbers in sequence (stage 2's classes, the greedy's one shuffle).
- ``uniforms(key, *counters)`` is a counter-based generator, as in Salmon
  et al., "Parallel random numbers: as easy as 1, 2, 3" (SC 2011): one
  uniform per counter tuple, from a keyed integer hash, for whole arrays at
  once.  Stage 3 keys it with ``stream_seed(seed, purpose)`` and counts by
  (round, index, attempt, ...), so a draw does not depend on which other
  indices are drawn, or in what order.
"""

import hashlib
import random

import numpy as np


def stream_seed(master_seed: int, *tags) -> int:
    """Derive a 64-bit child seed from a master seed and a tag tuple."""
    h = hashlib.sha256()
    h.update(str(int(master_seed)).encode())
    for t in tags:
        h.update(b"\x00")
        h.update(str(t).encode())
    return int.from_bytes(h.digest()[:8], "big")


def stream(master_seed: int, *tags) -> random.Random:
    """A ``random.Random`` seeded by ``hash(master_seed, *tags)``."""
    return random.Random(stream_seed(master_seed, *tags))


_GAMMA = np.uint64(0x9E3779B97F4A7C15)  # splitmix64's increment: no fixed point at 0
_M1, _M2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_S11, _S27, _S30, _S31 = (np.uint64(s) for s in (11, 27, 30, 31))


def _mix(z):
    """splitmix64's finaliser, a bijection of uint64, in place."""
    z ^= z >> _S30
    z *= _M1
    z ^= z >> _S27
    z *= _M2
    z ^= z >> _S31


def uniforms(key, *counters):
    """Floats in [0, 1) with 53 random bits, one per broadcast counter tuple.

    The key and each counter may be an int or an int array; they broadcast
    together.  Each counter enters with its own hash round,
    h <- mix((h ^ c) + gamma) from h = key, so distinct tuples differ as
    64-bit hashes do, not by arithmetic such as p * c + attempt.
    """
    parts = [np.asarray(a).astype(np.uint64, copy=False) for a in (key, *counters)]
    shape = np.broadcast(*parts).shape
    h = np.array(np.broadcast_to(parts[0], shape), ndmin=1)
    for c in parts[1:]:
        h ^= c
        h += _GAMMA
        _mix(h)
    return ((h >> _S11) * 2.0**-53).reshape(shape)
