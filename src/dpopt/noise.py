"""Counter-based Laplace noise for privacy-preserving message passing.

Every message an agent sends at iteration k is obscured by one Laplace
draw per coordinate, and all receivers of that message see the same
draw.  To make that reproducible without sharing mutable generator
state, draws are derived statelessly: the tuple (seed, agent, stream
tag, iteration, coordinate) is mixed into a 64-bit word, the word is
mapped to a uniform in the open interval (0, 1) with 53 bits of
precision, and the uniform is pushed through the Laplace inverse CDF

    x = -scale * sign(q - 1/2) * ln(1 - 2|q - 1/2|).

Identical tuples give identical draws across runs, platforms, and
variants, which is what lets baseline comparisons share "the same
noise" exactly.

The accountant's epsilon is that of the real-valued Laplace mechanism.
Float draws lie in [-36.7368005696771 nu, +36.04365338911715 nu] (words
0 and 2**64 - 1), so the float mechanism is at best (epsilon, delta)-DP,
delta about 1.1e-16 per draw an observer sees, and a float sum leaks
through its low bits (Mironov, ACM CCS 2012); README, "Privacy budget
columns", has the details.

laplace_draws works in place on each block: _counter_words mixes the
words with one reused shift buffer, _open_uniform shifts them before
one conversion to floats, and _inverse_cdf overwrites the uniforms with
the draws, in the formulas' operation order.  laplace_inverse_cdf
copies its input first.
"""

from __future__ import annotations

import numpy as np

STATE_STREAM = 0
TRACKER_STREAM = 1

_STREAMS = {"state": STATE_STREAM, "tracker": TRACKER_STREAM}
_SEED_MASK = 0xFFFFFFFFFFFFFFFF

# Iterations per drawn block: about NOISE_CHUNK x agents x dim draws
# are held per stream at a time.
NOISE_CHUNK = 2048

_M1 = np.uint64(0x9E3779B97F4A7C15)
_M2 = np.uint64(0xBF58476D1CE4E5B9)
_M3 = np.uint64(0x94D049BB133111EB)
_FIELD_SALTS = (
    np.uint64(0xD6E8FEB86659FD93),
    np.uint64(0xA5A5A5A5A5A5A5A5),
    np.uint64(0xC2B2AE3D27D4EB4F),
    np.uint64(0x165667B19E3779F9),
)


def _mix64(x: np.ndarray, buf: np.ndarray) -> None:
    """Mix every word of the uint64 array x in place, modulo 2**64;
    buf is scratch of x's shape."""
    x += _M1
    np.right_shift(x, 30, out=buf)
    x ^= buf
    x *= _M2
    np.right_shift(x, 27, out=buf)
    x ^= buf
    x *= _M3
    np.right_shift(x, 31, out=buf)
    x ^= buf


def _salted(field, salt) -> np.ndarray:
    with np.errstate(over="ignore"):
        return (np.asarray(field, dtype=np.uint64) + np.uint64(1)) * salt


def _counter_words(seeds, n_agents: int, stream: str, iterations,
                   dim: int) -> np.ndarray:
    """The mixed word of every (iteration, seed, agent, coordinate),
    (K, R, m, d): each field in turn, plus one and salted, is xored
    into the seeds' words, which are then mixed.  The coordinates go in
    column by column; a broadcast xor widening the last axis is several
    times slower."""
    agent_salt, stream_salt, iteration_salt, coord_salt = _FIELD_SALTS
    seed_words = np.array([s & _SEED_MASK for s in seeds], dtype=np.uint64)
    words = seed_words[:, None] ^ _salted(np.arange(n_agents), agent_salt)
    _mix64(words, np.empty_like(words))
    words ^= _salted(_STREAMS[stream], stream_salt)
    _mix64(words, np.empty_like(words))
    words = words ^ _salted(iterations, iteration_salt)[:, None, None]
    _mix64(words, np.empty_like(words))
    block = np.empty(words.shape + (dim,), dtype=np.uint64)
    for c, salt in enumerate(_salted(np.arange(dim), coord_salt)):
        np.bitwise_xor(words, salt, out=block[..., c])
    del words
    _mix64(block, np.empty_like(block))
    return block


def _open_uniform(words: np.ndarray) -> np.ndarray:
    # Top 53 bits, offset by half a step; shifts words in place.  The
    # top word's half step rounds to even, 1.0 (an infinite draw), so q
    # is clamped to the largest float below 1; no other word moves.
    words >>= np.uint64(11)
    q = words.astype(np.float64)
    q += 0.5
    q *= 2.0**-53
    return np.minimum(q, 1.0 - 2.0**-53, out=q)


def _inverse_cdf(q: np.ndarray, scale) -> np.ndarray:
    """laplace_inverse_cdf, overwriting the float array q."""
    q -= 0.5
    factor = np.sign(q)
    factor *= -scale
    np.abs(q, out=q)
    q *= -2.0
    np.log1p(q, out=q)
    q *= factor
    return q


def laplace_inverse_cdf(q, scale):
    """Map uniform q in (0, 1) to a Laplace draw with the given scale;
    q and scale broadcast, and scalars give a scalar."""
    q, scale = np.broadcast_arrays(np.asarray(q, dtype=float), scale)
    return _inverse_cdf(q.copy(), scale)[()]


def laplace_draws(scale, seeds, n_agents: int, stream: str, iterations,
                  dim: int) -> np.ndarray:
    """Draws of a batch of runs for all agents over a range of iterations.

    Returns an array of shape (len(iterations), len(seeds), n_agents,
    dim).  Entry [t, r, i, c] is keyed by (seeds[r], i, stream,
    iterations[t], c) alone, so each run of a batch gets exactly the
    draws it gets when run by itself.  scale None gives zeros.
    """
    if scale is None:
        return np.zeros((len(iterations), len(seeds), n_agents, dim))
    # No name holds the words, so at most two blocks live at a time.
    q = _open_uniform(_counter_words(seeds, n_agents, stream, iterations,
                                     dim))
    scales = scale.values(np.asarray(iterations, dtype=float))
    return _inverse_cdf(q, scales[:, None, None, None])


def derive_seed(base_seed: int, index: int) -> int:
    """Stable per-run seed derived from a base seed and a run index."""
    with np.errstate(over="ignore"):
        word = np.array(np.uint64(base_seed & _SEED_MASK) ^
                        ((np.uint64(index) + np.uint64(1)) * _M2))
    _mix64(word, np.empty_like(word))
    return int(word & np.uint64(0x7FFFFFFFFFFFFFFF))
