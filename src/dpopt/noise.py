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


def _mix64(x: np.ndarray) -> np.ndarray:
    # uint64 arithmetic wraps modulo 2^64 by design.
    with np.errstate(over="ignore"):
        x = (x + _M1).astype(np.uint64)
        x = (x ^ (x >> np.uint64(30))) * _M2
        x = (x ^ (x >> np.uint64(27))) * _M3
        return x ^ (x >> np.uint64(31))


def _counter_words(seed_words, agents, stream, iteration, coords):
    """Mix the five counter fields into one 64-bit word per entry.

    seed_words holds seeds already reduced modulo 2**64; every field
    broadcasts against the others.
    """
    fields = (
        np.asarray(agents, dtype=np.uint64),
        np.asarray(stream, dtype=np.uint64),
        np.asarray(iteration, dtype=np.uint64),
        np.asarray(coords, dtype=np.uint64),
    )
    out = np.asarray(seed_words, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for salt, f in zip(_FIELD_SALTS, fields):
            out = _mix64(out ^ ((f + np.uint64(1)) * salt))
    return out


def _open_uniform(words: np.ndarray) -> np.ndarray:
    # Top 53 bits, offset by half a step: values lie strictly inside (0, 1).
    return ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def laplace_inverse_cdf(q, scale):
    """Map uniform q in (0, 1) to a Laplace draw with the given scale."""
    q = np.asarray(q, dtype=float)
    centered = q - 0.5
    return -scale * np.sign(centered) * np.log1p(-2.0 * np.abs(centered))


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
    seed_words = np.array([s & _SEED_MASK for s in seeds], dtype=np.uint64)
    ks = np.asarray(iterations, dtype=np.uint64)
    agents = np.arange(n_agents, dtype=np.uint64)
    coords = np.arange(dim, dtype=np.uint64)
    words = _counter_words(
        seed_words[None, :, None, None],
        agents[None, None, :, None],
        _STREAMS[stream],
        ks[:, None, None, None],
        coords[None, None, None, :],
    )
    scales = scale.values(np.asarray(iterations, dtype=float))
    return laplace_inverse_cdf(
        _open_uniform(words), scales[:, None, None, None]
    )


def derive_seed(base_seed: int, index: int) -> int:
    """Stable per-run seed derived from a base seed and a run index."""
    with np.errstate(over="ignore"):
        word = _mix64(np.uint64(base_seed & _SEED_MASK) ^
                      ((np.uint64(index) + np.uint64(1)) * _M2))
    return int(word & np.uint64(0x7FFFFFFFFFFFFFFF))
