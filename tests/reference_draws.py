"""Reference fading draws for the tests, written apart from marcsim's
sampler: sample i of a run lives in block i // BLOCK_SIZE, and block b is
the Philox stream keyed by (seed, b), drawn as all real parts and then
all imaginary parts of a (BLOCK_SIZE, 5) matrix, each scaled to var/2."""

import numpy as np
from numpy.random import Generator, Philox

BLOCK_SIZE = 4096


def stream(seed, index):
    """The generator of block ``index`` of a run at ``seed``."""
    return Generator(Philox(key=np.array([seed, index], dtype=np.uint64)))


def draw_states(profile, n, seed):
    """The first ``n`` fading states of a run at ``seed`` as a complex
    (n, 5) matrix with columns (h1d, h2d, h1r, h2r, hrd)."""
    var = np.array([profile.var_1d, profile.var_2d, profile.var_1r,
                    profile.var_2r, profile.var_rd])
    std = np.sqrt(var / 2.0)
    blocks = []
    for b in range(-(-n // BLOCK_SIZE)):
        rng = stream(seed, b)
        re = rng.standard_normal((BLOCK_SIZE, 5))
        im = rng.standard_normal((BLOCK_SIZE, 5))
        blocks.append((re + 1j * im) * std)
    return np.concatenate(blocks)[:n]
