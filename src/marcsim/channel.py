"""Signal model of the half-duplex two-source relay network.

A block of l channel uses is split into a listen slot of n = beta*l uses,
where both sources broadcast and the relay listens, and a cooperate slot
of (1-beta)*l uses, where the sources keep transmitting and the relay
transmits its quantization index.  Receiver noise is unit variance
everywhere; channel gains are dimensionless amplitudes.

Two channel modes share one representation: "static" (real gains, real
Gaussian signalling, 1/2 MI prefactor) and "fading" (circularly-symmetric
complex gains redrawn per block, prefactor 1).

Fading draws use the counter-based Philox generator keyed by
(master seed, block index), so sample blocks are reproducible bit-for-bit
and do not depend on the order in which they are drawn.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .info import GaussianSystem

__all__ = [
    "STATIC",
    "FADING",
    "BLOCK_SIZE",
    "ChannelState",
    "PowerConfig",
    "FadingProfile",
    "sample_fading_block",
]

STATIC = "static"
FADING = "fading"

# samples per Philox substream; fixed so that sample i always lives in
# substream i // BLOCK_SIZE at offset i % BLOCK_SIZE
BLOCK_SIZE = 4096

SLOT1_LABELS = ("X11", "X21", "YR", "YhR", "YD1")
SLOT2_LABELS = ("X12", "X22", "XR", "YD2")


@dataclass(frozen=True)
class ChannelState:
    """One realization of the five gains source->destination (h1d, h2d),
    source->relay (h1r, h2r) and relay->destination (hrd)."""

    h1d: complex
    h2d: complex
    h1r: complex
    h2r: complex
    hrd: complex
    mode: str = STATIC

    def __post_init__(self):
        if self.mode not in (STATIC, FADING):
            raise ValueError(f"unknown channel mode {self.mode!r}")
        for name in ("h1d", "h2d", "h1r", "h2r", "hrd"):
            g = complex(getattr(self, name))
            if not (math.isfinite(g.real) and math.isfinite(g.imag)):
                raise ValueError(f"gain {name} must be finite")
            if self.mode == STATIC and g.imag != 0.0:
                raise ValueError(f"static-mode gain {name} must be real, got {g}")

    @property
    def field_kind(self) -> str:
        return "real" if self.mode == STATIC else "complex"

    def gains(self) -> tuple[complex, complex, complex, complex, complex]:
        return (self.h1d, self.h2d, self.h1r, self.h2r, self.hrd)


@dataclass(frozen=True)
class PowerConfig:
    """Average transmit powers per slot, linear scale."""

    p11: float
    p21: float
    p12: float
    p22: float
    pr: float

    def __post_init__(self):
        for name in ("p11", "p21", "p12", "p22", "pr"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"power {name} must be finite and >= 0, got {v!r}")

    @classmethod
    def from_snr(cls, snr: float, beta: float) -> "PowerConfig":
        """Source powers equal to snr in both slots; relay spends the same
        average block energy by transmitting snr/(1-beta) in its slot."""
        _check_beta(beta)
        return cls(snr, snr, snr, snr, snr / (1.0 - beta))

    @classmethod
    def from_snr_db(cls, snr_db: float, beta: float) -> "PowerConfig":
        """:meth:`from_snr` at ``snr_db`` decibels."""
        return cls.from_snr(_linear_snr(snr_db), beta)


@dataclass(frozen=True)
class FadingProfile:
    """Rayleigh variances E|h|^2 of the five links."""

    var_1d: float
    var_2d: float
    var_1r: float
    var_2r: float
    var_rd: float

    def __post_init__(self):
        for name in ("var_1d", "var_2d", "var_1r", "var_2r", "var_rd"):
            _check_variance(getattr(self, name), f"variance {name}")

    @classmethod
    def uniform(cls, var: float = 1.0) -> "FadingProfile":
        return cls(var, var, var, var, var)

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.var_1d, self.var_2d, self.var_1r, self.var_2r, self.var_rd]
        )


# Input rules.  Each is raised here only, so the scalar API, the Monte Carlo
# layer and config validation accept the same values; every comparison fails on
# NaN, and ``name`` is the field or argument the message names.


def _check_beta(beta: float, name: str = "slot ratio beta") -> None:
    if not (0.0 < beta < 1.0):
        raise ValueError(f"{name} must lie in (0, 1), got {beta!r}")


def _check_slot(beta: float, required: float | None, who: str) -> None:
    """``beta`` in (0, 1), and equal to ``required`` if a scheme needs one split."""
    _check_beta(beta)
    if required is not None and abs(beta - required) > 1e-12:
        raise ValueError(f"{who} needs beta = {required}")


def _check_rate(rate: float, name: str) -> None:
    if not (math.isfinite(rate) and rate >= 0.0):
        raise ValueError(f"{name} must be finite and >= 0, got {rate!r}")


def _check_index_rate(ru: float, name: str = "relay index rate ru") -> None:
    if not (math.isfinite(ru) and ru > 0.0):
        raise ValueError(f"{name} must be finite and > 0, got {ru!r}")


def _check_sigma_q2(sigma_q2: float, name: str = "quantization noise variance") -> None:
    if not sigma_q2 > 0.0:  # inf (observation discarded) passes
        raise ValueError(f"{name} must be > 0, got {sigma_q2!r}")


def _check_variance(var: float, name: str) -> None:
    """A Rayleigh variance E|h|^2."""
    if not (math.isfinite(var) and var > 0.0):
        raise ValueError(f"{name} must be finite and > 0, got {var!r}")


def _linear_snr(snr_db: float, name: str = "snr_db") -> float:
    """10^(snr_db/10), which must be finite."""
    try:
        snr = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        snr = math.inf
    if not math.isfinite(snr):
        raise ValueError(f"{name} must give a finite linear SNR, got {snr_db!r}")
    return snr


def _check_samples(n: int, name: str = "n") -> None:
    if not (isinstance(n, numbers.Integral) and not isinstance(n, bool) and n >= 1):
        raise ValueError(f"{name} must be an integer >= 1 (at least one sample), got {n!r}")


def _check_u64(value: int, name: str = "seed") -> None:
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and 0 <= value < 2**64):
        raise ValueError(f"{name} must fit in an unsigned 64-bit integer, got {value!r}")


def _check_grid(grid, name: str) -> None:
    if not (len(grid) and all(b > a for a, b in zip(grid, grid[1:]))):
        raise ValueError(f"{name} must be non-empty and strictly increasing, got {list(grid)!r}")


def _substream(seed: int, block_index: int) -> Generator:
    """Independent generator for block ``block_index`` of master ``seed``.

    Philox is counter based: keying by (seed, block_index) makes substreams
    reproducible in any order.
    """
    key = np.array([seed, block_index], dtype=np.uint64)
    return Generator(Philox(key=key))


@functools.lru_cache(maxsize=1)
def _unit_normals(seed: int, block_index: int, block_size: int) -> np.ndarray:
    """The block's unit normals, read-only; the last block drawn is kept."""
    # one draw of the real parts, then the imaginary parts: the same stream
    # as two calls
    z = _substream(seed, block_index).standard_normal((2, block_size, 5))
    z.flags.writeable = False
    return z


def sample_fading_block(
    profile: FadingProfile, seed: int, block_index: int, block_size: int = BLOCK_SIZE
) -> np.ndarray:
    """Draw ``block_size`` fading states as a complex (block_size, 5) matrix.

    Columns are ordered (h1d, h2d, h1r, h2r, hrd).  The draw depends only on
    (seed, block_index, block_size), never on what was drawn before.
    """
    # checked before the cache: 12345.0 and True are equal to valid keys
    _check_samples(block_size, "block_size")
    _check_u64(seed)
    _check_u64(block_index, "block_index")
    z = _unit_normals(seed, block_index, block_size)
    std = np.sqrt(profile.as_array() / 2.0)
    h = np.empty((block_size, 5), dtype=complex)
    np.multiply(z[0], std, out=h.real)
    np.multiply(z[1], std, out=h.imag)
    return h


def _system(labels, mixing, source_vars, field_kind):
    dtype = complex if field_kind == "complex" else float
    b = np.asarray(mixing, dtype=complex)
    if field_kind == "real":
        b = b.real.astype(float)
    cov = (b * np.asarray(source_vars, dtype=float)) @ b.conj().T
    return GaussianSystem(labels=labels, covariance=cov.astype(dtype), field_kind=field_kind)


def _slot1_system(state: ChannelState, power: PowerConfig, sigma_q2: float):
    """Jointly Gaussian listen-slot system over (X11, X21, YR, YhR, YD1).

    YD1 = h1d*X11 + h2d*X21 + Z, YR = h1r*X11 + h2r*X21 + Z', and the
    relay's quantized observation YhR = YR + Zq with Var(Zq) = sigma_q2.
    ``sigma_q2 = math.inf`` means the relay observation is discarded: YhR
    is then the constant 0, which every mutual-information query drops.
    """
    h1d, h2d, h1r, h2r, _ = state.gains()
    keep, noise = (1.0, sigma_q2) if sigma_q2 < math.inf else (0.0, 0.0)
    mixing = [
        [1, 0, 0, 0, 0],
        [0, 1, 0, 0, 0],
        [h1r, h2r, 0, 1, 0],
        [keep * h1r, keep * h2r, 0, keep, 1],
        [h1d, h2d, 1, 0, 0],
    ]
    source_vars = [power.p11, power.p21, 1.0, 1.0, noise]
    return _system(SLOT1_LABELS, mixing, source_vars, state.field_kind)


def _slot2_system(state: ChannelState, power: PowerConfig):
    """Jointly Gaussian cooperate-slot system over (X12, X22, XR, YD2),
    with YD2 = h1d*X12 + h2d*X22 + hrd*XR + Z."""
    h1d, h2d, _, _, hrd = state.gains()
    mixing = [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [h1d, h2d, hrd, 1],
    ]
    source_vars = [power.p12, power.p22, power.pr, 1.0]
    return _system(SLOT2_LABELS, mixing, source_vars, state.field_kind)
