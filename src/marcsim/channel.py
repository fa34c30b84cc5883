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

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .info import GaussianSystem, prefactor

_LN2 = math.log(2.0)

__all__ = [
    "STATIC",
    "FADING",
    "BLOCK_SIZE",
    "ChannelState",
    "PowerConfig",
    "FadingProfile",
    "substream",
    "sample_fading",
    "sample_fading_block",
    "draw_states",
    "slot1_system",
    "slot2_system",
    "sigma_q2_for_fixed_ru",
    "ru_for_sigma_q2",
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
        return cls(snr, snr, snr, snr, snr / (1.0 - beta))

    @classmethod
    def from_snr_db(cls, snr_db: float, beta: float) -> "PowerConfig":
        """:meth:`from_snr` at ``snr_db`` decibels.  Raises ValueError when a
        linear power is not finite."""
        try:
            snr = 10.0 ** (snr_db / 10.0)
        except OverflowError:
            snr = math.inf
        return cls.from_snr(snr, beta)


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
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"variance {name} must be finite and > 0, got {v!r}")

    @classmethod
    def uniform(cls, var: float = 1.0) -> "FadingProfile":
        return cls(var, var, var, var, var)

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.var_1d, self.var_2d, self.var_1r, self.var_2r, self.var_rd]
        )


def _check_beta(beta: float) -> float:
    if not (0.0 < beta < 1.0):
        raise ValueError(f"slot ratio beta must lie in (0, 1), got {beta!r}")
    return beta


def substream(seed: int, index: int) -> Generator:
    """Independent generator for substream ``index`` of master ``seed``.

    Philox is counter based: keying by (seed, index) makes substreams
    reproducible in any order.
    """
    if not (0 <= int(seed) < 2**64):
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    if not (0 <= int(index) < 2**64):
        raise ValueError("substream index must fit in an unsigned 64-bit integer")
    key = np.array([seed, index], dtype=np.uint64)
    return Generator(Philox(key=key))


def sample_fading(profile: FadingProfile, rng: Generator) -> ChannelState:
    """Draw one fading state: independent CN(0, var) per link.

    Real and imaginary parts each carry var/2 so that E|h|^2 = var exactly.
    """
    std = np.sqrt(profile.as_array() / 2.0)
    re = rng.standard_normal(5)
    im = rng.standard_normal(5)
    h = (re + 1j * im) * std
    return ChannelState(*(complex(v) for v in h), mode=FADING)


def sample_fading_block(
    profile: FadingProfile, seed: int, block_index: int, block_size: int = BLOCK_SIZE
) -> np.ndarray:
    """Draw ``block_size`` fading states as a complex (block_size, 5) matrix.

    Columns are ordered (h1d, h2d, h1r, h2r, hrd).  The draw depends only on
    (seed, block_index, block_size), never on what was drawn before.
    """
    rng = substream(seed, block_index)
    re = rng.standard_normal((block_size, 5))
    im = rng.standard_normal((block_size, 5))
    return (re + 1j * im) * np.sqrt(profile.as_array() / 2.0)


def draw_states(profile: FadingProfile, n: int, seed: int) -> np.ndarray:
    """Materialize the first ``n`` fading states of a run as an (n, 5) matrix."""
    if n < 1:
        raise ValueError("need at least one sample")
    blocks = []
    for b in range((n + BLOCK_SIZE - 1) // BLOCK_SIZE):
        blocks.append(sample_fading_block(profile, seed, b))
    return np.concatenate(blocks, axis=0)[:n]


def _system(labels, mixing, source_vars, field_kind):
    dtype = complex if field_kind == "complex" else float
    b = np.asarray(mixing, dtype=complex)
    if field_kind == "real":
        b = b.real.astype(float)
    cov = (b * np.asarray(source_vars, dtype=float)) @ b.conj().T
    return GaussianSystem(labels=labels, covariance=cov.astype(dtype), field_kind=field_kind)


def slot1_system(state: ChannelState, power: PowerConfig, sigma_q2: float):
    """Jointly Gaussian listen-slot system over (X11, X21, YR, YhR, YD1).

    YD1 = h1d*X11 + h2d*X21 + Z, YR = h1r*X11 + h2r*X21 + Z', and the
    relay's quantized observation YhR = YR + Zq with Var(Zq) = sigma_q2.
    ``sigma_q2 = math.inf`` means the relay observation is discarded: the
    YhR row is dropped from the system rather than materializing an
    infinite variance.
    """
    if not sigma_q2 > 0.0:
        raise ValueError(f"quantization noise variance must be > 0, got {sigma_q2!r}")
    h1d, h2d, h1r, h2r, _ = state.gains()
    if math.isinf(sigma_q2):
        mixing = [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [h1r, h2r, 0, 1],
            [h1d, h2d, 1, 0],
        ]
        labels = ("X11", "X21", "YR", "YD1")
        source_vars = [power.p11, power.p21, 1.0, 1.0]
    else:
        mixing = [
            [1, 0, 0, 0, 0],
            [0, 1, 0, 0, 0],
            [h1r, h2r, 0, 1, 0],
            [h1r, h2r, 0, 1, 1],
            [h1d, h2d, 1, 0, 0],
        ]
        labels = SLOT1_LABELS
        source_vars = [power.p11, power.p21, 1.0, 1.0, sigma_q2]
    return _system(labels, mixing, source_vars, state.field_kind)


def slot2_system(state: ChannelState, power: PowerConfig):
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


def sigma_q2_for_fixed_ru(
    state: ChannelState, power: PowerConfig, beta: float, ru: float
) -> float:
    """Quantization noise variance that spends exactly ``ru`` bits of index
    rate on describing the relay observation.

    In fading mode this inverts
    ru = beta * log2(1 + (1 + |h1r|^2 p11 + |h2r|^2 p21) / s):

        s = (1 + |h1r|^2 p11 + |h2r|^2 p21) / (2^(ru/beta) - 1);

    static (real) mode halves the information per use, so the inversion
    uses 2^(2 ru / beta).  Only the source-to-relay gains enter: this is
    the choice a relay with receiver-side CSI alone can actually make.
    """
    _check_beta(beta)
    if not ru > 0.0:
        raise ValueError(f"relay index rate must be > 0, got {ru!r}")
    k = prefactor(state.field_kind)
    received = abs(state.h1r) ** 2 * power.p11 + abs(state.h2r) ** 2 * power.p21
    return _quantizer_variance(received, beta, ru, k)


def _quantizer_variance(received, beta: float, ru: float, k: float):
    """(1 + received) / (2^(ru/(beta*k)) - 1), broadcasting over ``received``.

    An index rate whose 2^(ru/(beta*k)) exceeds the float range gives the
    limit 0 (an exact description of the relay observation); one so small
    that the quotient exceeds it gives the limit inf (no description).
    """
    try:
        denom = math.expm1(ru / (beta * k) * _LN2)
    except OverflowError:
        denom = math.inf
    with np.errstate(over="ignore"):
        return (1.0 + received) / denom


def ru_for_sigma_q2(
    state: ChannelState, power: PowerConfig, beta: float, sigma_q2: float
) -> float:
    """Index rate implied by a quantizer variance; inverse of
    :func:`sigma_q2_for_fixed_ru` (same bit convention)."""
    _check_beta(beta)
    if not sigma_q2 > 0.0:
        raise ValueError(f"quantization noise variance must be > 0, got {sigma_q2!r}")
    if math.isinf(sigma_q2):
        return 0.0
    k = prefactor(state.field_kind)
    received = abs(state.h1r) ** 2 * power.p11 + abs(state.h2r) ** 2 * power.p21
    return beta * k * math.log2(1.0 + (1.0 + received) / sigma_q2)
