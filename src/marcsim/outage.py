"""Monte Carlo outage and throughput estimation under block-Rayleigh fading.

A draw is one channel state; outage is the event that the fixed target
rate pair falls outside the scheme's instantaneous rate region (strict
violation of any bound; boundary equality is not outage).  The individual
outage of one user is resolved by classifying each draw into one of four
regions of the rate plane:

    1: user 1 undecodable, user 2 decodable
    2: user 1 decodable,   user 2 undecodable
    3: both undecodable
    4: no outage

Draws come in fixed-size blocks from counter-based substreams
(seed, block index), and accumulation is integer counting, so estimates
are bit-identical across runs and schemes can be compared on shared
draws without cross-scheme Monte Carlo noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import rates
from .channel import (
    BLOCK_SIZE,
    ChannelState,
    FadingProfile,
    PowerConfig,
    _check_beta,
    _quantizer_variance,
    sample_fading_block,
)
from .info import prefactor

__all__ = [
    "SCHEMES",
    "Scheme",
    "RateTarget",
    "OutageEstimate",
    "RegionOutcome",
    "IndividualOutageEstimate",
    "outage_flags",
    "gqf_outage_indicator",
    "classify_region",
    "classify_region_batch",
    "common_outage_mc",
    "individual_outage_mc",
    "optimize_ru_grid",
    "expected_sum_rate_common",
    "expected_sum_rate_indiv",
]


@dataclass(frozen=True)
class RateTarget:
    """Fixed transmission rates: per-user targets and, for fixed-index-rate
    schemes, the relay index rate (bits/channel use)."""

    r1: float
    r2: float
    ru: float = 0.0

    def __post_init__(self):
        for name in ("r1", "r2", "ru"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"rate {name} must be finite and >= 0, got {v!r}")


@dataclass(frozen=True)
class OutageEstimate:
    """Empirical outage probability with its normal-approximation 95% CI."""

    p_hat: float
    n_samples: int
    seed: int
    ci95_halfwidth: float

    def __post_init__(self):
        if not 0.0 <= self.p_hat <= 1.0:
            raise ValueError(f"p_hat must lie in [0, 1], got {self.p_hat!r}")
        if self.n_samples < 1:
            raise ValueError("need at least one sample")

    @classmethod
    def from_count(cls, count: int, n: int, seed: int) -> "OutageEstimate":
        p = count / n
        return cls(p, n, seed, 1.96 * math.sqrt(p * (1.0 - p) / n))


@dataclass(frozen=True)
class RegionOutcome:
    """Rate-plane region of one draw (1, 2, 3 or 4)."""

    region_index: int

    def __post_init__(self):
        if self.region_index not in (1, 2, 3, 4):
            raise ValueError(f"region index must be 1..4, got {self.region_index!r}")


@dataclass(frozen=True)
class IndividualOutageEstimate:
    """Individual and common outage from one classification pass.

    By construction p_indiv1 = f1 + f3, p_indiv2 = f2 + f3 and
    p_common = f1 + f2 + f3 hold exactly, where region_freqs = (f1..f4).
    """

    p_indiv1: float
    p_indiv2: float
    p_common: float
    region_freqs: tuple[float, float, float, float]
    n_samples: int
    seed: int


@dataclass(frozen=True)
class Scheme:
    """One relaying scheme of the Monte Carlo layer.

    ``bounds(g, power, beta, target)`` returns the per-draw (i1, i2, isum)
    on the gain columns g = (h1d, h2d, h1r, h2r, hrd) of a draw matrix,
    with complex fading semantics (prefactor 1).
    ``regions(g, power, beta, target)`` returns ((i1, i2, isum), reg1, reg2)
    with the region-1 and region-2 masks of :func:`classify_region_batch`;
    only schemes with a relay index rate have it, and having it means the
    scheme needs ``target.ru > 0``, gets an ``<name>_opt`` series that
    optimizes ``ru`` and supports individual outage.  ``beta``, if set, is
    the only slot split the scheme is defined for.
    """

    bounds: Callable
    regions: Callable | None = None
    beta: float | None = None

    def allows(self, beta: float) -> bool:
        """Whether the scheme is defined at slot split ``beta``."""
        return self.beta is None or abs(beta - self.beta) <= 1e-12


def _clamp(x):
    return np.maximum(x, 0.0)


def _fixed_ru_terms(g, power, beta, ru, k=1.0):
    """Quantizer variance that spends exactly ``ru`` on the relay's
    observation, chosen from the source-relay gains alone (receiver-side
    CSI), and the six joint-decoding min-terms at it."""
    received = np.abs(g[2]) ** 2 * power.p11 + np.abs(g[3]) ** 2 * power.p21
    sq2 = _quantizer_variance(received, beta, ru, k)
    return sq2, rates._gqf_terms(*g, power, beta, sq2, k)


def _mins(t):
    """(i1, i2, isum) of the six min-terms (t1a, t1b, t2a, t2b, tsa, tsb)."""
    return np.minimum(t[0], t[1]), np.minimum(t[2], t[3]), np.minimum(t[4], t[5])


def _gqf_regions(g, power, beta, target):
    sq2, t = _fixed_ru_terms(g, power, beta, target.ru)
    w1a, w1b, w2a, w2b = rates._interference_terms(*g, power, beta, sq2, target.ru, 1.0)
    r1, r2 = target.r1, target.r2
    user1_alone = (r1 <= _clamp(w1a)) & (r1 <= _clamp(w1b))
    user2_alone = (r2 <= _clamp(w2a)) & (r2 <= _clamp(w2b))
    reg2 = user1_alone & (r2 > _clamp(t[2])) & (r2 > _clamp(t[3]))
    reg1 = user2_alone & (r1 > _clamp(t[0])) & (r1 > _clamp(t[1]))
    return _mins(t), reg1, reg2


def _nonwz_regions(g, power, beta, target):
    i1, i2, isum, _, i1_int, i2_int = rates._nonwz_terms(*g, power, beta, target.ru, 1.0)
    r1, r2 = target.r1, target.r2
    reg2 = (r1 <= _clamp(i1_int)) & (r2 > _clamp(i2))
    reg1 = (r2 <= _clamp(i2_int)) & (r1 > _clamp(i1))
    return (i1, i2, isum), reg1, reg2


#: every scheme the Monte Carlo layer evaluates per draw; adding a scheme
#: here makes it available to the estimators, configs and sweeps
SCHEMES = {
    "gqf": Scheme(
        lambda g, power, beta, t: _mins(_fixed_ru_terms(g, power, beta, t.ru)[1]), _gqf_regions
    ),
    "csit": Scheme(lambda g, power, beta, t: rates._csit_terms(*g, power, beta, 1.0)),
    "nonwz_cf": Scheme(
        lambda g, power, beta, t: rates._nonwz_terms(*g, power, beta, t.ru, 1.0)[:3],
        _nonwz_regions,
    ),
    "df": Scheme(lambda g, power, beta, t: rates._df_terms(*g, power, beta, t.r1, t.r2, 1.0)),
    "af": Scheme(lambda g, power, beta, t: rates._af_terms(*g, power, 1.0), beta=0.5),
    "direct": Scheme(lambda g, power, beta, t: rates._direct_terms(g[0], g[1], power, beta, 1.0)),
    "direct15": Scheme(
        lambda g, power, beta, t: rates._direct_terms(g[0], g[1], power, beta, 1.0, boost=1.5)
    ),
}


def _scheme(name: str, beta: float, target: RateTarget, *, index_rate=False) -> Scheme:
    """Table entry of ``name`` after checking that it can run at ``beta``
    and ``target`` (and, with ``index_rate``, that it has a relay index rate)."""
    spec = SCHEMES.get(name)
    if spec is None:
        raise ValueError(f"unknown scheme {name!r}; known: {tuple(SCHEMES)}")
    if index_rate and spec.regions is None:
        raise ValueError(f"scheme {name!r} has no relay index rate to classify or optimize")
    _check_beta(beta)
    if not spec.allows(beta):
        raise ValueError(f"scheme {name!r} needs beta = {spec.beta}")
    if spec.regions is not None and target.ru <= 0.0:
        raise ValueError(f"scheme {name!r} needs a positive relay index rate")
    return spec


def _columns(h: np.ndarray):
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[1] != 5:
        raise ValueError("draw matrix must have shape (n, 5)")
    return h[:, 0], h[:, 1], h[:, 2], h[:, 3], h[:, 4]


def _violated(i1, i2, isum, target: RateTarget):
    return (
        (target.r1 > np.maximum(i1, 0.0))
        | (target.r2 > np.maximum(i2, 0.0))
        | (target.r1 + target.r2 > np.maximum(isum, 0.0))
    )


def outage_flags(
    scheme: str,
    h: np.ndarray,
    power: PowerConfig,
    beta: float,
    target: RateTarget,
) -> np.ndarray:
    """Per-draw outage indicators of ``scheme`` on the draw matrix ``h``.

    Complex fading semantics (prefactor 1).  Evaluating several schemes on
    one ``h`` compares them on shared draws.
    """
    spec = _scheme(scheme, beta, target)
    return _violated(*spec.bounds(_columns(h), power, beta, target), target)


def gqf_outage_indicator(
    state: ChannelState, power: PowerConfig, beta: float, target: RateTarget
) -> tuple[bool, rates.GqfBounds]:
    """Outage indicator of the fixed-index-rate joint-decoding scheme for
    one state, with the six bounds returned for audit.

    The quantizer variance is chosen from the source-relay gains alone
    (receiver-side CSI); the six violation tests then see the full state.
    """
    _scheme("gqf", beta, target)
    _, t = _fixed_ru_terms(state.gains(), power, beta, target.ru, prefactor(state.field_kind))
    t = [float(v) for v in t]
    # spending the index rate exactly makes t*b equal the index-charged
    # bounds minus ru, so the raw bounds are recovered by adding ru back
    bounds = rates.GqfBounds(
        b_r1=t[0], b_r1u=t[1] + target.ru,
        b_r2=t[2], b_r2u=t[3] + target.ru,
        b_r12=t[4], b_r12u=t[5] + target.ru,
    )
    return bool(_violated(*_mins(t), target)), bounds


def classify_region_batch(
    h: np.ndarray,
    power: PowerConfig,
    beta: float,
    target: RateTarget,
    scheme: str = "gqf",
) -> np.ndarray:
    """Rate-plane region (1..4) of every draw in ``h`` for a scheme with a
    relay index rate (``gqf`` or ``nonwz_cf``).

    Region 2 requires user 1 decodable with user 2's signal treated as
    noise and user 2 undecodable even after user 1 is cancelled; region 1
    mirrors it.  Raises RuntimeError if the four regions fail to partition
    (internal invariant).
    """
    spec = _scheme(scheme, beta, target, index_rate=True)
    bounds, reg1, reg2 = spec.regions(_columns(h), power, beta, target)
    common = _violated(*bounds, target)
    if np.any(reg1 & reg2) or np.any((reg1 | reg2) & ~common):
        raise RuntimeError("region classification invariant violated")
    codes = np.full(common.shape, 4, dtype=np.int8)
    codes[common] = 3
    codes[reg1] = 1
    codes[reg2] = 2
    return codes


def classify_region(
    state: ChannelState, power: PowerConfig, beta: float, target: RateTarget,
    scheme: str = "gqf",
) -> RegionOutcome:
    """Region of one draw; see :func:`classify_region_batch`."""
    h = np.array([state.gains()], dtype=complex)
    return RegionOutcome(int(classify_region_batch(h, power, beta, target, scheme)[0]))


# ---------------------------------------------------------------------------
# Monte Carlo accumulation
# ---------------------------------------------------------------------------


def _accumulate(profile, n, seed, fn):
    """Sum fn(block) over the first n draws; fn returns int64 counts."""
    if n < 1:
        raise ValueError("need at least one sample")
    total = 0
    for b in range((n + BLOCK_SIZE - 1) // BLOCK_SIZE):
        # the last block is cut to the draws left
        h = sample_fading_block(profile, seed, b)[: n - b * BLOCK_SIZE]
        total = total + np.asarray(fn(h), dtype=np.int64)
    return total


def common_outage_mc(
    scheme: str,
    profile: FadingProfile,
    power: PowerConfig,
    beta: float,
    target: RateTarget,
    n: int,
    seed: int,
) -> OutageEstimate:
    """Common outage probability of ``scheme`` over ``n`` fading draws.

    Identical (scheme, inputs, n, seed) give bit-identical estimates.
    """
    _scheme(scheme, beta, target)
    fn = lambda h: [int(outage_flags(scheme, h, power, beta, target).sum())]
    count = _accumulate(profile, n, seed, fn)[0]
    return OutageEstimate.from_count(int(count), n, seed)


def individual_outage_mc(
    profile: FadingProfile,
    power: PowerConfig,
    beta: float,
    target: RateTarget,
    n: int,
    seed: int,
    *,
    scheme: str = "gqf",
) -> IndividualOutageEstimate:
    """Individual and common outage from one region-classification pass."""

    def fn(h):
        codes = classify_region_batch(h, power, beta, target, scheme)
        return np.bincount(codes, minlength=5)[1:5]

    counts = _accumulate(profile, n, seed, fn)
    f1, f2, f3, f4 = (int(c) / n for c in counts)
    return IndividualOutageEstimate(
        p_indiv1=f1 + f3,
        p_indiv2=f2 + f3,
        p_common=f1 + f2 + f3,
        region_freqs=(f1, f2, f3, f4),
        n_samples=n,
        seed=seed,
    )


def optimize_ru_grid(
    profile: FadingProfile,
    power: PowerConfig,
    beta: float,
    target: RateTarget,
    grid,
    n: int,
    seed: int,
    *,
    scheme: str = "gqf",
) -> tuple[float, OutageEstimate]:
    """Relay index rate from ``grid`` minimizing common outage on shared
    draws; ties resolve to the smallest rate.  ``target.ru`` is ignored."""
    grid = [float(g) for g in grid]
    if not grid:
        raise ValueError("index-rate grid must be non-empty")
    if any(g <= 0.0 for g in grid) or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("index-rate grid must be positive and strictly increasing")
    targets = [RateTarget(target.r1, target.r2, g) for g in grid]
    _scheme(scheme, beta, targets[0], index_rate=True)

    def fn(h):
        return [int(outage_flags(scheme, h, power, beta, t).sum()) for t in targets]

    counts = _accumulate(profile, n, seed, fn)
    best = int(np.argmin(counts))  # first minimum = smallest rate on ties
    return grid[best], OutageEstimate.from_count(int(counts[best]), n, seed)


def expected_sum_rate_common(target: RateTarget, outage: OutageEstimate) -> float:
    """Throughput (r1 + r2)(1 - p) under the common-outage definition."""
    return (target.r1 + target.r2) * (1.0 - outage.p_hat)


def expected_sum_rate_indiv(target: RateTarget, p_indiv1: float, p_indiv2: float) -> float:
    """Throughput r1(1 - p1) + r2(1 - p2) under individual outage."""
    return target.r1 * (1.0 - p_indiv1) + target.r2 * (1.0 - p_indiv2)
