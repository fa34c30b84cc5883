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
import operator
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import rates
from .channel import (
    BLOCK_SIZE,
    FadingProfile,
    PowerConfig,
    _check_grid,
    _check_samples,
    sample_fading_block,
)
from .rates import RateTarget, _block, _mins, _scheme

__all__ = [
    "OutageEstimate",
    "IndividualOutageEstimate",
    "outage_flags",
    "classify_region_batch",
    "common_outage_mc",
    "individual_outage_mc",
    "optimize_ru_grid",
    "expected_sum_rate_common",
    "expected_sum_rate_indiv",
]


@dataclass(frozen=True)
class OutageEstimate:
    """Empirical outage probability.  ``ci95_halfwidth`` is that of the
    shortest interval centred at p_hat holding the 95% Wilson score interval,
    so it stays positive at an outage count of 0 or n_samples."""

    p_hat: float
    n_samples: int
    seed: int
    ci95_halfwidth: float

    def __post_init__(self):
        if not 0.0 <= self.p_hat <= 1.0:
            raise ValueError(f"p_hat must lie in [0, 1], got {self.p_hat!r}")
        _check_samples(self.n_samples, "n_samples")

    @classmethod
    def from_count(cls, count: int, n: int, seed: int) -> "OutageEstimate":
        p, z = count / n, 1.96
        centre = (count + z * z / 2.0) / (n + z * z)
        half = z * math.sqrt(count * (n - count) / n + z * z / 4.0) / (n + z * z)
        return cls(p, n, seed, half + abs(p - centre))


@dataclass(frozen=True)
class IndividualOutageEstimate:
    """Individual and common outage from one classification pass.

    With region_freqs = (f1..f4), p_indiv1 = f1 + f3 and p_indiv2 = f2 + f3
    hold exactly.  p_common is the count of regions 1-3 over n_samples, so
    it equals ``common_outage_mc(...).p_hat`` on the same draws; it equals
    f1 + f2 + f3 up to the rounding of that float sum.
    """

    p_indiv1: float
    p_indiv2: float
    p_common: float
    region_freqs: tuple[float, float, float, float]
    n_samples: int
    seed: int


def _clamp(x):
    return np.maximum(x, 0.0)


def _all(masks):
    """Elementwise AND of one or more boolean arrays."""
    return reduce(operator.and_, masks)


def _take(parts, idx):
    """``parts`` (arrays, possibly nested in tuples and lists) at draws ``idx``."""
    if isinstance(parts, np.ndarray):
        return parts[idx]
    if isinstance(parts, (tuple, list)):
        return type(parts)(_take(p, idx) for p in parts)
    return parts


def _index_regions(b, target):
    """(i1, i2, isum) and the region-1 and region-2 masks of a scheme with a
    relay index rate.  A user fails where it violates all of its own
    min-terms; it is decodable alone where it meets the single-user bounds,
    with the other source as noise, of its draw's index outcome.  Only a
    draw where a user fails can land in region 1 or 2, so those bounds are
    evaluated on such draws only."""
    terms, recovered, sq2 = rates._index_terms(b.terms, b.beta, target.ru)
    r1, r2 = target.r1, target.r2
    n = len(terms[0])  # min-terms per rate; each user meets its first n single-user bounds

    def decodable(j):  # draws that recover the index
        w1a, w1b, w2a, w2b = rates._interference_terms(
            _take(b.g, j), _take(b.L, j), b.power, b.beta, sq2[j], target.ru
        )
        return (_all(r1 <= _clamp(w) for w in (w1a, w1b)[:n]),
                _all(r2 <= _clamp(w) for w in (w2a, w2b)[:n]))

    fail1 = _all(r1 > _clamp(t) for t in terms[0])
    fail2 = _all(r2 > _clamp(t) for t in terms[1])
    reg1, reg2 = np.zeros_like(fail1), np.zeros_like(fail2)
    idx = np.flatnonzero(fail1 | fail2)
    if idx.size:
        # ok1, ok2: user 1, user 2 decodable alone on the draws idx
        if recovered is None:
            ok1, ok2 = decodable(idx)
        else:
            ok1, ok2 = np.empty(idx.size, bool), np.empty(idx.size, bool)
            rec = recovered[idx]
            if rec.any():
                ok1[rec], ok2[rec] = decodable(idx[rec])
            if not rec.all():
                u1, u2 = rates._no_index_interference_terms(_take(b.L, idx[~rec]), b.beta)
                ok1[~rec], ok2[~rec] = r1 <= _clamp(u1), r2 <= _clamp(u2)
        reg1[idx] = ok2 & fail1[idx]
        reg2[idx] = ok1 & fail2[idx]
    return _mins(terms), reg1, reg2


# ---------------------------------------------------------------------------
# outage over the index rate from one per-block interval
# ---------------------------------------------------------------------------

#: guard band (bits) around each target rate: a draw whose bounds come this
#: close to a target at the index rate asked for is settled by the exact
#: per-target kernel, whose rounding stays far inside it
_GUARD = 1e-9


class _IndexRateCurve:
    """Outage of ``scheme`` on the draw matrix ``h`` for the rate pair
    (r1, r2) at any index rate.  It builds the block's
    ``rates._index_block`` once and records what it was built for (``h``
    itself, scheme, power, beta and rate pair), which
    ``outage_flags(..., curve=)`` checks.

    In z = 1/sigma_q2 = (2^(ru/beta) - 1)/(1 + c1 + c2) a draw that
    recovers the index is out of outage on one interval of z
    (``rates._index_intervals``), built with every positive target rate
    lowered by the guard band (outer: outside it outage is certain) and
    raised by it (inner: inside it no outage is certain).  ``flags``
    compares z with both and runs the exact per-target kernel only on the
    draws in between, on draws whose inputs are not finite and where
    2^(ru/beta) - 1 is 0 or inf, so its flags are bit-identical to the
    kernel's.  With a recovery rate (non-WZ CF) recovery is tested exactly
    (``index_rate >= ru``), and a draw that does not recover takes the
    fallback verdict, which does not depend on ``ru`` and is found once per
    block; without one (GQF) every draw recovers the index.
    """

    def __init__(self, scheme, h, power, beta, r1, r2):
        spec = _scheme(scheme, beta, None, index_rate=True)
        r1, r2 = float(r1), float(r2)
        self.h, self.built_for = h, (scheme, power, beta, (r1, r2))
        self.terms = terms = _block(spec, _columns(h), power, beta).terms
        self.beta = beta
        received, _, self.index_rate, fallback = terms
        self.fallback = None if fallback is None else _violated(*fallback, RateTarget(r1, r2))
        self.inv_one_c = 1.0 / (1.0 + received)
        (self.lo_out, self.hi_out), (self.lo_in, self.hi_in) = rates._index_intervals(
            terms, beta, r1, r2, (-_GUARD, _GUARD))

    def split(self, ru):
        """(certain-outage flags, undecided band) at index rate ``ru``, or
        None where every draw needs the exact kernel."""
        x = rates._index_denom(self.beta, ru)
        if not 0.0 < x < math.inf:
            return None
        z = x * self.inv_one_c
        out = (z < self.lo_out) | (z > self.hi_out)
        band = ~(out | ((z >= self.lo_in) & (z <= self.hi_in)))
        if self.fallback is None:  # gqf: the index is always recovered
            return out, band
        recovered = self.index_rate >= ru
        return np.where(recovered, out, self.fallback), recovered & band

    def flags(self, target):
        exact = lambda terms: _violated(*_mins(rates._index_terms(terms, self.beta, target.ru)[0]),
                                        target)
        parts = self.split(target.ru)
        if parts is None:
            return exact(self.terms)
        flags, band = parts
        idx = np.flatnonzero(band)
        if idx.size:
            flags[idx] = exact(_take(self.terms, idx))
        return flags


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
    *,
    curve: _IndexRateCurve | None = None,
) -> np.ndarray:
    """Per-draw outage indicators of ``scheme`` on the draw matrix ``h``.

    Complex-signalling units, as in the ``rates`` cores.  Evaluating
    several schemes on one ``h`` compares them on shared draws.  ``curve``,
    if given, must be ``_IndexRateCurve(scheme, h, power, beta, target.r1,
    target.r2)`` for this very ``h``, else ValueError; its flags are
    bit-identical to the exact bounds evaluated here without it.
    """
    spec = _scheme(scheme, beta, target)
    if curve is None:
        return _violated(*spec.bounds(_block(spec, _columns(h), power, beta), target), target)
    if curve.h is not h or curve.built_for != (scheme, power, beta, (target.r1, target.r2)):
        raise ValueError("index-rate curve was built for other arguments")
    return curve.flags(target)


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
    bounds, reg1, reg2 = _index_regions(_block(spec, _columns(h), power, beta), target)
    common = _violated(*bounds, target)
    if np.any(reg1 & reg2) or np.any((reg1 | reg2) & ~common):
        raise RuntimeError("region classification invariant violated")
    codes = np.full(common.shape, 4, dtype=np.int8)
    codes[common] = 3
    codes[reg1] = 1
    codes[reg2] = 2
    return codes


# ---------------------------------------------------------------------------
# Monte Carlo accumulation
# ---------------------------------------------------------------------------


def _accumulate(profile, n, seed, fn):
    """Sum fn(block) over the first n draws; fn returns int64 counts.

    A numpy overflow or invalid operation raises FloatingPointError: the
    kernels ignore, in their own ``np.errstate`` blocks, the ones whose
    limits they handle, and any other makes the estimate meaningless.
    """
    _check_samples(n)
    total = 0
    with np.errstate(over="raise", invalid="raise"):
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

    counts = [int(c) for c in _accumulate(profile, n, seed, fn)]
    f1, f2, f3, f4 = (c / n for c in counts)
    return IndividualOutageEstimate(
        p_indiv1=f1 + f3,
        p_indiv2=f2 + f3,
        p_common=sum(counts[:3]) / n,
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
    _check_grid(grid, "index-rate grid")
    targets = [RateTarget(target.r1, target.r2, g) for g in grid]
    _scheme(scheme, beta, targets[0], index_rate=True)  # grid[0] > 0: every entry is
    # the outage curve over ru is built once per block, not per grid entry

    def fn(h):
        curve = _IndexRateCurve(scheme, h, power, beta, target.r1, target.r2)
        return [int(outage_flags(scheme, h, power, beta, t, curve=curve).sum()) for t in targets]

    counts = _accumulate(profile, n, seed, fn)
    best = int(np.argmin(counts))  # first minimum = smallest rate on ties
    return grid[best], OutageEstimate.from_count(int(counts[best]), n, seed)


def expected_sum_rate_common(target: RateTarget, outage: OutageEstimate) -> float:
    """Throughput (r1 + r2)(1 - p) under the common-outage definition."""
    return (target.r1 + target.r2) * (1.0 - outage.p_hat)


def expected_sum_rate_indiv(target: RateTarget, p_indiv1: float, p_indiv2: float) -> float:
    """Throughput r1(1 - p1) + r2(1 - p2) under individual outage."""
    return target.r1 * (1.0 - p_indiv1) + target.r2 * (1.0 - p_indiv2)
