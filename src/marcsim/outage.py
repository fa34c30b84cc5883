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

It draws, calls the scheme table and counts; ``marcsim.rates`` makes every
per-draw decision on a block (bounds, region masks, index-rate curve).

Draws come in fixed-size blocks from counter-based substreams
(seed, block index), and accumulation is integer counting, so estimates
are bit-identical across runs and schemes can be compared on shared
draws without cross-scheme Monte Carlo noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    BLOCK_SIZE,
    FadingProfile,
    PowerConfig,
    _check_grid,
    _check_samples,
    sample_fading_block,
)
from .rates import (RateTarget, _IndexRateCurve, _block, _columns, _index_regions, _scheme,
                    _violated)

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


def _check_probability(p, name: str) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {p!r}")


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
        _check_probability(self.p_hat, "p_hat")
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

    With region_freqs = (f1..f4), p_indiv1 and p_indiv2 are the float sums
    f1 + f3 and f2 + f3, whose rounding reaches the CSV (0.10833000000000001
    in fig8); count ratios would change the pinned fig8 outputs, so they
    wait for a benchmark change.  p_common is the count of regions 1-3 over
    n_samples, so it equals ``common_outage_mc(...).p_hat`` on the same
    draws; it equals f1 + f2 + f3 up to the rounding of that float sum.
    ``from_counts`` builds the record from the four region counts.
    """

    p_indiv1: float
    p_indiv2: float
    p_common: float
    region_freqs: tuple[float, float, float, float]
    n_samples: int
    seed: int

    def __post_init__(self):
        for name in ("p_indiv1", "p_indiv2", "p_common"):
            _check_probability(getattr(self, name), name)
        for p in self.region_freqs:
            _check_probability(p, "each region frequency")
        _check_samples(self.n_samples, "n_samples")

    @classmethod
    def from_counts(cls, counts, n: int, seed: int) -> "IndividualOutageEstimate":
        c1, c2, c3, c4 = map(int, counts)
        f1, f2, f3, f4 = (c / n for c in (c1, c2, c3, c4))
        return cls(f1 + f3, f2 + f3, (c1 + c2 + c3) / n, (f1, f2, f3, f4), n, seed)


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
    common, reg1, reg2 = _index_regions(_block(spec, _columns(h), power, beta), target)
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


def _sweep(n, seed, scheme, job, finish, profile, *per_scheme):
    """``finish(counts, n, seed)`` of the summed ``count(h, *args)``, as
    Python ints, over the first n draws of ``profile`` or, given lists of
    one length for ``profile`` and ``args``, one entry per sweep point, the
    list of that at each point, where ``(count, args) = job(scheme,
    *per_scheme)``; for a non-empty list of names, each of ``per_scheme`` a
    list of one entry per name, the list of that for each name.  Every job
    is made, so every name and target checked, before the first draw, and
    all run in one pass: blocks, then points, then jobs, so a block's
    normals are drawn once, and each (block, profile) is scaled and, but for
    the short last block (a slice), its power-free |h|^2 taken once.  A numpy overflow or invalid operation
    raises FloatingPointError: the kernels ignore, in their own
    ``np.errstate`` blocks, the ones whose limits they handle, and any
    other makes the estimate meaningless.
    """
    _check_samples(n)
    one_scheme, one = isinstance(scheme, str), not isinstance(profile, list)
    names, entries = ([scheme], [[e] for e in per_scheme]) if one_scheme else (scheme, per_scheme)
    if not len(names) or any(not isinstance(e, list) or len(e) != len(names) for e in entries):
        raise ValueError("scheme must be a name or a non-empty list of names, and each "
                         "per-scheme argument then a list of one entry per name")
    jobs = [job(*a) for a in zip(names, *entries)]
    args = [a for _, job_args in jobs for a in job_args]
    columns = [[a] if one else a for a in (profile, *args)]
    if any(isinstance(a, list) == one for a in args) or len({len(c) for c in columns}) > 1:
        raise ValueError("per-point arguments must be single values or lists of one length")
    totals = [[0] * len(columns[0]) for _ in jobs]
    with np.errstate(over="raise", invalid="raise"):
        for b in range((n + BLOCK_SIZE - 1) // BLOCK_SIZE):
            for i, prof in enumerate(columns[0]):
                for (count, job_args), t in zip(jobs, totals):
                    # the last block is cut to the draws left
                    h = sample_fading_block(prof, seed, b)[: n - b * BLOCK_SIZE]
                    values = (a if one else a[i] for a in job_args)
                    t[i] = t[i] + np.asarray(count(h, *values), dtype=np.int64)
    estimates = [[finish(c.tolist(), n, seed) for c in t] for t in totals]
    estimates = [e[0] if one else e for e in estimates]
    return estimates[0] if one_scheme else estimates


def common_outage_mc(
    scheme: str | list[str],
    profile: FadingProfile | list[FadingProfile],
    power: PowerConfig | list[PowerConfig],
    beta: float,
    target: RateTarget,
    n: int,
    seed: int,
) -> OutageEstimate | list:
    """Common outage probability of ``scheme`` over ``n`` fading draws;
    with lists of profiles and powers, one estimate per sweep point, and
    with a list of schemes, one entry per scheme, from one pass.

    Identical (scheme, inputs, n, seed) give bit-identical estimates.
    """
    def job(name):
        _scheme(name, beta, target)
        count = lambda h, power: int(outage_flags(name, h, power, beta, target).sum())
        return count, (power,)

    return _sweep(n, seed, scheme, job, OutageEstimate.from_count, profile)


def individual_outage_mc(
    profile: FadingProfile | list[FadingProfile],
    power: PowerConfig | list[PowerConfig],
    beta: float,
    target: RateTarget | list,
    n: int,
    seed: int,
    *,
    scheme: str | list[str] = "gqf",
) -> IndividualOutageEstimate | list:
    """Individual and common outage from one region-classification pass,
    built by ``IndividualOutageEstimate.from_counts``; with lists of
    profiles, powers and targets, one estimate per point, and with a list
    of schemes and one ``target`` entry per scheme, one entry per scheme,
    from one pass.  Each name and each of its targets is checked, as
    ``classify_region_batch`` checks them on every block, before the first
    draw."""

    def job(name, target):
        for t in (target if isinstance(target, list) else [target]) or [None]:
            _scheme(name, beta, t, index_rate=True)
        count = lambda h, power, target: np.bincount(
            classify_region_batch(h, power, beta, target, name), minlength=5)[1:5]
        return count, (power, target)

    return _sweep(n, seed, scheme, job, IndividualOutageEstimate.from_counts, profile, target)


def optimize_ru_grid(
    profile: FadingProfile | list[FadingProfile],
    power: PowerConfig | list[PowerConfig],
    beta: float,
    target: RateTarget,
    grid,
    n: int,
    seed: int,
    *,
    scheme: str | list[str] = "gqf",
) -> tuple[float, OutageEstimate] | list:
    """Relay index rate from ``grid`` minimizing common outage on shared
    draws; ties resolve to the smallest rate.  ``target.ru`` is ignored.
    With lists of profiles and powers, one choice per sweep point, and
    with a list of schemes, one entry per scheme, from one pass."""
    grid = [float(g) for g in grid]
    _check_grid(grid, "index-rate grid")
    targets = [RateTarget(target.r1, target.r2, g) for g in grid]

    def finish(counts, n, seed):
        best = int(np.argmin(counts))  # first minimum = smallest rate on ties
        return grid[best], OutageEstimate.from_count(counts[best], n, seed)

    def job(name):
        # _check_grid made the grid strictly increasing, so grid[0] > 0 covers every entry
        _scheme(name, beta, targets[0], index_rate=True)

        def count(h, power):  # the outage curve over ru is built once per block
            curve = _IndexRateCurve(name, h, power, beta, target.r1, target.r2)
            return [int(outage_flags(name, h, power, beta, t, curve=curve).sum())
                    for t in targets]

        return count, (power,)

    return _sweep(n, seed, scheme, job, finish, profile)


def expected_sum_rate_common(target: RateTarget, outage: OutageEstimate) -> float:
    """Throughput (r1 + r2)(1 - p) under the common-outage definition."""
    return (target.r1 + target.r2) * (1.0 - outage.p_hat)


def expected_sum_rate_indiv(target: RateTarget, p_indiv1: float, p_indiv2: float) -> float:
    """Throughput r1(1 - p1) + r2(1 - p2) under individual outage."""
    return target.r1 * (1.0 - p_indiv1) + target.r2 * (1.0 - p_indiv2)
