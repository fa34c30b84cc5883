"""Per-scheme achievable rates for a fixed channel state.

Schemes covered:

* quantize-forward with joint decoding (GQF): the relay quantizes its
  listen-slot reception and sends the raw quantization index; the
  destination jointly decodes both source messages without explicitly
  recovering the index.  Six bounds, three of which are charged the index
  rate.
* compress-forward (CF): quantization plus Wyner-Ziv binning and
  successive decoding; only feasible when the relay-destination link can
  carry the compression.
* non-WZ CF: successive decoding without binning; the destination falls
  back to treating the relay signal as interference when it cannot recover
  the index.
* decode-forward, amplify-forward and direct transmission baselines in
  standard form (see README for the exact constructions).

The numeric cores broadcast over numpy arrays, so the Monte Carlo layer
evaluates exactly the expressions the scalar API exposes; the per-draw
decisions it counts (the outage test, the region masks of individual
outage and the outage curve over the relay index rate) are made here too.
They work in complex-signalling units (prefactor 1), rate inputs too; the
scalar API applies the 1/2 of real signalling.  The engine-path evaluators
(`quantizer_index_rate`, `gqf_bounds`, `gqf_region`, `cf_region`) instead
query the mutual-information engine of a network family's slot sources: the
covariance engine for a `GaussianFamily`, giving every closed form an
independent in-package oracle, or the pmf engine for a `MarcPmfFamily`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Callable, NamedTuple

import numpy as np

from . import info
from .channel import (
    SLOT1_LABELS,
    SLOT2_LABELS,
    ChannelState,
    PowerConfig,
    _check_beta,
    _check_index_rate,
    _check_rate,
    _check_sigma_q2,
    _check_slot,
    _slot1_system,
    _slot2_system,
)

__all__ = [
    "FeasibilityError",
    "RateRegion",
    "RateTarget",
    "Scheme",
    "SCHEMES",
    "GqfBounds",
    "sigma_q2_for_fixed_ru",
    "gqf_min_terms_gaussian",
    "sigma_q2_opt_sum",
    "region",
    "GaussianFamily",
    "MarcPmfFamily",
    "quantizer_index_rate",
    "gqf_bounds",
    "gqf_region",
    "cf_region",
]

# slack allowed when checking ru against the quantizer index rate, so the
# equality choice (index rate spent exactly) is accepted
_FEAS_TOL = 1e-9

_AF_BETA = 0.5  # amplify-forward's one slot split: a sample forwarded per use

_LN2 = math.log(2.0)


class FeasibilityError(ValueError):
    """The requested operating point is outside the scheme's feasible set."""


@dataclass(frozen=True)
class RateRegion:
    """Pentagon {r1 <= i1, r2 <= i2, r1 + r2 <= isum} in bits/channel use."""

    i1: float
    i2: float
    isum: float

    def __post_init__(self):
        for name in ("i1", "i2", "isum"):
            _check_rate(getattr(self, name), f"rate bound {name}")

    @classmethod
    def from_bounds(cls, i1: float, i2: float, isum: float) -> "RateRegion":
        """Clamp possibly negative bounds to an empty region."""
        return cls(max(float(i1), 0.0), max(float(i2), 0.0), max(float(isum), 0.0))

    @property
    def is_proper_pentagon(self) -> bool:
        """True when the sum bound does not exceed i1 + i2 (flag, not error)."""
        return self.isum <= self.i1 + self.i2 + 1e-9

    def contains(self, r1: float, r2: float) -> bool:
        """Boundary points count as inside (outage uses strict violation)."""
        return r1 <= self.i1 and r2 <= self.i2 and r1 + r2 <= self.isum


@dataclass(frozen=True)
class RateTarget:
    """Fixed transmission rates: per-user targets and, for fixed-index-rate
    schemes, the relay index rate (bits/channel use)."""

    r1: float
    r2: float
    ru: float = 0.0

    def __post_init__(self):
        for name in ("r1", "r2", "ru"):
            _check_rate(getattr(self, name), f"rate {name}")


@dataclass(frozen=True)
class GqfBounds:
    """Right-hand sides of the six joint-decoding bounds.

    ``b_r1/b_r2/b_r12`` bound r1, r2 and r1+r2 directly; the ``*_u``
    variants additionally carry the relay index and are stored before the
    index rate is subtracted.
    """

    b_r1: float
    b_r1u: float
    b_r2: float
    b_r2u: float
    b_r12: float
    b_r12u: float

    def __post_init__(self):
        for name in ("b_r1", "b_r1u", "b_r2", "b_r2u", "b_r12", "b_r12u"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"bound {name} must be finite")

    def region(self, ru: float) -> RateRegion:
        return RateRegion.from_bounds(
            min(self.b_r1, self.b_r1u - ru),
            min(self.b_r2, self.b_r2u - ru),
            min(self.b_r12, self.b_r12u - ru),
        )


# ---------------------------------------------------------------------------
# broadcastable closed-form cores (complex-signalling units)
#
# notation for per-draw received powers (noise is unit variance):
#   a1, a2: source -> destination, listen slot     |h_id|^2 * p_i1
#   c1, c2: source -> relay, listen slot           |h_ir|^2 * p_i1
#   d1, d2: source -> destination, cooperate slot  |h_id|^2 * p_i2
#   e:      relay -> destination, cooperate slot   |h_rd|^2 * pr
#   kap:    two-user cross term |h1d*h2r - h1r*h2d|^2 * p11 * p21
# ---------------------------------------------------------------------------


def _links(g, power: PowerConfig):
    """Link powers L = (a1, a2, c1, c2, d1, d2, e, kap) of the gain columns
    g = (h1d, h2d, h1r, h2r, hrd); every core below takes L."""
    h1d, h2d, h1r, h2r, hrd = g
    g1d = np.abs(h1d) ** 2
    g2d = np.abs(h2d) ** 2
    a1 = g1d * power.p11
    a2 = g2d * power.p21
    c1 = np.abs(h1r) ** 2 * power.p11
    c2 = np.abs(h2r) ** 2 * power.p21
    d1 = g1d * power.p12
    d2 = g2d * power.p22
    e = np.abs(hrd) ** 2 * power.pr
    kap = np.abs(h1d * h2r - h1r * h2d) ** 2 * power.p11 * power.p21
    return a1, a2, c1, c2, d1, d2, e, kap


def _rate_sets(L):
    """(1 + a, c, 1 + d) of each rate set (r1, r2, r1 + r2): listen-slot
    variance, relay-observation power (kap in the pair) and cooperate-slot
    variance.  Every bound is one formula mapped over these triples; no
    other code adds the two users' powers."""
    a1, a2, c1, c2, d1, d2, _, kap = L
    return (
        (1.0 + a1, c1, 1.0 + d1),
        (1.0 + a2, c2, 1.0 + d2),
        (1.0 + a1 + a2, c1 + c2 + kap, 1.0 + d1 + d2),
    )


def _gqf_block(L, beta, charged=True):
    """Per-block part of the joint-decoding min-terms: everything that does
    not depend on the quantizer variance.

    One part per rate set: its (1 + a, c) of :func:`_rate_sets` and the
    cooperate-slot terms of the plain bound and (with ``charged``, else
    None) of the index-charged bound.
    """
    e, mb = L[6], 1.0 - beta
    return [(s, c, mb * np.log2(dsum), mb * np.log2(dsum + e) if charged else None)
            for s, c, dsum in _rate_sets(L)]


def _gqf_terms(G, beta, sigma_q2):
    """Min-terms of the joint-decoding region at quantizer variance
    sigma_q2, per rate set (r1, r2, r1 + r2), from the per-block part
    ``G = _gqf_block(L, beta, charged)``: ((t1a, t1b), (t2a, t2b),
    (tsa, tsb)), or ((t1a,), (t2a,), (tsa,)) for a block without the
    index-charged terms.

    ``t*a`` are the plain bounds, ``t*b`` the index-charged bounds with the
    index rate spent exactly on the quantizer.  ``sigma_q2 = inf`` (relay
    observation discarded) is handled through 1/(1+sigma_q2) -> 0.
    """
    t = []
    with np.errstate(divide="ignore"):
        u_inv = 1.0 / (1.0 + sigma_q2)    # -> 0 when sigma_q2 = inf
        with np.errstate(invalid="ignore"):  # inf * 0, replaced by the limit 1
            # sigma_q2 / (1 + sigma_q2), with no cancellation at small sigma_q2
            ratio = np.where(np.isinf(sigma_q2), 1.0, sigma_q2 * u_inv)
        for s, c, coop, coop_u in G:
            plain = beta * np.log2(s + c * u_inv) + coop
            t.append((plain,) if coop_u is None else (plain, beta * np.log2(s * ratio) + coop_u))
    return tuple(t)


def _index_denom(beta: float, ru: float) -> float:
    """2^(ru/beta) - 1, or inf where it exceeds the float range."""
    try:
        return math.expm1(ru / beta * _LN2)
    except OverflowError:
        return math.inf


def _quantizer_variance(received, beta: float, ru: float):
    """Fixed-index-rate quantizer (1 + received) / (2^(ru/beta) - 1) for
    ``ru`` in complex units, broadcasting over the relay's received power
    ``received`` = c1 + c2.

    An index rate whose 2^(ru/beta) exceeds the float range gives the
    limit 0 (an exact description of the relay observation); one so small
    that the quotient exceeds it gives the limit inf (no description).
    """
    with np.errstate(over="ignore"):
        return (1.0 + received) / _index_denom(beta, ru)


def _index_block(L, beta, recover):
    """Per-block part of the kernel of a scheme with a relay index rate,
    which does not depend on the index rate: (c1 + c2, G, index_rate,
    fallback).

    The relay's received power c1 + c2 sets the fixed-index-rate quantizer
    (receiver-side CSI).  Without ``recover`` (GQF) the destination decodes
    jointly, so ``G = _gqf_block(L, beta)`` carries the index-charged terms
    and ``index_rate`` and ``fallback`` are None: the index always counts as
    recovered.  With ``recover`` (non-WZ CF) the destination first recovers
    the index, treating the cooperate-slot source signals as interference,
    at rates up to ``index_rate``; ``G`` has the plain terms only, and
    ``fallback`` is the two-slot MAC region with the relay signal as
    cooperate-slot interference.
    """
    received = L[2] + L[3]
    if not recover:
        return received, _gqf_block(L, beta), None, None
    e, (_, _, dsum) = L[6], _rate_sets(L)[2]  # dsum: the pair's cooperate-slot variance
    index_rate = (1.0 - beta) * np.log2(1.0 + e / dsum)
    fallback = _direct_terms(L, beta, slot2_interference=e)
    return received, _gqf_block(L, beta, charged=False), index_rate, fallback


def _index_terms(B, beta, ru):
    """Min-terms at index rate ``ru`` from the per-block part
    ``B = _index_block(L, beta, recover)``: per rate (r1, r2, r1 + r2), the
    tuple of the min-terms (see :func:`_gqf_terms`) of the quantizer that
    spends exactly ``ru`` on the relay's observation, where the draws that
    do not recover the index (see :func:`_recovered`) carry their fallback
    bound.
    """
    received, G, _, fallback = B
    terms = _gqf_terms(G, beta, _quantizer_variance(received, beta, ru))
    recovered = _recovered(B, ru)
    if recovered is not None:
        terms = tuple((np.where(recovered, t, f),) for (t,), f in zip(terms, fallback))
    return terms


def _recovered(B, ru):
    """Draws of the block ``B = _index_block(L, beta, recover)`` whose index
    the destination recovers at index rate ``ru`` (the tie at the threshold
    goes to "recovered"), or None where the block has no recovery rate."""
    index_rate = B[2]
    return None if index_rate is None else index_rate >= ru


def _index_intervals(B, beta, r1, r2, shifts):
    """Per shift, the interval (lo, hi) of z = 1/sigma_q2 on which a draw of
    the block ``B = _index_block(L, beta, recover)`` that recovers the index
    meets every positive rate of (r1, r2, r1 + r2) moved by the shift.

    In z, for a part (s, c, coop, coop_u) of ``_gqf_block``, the plain
    min-term beta*log2(s + c*z/(1 + z)) + coop rises and the index-charged
    one beta*log2(s/(1 + z)) + coop_u falls, so each bounds z on one side in
    closed form.  ``lo`` is inf where a plain term never reaches its rate
    (and where c = 0 meets the shifted rate exactly, which a guard band
    around the unshifted rate absorbs); ``hi`` is inf where the block has
    no index-charged terms.  The intervals hold only for a block whose
    inputs are all finite; :class:`_IndexRateCurve` reads no other.
    """
    received, G, _, _ = B
    lo = [np.zeros_like(received) for _ in shifts]
    hi = [np.full_like(received, np.inf) for _ in shifts]
    with np.errstate(all="ignore"):
        for (s, c, coop, coop_u), rate in zip(G, (r1, r2, r1 + r2)):
            if rate > 0.0:  # a zero rate is met by every clamped bound
                e = np.exp2((rate - coop) / beta)
                for a, shift in zip(lo, shifts):
                    d = e * np.exp2(shift / beta) - s  # what c*z/(1 + z) must reach
                    np.maximum(a, np.where(c > d, d / (c - d), np.inf), out=a)
                if coop_u is not None:
                    q = s / np.exp2((rate - coop_u) / beta)
                    for a, shift in zip(hi, shifts):
                        np.minimum(a, q * np.exp2(-shift / beta) - 1.0, out=a)
    return list(zip(lo, hi))


def _mac_terms(L, beta):
    """Two-slot MAC bounds (i1, i2, isum) of the link powers L, with the
    relay power e added to every cooperate-slot bound (0 for a silent
    relay); the relay-observation powers c and kap are not read."""
    e, mb = L[6], 1.0 - beta
    return tuple(beta * np.log2(s) + mb * np.log2(dsum + e) for s, _, dsum in _rate_sets(L))


def _direct_terms(L, beta, boost=1.0, slot2_interference=0.0):
    """Two-slot MAC bounds with a silent relay, for the ``direct`` and
    ``direct15`` entries of ``SCHEMES`` and the fallback of
    :func:`_index_block`.

    ``boost`` scales the source powers (1.5 in ``direct15`` only);
    ``slot2_interference`` adds received power to the cooperate-slot noise
    (the fallback's unrecovered relay signal).
    """
    a1, a2, _, _, d1, d2, _, _ = L
    nf = 1.0 + slot2_interference
    return _mac_terms((a1 * boost, a2 * boost, 0.0, 0.0,
                       d1 * boost / nf, d2 * boost / nf, 0.0, 0.0), beta)


def _equalizer_sigma(num_frac, e, dsum, beta):
    """Variance at which the plain and index-charged bounds cross, for the
    cooperate-slot variance ``dsum`` = 1 + d:

        (1 + num_frac) / ((1 + e/dsum)^((1-beta)/beta) - 1)

    Returns inf when the relay-destination link cannot trade rate
    (e = 0 or beta -> 1).  Where the power e^y overflows (beta -> 0) the
    quotient is (1 + num_frac) e^-y, taken in the log domain; it is 0 only
    below the float range, where both bounds equal the plain bound's
    sigma_q2 -> 0 limit to within rounding.
    """
    with np.errstate(over="ignore"):
        y = (1.0 - beta) / beta * np.log1p(e / dsum)
        denom = np.expm1(y)
    num = 1.0 + num_frac
    with np.errstate(divide="ignore"):
        sigma = np.where(denom > 0.0, num / np.where(denom > 0.0, denom, 1.0), np.inf)
    if np.any(np.isinf(denom)):
        sigma = np.where(np.isinf(denom), np.exp(np.log1p(num_frac) - y), sigma)
    return sigma


def _opt_sigmas(L, beta):
    """Equalizer variances (user 1, user 2, sum) of the r1, r2 and sum-rate
    min-terms."""
    return tuple(_equalizer_sigma(c / s, L[6], dsum, beta) for s, c, dsum in _rate_sets(L))


def _equalized_terms(L, beta, sigmas):
    """Per rate set (r1, r2, r1 + r2), its (plain, index-charged) min-terms
    (see :func:`_gqf_terms`) at that set's quantizer variance in ``sigmas``;
    at the sets' own equalizer variances (:func:`_opt_sigmas`) they are the
    most a relay with full CSI can deliver per bound."""
    terms = []
    for part, s in zip(_gqf_block(L, beta), sigmas):
        plain, charged = _gqf_terms([part], beta, s)[0]
        # at an equalizer of 0 the plain term is the value of both (see
        # _equalizer_sigma)
        terms.append((plain, np.where(s > 0.0, charged, plain)))
    return tuple(terms)


def _df_terms(L, beta, target):
    """Decode-forward: the relay forwards whenever it decodes both messages
    at ``target`` from its listen-slot reception (it has no destination-side
    CSI, so it cannot do better); otherwise it stays silent."""
    a1, a2, c1, c2, d1, d2, e, _ = L
    relay_mac = _mac_terms((c1, c2, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0), beta)  # listen slot only
    decodes = ~_violated(*relay_mac, target)
    return _mac_terms((a1, a2, 0.0, 0.0, d1, d2, np.where(decodes, e, 0.0), 0.0), beta)


def _af_terms(L):
    """Amplify-forward at beta = 1/2: the relay retransmits its received
    samples scaled to its power budget, so each listen-slot use pairs with
    one cooperate-slot use and the region follows from the 2x2 output
    covariance of that pair channel.

    The forwarded relay noise has power g2 = e/(1 + c1 + c2), so the
    cooperate-slot noise is n2 = 1 + g2, and the listen-slot cross
    covariance rho has |rho|^2 = (a1 + a2)(c1 + c2) - kap: per rate set
    the determinant is (1 + a)(1 + d + g2) + g2 c."""
    _, _, c1, c2, _, _, e, _ = L
    g2 = e / (1.0 + c1 + c2)
    n2 = 1.0 + g2
    return tuple(0.5 * np.log2((s * (dsum + g2) + g2 * c) / n2) for s, c, dsum in _rate_sets(L))


# ---------------------------------------------------------------------------
# the scheme table: each scheme's bounds, read per channel state by
# :func:`region` and per block of draws by the Monte Carlo layer
# ---------------------------------------------------------------------------


class _Block(NamedTuple):
    """What a scheme's bounds read of one block of draws (see :class:`Scheme`):
    the link powers, never the gains."""

    L: tuple            # link powers _links(g, power)
    beta: float
    terms: object       # _index_block(L, beta, Scheme.recover), or None


@dataclass(frozen=True)
class Scheme:
    """One relaying scheme.

    ``bounds(b, target)`` returns the per-draw (i1, i2, isum), in
    complex-signalling units, from the block ``b = _block(scheme, g,
    power, beta)`` of the gain columns ``g``: one channel state's gains
    for :func:`region`, arrays over draws for the Monte Carlo layer.  The
    bounds read the link powers ``b.L`` (:func:`_links`, the one reader of
    the gains), the split ``b.beta`` and ``b.terms``.
    ``beta``, if set, is the only slot split the scheme is defined for.
    ``recover`` is set only for a scheme with a relay index rate and says
    how the destination treats the index (see :func:`_index_block`): its
    block carries ``_index_block(L, beta, recover)``, its bounds are the
    least min-terms of ``_index_terms``, it needs ``target.ru > 0``, gets
    an ``<name>_opt`` series that optimizes ``ru`` and supports individual
    outage.
    """

    bounds: Callable
    beta: float | None = None
    recover: bool | None = None


def _mins(terms):
    """(i1, i2, isum): the least of each rate's min-terms."""
    return tuple(reduce(np.minimum, t) for t in terms)


def _index_bounds(b, target):
    """(i1, i2, isum) of a scheme with a relay index rate at ``target.ru``."""
    return _mins(_index_terms(b.terms, b.beta, target.ru))


#: every relaying scheme with per-state bounds; adding a scheme here makes
#: it available to the estimators, configs and sweeps
SCHEMES = {
    "gqf": Scheme(_index_bounds, recover=False),
    "csit": Scheme(lambda b, t: _mins(_equalized_terms(b.L, b.beta, _opt_sigmas(b.L, b.beta)))),
    "nonwz_cf": Scheme(_index_bounds, recover=True),
    "df": Scheme(lambda b, t: _df_terms(b.L, b.beta, t)),
    "af": Scheme(lambda b, t: _af_terms(b.L), beta=_AF_BETA),
    "direct": Scheme(lambda b, t: _direct_terms(b.L, b.beta)),
    "direct15": Scheme(lambda b, t: _direct_terms(b.L, b.beta, boost=1.5)),
}


def _scheme(name: str, beta: float, target: RateTarget | None, *, index_rate=False) -> Scheme:
    """Table entry of ``name`` after checking that it can run at ``beta``
    and ``target`` (and, with ``index_rate``, that it has a relay index
    rate); ``target=None`` skips the target check."""
    spec = SCHEMES.get(name)
    if spec is None:
        raise ValueError(f"unknown scheme {name!r}; known: {tuple(SCHEMES)}")
    if index_rate and spec.recover is None:
        raise ValueError(f"scheme {name!r} has no relay index rate to classify or optimize")
    _check_slot(beta, spec.beta, f"scheme {name!r}")
    if target is not None and spec.recover is not None:
        _check_index_rate(target.ru)
    return spec


def _block(spec: Scheme, g, power: PowerConfig, beta: float) -> _Block:
    """Block of the gain columns ``g``: arrays over draws, or one state's
    gains."""
    L = _links(g, power)
    terms = None if spec.recover is None else _index_block(L, beta, spec.recover)
    return _Block(L, beta, terms)


# ---------------------------------------------------------------------------
# per-draw outage decisions on a block of draws, counted by the Monte Carlo
# layer: the outage test, the region masks and the curve over the index rate
# ---------------------------------------------------------------------------


def _columns(h: np.ndarray):
    """Gain columns (h1d, h2d, h1r, h2r, hrd) of the draw matrix ``h``."""
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[1] != 5:
        raise ValueError("draw matrix must have shape (n, 5)")
    return h[:, 0], h[:, 1], h[:, 2], h[:, 3], h[:, 4]


def _violated(i1, i2, isum, target: RateTarget):
    """Per-draw outage: ``target``'s rate of a set (r1, r2, r1 + r2)
    strictly violates that set's clamped bound; a NaN bound is outage,
    since it meets no rate."""
    rates = (target.r1, target.r2, target.r1 + target.r2)
    return ~reduce(np.logical_and, (r <= np.maximum(i, 0.0) for r, i in zip(rates, (i1, i2, isum))))


def _index_regions(b, target):
    """(common, reg1, reg2): the common-outage mask and the region-1 and
    region-2 masks of the index-rate block ``b`` at ``target``.  A user
    fails where it violates every one of its own min-terms and is decodable
    alone where it meets its single-user bound, the other source as noise.
    By the chain rule I(X1;Y) = I(X1,X2;Y) - I(X2;Y|X1) that bound is the
    least sum-rate term less the other user's plain term: under GQF
    min(tsa, tsb) - t2a, with the index rate spent exactly; under non-WZ CF
    tsa - t2a where the index is recovered and the fallback's isum - i2
    where it is not."""
    terms = _index_terms(b.terms, b.beta, target.ru)
    i1, i2, isum = _mins(terms)
    fail1 = target.r1 > np.maximum(reduce(np.maximum, terms[0]), 0.0)
    fail2 = target.r2 > np.maximum(reduce(np.maximum, terms[1]), 0.0)
    reg1 = fail1 & (target.r2 <= np.maximum(isum - terms[0][0], 0.0))
    reg2 = fail2 & (target.r1 <= np.maximum(isum - terms[1][0], 0.0))
    return _violated(i1, i2, isum, target), reg1, reg2


#: guard band (bits) around each target rate: a block with a draw whose
#: bounds come this close to a target at the index rate asked for is settled
#: by the exact per-target kernel, whose rounding stays far inside it
_GUARD = 1e-9


class _IndexRateCurve:
    """Outage of ``scheme`` on the draw matrix ``h`` for the rate pair
    (r1, r2) at any index rate.  It builds the block once and records what
    it was built for (``h`` itself, scheme, power, beta and rate pair),
    which ``outage_flags(..., curve=)`` checks.

    In z = 1/sigma_q2 = (2^(ru/beta) - 1)/(1 + c1 + c2) (the inverse of
    :func:`_quantizer_variance`) a draw that recovers the index is out of
    outage on one interval of z (:func:`_index_intervals`), built with every
    positive target rate lowered by the guard band (outer: outside it outage
    is certain) and raised by it (inner: inside it no outage is certain).
    A block is settled whole or not at all: ``split`` gives every draw's
    flag where each draw is certain one way or the other, and ``flags``
    otherwise runs the scheme's own bounds on the whole block, so its flags
    are bit-identical to the kernel's.  With a recovery rate (non-WZ CF)
    recovery is tested exactly (:func:`_recovered`), and a draw that does
    not recover takes the fallback verdict, which does not depend on ``ru``
    and is found once per block; without one (GQF) every draw recovers the
    index.
    """

    def __init__(self, scheme, h, power, beta, r1, r2):
        spec = _scheme(scheme, beta, None, index_rate=True)
        r1, r2 = float(r1), float(r2)
        self.h, self.built_for, self.bounds = h, (scheme, power, beta, (r1, r2)), spec.bounds
        self.block = _block(spec, _columns(h), power, beta)
        # link powers are non-negative, so their sum is finite exactly
        # where every input is
        self.finite = bool(np.isfinite(sum(self.block.L)).all())
        received, _, _, fallback = terms = self.block.terms
        self.fallback = None if fallback is None else _violated(*fallback, RateTarget(r1, r2))
        self.inv_one_c = 1.0 / (1.0 + received)
        (self.lo_out, self.hi_out), (self.lo_in, self.hi_in) = _index_intervals(
            terms, beta, r1, r2, (-_GUARD, _GUARD))

    def split(self, ru):
        """Outage flags of every draw at index rate ``ru``, or None where the
        intervals do not settle the whole block: an input is not finite,
        2^(ru/beta) - 1 is 0 or inf, or a draw that recovers the index
        falls in the guard band."""
        x = _index_denom(self.block.beta, ru)
        if not (self.finite and 0.0 < x < math.inf):
            return None
        z = x * self.inv_one_c
        out = (z < self.lo_out) | (z > self.hi_out)
        band = ~(out | ((z >= self.lo_in) & (z <= self.hi_in)))
        if self.fallback is not None:  # nonwz_cf: only draws that recover read z
            recovered = _recovered(self.block.terms, ru)
            out, band = np.where(recovered, out, self.fallback), recovered & band
        return None if band.any() else out

    def flags(self, target):
        flags = self.split(target.ru)
        return _violated(*self.bounds(self.block, target), target) if flags is None else flags


# ---------------------------------------------------------------------------
# scalar API on channel states
# ---------------------------------------------------------------------------


def region(name: str, state: ChannelState, power: PowerConfig, beta: float,
           target: RateTarget) -> RateRegion:
    """Region of the ``SCHEMES`` entry ``name`` on one channel state, after
    that entry's checks; the arguments are those of
    :func:`marcsim.outage.outage_flags` on one state.

    ``target`` gives ``df`` the rates its relay must decode and the schemes
    with a relay index rate their ``ru``; the other schemes ignore it.  The
    prefactor ``k`` of the state's field divides the rate inputs and
    multiplies the bounds (exact for k = 1 or 1/2)."""
    spec = _scheme(name, beta, target)
    k = info.prefactor(state.field_kind)
    target = RateTarget(target.r1 / k, target.r2 / k, target.ru / k)
    bounds = spec.bounds(_block(spec, state.gains(), power, beta), target)
    return RateRegion.from_bounds(*(k * float(t) for t in bounds))


def gqf_min_terms_gaussian(
    state: ChannelState, power: PowerConfig, beta: float, sigma_q2: float
) -> tuple[float, float, float, float, float, float]:
    """Closed-form six min-terms (t1a, t1b, t2a, t2b, tsa, tsb) with the
    index rate spent exactly on the quantizer."""
    _check_beta(beta)
    _check_sigma_q2(sigma_q2)
    k = info.prefactor(state.field_kind)
    terms = _equalized_terms(_links(state.gains(), power), beta, (sigma_q2,) * 3)
    return tuple(k * float(v) for t in terms for v in t)


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
    _check_index_rate(ru)
    k = info.prefactor(state.field_kind)
    _, _, c1, c2, _, _, _, _ = _links(state.gains(), power)
    return float(_quantizer_variance(c1 + c2, beta, ru / k))


def sigma_q2_opt_sum(state: ChannelState, power: PowerConfig, beta: float) -> float:
    """Quantizer variance maximizing the sum-rate min; the two sum-rate
    min-terms are equal there.  Returns inf when the relay-destination
    link carries nothing (hrd = 0), where no finite maximizer exists."""
    _check_beta(beta)
    return float(_opt_sigmas(_links(state.gains(), power), beta)[2])


def _static_model(state: ChannelState, power: PowerConfig, beta, sigma_q2=None):
    """The static model over arrays of slot split ``beta`` and quantizer
    variance ``sigma_q2``, which broadcast against each other: per rate set
    (r1, r2, r1 + r2) its equalizer variance and its (plain, index-charged)
    min-terms of :func:`_equalized_terms` at ``sigma_q2`` (by default at
    that set's equalizer variance), and the no-relay sum rate, the sum
    bound of ``direct15``, prefactor applied, with the checks of
    ``gqf_min_terms_gaussian`` and ``region("direct15", ...)``."""
    beta = np.asarray(beta, dtype=float)
    _check_beta(float(beta.min()))
    _check_beta(float(beta.max()))
    if sigma_q2 is not None:
        sigma_q2 = np.asarray(sigma_q2, dtype=float)
        _check_sigma_q2(float(sigma_q2.min()))
    k = info.prefactor(state.field_kind)
    direct15 = SCHEMES["direct15"]
    b = _block(direct15, state.gains(), power, beta)
    sigmas = _opt_sigmas(b.L, beta)
    terms = _equalized_terms(b.L, beta, sigmas if sigma_q2 is None else (sigma_q2,) * 3)
    norelay = np.maximum(k * direct15.bounds(b, None)[2], 0.0)
    _check_rate(float(norelay.max()), "rate bound isum")  # the rule of RateRegion
    return sigmas, tuple((k * p, k * c) for p, c in terms), norelay


# ---------------------------------------------------------------------------
# engine path: the joint-decoding region through the mutual-information
# engines, on a Gaussian or a discrete network family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianFamily:
    """The Gaussian network on channel state ``state`` with Gaussian inputs
    of powers ``power`` and the relay quantizer YhR = YR + Zq,
    Var(Zq) = ``sigma_q2`` (``inf``: the observation is discarded).

    ``slot1`` and ``slot2`` are its listen-slot and cooperate-slot systems,
    each built once.
    """

    state: ChannelState
    power: PowerConfig
    sigma_q2: float

    def __post_init__(self):
        _check_sigma_q2(self.sigma_q2)

    @cached_property
    def slot1(self) -> info.GaussianSystem:
        return _slot1_system(self.state, self.power, self.sigma_q2)

    @cached_property
    def slot2(self) -> info.GaussianSystem:
        return _slot2_system(self.state, self.power)

    def cf_feasible(self, beta: float) -> bool:
        """Compress-forward's binning condition in closed form: the
        quantizer is coarser than the sum-rate equalizer variance (strict)."""
        return self.sigma_q2 > sigma_q2_opt_sum(self.state, self.power, beta)


def _check_conditional(name, p, cond_axes):
    """``p`` as a float array whose entries over the axes from ``cond_axes``
    on form a pmf for each index of the axes before them."""
    p = np.asarray(p, dtype=float)
    if not np.all(p >= -1e-15):
        raise ValueError(f"{name} has negative entries")
    sums = p.sum(axis=tuple(range(cond_axes, p.ndim)))
    if not np.all(np.abs(sums - 1.0) <= 1e-12):
        raise ValueError(f"{name} rows must each sum to 1")
    return p


@dataclass(frozen=True)
class MarcPmfFamily:
    """Factored input distribution and channel transitions of the discrete
    network.

    Inputs factor as p(x11) p(x21) p(x12) p(x22) p(xr) with a per-letter
    quantizer p(yhr | yr); the listen slot transition is
    p(yr, yd1 | x11, x21) (axes x11, x21, yr, yd1) and the cooperate slot
    transition is p(yd2 | x12, x22, xr) (axes x12, x22, xr, yd2).
    ``slot1`` and ``slot2`` are the composed slot pmfs, each built once.
    """

    px11: np.ndarray
    px21: np.ndarray
    px12: np.ndarray
    px22: np.ndarray
    pxr: np.ndarray
    quantizer: np.ndarray
    slot1_channel: np.ndarray
    slot2_channel: np.ndarray

    def __post_init__(self):
        for name, cond_axes in (("px11", 0), ("px21", 0), ("px12", 0), ("px22", 0), ("pxr", 0),
                                ("quantizer", 1), ("slot1_channel", 2), ("slot2_channel", 3)):
            p = _check_conditional(name, getattr(self, name), cond_axes)
            if cond_axes == 0 and (p.ndim != 1 or p.size < 1):
                raise ValueError(f"{name} must be a 1-D pmf")
            object.__setattr__(self, name, p)
        q, c1, c2 = self.quantizer, self.slot1_channel, self.slot2_channel
        if c1.ndim != 4:
            raise ValueError("slot1_channel must have axes (x11, x21, yr, yd1)")
        if c2.ndim != 4:
            raise ValueError("slot2_channel must have axes (x12, x22, xr, yd2)")
        if c1.shape[0] != self.px11.size or c1.shape[1] != self.px21.size:
            raise ValueError("slot1_channel input axes do not match input pmfs")
        if q.ndim != 2 or q.shape[0] != c1.shape[2]:
            raise ValueError("quantizer input axis must match the yr alphabet")
        if (
            c2.shape[0] != self.px12.size
            or c2.shape[1] != self.px22.size
            or c2.shape[2] != self.pxr.size
        ):
            raise ValueError("slot2_channel input axes do not match input pmfs")

    @cached_property
    def slot1(self) -> info.JointPMF:
        table = np.einsum(
            "i,j,ijyd,yq->ijyqd", self.px11, self.px21, self.slot1_channel, self.quantizer
        )
        return info.JointPMF(labels=SLOT1_LABELS, table=table)

    @cached_property
    def slot2(self) -> info.JointPMF:
        table = np.einsum("i,j,r,ijrd->ijrd", self.px12, self.px22, self.pxr, self.slot2_channel)
        return info.JointPMF(labels=SLOT2_LABELS, table=table)

    def cf_feasible(self, beta: float) -> bool:
        """Compress-forward's binning condition: the quantizer rate net of
        the destination's side information fits in the relay-destination
        link (strict)."""
        p1, p2 = self.slot1, self.slot2
        lhs = beta * (p1.mutual_info(("YR",), ("YhR",)) - p1.mutual_info(("YD1",), ("YhR",)))
        return lhs < (1.0 - beta) * p2.mutual_info(("XR",), ("YD2",))


def quantizer_index_rate(family: GaussianFamily | MarcPmfFamily, beta: float) -> float:
    """Minimum index rate beta*I(YR;YhR) that describes the family's
    quantizer (0 for a discarded observation)."""
    _check_beta(beta)
    return beta * family.slot1.mutual_info(("YR",), ("YhR",))


def gqf_bounds(family: GaussianFamily | MarcPmfFamily, beta: float) -> GqfBounds:
    """Six joint-decoding bounds of ``family`` through its engine.

    Index-augmented bounds are returned before the index rate is
    subtracted.  A discarded relay observation leaves their silent-relay
    forms.
    """
    _check_beta(beta)
    m1, m2, mb = family.slot1.mutual_info, family.slot2.mutual_info, 1.0 - beta
    # the index-augmented bounds carry the full-input quantizer term
    # I(X11,X21; YhR): both listen-slot codewords shape the quantized
    # observation the joint decoder searches over
    i_inputs_yhr = m1(("X11", "X21"), ("YhR",))
    bounds = []
    # per rate set (r1, r2, r1 + r2), the decoded inputs x and the other
    # user's inputs o of each slot; the bounds condition on o
    for x1, o1, x2, o2 in ((("X11",), ("X21",), ("X12",), ("X22",)),
                           (("X21",), ("X11",), ("X22",), ("X12",)),
                           (("X11", "X21"), (), ("X12", "X22"), ())):
        bounds.append(beta * m1(x1, ("YD1", "YhR"), o1) + mb * m2(x2, ("YD2",), o2 + ("XR",)))
        bounds.append(beta * (m1(x1 + ("YhR",), ("YD1",), o1) + i_inputs_yhr)
                      + mb * m2(x2 + ("XR",), ("YD2",), o2))
    return GqfBounds(*bounds)


def gqf_region(family: GaussianFamily | MarcPmfFamily, beta: float, ru: float) -> RateRegion:
    """Joint-decoding region of ``family`` at index rate ``ru``.

    Raises FeasibilityError when ``ru`` is below the index rate the
    quantizer needs; negative index-charged bounds clamp to an empty
    region (legitimate outage states under fading).
    """
    _check_rate(ru, "relay index rate ru")
    needed = quantizer_index_rate(family, beta)
    if ru < needed - _FEAS_TOL:
        raise FeasibilityError(
            f"index rate {ru!r} cannot describe the quantizer (needs >= {needed!r})"
        )
    return gqf_bounds(family, beta).region(ru)


def cf_region(family: GaussianFamily | MarcPmfFamily, beta: float) -> RateRegion | None:
    """Compress-forward region of ``family``, or None where its binning
    condition ``family.cf_feasible(beta)`` fails.  When feasible the bounds
    are the plain (not index-charged) joint-decoding bounds."""
    _check_beta(beta)
    if not family.cf_feasible(beta):
        return None
    b = gqf_bounds(family, beta)
    return RateRegion.from_bounds(b.b_r1, b.b_r2, b.b_r12)
