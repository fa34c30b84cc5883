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
evaluates exactly the expressions the scalar API exposes.  The engine-path
evaluators (`gqf_bounds_gaussian`) instead go through
:func:`marcsim.info.mutual_info_gaussian` on the slot systems, giving every
closed form an independent in-package oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import info
from .channel import (
    ChannelState,
    PowerConfig,
    _check_beta,
    _quantizer_variance,
    slot1_system,
    slot2_system,
)

__all__ = [
    "FeasibilityError",
    "RateRegion",
    "GqfBounds",
    "gqf_bounds_gaussian",
    "quantizer_index_rate",
    "gqf_region",
    "gqf_min_terms_gaussian",
    "cf_region_gaussian",
    "sigma_q2_opt_sum",
    "sigma_q2_opt_indiv",
    "csit_region",
    "direct_mac_region",
    "nonwz_cf_region_fading",
    "df_region",
    "af_region",
    "MarcPmfFamily",
    "gqf_bounds_discrete",
    "quantizer_index_rate_discrete",
    "gqf_region_discrete",
    "cf_region_discrete",
    "optimize_sigma_beta_grid",
]

# slack allowed when checking ru against the quantizer index rate, so the
# equality choice (index rate spent exactly) is accepted
_FEAS_TOL = 1e-9


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
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"rate bound {name} must be finite and >= 0, got {v!r}")

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
# broadcastable closed-form cores
#
# notation for per-draw received powers (noise is unit variance):
#   a1, a2: source -> destination, listen slot     |h_id|^2 * p_i1
#   c1, c2: source -> relay, listen slot           |h_ir|^2 * p_i1
#   d1, d2: source -> destination, cooperate slot  |h_id|^2 * p_i2
#   e:      relay -> destination, cooperate slot   |h_rd|^2 * pr
#   kap:    two-user cross term |h1d*h2r - h1r*h2d|^2 * p11 * p21
# ---------------------------------------------------------------------------


def _links(h1d, h2d, h1r, h2r, hrd, power: PowerConfig):
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


def _lg(x):
    return np.log2(x)


def _gqf_terms(h1d, h2d, h1r, h2r, hrd, power, beta, sigma_q2, k):
    """Six min-terms of the joint-decoding region at quantizer variance
    sigma_q2: (t1a, t1b, t2a, t2b, tsa, tsb).

    ``t*a`` are the plain bounds, ``t*b`` the index-charged bounds with the
    index rate spent exactly on the quantizer.  ``sigma_q2 = inf`` (relay
    observation discarded) is handled through 1/(1+sigma_q2) -> 0.
    """
    a1, a2, c1, c2, d1, d2, e, kap = _links(h1d, h2d, h1r, h2r, hrd, power)
    bk = beta * k
    mk = (1.0 - beta) * k
    with np.errstate(divide="ignore"):
        u_inv = 1.0 / (1.0 + sigma_q2)    # -> 0 when sigma_q2 = inf
        ratio = 1.0 - u_inv               # sigma_q2 / (1 + sigma_q2)
        t1a = bk * _lg(1.0 + a1 + c1 * u_inv) + mk * _lg(1.0 + d1)
        t1b = bk * _lg((1.0 + a1) * ratio) + mk * _lg(1.0 + d1 + e)
        t2a = bk * _lg(1.0 + a2 + c2 * u_inv) + mk * _lg(1.0 + d2)
        t2b = bk * _lg((1.0 + a2) * ratio) + mk * _lg(1.0 + d2 + e)
        tsa = bk * _lg(1.0 + a1 + a2 + (c1 + c2 + kap) * u_inv) + mk * _lg(1.0 + d1 + d2)
        tsb = bk * _lg((1.0 + a1 + a2) * ratio) + mk * _lg(1.0 + d1 + d2 + e)
    return t1a, t1b, t2a, t2b, tsa, tsb


def _interference_terms(h1d, h2d, h1r, h2r, hrd, power, beta, sigma_q2, ru, k):
    """Single-user bounds with the other source treated as noise.

    Returns (w1a, w1b, w2a, w2b): plain and index-charged bounds for
    decoding one message alone, used by the outage-region classifier.
    Where the determinants overflow (sigma_q2 = inf or near it), both
    determinant ratios of user i take their limit v_yd1 / (1 + a_j).
    """
    a1, a2, c1, c2, d1, d2, e, _ = _links(h1d, h2d, h1r, h2r, hrd, power)
    v_yd1 = 1.0 + a1 + a2
    v_yhr = 1.0 + c1 + c2 + sigma_q2
    rho = h1d * np.conj(h1r) * power.p11 + h2d * np.conj(h2r) * power.p21
    rho2 = h2d * np.conj(h2r) * power.p21
    rho1 = h1d * np.conj(h1r) * power.p11
    with np.errstate(over="ignore", invalid="ignore"):
        det_full = v_yd1 * v_yhr - np.abs(rho) ** 2
        det_wo1 = (1.0 + a2) * (1.0 + c2 + sigma_q2) - np.abs(rho2) ** 2
        det_wo2 = (1.0 + a1) * (1.0 + c1 + sigma_q2) - np.abs(rho1) ** 2
        q1 = (det_full / det_wo1, v_yd1 * v_yhr / det_wo1)
        q2 = (det_full / det_wo2, v_yd1 * v_yhr / det_wo2)
    lim = np.isinf(det_full)
    if np.any(lim):
        q1 = [np.where(lim, v_yd1 / (1.0 + a2), q) for q in q1]
        q2 = [np.where(lim, v_yd1 / (1.0 + a1), q) for q in q2]
    bk = beta * k
    mk = (1.0 - beta) * k
    w1a = bk * _lg(q1[0]) + mk * _lg((1.0 + d1 + d2) / (1.0 + d2))
    w1b = bk * _lg(q1[1]) + mk * _lg((1.0 + d1 + d2 + e) / (1.0 + d2)) - ru
    w2a = bk * _lg(q2[0]) + mk * _lg((1.0 + d1 + d2) / (1.0 + d1))
    w2b = bk * _lg(q2[1]) + mk * _lg((1.0 + d1 + d2 + e) / (1.0 + d1)) - ru
    return w1a, w1b, w2a, w2b


def _direct_terms(h1d, h2d, power, beta, k, boost=1.0, slot2_interference=0.0):
    """Two-slot MAC bounds with a silent relay.

    ``boost`` scales the source powers; ``slot2_interference`` adds
    received power to the cooperate-slot noise (an unrecovered relay
    signal).
    """
    g1d = np.abs(h1d) ** 2
    g2d = np.abs(h2d) ** 2
    a1 = g1d * power.p11 * boost
    a2 = g2d * power.p21 * boost
    nf = 1.0 + slot2_interference
    d1 = g1d * power.p12 * boost / nf
    d2 = g2d * power.p22 * boost / nf
    bk = beta * k
    mk = (1.0 - beta) * k
    i1 = bk * _lg(1.0 + a1) + mk * _lg(1.0 + d1)
    i2 = bk * _lg(1.0 + a2) + mk * _lg(1.0 + d2)
    isum = bk * _lg(1.0 + a1 + a2) + mk * _lg(1.0 + d1 + d2)
    return i1, i2, isum


def _equalizer_sigma(num_frac, e, dsum, beta):
    """Variance at which the plain and index-charged bounds cross:

        (1 + num_frac) / ((1 + e/(1+dsum))^((1-beta)/beta) - 1)

    Returns inf when the relay-destination link cannot trade rate
    (e = 0 or beta -> 1).
    """
    expo = (1.0 - beta) / beta
    denom = np.expm1(expo * np.log1p(e / (1.0 + dsum)))
    num = 1.0 + num_frac
    with np.errstate(divide="ignore"):
        return np.where(denom > 0.0, num / np.where(denom > 0.0, denom, 1.0), np.inf)


def _opt_sigma_sum(h1d, h2d, h1r, h2r, hrd, power, beta):
    a1, a2, c1, c2, d1, d2, e, kap = _links(h1d, h2d, h1r, h2r, hrd, power)
    return _equalizer_sigma((c1 + c2 + kap) / (1.0 + a1 + a2), e, d1 + d2, beta)


def _opt_sigma_indiv(h1d, h2d, h1r, h2r, hrd, power, beta, user):
    a1, a2, c1, c2, d1, d2, e, _ = _links(h1d, h2d, h1r, h2r, hrd, power)
    if user == 1:
        return _equalizer_sigma(c1 / (1.0 + a1), e, d1, beta)
    if user == 2:
        return _equalizer_sigma(c2 / (1.0 + a2), e, d2, beta)
    raise ValueError(f"user must be 1 or 2, got {user!r}")


def _csit_terms(h1d, h2d, h1r, h2r, hrd, power, beta, k):
    """Per-bound best quantizer: each bound evaluated at its own equalizer
    variance, the most a relay with full CSI can deliver per bound."""
    s1 = _opt_sigma_indiv(h1d, h2d, h1r, h2r, hrd, power, beta, 1)
    s2 = _opt_sigma_indiv(h1d, h2d, h1r, h2r, hrd, power, beta, 2)
    ss = _opt_sigma_sum(h1d, h2d, h1r, h2r, hrd, power, beta)
    t = _gqf_terms(h1d, h2d, h1r, h2r, hrd, power, beta, s1, k)
    i1 = np.minimum(t[0], t[1])
    t = _gqf_terms(h1d, h2d, h1r, h2r, hrd, power, beta, s2, k)
    i2 = np.minimum(t[2], t[3])
    t = _gqf_terms(h1d, h2d, h1r, h2r, hrd, power, beta, ss, k)
    isum = np.minimum(t[4], t[5])
    return i1, i2, isum


def _nonwz_terms(h1d, h2d, h1r, h2r, hrd, power, beta, ru, k):
    """Successive-decoding bounds without binning.

    The destination first tries to recover the index codeword, treating the
    cooperate-slot source signals as interference; the tie at the recovery
    threshold goes to "recovered".  Otherwise the relay signal is
    interference and the region is the degraded two-slot MAC.

    Returns (i1, i2, isum, recovered, i1_int, i2_int); the ``*_int`` bounds
    treat the other source as noise and feed the region classifier.
    """
    a1, a2, c1, c2, d1, d2, e, _ = _links(h1d, h2d, h1r, h2r, hrd, power)
    recovered = (1.0 - beta) * k * _lg(1.0 + e / (1.0 + d1 + d2)) >= ru
    sigma_q2 = _quantizer_variance(c1 + c2, beta, ru, k)
    t = _gqf_terms(h1d, h2d, h1r, h2r, hrd, power, beta, sigma_q2, k)
    w = _interference_terms(h1d, h2d, h1r, h2r, hrd, power, beta, sigma_q2, ru, k)
    f = _direct_terms(h1d, h2d, power, beta, k, slot2_interference=e)
    bk = beta * k
    mk = (1.0 - beta) * k
    i1 = np.where(recovered, t[0], f[0])
    i2 = np.where(recovered, t[2], f[1])
    isum = np.where(recovered, t[4], f[2])
    v_yd1 = 1.0 + a1 + a2
    f1_int = bk * _lg(v_yd1 / (1.0 + a2)) + mk * _lg(1.0 + d1 / (1.0 + d2 + e))
    f2_int = bk * _lg(v_yd1 / (1.0 + a1)) + mk * _lg(1.0 + d2 / (1.0 + d1 + e))
    i1_int = np.where(recovered, w[0], f1_int)
    i2_int = np.where(recovered, w[2], f2_int)
    return i1, i2, isum, recovered, i1_int, i2_int


def _df_terms(h1d, h2d, h1r, h2r, hrd, power, beta, r1, r2, k):
    """Decode-forward: the relay forwards whenever it can decode both
    messages from its listen-slot reception (it has no destination-side
    CSI, so it cannot do better); otherwise it stays silent."""
    a1, a2, c1, c2, d1, d2, e, _ = _links(h1d, h2d, h1r, h2r, hrd, power)
    bk = beta * k
    mk = (1.0 - beta) * k
    decodes = (
        (r1 <= bk * _lg(1.0 + c1))
        & (r2 <= bk * _lg(1.0 + c2))
        & (r1 + r2 <= bk * _lg(1.0 + c1 + c2))
    )
    i1 = bk * _lg(1.0 + a1) + mk * np.where(decodes, _lg(1.0 + d1 + e), _lg(1.0 + d1))
    i2 = bk * _lg(1.0 + a2) + mk * np.where(decodes, _lg(1.0 + d2 + e), _lg(1.0 + d2))
    isum = bk * _lg(1.0 + a1 + a2) + mk * np.where(
        decodes, _lg(1.0 + d1 + d2 + e), _lg(1.0 + d1 + d2)
    )
    return i1, i2, isum


def _af_terms(h1d, h2d, h1r, h2r, hrd, power, k):
    """Amplify-forward at beta = 1/2: the relay retransmits its received
    samples scaled to its power budget, so each listen-slot use pairs with
    one cooperate-slot use and the region follows from the 2x2 output
    covariance of that pair channel."""
    a1, a2, c1, c2, d1, d2, _, _ = _links(h1d, h2d, h1r, h2r, hrd, power)
    gain = np.sqrt(power.pr / (1.0 + c1 + c2))
    w1 = gain * hrd * h1r
    w2 = gain * hrd * h2r
    n2 = 1.0 + gain**2 * np.abs(hrd) ** 2
    q1 = np.abs(w1) ** 2 * power.p11
    q2 = np.abs(w2) ** 2 * power.p21
    det1 = (1.0 + a1) * (n2 + d1 + q1) - np.abs(h1d * np.conj(w1)) ** 2 * power.p11**2
    det2 = (1.0 + a2) * (n2 + d2 + q2) - np.abs(h2d * np.conj(w2)) ** 2 * power.p21**2
    v1 = 1.0 + a1 + a2
    v2 = n2 + d1 + d2 + q1 + q2
    cross = h1d * np.conj(w1) * power.p11 + h2d * np.conj(w2) * power.p21
    dets = v1 * v2 - np.abs(cross) ** 2
    half = 0.5 * k
    return half * _lg(det1 / n2), half * _lg(det2 / n2), half * _lg(dets / n2)


# ---------------------------------------------------------------------------
# scalar API on channel states
# ---------------------------------------------------------------------------


def _scalar_region(terms) -> RateRegion:
    return RateRegion.from_bounds(*(float(t) for t in terms))


def gqf_min_terms_gaussian(
    state: ChannelState, power: PowerConfig, beta: float, sigma_q2: float
) -> tuple[float, float, float, float, float, float]:
    """Closed-form six min-terms (t1a, t1b, t2a, t2b, tsa, tsb) with the
    index rate spent exactly on the quantizer."""
    _check_beta(beta)
    if not sigma_q2 > 0.0:
        raise ValueError(f"quantization noise variance must be > 0, got {sigma_q2!r}")
    k = info.prefactor(state.field_kind)
    t = _gqf_terms(*state.gains(), power, beta, sigma_q2, k)
    return tuple(float(v) for v in t)


def quantizer_index_rate(
    state: ChannelState, power: PowerConfig, beta: float, sigma_q2: float
) -> float:
    """Minimum index rate beta*I(YR;YhR) supporting quantizer ``sigma_q2``,
    evaluated through the covariance engine (field-aware)."""
    _check_beta(beta)
    if math.isinf(sigma_q2):
        return 0.0
    sys1 = slot1_system(state, power, sigma_q2)
    return beta * info.mutual_info_gaussian(sys1, ("YR",), ("YhR",))


def _six_bounds(m1, m2, beta) -> GqfBounds:
    """Six joint-decoding bounds from mutual-information callables
    ``m(a, b, c=()) = I(A; B | C)`` on the listen slot (m1) and the
    cooperate slot (m2)."""
    mb = 1.0 - beta
    # the index-augmented bounds carry the full-input quantizer term
    # I(X11,X21; YhR): both listen-slot codewords shape the quantized
    # observation the joint decoder searches over
    i_inputs_yhr = m1(("X11", "X21"), ("YhR",))
    b_r1 = beta * m1(("X11",), ("YD1", "YhR"), ("X21",)) + mb * m2(
        ("X12",), ("YD2",), ("X22", "XR")
    )
    b_r1u = beta * (m1(("X11", "YhR"), ("YD1",), ("X21",)) + i_inputs_yhr) + mb * m2(
        ("X12", "XR"), ("YD2",), ("X22",)
    )
    b_r2 = beta * m1(("X21",), ("YD1", "YhR"), ("X11",)) + mb * m2(
        ("X22",), ("YD2",), ("X12", "XR")
    )
    b_r2u = beta * (m1(("X21", "YhR"), ("YD1",), ("X11",)) + i_inputs_yhr) + mb * m2(
        ("X22", "XR"), ("YD2",), ("X12",)
    )
    b_r12 = beta * m1(("X11", "X21"), ("YD1", "YhR")) + mb * m2(
        ("X12", "X22"), ("YD2",), ("XR",)
    )
    b_r12u = beta * (m1(("X11", "X21", "YhR"), ("YD1",)) + i_inputs_yhr) + mb * m2(
        ("X12", "X22", "XR"), ("YD2",)
    )
    return GqfBounds(b_r1, b_r1u, b_r2, b_r2u, b_r12, b_r12u)


def gqf_bounds_gaussian(
    state: ChannelState, power: PowerConfig, beta: float, sigma_q2: float
) -> GqfBounds:
    """Six joint-decoding bounds evaluated through the covariance engine.

    Index-augmented bounds are returned before the index rate is
    subtracted.  With ``sigma_q2 = inf`` the relay observation is dropped
    and the bounds collapse to their silent-relay forms.
    """
    _check_beta(beta)
    sys1 = slot1_system(state, power, sigma_q2)
    sys2 = slot2_system(state, power)
    discarded = math.isinf(sigma_q2)

    def m1(a, b, c=()):
        if discarded:  # no relay observation: YhR drops out of every set
            a, b, c = (tuple(l for l in s if l != "YhR") for s in (a, b, c))
        return info.mutual_info_gaussian(sys1, a, b, c)

    m2 = lambda a, b, c=(): info.mutual_info_gaussian(sys2, a, b, c)
    return _six_bounds(m1, m2, beta)


def gqf_region(
    state: ChannelState, power: PowerConfig, beta: float, sigma_q2: float, ru: float
) -> RateRegion:
    """Joint-decoding region at quantizer ``sigma_q2`` and index rate ``ru``.

    Raises FeasibilityError when ``ru`` is below the index rate the
    quantizer needs; negative index-charged bounds clamp to an empty
    region (legitimate outage states under fading).
    """
    if ru < 0.0:
        raise ValueError(f"relay index rate must be >= 0, got {ru!r}")
    needed = quantizer_index_rate(state, power, beta, sigma_q2)
    if ru < needed - _FEAS_TOL:
        raise FeasibilityError(
            f"index rate {ru!r} cannot describe the quantizer (needs >= {needed!r})"
        )
    return gqf_bounds_gaussian(state, power, beta, sigma_q2).region(ru)


def sigma_q2_opt_sum(state: ChannelState, power: PowerConfig, beta: float) -> float:
    """Quantizer variance maximizing the sum-rate min; the two sum-rate
    min-terms are equal there.  Returns inf when the relay-destination
    link carries nothing (hrd = 0), where no finite maximizer exists."""
    _check_beta(beta)
    return float(_opt_sigma_sum(*state.gains(), power, beta))


def sigma_q2_opt_indiv(
    state: ChannelState, power: PowerConfig, beta: float, user: int
) -> float:
    """Quantizer variance maximizing one user's individual-rate min."""
    _check_beta(beta)
    return float(_opt_sigma_indiv(*state.gains(), power, beta, user))


def csit_region(state: ChannelState, power: PowerConfig, beta: float) -> RateRegion:
    """Region of a relay with complete CSI: every bound sits at its own
    optimal quantizer with the index rate adapted to the channel state."""
    _check_beta(beta)
    k = info.prefactor(state.field_kind)
    return _scalar_region(_csit_terms(*state.gains(), power, beta, k))


def cf_region_gaussian(
    state: ChannelState, power: PowerConfig, beta: float, sigma_q2: float
) -> RateRegion | None:
    """Compress-forward region, or None when the quantizer is too fine for
    the relay-destination link to deliver (strict threshold).

    When feasible the bounds coincide with the plain (non index-charged)
    joint-decoding bounds at the same quantizer.
    """
    _check_beta(beta)
    if not sigma_q2 > 0.0:
        raise ValueError(f"quantization noise variance must be > 0, got {sigma_q2!r}")
    threshold = sigma_q2_opt_sum(state, power, beta)
    if not sigma_q2 > threshold:
        return None
    b = gqf_bounds_gaussian(state, power, beta, sigma_q2)
    return RateRegion.from_bounds(b.b_r1, b.b_r2, b.b_r12)


def direct_mac_region(
    state: ChannelState, power: PowerConfig, beta: float, boost: float = 1.0
) -> RateRegion:
    """Two-slot MAC region with a silent relay; ``boost`` scales the source
    powers (e.g. 1.5 to model sources spending the idle relay's budget)."""
    _check_beta(beta)
    if boost < 1.0:
        raise ValueError(f"power boost must be >= 1, got {boost!r}")
    k = info.prefactor(state.field_kind)
    return _scalar_region(_direct_terms(state.h1d, state.h2d, power, beta, k, boost))


def nonwz_cf_region_fading(
    state: ChannelState, power: PowerConfig, beta: float, ru: float
) -> RateRegion:
    """Non-binned compress-forward with a fixed index rate.

    If the destination can recover the index codeword (tie goes to
    recovered), the region is the compress-forward region at the quantizer
    the fixed rate buys; otherwise the relay signal is interference on the
    cooperate slot.
    """
    _check_beta(beta)
    if not ru > 0.0:
        raise ValueError(f"relay index rate must be > 0, got {ru!r}")
    k = info.prefactor(state.field_kind)
    t = _nonwz_terms(*state.gains(), power, beta, ru, k)
    return _scalar_region(t[:3])


def df_region(
    state: ChannelState, power: PowerConfig, beta: float, r1: float, r2: float
) -> RateRegion:
    """Decode-forward region for target rates (r1, r2).

    The targets are needed because the relay's decode-or-stay-silent branch
    depends on whether (r1, r2) fits its listen-slot MAC region.
    """
    _check_beta(beta)
    if r1 < 0.0 or r2 < 0.0:
        raise ValueError("target rates must be >= 0")
    k = info.prefactor(state.field_kind)
    return _scalar_region(_df_terms(*state.gains(), power, beta, r1, r2, k))


def af_region(state: ChannelState, power: PowerConfig, beta: float) -> RateRegion:
    """Amplify-forward region; defined for beta = 1/2 only (the relay
    forwards one received sample per cooperate-slot use)."""
    if abs(beta - 0.5) > 1e-12:
        raise ValueError("amplify-forward needs beta = 0.5 (sample-wise forwarding)")
    k = info.prefactor(state.field_kind)
    return _scalar_region(_af_terms(*state.gains(), power, k))


def optimize_sigma_beta_grid(
    state: ChannelState,
    power: PowerConfig,
    sigma_grid,
    beta_grid,
) -> tuple[float, float, float]:
    """Grid search of (sigma_q2, beta) maximizing the equal-index-rate sum
    rate; returns (sigma_q2, beta, sum_rate).  Ties resolve to the first
    grid point in row-major (beta, sigma) order."""
    sigma_grid = [float(s) for s in sigma_grid]
    beta_grid = [float(b) for b in beta_grid]
    if not sigma_grid or not beta_grid:
        raise ValueError("grids must be non-empty")
    k = info.prefactor(state.field_kind)
    best = None
    for beta in beta_grid:
        _check_beta(beta)
        t = _gqf_terms(*state.gains(), power, beta, np.asarray(sigma_grid), k)
        vals = np.minimum(t[4], t[5])
        i = int(np.argmax(vals))
        if best is None or vals[i] > best[2]:
            best = (sigma_grid[i], beta, float(vals[i]))
    return best


# ---------------------------------------------------------------------------
# discrete-alphabet evaluators
# ---------------------------------------------------------------------------


def _check_pmf_vector(name, p):
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size < 1:
        raise ValueError(f"{name} must be a 1-D pmf")
    if np.any(p < -1e-15) or abs(float(p.sum()) - 1.0) > 1e-12:
        raise ValueError(f"{name} is not a pmf")
    return p


def _check_conditional(name, p, cond_axes):
    p = np.asarray(p, dtype=float)
    if np.any(p < -1e-15):
        raise ValueError(f"{name} has negative entries")
    sums = p.sum(axis=tuple(range(cond_axes, p.ndim)))
    if np.any(np.abs(sums - 1.0) > 1e-12):
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
        object.__setattr__(self, "px11", _check_pmf_vector("px11", self.px11))
        object.__setattr__(self, "px21", _check_pmf_vector("px21", self.px21))
        object.__setattr__(self, "px12", _check_pmf_vector("px12", self.px12))
        object.__setattr__(self, "px22", _check_pmf_vector("px22", self.px22))
        object.__setattr__(self, "pxr", _check_pmf_vector("pxr", self.pxr))
        q = _check_conditional("quantizer", self.quantizer, 1)
        c1 = _check_conditional("slot1_channel", self.slot1_channel, 2)
        c2 = _check_conditional("slot2_channel", self.slot2_channel, 3)
        object.__setattr__(self, "quantizer", q)
        object.__setattr__(self, "slot1_channel", c1)
        object.__setattr__(self, "slot2_channel", c2)
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

    def slot1_pmf(self) -> info.JointPMF:
        table = np.einsum(
            "i,j,ijyd,yq->ijyqd", self.px11, self.px21, self.slot1_channel, self.quantizer
        )
        return info.JointPMF(labels=("X11", "X21", "YR", "YhR", "YD1"), table=table)

    def slot2_pmf(self) -> info.JointPMF:
        table = np.einsum("i,j,r,ijrd->ijrd", self.px12, self.px22, self.pxr, self.slot2_channel)
        return info.JointPMF(labels=("X12", "X22", "XR", "YD2"), table=table)


def quantizer_index_rate_discrete(family: MarcPmfFamily, beta: float) -> float:
    """Minimum index rate beta*I(YR;YhR) of the discrete quantizer."""
    _check_beta(beta)
    return beta * info.mutual_info_discrete(family.slot1_pmf(), ("YR",), ("YhR",))


def gqf_bounds_discrete(family: MarcPmfFamily, beta: float) -> GqfBounds:
    """Six joint-decoding bounds on the composed slot pmfs."""
    _check_beta(beta)
    p1 = family.slot1_pmf()
    p2 = family.slot2_pmf()
    m1 = lambda a, b, c=(): info.mutual_info_discrete(p1, a, b, c)
    m2 = lambda a, b, c=(): info.mutual_info_discrete(p2, a, b, c)
    return _six_bounds(m1, m2, beta)


def gqf_region_discrete(family: MarcPmfFamily, beta: float, ru: float) -> RateRegion:
    """Joint-decoding region of the discrete network at index rate ``ru``."""
    if ru < 0.0:
        raise ValueError(f"relay index rate must be >= 0, got {ru!r}")
    needed = quantizer_index_rate_discrete(family, beta)
    if ru < needed - _FEAS_TOL:
        raise FeasibilityError(
            f"index rate {ru!r} cannot describe the quantizer (needs >= {needed!r})"
        )
    return gqf_bounds_discrete(family, beta).region(ru)


def cf_region_discrete(family: MarcPmfFamily, beta: float) -> RateRegion | None:
    """Compress-forward region of the discrete network, or None when the
    binning condition fails: the quantizer rate net of the destination's
    side information must fit in the relay-destination link (strict)."""
    _check_beta(beta)
    p1 = family.slot1_pmf()
    p2 = family.slot2_pmf()
    lhs = beta * (
        info.mutual_info_discrete(p1, ("YR",), ("YhR",))
        - info.mutual_info_discrete(p1, ("YD1",), ("YhR",))
    )
    rhs = (1.0 - beta) * info.mutual_info_discrete(p2, ("XR",), ("YD2",))
    if not lhs < rhs:
        return None
    b = gqf_bounds_discrete(family, beta)
    return RateRegion.from_bounds(b.b_r1, b.b_r2, b.b_r12)
