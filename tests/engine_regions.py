"""Per-state region of every relaying scheme from the covariance engine,
written apart from the closed forms of marcsim.rates: each bound is a sum
of slot mutual informations of the Gaussian network, taken by
marcsim.info on a GaussianFamily's slot systems or on amplify-forward's
pair channel.  Only a quantizer variance comes from rates: the relay's
fixed-index-rate quantizer, or csit's per-set equalizer.

Each function takes the arguments of ``region(name, ...)`` after the
name and returns a RateRegion in the state's own units."""

import math

import numpy as np

from marcsim import (
    GaussianFamily,
    GaussianSystem,
    PowerConfig,
    RateRegion,
    gqf_bounds,
    gqf_region,
    quantizer_index_rate,
    sigma_q2_for_fixed_ru,
)
from marcsim.rates import _links, _opt_sigmas

#: per rate set (r1, r2, r1 + r2): the decoded inputs and the other user's
#: inputs of the listen slot, then those of the cooperate slot
SETS = ((("X11",), ("X21",), ("X12",), ("X22",)),
        (("X21",), ("X11",), ("X22",), ("X12",)),
        (("X11", "X21"), (), ("X12", "X22"), ()))


def boosted(power, boost):
    """``power`` with the four source powers scaled by ``boost``; the relay
    power is kept."""
    return PowerConfig(boost * power.p11, boost * power.p21, boost * power.p12,
                       boost * power.p22, power.pr)


def _two_slot(family, beta, decoded=(), given=()):
    """Per rate set, beta*I(X_S1; YD1 | X_Sc1) + (1 - beta)*I(X_S2, decoded;
    YD2 | X_Sc2, given): the relay input XR is decoded with the sources,
    known (a silent relay) or, in neither, noise."""
    m1, m2 = family.slot1.mutual_info, family.slot2.mutual_info
    return [beta * m1(x1, ("YD1",), o1) + (1.0 - beta) * m2(x2 + decoded, ("YD2",), o2 + given)
            for x1, o1, x2, o2 in SETS]


def direct(state, power, beta, target=None):
    """The two-slot MAC with a silent relay."""
    family = GaussianFamily(state, power, math.inf)
    return RateRegion.from_bounds(*_two_slot(family, beta, given=("XR",)))


def direct15(state, power, beta, target=None):
    """``direct`` with the sources at 1.5 times their powers."""
    return direct(state, boosted(power, 1.5), beta)


def gqf(state, power, beta, target):
    """Joint decoding at the quantizer that spends exactly ``target.ru``."""
    family = GaussianFamily(state, power, sigma_q2_for_fixed_ru(state, power, beta, target.ru))
    return gqf_region(family, beta, target.ru)


def csit(state, power, beta, target=None):
    """Per rate set, the lesser of the plain and the index-charged bound at
    that set's equalizer variance, the index rate spent exactly."""
    sigmas = _opt_sigmas(_links(state.gains(), power), beta)
    bounds = []
    for i, sigma in enumerate(sigmas):
        family = GaussianFamily(state, power, float(sigma))
        b = gqf_bounds(family, beta)
        plain, charged = [(b.b_r1, b.b_r1u), (b.b_r2, b.b_r2u), (b.b_r12, b.b_r12u)][i]
        bounds.append(min(plain, charged - quantizer_index_rate(family, beta)))
    return RateRegion.from_bounds(*bounds)


def nonwz_cf(state, power, beta, target):
    """The plain joint-decoding bounds at the fixed-``ru`` quantizer where
    the cooperate slot carries the index with the sources as noise, else
    the two-slot MAC with the relay signal as noise."""
    family = GaussianFamily(state, power, sigma_q2_for_fixed_ru(state, power, beta, target.ru))
    if (1.0 - beta) * family.slot2.mutual_info(("XR",), ("YD2",)) >= target.ru:
        b = gqf_bounds(family, beta)
        return RateRegion.from_bounds(b.b_r1, b.b_r2, b.b_r12)
    return RateRegion.from_bounds(*_two_slot(family, beta))


def df(state, power, beta, target):
    """The relay decodes both messages at ``target`` from its listen-slot
    reception and then sends with the sources, else it stays silent."""
    family = GaussianFamily(state, power, math.inf)
    relay = [beta * family.slot1.mutual_info(x1, ("YR",), o1) for x1, o1, _, _ in SETS]
    rates = (target.r1, target.r2, target.r1 + target.r2)
    if all(r <= i for r, i in zip(rates, relay)):
        return RateRegion.from_bounds(*_two_slot(family, beta, decoded=("XR",)))
    return direct(state, power, beta)


def af(state, power, beta, target=None):
    """Amplify-forward at beta = 1/2 on its pair channel: listen-slot output
    Y1 and cooperate-slot output Y2 = h1d X12 + h2d X22 + hrd alpha YR + Z2,
    with YR the relay's reception scaled by alpha to the relay power.  A
    pair takes two channel uses, so each bound is half the pair's
    information about the set's symbols given the other user's."""
    h1d, h2d, h1r, h2r, hrd = state.gains()
    alpha = math.sqrt(power.pr / (1.0 + abs(h1r) ** 2 * power.p11 + abs(h2r) ** 2 * power.p21))
    g = hrd * alpha
    # rows (X11, X21, X12, X22, Y1, Y2) over the independent sources
    # (X11, X21, X12, X22, ZR, Z1, Z2)
    mixing = np.array([
        [1, 0, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0, 0],
        [h1d, h2d, 0, 0, 0, 1, 0],
        [g * h1r, g * h2r, h1d, h2d, g, 0, 1],
    ], dtype=complex)
    var = np.array([power.p11, power.p21, power.p12, power.p22, 1.0, 1.0, 1.0])
    cov = (mixing * var) @ mixing.conj().T
    if state.field_kind == "real":
        cov = cov.real
    pair = GaussianSystem(("X11", "X21", "X12", "X22", "Y1", "Y2"), cov, state.field_kind)
    return RateRegion.from_bounds(*(0.5 * pair.mutual_info(x1 + x2, ("Y1", "Y2"), o1 + o2)
                                    for x1, o1, x2, o2 in SETS))

