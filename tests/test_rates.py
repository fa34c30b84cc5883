"""Tests of the Gaussian rate evaluators: closed forms against the
covariance engine, quantizer optimizers, and the baseline schemes."""

import math
import re

import numpy as np
import pytest

from marcsim import (
    FADING,
    STATIC,
    ChannelState,
    FeasibilityError,
    GaussianFamily,
    PowerConfig,
    RateRegion,
    RateTarget,
    cf_region,
    common_outage_mc,
    gqf_bounds,
    gqf_min_terms_gaussian,
    gqf_region,
    outage_flags,
    quantizer_index_rate,
    region,
    sigma_q2_for_fixed_ru,
    sigma_q2_opt_sum,
)
from marcsim.channel import FadingProfile, sample_fading_block
from marcsim.experiments import preset_config, run_experiment
from marcsim.rates import (
    SCHEMES,
    _af_terms,
    _block,
    _index_block,
    _index_terms,
    _links,
    _opt_sigmas,
    _recovered,
    _static_model,
    _violated,
)
import engine_regions
from reference_draws import draw_states

FIG3_STATE = ChannelState(1.0, 1.0, 3.0, 0.5, 3.0)
NO_RATES = RateTarget(0.0, 0.0)  # for the schemes whose region ignores the target
UNIT_POWER = PowerConfig(1.0, 1.0, 1.0, 1.0, 1.0)


def opt_indiv(state, power, beta, user):
    """Equalizer variance of user ``user``'s individual-rate min-terms."""
    return float(_opt_sigmas(_links(state.gains(), power), beta)[user - 1])


def csit_terms(cols, power, beta):
    """csit's per-draw bounds (i1, i2, isum) on the gain columns ``cols``."""
    spec = SCHEMES["csit"]
    return spec.bounds(_block(spec, cols, power, beta), NO_RATES)


def random_static(rng):
    st = ChannelState(*(float(v) for v in rng.uniform(0.01, 10.0, 5)))
    pw = PowerConfig(*(float(v) for v in rng.uniform(0.01, 10.0, 5)))
    beta = float(rng.uniform(0.1, 0.9))
    return st, pw, beta


def test_closed_terms_match_engine():
    # each closed min-term must agree with the covariance-engine value of
    # the corresponding joint-decoding bound (index rate spent exactly)
    rng = np.random.default_rng(17)
    for _ in range(200):
        st, pw, beta = random_static(rng)
        s = float(rng.uniform(0.01, 10.0))
        t = gqf_min_terms_gaussian(st, pw, beta, s)
        fam = GaussianFamily(st, pw, s)
        b = gqf_bounds(fam, beta)
        ru = quantizer_index_rate(fam, beta)
        eng = (b.b_r1, b.b_r1u - ru, b.b_r2, b.b_r2u - ru, b.b_r12, b.b_r12u - ru)
        assert np.max(np.abs(np.array(t) - np.array(eng))) < 1e-9


def test_single_user_bounds_by_chain_rule_match_engine():
    # a user's plain bound with the other source as noise is the sum-rate
    # term less the other user's plain term: tsa - t2a equals
    # beta I(X11; YD1, YhR) + (1 - beta) I(X12; YD2 | XR) of the covariance
    # engine on fading states, and tsa - t1a the mirrored one for user 2
    rng = np.random.default_rng(23)
    for row in draw_states(FadingProfile(2.0, 0.5, 1.0, 3.0, 1.0), 20, 43):
        st = ChannelState(*(complex(v) for v in row), mode="fading")
        pw = PowerConfig(*(float(v) for v in rng.uniform(0.05, 10.0, 5)))
        beta, s = float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.01, 10.0))
        t1a, _, t2a, _, tsa, _ = gqf_min_terms_gaussian(st, pw, beta, s)
        fam = GaussianFamily(st, pw, s)
        m1, m2 = fam.slot1.mutual_info, fam.slot2.mutual_info
        for x1, x2, other in (("X11", "X12", t2a), ("X21", "X22", t1a)):
            alone = beta * m1((x1,), ("YD1", "YhR")) + (1.0 - beta) * m2((x2,), ("YD2",), ("XR",))
            assert tsa - other == pytest.approx(alone, abs=1e-9)


def test_opt_sum_reference_value():
    # gains (1, 1, 3, 0.5, 3), unit powers, beta 1/2:
    # numerator 1 + 15.5/3, denominator (1 + 9/3) - 1 = 3  ->  37/18
    got = sigma_q2_opt_sum(FIG3_STATE, UNIT_POWER, 0.5)
    assert got == pytest.approx(37.0 / 18.0, rel=1e-12)
    assert got == pytest.approx(2.0556, abs=1e-3)


def test_opt_sum_equalizes_and_matches_grid_argmax():
    s_opt = sigma_q2_opt_sum(FIG3_STATE, UNIT_POWER, 0.5)
    t = gqf_min_terms_gaussian(FIG3_STATE, UNIT_POWER, 0.5, s_opt)
    assert abs(t[4] - t[5]) < 1e-9
    grid = np.arange(0.01, 20.0, 0.01)
    vals = [
        min(gqf_min_terms_gaussian(FIG3_STATE, UNIT_POWER, 0.5, s)[4:])
        for s in grid
    ]
    assert abs(grid[int(np.argmax(vals))] - s_opt) <= 0.01 + 1e-12
    assert min(t[4], t[5]) == pytest.approx(1.1495, abs=1e-3)


def test_opt_indiv_reference_value():
    # user 1: numerator 1 + 9/2, denominator (1 + 9/2) - 1 = 4.5  ->  11/9
    got = opt_indiv(FIG3_STATE, UNIT_POWER, 0.5, 1)
    assert got == pytest.approx(11.0 / 9.0, rel=1e-12)
    t = gqf_min_terms_gaussian(FIG3_STATE, UNIT_POWER, 0.5, got)
    assert abs(t[0] - t[1]) < 1e-9
    grid = np.arange(0.01, 20.0, 0.01)
    vals = [
        min(gqf_min_terms_gaussian(FIG3_STATE, UNIT_POWER, 0.5, s)[0:2])
        for s in grid
    ]
    assert abs(grid[int(np.argmax(vals))] - got) <= 0.01 + 1e-12


def test_opt_indiv_specializations():
    # dead second source-relay link: numerator collapses to 1
    st = ChannelState(1.0, 1.0, 3.0, 0.0, 3.0)
    got = opt_indiv(st, UNIT_POWER, 0.5, 2)
    assert got == pytest.approx(1.0 / 4.5, rel=1e-12)
    sym = ChannelState(1.0, 1.0, 2.0, 2.0, 3.0)
    assert opt_indiv(sym, UNIT_POWER, 0.5, 1) == pytest.approx(
        opt_indiv(sym, UNIT_POWER, 0.5, 2), rel=1e-12
    )


def test_opt_sum_limits():
    big_relay = PowerConfig(1.0, 1.0, 1.0, 1.0, 1e9)
    assert sigma_q2_opt_sum(FIG3_STATE, big_relay, 0.5) < 1e-6
    assert sigma_q2_opt_sum(FIG3_STATE, UNIT_POWER, 0.999) > 1e3
    no_relay = ChannelState(1.0, 1.0, 3.0, 0.5, 0.0)
    assert math.isinf(sigma_q2_opt_sum(no_relay, UNIT_POWER, 0.5))


def test_sum_min_terms_monotone_and_cross_at_optimizer():
    s_opt = sigma_q2_opt_sum(FIG3_STATE, UNIT_POWER, 0.5)
    grid = np.linspace(0.05, 10.0, 200)
    first = np.array([gqf_min_terms_gaussian(FIG3_STATE, UNIT_POWER, 0.5, s)[4] for s in grid])
    second = np.array([gqf_min_terms_gaussian(FIG3_STATE, UNIT_POWER, 0.5, s)[5] for s in grid])
    assert np.all(np.diff(first) <= 1e-12)
    assert np.all(np.diff(second) >= -1e-12)
    lo = gqf_min_terms_gaussian(FIG3_STATE, UNIT_POWER, 0.5, s_opt * (1 - 1e-6))
    hi = gqf_min_terms_gaussian(FIG3_STATE, UNIT_POWER, 0.5, s_opt * (1 + 1e-6))
    assert lo[4] - lo[5] > 0.0 > hi[4] - hi[5]


@pytest.mark.parametrize("mode", [STATIC, FADING])
@pytest.mark.parametrize("sigma_q2", [1e-300, 1e-17, 1e-9])
def test_index_charged_terms_at_tiny_quantizer_variance(mode, sigma_q2):
    # the index-charged min-terms hold log2(s * sigma_q2/(1 + sigma_q2)),
    # which must stay finite and accurate however fine the quantizer:
    # compare with log2(sigma_q2) - log1p(sigma_q2)/ln 2, which does not
    # cancel
    h1d, h2d, _, _, hrd = gains = (0.8, 1.2, 3.0, 0.5, 3.0)
    st = ChannelState(*gains, mode=mode)
    pw = PowerConfig(2.0, 1.5, 3.0, 0.5, 4.0)
    beta = 0.4
    k = 0.5 if mode == STATIC else 1.0
    a1, a2 = h1d**2 * pw.p11, h2d**2 * pw.p21
    d1, d2 = h1d**2 * pw.p12, h2d**2 * pw.p22
    e = hrd**2 * pw.pr
    t = gqf_min_terms_gaussian(st, pw, beta, sigma_q2)
    for got, s, dsum in zip(
        t[1::2], (1.0 + a1, 1.0 + a2, 1.0 + a1 + a2), (1.0 + d1, 1.0 + d2, 1.0 + d1 + d2)
    ):
        log_ratio = math.log2(sigma_q2) - math.log1p(sigma_q2) / math.log(2.0)
        want = k * (beta * (math.log2(s) + log_ratio) + (1.0 - beta) * math.log2(dsum + e))
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_gqf_region_at_equality_matches_min_terms():
    s = 1.7
    fam = GaussianFamily(FIG3_STATE, UNIT_POWER, s)
    reg = gqf_region(fam, 0.5, quantizer_index_rate(fam, 0.5))
    t = gqf_min_terms_gaussian(FIG3_STATE, UNIT_POWER, 0.5, s)
    assert reg.i1 == pytest.approx(max(min(t[0], t[1]), 0.0), abs=1e-9)
    assert reg.i2 == pytest.approx(max(min(t[2], t[3]), 0.0), abs=1e-9)
    assert reg.isum == pytest.approx(max(min(t[4], t[5]), 0.0), abs=1e-9)


def test_gqf_region_collapses_for_huge_index_rate():
    s = 1.7
    reg = gqf_region(GaussianFamily(FIG3_STATE, UNIT_POWER, s), 0.5, 1e6)
    assert reg == RateRegion(0.0, 0.0, 0.0)


def test_gqf_region_symmetric_users():
    st = ChannelState(1.0, 1.0, 2.0, 2.0, 3.0)
    fam = GaussianFamily(st, UNIT_POWER, 1.3)
    reg = gqf_region(fam, 0.5, quantizer_index_rate(fam, 0.5))
    assert reg.i1 == pytest.approx(reg.i2, abs=1e-12)


def test_gqf_region_infeasible_index_rate():
    fam = GaussianFamily(FIG3_STATE, UNIT_POWER, 1.7)
    needed = quantizer_index_rate(fam, 0.5)
    with pytest.raises(FeasibilityError):
        gqf_region(fam, 0.5, needed - 1e-3)
    for ru in (math.nan, math.inf, -1.0):  # not a rate: a plain ValueError
        with pytest.raises(ValueError, match="relay index rate ru must be finite") as exc:
            gqf_region(fam, 0.5, ru)
        assert exc.type is ValueError


def test_gqf_silent_relay_reduces_to_direct():
    st = ChannelState(1.0, 1.0, 3.0, 0.5, 0.0)
    reg = gqf_region(GaussianFamily(st, UNIT_POWER, math.inf), 0.5, 0.0)
    direct = region("direct", st, UNIT_POWER, 0.5, NO_RATES)
    assert reg.i1 == pytest.approx(direct.i1, abs=1e-9)
    assert reg.i2 == pytest.approx(direct.i2, abs=1e-9)
    assert reg.isum == pytest.approx(direct.isum, abs=1e-9)


def test_bounds_monotone_in_powers_and_relay_gain():
    # every bound grows with each transmit power and with the
    # relay-destination gain; the plain sum bound is NOT monotone in the
    # other four gains (raising one can align the two-user channel matrix
    # and shrink the cross term), so those stay out of this sweep
    rng = np.random.default_rng(23)
    fields = ["h1d", "h2d", "h1r", "h2r", "hrd"]
    powers = ["p11", "p21", "p12", "p22", "pr"]
    all_bounds = ("b_r1", "b_r1u", "b_r2", "b_r2u", "b_r12", "b_r12u")
    no_cross = ("b_r1", "b_r1u", "b_r2", "b_r2u", "b_r12u")
    for _ in range(60):
        st, pw, beta = random_static(rng)
        s = float(rng.uniform(0.05, 5.0))
        base = gqf_bounds(GaussianFamily(st, pw, s), beta)
        which = int(rng.integers(0, 10))
        if which < 5:
            vals = {f: getattr(st, f) for f in fields}
            vals[fields[which]] *= 1.1
            st2, pw2 = ChannelState(**vals), pw
            names = all_bounds if fields[which] == "hrd" else no_cross
        else:
            vals = {p: getattr(pw, p) for p in powers}
            vals[powers[which - 5]] *= 1.1
            st2, pw2 = st, PowerConfig(**vals)
            names = all_bounds
        bumped = gqf_bounds(GaussianFamily(st2, pw2, s), beta)
        for name in names:
            assert getattr(bumped, name) >= getattr(base, name) - 1e-9


def test_sum_bound_cross_term_counterexample():
    # aligning the channel matrix (h1d*h2r -> h1r*h2d) lowers the joint
    # listen-slot information even though |h1d| grew
    pw = PowerConfig(1.0, 1.0, 1.0, 1.0, 1.0)
    base = gqf_bounds(GaussianFamily(ChannelState(0.5, 3.0, 3.0, 1.0, 1.0), pw, 0.3), 0.5)
    bumped = gqf_bounds(GaussianFamily(ChannelState(0.65, 3.0, 3.0, 1.0, 1.0), pw, 0.3), 0.5)
    assert bumped.b_r12 < base.b_r12
    assert bumped.b_r1 > base.b_r1


def test_cf_threshold_and_feasibility():
    assert sigma_q2_opt_sum(FIG3_STATE, UNIT_POWER, 0.5) == pytest.approx(
        (1 + 15.5 / 3.0) / 3.0, rel=1e-12
    )
    feasible = cf_region(GaussianFamily(FIG3_STATE, UNIT_POWER, 3.0), 0.5)
    assert feasible is not None
    b = gqf_bounds(GaussianFamily(FIG3_STATE, UNIT_POWER, 3.0), 0.5)
    assert feasible.isum == pytest.approx(b.b_r12, abs=1e-12)
    assert cf_region(GaussianFamily(FIG3_STATE, UNIT_POWER, 1.0), 0.5) is None
    # exact threshold is still infeasible (strict inequality)
    thr = sigma_q2_opt_sum(FIG3_STATE, UNIT_POWER, 0.5)
    assert cf_region(GaussianFamily(FIG3_STATE, UNIT_POWER, thr), 0.5) is None


def test_cf_matches_gqf_when_feasible():
    # wherever the binning condition holds strictly, compress-forward and
    # joint decoding at the matching index rate give one region
    rng = np.random.default_rng(29)
    done = 0
    while done < 100:
        st, pw, beta = random_static(rng)
        s = float(rng.uniform(0.01, 10.0))
        thr = sigma_q2_opt_sum(st, pw, beta)
        if not s > thr * (1 + 1e-9):
            continue
        fam = GaussianFamily(st, pw, s)
        cf = cf_region(fam, beta)
        gq = gqf_region(fam, beta, quantizer_index_rate(fam, beta))
        assert cf is not None
        assert abs(cf.i1 - gq.i1) < 1e-9
        assert abs(cf.i2 - gq.i2) < 1e-9
        assert abs(cf.isum - gq.isum) < 1e-9
        done += 1


def test_csit_reference_values():
    reg = region("csit", FIG3_STATE, UNIT_POWER, 0.5, NO_RATES)
    assert reg.isum == pytest.approx(1.1495, abs=1e-3)
    # per-bound consistency with the region at each bound's own optimizer
    def gqf_at(s):
        fam = GaussianFamily(FIG3_STATE, UNIT_POWER, s)
        return gqf_region(fam, 0.5, quantizer_index_rate(fam, 0.5))

    s_sum = sigma_q2_opt_sum(FIG3_STATE, UNIT_POWER, 0.5)
    assert reg.isum == pytest.approx(gqf_at(s_sum).isum, abs=1e-9)
    s_1 = opt_indiv(FIG3_STATE, UNIT_POWER, 0.5, 1)
    assert reg.i1 == pytest.approx(gqf_at(s_1).i1, abs=1e-9)


def test_equalizer_below_the_float_range_is_zero():
    # at beta = 1e-3 every equalizer variance is below the float range: it
    # is 0, with no overflow warning, and csit's bounds are the plain
    # min-terms' sigma_q2 -> 0 limit, where the index-charged ones equal them
    beta = 1e-3
    assert sigma_q2_opt_sum(FIG3_STATE, UNIT_POWER, beta) == 0.0
    assert opt_indiv(FIG3_STATE, UNIT_POWER, beta, 2) == 0.0
    t = gqf_min_terms_gaussian(FIG3_STATE, UNIT_POWER, beta, 1e-300)
    assert region("csit", FIG3_STATE, UNIT_POWER, beta, NO_RATES) == RateRegion.from_bounds(
        t[0], t[2], t[4]
    )
    # and it is no overflow to the Monte Carlo layer, which raises on any
    est = common_outage_mc("csit", FadingProfile.uniform(1.0), PowerConfig.from_snr(10.0, beta),
                           beta, RateTarget(0.5, 0.5), 5000, 3)
    assert est.n_samples == 5000


def test_equalizer_past_the_power_overflow_is_its_log_domain_value():
    # on the fig3 state the sum-rate equalizer is (1 + 15.5/3) e^-y with
    # y = (1 - beta)/beta ln 4; at y = 709.9 e^y overflows while the
    # variance, about 3.05e-308, is still a normal float.  Just inside the
    # overflow (beta = 0.00195) the value is the quotient, bit for bit
    beta = 0.0019489963072676182
    log_domain = math.exp(math.log1p(15.5 / 3.0) - (1.0 - beta) / beta * math.log1p(3.0))
    got = sigma_q2_opt_sum(FIG3_STATE, UNIT_POWER, beta)
    assert got > 0.0
    assert got == pytest.approx(log_domain, rel=1e-12, abs=0.0)
    assert sigma_q2_opt_sum(FIG3_STATE, UNIT_POWER, 0.00195) == float.fromhex(
        "0x1.fa2a5ae9d8bedp-1022")


@pytest.mark.parametrize("beta", [0.5, 1e-3, 0.0019489963072676182])
@pytest.mark.parametrize("state", [
    FIG3_STATE,
    ChannelState(0.8 + 0.3j, -0.5 + 1.1j, 2.0 - 1.0j, 0.4 + 0.2j, 1.5 + 2.0j, mode=FADING),
])
def test_csit_is_the_static_model_at_each_sets_equalizer(state, beta):
    # csit and the static sweeps read one core: csit's region is, per rate
    # set, the least of the static model's two min-terms at that set's own
    # equalizer variance (prefactor applied by both), at an ordinary split,
    # where every equalizer is 0 (1e-3) and at the log-domain equalizer
    pw = PowerConfig(2.0, 1.5, 3.0, 0.5, 4.0)
    for power in (UNIT_POWER, pw):
        sigmas, terms, _ = _static_model(state, power, beta)
        assert sigmas == _opt_sigmas(_links(state.gains(), power), beta)
        want = RateRegion.from_bounds(*(np.minimum(plain, charged) for plain, charged in terms))
        assert region("csit", state, power, beta, NO_RATES) == want


def test_csit_dominates_fixed_index_rate_per_draw():
    prof = FadingProfile.uniform(1.0)
    h = draw_states(prof, 1000, 31)
    pw = PowerConfig.from_snr(10.0, 0.5)
    cols = tuple(h[:, i] for i in range(5))
    cs = csit_terms(cols, pw, 0.5)
    B = _index_block(_links(cols, pw), 0.5, recover=False)
    terms = _index_terms(B, 0.5, 3.0)
    assert _recovered(B, 3.0) is None
    for (ta, tb), c in zip(terms, cs, strict=True):
        assert np.all(np.minimum(ta, tb) <= c + 1e-9)


def test_direct_reference_line():
    # sources at 1.5x unit power, beta 1/2: 0.5*log2(1 + 3) = 1 bit
    reg = region("direct15", FIG3_STATE, UNIT_POWER, 0.5, NO_RATES)
    assert reg.isum == pytest.approx(1.0, abs=1e-12)
    # a boost is direct at scaled source powers; at 1.5 that is direct15
    scaled = region("direct", FIG3_STATE, engine_regions.boosted(UNIT_POWER, 1.5), 0.5,
                    NO_RATES)
    for a, b in ((scaled.i1, reg.i1), (scaled.i2, reg.i2), (scaled.isum, reg.isum)):
        assert a == pytest.approx(b, abs=1e-12)
    zero = region("direct", FIG3_STATE, PowerConfig(0, 0, 0, 0, 0), 0.5, NO_RATES)
    assert zero == RateRegion(0.0, 0.0, 0.0)
    cut = ChannelState(1.0, 0.0, 3.0, 0.5, 3.0)
    assert region("direct", cut, UNIT_POWER, 0.5, NO_RATES).i2 == 0.0


def test_nonwz_branch_boundary_pinned_to_recovered():
    # (1-beta)*log2(1 + e/(1+d1+d2)) equals ru exactly: e = 9, d1 = d2 = 1
    st = ChannelState(1.0, 1.0, 3.0, 0.5, 3.0, mode="fading")
    reg = region("nonwz_cf", st, UNIT_POWER, 0.5, RateTarget(0.0, 0.0, 1.0))
    s = sigma_q2_for_fixed_ru(st, UNIT_POWER, 0.5, 1.0)
    t = gqf_min_terms_gaussian(st, UNIT_POWER, 0.5, s)
    assert reg.i1 == pytest.approx(max(t[0], 0.0), abs=1e-12)
    assert reg.isum == pytest.approx(max(t[4], 0.0), abs=1e-12)
    # just past the boundary the relay signal becomes interference
    reg2 = region("nonwz_cf", st, UNIT_POWER, 0.5, RateTarget(0.0, 0.0, 1.0 + 1e-9))
    assert reg2.isum < reg.isum


def test_nonwz_index_rate_must_be_finite_and_positive():
    # a non-finite ru is no rate at all (RateTarget's rule); a zero one is a
    # rate, but no index rate
    for ru in (math.inf, math.nan):
        with pytest.raises(ValueError, match="rate ru must be finite and >= 0"):
            region("nonwz_cf", FIG3_STATE, UNIT_POWER, 0.5, RateTarget(0.0, 0.0, ru))
    with pytest.raises(ValueError, match="relay index rate ru must be finite and > 0"):
        region("nonwz_cf", FIG3_STATE, UNIT_POWER, 0.5, RateTarget(0.0, 0.0, 0.0))


def test_nonwz_dead_relay_link_is_plain_direct():
    st = ChannelState(1.0, 1.0, 3.0, 0.5, 0.0, mode="fading")
    reg = region("nonwz_cf", st, UNIT_POWER, 0.5, RateTarget(0.0, 0.0, 3.0))
    direct = region("direct", st, UNIT_POWER, 0.5, NO_RATES)
    assert reg.i1 == pytest.approx(direct.i1, abs=1e-12)
    assert reg.isum == pytest.approx(direct.isum, abs=1e-12)


def test_nonwz_strong_relay_link_equals_cf():
    st = ChannelState(1.0, 1.0, 3.0, 0.5, 100.0, mode="fading")
    reg = region("nonwz_cf", st, UNIT_POWER, 0.5, RateTarget(0.0, 0.0, 3.0))
    s = sigma_q2_for_fixed_ru(st, UNIT_POWER, 0.5, 3.0)
    cf = cf_region(GaussianFamily(st, UNIT_POWER, s), 0.5)
    assert cf is not None
    assert reg.isum == pytest.approx(cf.isum, abs=1e-9)


def test_df_branches():
    # dead source-relay links: the relay never decodes, so direct transmission
    st = ChannelState(1.0, 1.0, 0.0, 0.0, 3.0)
    reg = region("df", st, UNIT_POWER, 0.5, RateTarget(1.0, 1.0))
    assert reg == region("direct", st, UNIT_POWER, 0.5, NO_RATES)
    # strong relay links: the cooperate slot gains the relay power
    st2 = ChannelState(1.0, 1.0, 30.0, 30.0, 3.0)
    reg2 = region("df", st2, UNIT_POWER, 0.5, RateTarget(1.0, 1.0))
    assert reg2.isum == pytest.approx(
        0.25 * math.log2(3.0) + 0.25 * math.log2(12.0), abs=1e-12
    )
    # dead relay-destination link: forwarding adds nothing either way
    st3 = ChannelState(1.0, 1.0, 3.0, 3.0, 0.0)
    assert region("df", st3, UNIT_POWER, 0.5, RateTarget(1.0, 1.0)) == region(
        "direct", st3, UNIT_POWER, 0.5, NO_RATES
    )
    for r1 in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="rate r1 must be finite and >= 0"):
            region("df", st, UNIT_POWER, 0.5, RateTarget(r1, 1.0))


def test_af_reduces_to_direct_without_relay_link():
    st = ChannelState(1.0, 1.0, 3.0, 0.5, 0.0)
    reg = region("af", st, UNIT_POWER, 0.5, NO_RATES)
    direct = region("direct", st, UNIT_POWER, 0.5, NO_RATES)
    assert reg.i1 == pytest.approx(direct.i1, abs=1e-12)
    assert reg.isum == pytest.approx(direct.isum, abs=1e-12)
    with pytest.raises(ValueError, match="scheme 'af' needs beta = 0.5"):
        region("af", st, UNIT_POWER, 0.4, NO_RATES)
    for beta in (math.nan, 1.5):  # the slot ratio rule comes before the slot rule
        with pytest.raises(ValueError, match="slot ratio beta must lie in"):
            region("af", st, UNIT_POWER, beta, NO_RATES)


def test_region_of_gqf_and_the_direct_baselines():
    # gqf at the relay's fixed-ru quantizer against the covariance engine,
    # on a static and a fading state
    fading = ChannelState(0.8 + 0.3j, -0.5 + 0.9j, 1.2 - 0.4j, 0.6 + 0.2j, 1.1 + 0.7j,
                          mode=FADING)
    for st in (FIG3_STATE, fading):
        for ru in (0.5, 1.0, 3.0):
            got = region("gqf", st, UNIT_POWER, 0.5, RateTarget(0.0, 0.0, ru))
            s = sigma_q2_for_fixed_ru(st, UNIT_POWER, 0.5, ru)
            ref = gqf_region(GaussianFamily(st, UNIT_POWER, s), 0.5, ru)
            for a, b in ((got.i1, ref.i1), (got.i2, ref.i2), (got.isum, ref.isum)):
                assert a == pytest.approx(b, abs=1e-9)
    # the direct baselines against the covariance engine's two-slot MAC
    for st in (FIG3_STATE, fading):
        for name in ("direct", "direct15"):
            got = region(name, st, UNIT_POWER, 0.4, RateTarget(1.0, 1.0))
            ref = getattr(engine_regions, name)(st, UNIT_POWER, 0.4)
            for a, b in ((got.i1, ref.i1), (got.i2, ref.i2), (got.isum, ref.isum)):
                assert a == pytest.approx(b, abs=1e-9)


def test_region_runs_its_table_entry_checks():
    with pytest.raises(ValueError, match=re.escape(f"known: {tuple(SCHEMES)}")):
        region("nope", FIG3_STATE, UNIT_POWER, 0.5, NO_RATES)
    for name in ("gqf", "nonwz_cf"):
        with pytest.raises(ValueError, match="relay index rate ru must be finite and > 0"):
            region(name, FIG3_STATE, UNIT_POWER, 0.5, RateTarget(1.0, 1.0, 0.0))
    with pytest.raises(ValueError, match="scheme 'af' needs beta = 0.5"):
        region("af", FIG3_STATE, UNIT_POWER, 0.3, NO_RATES)


def _af_reference(g, power):
    """Amplify-forward from the complex gains: the 2x2 output covariance of
    the pair channel, with the relay gain scaled to its power budget."""
    h1d, h2d, h1r, h2r, hrd = g
    a1, a2, c1, c2, d1, d2, _, _ = _links(g, power)
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
    return 0.5 * np.log2(det1 / n2), 0.5 * np.log2(det2 / n2), 0.5 * np.log2(dets / n2)


def test_af_below_csit_on_random_draws():
    prof = FadingProfile.uniform(1.0)
    h = draw_states(prof, 1000, 37)
    pw = PowerConfig.from_snr(10.0, 0.5)
    cols = tuple(h[:, i] for i in range(5))
    af = _af_terms(_links(cols, pw))
    cs = csit_terms(cols, pw, 0.5)
    for a, c in zip(af, cs):
        assert np.all(np.asarray(a) <= np.asarray(c) + 1e-9)


@pytest.mark.parametrize("pr", [0.0, 0.3, 1.0, 40.0])
def test_af_link_powers_equal_complex_gain_form(pr):
    # |rho|^2 = (a1 + a2)(c1 + c2) - kap and gain^2 |hrd|^2 = e/(1 + c1 + c2)
    # turn the complex-gain covariance into link powers
    h = draw_states(FadingProfile(2.0, 0.5, 1.0, 3.0, 1.0), 2000, 41)
    cols = tuple(h[:, i] for i in range(5))
    pw = PowerConfig(3.0, 0.7, 1.5, 2.0, pr)
    for new, ref in zip(_af_terms(_links(cols, pw)), _af_reference(cols, pw), strict=True):
        np.testing.assert_allclose(new, ref, rtol=0.0, atol=1e-12)


def test_af_link_powers_flag_as_complex_gain_form_on_fig5_grid():
    cfg = preset_config("fig5")
    target = RateTarget(cfg.r1, cfg.r2, cfg.ru)
    for profile, pw in cfg.fading_points():
        h = sample_fading_block(profile, cfg.seed, 0)
        with np.errstate(over="raise", invalid="raise"):
            flags = outage_flags("af", h, pw, cfg.beta, target)
        reference = _af_reference(tuple(h[:, i] for i in range(5)), pw)
        assert np.array_equal(flags, _violated(*reference, target)), pw


def test_pentagon_flag():
    assert RateRegion(1.0, 1.0, 1.8).is_proper_pentagon
    assert not RateRegion(1.0, 1.0, 2.5).is_proper_pentagon
    assert RateRegion(1.0, 1.0, 1.8).contains(0.9, 0.9)
    assert not RateRegion(1.0, 1.0, 1.8).contains(1.0, 1.0)


def test_pentagon_shape_by_scheme():
    # the CSI-relay, successive-decoding and baseline regions keep the
    # proper pentagon shape on random draws; the fixed-index-rate region
    # need not (the index rate is charged once in the sum bound but twice
    # across the two per-user bounds), so it carries a flag instead of an
    # error
    prof = FadingProfile.uniform(1.0)
    h = draw_states(prof, 2000, 59)
    pw = PowerConfig.from_snr(1.0, 0.5)
    gqf_flat = 0
    for row in h[:200]:
        st = ChannelState(*(complex(v) for v in row), mode="fading")
        for name in ("csit", "nonwz_cf", "df", "af", "direct"):
            assert region(name, st, pw, 0.5, RateTarget(1.0, 1.0, 3.0)).is_proper_pentagon
        s = sigma_q2_for_fixed_ru(st, pw, 0.5, 3.0)
        reg = gqf_bounds(GaussianFamily(st, pw, s), 0.5).region(3.0)
        gqf_flat += not reg.is_proper_pentagon
    assert gqf_flat > 0  # low-SNR fixed-rate draws do trip the flag


def test_fig4_sum_rate_tops_every_sigma_q2_grid_point():
    # at each slot split the equalizer variance maximizes the sum-rate min
    # over sigma_q2, so fig4's sum rate is at least the best of the preset's
    # sigma_q2 grid and of a discarded observation, up to rounding
    cfg = preset_config("fig4")
    state, power = cfg.static_channel()
    beta = np.asarray(cfg.beta_grid)
    sigmas = np.asarray([*cfg.sigma_q2_grid, math.inf])
    tsa, tsb = _static_model(state, power, beta[:, None], sigmas)[1][2]  # the sum-rate set
    best = np.minimum(tsa, tsb).max(axis=1)
    gqf = np.asarray(run_experiment(cfg).columns["gqf_sum"])
    assert gqf.shape == best.shape
    assert np.all(gqf >= best - 1e-12)


@pytest.mark.parametrize("channel", [{}, {"h1r": 0.7, "h2d": 2.3, "p12": 3.1}])
def test_static_sweeps_read_the_scheme_table(channel):
    # the static sweeps' no-relay sum is direct15's sum bound and fig4's
    # sum rate is csit's, at every grid point of fig3 and fig4, on the
    # preset channel and on a perturbed one
    for preset in ("fig3", "fig4"):
        cfg = preset_config(preset, **channel)
        state, power = cfg.static_channel()
        cols = run_experiment(cfg).columns
        betas = cfg._swept("beta") or (cfg.beta,) * len(cfg.sweep_values)
        assert len(cols["norelay_sum"]) == len(betas)
        for i, beta in enumerate(betas):
            assert cols["norelay_sum"][i] == region("direct15", state, power, beta, NO_RATES).isum
            if preset == "fig4":
                assert cols["gqf_sum"][i] == region("csit", state, power, beta, NO_RATES).isum


def test_static_rates_are_half_the_fading_rates_at_doubled_rate_inputs():
    # real signalling halves every mutual information: on a static state
    # each scalar function gives exactly half its value on a fading state
    # with the same real gains, once every rate input (r1, r2, ru) is
    # doubled.  The relay's decode and index-recovery thresholds are probed
    # on and one ulp above, where only a correctly scaled rate input keeps
    # the branch of both states the same
    gains = (0.9, -0.4, 1.3, 0.7, 1.1)
    static = ChannelState(*gains)
    fading = ChannelState(*gains, mode=FADING)
    pw = PowerConfig(2.0, 1.5, 3.0, 0.5, 4.0)
    beta = 0.4
    half = lambda reg: RateRegion(0.5 * reg.i1, 0.5 * reg.i2, 0.5 * reg.isum)

    for s in (1e-9, 0.7, 5.0, math.inf):
        got = gqf_min_terms_gaussian(static, pw, beta, s)
        assert got == tuple(0.5 * v for v in gqf_min_terms_gaussian(fading, pw, beta, s))
    for name, spec in SCHEMES.items():
        b = spec.beta or beta
        got = region(name, static, pw, b, RateTarget(0.5, 0.25, 1.5))
        assert got == half(region(name, fading, pw, b, RateTarget(1.0, 0.5, 3.0)))

    # user 1 at the static relay's decoding threshold and one ulp above
    L = _links(gains, pw)
    x1 = float(beta * np.log2(1.0 + L[2])) / 2.0
    regions = []
    for r1 in (x1, float(np.nextafter(x1, math.inf))):
        for r2 in (0.0, 0.25):
            got = region("df", static, pw, beta, RateTarget(r1, r2))
            assert got == half(region("df", fading, pw, beta, RateTarget(2.0 * r1, 2.0 * r2)))
            regions.append(got)
    assert regions[0] != regions[2]  # the relay forwards, then stays silent

    # the static index-recovery threshold and one ulp above
    x = float(_index_block(L, beta, recover=True)[2]) / 2.0
    regions = []
    for ru in (x, float(np.nextafter(x, math.inf)), 0.3, 3.0):
        got = region("nonwz_cf", static, pw, beta, RateTarget(0.0, 0.0, ru))
        assert got == half(region("nonwz_cf", fading, pw, beta, RateTarget(0.0, 0.0, 2.0 * ru)))
        regions.append(got)
        assert sigma_q2_for_fixed_ru(static, pw, beta, ru) == sigma_q2_for_fixed_ru(
            fading, pw, beta, 2.0 * ru
        )
    assert regions[0] != regions[1]  # the index is recovered, then not
