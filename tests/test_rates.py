"""Tests of the Gaussian rate evaluators: closed forms against the
covariance engine, quantizer optimizers, and the baseline schemes."""

import math

import numpy as np
import pytest

from marcsim import (
    ChannelState,
    FeasibilityError,
    PowerConfig,
    RateRegion,
    af_region,
    cf_region_gaussian,
    csit_region,
    df_region,
    direct_mac_region,
    gqf_bounds_gaussian,
    gqf_min_terms_gaussian,
    gqf_region,
    nonwz_cf_region_fading,
    optimize_sigma_beta_grid,
    quantizer_index_rate,
    sigma_q2_opt_indiv,
    sigma_q2_opt_sum,
)
from marcsim.channel import draw_states, FadingProfile
from marcsim.rates import _af_terms, _csit_terms

FIG3_STATE = ChannelState(1.0, 1.0, 3.0, 0.5, 3.0)
UNIT_POWER = PowerConfig(1.0, 1.0, 1.0, 1.0, 1.0)


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
        b = gqf_bounds_gaussian(st, pw, beta, s)
        ru = quantizer_index_rate(st, pw, beta, s)
        eng = (b.b_r1, b.b_r1u - ru, b.b_r2, b.b_r2u - ru, b.b_r12, b.b_r12u - ru)
        assert np.max(np.abs(np.array(t) - np.array(eng))) < 1e-9


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
    got = sigma_q2_opt_indiv(FIG3_STATE, UNIT_POWER, 0.5, 1)
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
    got = sigma_q2_opt_indiv(st, UNIT_POWER, 0.5, 2)
    assert got == pytest.approx(1.0 / 4.5, rel=1e-12)
    sym = ChannelState(1.0, 1.0, 2.0, 2.0, 3.0)
    assert sigma_q2_opt_indiv(sym, UNIT_POWER, 0.5, 1) == pytest.approx(
        sigma_q2_opt_indiv(sym, UNIT_POWER, 0.5, 2), rel=1e-12
    )
    with pytest.raises(ValueError):
        sigma_q2_opt_indiv(sym, UNIT_POWER, 0.5, 3)


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


def test_gqf_region_at_equality_matches_min_terms():
    s = 1.7
    ru = quantizer_index_rate(FIG3_STATE, UNIT_POWER, 0.5, s)
    reg = gqf_region(FIG3_STATE, UNIT_POWER, 0.5, s, ru)
    t = gqf_min_terms_gaussian(FIG3_STATE, UNIT_POWER, 0.5, s)
    assert reg.i1 == pytest.approx(max(min(t[0], t[1]), 0.0), abs=1e-9)
    assert reg.i2 == pytest.approx(max(min(t[2], t[3]), 0.0), abs=1e-9)
    assert reg.isum == pytest.approx(max(min(t[4], t[5]), 0.0), abs=1e-9)


def test_gqf_region_collapses_for_huge_index_rate():
    s = 1.7
    reg = gqf_region(FIG3_STATE, UNIT_POWER, 0.5, s, 1e6)
    assert reg == RateRegion(0.0, 0.0, 0.0)


def test_gqf_region_symmetric_users():
    st = ChannelState(1.0, 1.0, 2.0, 2.0, 3.0)
    ru = quantizer_index_rate(st, UNIT_POWER, 0.5, 1.3)
    reg = gqf_region(st, UNIT_POWER, 0.5, 1.3, ru)
    assert reg.i1 == pytest.approx(reg.i2, abs=1e-12)


def test_gqf_region_infeasible_index_rate():
    s = 1.7
    needed = quantizer_index_rate(FIG3_STATE, UNIT_POWER, 0.5, s)
    with pytest.raises(FeasibilityError):
        gqf_region(FIG3_STATE, UNIT_POWER, 0.5, s, needed - 1e-3)


def test_gqf_silent_relay_reduces_to_direct():
    st = ChannelState(1.0, 1.0, 3.0, 0.5, 0.0)
    reg = gqf_region(st, UNIT_POWER, 0.5, math.inf, 0.0)
    direct = direct_mac_region(st, UNIT_POWER, 0.5)
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
        base = gqf_bounds_gaussian(st, pw, beta, s)
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
        bumped = gqf_bounds_gaussian(st2, pw2, beta, s)
        for name in names:
            assert getattr(bumped, name) >= getattr(base, name) - 1e-9


def test_sum_bound_cross_term_counterexample():
    # aligning the channel matrix (h1d*h2r -> h1r*h2d) lowers the joint
    # listen-slot information even though |h1d| grew
    pw = PowerConfig(1.0, 1.0, 1.0, 1.0, 1.0)
    base = gqf_bounds_gaussian(ChannelState(0.5, 3.0, 3.0, 1.0, 1.0), pw, 0.5, 0.3)
    bumped = gqf_bounds_gaussian(ChannelState(0.65, 3.0, 3.0, 1.0, 1.0), pw, 0.5, 0.3)
    assert bumped.b_r12 < base.b_r12
    assert bumped.b_r1 > base.b_r1


def test_cf_threshold_and_feasibility():
    assert sigma_q2_opt_sum(FIG3_STATE, UNIT_POWER, 0.5) == pytest.approx(
        (1 + 15.5 / 3.0) / 3.0, rel=1e-12
    )
    feasible = cf_region_gaussian(FIG3_STATE, UNIT_POWER, 0.5, 3.0)
    assert feasible is not None
    b = gqf_bounds_gaussian(FIG3_STATE, UNIT_POWER, 0.5, 3.0)
    assert feasible.isum == pytest.approx(b.b_r12, abs=1e-12)
    assert cf_region_gaussian(FIG3_STATE, UNIT_POWER, 0.5, 1.0) is None
    # exact threshold is still infeasible (strict inequality)
    thr = sigma_q2_opt_sum(FIG3_STATE, UNIT_POWER, 0.5)
    assert cf_region_gaussian(FIG3_STATE, UNIT_POWER, 0.5, thr) is None


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
        cf = cf_region_gaussian(st, pw, beta, s)
        ru = quantizer_index_rate(st, pw, beta, s)
        gq = gqf_region(st, pw, beta, s, ru)
        assert cf is not None
        assert abs(cf.i1 - gq.i1) < 1e-9
        assert abs(cf.i2 - gq.i2) < 1e-9
        assert abs(cf.isum - gq.isum) < 1e-9
        done += 1


def test_csit_region_reference_values():
    reg = csit_region(FIG3_STATE, UNIT_POWER, 0.5)
    assert reg.isum == pytest.approx(1.1495, abs=1e-3)
    # per-bound consistency with the region at each bound's own optimizer
    s_sum = sigma_q2_opt_sum(FIG3_STATE, UNIT_POWER, 0.5)
    ru = quantizer_index_rate(FIG3_STATE, UNIT_POWER, 0.5, s_sum)
    assert reg.isum == pytest.approx(
        gqf_region(FIG3_STATE, UNIT_POWER, 0.5, s_sum, ru).isum, abs=1e-9
    )
    s_1 = sigma_q2_opt_indiv(FIG3_STATE, UNIT_POWER, 0.5, 1)
    ru = quantizer_index_rate(FIG3_STATE, UNIT_POWER, 0.5, s_1)
    assert reg.i1 == pytest.approx(
        gqf_region(FIG3_STATE, UNIT_POWER, 0.5, s_1, ru).i1, abs=1e-9
    )


def test_csit_dominates_fixed_index_rate_per_draw():
    prof = FadingProfile.uniform(1.0)
    h = draw_states(prof, 1000, 31)
    pw = PowerConfig.from_snr(10.0, 0.5)
    cs = _csit_terms(*(h[:, i] for i in range(5)), pw, 0.5, 1.0)
    from marcsim.outage import _fixed_ru_terms

    _, t = _fixed_ru_terms(tuple(h[:, i] for i in range(5)), pw, 0.5, 3.0)
    assert np.all(np.minimum(t[0], t[1]) <= cs[0] + 1e-9)
    assert np.all(np.minimum(t[2], t[3]) <= cs[1] + 1e-9)
    assert np.all(np.minimum(t[4], t[5]) <= cs[2] + 1e-9)


def test_direct_reference_line():
    # sources at 1.5x unit power, beta 1/2: 0.5*log2(1 + 3) = 1 bit
    reg = direct_mac_region(FIG3_STATE, UNIT_POWER, 0.5, boost=1.5)
    assert reg.isum == pytest.approx(1.0, abs=1e-12)
    zero = direct_mac_region(FIG3_STATE, PowerConfig(0, 0, 0, 0, 0), 0.5)
    assert zero == RateRegion(0.0, 0.0, 0.0)
    cut = ChannelState(1.0, 0.0, 3.0, 0.5, 3.0)
    assert direct_mac_region(cut, UNIT_POWER, 0.5).i2 == 0.0
    with pytest.raises(ValueError):
        direct_mac_region(FIG3_STATE, UNIT_POWER, 0.5, boost=0.5)


def test_nonwz_branch_boundary_pinned_to_recovered():
    # (1-beta)*log2(1 + e/(1+d1+d2)) equals ru exactly: e = 9, d1 = d2 = 1
    st = ChannelState(1.0, 1.0, 3.0, 0.5, 3.0, mode="fading")
    reg = nonwz_cf_region_fading(st, UNIT_POWER, 0.5, 1.0)
    from marcsim.channel import sigma_q2_for_fixed_ru

    s = sigma_q2_for_fixed_ru(st, UNIT_POWER, 0.5, 1.0)
    t = gqf_min_terms_gaussian(st, UNIT_POWER, 0.5, s)
    assert reg.i1 == pytest.approx(max(t[0], 0.0), abs=1e-12)
    assert reg.isum == pytest.approx(max(t[4], 0.0), abs=1e-12)
    # just past the boundary the relay signal becomes interference
    reg2 = nonwz_cf_region_fading(st, UNIT_POWER, 0.5, 1.0 + 1e-9)
    assert reg2.isum < reg.isum


def test_nonwz_dead_relay_link_is_plain_direct():
    st = ChannelState(1.0, 1.0, 3.0, 0.5, 0.0, mode="fading")
    reg = nonwz_cf_region_fading(st, UNIT_POWER, 0.5, 3.0)
    direct = direct_mac_region(st, UNIT_POWER, 0.5)
    assert reg.i1 == pytest.approx(direct.i1, abs=1e-12)
    assert reg.isum == pytest.approx(direct.isum, abs=1e-12)


def test_nonwz_strong_relay_link_equals_cf():
    st = ChannelState(1.0, 1.0, 3.0, 0.5, 100.0, mode="fading")
    reg = nonwz_cf_region_fading(st, UNIT_POWER, 0.5, 3.0)
    from marcsim.channel import sigma_q2_for_fixed_ru

    s = sigma_q2_for_fixed_ru(st, UNIT_POWER, 0.5, 3.0)
    cf = cf_region_gaussian(st, UNIT_POWER, 0.5, s)
    assert cf is not None
    assert reg.isum == pytest.approx(cf.isum, abs=1e-9)


def test_df_branches():
    # dead source-relay links: the relay never decodes, so direct transmission
    st = ChannelState(1.0, 1.0, 0.0, 0.0, 3.0)
    reg = df_region(st, UNIT_POWER, 0.5, 1.0, 1.0)
    direct = direct_mac_region(st, UNIT_POWER, 0.5)
    assert reg == direct
    # strong relay links: the cooperate slot gains the relay power
    st2 = ChannelState(1.0, 1.0, 30.0, 30.0, 3.0)
    reg2 = df_region(st2, UNIT_POWER, 0.5, 1.0, 1.0)
    assert reg2.isum == pytest.approx(
        0.25 * math.log2(3.0) + 0.25 * math.log2(12.0), abs=1e-12
    )
    # dead relay-destination link: forwarding adds nothing either way
    st3 = ChannelState(1.0, 1.0, 3.0, 3.0, 0.0)
    assert df_region(st3, UNIT_POWER, 0.5, 1.0, 1.0) == direct_mac_region(
        st3, UNIT_POWER, 0.5
    )


def test_af_reduces_to_direct_without_relay_link():
    st = ChannelState(1.0, 1.0, 3.0, 0.5, 0.0)
    reg = af_region(st, UNIT_POWER, 0.5)
    direct = direct_mac_region(st, UNIT_POWER, 0.5)
    assert reg.i1 == pytest.approx(direct.i1, abs=1e-12)
    assert reg.isum == pytest.approx(direct.isum, abs=1e-12)
    with pytest.raises(ValueError):
        af_region(st, UNIT_POWER, 0.4)


def test_af_below_csit_on_random_draws():
    prof = FadingProfile.uniform(1.0)
    h = draw_states(prof, 1000, 37)
    pw = PowerConfig.from_snr(10.0, 0.5)
    cols = tuple(h[:, i] for i in range(5))
    af = _af_terms(*cols, pw, 1.0)
    cs = _csit_terms(*cols, pw, 0.5, 1.0)
    for a, c in zip(af, cs):
        assert np.all(np.asarray(a) <= np.asarray(c) + 1e-9)


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
    from marcsim.channel import sigma_q2_for_fixed_ru

    prof = FadingProfile.uniform(1.0)
    h = draw_states(prof, 2000, 59)
    pw = PowerConfig.from_snr(1.0, 0.5)
    gqf_flat = 0
    for row in h[:200]:
        st = ChannelState(*(complex(v) for v in row), mode="fading")
        assert csit_region(st, pw, 0.5).is_proper_pentagon
        assert nonwz_cf_region_fading(st, pw, 0.5, 3.0).is_proper_pentagon
        assert df_region(st, pw, 0.5, 1.0, 1.0).is_proper_pentagon
        assert af_region(st, pw, 0.5).is_proper_pentagon
        assert direct_mac_region(st, pw, 0.5).is_proper_pentagon
        s = sigma_q2_for_fixed_ru(st, pw, 0.5, 3.0)
        reg = gqf_bounds_gaussian(st, pw, 0.5, s).region(3.0)
        gqf_flat += not reg.is_proper_pentagon
    assert gqf_flat > 0  # low-SNR fixed-rate draws do trip the flag


def test_optimize_sigma_beta_grid():
    s, b, v = optimize_sigma_beta_grid(
        FIG3_STATE, UNIT_POWER, np.arange(0.2, 6.0, 0.2), np.arange(0.1, 1.0, 0.1)
    )
    t = gqf_min_terms_gaussian(FIG3_STATE, UNIT_POWER, 0.5, sigma_q2_opt_sum(FIG3_STATE, UNIT_POWER, 0.5))
    assert v >= min(t[4], t[5]) - 0.05  # grid resolution
    assert 0.0 < b < 1.0
    with pytest.raises(ValueError):
        optimize_sigma_beta_grid(FIG3_STATE, UNIT_POWER, [], [0.5])
