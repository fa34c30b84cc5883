"""Tests of the Monte Carlo outage layer: indicators, region
classification, determinism, and the estimator contracts."""

import math

import numpy as np
import pytest

from marcsim import (
    FADING,
    ChannelState,
    FadingProfile,
    OutageEstimate,
    PowerConfig,
    RateTarget,
    af_region,
    classify_region,
    common_outage_mc,
    csit_region,
    df_region,
    direct_mac_region,
    expected_sum_rate_common,
    expected_sum_rate_indiv,
    gqf_bounds_gaussian,
    gqf_outage_indicator,
    individual_outage_mc,
    nonwz_cf_region_fading,
    optimize_ru_grid,
    outage_flags,
)
from marcsim.channel import draw_states, sample_fading_block, sigma_q2_for_fixed_ru
from marcsim.outage import SCHEMES, classify_region_batch

PROFILE = FadingProfile.uniform(1.0)
TARGET = RateTarget(1.0, 1.0, 3.0)


def snr_power(snr_db, beta=0.5):
    return PowerConfig.from_snr(10.0 ** (snr_db / 10.0), beta)


def test_target_validation():
    with pytest.raises(ValueError):
        RateTarget(-1.0, 1.0)
    with pytest.raises(ValueError):
        RateTarget(1.0, 1.0, float("inf"))


def test_indicator_zero_targets_never_outage():
    st = ChannelState(0.3 + 0.1j, 0.2, 1.0, 0.4, 0.8j, mode="fading")
    flag, _ = gqf_outage_indicator(st, snr_power(10.0), 0.5, RateTarget(0.0, 0.0, 3.0))
    assert flag is False


def test_indicator_dead_channel_always_outage():
    st = ChannelState(0.0, 0.0, 0.0, 0.0, 0.0, mode="fading")
    flag, _ = gqf_outage_indicator(st, snr_power(10.0), 0.5, TARGET)
    assert flag is True


def test_indicator_matches_engine_bounds():
    # unit-magnitude gains, power 10: the closed-path indicator and bounds
    # must agree with the covariance engine at the relay's quantizer choice
    st = ChannelState(1.0, 1.0, 1.0, 1.0, 1.0, mode="fading")
    pw = PowerConfig(10.0, 10.0, 10.0, 10.0, 10.0)
    flag, bounds = gqf_outage_indicator(st, pw, 0.5, TARGET)
    s = sigma_q2_for_fixed_ru(st, pw, 0.5, TARGET.ru)
    eng = gqf_bounds_gaussian(st, pw, 0.5, s)
    for name in ("b_r1", "b_r1u", "b_r2", "b_r2u", "b_r12", "b_r12u"):
        assert getattr(bounds, name) == pytest.approx(getattr(eng, name), abs=1e-9)
    reg = eng.region(TARGET.ru)
    assert flag == (not reg.contains(TARGET.r1, TARGET.r2))


def test_outage_flags_match_indicator_per_draw():
    h = draw_states(PROFILE, 256, 11)
    pw = snr_power(10.0)
    flags = outage_flags("gqf", h, pw, 0.5, TARGET)
    for i in range(0, 256, 37):
        st = ChannelState(*(complex(v) for v in h[i]), mode="fading")
        flag, _ = gqf_outage_indicator(st, pw, 0.5, TARGET)
        assert flags[i] == flag


def test_mc_bit_identical_across_runs():
    pw = snr_power(10.0)
    a = common_outage_mc("gqf", PROFILE, pw, 0.5, TARGET, 30000, 99)
    b = common_outage_mc("gqf", PROFILE, pw, 0.5, TARGET, 30000, 99)
    assert a == b
    d = common_outage_mc("gqf", PROFILE, pw, 0.5, TARGET, 30000, 100)
    assert d.p_hat != a.p_hat


def test_mc_matches_independent_reimplementation():
    # straightforward second implementation of direct transmission on the
    # same substreams must agree to the last bit
    pw = snr_power(20.0)
    n, seed = 100_000, 5
    est = common_outage_mc("direct", PROFILE, pw, 0.5, TARGET, n, seed)
    count = 0
    done = 0
    block = 0
    while done < n:
        h = sample_fading_block(PROFILE, seed, block)
        h = h[: n - done]
        g1 = np.abs(h[:, 0]) ** 2
        g2 = np.abs(h[:, 1]) ** 2
        i1 = 0.5 * np.log2(1 + g1 * pw.p11) + 0.5 * np.log2(1 + g1 * pw.p12)
        i2 = 0.5 * np.log2(1 + g2 * pw.p21) + 0.5 * np.log2(1 + g2 * pw.p22)
        isum = 0.5 * np.log2(1 + (g1 * pw.p11 + g2 * pw.p21)) + 0.5 * np.log2(
            1 + (g1 * pw.p12 + g2 * pw.p22)
        )
        count += int(((1.0 > i1) | (1.0 > i2) | (2.0 > isum)).sum())
        done += len(h)
        block += 1
    assert est.p_hat == count / n


def test_direct_outage_matches_rayleigh_closed_form():
    # beta = 1/2 with equal slot powers s makes the direct region
    # {log2(1 + g1 s), log2(1 + g2 s), log2(1 + (g1 + g2) s)} with g1, g2
    # independent unit exponentials, so common outage is
    # 1 - P(g1 >= a1, g2 >= a2, g1 + g2 >= c) in closed form; z = 2.91 is
    # the two-sided 5 % Bonferroni level over the 14 checks
    n, seed, z = 100_000, 12345, 2.91
    for scheme, boost in (("direct", 1.0), ("direct15", 1.5)):
        for snr_db in (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0):
            pw = PowerConfig.from_snr_db(snr_db, 0.5)
            s = pw.p11 * boost
            a1, a2 = (2.0**TARGET.r1 - 1.0) / s, (2.0**TARGET.r2 - 1.0) / s
            c = (2.0 ** (TARGET.r1 + TARGET.r2) - 1.0) / s
            if a1 + a2 < c:
                p = 1.0 - math.exp(-c) * (1.0 + c - a1 - a2)
            else:
                p = 1.0 - math.exp(-(a1 + a2))
            est = common_outage_mc(scheme, PROFILE, pw, 0.5, TARGET, n, seed)
            assert abs(est.p_hat - p) <= z * math.sqrt(p * (1.0 - p) / n), (scheme, snr_db)


def test_mc_degenerate_profiles():
    dead = FadingProfile.uniform(1e-18)
    est = common_outage_mc("direct", dead, snr_power(10.0), 0.5, TARGET, 2000, 1)
    assert est.p_hat == 1.0
    zero_targets = RateTarget(0.0, 0.0, 3.0)
    est2 = common_outage_mc("gqf", PROFILE, snr_power(10.0), 0.5, zero_targets, 2000, 1)
    assert est2.p_hat == 0.0


def test_estimate_ci_formula():
    est = OutageEstimate.from_count(250, 1000, 7)
    assert est.p_hat == 0.25
    assert est.ci95_halfwidth == pytest.approx(1.96 * math.sqrt(0.25 * 0.75 / 1000))


def test_expected_rates_arithmetic():
    t = RateTarget(1.0, 1.0, 3.0)
    assert expected_sum_rate_common(t, OutageEstimate(1.0, 10, 0, 0.0)) == 0.0
    assert expected_sum_rate_common(t, OutageEstimate(0.0, 10, 0, 0.0)) == 2.0
    assert expected_sum_rate_common(t, OutageEstimate(0.25, 10, 0, 0.0)) == 1.5
    assert expected_sum_rate_indiv(t, 0.0, 0.0) == 2.0
    assert expected_sum_rate_indiv(t, 1.0, 0.0) == 1.0


def test_classify_user2_cut_off_gives_region2():
    # user 2 has no path at all; user 1 is strong.  Both user-2 conditions
    # fail (the index-charged one needs a relay-destination link weak
    # enough not to cover the pair event), so the draw lands in region 2.
    st = ChannelState(3.0, 1e-9, 3.0, 1e-9, 0.5, mode="fading")
    out = classify_region(st, snr_power(10.0), 0.5, TARGET)
    assert out.region_index == 2
    # mirrored draw lands in region 1
    st_swap = ChannelState(1e-9, 3.0, 1e-9, 3.0, 0.5, mode="fading")
    out_swap = classify_region(st_swap, snr_power(10.0), 0.5, TARGET)
    assert out_swap.region_index == 1


def test_classify_strong_symmetric_gives_region4():
    st = ChannelState(1.0, 1.0, 1.0, 1.0, 1.0, mode="fading")
    out = classify_region(st, snr_power(30.0), 0.5, TARGET)
    assert out.region_index == 4


def test_classification_partitions():
    h = draw_states(PROFILE, 10_000, 13)
    pw = snr_power(10.0)
    codes = classify_region_batch(h, pw, 0.5, TARGET)
    counts = np.bincount(codes, minlength=5)[1:]
    assert counts.sum() == 10_000
    common = outage_flags("gqf", h, pw, 0.5, TARGET)
    assert np.array_equal(codes == 4, ~common)


@pytest.mark.parametrize("scheme", ["gqf", "nonwz_cf"])
def test_classify_subnormal_index_rate_takes_the_limit(scheme):
    # at ru = 1e-320 the quantizer variance is inf; the single-user bounds
    # must take their limit there, not go NaN and drop regions 1 and 2
    h = draw_states(PROFILE, 4000, 7)
    pw = snr_power(10.0)
    tiny = classify_region_batch(h, pw, 0.5, RateTarget(1.0, 1.0, 1e-320), scheme)
    small = classify_region_batch(h, pw, 0.5, RateTarget(1.0, 1.0, 1e-300), scheme)
    assert np.all(np.isin([1, 2], small))
    assert np.array_equal(tiny, small)


def test_individual_outage_identities():
    pw = snr_power(10.0)
    ind = individual_outage_mc(PROFILE, pw, 0.5, TARGET, 20_000, 21)
    f1, f2, f3, f4 = ind.region_freqs
    assert f1 + f2 + f3 + f4 == pytest.approx(1.0, abs=1e-15)
    assert ind.p_indiv1 == f1 + f3
    assert ind.p_indiv2 == f2 + f3
    assert ind.p_common == pytest.approx(f1 + f2 + f3, abs=1e-15)
    assert ind.p_indiv1 <= ind.p_common and ind.p_indiv2 <= ind.p_common
    assert ind.p_indiv1 + ind.p_indiv2 - ind.p_common == pytest.approx(f3, abs=1e-15)
    # individual-based throughput never falls below the common-based one
    assert expected_sum_rate_indiv(TARGET, ind.p_indiv1, ind.p_indiv2) >= (
        expected_sum_rate_common(TARGET, OutageEstimate(ind.p_common, 20_000, 21, 0.0))
        - 1e-12
    )
    # matches the common estimator on the same draws
    est = common_outage_mc("gqf", PROFILE, pw, 0.5, TARGET, 20_000, 21)
    assert ind.p_common == est.p_hat


def test_individual_outage_symmetric_users():
    pw = snr_power(10.0)
    ind = individual_outage_mc(PROFILE, pw, 0.5, TARGET, 50_000, 3)
    assert abs(ind.p_indiv1 - ind.p_indiv2) < 0.01


def test_individual_outage_user2_starved():
    prof = FadingProfile(1.0, 1e-12, 1.0, 1e-12, 1.0)
    ind = individual_outage_mc(prof, snr_power(10.0), 0.5, TARGET, 5000, 9)
    assert ind.p_indiv2 == 1.0
    assert ind.p_indiv1 < 1.0


def test_individual_outage_nonwz_variant():
    ind = individual_outage_mc(
        PROFILE, snr_power(10.0), 0.5, RateTarget(1.0, 1.0, 1.0), 20_000, 5,
        scheme="nonwz_cf",
    )
    assert 0.0 < ind.p_common < 1.0
    assert ind.p_indiv1 <= ind.p_common


def test_csit_dominates_gqf_per_draw_and_in_probability():
    pw = snr_power(10.0)
    h = draw_states(PROFILE, 20_000, 55)
    cs = outage_flags("csit", h, pw, 0.5, TARGET)
    for ru in (0.5, 1.0, 3.0, 6.0):
        gq = outage_flags("gqf", h, pw, 0.5, RateTarget(1.0, 1.0, ru))
        assert not np.any(cs & ~gq)  # CSI relay in outage only when fixed-rate is
    a = common_outage_mc("csit", PROFILE, pw, 0.5, TARGET, 20_000, 55)
    b = common_outage_mc("gqf", PROFILE, pw, 0.5, TARGET, 20_000, 55)
    assert a.p_hat <= b.p_hat
    # the streaming estimator and the materialized draw matrix are the
    # same sample sequence
    assert float(cs.mean()) == a.p_hat


def test_csit_trivial_targets():
    zero = RateTarget(0, 0, 3.0)
    assert common_outage_mc("csit", PROFILE, snr_power(10.0), 0.5, zero, 2000, 1).p_hat == 0.0
    dead = FadingProfile.uniform(1e-18)
    assert common_outage_mc("csit", dead, snr_power(10.0), 0.5, TARGET, 2000, 1).p_hat == 1.0


def test_optimize_ru_grid_contracts():
    pw = snr_power(10.0)
    ru, est = optimize_ru_grid(PROFILE, pw, 0.5, TARGET, [3.0], 10_000, 77)
    assert ru == 3.0
    fixed = common_outage_mc("gqf", PROFILE, pw, 0.5, TARGET, 10_000, 77)
    assert est == fixed
    ru2, est2 = optimize_ru_grid(
        PROFILE, pw, 0.5, TARGET, [0.5, 1.0, 2.0, 3.0, 4.0], 10_000, 77
    )
    assert est2.p_hat <= fixed.p_hat
    # all-tie grids resolve to the smallest rate
    ru3, _ = optimize_ru_grid(
        PROFILE, pw, 0.5, RateTarget(0.0, 0.0, 3.0), [1.0, 2.0], 1000, 1
    )
    assert ru3 == 1.0
    with pytest.raises(ValueError):
        optimize_ru_grid(PROFILE, pw, 0.5, TARGET, [], 1000, 1)
    with pytest.raises(ValueError):
        optimize_ru_grid(PROFILE, pw, 0.5, TARGET, [2.0, 1.0], 1000, 1)
    with pytest.raises(ValueError):
        optimize_ru_grid(PROFILE, pw, 0.5, TARGET, [1.0, 2.0], 1000, 1, scheme="df")


def test_unknown_scheme_and_missing_ru():
    with pytest.raises(ValueError):
        common_outage_mc("qqf", PROFILE, snr_power(10.0), 0.5, TARGET, 100, 1)
    with pytest.raises(ValueError):
        common_outage_mc(
            "gqf", PROFILE, snr_power(10.0), 0.5, RateTarget(1.0, 1.0), 100, 1
        )


def test_individual_outage_bit_identical_across_runs():
    pw = snr_power(10.0)
    a = individual_outage_mc(PROFILE, pw, 0.5, TARGET, 20_000, 2)
    b = individual_outage_mc(PROFILE, pw, 0.5, TARGET, 20_000, 2)
    assert a == b


# per-state outage of every table scheme through the scalar API
SCALAR_OUTAGE = {
    "gqf": lambda st, pw, b, t: gqf_outage_indicator(st, pw, b, t)[0],
    "csit": lambda st, pw, b, t: not csit_region(st, pw, b).contains(t.r1, t.r2),
    "nonwz_cf": lambda st, pw, b, t: not nonwz_cf_region_fading(st, pw, b, t.ru).contains(
        t.r1, t.r2
    ),
    "df": lambda st, pw, b, t: not df_region(st, pw, b, t.r1, t.r2).contains(t.r1, t.r2),
    "af": lambda st, pw, b, t: not af_region(st, pw, b).contains(t.r1, t.r2),
    "direct": lambda st, pw, b, t: not direct_mac_region(st, pw, b).contains(t.r1, t.r2),
    "direct15": lambda st, pw, b, t: not direct_mac_region(st, pw, b, boost=1.5).contains(
        t.r1, t.r2
    ),
}


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_scheme_table_matches_scalar_api(scheme):
    assert set(SCALAR_OUTAGE) == set(SCHEMES)
    pw = snr_power(10.0)
    target = RateTarget(1.25, 0.75, 2.0)  # asymmetric, so swapped users show
    h = draw_states(PROFILE, 300, 8)
    flags = outage_flags(scheme, h, pw, 0.5, target)
    assert 0 < flags.sum() < len(h)
    for row, flag in zip(h, flags):
        state = ChannelState(*row, mode=FADING)
        assert bool(flag) == SCALAR_OUTAGE[scheme](state, pw, 0.5, target)


def test_scheme_table_rules():
    pw = snr_power(10.0)
    h = draw_states(PROFILE, 10, 1)
    with pytest.raises(ValueError, match="needs beta = 0.5"):
        outage_flags("af", h, pw, 0.4, TARGET)
    for name, scheme in SCHEMES.items():
        if scheme.regions is None:
            outage_flags(name, h, pw, 0.5, RateTarget(1.0, 1.0))  # no index rate needed
            with pytest.raises(ValueError):
                classify_region_batch(h, pw, 0.5, TARGET, name)
        else:
            with pytest.raises(ValueError):
                outage_flags(name, h, pw, 0.5, RateTarget(1.0, 1.0))
