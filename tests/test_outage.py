"""Tests of the Monte Carlo outage layer: indicators, region
classification, determinism, and the estimator contracts."""

import ast
import dataclasses
import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest

from marcsim import (
    FADING,
    ChannelState,
    FadingProfile,
    GaussianFamily,
    IndividualOutageEstimate,
    OutageEstimate,
    PowerConfig,
    RateTarget,
    common_outage_mc,
    expected_sum_rate_common,
    expected_sum_rate_indiv,
    gqf_bounds,
    individual_outage_mc,
    optimize_ru_grid,
    outage_flags,
    region,
)
from marcsim import channel, cli, config, experiments, outage, rates
from marcsim.channel import BLOCK_SIZE, sample_fading_block
from marcsim.rates import SCHEMES, _IndexRateCurve, sigma_q2_for_fixed_ru
from marcsim.config import SCHEME_TOKENS
from marcsim.outage import classify_region_batch
import engine_regions
from reference_draws import draw_states

PROFILE = FadingProfile.uniform(1.0)
TARGET = RateTarget(1.0, 1.0, 3.0)


def snr_power(snr_db, beta=0.5):
    return PowerConfig.from_snr(10.0 ** (snr_db / 10.0), beta)


def one_row(state):
    """A single draw as the one-row matrix the batch calls take."""
    return np.array([state.gains()], dtype=complex)


def test_target_validation():
    with pytest.raises(ValueError):
        RateTarget(-1.0, 1.0)
    with pytest.raises(ValueError):
        RateTarget(1.0, 1.0, float("inf"))


def test_indicator_zero_targets_never_outage():
    st = ChannelState(0.3 + 0.1j, 0.2, 1.0, 0.4, 0.8j, mode="fading")
    flags = outage_flags("gqf", one_row(st), snr_power(10.0), 0.5, RateTarget(0.0, 0.0, 3.0))
    assert flags.tolist() == [False]


def test_indicator_dead_channel_always_outage():
    st = ChannelState(0.0, 0.0, 0.0, 0.0, 0.0, mode="fading")
    assert outage_flags("gqf", one_row(st), snr_power(10.0), 0.5, TARGET).tolist() == [True]


def test_indicator_matches_engine_bounds():
    # unit-magnitude gains, power 10: the closed-form min-terms and the
    # one-row flag must agree with the covariance engine at the relay's
    # quantizer choice; spending the index rate exactly makes each
    # index-charged min-term the engine bound minus ru
    st = ChannelState(1.0, 1.0, 1.0, 1.0, 1.0, mode="fading")
    pw = PowerConfig(10.0, 10.0, 10.0, 10.0, 10.0)
    s = sigma_q2_for_fixed_ru(st, pw, 0.5, TARGET.ru)
    t = rates.gqf_min_terms_gaussian(st, pw, 0.5, s)
    eng = gqf_bounds(GaussianFamily(st, pw, s), 0.5)
    ru = TARGET.ru
    for got, name in zip(t, ("b_r1", "b_r1u", "b_r2", "b_r2u", "b_r12", "b_r12u")):
        charged = ru if name.endswith("u") else 0.0
        assert got + charged == pytest.approx(getattr(eng, name), abs=1e-9)
    flags = outage_flags("gqf", one_row(st), pw, 0.5, TARGET)
    assert flags.tolist() == [not eng.region(ru).contains(TARGET.r1, TARGET.r2)]


def test_outage_flags_match_indicator_per_draw():
    h = draw_states(PROFILE, 256, 11)
    pw = snr_power(10.0)
    flags = outage_flags("gqf", h, pw, 0.5, TARGET)
    for i in range(0, 256, 37):
        assert outage_flags("gqf", h[i : i + 1], pw, 0.5, TARGET).tolist() == [flags[i]]


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


def test_df_outage_matches_relay_decoding_closed_form():
    # with vanishing direct links, silent sources in the cooperate slot and
    # a relay power of 1e12, df is in outage exactly when the relay fails to
    # decode: at beta = 1/2 the relay needs g1 >= a1, g2 >= a2 and
    # g1 + g2 >= c on its unit-exponential gains; z = 2.69 is the two-sided
    # 5 % Bonferroni level over the 7 checks
    n, seed, z = 100_000, 12345, 2.69
    profile = FadingProfile(1e-12, 1e-12, 1.0, 1.0, 1.0)
    for snr_db in (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0):
        s = 10.0 ** (snr_db / 10.0)
        pw = PowerConfig(s, s, 0.0, 0.0, 1e12)
        a1, a2 = (2.0 ** (2 * TARGET.r1) - 1.0) / s, (2.0 ** (2 * TARGET.r2) - 1.0) / s
        c = (2.0 ** (2 * (TARGET.r1 + TARGET.r2)) - 1.0) / s
        p = 1.0 - math.exp(-c) * (1.0 + c - a1 - a2)
        est = common_outage_mc("df", profile, pw, 0.5, TARGET, n, seed)
        assert abs(est.p_hat - p) <= z * math.sqrt(p * (1.0 - p) / n), snr_db


def test_mc_degenerate_profiles():
    dead = FadingProfile.uniform(1e-18)
    est = common_outage_mc("direct", dead, snr_power(10.0), 0.5, TARGET, 2000, 1)
    assert est.p_hat == 1.0
    zero_targets = RateTarget(0.0, 0.0, 3.0)
    est2 = common_outage_mc("gqf", PROFILE, snr_power(10.0), 0.5, zero_targets, 2000, 1)
    assert est2.p_hat == 0.0


def test_estimate_ci_formula():
    # p_hat +- ci holds the 95% Wilson score interval, and touches one end
    z = 1.96
    for count, n in ((250, 1000), (3, 10), (0, 100_000), (100_000, 100_000)):
        est = OutageEstimate.from_count(count, n, 7)
        p = count / n
        assert est.p_hat == p
        centre = (p + z * z / (2 * n)) / (1 + z * z / n)
        half = z / (1 + z * z / n) * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
        lo, hi = centre - half, centre + half
        assert est.ci95_halfwidth == pytest.approx(max(p - lo, hi - p), rel=1e-12)
    # no outage in 100k draws still leaves an interval of about 3.84e-5
    est = OutageEstimate.from_count(0, 100_000, 7)
    assert est.ci95_halfwidth == pytest.approx(z * z / (100_000 + z * z), rel=1e-12)
    assert est.ci95_halfwidth > 3.8e-5


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
    assert classify_region_batch(one_row(st), snr_power(10.0), 0.5, TARGET).tolist() == [2]
    # mirrored draw lands in region 1
    st_swap = ChannelState(1e-9, 3.0, 1e-9, 3.0, 0.5, mode="fading")
    assert classify_region_batch(one_row(st_swap), snr_power(10.0), 0.5, TARGET).tolist() == [1]


def test_classify_strong_symmetric_gives_region4():
    st = ChannelState(1.0, 1.0, 1.0, 1.0, 1.0, mode="fading")
    assert classify_region_batch(one_row(st), snr_power(30.0), 0.5, TARGET).tolist() == [4]


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


@pytest.mark.parametrize("seed", [2, 9])
def test_individual_common_outage_is_the_common_estimate(seed):
    # p_common is the count of regions 1-3 over n, not the float sum
    # f1 + f2 + f3, so it equals the common estimate at every seed
    pw = snr_power(10.0)
    ind = individual_outage_mc(PROFILE, pw, 0.5, TARGET, 5000, seed)
    assert ind.p_common == common_outage_mc("gqf", PROFILE, pw, 0.5, TARGET, 5000, seed).p_hat


@pytest.mark.parametrize("scheme", ["gqf", "nonwz_cf"])
def test_individual_estimate_is_built_from_the_region_counts(scheme):
    # at one fig8 point, the record is from_counts of the region counts
    # summed over the blocks; two blocks, the last one short
    cfg, profiles, powers = _sweep_points("fig8")
    n, target = BLOCK_SIZE + 5, RateTarget(cfg.r1, cfg.r2, cfg.ru)
    prof, pw = profiles[len(profiles) // 2], powers[len(profiles) // 2]
    counts = sum(
        np.bincount(classify_region_batch(
            sample_fading_block(prof, cfg.seed, b)[: n - b * BLOCK_SIZE], pw, cfg.beta, target,
            scheme), minlength=5)[1:5]
        for b in range(2))
    assert IndividualOutageEstimate.from_counts(counts, n, cfg.seed) == individual_outage_mc(
        prof, pw, cfg.beta, target, n, cfg.seed, scheme=scheme)


def _mac_region_probabilities(v1, v2, r1, r2, s):
    """Exact (region 1, region 2, common outage) of the two-slot MAC at
    beta = 1/2 with equal slot powers s, over independent exponential
    direct gains g1, g2 of means v1 != v2.

    With A_i = (2^r_i - 1)/s and C = (2^(r1+r2) - 1)/s, region 2 is
    P(g2 < A2, g1 >= (2^r1 - 1)(1/s + g2)), region 1 mirrors it, and no
    outage is P(g1 >= A1, g2 >= A2, g1 + g2 >= C); each 1-D integral over
    one gain is evaluated in closed form.
    """
    b1, b2 = 2.0**r1 - 1.0, 2.0**r2 - 1.0
    a1, a2, c = b1 / s, b2 / s, (2.0 ** (r1 + r2) - 1.0) / s

    def decodable_alone_other_not(vi, vj, bi, aj):
        # int_0^aj exp(-y/vj)/vj * P(g_i >= bi (1/s + y)) dy
        lam = 1.0 / vj + bi / vi
        return math.exp(-bi / (s * vi)) * -math.expm1(-aj * lam) / (vj * lam)

    # int_a1^inf exp(-x/v1)/v1 * P(g2 >= max(a2, c - x)) dx, split at c - a2
    x0 = c - a2
    p_ok = math.exp(-max(a1, x0) / v1 - a2 / v2)
    if a1 < x0:
        mu = 1.0 / v2 - 1.0 / v1
        p_ok += math.exp(-c / v2) * (math.exp(mu * x0) - math.exp(mu * a1)) / (v1 * mu)
    return (
        decodable_alone_other_not(v2, v1, b2, a1),
        decodable_alone_other_not(v1, v2, b1, a2),
        1.0 - p_ok,
    )


def test_individual_outage_matches_the_mac_oracle():
    # a vanishing relay-destination link and a tiny index rate reduce gqf
    # and nonwz_cf (which then never recovers the index) to the two-slot
    # MAC, whose regions have exact probabilities; unequal gain means and
    # targets tell region 1 from region 2.  z = 2.99 is the two-sided 5 %
    # Bonferroni level over the 18 checks
    n, seed, z = 100_000, 12345, 2.99
    v1, v2, r1, r2 = 2.0, 0.5, 1.5, 0.75
    profile = FadingProfile(v1, v2, 1.0, 1.0, 1e-12)
    for scheme, ru in (("gqf", 1e-6), ("nonwz_cf", 1e-3)):
        for snr_db in (5.0, 10.0, 20.0):
            s = 10.0 ** (snr_db / 10.0)
            ind = individual_outage_mc(
                profile, PowerConfig.from_snr(s, 0.5), 0.5, RateTarget(r1, r2, ru), n, seed,
                scheme=scheme,
            )
            got = (ind.region_freqs[0], ind.region_freqs[1], ind.p_common)
            for name, p_hat, p in zip(("region 1", "region 2", "common"), got,
                                      _mac_region_probabilities(v1, v2, r1, r2, s)):
                assert abs(p_hat - p) <= z * math.sqrt(p * (1.0 - p) / n), (scheme, snr_db, name)


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


def _sweep_points(preset):
    cfg = experiments.preset_config(preset)
    profiles, powers = (list(c) for c in zip(*cfg.fading_points()))
    return cfg, profiles, powers


@pytest.mark.parametrize("preset", ["fig5", "fig8_hetero"])
def test_list_call_equals_the_one_point_calls(preset):
    # a sweep's points in one call give each point's own estimate; two
    # blocks per point, the last one short
    cfg, profiles, powers = _sweep_points(preset)
    n, seed = BLOCK_SIZE + 5, cfg.seed
    target = RateTarget(cfg.r1, cfg.r2, cfg.ru)
    for scheme in sorted(SCHEMES):
        assert common_outage_mc(scheme, profiles, powers, cfg.beta, target, n, seed) == [
            common_outage_mc(scheme, prof, pw, cfg.beta, target, n, seed)
            for prof, pw in zip(profiles, powers)
        ]
    for scheme in ("gqf", "nonwz_cf"):
        chosen = optimize_ru_grid(profiles, powers, cfg.beta, target, cfg.ru_grid, n, seed,
                                  scheme=scheme)
        assert chosen == [
            optimize_ru_grid(prof, pw, cfg.beta, target, cfg.ru_grid, n, seed, scheme=scheme)
            for prof, pw in zip(profiles, powers)
        ]
        # per-point targets: each point at its own index rate
        targets = [RateTarget(cfg.r1, cfg.r2, ru) for ru in cfg.ru_grid[: len(profiles)]]
        assert individual_outage_mc(profiles, powers, cfg.beta, targets, n, seed,
                                    scheme=scheme) == [
            individual_outage_mc(prof, pw, cfg.beta, t, n, seed, scheme=scheme)
            for prof, pw, t in zip(profiles, powers, targets)
        ]
    # a list of schemes, at one point and at every point, gives each
    # scheme's own call, with its own target in the individual case
    names, index_names = sorted(SCHEMES), ["nonwz_cf", "gqf", "gqf"]
    for points in ((profiles[0], powers[0]), (profiles, powers)):
        sweep = (*points, cfg.beta)
        assert common_outage_mc(names, *sweep, target, n, seed) == [
            common_outage_mc(name, *sweep, target, n, seed) for name in names]
        assert optimize_ru_grid(*sweep, target, cfg.ru_grid, n, seed, scheme=index_names) == [
            optimize_ru_grid(*sweep, target, cfg.ru_grid, n, seed, scheme=name)
            for name in index_names]
        if points[0] is profiles[0]:
            targets = [RateTarget(cfg.r1, cfg.r2, ru) for ru in (0.5, 3.0, 1.0)]
        else:
            targets = [[RateTarget(cfg.r1, cfg.r2, ru) for ru in cfg.ru_grid[k: k + len(profiles)]]
                       for k in range(3)]
        assert individual_outage_mc(*sweep, targets, n, seed, scheme=index_names) == [
            individual_outage_mc(*sweep, t, n, seed, scheme=name)
            for name, t in zip(index_names, targets)]


def test_list_call_checks_its_points(monkeypatch, tmp_path, capsys):
    _, profiles, powers = _sweep_points("fig5")
    huge = PowerConfig(1e308, 1e308, 1e308, 1e308, 1e308)
    bad = powers[:3] + [huge] + powers[4:]
    # an overflow at one point still makes the whole estimate an error, for
    # one scheme or a list of them
    for scheme in ("direct", ["direct", "df"]):
        with pytest.raises(FloatingPointError):
            common_outage_mc(scheme, profiles, bad, 0.5, TARGET, 100, 1)
    for scheme in ("gqf", ["gqf", "nonwz_cf"]):
        with pytest.raises(FloatingPointError):
            optimize_ru_grid(profiles, bad, 0.5, TARGET, [1.0, 3.0], 100, 1, scheme=scheme)
        targets = [TARGET] * len(bad)
        with pytest.raises(FloatingPointError):
            individual_outage_mc(profiles, bad, 0.5, targets if scheme == "gqf" else
                                 [targets, targets], 100, 1, scheme=scheme)
    # an overflow in one job of a pass over several schemes stops the pass,
    # and the CLI reports it in one line with exit code 1
    flags = outage.outage_flags

    def df_overflows(scheme, *args, **kwargs):
        if scheme == "df":
            np.float64(1e308) * 10.0
        return flags(scheme, *args, **kwargs)

    monkeypatch.setattr(outage, "outage_flags", df_overflows)
    with pytest.raises(FloatingPointError):
        common_outage_mc(["direct", "df", "af"], profiles, powers, 0.5, TARGET, 100, 1)
    out = tmp_path / "fig5.csv"
    assert cli.main(["preset", "fig5", "--samples", "100", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "numerical error: a kernel value leaves the float range (overflow " \
        "encountered in scalar multiply)\n"
    assert not out.exists()
    for args in ((profiles, powers[:-1]), (profiles, powers[0]), (PROFILE, powers)):
        with pytest.raises(ValueError, match="per-point argument"):
            common_outage_mc("direct", *args, 0.5, TARGET, 100, 1)
    with pytest.raises(ValueError, match="per-point argument"):
        individual_outage_mc(profiles, powers, 0.5, TARGET, 100, 1)


def test_a_list_of_schemes_is_checked_before_the_first_draw(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("a rejected call drew fading samples")

    monkeypatch.setattr("marcsim.channel._substream", no_draws)
    monkeypatch.setattr("marcsim.outage.sample_fading_block", no_draws)
    pw = snr_power(10.0)
    # the last name of each list is the one rejected
    with pytest.raises(ValueError, match="unknown scheme 'qqf'"):
        common_outage_mc(["gqf", "direct", "qqf"], PROFILE, pw, 0.5, TARGET, 100, 1)
    with pytest.raises(ValueError, match="no relay index rate"):
        optimize_ru_grid(PROFILE, pw, 0.5, TARGET, [1.0], 100, 1, scheme=["gqf", "df"])
    with pytest.raises(ValueError, match="no relay index rate"):
        individual_outage_mc(PROFILE, pw, 0.5, [TARGET] * 2, 100, 1, scheme=["gqf", "af"])
    # an empty list, or a target list not of one entry per scheme
    with pytest.raises(ValueError, match="non-empty list"):
        common_outage_mc([], PROFILE, pw, 0.5, TARGET, 100, 1)
    with pytest.raises(ValueError, match="non-empty list"):
        optimize_ru_grid(PROFILE, pw, 0.5, TARGET, [1.0], 100, 1, scheme=[])
    for target in ([TARGET], [TARGET] * 3, TARGET, (TARGET, TARGET)):
        with pytest.raises(ValueError, match="one entry per name"):
            individual_outage_mc(PROFILE, pw, 0.5, target, 100, 1, scheme=["gqf", "nonwz_cf"])
    # a target without a valid relay index rate: the second per-scheme
    # entry, the second per-point target, and the one target of one point
    no_ru = RateTarget(1.0, 1.0, 0.0)
    for sweep, target, scheme in (((PROFILE, pw), [TARGET, no_ru], ["gqf", "gqf"]),
                                  (([PROFILE] * 2, [pw] * 2), [TARGET, no_ru], "gqf"),
                                  ((PROFILE, pw), no_ru, "gqf")):
        with pytest.raises(ValueError, match="relay index rate ru must be finite and > 0"):
            individual_outage_mc(*sweep, 0.5, target, 100, 1, scheme=scheme)


def test_unknown_scheme_and_missing_ru():
    with pytest.raises(ValueError):
        common_outage_mc("qqf", PROFILE, snr_power(10.0), 0.5, TARGET, 100, 1)
    with pytest.raises(ValueError):
        common_outage_mc(
            "gqf", PROFILE, snr_power(10.0), 0.5, RateTarget(1.0, 1.0), 100, 1
        )


def test_sample_count_is_an_integer():
    # a float or bool count is not rounded or read as 1: it is a ValueError
    # naming the argument, at every entry point of the sample-count rule
    pw = snr_power(10.0)
    for n in (100.5, 100.0, True, math.nan, 0, -3):
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            common_outage_mc("direct", PROFILE, pw, 0.5, TARGET, n, 1)
        with pytest.raises(ValueError, match="n_samples must be an integer >= 1"):
            OutageEstimate(0.1, n, 1, 0.1)
        with pytest.raises(ValueError, match="n_samples must be an integer >= 1"):
            IndividualOutageEstimate(0.1, 0.1, 0.1, (0.1, 0, 0, 0.9), n, 1)
    assert common_outage_mc("direct", PROFILE, pw, 0.5, TARGET, np.int64(100), 1) == (
        common_outage_mc("direct", PROFILE, pw, 0.5, TARGET, 100, 1))


def test_estimates_check_their_probabilities():
    for p in (-0.1, 1.5, math.nan):
        with pytest.raises(ValueError, match="p_hat must lie in"):
            OutageEstimate(p, 10, 1, 0.1)
        for i, name in enumerate(("p_indiv1", "p_indiv2", "p_common")):
            ps = [0.1, 0.1, 0.1]
            ps[i] = p
            with pytest.raises(ValueError, match=f"{name} must lie in"):
                IndividualOutageEstimate(*ps, (0.1, 0, 0, 0.9), 10, 1)
        with pytest.raises(ValueError, match="each region frequency must lie in"):
            IndividualOutageEstimate(0.1, 0.1, 0.1, (0.1, 0, p, 0.9), 10, 1)
    IndividualOutageEstimate(0.0, 1.0, 1.0, (0.0, 1.0, 0.0, 0.0), 1, 0)


def test_individual_outage_bit_identical_across_runs():
    pw = snr_power(10.0)
    a = individual_outage_mc(PROFILE, pw, 0.5, TARGET, 20_000, 2)
    b = individual_outage_mc(PROFILE, pw, 0.5, TARGET, 20_000, 2)
    assert a == b


# per-state region of every table scheme from the covariance engine (see
# engine_regions), so every entry is checked against code it shares no
# bound with
SCALAR_REGION = {
    "gqf": engine_regions.gqf,
    "csit": engine_regions.csit,
    "nonwz_cf": engine_regions.nonwz_cf,
    "df": engine_regions.df,
    "af": engine_regions.af,
    "direct": engine_regions.direct,
    "direct15": engine_regions.direct15,
}


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_scheme_table_matches_scalar_api(scheme):
    assert set(SCALAR_REGION) == set(SCHEMES)
    pw = snr_power(10.0)
    target = RateTarget(1.25, 0.75, 2.0)  # asymmetric, so swapped users show
    h = draw_states(PROFILE, 300, 8)
    flags = outage_flags(scheme, h, pw, 0.5, target)
    assert 0 < flags.sum() < len(h)
    for row, flag in zip(h, flags):
        state = ChannelState(*row, mode=FADING)
        reg = SCALAR_REGION[scheme](state, pw, 0.5, target)
        assert bool(flag) == (not reg.contains(target.r1, target.r2))
        got = region(scheme, state, pw, 0.5, target)
        for a, b in ((got.i1, reg.i1), (got.i2, reg.i2), (got.isum, reg.isum)):
            assert a == pytest.approx(b, abs=1e-9)


def test_scheme_table_rules():
    pw = snr_power(10.0)
    h = draw_states(PROFILE, 10, 1)
    with pytest.raises(ValueError, match="needs beta = 0.5"):
        outage_flags("af", h, pw, 0.4, TARGET)
    for name, scheme in SCHEMES.items():
        if scheme.recover is None:
            outage_flags(name, h, pw, 0.5, RateTarget(1.0, 1.0))  # no index rate needed
            with pytest.raises(ValueError):
                classify_region_batch(h, pw, 0.5, TARGET, name)
            with pytest.raises(ValueError, match="no relay index rate"):
                optimize_ru_grid(PROFILE, pw, 0.5, TARGET, (1.0, 2.0), 10, 1, scheme=name)
        else:
            with pytest.raises(ValueError):
                outage_flags(name, h, pw, 0.5, RateTarget(1.0, 1.0))
    # an "<name>_opt" series exists exactly for the schemes with an index rate
    optimized = {SCHEME_TOKENS[t][0] for t in SCHEME_TOKENS if t.endswith("_opt")}
    assert optimized == {name for name, s in SCHEMES.items() if s.recover is not None}
    assert optimized == {"gqf", "nonwz_cf"}
    assert all(SCHEME_TOKENS[f"{name}_opt"] == (name, True) for name in optimized)


@pytest.mark.parametrize("name", ["gqf", "nonwz_cf"])
def test_scheme_behaviour_comes_from_its_entry_not_its_name(monkeypatch, name):
    # a copy of a table entry under a new name must give the original's
    # flags, curve flags, region codes and grid choice, bit for bit
    copy = "renamed_" + name
    monkeypatch.setitem(SCHEMES, copy, dataclasses.replace(SCHEMES[name]))
    pw = snr_power(10.0)
    grid = (0.25, 1.0, 3.0, 6.0)
    for sigma_rd2 in (0.01, 10.0):
        prof = FadingProfile(1.0, 1.0, 1.0, 1.0, sigma_rd2)
        h = sample_fading_block(prof, 12345, 0)[:1024]
        for r1, r2 in ((1.0, 1.0), (1.5, 0.75)):
            curves = [_IndexRateCurve(s, h, pw, 0.5, r1, r2) for s in (name, copy)]
            for ru in grid:
                t = RateTarget(r1, r2, ru)
                flags = [outage_flags(s, h, pw, 0.5, t) for s in (name, copy)]
                assert np.array_equal(*flags)
                assert 0 < flags[0].sum() < len(h)
                assert np.array_equal(*(outage_flags(s, h, pw, 0.5, t, curve=c)
                                        for s, c in zip((name, copy), curves)))
                assert np.array_equal(*(classify_region_batch(h, pw, 0.5, t, s)
                                        for s in (name, copy)))
            assert optimize_ru_grid(prof, pw, 0.5, RateTarget(r1, r2, 3.0), grid, 1500, 7,
                                    scheme=name) == optimize_ru_grid(
                prof, pw, 0.5, RateTarget(r1, r2, 3.0), grid, 1500, 7, scheme=copy)


@pytest.mark.parametrize("scheme", ["gqf", "nonwz_cf"])
@pytest.mark.parametrize("sigma_rd2", [0.001, 1.0, 100.0])
def test_curve_gives_the_exact_flags_and_estimates(scheme, sigma_rd2):
    # fig8 sweep points: 10 dB, unit source links, relay-destination
    # variance sigma_rd2 (index recovered almost never at 0.001, often at 100)
    grid = (0.1, 0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0)
    prof = FadingProfile(1.0, 1.0, 1.0, 1.0, sigma_rd2)
    pw = PowerConfig.from_snr_db(10.0, 0.5)
    n, seed = BLOCK_SIZE + 5, 12345
    h = sample_fading_block(prof, seed, 0)
    curve = _IndexRateCurve(scheme, h, pw, 0.5, 1.0, 1.0)
    for ru in grid:
        t = RateTarget(1.0, 1.0, ru)
        assert np.array_equal(
            outage_flags(scheme, h, pw, 0.5, t, curve=curve), outage_flags(scheme, h, pw, 0.5, t)
        )
    if scheme == "nonwz_cf":
        recovered = [rates._recovered(curve.block.terms, ru).mean() for ru in grid]
        assert (max(recovered) < 0.01) if sigma_rd2 == 0.001 else (max(recovered) > 0.5)
    ru_star, est = optimize_ru_grid(prof, pw, 0.5, RateTarget(1.0, 1.0, 3.0), grid, n, seed,
                                    scheme=scheme)
    per_ru = [common_outage_mc(scheme, prof, pw, 0.5, RateTarget(1.0, 1.0, ru), n, seed)
              for ru in grid]
    assert est == per_ru[grid.index(ru_star)]
    assert all(e.p_hat >= est.p_hat for e in per_ru)


def test_curve_must_match_the_call():
    pw = snr_power(10.0)
    h = draw_states(PROFILE, 50, 3)
    curve = _IndexRateCurve("gqf", h, pw, 0.5, TARGET.r1, TARGET.r2)
    assert np.array_equal(outage_flags("gqf", h, pw, 0.5, TARGET, curve=curve),
                          outage_flags("gqf", h, pw, 0.5, TARGET))
    for args in (
        ("nonwz_cf", h, pw, 0.5, TARGET),
        ("gqf", h.copy(), pw, 0.5, TARGET),
        ("gqf", h, snr_power(20.0), 0.5, TARGET),
        ("gqf", h, pw, 0.4, TARGET),
        ("gqf", h, pw, 0.5, RateTarget(TARGET.r1, 0.5, TARGET.ru)),  # another (r1, r2)
    ):
        with pytest.raises(ValueError, match="other arguments"):
            outage_flags(*args, curve=curve)


CURVE_RU = (1e-300, 1e-6, 0.1, 0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 20.0, 40.0, 60.0,
            2000.0)


@pytest.mark.parametrize("scheme", ["gqf", "nonwz_cf"])
@pytest.mark.parametrize("beta", [0.2, 0.5, 0.8, 1e-13, 1e-300])
def test_curve_flags_equal_exact_flags(scheme, beta):
    # the outage curve of a block for one rate pair must give
    # the exact per-target flags at every index rate: the fig8 ru_grid, the
    # subnormal-like and huge rates whose quantizer variance over- or
    # underflows, and 20, 40 and 60, where the quantizer variance is far
    # below 1e-6 (down to about 1e-36); one target has a zero rate.  At
    # beta 1e-13 and 1e-300 the guard band shifted by 1/beta leaves the
    # float range.  One block holds a NaN draw and in another only hrd is
    # NaN on every 7th draw; either sends the whole block to the exact
    # kernel, which reads the NaN bounds as outage
    for snr_db in (0.0, 10.0, 30.0):
        pw = PowerConfig.from_snr_db(snr_db, beta)
        for sigma_rd2 in (0.001, 1.0, 100.0):
            h = sample_fading_block(FadingProfile(1.0, 1.0, 1.0, 1.0, sigma_rd2), 12345, 0)[:1024].copy()
            if sigma_rd2 == 100.0:
                h[7] = np.nan
            if sigma_rd2 == 1.0:
                h[::7, 4] = np.nan
            for r1, r2 in ((1.0, 1.0), (0.0, 1.5), (2.0, 0.5)):
                curve = _IndexRateCurve(scheme, h, pw, beta, r1, r2)
                for ru in CURVE_RU:
                    t = RateTarget(r1, r2, ru)
                    assert np.array_equal(outage_flags(scheme, h, pw, beta, t, curve=curve),
                                          outage_flags(scheme, h, pw, beta, t)), (snr_db, sigma_rd2, t)


BOUNDARY_CASES = pytest.mark.parametrize(
    "scheme, snr_db, sigma_rd2, ru",
    [("gqf", 10.0, 100.0, 1.0), ("nonwz_cf", 10.0, 100.0, 1.0), ("gqf", 30.0, 1e4, 20.0)],
)


@BOUNDARY_CASES
def test_curve_settles_boundary_draws_with_the_exact_kernel(scheme, snr_db, sigma_rd2, ru):
    # r1 at a draw's exact user-1 bound (no outage: equality is inside) and
    # one ulp above it (outage) puts that draw inside the guard band, so the
    # curve must hand the whole block to the exact kernel; at half that
    # bound no draw is in the band and the curve settles the block itself.
    # r2 = 0 leaves user 1's bounds and a looser sum bound.  For nonwz_cf
    # the draws recover the index, so their bound is the ru-dependent one.
    # At ru = 20 the quantizer variance is about 1e-9, so the band must
    # also hold for tiny variances
    pw = snr_power(snr_db)
    h = sample_fading_block(FadingProfile(1.0, 1.0, 1.0, 1.0, sigma_rd2), 12345, 0)[:512]
    b = rates._block(SCHEMES[scheme], rates._columns(h), pw, 0.5)
    i1, _, isum = SCHEMES[scheme].bounds(b, RateTarget(1.0, 1.0, ru))
    ok = (i1 > 0.0) & (i1 < isum)
    if scheme == "nonwz_cf":
        ok &= b.terms[2] >= ru  # the block's index-recovery rate
    draws = np.flatnonzero(ok)[:8]
    assert draws.size == 8
    for j in draws:
        for r1, in_outage, settled in ((float(i1[j]), False, False),
                                       (float(np.nextafter(i1[j], np.inf)), True, False),
                                       (float(i1[j]) / 2.0, False, True)):
            t = RateTarget(r1, 0.0, ru)
            curve = _IndexRateCurve(scheme, h, pw, 0.5, r1, 0.0)
            assert (curve.split(ru) is not None) == settled
            flags = outage_flags(scheme, h, pw, 0.5, t, curve=curve)
            assert flags[j] == in_outage
            assert np.array_equal(flags, outage_flags(scheme, h, pw, 0.5, t))
    with pytest.raises(ValueError, match="other arguments"):
        outage_flags(scheme, h, pw, 0.5, RateTarget(1.0, 1.0, ru), curve=curve)


@BOUNDARY_CASES
def test_curve_settles_a_block_with_a_nan_draw_with_the_exact_kernel(scheme, snr_db,
                                                                      sigma_rd2, ru):
    # one NaN draw sends the whole block to the exact kernel, which reads
    # that draw as outage
    pw = snr_power(snr_db)
    h = sample_fading_block(FadingProfile(1.0, 1.0, 1.0, 1.0, sigma_rd2), 12345, 0)[:512].copy()
    h[-1] = np.nan
    for r1 in (0.5, 1.0, 2.0):
        t = RateTarget(r1, 0.0, ru)
        curve = _IndexRateCurve(scheme, h, pw, 0.5, r1, 0.0)
        assert curve.split(ru) is None
        flags = outage_flags(scheme, h, pw, 0.5, t, curve=curve)
        assert flags[-1] and np.array_equal(flags, outage_flags(scheme, h, pw, 0.5, t))


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_a_nan_draw_is_in_outage(scheme):
    # a NaN bound meets no rate: the NaN row reads outage under every
    # scheme, the finite rows keep their flags, and an index-rate scheme's
    # curve gives the same flags as its exact bounds and its classifier
    # puts the row in region 3
    pw = snr_power(10.0)
    h = sample_fading_block(PROFILE, 12345, 0)[:256]
    with_nan = h.copy()
    with_nan[100] = np.nan
    for r1, r2 in ((1.0, 1.0), (0.0, 1.5)):
        t = RateTarget(r1, r2, 1.0)
        flags = outage_flags(scheme, with_nan, pw, 0.5, t)
        assert flags[100]
        assert np.array_equal(np.delete(flags, 100),
                              np.delete(outage_flags(scheme, h, pw, 0.5, t), 100))
        if SCHEMES[scheme].recover is not None:
            curve = _IndexRateCurve(scheme, with_nan, pw, 0.5, r1, r2)
            assert np.array_equal(outage_flags(scheme, with_nan, pw, 0.5, t, curve=curve), flags)
            assert classify_region_batch(with_nan, pw, 0.5, t, scheme)[100] == 3


@pytest.mark.parametrize("preset", ["fig6", "fig7", "fig8", "fig8_hetero"])
def test_curve_settles_every_preset_block_itself(preset):
    # the first two blocks of every point of the presets that optimize the
    # index rate hold no draw in the guard band at any default ru_grid
    # entry, so the curve never hands them to the exact kernel
    cfg = experiments.preset_config(preset)
    for profile, power in cfg.fading_points():
        for b in (0, 1):
            h = sample_fading_block(profile, 12345, b)
            for scheme in ("gqf", "nonwz_cf"):
                curve = _IndexRateCurve(scheme, h, power, cfg.beta, cfg.r1, cfg.r2)
                for ru in cfg.ru_grid:
                    assert curve.split(ru) is not None, (profile, power, b, scheme, ru)


def test_outage_module_computes_no_rate():
    # every rate expression lives in marcsim.rates; the Monte Carlo layer
    # only compares the kernels' values with the targets, and the model,
    # config, runner and CLI compute none
    for module in (outage, channel, config, experiments, cli):
        source = Path(module.__file__).read_text()
        assert re.findall(r"\b(?:log2|exp2|log1p|expm1)\b", source) == [], module.__name__


def test_region_classifier_is_scheme_blind():
    # the single-user rule (the chain rule over the min-terms, in
    # rates._index_regions) and the index-recovery rule (rates._recovered)
    # live in rates; the classifier and the curve read neither the number
    # of min-terms, the link powers nor the recovery rate
    source = Path(outage.__file__).read_text()
    for text in ("recovered is None", "len(terms", "_links", ".index_rate"):
        assert text not in source, text
    hits = [(path.name, line) for path in Path(rates.__file__).parent.glob("*.py")
            for line in path.read_text().splitlines() if "index_rate >= ru" in line]
    assert len(hits) == 1 and hits[0][0] == "rates.py", hits
    assert "index_rate >= ru" in inspect.getsource(rates._recovered)


def test_only_links_reads_the_gains():
    # every bound is a function of the link powers: the one function of
    # rates that names a gain column or takes a complex conjugate is _links
    gains = {"h1d", "h2d", "h1r", "h2r", "hrd", "conj"}
    readers = {
        fn.name for fn in ast.walk(ast.parse(Path(rates.__file__).read_text()))
        if isinstance(fn, ast.FunctionDef)
        and any(getattr(n, "id", getattr(n, "attr", None)) in gains for n in ast.walk(fn))
    }
    assert readers == {"_links"}, readers
    assert rates._Block._fields == ("L", "beta", "terms")


def test_index_rate_block_is_read_in_rates_only():
    # the outage curve over ru and the region masks live in rates, beside
    # the block they read; the Monte Carlo layer draws, calls the scheme
    # table and counts, and the curve's exact path is the kernel itself
    source = Path(outage.__file__).read_text()
    for text in ("rates._", ".terms", "_GUARD", "_index_denom", "_index_intervals", "_recovered"):
        assert text not in source, text
    counts = {path.name: path.read_text().count("_mins(_index_terms(")
              for path in Path(rates.__file__).parent.glob("*.py")}
    assert {name: n for name, n in counts.items() if n} == {"rates.py": 1}, counts


def _interference_terms_reference(h, pw, beta, ru):
    """Single-user bounds with the other source treated as noise, from the
    complex gains by 2x2 determinants: (w1a, w1b, w2a, w2b), plain and
    index-charged (index rate ``ru`` spent exactly).  Where the determinants
    overflow (sigma_q2 = inf or near it), both ratios of user i take their
    limit v_yd1 / (1 + a_j)."""
    h1d, h2d, h1r, h2r, hrd = rates._columns(h)
    a1, a2, c1, c2, d1, d2, e, _ = rates._links((h1d, h2d, h1r, h2r, hrd), pw)
    sigma_q2 = rates._quantizer_variance(c1 + c2, beta, ru)
    v_yd1 = 1.0 + a1 + a2
    v_yhr = 1.0 + c1 + c2 + sigma_q2
    rho1 = h1d * np.conj(h1r) * pw.p11
    rho2 = h2d * np.conj(h2r) * pw.p21
    rho = rho1 + rho2
    with np.errstate(over="ignore", invalid="ignore"):
        det_full = v_yd1 * v_yhr - np.abs(rho) ** 2
        det_wo1 = (1.0 + a2) * (1.0 + c2 + sigma_q2) - np.abs(rho2) ** 2
        det_wo2 = (1.0 + a1) * (1.0 + c1 + sigma_q2) - np.abs(rho1) ** 2
        q1 = (det_full / det_wo1, v_yd1 * v_yhr / det_wo1)
        q2 = (det_full / det_wo2, v_yd1 * v_yhr / det_wo2)
    lim = np.isinf(det_full)
    q1 = [np.where(lim, v_yd1 / (1.0 + a2), q) for q in q1]
    q2 = [np.where(lim, v_yd1 / (1.0 + a1), q) for q in q2]
    mb = 1.0 - beta
    w1a = beta * np.log2(q1[0]) + mb * np.log2((1.0 + d1 + d2) / (1.0 + d2))
    w1b = beta * np.log2(q1[1]) + mb * np.log2((1.0 + d1 + d2 + e) / (1.0 + d2)) - ru
    w2a = beta * np.log2(q2[0]) + mb * np.log2((1.0 + d1 + d2) / (1.0 + d1))
    w2b = beta * np.log2(q2[1]) + mb * np.log2((1.0 + d1 + d2 + e) / (1.0 + d1)) - ru
    return w1a, w1b, w2a, w2b


def _codes_by_determinants(scheme, h, pw, beta, target):
    """Region codes with the single-user bounds taken from the determinant
    form (``_interference_terms_reference``) on every draw, not by the
    chain rule from the min-terms."""
    b = rates._block(SCHEMES[scheme], rates._columns(h), pw, beta)
    r1, r2, ru = target.r1, target.r2, target.ru
    clamp = lambda x: np.maximum(x, 0.0)
    terms = rates._index_terms(b.terms, beta, ru)
    recovered = rates._recovered(b.terms, ru)
    w1a, w1b, w2a, w2b = _interference_terms_reference(h, pw, beta, ru)
    if scheme == "gqf":
        assert recovered is None
        (t1a, t1b), (t2a, t2b), (tsa, tsb) = terms
        reg2 = (r1 <= clamp(w1a)) & (r1 <= clamp(w1b)) & (r2 > clamp(t2a)) & (r2 > clamp(t2b))
        reg1 = (r2 <= clamp(w2a)) & (r2 <= clamp(w2b)) & (r1 > clamp(t1a)) & (r1 > clamp(t1b))
        i1, i2, isum = np.minimum(t1a, t1b), np.minimum(t2a, t2b), np.minimum(tsa, tsb)
    else:
        (i1,), (i2,), (isum,) = terms
        a1, a2, _, _, d1, d2, e, _ = b.L
        v_yd1 = 1.0 + a1 + a2
        mb = 1.0 - beta
        f1 = beta * np.log2(v_yd1 / (1.0 + a2)) + mb * np.log2(1.0 + d1 / (1.0 + d2 + e))
        f2 = beta * np.log2(v_yd1 / (1.0 + a1)) + mb * np.log2(1.0 + d2 / (1.0 + d1 + e))
        reg2 = (r1 <= clamp(np.where(recovered, w1a, f1))) & (r2 > clamp(i2))
        reg1 = (r2 <= clamp(np.where(recovered, w2a, f2))) & (r1 > clamp(i1))
    common = (r1 > clamp(i1)) | (r2 > clamp(i2)) | (r1 + r2 > clamp(isum))
    codes = np.full(len(h), 4, dtype=np.int8)
    codes[common] = 3
    codes[reg1] = 1
    codes[reg2] = 2
    return codes


@pytest.mark.parametrize("scheme", ["gqf", "nonwz_cf"])
def test_chain_rule_classification_equals_determinant_form(scheme):
    # the classifier reads each single-user bound off the min-terms by the
    # chain rule; the codes equal those of the determinant form of the
    # complex gains at fig8 points (10 dB, the sigma_rd2 grid), symmetric
    # and asymmetric targets, ru over the grid and at 1e-320 and 30, where
    # the determinants reach their limit
    pw = snr_power(10.0)
    seen = set()
    for sigma_rd2 in (0.001, 0.01, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0):
        h = sample_fading_block(FadingProfile(1.0, 1.0, 1.0, 1.0, sigma_rd2), 12345, 0)[:2048]
        for r1, r2 in ((1.0, 1.0), (1.5, 0.75), (0.5, 2.0)):
            for ru in (1e-320, 0.5, 1.5, 3.0, 6.0, 30.0):
                t = RateTarget(r1, r2, ru)
                codes = classify_region_batch(h, pw, 0.5, t, scheme)
                assert np.array_equal(codes, _codes_by_determinants(scheme, h, pw, 0.5, t)), (
                    sigma_rd2, t)
                seen.update(codes.tolist())
    assert seen == {1, 2, 3, 4}
