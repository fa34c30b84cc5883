"""Tests of channel states, fading draws and slot-system construction."""

import math

import numpy as np
import pytest

from marcsim import (
    ChannelState,
    FadingProfile,
    PowerConfig,
    draw_states,
    mutual_info_gaussian,
    ru_for_sigma_q2,
    sample_fading_block,
    sigma_q2_for_fixed_ru,
    slot1_system,
    slot2_system,
    substream,
)
from marcsim.rates import quantizer_index_rate

FIG3_STATE = ChannelState(1.0, 1.0, 3.0, 0.5, 3.0)
UNIT_POWER = PowerConfig(1.0, 1.0, 1.0, 1.0, 1.0)


def test_state_validation():
    with pytest.raises(ValueError):
        ChannelState(1.0, 1.0, 1.0, 1.0, float("nan"))
    with pytest.raises(ValueError):
        ChannelState(1.0 + 2.0j, 1.0, 1.0, 1.0, 1.0, mode="static")
    ChannelState(1.0 + 2.0j, 1.0, 1.0, 1.0, 1.0, mode="fading")  # complex ok
    with pytest.raises(ValueError):
        ChannelState(1.0, 1.0, 1.0, 1.0, 1.0, mode="slowly-varying")


def test_power_and_profile_validation():
    with pytest.raises(ValueError):
        PowerConfig(-1.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        FadingProfile(1.0, 1.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        sigma_q2_for_fixed_ru(FIG3_STATE, UNIT_POWER, 1.0, 1.0)


def test_fixed_ru_variance_beyond_float_range():
    # static mode inverts 2^(2 ru / beta): 2^4000 overflows and gives the
    # limit of an exact description, 2^400 still a positive variance
    assert sigma_q2_for_fixed_ru(FIG3_STATE, UNIT_POWER, 0.5, 1000.0) == 0.0
    assert 0.0 < sigma_q2_for_fixed_ru(FIG3_STATE, UNIT_POWER, 0.5, 100.0) < 1e-110


def test_sampler_deterministic():
    prof = FadingProfile.uniform(1.0)
    a = sample_fading_block(prof, 42, 0, block_size=1)
    b = sample_fading_block(prof, 42, 0, block_size=1)
    assert np.array_equal(a, b)
    c = sample_fading_block(prof, 42, 1, block_size=1)
    assert not np.array_equal(a, c)


def test_sample_blocks_deterministic_and_scalar_consistent():
    prof = FadingProfile(1.0, 2.0, 0.5, 1.5, 3.0)
    blk = sample_fading_block(prof, 9, 4, block_size=8)
    blk2 = sample_fading_block(prof, 9, 4, block_size=8)
    assert np.array_equal(blk, blk2)
    # a single draw is the one-row block: five real parts, then five
    # imaginary parts of the substream, each scaled to var/2
    one = sample_fading_block(prof, 9, 4, block_size=1)
    rng = substream(9, 4)
    re, im = rng.standard_normal(5), rng.standard_normal(5)
    std = np.sqrt(prof.as_array() / 2.0)
    assert one.shape == (1, 5)
    assert np.array_equal(one[0], (re + 1j * im) * std)


@pytest.mark.parametrize(
    "prof",
    [FadingProfile.uniform(1.0), FadingProfile(1.0, 2.0, 0.5, 1.5, 3.0),
     FadingProfile(1e-12, 7.0, 1.0, 1e-3, 100.0)],
)
def test_sample_block_is_bitwise_the_two_call_expression(prof):
    # reference: the real parts drawn in one call, the imaginary parts in a
    # second call, combined as (re + 1j*im) * std
    std = np.sqrt(prof.as_array() / 2.0)
    for seed, index, size in ((0, 0, 4096), (12345, 3, 4096), (2**63 + 5, 17, 7), (9, 1, 1)):
        rng = substream(seed, index)
        re = rng.standard_normal((size, 5))
        im = rng.standard_normal((size, 5))
        ref = (re + 1j * im) * std
        blk = sample_fading_block(prof, seed, index, block_size=size)
        assert blk.shape == ref.shape and blk.dtype == ref.dtype
        assert np.array_equal(blk.view(np.uint64), ref.view(np.uint64))


def test_fading_moments():
    # E|h|^2 must match the profile variance within 1% at a million draws
    prof = FadingProfile(1.0, 2.0, 0.5, 1.5, 3.0)
    h = draw_states(prof, 1_000_000, 123)
    mean_sq = (np.abs(h) ** 2).mean(axis=0)
    assert np.all(np.abs(mean_sq / prof.as_array() - 1.0) < 0.01)
    # independent real/imag parts, each var/2
    assert abs((h[:, 0].real ** 2).mean() - 0.5) < 0.01
    assert abs((h[:, 0].real * h[:, 0].imag).mean()) < 0.01


def test_relay_cut_off_limit():
    prof = FadingProfile(1.0, 1.0, 1.0, 1.0, 1e-18)
    h = sample_fading_block(prof, 0, 0, block_size=1)
    assert abs(h[0, 4]) < 1e-6


def test_slot1_covariance_values():
    sys1 = slot1_system(FIG3_STATE, UNIT_POWER, 2.0)
    i = sys1.labels.index("YR")
    assert float(sys1.covariance[i, i]) == pytest.approx(10.25, abs=1e-12)
    j = sys1.labels.index("YhR")
    assert float(sys1.covariance[j, j]) == pytest.approx(12.25, abs=1e-12)
    assert sys1.field_kind == "real"


def test_slot2_covariance_values():
    sys2 = slot2_system(FIG3_STATE, UNIT_POWER)
    i = sys2.labels.index("YD2")
    assert float(sys2.covariance[i, i]) == pytest.approx(12.0, abs=1e-12)
    assert mutual_info_gaussian(sys2, ("X12",), ("X22",)) < 1e-12


def test_slot2_silent_relay():
    power = PowerConfig(1.0, 1.0, 1.0, 1.0, 0.0)
    sys2 = slot2_system(FIG3_STATE, power)
    assert mutual_info_gaussian(sys2, ("XR",), ("YD2",)) == 0.0


def test_slot_systems_psd_random():
    rng = np.random.default_rng(5)
    for _ in range(50):
        g = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        st = ChannelState(*(complex(v) for v in g), mode="fading")
        pw = PowerConfig(*rng.uniform(0.0, 10.0, 5))
        s1 = slot1_system(st, pw, float(rng.uniform(0.01, 10.0)))
        s2 = slot2_system(st, pw)
        # construction validates Hermitian PSD; spot-check eigenvalues too
        assert np.linalg.eigvalsh(s1.covariance).min() > -1e-10
        assert np.linalg.eigvalsh(s2.covariance).min() > -1e-10


def test_slot1_infinite_sigma_drops_quantized_row():
    sys1 = slot1_system(FIG3_STATE, UNIT_POWER, math.inf)
    assert "YhR" not in sys1.labels
    with pytest.raises(ValueError):
        slot1_system(FIG3_STATE, UNIT_POWER, 0.0)


def test_sigma_for_fixed_ru_example():
    # unit received powers from both sources, beta=0.5, ru=3: 3 / (2^6 - 1)
    st = ChannelState(0.3, 0.9, 1.0, 1.0, 0.2, mode="fading")
    pw = UNIT_POWER
    s = sigma_q2_for_fixed_ru(st, pw, 0.5, 3.0)
    assert s == pytest.approx(3.0 / 63.0, rel=1e-12)


def test_sigma_for_fixed_ru_round_trip():
    st = ChannelState(0.3, 0.9, 1.3, 0.4, 0.2, mode="fading")
    pw = PowerConfig(2.0, 3.0, 1.0, 1.0, 5.0)
    for ru in (0.3, 1.0, 3.0, 7.5):
        s = sigma_q2_for_fixed_ru(st, pw, 0.4, ru)
        assert ru_for_sigma_q2(st, pw, 0.4, s) == pytest.approx(ru, abs=1e-12)
        # and the covariance engine agrees on the index rate it implies
        assert quantizer_index_rate(st, pw, 0.4, s) == pytest.approx(ru, abs=1e-9)


def test_sigma_for_fixed_ru_static_round_trip():
    st = ChannelState(0.3, 0.9, 1.3, 0.4, 0.2)
    pw = PowerConfig(2.0, 3.0, 1.0, 1.0, 5.0)
    s = sigma_q2_for_fixed_ru(st, pw, 0.5, 2.0)
    assert ru_for_sigma_q2(st, pw, 0.5, s) == pytest.approx(2.0, abs=1e-12)
    assert quantizer_index_rate(st, pw, 0.5, s) == pytest.approx(2.0, abs=1e-9)


def test_sigma_for_fixed_ru_limits_and_monotonicity():
    st = ChannelState(0.3, 0.9, 1.0, 1.0, 0.2, mode="fading")
    assert sigma_q2_for_fixed_ru(st, UNIT_POWER, 0.5, 60.0) < 1e-15
    rus = [0.5, 1.0, 2.0, 4.0]
    vals = [sigma_q2_for_fixed_ru(st, UNIT_POWER, 0.5, r) for r in rus]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    # stronger source-relay links need a coarser quantizer at equal ru
    stronger = ChannelState(0.3, 0.9, 2.0, 1.0, 0.2, mode="fading")
    assert sigma_q2_for_fixed_ru(stronger, UNIT_POWER, 0.5, 3.0) > sigma_q2_for_fixed_ru(
        st, UNIT_POWER, 0.5, 3.0
    )
    for ru in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="relay index rate ru must be finite and > 0"):
            sigma_q2_for_fixed_ru(st, UNIT_POWER, 0.5, ru)


def test_sigma_for_fixed_ru_reads_relay_side_only():
    pw = PowerConfig(2.0, 3.0, 1.0, 1.0, 5.0)
    a = ChannelState(0.1, 0.2, 1.3, 0.4, 0.5, mode="fading")
    b = ChannelState(9.0, 7.0, 1.3, 0.4, 3.0, mode="fading")  # same relay links
    assert sigma_q2_for_fixed_ru(a, pw, 0.5, 3.0) == sigma_q2_for_fixed_ru(b, pw, 0.5, 3.0)


def test_substream_validation():
    with pytest.raises(ValueError):
        substream(-1, 0)
    with pytest.raises(ValueError):
        substream(0, 2**64)
    # a seed is an integer: a float is not truncated into another stream
    for seed in (12345.7, 12345.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="seed must fit in an unsigned 64-bit integer"):
            substream(seed, 0)
    assert np.array_equal(substream(np.uint64(7), np.int64(2)).standard_normal(3),
                          substream(7, 2).standard_normal(3))
