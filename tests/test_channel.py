"""Tests of channel states, fading draws and slot-system construction."""

import math

import numpy as np
import pytest

from marcsim import (
    BLOCK_SIZE,
    ChannelState,
    FadingProfile,
    GaussianFamily,
    PowerConfig,
    RateTarget,
    common_outage_mc,
    mutual_info_gaussian,
    quantizer_index_rate,
    sample_fading_block,
    sigma_q2_for_fixed_ru,
)
from reference_draws import BLOCK_SIZE as REFERENCE_BLOCK_SIZE
from reference_draws import draw_states, stream

FIG3_STATE = ChannelState(1.0, 1.0, 3.0, 0.5, 3.0)
UNIT_POWER = PowerConfig(1.0, 1.0, 1.0, 1.0, 1.0)


def slot1(state, power, sigma_q2):
    return GaussianFamily(state, power, sigma_q2).slot1


def slot2(state, power):
    # the cooperate slot does not depend on the quantizer variance
    return GaussianFamily(state, power, 1.0).slot2


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
    rng = stream(9, 4)
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
        rng = stream(seed, index)
        re = rng.standard_normal((size, 5))
        im = rng.standard_normal((size, 5))
        ref = (re + 1j * im) * std
        blk = sample_fading_block(prof, seed, index, block_size=size)
        assert blk.shape == ref.shape and blk.dtype == ref.dtype
        assert np.array_equal(blk.view(np.uint64), ref.view(np.uint64))


def test_reference_draws_are_the_sampler_blocks():
    # the tests' reference sampler and the library's blocks agree to the
    # last bit across a block boundary
    prof = FadingProfile(1.0, 2.0, 0.5, 1.5, 3.0)
    n = BLOCK_SIZE + 5
    assert REFERENCE_BLOCK_SIZE == BLOCK_SIZE
    blocks = np.concatenate([sample_fading_block(prof, 21, b) for b in (0, 1)])[:n]
    ref = draw_states(prof, n, 21)
    assert ref.shape == blocks.shape == (n, 5) and ref.dtype == blocks.dtype
    assert np.array_equal(ref.view(np.uint64), blocks.view(np.uint64))


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
    sys1 = slot1(FIG3_STATE, UNIT_POWER, 2.0)
    i = sys1.labels.index("YR")
    assert float(sys1.covariance[i, i]) == pytest.approx(10.25, abs=1e-12)
    j = sys1.labels.index("YhR")
    assert float(sys1.covariance[j, j]) == pytest.approx(12.25, abs=1e-12)
    assert sys1.field_kind == "real"


def test_slot2_covariance_values():
    sys2 = slot2(FIG3_STATE, UNIT_POWER)
    i = sys2.labels.index("YD2")
    assert float(sys2.covariance[i, i]) == pytest.approx(12.0, abs=1e-12)
    assert mutual_info_gaussian(sys2, ("X12",), ("X22",)) < 1e-12


def test_slot2_silent_relay():
    power = PowerConfig(1.0, 1.0, 1.0, 1.0, 0.0)
    sys2 = slot2(FIG3_STATE, power)
    assert mutual_info_gaussian(sys2, ("XR",), ("YD2",)) == 0.0


def test_slot_systems_psd_random():
    rng = np.random.default_rng(5)
    for _ in range(50):
        g = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        st = ChannelState(*(complex(v) for v in g), mode="fading")
        pw = PowerConfig(*rng.uniform(0.0, 10.0, 5))
        s1 = slot1(st, pw, float(rng.uniform(0.01, 10.0)))
        s2 = slot2(st, pw)
        # construction validates Hermitian PSD; spot-check eigenvalues too
        assert np.linalg.eigvalsh(s1.covariance).min() > -1e-10
        assert np.linalg.eigvalsh(s2.covariance).min() > -1e-10


def test_slot1_infinite_sigma_makes_quantized_row_constant():
    # a discarded observation is the constant YhR = 0: the same labels as at
    # any finite variance, and no information through YhR
    sys1 = slot1(FIG3_STATE, UNIT_POWER, math.inf)
    assert sys1.labels == slot1(FIG3_STATE, UNIT_POWER, 2.0).labels
    j = sys1.labels.index("YhR")
    assert not np.any(sys1.covariance[j]) and not np.any(sys1.covariance[:, j])
    assert mutual_info_gaussian(sys1, ("X11", "X21"), ("YD1", "YhR")) == mutual_info_gaussian(
        sys1, ("X11", "X21"), ("YD1",)
    )
    assert quantizer_index_rate(GaussianFamily(FIG3_STATE, UNIT_POWER, math.inf), 0.5) == 0.0
    with pytest.raises(ValueError):
        slot1(FIG3_STATE, UNIT_POWER, 0.0)


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
        # the covariance engine gives back the index rate it spends
        assert quantizer_index_rate(GaussianFamily(st, pw, s), 0.4) == pytest.approx(ru, abs=1e-9)


def test_sigma_for_fixed_ru_static_round_trip():
    st = ChannelState(0.3, 0.9, 1.3, 0.4, 0.2)
    pw = PowerConfig(2.0, 3.0, 1.0, 1.0, 5.0)
    s = sigma_q2_for_fixed_ru(st, pw, 0.5, 2.0)
    assert quantizer_index_rate(GaussianFamily(st, pw, s), 0.5) == pytest.approx(2.0, abs=1e-9)


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
    prof = FadingProfile.uniform(1.0)
    with pytest.raises(ValueError):
        sample_fading_block(prof, -1, 0)
    with pytest.raises(ValueError):
        sample_fading_block(prof, 0, 2**64)
    # a seed is an integer: a float is not truncated into another stream,
    # and a bool is not read as seed 1
    for seed in (12345.7, 12345.0, math.inf, math.nan, True):
        with pytest.raises(ValueError, match="seed must fit in an unsigned 64-bit integer"):
            sample_fading_block(prof, seed, 0, block_size=1)
    with pytest.raises(ValueError, match="seed must fit in an unsigned 64-bit integer"):
        common_outage_mc("direct", prof, PowerConfig.from_snr(10.0, 0.5), 0.5,
                         RateTarget(1.0, 1.0), 100, True)
    assert np.array_equal(sample_fading_block(prof, np.uint64(7), np.int64(2), block_size=3),
                          sample_fading_block(prof, 7, 2, block_size=3))
