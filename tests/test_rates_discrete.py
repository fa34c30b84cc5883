"""Tests of the discrete-alphabet region evaluators on binary toy networks."""

import math

import numpy as np
import pytest

from marcsim import (
    FeasibilityError,
    MarcPmfFamily,
    cf_region,
    entropy_discrete,
    gqf_bounds,
    gqf_region,
    mutual_info_discrete,
    quantizer_index_rate,
)


def bsc(eps):
    return np.array([[1 - eps, eps], [eps, 1 - eps]])


def xor_relay_family(eps_d=0.05, eps_2=0.05, quantizer=None):
    """Binary toy network: the relay hears the XOR of the sources noiselessly,
    the destination hears user 1 through a BSC in the listen slot and the
    relay through a BSC in the cooperate slot."""
    uniform = np.array([0.5, 0.5])
    slot1 = np.zeros((2, 2, 2, 2))
    for x1 in range(2):
        for x2 in range(2):
            for yd in range(2):
                slot1[x1, x2, (x1 + x2) % 2, yd] = bsc(eps_d)[x1, yd]
    slot2 = np.zeros((2, 2, 2, 2))
    for xr in range(2):
        slot2[:, :, xr, :] = bsc(eps_2)[xr]
    return MarcPmfFamily(
        px11=uniform,
        px21=uniform,
        px12=uniform,
        px22=uniform,
        pxr=uniform,
        quantizer=np.eye(2) if quantizer is None else quantizer,
        slot1_channel=slot1,
        slot2_channel=slot2,
    )


def random_family(rng):
    def pmf():
        p = float(rng.uniform(0.2, 0.8))
        return np.array([p, 1.0 - p])

    def conditional(shape, cond_axes):
        t = rng.uniform(0.05, 1.0, shape)
        axes = tuple(range(cond_axes, t.ndim))
        return t / t.sum(axis=axes, keepdims=True)

    return MarcPmfFamily(
        px11=pmf(),
        px21=pmf(),
        px12=pmf(),
        px22=pmf(),
        pxr=pmf(),
        quantizer=conditional((2, 2), 1),
        slot1_channel=conditional((2, 2, 2, 2), 2),
        slot2_channel=conditional((2, 2, 2, 2), 3),
    )


def test_family_validation():
    fam = xor_relay_family()
    bad = np.array([[0.7, 0.7], [0.3, 0.3]])
    with pytest.raises(ValueError):
        MarcPmfFamily(
            px11=np.array([0.5, 0.5]),
            px21=np.array([0.5, 0.5]),
            px12=np.array([0.5, 0.5]),
            px22=np.array([0.5, 0.5]),
            pxr=np.array([0.5, 0.5]),
            quantizer=bad,
            slot1_channel=fam.slot1_channel,
            slot2_channel=fam.slot2_channel,
        )
    with pytest.raises(ValueError):
        MarcPmfFamily(
            px11=np.array([0.6, 0.6]),
            px21=np.array([0.5, 0.5]),
            px12=np.array([0.5, 0.5]),
            px22=np.array([0.5, 0.5]),
            pxr=np.array([0.5, 0.5]),
            quantizer=np.eye(2),
            slot1_channel=fam.slot1_channel,
            slot2_channel=fam.slot2_channel,
        )


def test_slot_pmfs_compose():
    fam = xor_relay_family()
    p1 = fam.slot1
    assert p1.labels == ("X11", "X21", "YR", "YhR", "YD1")
    assert entropy_discrete(p1, ("YR",)) == pytest.approx(1.0, abs=1e-12)
    # identity quantizer copies the relay observation
    assert mutual_info_discrete(p1, ("YR",), ("YhR",)) == pytest.approx(1.0, abs=1e-12)
    p2 = fam.slot2
    assert mutual_info_discrete(p2, ("X12",), ("X22",)) == 0.0


def test_independent_quantizer_reduces_to_direct():
    # a quantizer that ignores its input contributes nothing: the region
    # equals the two-slot MAC region computed without the relay observation
    fam = xor_relay_family(quantizer=np.array([[0.4, 0.6], [0.4, 0.6]]))
    reg = gqf_region(fam, 0.5, ru=1e-9)
    p1, p2 = fam.slot1, fam.slot2
    i1 = 0.5 * mutual_info_discrete(p1, ("X11",), ("YD1",), ("X21",)) + 0.5 * (
        mutual_info_discrete(p2, ("X12",), ("YD2",), ("X22", "XR"))
    )
    isum = 0.5 * mutual_info_discrete(p1, ("X11", "X21"), ("YD1",)) + 0.5 * (
        mutual_info_discrete(p2, ("X12", "X22"), ("YD2",), ("XR",))
    )
    assert reg.i1 == pytest.approx(i1, abs=1e-9)
    assert reg.isum == pytest.approx(isum, abs=1e-9)


def test_identity_quantizer_index_bounds_loose():
    # spending the full observation entropy (plus slack) on the index keeps
    # the index-charged user-1 bound above the plain one on this network
    fam = xor_relay_family()
    beta = 0.5
    ru = beta * entropy_discrete(fam.slot1, ("YR",)) + 0.01
    b = gqf_bounds(fam, beta)
    assert quantizer_index_rate(fam, beta) <= ru
    assert b.b_r1u - ru >= b.b_r1 - 1e-12


def test_region_feasibility_guard():
    fam = xor_relay_family()
    needed = quantizer_index_rate(fam, 0.5)
    with pytest.raises(FeasibilityError):
        gqf_region(fam, 0.5, needed - 0.01)
    reg = gqf_region(fam, 0.5, needed)
    assert reg.i1 >= 0.0 and reg.isum >= 0.0
    for ru in (math.nan, math.inf):
        with pytest.raises(ValueError, match="relay index rate ru must be finite") as exc:
            gqf_region(fam, 0.5, ru)
        assert exc.type is ValueError  # not a FeasibilityError


def test_cf_infeasible_when_relay_cannot_deliver():
    # cooperate-slot channel ignores the relay input entirely, so binning
    # cannot squeeze the index through: no compress-forward region
    uniform = np.array([0.5, 0.5])
    fam = xor_relay_family()
    slot2 = np.zeros((2, 2, 2, 2))
    for x1 in range(2):
        slot2[x1, :, :, :] = bsc(0.05)[x1][None, None, :]
    fam2 = MarcPmfFamily(
        px11=uniform, px21=uniform, px12=uniform, px22=uniform, pxr=uniform,
        quantizer=np.eye(2),
        slot1_channel=fam.slot1_channel,
        slot2_channel=slot2,
    )
    assert cf_region(fam2, 0.5) is None


def test_gqf_matches_cf_under_strict_binning_condition():
    # random binary networks where the binning condition holds strictly:
    # joint decoding at the matching index rate and compress-forward agree
    rng = np.random.default_rng(41)
    p1_labels = ("YR", "YhR")
    done = 0
    while done < 200:
        fam = random_family(rng)
        beta = float(rng.uniform(0.1, 0.9))
        p1, p2 = fam.slot1, fam.slot2
        lhs = beta * (
            mutual_info_discrete(p1, ("YR",), ("YhR",))
            - mutual_info_discrete(p1, ("YD1",), ("YhR",))
        )
        rhs = (1.0 - beta) * mutual_info_discrete(p2, ("XR",), ("YD2",))
        if not lhs < rhs - 1e-9:
            continue
        cf = cf_region(fam, beta)
        assert cf is not None
        ru = quantizer_index_rate(fam, beta)
        gq = gqf_region(fam, beta, ru)
        assert abs(cf.i1 - gq.i1) < 1e-12
        assert abs(cf.i2 - gq.i2) < 1e-12
        assert abs(cf.isum - gq.isum) < 1e-12
        done += 1
