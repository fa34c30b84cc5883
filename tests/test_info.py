"""Tests of the discrete and Gaussian mutual-information engines."""

import math

import numpy as np
import pytest

from marcsim import (
    ChannelState,
    DegenerateCovarianceError,
    GaussianFamily,
    GaussianSystem,
    JointPMF,
    LabelError,
    PowerConfig,
    entropy_discrete,
    mutual_info_discrete,
    mutual_info_gaussian,
)


def h2(p):
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def phi(t):
    return 0.5 * (1.0 + math.erf(t / math.sqrt(2.0)))


def test_entropy_uniform_binary():
    pmf = JointPMF(("X",), np.array([0.5, 0.5]))
    assert entropy_discrete(pmf, ("X",)) == pytest.approx(1.0, abs=1e-12)


def test_entropy_point_mass():
    pmf = JointPMF(("X",), np.array([1.0, 0.0, 0.0]))
    assert entropy_discrete(pmf, ("X",)) == 0.0


def test_entropy_half_quarter_quarter():
    # -0.5*log2(0.5) - 2*0.25*log2(0.25) = 0.5 + 1.0
    pmf = JointPMF(("X",), np.array([0.5, 0.25, 0.25]))
    assert entropy_discrete(pmf, ("X",)) == pytest.approx(1.5, abs=1e-12)


def test_entropy_empty_subset_and_bounds():
    rng = np.random.default_rng(0)
    t = rng.dirichlet(np.ones(12)).reshape(3, 4)
    pmf = JointPMF(("A", "B"), t)
    assert entropy_discrete(pmf, ()) == 0.0
    assert 0.0 <= entropy_discrete(pmf, ("A",)) <= math.log2(3) + 1e-12
    assert 0.0 <= entropy_discrete(pmf, ("A", "B")) <= math.log2(12) + 1e-12


def test_entropy_unknown_label():
    pmf = JointPMF(("X",), np.array([0.5, 0.5]))
    with pytest.raises(LabelError):
        entropy_discrete(pmf, ("Y",))


def test_pmf_validation():
    with pytest.raises(ValueError):
        JointPMF(("X",), np.array([0.6, 0.6]))
    with pytest.raises(ValueError):
        JointPMF(("X",), np.array([1.5, -0.5]))
    with pytest.raises(ValueError):
        JointPMF(("X", "X"), np.full((2, 2), 0.25))


def test_mi_discrete_independent():
    pmf = JointPMF(("A", "B"), np.outer([0.3, 0.7], [0.25, 0.75]))
    assert mutual_info_discrete(pmf, ("A",), ("B",)) == 0.0


def test_mi_discrete_perfect_copy():
    pmf = JointPMF(("A", "B"), np.array([[0.5, 0.0], [0.0, 0.5]]))
    assert mutual_info_discrete(pmf, ("A",), ("B",)) == pytest.approx(1.0, abs=1e-12)


def test_mi_discrete_bsc():
    # uniform input through a crossover-0.11 binary symmetric channel
    eps = 0.11
    joint = 0.5 * np.array([[1 - eps, eps], [eps, 1 - eps]])
    pmf = JointPMF(("X", "Y"), joint)
    got = mutual_info_discrete(pmf, ("X",), ("Y",))
    assert got == pytest.approx(1.0 - h2(eps), abs=1e-12)
    assert got == pytest.approx(0.5, abs=0.01)


def test_mi_discrete_overlap_rejected():
    pmf = JointPMF(("A", "B"), np.full((2, 2), 0.25))
    with pytest.raises(ValueError):
        mutual_info_discrete(pmf, ("A",), ("A",))
    with pytest.raises(ValueError):
        mutual_info_discrete(pmf, ("A",), ("B",), ("B",))


def test_mi_discrete_chain_rule():
    rng = np.random.default_rng(7)
    for _ in range(25):
        t = rng.dirichlet(np.ones(24)).reshape(2, 3, 4)
        pmf = JointPMF(("A", "B", "C"), t)
        whole = mutual_info_discrete(pmf, ("A",), ("B", "C"))
        split = mutual_info_discrete(pmf, ("A",), ("B",)) + mutual_info_discrete(
            pmf, ("A",), ("C",), ("B",)
        )
        assert whole == pytest.approx(split, abs=1e-10)


def test_mi_gaussian_scalar_awgn():
    # Y = X + Z with Var(X) = 3, Var(Z) = 1: 0.5*log2(4) = 1 bit
    sys = GaussianSystem(("X", "Y"), np.array([[3.0, 3.0], [3.0, 4.0]]))
    assert mutual_info_gaussian(sys, ("X",), ("Y",)) == pytest.approx(1.0, abs=1e-12)


def test_mi_gaussian_block_diagonal():
    cov = np.diag([2.0, 3.0, 1.0, 5.0])
    sys = GaussianSystem(("A1", "A2", "B1", "B2"), cov)
    assert mutual_info_gaussian(sys, ("A1", "A2"), ("B1", "B2")) == 0.0


def test_mi_gaussian_complex_prefactor():
    # same covariance, twice the bits in complex-circular mode
    cov = np.array([[3.0, 3.0], [3.0, 4.0]])
    real = GaussianSystem(("X", "Y"), cov, field_kind="real")
    cplx = GaussianSystem(("X", "Y"), cov.astype(complex), field_kind="complex")
    r = mutual_info_gaussian(real, ("X",), ("Y",))
    c = mutual_info_gaussian(cplx, ("X",), ("Y",))
    assert c == pytest.approx(2.0 * r, abs=1e-12)


def test_mi_gaussian_listen_slot_sum_bracket():
    # two-source listen slot, gains (1, 1, 3, 0.5), unit powers: the joint
    # input-output information must match the closed covariance bracket
    # 0.5*log2(1 + a1 + a2 + (c1 + c2 + cross)/(1 + s))
    state = ChannelState(1.0, 1.0, 3.0, 0.5, 3.0)
    power = PowerConfig(1.0, 1.0, 1.0, 1.0, 1.0)
    s = 2.0556
    sys1 = GaussianFamily(state, power, s).slot1
    got = mutual_info_gaussian(sys1, ("X11", "X21"), ("YD1", "YhR"))
    cross = (1.0 * 0.5 - 3.0 * 1.0) ** 2
    want = 0.5 * math.log2(1.0 + 2.0 + (9.0 + 0.25 + cross) / (1.0 + s))
    assert got == pytest.approx(want, abs=1e-9)


def test_mi_gaussian_chain_rule_random_systems():
    rng = np.random.default_rng(11)
    for _ in range(25):
        b = rng.standard_normal((4, 4))
        cov = b @ b.T + 0.1 * np.eye(4)
        sys = GaussianSystem(("A", "B", "C", "D"), cov)
        whole = mutual_info_gaussian(sys, ("A",), ("B", "C"))
        split = mutual_info_gaussian(sys, ("A",), ("B",)) + mutual_info_gaussian(
            sys, ("A",), ("C",), ("B",)
        )
        assert whole == pytest.approx(split, abs=1e-10)


def test_mi_gaussian_zero_power_inputs():
    # silent sources: outputs are pure noise and every MI term vanishes
    state = ChannelState(1.0, 1.0, 3.0, 0.5, 3.0)
    power = PowerConfig(0.0, 0.0, 1.0, 1.0, 1.0)
    sys1 = GaussianFamily(state, power, 2.0).slot1
    assert mutual_info_gaussian(sys1, ("X11", "X21"), ("YD1", "YhR")) == 0.0
    assert mutual_info_gaussian(sys1, ("X11",), ("YR",), ("X21",)) == 0.0
    assert float(np.real(sys1.covariance[sys1.labels.index("YR"), sys1.labels.index("YR")])) == 1.0


def test_mi_gaussian_degenerate_subset_named():
    # duplicated variable rows make the joint covariance singular
    cov = np.array([[1.0, 1.0, 0.5], [1.0, 1.0, 0.5], [0.5, 0.5, 2.0]])
    sys = GaussianSystem(("A", "B", "Y"), cov)
    with pytest.raises(DegenerateCovarianceError) as err:
        mutual_info_gaussian(sys, ("A", "B"), ("Y",))
    assert "A" in str(err.value.labels) or "A" in err.value.labels


def test_mi_gaussian_data_processing_on_quantizer():
    state = ChannelState(1.0, 1.0, 3.0, 0.5, 3.0)
    power = PowerConfig(1.0, 1.0, 1.0, 1.0, 1.0)
    for s in (0.1, 0.5, 1.0, 2.0, 5.0, 50.0):
        sys1 = GaussianFamily(state, power, s).slot1
        through = mutual_info_gaussian(sys1, ("X11", "X21"), ("YhR",))
        raw = mutual_info_gaussian(sys1, ("X11", "X21"), ("YR",))
        assert through <= raw + 1e-12


def test_mi_gaussian_markov_quantizer():
    # (X11, X21) -> YR -> YhR: conditioning on YR removes all information
    state = ChannelState(1.0, 1.0, 3.0, 0.5, 3.0)
    power = PowerConfig(1.0, 1.0, 1.0, 1.0, 1.0)
    sys1 = GaussianFamily(state, power, 2.0).slot1
    assert mutual_info_gaussian(sys1, ("X11", "X21"), ("YhR",), ("YR",)) < 1e-9
    assert mutual_info_gaussian(sys1, ("X11",), ("X21",)) < 1e-12


def test_quantizer_vanishes_with_coarse_quantization():
    state = ChannelState(1.0, 1.0, 3.0, 0.5, 3.0)
    power = PowerConfig(1.0, 1.0, 1.0, 1.0, 1.0)
    sys1 = GaussianFamily(state, power, 1e12).slot1
    assert mutual_info_gaussian(sys1, ("YR",), ("YhR",)) < 1e-8


def test_discrete_engine_matches_gaussian_closed_form():
    # scalar AWGN quantized to 64 levels over +-6 sigma per variable:
    # the discrete MI must sit within 0.05 bits of 0.5*log2(1 + 3)
    n = 64
    var_x = 3.0
    sx = math.sqrt(var_x)
    sy = math.sqrt(var_x + 1.0)
    xe = np.linspace(-6 * sx, 6 * sx, n + 1)
    ye = np.linspace(-6 * sy, 6 * sy, n + 1)
    xc = 0.5 * (xe[:-1] + xe[1:])
    px = np.array([phi(b / sx) - phi(a / sx) for a, b in zip(xe[:-1], xe[1:])])
    px /= px.sum()
    joint = np.empty((n, n))
    for i, x in enumerate(xc):
        row = np.array([phi(b - x) - phi(a - x) for a, b in zip(ye[:-1], ye[1:])])
        joint[i] = px[i] * row / row.sum()
    pmf = JointPMF(("X", "Y"), joint)
    got = mutual_info_discrete(pmf, ("X",), ("Y",))
    assert abs(got - 1.0) < 0.05


def test_pre_clamp_deficit_is_tiny():
    # on structurally independent sets the true information is zero; the
    # raw determinant expression may only dip below it by rounding, and
    # the deficit must stay under 1e-9 before clamping
    rng = np.random.default_rng(19)
    worst = 0.0
    for _ in range(200):
        b1 = rng.standard_normal((2, 2))
        b2 = rng.standard_normal((3, 3))
        cov = np.zeros((5, 5))
        cov[:2, :2] = b1 @ b1.T + 0.05 * np.eye(2)
        cov[2:, 2:] = b2 @ b2.T + 0.05 * np.eye(3)
        sys = GaussianSystem(("A1", "A2", "B1", "B2", "C1"), cov)

        def ld(subset):
            idx = sys.indices_of(subset)
            return np.linalg.slogdet(cov[np.ix_(idx, idx)])[1] if subset else 0.0

        a, b, c = ("A1", "A2"), ("B1", "B2"), ("C1",)
        raw = 0.5 * (ld(a + c) + ld(b + c) - ld(c) - ld(a + b + c)) / math.log(2)
        worst = max(worst, -raw)
        assert mutual_info_gaussian(sys, a, b, c) >= 0.0
    assert worst < 1e-9


def test_gaussian_system_validation():
    with pytest.raises(ValueError):
        GaussianSystem(("A", "B"), np.array([[1.0, 0.9], [0.2, 1.0]]))
    with pytest.raises(ValueError):
        GaussianSystem(("A", "B"), np.array([[1.0, 2.0], [2.0, 1.0]]))  # not PSD
    with pytest.raises(ValueError):
        GaussianSystem(("A",), np.eye(2))
    with pytest.raises(LabelError):
        mutual_info_gaussian(GaussianSystem(("A",), np.eye(1)), ("A",), ("Z",))
