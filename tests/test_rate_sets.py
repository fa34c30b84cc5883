"""The per-rate-set kernels of marcsim.rates against the bodies they
replaced, which wrote the three rate sets (r1, r2, r1 + r2) out one by
one, and the rule that only ``rates._rate_sets`` forms a set."""

import ast
import inspect
import math
from pathlib import Path

import numpy as np
import pytest

from marcsim import (
    FADING,
    ChannelState,
    FadingProfile,
    GaussianFamily,
    GqfBounds,
    PowerConfig,
    RateTarget,
    gqf_bounds,
)
from marcsim import rates
from marcsim.rates import _df_terms, _direct_terms, _links, _mac_terms, _opt_sigmas
from reference_draws import draw_states
from test_rates_discrete import random_family

FIG3_STATE = ChannelState(1.0, 1.0, 3.0, 0.5, 3.0)
FADING_STATE = ChannelState(0.8 + 0.3j, -0.5 + 0.9j, 1.2 - 0.4j, 0.6 + 0.2j, 1.1 + 0.7j,
                            mode=FADING)
UNIT_POWER = PowerConfig(1.0, 1.0, 1.0, 1.0, 1.0)


def _gqf_bounds_reference(family, beta):
    """The six joint-decoding bounds, each written out."""
    m1, m2, mb = family.slot1.mutual_info, family.slot2.mutual_info, 1.0 - beta
    i_inputs_yhr = m1(("X11", "X21"), ("YhR",))
    b_r1 = beta * m1(("X11",), ("YD1", "YhR"), ("X21",)) + mb * m2(
        ("X12",), ("YD2",), ("X22", "XR")
    )
    b_r1u = beta * (m1(("X11", "YhR"), ("YD1",), ("X21",)) + i_inputs_yhr) + mb * m2(
        ("X12", "XR"), ("YD2",), ("X22",)
    )
    b_r2 = beta * m1(("X21",), ("YD1", "YhR"), ("X11",)) + mb * m2(
        ("X22",), ("YD2",), ("X12", "XR")
    )
    b_r2u = beta * (m1(("X21", "YhR"), ("YD1",), ("X11",)) + i_inputs_yhr) + mb * m2(
        ("X22", "XR"), ("YD2",), ("X12",)
    )
    b_r12 = beta * m1(("X11", "X21"), ("YD1", "YhR")) + mb * m2(
        ("X12", "X22"), ("YD2",), ("XR",)
    )
    b_r12u = beta * (m1(("X11", "X21", "YhR"), ("YD1",)) + i_inputs_yhr) + mb * m2(
        ("X12", "X22", "XR"), ("YD2",)
    )
    return GqfBounds(b_r1, b_r1u, b_r2, b_r2u, b_r12, b_r12u)


def _mac_terms_reference(a1, a2, d1, d2, beta, e=0.0):
    """Two-slot MAC bounds, one expression per rate set."""
    mb = 1.0 - beta
    i1 = beta * np.log2(1.0 + a1) + mb * np.log2(1.0 + d1 + e)
    i2 = beta * np.log2(1.0 + a2) + mb * np.log2(1.0 + d2 + e)
    isum = beta * np.log2(1.0 + a1 + a2) + mb * np.log2(1.0 + d1 + d2 + e)
    return i1, i2, isum


def _df_reference(L, beta, r1, r2):
    """Decode-forward with the relay's decoding test written out."""
    a1, a2, c1, c2, d1, d2, e, _ = L
    i1, i2, isum = _mac_terms_reference(c1, c2, 0.0, 0.0, beta)
    decodes = (r1 <= i1) & (r2 <= i2) & (r1 + r2 <= isum)
    return _mac_terms_reference(a1, a2, d1, d2, beta, np.where(decodes, e, 0.0))


def _equalizer_sigma_reference(num_frac, e, d, beta):
    """Equalizer variance from the cooperate-slot power d (not 1 + d)."""
    with np.errstate(over="ignore"):
        y = (1.0 - beta) / beta * np.log1p(e / (1.0 + d))
        denom = np.expm1(y)
    num = 1.0 + num_frac
    with np.errstate(divide="ignore"):
        sigma = np.where(denom > 0.0, num / np.where(denom > 0.0, denom, 1.0), np.inf)
    if np.any(np.isinf(denom)):
        sigma = np.where(np.isinf(denom), np.exp(np.log1p(num_frac) - y), sigma)
    return sigma


def _opt_sigmas_reference(L, beta):
    a1, a2, c1, c2, d1, d2, e, kap = L
    return (
        _equalizer_sigma_reference(c1 / (1.0 + a1), e, d1, beta),
        _equalizer_sigma_reference(c2 / (1.0 + a2), e, d2, beta),
        _equalizer_sigma_reference((c1 + c2 + kap) / (1.0 + a1 + a2), e, d1 + d2, beta),
    )


def _random_links(seed, n=2000):
    """Link powers of ``n`` fading draws at random powers, the relay link of
    the last quarter cut (e = 0)."""
    rng = np.random.default_rng(seed)
    h = draw_states(FadingProfile(2.0, 0.5, 1.0, 3.0, 1.0), n, seed)
    pw = PowerConfig(*(float(v) for v in rng.uniform(0.05, 20.0, 5)))
    L = list(_links(tuple(h[:, i] for i in range(5)), pw))
    L[6][3 * n // 4:] = 0.0
    return tuple(L)


@pytest.mark.parametrize("family", [
    GaussianFamily(FIG3_STATE, UNIT_POWER, 1.0),
    GaussianFamily(FADING_STATE, PowerConfig(3.0, 0.7, 1.5, 2.0, 4.0), 0.3),
    GaussianFamily(FIG3_STATE, UNIT_POWER, math.inf),
    GaussianFamily(FADING_STATE, UNIT_POWER, math.inf),
    random_family(np.random.default_rng(5)),
])
@pytest.mark.parametrize("beta", [0.5, 0.2, 0.9])
def test_gqf_bounds_equal_the_six_expression_reference(family, beta):
    assert gqf_bounds(family, beta) == _gqf_bounds_reference(family, beta)


@pytest.mark.parametrize("seed", [3, 4])
@pytest.mark.parametrize("beta", [0.5, 0.3])
def test_mac_terms_equal_the_per_user_reference(seed, beta):
    L = _random_links(seed)
    a1, a2, _, _, d1, d2, e, _ = L
    # the relay power of L is added to every cooperate-slot bound
    for got, ref in zip(_mac_terms(L, beta), _mac_terms_reference(a1, a2, d1, d2, beta, e),
                        strict=True):
        assert np.array_equal(got, ref)
    # direct, direct15 and the non-WZ fallback (the relay signal as noise)
    for boost, interference in ((1.0, 0.0), (1.5, 0.0), (1.0, e)):
        nf = 1.0 + interference
        ref = _mac_terms_reference(a1 * boost, a2 * boost, d1 * boost / nf, d2 * boost / nf, beta)
        for got, want in zip(_direct_terms(L, beta, boost, interference), ref, strict=True):
            assert np.array_equal(got, want), (boost, interference is e)
    # decode-forward, whose relay decodes on some draws and not on others
    target = RateTarget(0.8, 0.6)
    relay = _mac_terms_reference(L[2], L[3], 0.0, 0.0, beta)
    decodes = (0.8 <= relay[0]) & (0.6 <= relay[1]) & (1.4 <= relay[2])
    assert 0 < decodes.sum() < decodes.size
    for got, want in zip(_df_terms(L, beta, target), _df_reference(L, beta, 0.8, 0.6),
                         strict=True):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("beta", [0.5, 0.1, 0.9, 0.002])
def test_opt_sigmas_agree_with_the_per_user_reference(beta):
    L = _random_links(6)
    e, d1, d2 = L[6], L[4], L[5]
    if beta == 0.002:  # past expm1's overflow: the log-domain branch
        y = (1.0 - beta) / beta * np.log1p(e / (1.0 + d1 + d2))
        assert np.any(y > math.log(np.finfo(float).max))
    got, ref = _opt_sigmas(L, beta), _opt_sigmas_reference(L, beta)
    for g, r in zip(got, ref, strict=True):
        assert np.all(np.isinf(g[e == 0.0]))  # a cut relay link trades no rate
        np.testing.assert_allclose(g, r, rtol=1e-12, atol=0.0)


#: link powers of the two users that only a rate set may add
_USER_PAIRS = ({"a1", "a2"}, {"d1", "d2"}, {"kap"})


def _pair_adders(source):
    """Functions of ``source`` with an Add over both users' powers: a1 with
    a2, d1 with d2, or any term with kap."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
                names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
                if any(pair <= names for pair in _USER_PAIRS):
                    found.add(fn.name)
    return found


def test_only_rate_sets_adds_both_users_powers():
    # every bound is one formula over rates._rate_sets: no other function
    # spells the pair set, and DF's relay decodes where _violated says no
    # outage
    assert _pair_adders(Path(rates.__file__).read_text()) == {"_rate_sets"}
    spelled = "def _af_terms(L):\n    a1, a2 = L[:2]\n    return 1.0 + a1 + a2\n"
    assert _pair_adders(spelled) == {"_af_terms"}
    assert "~_violated(" in inspect.getsource(rates._df_terms)


def _boosted_direct_calls(source):
    """(owner, boost) of each call of ``_direct_terms`` in ``source`` that
    passes a boost: the owner is the ``SCHEMES`` key or the function the
    call sits in, the boost its source text."""
    found = set()

    def visit(node, owner):
        if isinstance(node, ast.FunctionDef):
            owner = node.name
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "SCHEMES":
            for key, value in zip(node.value.keys, node.value.values, strict=True):
                visit(value, key.value)
            return
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_direct_terms":
            boost = [k.value for k in node.keywords if k.arg == "boost"] + node.args[2:3]
            found.update((owner, ast.unparse(b)) for b in boost)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), None)
    return found


def test_only_direct15_fixes_a_boost():
    # the sources' boost with a silent relay is written once, in the
    # direct15 entry, which the static sweeps' no-relay sum reads;
    # direct_mac_region, the tests' oracle, only forwards its caller's
    assert _boosted_direct_calls(Path(rates.__file__).read_text()) == {
        ("direct15", "1.5"), ("direct_mac_region", "boost"),
    }
    spelled = ("def _static_model(L, beta):\n"
               "    return _direct_terms(L, beta, 1.5), _direct_terms(L, beta)\n")
    assert _boosted_direct_calls(spelled) == {("_static_model", "1.5")}
