"""Experiment runner and shipped presets.

Presets fig3..fig8 regenerate the package's reference sweeps as
machine-readable data:

    fig3  static sum rate vs quantizer variance
    fig4  static sum rate vs slot split (quantizer at its equalizer)
    fig5  fading common outage vs SNR, fixed relay index rate
    fig6  fading common outage vs SNR, index rate optimized per point
    fig7  fading expected sum rate vs relay-destination variance
    fig8  fig7 sweep with individual outage and both throughput metrics
    fig8_hetero  fig8 with unequal direct links and rate targets

Outputs are CSV with a '#' metadata header (plus an optional JSON mirror)
and are byte-identical for a fixed seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import __version__
from .config import KINDS, SCHEME_TOKENS, ConfigError, ExperimentConfig, config_from_dict
from .config import config_to_dict
from .outage import (
    common_outage_mc,
    expected_sum_rate_common,
    expected_sum_rate_indiv,
    individual_outage_mc,
    optimize_ru_grid,
)
from .rates import SCHEMES, RateTarget, _static_model

__all__ = [
    "SweepResult",
    "run_experiment",
    "preset_config",
    "PRESETS",
]


@dataclass(frozen=True)
class SweepResult:
    """One sweep: grid values, named series and run metadata."""

    sweep_name: str
    sweep_values: tuple
    columns: dict
    metadata: dict

    def __post_init__(self):
        for name, series in self.columns.items():
            if len(series) != len(self.sweep_values):
                raise ValueError(f"series {name!r} does not match the grid length")

    def to_csv_text(self) -> str:
        lines = [f"# marcsim {__version__} sweep"]
        for key in sorted(self.metadata):
            lines.append(f"# {key}: {self.metadata[key]!r}")
        lines.append(",".join([self.sweep_name, *self.columns.keys()]))
        for i, x in enumerate(self.sweep_values):
            row = [_fmt(x)]
            row += [_fmt(series[i]) for series in self.columns.values()]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    def to_json_text(self) -> str:
        payload = {
            "version": __version__,
            "metadata": self.metadata,
            "sweep_name": self.sweep_name,
            "sweep_values": self.sweep_values,
            "columns": self.columns,
        }
        return json.dumps(_json_safe(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _json_safe(v):
    """``v`` as strict JSON values: NaN becomes null and +-inf the CSV's
    own text, "inf" / "-inf"; tuples become lists."""
    if isinstance(v, dict):
        return {k: _json_safe(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_json_safe(x) for x in v]
    if isinstance(v, float) and not math.isfinite(v):
        return None if math.isnan(v) else _fmt(v)
    return v


def _fmt(v) -> str:
    # repr keeps the shortest exact decimal, so reruns are byte-identical;
    # infeasible points (nan) become empty cells
    if isinstance(v, float) and math.isnan(v):
        return ""
    return repr(float(v))


def _run_sigma_sweep(cfg: ExperimentConfig) -> dict:
    threshold, (first, second), norelay = _static_model(
        *cfg.static_channel(), cfg.beta, cfg.sweep_values, cfg.norelay_boost
    )
    return {
        "gqf_sum_first": first.tolist(),
        "gqf_sum_second": second.tolist(),
        "gqf_sum": np.minimum(first, second).tolist(),
        # the compress-forward sum rate equals the plain sum bound once the
        # relay-destination link can deliver the quantizer; below the
        # threshold the scheme is infeasible, not zero-rate
        "cf_sum": np.where(np.asarray(cfg.sweep_values) > threshold, first, math.nan).tolist(),
        "norelay_sum": [float(norelay)] * len(cfg.sweep_values),
    }


def _run_beta_sweep(cfg: ExperimentConfig) -> dict:
    sigma, (first, second), norelay = _static_model(
        *cfg.static_channel(), cfg.sweep_values, None, cfg.norelay_boost
    )
    gqf = np.minimum(first, second).tolist()
    return {
        "sigma_q2_opt": sigma.tolist(),
        "gqf_sum": gqf,
        # at the equalizer the compress-forward feasibility threshold is
        # met with equality; its supremum sum rate coincides with the
        # joint-decoding value
        "cf_sum": gqf,
        "norelay_sum": norelay.tolist(),
    }


def _run_fading_sweep(cfg: ExperimentConfig) -> dict:
    """Every requested scheme at every sweep point on shared draws, in one
    estimator pass per token over all the points."""
    profiles, powers = (list(c) for c in zip(*cfg.fading_points()))
    sweep = (profiles, powers, cfg.beta)
    target = RateTarget(cfg.r1, cfg.r2, cfg.ru)
    n, seed, columns = cfg.n_samples, cfg.seed, {}
    for token in cfg.schemes:
        scheme, optimized = SCHEME_TOKENS[token]
        if optimized:
            chosen = optimize_ru_grid(*sweep, target, cfg.ru_grid, n, seed, scheme=scheme)
            used_ru, ests = (list(c) for c in zip(*chosen))
            columns[f"{token}_ru"] = used_ru
        else:
            ests = common_outage_mc(scheme, *sweep, target, n, seed)
            used_ru = [cfg.ru] * len(ests)
        columns[f"{token}_p"] = [est.p_hat for est in ests]
        columns[f"{token}_ci"] = [est.ci95_halfwidth for est in ests]
        columns[f"{token}_rbar"] = [expected_sum_rate_common(target, est) for est in ests]
        if cfg.individual and SCHEMES[scheme].recover is not None:
            targets = [RateTarget(cfg.r1, cfg.r2, ru) for ru in used_ru]
            inds = individual_outage_mc(*sweep, targets, n, seed, scheme=scheme)
            columns[f"{token}_p_indiv1"] = [ind.p_indiv1 for ind in inds]
            columns[f"{token}_p_indiv2"] = [ind.p_indiv2 for ind in inds]
            columns[f"{token}_rbar_indiv"] = [
                expected_sum_rate_indiv(target, ind.p_indiv1, ind.p_indiv2) for ind in inds
            ]
    return columns


#: the result columns, one list entry per sweep point, of each kind in config.KINDS
_RUNNERS = {
    "static_sigma_sweep": _run_sigma_sweep,
    "static_beta_sweep": _run_beta_sweep,
    "fading_snr_sweep": _run_fading_sweep,
    "fading_sigmard_sweep": _run_fading_sweep,
}


def run_experiment(cfg: ExperimentConfig) -> SweepResult:
    """Run one experiment; deterministic for a fixed config."""
    columns = {k: tuple(v) for k, v in _RUNNERS[cfg.kind](cfg).items()}
    metadata = {**config_to_dict(cfg), "version": __version__}
    return SweepResult(KINDS[cfg.kind].name, cfg.sweep_values, columns, metadata)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


#: the config fields each preset sets; every other field keeps its default
PRESETS = {
    "fig3": {"kind": "static_sigma_sweep"},
    "fig4": {"kind": "static_beta_sweep"},
    "fig5": {
        "kind": "fading_snr_sweep",
        "schemes": ("gqf", "csit", "nonwz_cf", "df", "af", "direct", "direct15"),
    },
    "fig6": {
        "kind": "fading_snr_sweep",
        "schemes": ("gqf", "gqf_opt", "csit", "nonwz_cf_opt", "df", "af", "direct", "direct15"),
    },
    "fig7": {
        "kind": "fading_sigmard_sweep",
        "snr_db": 10.0,
        "schemes": ("gqf_opt", "csit", "nonwz_cf_opt", "df", "af", "direct", "direct15"),
    },
    "fig8": {
        "kind": "fading_sigmard_sweep",
        "snr_db": 10.0,
        "schemes": ("gqf_opt", "nonwz_cf_opt", "direct"),
        "individual": True,
    },
}
# the paper's third claim: user 1 has the stronger direct link and higher rate
PRESETS["fig8_hetero"] = {**PRESETS["fig8"], "var_1d": 2.0, "var_2d": 0.5, "r1": 1.5, "r2": 0.75}


def preset_config(name: str, **overrides) -> ExperimentConfig:
    """Materialize a preset config, optionally overriding any field; the
    overrides are checked like the keys of a config file."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; known: {sorted(PRESETS)}")
    return config_from_dict({"preset": name, "out": f"{name}.csv", **PRESETS[name], **overrides})
