"""Experiment runner and shipped presets.

Presets fig3..fig8 regenerate the package's reference sweeps as
machine-readable data:

    fig3  static sum rate vs quantizer variance
    fig4  static sum rate vs slot split (quantizer at its equalizer)
    fig5  fading common outage vs SNR, fixed relay index rate
    fig6  fading common outage vs SNR, index rate optimized per point
    fig7  fading expected sum rate vs relay-destination variance
    fig8  fig7 sweep with individual outage and both throughput metrics

Outputs are CSV with a '#' metadata header (plus an optional JSON mirror)
and are byte-identical for a fixed seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

from . import __version__
from .channel import ChannelState, FadingProfile, PowerConfig
from .config import SCHEME_TOKENS, ConfigError, ExperimentConfig, config_to_dict
from .outage import (
    SCHEMES,
    RateTarget,
    common_outage_mc,
    expected_sum_rate_common,
    expected_sum_rate_indiv,
    individual_outage_mc,
    optimize_ru_grid,
)
from .rates import (
    direct_mac_region,
    gqf_min_terms_gaussian,
    sigma_q2_opt_sum,
)

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
            "sweep_values": list(self.sweep_values),
            "columns": {
                k: [None if _is_nan(v) else v for v in series]
                for k, series in self.columns.items()
            },
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def write(self, out_path, json_path=None) -> None:
        Path(out_path).write_text(self.to_csv_text())
        if json_path:
            Path(json_path).write_text(self.to_json_text())


def _is_nan(v) -> bool:
    return isinstance(v, float) and math.isnan(v)


def _fmt(v) -> str:
    # repr keeps the shortest exact decimal, so reruns are byte-identical;
    # infeasible points (nan) become empty cells
    if _is_nan(v):
        return ""
    return repr(float(v))


def _static_state(cfg: ExperimentConfig) -> ChannelState:
    return ChannelState(cfg.h1d, cfg.h2d, cfg.h1r, cfg.h2r, cfg.hrd)


def _static_power(cfg: ExperimentConfig) -> PowerConfig:
    return PowerConfig(cfg.p11, cfg.p21, cfg.p12, cfg.p22, cfg.pr)


def _metadata(cfg: ExperimentConfig) -> dict:
    meta = config_to_dict(cfg)
    meta["version"] = __version__
    return meta


def _run_sigma_sweep(cfg: ExperimentConfig) -> SweepResult:
    state = _static_state(cfg)
    power = _static_power(cfg)
    threshold = sigma_q2_opt_sum(state, power, cfg.beta)
    norelay = direct_mac_region(state, power, cfg.beta, boost=cfg.norelay_boost).isum
    first, second, best, cf = [], [], [], []
    for s in cfg.sigma_q2_grid:
        t = gqf_min_terms_gaussian(state, power, cfg.beta, s)
        first.append(t[4])
        second.append(t[5])
        best.append(min(t[4], t[5]))
        # the compress-forward sum rate equals the plain sum bound once the
        # relay-destination link can deliver the quantizer; below the
        # threshold the scheme is infeasible, not zero-rate
        cf.append(t[4] if s > threshold else math.nan)
    columns = {
        "gqf_sum_first": tuple(first),
        "gqf_sum_second": tuple(second),
        "gqf_sum": tuple(best),
        "cf_sum": tuple(cf),
        "norelay_sum": tuple(norelay for _ in cfg.sigma_q2_grid),
    }
    return SweepResult("sigma_q2", cfg.sigma_q2_grid, columns, _metadata(cfg))


def _run_beta_sweep(cfg: ExperimentConfig) -> SweepResult:
    state = _static_state(cfg)
    power = _static_power(cfg)
    sigma_col, gqf_col, cf_col, norelay_col = [], [], [], []
    for beta in cfg.beta_grid:
        s = sigma_q2_opt_sum(state, power, beta)
        t = gqf_min_terms_gaussian(state, power, beta, s)
        val = min(t[4], t[5])
        sigma_col.append(s)
        gqf_col.append(val)
        # at the equalizer the compress-forward feasibility threshold is
        # met with equality; its supremum sum rate coincides with the
        # joint-decoding value
        cf_col.append(val)
        norelay_col.append(direct_mac_region(state, power, beta, cfg.norelay_boost).isum)
    columns = {
        "sigma_q2_opt": tuple(sigma_col),
        "gqf_sum": tuple(gqf_col),
        "cf_sum": tuple(cf_col),
        "norelay_sum": tuple(norelay_col),
    }
    return SweepResult("beta", cfg.beta_grid, columns, _metadata(cfg))


def _profile_at(cfg: ExperimentConfig, sigma_rd2=None) -> FadingProfile:
    return FadingProfile(
        cfg.var_1d,
        cfg.var_2d,
        cfg.var_1r,
        cfg.var_2r,
        cfg.var_rd if sigma_rd2 is None else sigma_rd2,
    )


def _run_fading_point(cfg, profile, power, columns):
    """Evaluate every requested scheme at one sweep point on shared draws."""
    base_target = RateTarget(cfg.r1, cfg.r2, cfg.ru)
    for token in cfg.schemes:
        scheme, optimized = SCHEME_TOKENS[token]
        if optimized:
            ru_star, est = optimize_ru_grid(
                profile, power, cfg.beta, base_target, cfg.ru_grid,
                cfg.n_samples, cfg.seed, scheme=scheme,
            )
            columns.setdefault(f"{token}_ru", []).append(ru_star)
            used_ru = ru_star
        else:
            est = common_outage_mc(
                scheme, profile, power, cfg.beta, base_target,
                cfg.n_samples, cfg.seed,
            )
            used_ru = cfg.ru
        columns.setdefault(f"{token}_p", []).append(est.p_hat)
        columns.setdefault(f"{token}_ci", []).append(est.ci95_halfwidth)
        columns.setdefault(f"{token}_rbar", []).append(
            expected_sum_rate_common(base_target, est)
        )
        if cfg.individual and SCHEMES[scheme].regions is not None:
            ind = individual_outage_mc(
                profile, power, cfg.beta, RateTarget(cfg.r1, cfg.r2, used_ru),
                cfg.n_samples, cfg.seed, scheme=scheme,
            )
            columns.setdefault(f"{token}_p_indiv1", []).append(ind.p_indiv1)
            columns.setdefault(f"{token}_p_indiv2", []).append(ind.p_indiv2)
            columns.setdefault(f"{token}_rbar_indiv", []).append(
                expected_sum_rate_indiv(base_target, ind.p_indiv1, ind.p_indiv2)
            )


def _run_fading_snr_sweep(cfg: ExperimentConfig) -> SweepResult:
    profile = _profile_at(cfg)
    columns: dict = {}
    for snr_db in cfg.snr_db_grid:
        power = PowerConfig.from_snr_db(snr_db, cfg.beta)
        _run_fading_point(cfg, profile, power, columns)
    columns = {k: tuple(v) for k, v in columns.items()}
    return SweepResult("snr_db", cfg.snr_db_grid, columns, _metadata(cfg))


def _run_fading_sigmard_sweep(cfg: ExperimentConfig) -> SweepResult:
    power = PowerConfig.from_snr_db(cfg.snr_db, cfg.beta)
    columns: dict = {}
    for sigma_rd2 in cfg.sigma_rd2_grid:
        _run_fading_point(cfg, _profile_at(cfg, sigma_rd2), power, columns)
    columns = {k: tuple(v) for k, v in columns.items()}
    return SweepResult("sigma_rd2", cfg.sigma_rd2_grid, columns, _metadata(cfg))


_RUNNERS = {
    "static_sigma_sweep": _run_sigma_sweep,
    "static_beta_sweep": _run_beta_sweep,
    "fading_snr_sweep": _run_fading_snr_sweep,
    "fading_sigmard_sweep": _run_fading_sigmard_sweep,
}


def run_experiment(cfg: ExperimentConfig) -> SweepResult:
    """Run one experiment; deterministic for a fixed config."""
    return _RUNNERS[cfg.kind](cfg)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def _fig3() -> ExperimentConfig:
    return ExperimentConfig(kind="static_sigma_sweep", preset="fig3", out="fig3.csv")


def _fig4() -> ExperimentConfig:
    return ExperimentConfig(kind="static_beta_sweep", preset="fig4", out="fig4.csv")


def _fig5() -> ExperimentConfig:
    return ExperimentConfig(
        kind="fading_snr_sweep",
        preset="fig5",
        out="fig5.csv",
        schemes=("gqf", "csit", "nonwz_cf", "df", "af", "direct", "direct15"),
    )


def _fig6() -> ExperimentConfig:
    return ExperimentConfig(
        kind="fading_snr_sweep",
        preset="fig6",
        out="fig6.csv",
        schemes=("gqf", "gqf_opt", "csit", "nonwz_cf_opt", "df", "af", "direct", "direct15"),
    )


def _fig7() -> ExperimentConfig:
    return ExperimentConfig(
        kind="fading_sigmard_sweep",
        preset="fig7",
        out="fig7.csv",
        snr_db=10.0,
        schemes=("gqf_opt", "csit", "nonwz_cf_opt", "df", "af", "direct", "direct15"),
    )


def _fig8() -> ExperimentConfig:
    return ExperimentConfig(
        kind="fading_sigmard_sweep",
        preset="fig8",
        out="fig8.csv",
        snr_db=10.0,
        schemes=("gqf_opt", "nonwz_cf_opt", "direct"),
        individual=True,
    )


PRESETS = {
    "fig3": _fig3,
    "fig4": _fig4,
    "fig5": _fig5,
    "fig6": _fig6,
    "fig7": _fig7,
    "fig8": _fig8,
}


def preset_config(name: str, **overrides) -> ExperimentConfig:
    """Materialize a preset config, optionally overriding any field."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; known: {sorted(PRESETS)}")
    cfg = PRESETS[name]()
    if overrides:
        try:
            cfg = replace(cfg, **overrides)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
    return cfg

