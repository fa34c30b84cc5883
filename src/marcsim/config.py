"""Experiment configuration: a flat YAML file of scalars and lists.

One schema covers both shipped presets and ad-hoc runs, so reproducing a
figure and running a custom scenario share a single code path.  Configs
round-trip exactly: ``config_from_dict(yaml.safe_load(dump_config(cfg)))``
equals ``cfg``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import yaml

from .channel import ChannelState, FadingProfile, PowerConfig
from .outage import SCHEMES, RateTarget
from .rates import _links, direct_mac_region, gqf_min_terms_gaussian, sigma_q2_opt_sum

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "KINDS",
    "SCHEME_TOKENS",
    "config_from_dict",
    "config_to_dict",
    "dump_config",
    "load_config",
    "save_config",
]

KINDS = (
    "static_sigma_sweep",
    "static_beta_sweep",
    "fading_snr_sweep",
    "fading_sigmard_sweep",
)

#: per-sweep-point series the fading sweeps can emit, mapped to (scheme,
#: optimized): every Monte Carlo scheme, and for each scheme with a relay
#: index rate a "<scheme>_opt" series that picks the rate from ru_grid by
#: minimizing outage on shared draws
SCHEME_TOKENS = {
    token: (name, token != name)
    for name, scheme in SCHEMES.items()
    for token in ((name, f"{name}_opt") if scheme.regions is not None else (name,))
}

_DEFAULT_SIGMA_GRID = tuple(round(0.05 * i, 10) for i in range(1, 201))
_DEFAULT_BETA_GRID = tuple(round(0.025 * i, 10) for i in range(1, 40))
_DEFAULT_RU_GRID = (0.1, 0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0)


class ConfigError(ValueError):
    """The configuration file or overrides are invalid."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat description of one experiment run."""

    kind: str
    preset: str = ""
    seed: int = 12345
    n_samples: int = 100_000
    out: str = "sweep.csv"
    json_out: str = ""

    # slot split and rate targets
    beta: float = 0.5
    r1: float = 1.0
    r2: float = 1.0
    ru: float = 3.0
    ru_grid: tuple = _DEFAULT_RU_GRID

    # fading scenarios
    schemes: tuple = ("gqf", "csit", "nonwz_cf", "df", "af", "direct", "direct15")
    snr_db: float = 10.0
    snr_db_grid: tuple = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    var_1d: float = 1.0
    var_2d: float = 1.0
    var_1r: float = 1.0
    var_2r: float = 1.0
    var_rd: float = 1.0
    sigma_rd2_grid: tuple = (0.001, 0.01, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0)
    individual: bool = False

    # static scenarios
    h1d: float = 1.0
    h2d: float = 1.0
    h1r: float = 3.0
    h2r: float = 0.5
    hrd: float = 3.0
    p11: float = 1.0
    p21: float = 1.0
    p12: float = 1.0
    p22: float = 1.0
    pr: float = 1.0
    norelay_boost: float = 1.5
    sigma_q2_grid: tuple = _DEFAULT_SIGMA_GRID
    beta_grid: tuple = _DEFAULT_BETA_GRID

    def __post_init__(self):
        object.__setattr__(self, "ru_grid", _float_tuple("ru_grid", self.ru_grid))
        object.__setattr__(self, "schemes", _str_tuple("schemes", self.schemes))
        object.__setattr__(self, "snr_db_grid", _float_tuple("snr_db_grid", self.snr_db_grid))
        object.__setattr__(
            self, "sigma_rd2_grid", _float_tuple("sigma_rd2_grid", self.sigma_rd2_grid)
        )
        object.__setattr__(self, "sigma_q2_grid", _float_tuple("sigma_q2_grid", self.sigma_q2_grid))
        object.__setattr__(self, "beta_grid", _float_tuple("beta_grid", self.beta_grid))
        self.validate()

    def validate(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown kind {self.kind!r}; known: {KINDS}")
        for name, kind in _FIELD_TYPES.items():
            if kind == "float" and math.isnan(getattr(self, name)):
                raise ConfigError(f"{name} must be a number, got nan")
        if self.n_samples < 1:
            raise ConfigError("n_samples must be >= 1")
        if not (0 <= self.seed < 2**64):
            raise ConfigError("seed must fit in an unsigned 64-bit integer")
        if not 0.0 < self.beta < 1.0:
            raise ConfigError("beta must lie in (0, 1)")
        if self.r1 < 0.0 or self.r2 < 0.0 or self.ru <= 0.0:
            raise ConfigError("need r1, r2 >= 0 and ru > 0")
        for name in ("var_1d", "var_2d", "var_1r", "var_2r", "var_rd"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"{name} must be > 0")
        if not (math.isfinite(self.norelay_boost) and self.norelay_boost >= 1.0):
            raise ConfigError("norelay_boost must be finite and >= 1")
        grid_name = {
            "static_sigma_sweep": "sigma_q2_grid",
            "static_beta_sweep": "beta_grid",
            "fading_snr_sweep": "snr_db_grid",
            "fading_sigmard_sweep": "sigma_rd2_grid",
        }[self.kind]
        for name in (grid_name, "ru_grid"):
            grid = getattr(self, name)
            if not grid:
                raise ConfigError(f"{name} must be non-empty")
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ConfigError(f"{name} must be strictly increasing")
        if self.ru_grid[0] <= 0.0:
            raise ConfigError("ru_grid values must be > 0")
        if self.kind == "static_sigma_sweep" and self.sigma_q2_grid[0] <= 0.0:
            raise ConfigError("sigma_q2_grid values must be > 0")
        if self.kind == "static_beta_sweep" and not (
            0.0 < self.beta_grid[0] and self.beta_grid[-1] < 1.0
        ):
            raise ConfigError("beta_grid values must lie in (0, 1)")
        if self.kind == "fading_sigmard_sweep" and self.sigma_rd2_grid[0] <= 0.0:
            raise ConfigError("sigma_rd2_grid values must be > 0")
        if self.kind.startswith("fading"):
            if not self.schemes:
                raise ConfigError("schemes must be non-empty")
            for token in self.schemes:
                if token not in SCHEME_TOKENS:
                    raise ConfigError(
                        f"unknown scheme {token!r}; known: {tuple(SCHEME_TOKENS)}"
                    )
                scheme = SCHEMES[SCHEME_TOKENS[token][0]]
                if not scheme.allows(self.beta):
                    raise ConfigError(f"scheme {token!r} needs beta = {scheme.beta}")
            if len(set(self.schemes)) != len(self.schemes):
                raise ConfigError("schemes must not repeat")
        # build what the run builds (and the static link powers for every
        # kind), so that a value the channel model rejects or a kernel
        # input beyond the float range is a config error
        try:
            state, power = self.static_channel()
            with np.errstate(all="raise", under="ignore"):
                _links(state.gains(), power)
                if self.kind.startswith("static"):
                    self._static_kernels(state, power)
            if self.kind.startswith("fading"):
                self.fading_points()
                for ru in (self.ru, *self.ru_grid):
                    RateTarget(self.r1, self.r2, ru)
        except FloatingPointError as exc:
            raise ConfigError(f"static channel values leave the float range: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def _static_kernels(self, state, power):
        """Evaluate the kernels of a static run at every beta it uses: the
        equalizer variance, the min-terms there and the boosted no-relay
        region.  A sigma sweep's relay term is largest at its smallest
        variance, so the min-terms there bound every other grid point."""
        betas = self.beta_grid if self.kind == "static_beta_sweep" else (self.beta,)
        sigmas = self.sigma_q2_grid[:1] if self.kind == "static_sigma_sweep" else ()
        for beta in betas:
            direct_mac_region(state, power, beta, self.norelay_boost)
            for s in (sigma_q2_opt_sum(state, power, beta), *sigmas):
                gqf_min_terms_gaussian(state, power, beta, s)

    def static_channel(self) -> tuple[ChannelState, PowerConfig]:
        """Channel state and powers of a static kind."""
        return (
            ChannelState(self.h1d, self.h2d, self.h1r, self.h2r, self.hrd),
            PowerConfig(self.p11, self.p21, self.p12, self.p22, self.pr),
        )

    def fading_points(self) -> list[tuple[FadingProfile, PowerConfig]]:
        """Fading profile and powers at every point of a fading sweep: the
        SNR grid sets the powers, the sigma_rd2 grid the relay-destination
        variance."""
        var = (self.var_1d, self.var_2d, self.var_1r, self.var_2r)
        if self.kind == "fading_snr_sweep":
            profile = FadingProfile(*var, self.var_rd)
            return [(profile, PowerConfig.from_snr_db(x, self.beta)) for x in self.snr_db_grid]
        power = PowerConfig.from_snr_db(self.snr_db, self.beta)
        return [(FadingProfile(*var, x), power) for x in self.sigma_rd2_grid]


def _float_tuple(name, values):
    try:
        out = tuple(float(v) for v in values)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name} must be a list of numbers") from exc
    if any(math.isnan(v) for v in out):
        raise ConfigError(f"{name} must be a list of numbers, got nan")
    return out


def _str_tuple(name, values):
    if isinstance(values, str):
        raise ConfigError(f"{name} must be a list of strings")
    try:
        return tuple(str(v) for v in values)
    except TypeError as exc:
        raise ConfigError(f"{name} must be a list of strings") from exc


_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Plain-type mapping of the config (tuples become lists)."""
    out = {}
    for f in fields(ExperimentConfig):
        v = getattr(cfg, f.name)
        out[f.name] = list(v) if isinstance(v, tuple) else v
    return out


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("config must be a mapping of keys to values")
    unknown = set(data) - set(_FIELD_TYPES)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "kind" not in data:
        raise ConfigError("config needs a 'kind'")
    coerced = {}
    for name, value in data.items():
        kind = _FIELD_TYPES[name]
        if kind == "int":
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer")
            coerced[name] = value
        elif kind == "float":
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"{name} must be a number")
            try:
                coerced[name] = float(value)
            except OverflowError as exc:
                raise ConfigError(f"{name} is too large for a float") from exc
        elif kind == "bool":
            if not isinstance(value, bool):
                raise ConfigError(f"{name} must be a boolean")
            coerced[name] = value
        elif kind == "str":
            if not isinstance(value, str):
                raise ConfigError(f"{name} must be a string")
            coerced[name] = value
        else:  # tuple-valued
            coerced[name] = value
    try:
        return ExperimentConfig(**coerced)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc


def dump_config(cfg: ExperimentConfig) -> str:
    """Deterministic YAML text for the config."""
    return yaml.safe_dump(config_to_dict(cfg), sort_keys=True, default_flow_style=False)


def save_config(cfg: ExperimentConfig, path) -> None:
    Path(path).write_text(dump_config(cfg))


def load_config(path) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
    return config_from_dict(data)
