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
from typing import Callable, NamedTuple

import numpy as np

from .channel import (
    ChannelState,
    FadingProfile,
    PowerConfig,
    _check_beta,
    _check_grid,
    _check_index_rate,
    _check_samples,
    _check_sigma_q2,
    _check_u64,
    _check_variance,
    _linear_snr,
)
from .rates import SCHEMES, RateTarget, _links, _scheme, _static_model

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "KINDS",
    "SCHEME_TOKENS",
    "config_from_dict",
    "config_to_dict",
    "dump_config",
    "load_config",
]


class Sweep(NamedTuple):
    name: str  # the swept quantity; its grid is the field <name>_grid
    fading: bool  # Monte Carlo over fading draws, else a static channel
    check: Callable  # the model's rule for one grid value: check(value, name)


#: every sweep kind; a new kind takes an entry here and a runner in experiments
KINDS = {
    "static_sigma_sweep": Sweep("sigma_q2", fading=False, check=_check_sigma_q2),
    "static_beta_sweep": Sweep("beta", fading=False, check=_check_beta),
    "fading_snr_sweep": Sweep("snr_db", fading=True, check=_linear_snr),
    "fading_sigmard_sweep": Sweep("sigma_rd2", fading=True, check=_check_variance),
}

#: per-sweep-point series the fading sweeps can emit, mapped to (scheme,
#: optimized): every Monte Carlo scheme, and for each scheme with a relay
#: index rate a "<scheme>_opt" series that picks the rate from ru_grid by
#: minimizing outage on shared draws
SCHEME_TOKENS = {
    token: (name, token != name)
    for name, scheme in SCHEMES.items()
    for token in ((name, f"{name}_opt") if scheme.recover is not None else (name,))
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
    ru_grid: tuple[float, ...] = _DEFAULT_RU_GRID

    # fading scenarios
    schemes: tuple[str, ...] = ("gqf", "csit", "nonwz_cf", "df", "af", "direct", "direct15")
    snr_db: float = 10.0
    snr_db_grid: tuple[float, ...] = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    var_1d: float = 1.0
    var_2d: float = 1.0
    var_1r: float = 1.0
    var_2r: float = 1.0
    var_rd: float = 1.0
    sigma_rd2_grid: tuple[float, ...] = (0.001, 0.01, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0)
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
    sigma_q2_grid: tuple[float, ...] = _DEFAULT_SIGMA_GRID
    beta_grid: tuple[float, ...] = _DEFAULT_BETA_GRID

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _COERCE[f.type](f.name, getattr(self, f.name)))
        self.validate()

    def validate(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown kind {self.kind!r}; known: {tuple(KINDS)}")
        if not self.out:
            raise ConfigError("out must be a file path, got ''")
        sweep = KINDS[self.kind]
        if sweep.fading:
            if not self.schemes:
                raise ConfigError("schemes must be non-empty")
            for token in self.schemes:
                if token not in SCHEME_TOKENS:
                    raise ConfigError(
                        f"unknown scheme {token!r}; known: {tuple(SCHEME_TOKENS)}"
                    )
            if len(set(self.schemes)) != len(self.schemes):
                raise ConfigError("schemes must not repeat")
        # every other rule is the model's: build the model from every scalar
        # field, used by this kind or not, and what the run builds, so a value
        # it rejects or a kernel input beyond the float range is a config error
        try:
            _check_samples(self.n_samples, "n_samples")
            _check_u64(self.seed, "seed")
            # each grid value by the model's own rule, called with the grid's
            # name: the model built below names only the argument it fills
            grids = ((f"{sweep.name}_grid", sweep.check), ("ru_grid", _check_index_rate))
            for name, check in grids:
                grid = getattr(self, name)
                _check_grid(grid, name)
                for value in grid:
                    check(value, f"each value of {name}")
            _check_index_rate(self.ru, "ru")
            RateTarget(self.r1, self.r2, self.ru)  # r1, r2; each ru passed the stricter rule
            FadingProfile(self.var_1d, self.var_2d, self.var_1r, self.var_2r, self.var_rd)
            PowerConfig.from_snr_db(self.snr_db, self.beta)
            state, power = self.static_channel()
            with np.errstate(all="raise", under="ignore"):
                _links(state.gains(), power)
                if sweep.fading:
                    for token in self.schemes:  # each scheme's rules, e.g. its slot split
                        _scheme(SCHEME_TOKENS[token][0], self.beta, None)
                    self.fading_points()
                else:
                    self._static_sweep()
        except FloatingPointError as exc:
            raise ConfigError(f"static channel values leave the float range: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    @property
    def sweep_values(self) -> tuple:
        """The grid of the quantity this kind sweeps."""
        return getattr(self, f"{KINDS[self.kind].name}_grid")

    def _swept(self, name) -> tuple:
        """The grid of ``name`` if this kind sweeps it, else ()."""
        return self.sweep_values if KINDS[self.kind].name == name else ()

    def _static_sweep(self):
        """``rates._static_model`` of a static kind over its grid: the one
        call that both ``validate`` and the static runners make."""
        return _static_model(*self.static_channel(), self._swept("beta") or self.beta,
                             self._swept("sigma_q2") or None)

    def static_channel(self) -> tuple[ChannelState, PowerConfig]:
        """Channel state and powers of a static kind."""
        return (
            ChannelState(self.h1d, self.h2d, self.h1r, self.h2r, self.hrd),
            PowerConfig(self.p11, self.p21, self.p12, self.p22, self.pr),
        )

    def fading_points(self) -> list[tuple[FadingProfile, PowerConfig]]:
        """Fading profile and powers at every point of a fading sweep: the
        SNR sets the powers and sigma_rd2 the relay-destination variance,
        each from the grid if the kind sweeps it, else from its field."""
        var = (self.var_1d, self.var_2d, self.var_1r, self.var_2r)
        return [
            (FadingProfile(*var, var_rd), PowerConfig.from_snr_db(snr, self.beta))
            for snr in self._swept("snr_db") or (self.snr_db,)
            for var_rd in self._swept("sigma_rd2") or (self.var_rd,)
        ]


def _got(value) -> str:
    """The end of a type error: the value given and its type (YAML 1.1
    reads ``1e-3`` or ``1.0e300`` as a string, so the user sees why)."""
    return f", got {value!r} ({type(value).__name__})"


def _typed(types, what):
    """Rule passing a value of ``types`` through; a bool only where asked for."""

    def rule(name, value):
        if not isinstance(value, types) or isinstance(value, bool) != (types is bool):
            raise ConfigError(f"{name} must be {what}{_got(value)}")
        return value

    return rule


def _float(name, value):
    try:
        value = float(_typed((int, float), "a number")(name, value))
    except OverflowError as exc:
        raise ConfigError(f"{name} is too large for a float") from exc
    if math.isnan(value):
        raise ConfigError(f"{name} must be a number, got nan")
    return value


def _tuple(item, what):
    """Rule taking a list or tuple (no other iterable) of values, each by ``item``."""

    def rule(name, values):
        if not isinstance(values, (list, tuple)):
            raise ConfigError(f"{name} must be a list of {what}{_got(values)}")
        return tuple(item(f"each value of {name}", v) for v in values)

    return rule


_str = _typed(str, "a string")
#: the coercion and type check of each field, by its annotation
_COERCE = {
    "int": _typed(int, "an integer"),
    "float": _float,
    "bool": _typed(bool, "a boolean"),
    "str": _str,
    "tuple[float, ...]": _tuple(_float, "numbers"),
    "tuple[str, ...]": _tuple(_str, "strings"),
}


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
    unknown = set(data) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown, key=str)}")
    if "kind" not in data:
        raise ConfigError("config needs a 'kind'")
    try:
        return ExperimentConfig(**data)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def dump_config(cfg: ExperimentConfig) -> str:
    """Deterministic YAML text for the config."""
    import yaml
    return yaml.safe_dump(config_to_dict(cfg), sort_keys=True, default_flow_style=False)


def load_config(path) -> ExperimentConfig:
    import yaml
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = yaml.safe_load(text)
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: an int over the digit limit
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
    return config_from_dict(data)
