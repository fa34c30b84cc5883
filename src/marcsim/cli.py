"""Command-line entry point.

    sim run <config.yaml>        run an experiment from a config file
    sim preset <name>            run a shipped preset (fig3..fig8, fig8_hetero)
    sim validate <config.yaml>   check a config file and exit

Exit status: 0 on success, 2 on configuration errors (including a config
file that cannot be read, an output path that cannot be written and two
output paths that name one file), 1 on numerical degeneracy (including a
kernel value beyond the float range in a fading run).
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from pathlib import Path

from .config import ConfigError, config_from_dict, config_to_dict, dump_config, load_config
from .experiments import PRESETS, preset_config, run_experiment
from .info import DegenerateCovarianceError
from .rates import FeasibilityError


def _parse_overrides(pairs):
    import yaml
    out = {}
    for pair in pairs or ():
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ConfigError(f"override {pair!r} is not of the form key=value")
        try:
            out[key] = yaml.safe_load(raw)
        except (yaml.YAMLError, ValueError) as exc:  # ValueError: an int over the digit limit
            raise ConfigError(f"override value {raw!r} is not valid YAML: {exc}") from exc
    return out


def _apply_common(cfg, args):
    updates = _parse_overrides(args.override)
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.samples is not None:
        updates["n_samples"] = args.samples
    if args.out is not None:
        updates["out"] = args.out
    if args.json_out is not None:
        updates["json_out"] = args.json_out
    if not updates:
        return cfg
    return config_from_dict({**config_to_dict(cfg), **updates})


def _write(path, text: str) -> None:
    """Write ``text`` to ``path``; a path that cannot be written is a
    configuration error."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _check_writable(*paths) -> None:
    """Fail as :func:`_write` would, for the OS's reason, on each output path
    whose directory cannot be reached or that is a directory, and on two
    output paths that name one file (the later write would replace the
    earlier), before anything is run or written.  An existing file is known
    by its device and inode, so two hard links to it name one file."""
    seen = {}
    for path in filter(None, paths):
        p = Path(path)
        try:  # the trailing separator makes a parent that is a file fail as the write does
            os.stat(os.path.join(p.parent, ""))
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc
        if p.is_dir():
            raise ConfigError(f"cannot write {path}: {os.strerror(errno.EISDIR)}")
        st = p.stat() if p.exists() else None
        key = p.resolve() if st is None else (st.st_dev, st.st_ino)
        if key in seen:
            raise ConfigError(f"{seen[key]} and {path} name the same output file")
        seen[key] = path


def _run_and_write(cfg) -> int:
    result = run_experiment(cfg)
    _write(cfg.out, result.to_csv_text())
    if cfg.json_out:
        _write(cfg.json_out, result.to_json_text())
    print(f"wrote {cfg.out}" + (f" and {cfg.json_out}" if cfg.json_out else ""))
    return 0


def _add_common(sub):
    sub.add_argument("--seed", type=int, help="master seed")
    sub.add_argument("--samples", type=int, help="Monte Carlo draws per sweep point")
    sub.add_argument("--out", help="output CSV path")
    sub.add_argument("--json-out", dest="json_out", help="optional JSON mirror path")
    sub.add_argument(
        "--override",
        action="append",
        metavar="KEY=VALUE",
        help="override any config field (value parsed as YAML); repeatable",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sim",
        description="relay-network rate, outage and throughput sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("config", help="YAML config path")
    _add_common(p_run)

    p_preset = sub.add_parser("preset", help="run a shipped preset")
    p_preset.add_argument("name", choices=sorted(PRESETS), help="preset name")
    _add_common(p_preset)
    p_preset.add_argument(
        "--emit-config", dest="emit_config", help="also write the materialized config"
    )

    p_val = sub.add_parser("validate", help="check a config file")
    p_val.add_argument("config", help="YAML config path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            cfg = load_config(args.config)
            print(f"ok: {args.config} ({cfg.kind})")
            return 0
        if args.command == "run":
            cfg, emit = _apply_common(load_config(args.config), args), None
        else:
            cfg, emit = _apply_common(preset_config(args.name), args), args.emit_config
        _check_writable(cfg.out, cfg.json_out, emit)
        if emit:
            _write(emit, dump_config(cfg))
        return _run_and_write(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DegenerateCovarianceError, FeasibilityError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 1
    except (FloatingPointError, OverflowError) as exc:
        print(f"numerical error: a kernel value leaves the float range ({exc})", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
