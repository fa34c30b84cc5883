"""Tests of config round-tripping, the sweep runner, presets and the CLI."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import marcsim
from marcsim.cli import main
from marcsim.config import (
    SCHEME_TOKENS,
    ConfigError,
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    dump_config,
    load_config,
)
from marcsim.experiments import (
    PRESETS,
    preset_config,
    run_experiment,
)


def test_config_round_trip_all_presets():
    for name in PRESETS:
        cfg = preset_config(name)
        again = config_from_dict(yaml.safe_load(dump_config(cfg)))
        assert again == cfg


def test_config_round_trip_custom():
    cfg = ExperimentConfig(
        kind="fading_snr_sweep",
        seed=7,
        n_samples=1234,
        snr_db_grid=(0.0, 10.0),
        schemes=("gqf", "direct"),
        ru=2.5,
    )
    again = config_from_dict(yaml.safe_load(dump_config(cfg)))
    assert again == cfg


def test_config_rejects_bad_input():
    with pytest.raises(ConfigError):
        config_from_dict({"kind": "nope"})
    with pytest.raises(ConfigError):
        config_from_dict({"kind": "fading_snr_sweep", "mystery_knob": 3})
    with pytest.raises(ConfigError):
        config_from_dict({"kind": "fading_snr_sweep", "schemes": ["gqf", "warp"]})
    with pytest.raises(ConfigError):
        config_from_dict({"kind": "fading_snr_sweep", "snr_db_grid": [10.0, 5.0]})
    with pytest.raises(ConfigError, match="scheme 'af' needs beta = 0.5"):
        config_from_dict({"kind": "fading_snr_sweep", "beta": 0.4, "schemes": ["af"]})
    with pytest.raises(ConfigError):
        config_from_dict({"kind": "fading_snr_sweep", "n_samples": 0})
    with pytest.raises(ConfigError):
        config_from_dict([1, 2, 3])
    with pytest.raises(ConfigError):  # unknown keys of mixed types, as YAML can give
        config_from_dict({"kind": "fading_snr_sweep", 1: 2, "mystery_knob": 3})


def test_unknown_preset():
    with pytest.raises(ConfigError):
        preset_config("fig9")


def test_preset_overrides_are_type_checked():
    with pytest.raises(ConfigError):
        preset_config("fig5", seed=1.5)
    with pytest.raises(ConfigError):
        preset_config("fig5", n_samples=100.5)


@pytest.mark.parametrize(
    "field, value", [("n_samples", True), ("seed", 1.5), ("snr_db", "10"), ("individual", 1)]
)
def test_direct_config_is_type_checked(field, value):
    # a config built without config_from_dict gets the same field checks
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="fading_snr_sweep", **{field: value})


@pytest.mark.parametrize(
    "override", ['snr_db_grid="12"', "snr_db_grid=[true, 5]", 'ru_grid=[0.5, "1"]']
)
def test_cli_list_fields_take_numbers_only(tmp_path, capsys, override):
    # a list field takes each value by the scalar float rule: a string, a
    # bool inside the list or a string for the whole list is a config error
    out = tmp_path / "out.csv"
    argv = ["preset", "fig5", "--samples", "100", "--out", str(out), "--override", override]
    assert main(argv) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "override, shown",
    [
        ("r1=1.0e300", "r1 must be a number, got '1.0e300' (str)"),
        ("snr_db=1e-3", "snr_db must be a number, got '1e-3' (str)"),
        ("snr_db_grid=[1.0e+1, 1e1]",
         "each value of snr_db_grid must be a number, got '1e1' (str)"),
        ("snr_db_grid=1.0e+1", "snr_db_grid must be a list of numbers, got 10.0 (float)"),
        ("schemes=gqf", "schemes must be a list of strings, got 'gqf' (str)"),
        # each scheme by the scalar string rule, as each grid value by the
        # float rule
        ("schemes=[1]", "each value of schemes must be a string, got 1 (int)"),
        ("schemes=[true]", "each value of schemes must be a string, got True (bool)"),
        ("schemes=[null]", "each value of schemes must be a string, got None (NoneType)"),
        ("seed=1.5", "seed must be an integer, got 1.5 (float)"),
    ],
)
def test_cli_type_errors_show_the_value(tmp_path, capsys, override, shown):
    # YAML 1.1 reads exponent notation without a dot or without a signed
    # exponent as a string, so the error shows what was read and its type
    out = tmp_path / "out.csv"
    argv = ["preset", "fig5", "--samples", "100", "--out", str(out), "--override", override]
    assert main(argv) == 2
    assert shown in capsys.readouterr().err
    assert not out.exists()


def test_building_a_config_does_not_import_yaml():
    # only reading or writing YAML text needs yaml, not the library path
    code = (
        "import sys, marcsim.experiments\n"
        "from marcsim.config import config_from_dict\n"
        "config_from_dict({'kind': 'fading_snr_sweep'})\n"
        "assert 'yaml' not in sys.modules\n"
    )
    src = str(Path(marcsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_building_a_config_draws_nothing(monkeypatch):
    # building and validating a config does no Monte Carlo work: every
    # preset builds with the block sampler and its seed streams disabled
    def no_draws(*args, **kwargs):
        raise AssertionError("a config build drew fading samples")

    monkeypatch.setattr("marcsim.channel._substream", no_draws)
    monkeypatch.setattr("marcsim.outage.sample_fading_block", no_draws)
    for name in PRESETS:
        config_from_dict(config_to_dict(preset_config(name)))


@pytest.mark.parametrize("preset, schemes, philox, sampler", [
    ("fig5", None, 7 * 2, 7 * 7 * 2),
    ("fig5", ("gqf",), 2, 7 * 2),
    ("fig8", None, 5 * 2, 5 * 9 * 2),  # 3 tokens, 2 of them also classify
])
def test_each_estimator_pass_draws_each_block_once(monkeypatch, preset, schemes, philox,
                                                   sampler):
    # every point of a sweep reads the same blocks: one estimator pass over
    # all the points draws each block's normals once, and each point still
    # asks the sampler for each of its blocks
    overrides = {"n_samples": marcsim.BLOCK_SIZE + 5}
    if schemes:
        overrides["schemes"] = schemes
    cfg = preset_config(preset, **overrides)
    counts = {"philox": 0, "sampler": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr("marcsim.channel._substream",
                        counted("philox", marcsim.channel._substream))
    monkeypatch.setattr("marcsim.outage.sample_fading_block",
                        counted("sampler", marcsim.outage.sample_fading_block))
    marcsim.channel._unit_normals.cache_clear()
    run_experiment(cfg)
    assert counts == {"philox": philox, "sampler": sampler}


def _checked_digest(text):
    """sha256 over the sweep column and every result column except the
    ``_ci`` ones, cell text as written."""
    rows = [line.split(",") for line in text.splitlines() if not line.startswith("#")]
    keep = [i for i, name in enumerate(rows[0]) if not name.endswith("_ci")]
    return hashlib.sha256(json.dumps([[r[i] for i in keep] for r in rows]).encode()).hexdigest()


@pytest.mark.parametrize(
    "preset, digest",
    [
        ("fig3", "48a845382187a917b2da2e787944b84776d21d483eb3e132e536686b4284128b"),
        ("fig4", "f45d882d84125a1b223e996f69a9135028758ccd1f0191236bf905264f7e6950"),
        ("fig5", "284c147e243fd6d8f6a6f6b1cc482ad6bbf861b097c18cb3321513b83c2ddd2b"),
        ("fig6", "d9889aa5aad55b14ac83bc18fe4cc109582ed8b349271057a674594c007ac4da"),
        ("fig7", "2add657aec3433c1f1ea93fcc79aba2044c88ce3e0a709f1d4d4a8605e0c9a13"),
        ("fig8", "b601a9be31777c448c50eaa5474f41ffee2f285aa34b2277336d1f59594e1780"),
        ("fig8_hetero", "8c5ead4b945e414bd8d7f4b0ac99900408928d3c42da82020853999a99f2bd27"),
    ],
)
def test_fading_preset_output_is_pinned(preset, digest):
    # 4101 draws are one full block and a short second one, so both the
    # full and the cut block path are pinned bit for bit; the static
    # presets fig3 and fig4 draw nothing and are pinned as they are
    res = run_experiment(preset_config(preset, n_samples=4101))
    assert _checked_digest(res.to_csv_text()) == digest


def test_fig3_reference_properties():
    res = run_experiment(preset_config("fig3"))  # default grid: step 0.05 up to 10
    best = max(res.columns["gqf_sum"])
    assert best == pytest.approx(1.1495, abs=1e-3)
    assert all(v == pytest.approx(1.0, abs=1e-12) for v in res.columns["norelay_sum"])
    # compress-forward matches the first min-term above threshold, and is
    # an infeasible marker (nan) below
    for s, cf, first in zip(
        res.sweep_values, res.columns["cf_sum"], res.columns["gqf_sum_first"]
    ):
        if s > 37.0 / 18.0:
            assert cf == first
        else:
            assert math.isnan(cf)


def _reject_constant(name):
    raise ValueError(f"JSON constant {name} is not standard JSON")


def test_fig4_interior_maximum_and_cf_match():
    res = run_experiment(preset_config("fig4"))
    vals = res.columns["gqf_sum"]
    # beta = 0.025 puts the equalizer variance near 2e-23, where the
    # index-charged bound must not cancel to -inf
    assert all(math.isfinite(v) for v in vals)
    json.loads(res.to_json_text(), parse_constant=_reject_constant)
    i = int(np.argmax(vals))
    assert 0 < i < len(vals) - 1
    assert res.columns["cf_sum"] == vals
    assert all(v == pytest.approx(1.0, abs=1e-12) for v in res.columns["norelay_sum"])


def test_fig4_runs_at_a_slot_split_near_zero(tmp_path):
    # at beta = 0.001 the equalizer variance is below the float range: it
    # reads 0, and the sum rate is the plain bound's limit there
    rows = {}
    for name, extra in (("near0", ["--override", "beta_grid=[0.001, 0.5]"]), ("default", [])):
        out = tmp_path / f"{name}.csv"
        assert main(["preset", "fig4", "--out", str(out), *extra]) == 0
        lines = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")]
        rows[name] = {cells[0]: dict(zip(lines[0], cells)) for cells in lines[1:]}
    low = rows["near0"]["0.001"]
    assert float(low["sigma_q2_opt"]) == 0.0
    assert math.isfinite(float(low["gqf_sum"])) and low["gqf_sum"] == low["cf_sum"]
    assert rows["near0"]["0.5"] == rows["default"]["0.5"]


def test_fading_snr_sweep_small():
    cfg = preset_config(
        "fig5", n_samples=4000, snr_db_grid=(5.0, 15.0), seed=3,
        schemes=("gqf", "csit", "direct"),
    )
    res = run_experiment(cfg)
    assert res.sweep_name == "snr_db"
    for token in cfg.schemes:
        assert len(res.columns[f"{token}_p"]) == 2
        p, ci = res.columns[f"{token}_p"][0], res.columns[f"{token}_ci"][0]
        # the 95% Wilson score interval, centre +- half, lies within p +- ci
        z, n = 1.96, 4000
        centre = (p + z * z / (2 * n)) / (1 + z * z / n)
        half = z / (1 + z * z / n) * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
        assert ci == pytest.approx(max(p - centre + half, centre + half - p), abs=1e-15)
    assert res.metadata["seed"] == 3
    # shared draws: fixed-rate relay never beats the full-CSI relay
    assert all(
        g >= c
        for g, c in zip(res.columns["gqf_p"], res.columns["csit_p"])
    )


def test_fading_sigmard_sweep_individual_columns():
    cfg = preset_config(
        "fig8", n_samples=4000, sigma_rd2_grid=(0.01, 10.0), seed=5,
        ru_grid=(0.5, 1.0, 3.0),
    )
    res = run_experiment(cfg)
    for token in ("gqf_opt", "nonwz_cf_opt"):
        p1 = res.columns[f"{token}_p_indiv1"]
        p2 = res.columns[f"{token}_p_indiv2"]
        pc = res.columns[f"{token}_p"]
        for a, b, c in zip(p1, p2, pc):
            assert a <= c + 1e-15 and b <= c + 1e-15
            assert a + b - c >= -1e-15
        ru_col = res.columns[f"{token}_ru"]
        assert all(r in cfg.ru_grid for r in ru_col)
        for ri, rc in zip(res.columns[f"{token}_rbar_indiv"], res.columns[f"{token}_rbar"]):
            assert ri >= rc - 1e-12


def test_individual_columns_only_for_index_rate_schemes():
    # fig7 runs every scheme; under individual: true only the tokens whose
    # scheme has a relay index rate (and so a single-user rule) get
    # individual columns, the others are skipped
    res = run_experiment(preset_config("fig7", individual=True, n_samples=300,
                                       sigma_rd2_grid=(1.0,)))
    suffixes = ("_p_indiv1", "_p_indiv2", "_rbar_indiv")
    for suffix in suffixes:
        tokens = {c[: -len(suffix)] for c in res.columns if c.endswith(suffix)}
        assert tokens == {"gqf_opt", "nonwz_cf_opt"}, suffix
    plain = {c for c in res.columns if not c.endswith(suffixes)}
    assert {c[: c.rindex("_")] for c in plain} == set(PRESETS["fig7"]["schemes"])


def test_run_byte_identical():
    cfg = preset_config(
        "fig5", n_samples=2000, snr_db_grid=(10.0,), seed=11, schemes=("gqf", "direct"),
    )
    res1 = run_experiment(cfg)
    assert run_experiment(cfg).to_csv_text() == res1.to_csv_text()
    payload = json.loads(res1.to_json_text())
    assert payload["metadata"]["seed"] == 11
    assert payload["columns"]["gqf_p"] == list(res1.columns["gqf_p"])


@pytest.mark.parametrize(
    "preset, override, values",
    [
        ("fig3", "sigma_q2_grid=[1.0, .inf]", [1.0, "inf"]),
        ("fig5", "snr_db_grid=[-.inf, 0]", ["-inf", 0.0]),
    ],
)
def test_json_mirror_is_strict_json(tmp_path, preset, override, values):
    # an infinite grid value is written as the CSV writes it, "inf" or
    # "-inf", in the sweep values and the metadata alike
    out, js = tmp_path / "out.csv", tmp_path / "out.json"
    argv = ["preset", preset, "--samples", "200", "--out", str(out), "--json-out", str(js),
            "--override", override]
    assert main(argv) == 0
    payload = json.loads(js.read_text(), parse_constant=_reject_constant)
    assert payload["sweep_values"] == values
    assert payload["metadata"][f"{payload['sweep_name']}_grid"] == values
    rows = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    assert [row.split(",")[0] for row in rows[1:]] == [
        v if isinstance(v, str) else repr(v) for v in values
    ]


def test_csv_layout_and_nan_cells(tmp_path):
    res = run_experiment(
        preset_config("fig3", sigma_q2_grid=(0.5, 3.0), out=str(tmp_path / "f.csv"))
    )
    text = res.to_csv_text()
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    assert header[0] == "sigma_q2"
    assert "cf_sum" in header
    row_below = lines[1].split(",")
    assert row_below[header.index("cf_sum")] == ""  # infeasible below threshold
    payload = json.loads(res.to_json_text())
    assert payload["columns"]["cf_sum"][0] is None


def test_cli_preset_and_validate(tmp_path):
    out = tmp_path / "fig3.csv"
    cfgp = tmp_path / "fig3.yaml"
    code = main(
        ["preset", "fig3", "--out", str(out), "--emit-config", str(cfgp),
         "--override", "sigma_q2_grid=[0.5, 1.0, 3.0]"]
    )
    assert code == 0
    assert out.exists()
    assert main(["validate", str(cfgp)]) == 0
    cfg = load_config(cfgp)
    assert cfg.sigma_q2_grid == (0.5, 1.0, 3.0)
    # run path consumes the emitted config unchanged
    out2 = tmp_path / "fig3b.csv"
    assert main(["run", str(cfgp), "--out", str(out2)]) == 0
    a = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    b = [l for l in out2.read_text().splitlines() if not l.startswith("#")]
    assert a == b


@pytest.mark.parametrize(
    "kind, field, grid, code",
    [
        ("static_sigma_sweep", "sigma_q2_grid", [0.0, 1.0], 2),
        ("static_sigma_sweep", "sigma_q2_grid", [-1.0, 1.0], 2),
        ("static_sigma_sweep", "sigma_q2_grid", [-math.inf, 1.0], 2),
        ("static_sigma_sweep", "sigma_q2_grid", [1.0, math.inf], 0),
        ("static_beta_sweep", "beta_grid", [0.0, 0.5], 2),
        ("static_beta_sweep", "beta_grid", [0.5, 1.0], 2),
        ("static_beta_sweep", "beta_grid", [-math.inf, 0.5], 2),
        ("static_beta_sweep", "beta_grid", [0.5, math.inf], 2),
        ("fading_snr_sweep", "snr_db_grid", [0.0, math.inf], 2),
        ("fading_snr_sweep", "snr_db_grid", [-math.inf, 0.0], 0),
        ("fading_sigmard_sweep", "sigma_rd2_grid", [0.0, 1.0], 2),
        ("fading_sigmard_sweep", "sigma_rd2_grid", [-1.0, 1.0], 2),
        ("fading_sigmard_sweep", "sigma_rd2_grid", [-math.inf, 1.0], 2),
        ("fading_sigmard_sweep", "sigma_rd2_grid", [1.0, math.inf], 2),
    ],
)
def test_validate_checks_sweep_grids_through_the_model(tmp_path, kind, field, grid, code):
    # no grid has a domain rule of its own: each value meets the model's
    # rule for the quantity swept, and validate builds what the run builds
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({"kind": kind, field: grid}))
    assert main(["validate", str(cfg)]) == code


def test_cli_oversized_yaml_integer_is_a_config_error(tmp_path, capsys):
    # PyYAML raises a plain ValueError for an integer literal over Python's
    # int-string digit limit, in a config file and in an override alike
    digits = "9" * 5000
    cfg = tmp_path / "big.yaml"
    cfg.write_text(f"kind: fading_snr_sweep\nr1: {digits}\n")
    out = tmp_path / "out.csv"
    for argv in (["validate", str(cfg)],
                 ["preset", "fig5", "--out", str(out), "--override", f"r1={digits}"]):
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: "), err
    assert not out.exists()


def test_removed_norelay_boost_key_is_a_config_error(tmp_path, capsys):
    # the no-relay boost of the static sweeps is direct15's, not a config key
    cfg = tmp_path / "boost.yaml"
    cfg.write_text("kind: static_sigma_sweep\nnorelay_boost: 1.5\n")
    assert main(["validate", str(cfg)]) == 2
    assert capsys.readouterr().err == "config error: unknown config keys: ['norelay_boost']\n"
    out = tmp_path / "out.csv"
    argv = ["preset", "fig3", "--out", str(out), "--override", "norelay_boost=2.0"]
    assert main(argv) == 2
    assert "norelay_boost" in capsys.readouterr().err
    assert not out.exists()


def test_cli_error_paths(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("kind: fading_snr_sweep\nn_samples: -3\n")
    assert main(["validate", str(bad)]) == 2
    assert main(["run", str(bad)]) == 2
    af = tmp_path / "af.yaml"
    af.write_text("kind: fading_snr_sweep\nbeta: 0.4\nschemes: [af]\n")
    capsys.readouterr()
    assert main(["validate", str(af)]) == 2
    assert capsys.readouterr().err == "config error: scheme 'af' needs beta = 0.5\n"
    assert main(["validate", str(tmp_path / "missing.yaml")]) == 2
    not_utf8 = tmp_path / "latin1.yaml"
    not_utf8.write_bytes(b"\xffkind: fading_snr_sweep\n")
    capsys.readouterr()
    assert main(["validate", str(not_utf8)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: cannot read config file {not_utf8}")
    assert main(["preset", "fig3", "--override", "nonsense"]) == 2
    with pytest.raises(SystemExit):
        main(["preset", "fig9"])  # argparse rejects unknown choices


@pytest.mark.parametrize("flag", ["--out", "--json-out", "--emit-config"])
@pytest.mark.parametrize("bad, reason", [("missing/x", "No such file or directory"),
                                         ("", "Is a directory")])
def test_cli_unwritable_output_is_a_config_error(tmp_path, capsys, monkeypatch, flag, bad,
                                                 reason):
    # a path that cannot be written ends the command with one line and
    # exit 2 before the sweep runs or any file is written
    def no_run(cfg):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr("marcsim.cli.run_experiment", no_run)
    bad = str(tmp_path / bad)
    args = {"--out": str(tmp_path / "a.csv"), flag: bad}
    code = main(["preset", "fig3", *(x for pair in args.items() for x in pair)])
    assert code == 2
    assert capsys.readouterr().err == f"config error: cannot write {bad}: {reason}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags", [("--out", "--json-out"), ("--out", "--emit-config")])
@pytest.mark.parametrize("first, second, linked", [("x.txt", "x.txt", False),
                                                   ("./z.txt", "z.txt", False),
                                                   ("a.csv", "b.json", True)])
def test_cli_outputs_naming_one_file_are_a_config_error(tmp_path, capsys, monkeypatch, flags,
                                                        first, second, linked):
    # two output paths that name one file, also as two hard links to one
    # existing file, would leave only the later write: one line and exit 2
    # before the sweep runs or any file is written
    def no_run(cfg):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr("marcsim.cli.run_experiment", no_run)
    monkeypatch.chdir(tmp_path)
    if linked:
        Path(first).write_text("kept")
        Path(second).hardlink_to(first)
    argv = ["preset", "fig3", flags[0], first, flags[1], second]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"config error: {first} and {second} name the same output file\n"
    )
    left = [first, second] if linked else []
    assert sorted(p.name for p in tmp_path.iterdir()) == left
    assert all(Path(name).read_text() == "kept" for name in left)


def test_cli_empty_out_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "empty_out.yaml"
    cfg.write_text('kind: static_sigma_sweep\nout: ""\n')
    assert main(["validate", str(cfg)]) == 2
    assert capsys.readouterr().err == "config error: out must be a file path, got ''\n"


@pytest.mark.parametrize(
    "preset, override, code",
    [
        ("fig5", "ru=1000", 0),
        ("fig8", "ru_grid=[0.1, 2000]", 0),
        ("fig5", "snr_db_grid=[0, 4000]", 2),
        ("fig7", "snr_db=4000", 2),
        ("fig5", "snr_db=1" + "0" * 400, 2),
        ("fig6", "ru_grid=[.nan]", 2),
        ("fig6", "ru_grid=[0.0, 1.0]", 2),
        ("fig6", "ru=.inf", 2),
        ("fig6", "r1=.nan", 2),
        ("fig7", "var_1d=.inf", 2),
        ("fig7", "sigma_rd2_grid=[.inf]", 2),
        ("fig3", "h1r=.inf", 2),
        ("fig3", "pr=.inf", 2),
        ("fig4", "hrd=1.0e+200", 2),
        ("fig3", "h1r=1.0e+200", 2),
        # expm1 overflows in the equalizer at beta = 0.025: a variance below
        # the float range, which runs
        ("fig4", "hrd=3.0e+4", 0),
        ("fig4", "p22=1.7976931348623157e+308", 2),
        ("fig3", "h1r=1.0e+154", 2),
        ("fig4", "h1r=1.0e+154", 2),
        ("fig3", "sigma_q2_grid=[1.0, .inf]", 0),
        ("fig5", "snr_db_grid=[-.inf, 0]", 0),
        ("fig5", "snr_db_grid=[3000]", 1),
        ("fig5", "var_1d=1.0e+200", 1),
        # a value the model rejects is a config error whether or not the
        # kind uses the field
        ("fig3", "var_1d=.inf", 2),
        ("fig3", "r1=.inf", 2),
        ("fig3", "ru=.inf", 2),
        ("fig4", "ru_grid=[1.0, .inf]", 2),
        ("fig7", "var_rd=.inf", 2),
        *((name, "snr_db=.inf", 2) for name in PRESETS),
        # a grid entry the model rejects
        ("fig5", "snr_db_grid=[0.0, .inf]", 2),
        ("fig3", "sigma_q2_grid=[0.0, 1.0]", 2),
        ("fig4", "beta_grid=[0.5, 1.0]", 2),
        ("fig7", "sigma_rd2_grid=[0.0, 1.0]", 2),
        ("fig7", "sigma_rd2_grid=[0.1, .inf]", 2),
    ],
)
def test_cli_rates_and_powers_beyond_float_range(tmp_path, capsys, preset, override, code):
    out = tmp_path / "out.csv"
    argv = ["preset", preset, "--samples", "100", "--out", str(out), "--override", override]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 2:
        assert len(err.splitlines()) == 1 and err.startswith("config error: "), err
        # an SNR or a grid entry the model rejects is named by its field or
        # grid, not by the model argument it fills, and the value is shown
        key, _, value = override.partition("=")
        if key == "snr_db" or key.endswith("_grid"):
            name = f"each value of {key}" if key.endswith("_grid") else key
            assert err.startswith(f"config error: {name} "), err
            if ".inf" in value:
                assert err.endswith(", got inf\n"), err


_STATIC_FLOATS = (
    "h1d", "h2d", "h1r", "h2r", "hrd", "p11", "p21", "p12", "p22", "pr", "beta",
)
_EDGE_FLOATS = (0.0, -0.0, 1e-320, 1e-300, 0.025, 0.975, 1.5, 3571.0, 1e16, 1e154, 1e308,
                -1e308, 1.7976931348623157e308)


_SIGMA_EDGES = (5e-324, 1e-300, 1e-3, 1.0, 100.0, math.inf)
_BETA_EDGES = (1e-300, 0.025, 0.5, 0.975, 0.999999999999)


def _grid(edges):
    values = st.one_of(st.sampled_from(edges), st.floats(allow_nan=False))
    return st.lists(values, min_size=1, max_size=3, unique=True).map(sorted)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    preset=st.sampled_from(["fig3", "fig4"]),
    fields=st.dictionaries(
        st.sampled_from(_STATIC_FLOATS),
        st.one_of(st.sampled_from(_EDGE_FLOATS),
                  st.floats(allow_nan=False, allow_infinity=False)),
        min_size=1, max_size=3,
    ),
    sigma_q2_grid=_grid(_SIGMA_EDGES),
    beta_grid=_grid(_BETA_EDGES),
)
def test_static_config_fuzz_exits_cleanly(tmp_path_factory, preset, fields, sigma_q2_grid,
                                          beta_grid):
    # any finite static values on any grids either run or are rejected by
    # validate with exit 2; a RuntimeWarning (an error under pytest) or any
    # other exception fails the test
    d = config_to_dict(preset_config(preset))
    d.update(sigma_q2_grid=sigma_q2_grid, beta_grid=beta_grid, **fields)
    work = tmp_path_factory.mktemp("fuzz")
    cfg = work / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(d))
    validated = main(["validate", str(cfg)])
    ran = main(["run", str(cfg), "--out", str(work / "out.csv")])
    assert validated in (0, 2) and ran in (0, 1, 2)
    assert (ran == 2) == (validated == 2)


_FADING_FLOATS = ("var_1d", "var_2d", "var_1r", "var_2r", "var_rd", "snr_db", "r1", "r2", "ru")
_FADING_EDGES = (0.0, -1.0, 1e-320, 1e-300, 1e-6, 0.5, 1.0, 3.0, 30.0, 40.0, 2000.0, 3000.0,
                 1e200, 1.7976931348623157e308)
_fading_values = st.one_of(st.sampled_from(_FADING_EDGES),
                           st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    preset=st.sampled_from(["fig5", "fig6", "fig8"]),
    fields=st.dictionaries(st.sampled_from(_FADING_FLOATS), _fading_values, max_size=3),
    sweep=st.lists(_fading_values, min_size=1, max_size=2, unique=True),
    ru_grid=st.lists(_fading_values, min_size=1, max_size=3, unique=True),
    individual=st.booleans(),
)
def test_fading_config_fuzz_exits_cleanly(tmp_path_factory, preset, fields, sweep, ru_grid,
                                          individual):
    # any finite fading values, with individual outage and the _opt tokens'
    # index-rate grid, either run, stop on a kernel value beyond the float
    # range (exit 1) or are rejected (exit 2); a RuntimeWarning (an error
    # under pytest) or any other exception fails the test
    d = config_to_dict(preset_config(preset))
    grid = "sigma_rd2_grid" if preset == "fig8" else "snr_db_grid"
    d.update(n_samples=300, individual=individual, ru_grid=sorted(ru_grid))
    d.update({grid: sorted(sweep)}, **fields)
    work = tmp_path_factory.mktemp("fuzz")
    cfg = work / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(d))
    assert main(["run", str(cfg), "--out", str(work / "out.csv")]) in (0, 1, 2)


def test_scheme_tokens():
    assert set(SCHEME_TOKENS) == {
        "gqf", "gqf_opt", "csit", "nonwz_cf", "nonwz_cf_opt", "df", "af", "direct", "direct15",
    }


def test_cli_small_fading_run(tmp_path):
    out = tmp_path / "f5.csv"
    code = main(
        ["preset", "fig5", "--samples", "1000", "--seed", "4", "--out", str(out),
         "--override", "snr_db_grid=[10.0]",
         "--override", "schemes=[gqf, direct]"]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert any(l.startswith("# n_samples: 1000") for l in lines)


def test_save_and_load_config(tmp_path):
    cfg = preset_config("fig6", seed=99)
    path = tmp_path / "cfg.yaml"
    path.write_text(dump_config(cfg))
    assert load_config(path) == cfg
    d = config_to_dict(cfg)
    assert d["schemes"][0] == "gqf"
