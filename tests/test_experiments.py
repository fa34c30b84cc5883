"""Tests of config round-tripping, the sweep runner, presets and the CLI."""

import json
import math

import numpy as np
import pytest
import yaml

from marcsim.cli import main
from marcsim.config import (
    SCHEME_TOKENS,
    ConfigError,
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    dump_config,
    load_config,
    save_config,
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
    with pytest.raises(ConfigError):
        config_from_dict({"kind": "fading_snr_sweep", "beta": 0.4, "schemes": ["af"]})
    with pytest.raises(ConfigError):
        config_from_dict({"kind": "fading_snr_sweep", "n_samples": 0})
    with pytest.raises(ConfigError):
        config_from_dict([1, 2, 3])


def test_unknown_preset():
    with pytest.raises(ConfigError):
        preset_config("fig9")


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


def test_fig4_interior_maximum_and_cf_match():
    res = run_experiment(preset_config("fig4"))
    vals = res.columns["gqf_sum"]
    i = int(np.argmax(vals))
    assert 0 < i < len(vals) - 1
    assert res.columns["cf_sum"] == vals
    assert all(v == pytest.approx(1.0, abs=1e-12) for v in res.columns["norelay_sum"])


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
        assert ci == pytest.approx(1.96 * math.sqrt(p * (1 - p) / 4000), abs=1e-15)
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


def test_run_byte_identical(tmp_path):
    cfg = preset_config(
        "fig5", n_samples=2000, snr_db_grid=(10.0,), seed=11,
        schemes=("gqf", "direct"), out=str(tmp_path / "a.csv"),
        json_out=str(tmp_path / "a.json"),
    )
    res1 = run_experiment(cfg)
    res1.write(cfg.out, cfg.json_out)
    text1 = (tmp_path / "a.csv").read_text()
    res2 = run_experiment(cfg)
    res2.write(cfg.out, cfg.json_out)
    assert (tmp_path / "a.csv").read_text() == text1
    payload = json.loads((tmp_path / "a.json").read_text())
    assert payload["metadata"]["seed"] == 11
    assert payload["columns"]["gqf_p"] == list(res1.columns["gqf_p"])


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


def test_cli_error_paths(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("kind: fading_snr_sweep\nn_samples: -3\n")
    assert main(["validate", str(bad)]) == 2
    assert main(["run", str(bad)]) == 2
    assert main(["validate", str(tmp_path / "missing.yaml")]) == 2
    assert main(["preset", "fig3", "--override", "nonsense"]) == 2
    with pytest.raises(SystemExit):
        main(["preset", "fig9"])  # argparse rejects unknown choices


@pytest.mark.parametrize(
    "preset, override, code",
    [
        ("fig5", "ru=1000", 0),
        ("fig8", "ru_grid=[0.1, 2000]", 0),
        ("fig5", "snr_db_grid=[0, 4000]", 2),
        ("fig7", "snr_db=4000", 2),
        ("fig5", "snr_db=1" + "0" * 400, 2),
    ],
)
def test_cli_rates_and_powers_beyond_float_range(tmp_path, capsys, preset, override, code):
    out = tmp_path / "out.csv"
    argv = ["preset", preset, "--samples", "100", "--out", str(out), "--override", override]
    assert main(argv) == code
    assert "Traceback" not in capsys.readouterr().err


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
    save_config(cfg, path)
    assert load_config(path) == cfg
    d = config_to_dict(cfg)
    assert d["schemes"][0] == "gqf"
