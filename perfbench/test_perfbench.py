"""Tests of the benchmark itself: workload configs, metric names, the
output check and the traced call counts."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import marcsim.outage
import run
import worker
import workloads
from marcsim.channel import BLOCK_SIZE
from marcsim.config import config_from_dict
from marcsim.experiments import preset_config, run_experiment

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

SEED_SAMPLE_CALLS = {"fig5_snr_fixed": 1225, "fig8_sigmard_indiv": 1125, "gqf_single_1m": 1715}
SEED_REDRAW = {"fig5_snr_fixed": 7.0, "fig8_sigmard_indiv": 5.0, "gqf_single_1m": 1.0}


def _small(name, seed=3):
    # two blocks per point, the second one short
    d = workloads.config_dict(name, seed)
    d["n_samples"] = BLOCK_SIZE + 5
    return d


def test_workload_configs_are_built_from_the_seed():
    assert set(workloads.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}
    for name in workloads.WORKLOADS:
        a = workloads.config_dict(name, 7)
        b = workloads.config_dict(name, 8)
        assert a == workloads.config_dict(name, 7)
        assert (a["seed"], b["seed"]) == (7, 8)
        assert {**a, "seed": 0} == {**b, "seed": 0}
        assert "workers" not in a
        assert config_from_dict(a).seed == 7
    for name, preset in (("fig5_snr_fixed", "fig5"), ("fig8_sigmard_indiv", "fig8")):
        cfg = config_from_dict(workloads.config_dict(name, workloads.REFERENCE_SEED))
        assert cfg == preset_config(preset)


def test_analytic_call_counts_of_the_seed_code():
    for name, calls in SEED_SAMPLE_CALLS.items():
        d = workloads.config_dict(name, workloads.REFERENCE_SEED)
        assert workloads.analytic_sample_calls(d, BLOCK_SIZE) == calls
        assert calls / workloads.distinct_blocks(d, BLOCK_SIZE) == SEED_REDRAW[name]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_and_match_analytic(name):
    d = _small(name)
    original = marcsim.outage.sample_fading_block
    res = worker.measure(d, config_from_dict(d), seconds=0.0, trace=True)
    assert marcsim.outage.sample_fading_block is original
    assert res["failed"] == 0 and res["problems"] == []
    assert len(res["traced_wall_s"]) == 2
    layers = res["layers"]
    assert layers["channel.sample.calls"] == workloads.analytic_sample_calls(d, BLOCK_SIZE)
    assert layers["channel.redraw_factor"] == SEED_REDRAW[name]
    assert layers["channel.sample.ns_per_draw"] > 0
    assert layers["outage.estimator.self_s"] > 0
    if name == "fig8_sigmard_indiv":
        # 2 individual tokens x 9 points x 2 blocks
        assert layers["outage.classify.gqf.calls"] == 18
        assert layers["outage.flags.gqf.calls"] == 9 * 2 * 11
    else:
        assert layers["outage.classify.gqf.calls"] == 0


def test_reported_metric_names_are_in_benchmark_json():
    d = _small("fig5_snr_fixed")
    res = worker.measure(d, config_from_dict(d), seconds=0.0, trace=True)
    e2e = run.metrics_from(res, [0.2], trace=False)
    layers = run.metrics_from(res, [], trace=True)
    spec_e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    spec_layers = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert set(e2e) == set(spec_e2e) == set(run.END_TO_END_UNITS)
    assert set(layers) == set(spec_layers) == set(run.PER_LAYER_UNITS)
    assert spec_e2e == run.END_TO_END_UNITS
    assert spec_layers == run.PER_LAYER_UNITS
    assert all(v > 0 for v in e2e.values())


def test_output_check_flags_bad_output():
    d = workloads.config_dict("fig5_snr_fixed", 11)
    d["n_samples"] = 300
    text = run_experiment(config_from_dict(d)).to_csv_text()
    assert workloads.check_output(d, text) == []
    digest = workloads.checked_digest(text)
    assert workloads.check_output(d, text, digest) == []
    assert workloads.check_output(d, text, "0" * 64)

    header, rows = workloads.parse_csv(text)
    meta = "".join(ln + "\n" for ln in text.splitlines() if ln.startswith("#"))

    def with_cell(col, value):
        # the last row is at 30 dB, where every outage probability is small
        i = header.index(col)
        last = rows[-1][:i] + [value] + rows[-1][i + 1:]
        return meta + "\n".join(",".join(r) for r in [header, *rows[:-1], last]) + "\n"

    assert workloads.check_output(d, with_cell("gqf_p", "1.5"))
    assert workloads.check_output(d, with_cell("csit_p", "1.0"))
    assert workloads.check_output(d, with_cell("gqf_p", ""))
    # intervals are outside the digest
    assert workloads.check_output(d, with_cell("gqf_ci", "0.5"), digest) == []
    assert workloads.check_output(d, with_cell("gqf_rbar", "0.5"), digest)


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig5_snr_fixed", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
