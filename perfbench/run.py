"""marcsim benchmark: three block-Rayleigh Monte Carlo sweeps, end to end
and per layer.

    python3 perfbench/run.py --workload fig5_snr_fixed --seed 12345 --seconds 30 --trace 0

Run from the root of a source checkout; marcsim is imported from its
``src``.  Workloads and their output check are in ``workloads.py``.

With ``--trace 0`` a fresh interpreter runs the sweep repeatedly for about
``--seconds`` and reports wall_s (median time from the config to the CSV
text), draws_per_s and peak_rss_mb; setup_s is the median, over
SETUP_RUNS further interpreters, of ``import marcsim`` plus building the
config.  With ``--trace 1`` the interpreter alternates untraced and traced
runs and reports the per-layer figures of the traced ones (spans kept in
memory and written to ``perfbench/out/`` at the end) and the tracing
overhead.  Every run's output is checked; a run fails if it raises or
fails the check.  The last line of output is one JSON object with keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from worker import CLASSIFY_SCHEMES, FLAG_SCHEMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 15
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "draws_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


# names as worker.layer_figures produces them, plus the tracing overhead
PER_LAYER_UNITS = {
    "channel.sample.calls": "count",
    "channel.sample.ns_per_draw": "ns",
    "channel.redraw_factor": "ratio",
    **{
        f"outage.{layer}.{x}.{m}": unit
        for layer, schemes in (("flags", FLAG_SCHEMES), ("classify", CLASSIFY_SCHEMES))
        for x in schemes
        for m, unit in (("calls", "count"), ("ns_per_draw", "ns"))
    },
    "outage.estimator.self_s": "s",
    "experiments.self_s": "s",
    "trace.overhead_share": "ratio",
}


def child(args: list[str], timeout: float) -> dict:
    """Run worker.py in a fresh interpreter; return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker {' '.join(args)} ran past the deadline") from None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def metrics_from(res: dict, setup_samples: list[float], trace: bool) -> dict:
    """Metric values of one run of the benchmark, keyed by name."""
    if trace:
        out = dict(res["layers"])
        out["trace.overhead_share"] = (
            statistics.median(res["traced_wall_s"]) / statistics.median(res["wall_s"]) - 1.0
        )
        return out
    wall = statistics.median(res["wall_s"])
    return {
        "wall_s": wall,
        "draws_per_s": res["draws"] / wall,
        "peak_rss_mb": res["peak_rss_mb"],
        "setup_s": statistics.median(setup_samples),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=12345)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    start = time.perf_counter()
    if not (ROOT / "src" / "marcsim" / "__init__.py").is_file():
        print(f"no marcsim source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setup_samples = []
    if not args.trace:
        for _ in range(SETUP_RUNS):
            remaining = DEADLINE_S - (time.perf_counter() - start)
            setup_samples.append(child(["setup", *common], remaining)["setup_s"])
    remaining = DEADLINE_S - (time.perf_counter() - start)
    res = child(
        ["measure", *common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
        remaining,
    )
    for problem in res["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    if not res["wall_s"] or (args.trace and not res["traced_wall_s"]):
        print("no run completed; nothing to report", file=sys.stderr)
        return 1

    values = metrics_from(res, setup_samples, bool(args.trace))
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    wall = res["wall_s"]
    print(
        f"{args.workload} seed {args.seed}: wall_s median {statistics.median(wall):.4f} s"
        f" over {len(wall)} untraced runs; {res['failed']} of {res['attempted']} runs failed"
    )
    print("  untraced runs (s): " + " ".join(f"{w:.4f}" for w in wall))
    if args.trace:
        print(
            f"traced: {len(res['traced_wall_s'])} runs, {res['spans']} spans in"
            f" {res['trace_file']}; channel.sample.calls"
            f" {values['channel.sample.calls']} (seed code: {res['analytic_sample_calls']})"
        )
        for key, text in workloads.PREDICTIONS[args.workload].items():
            print(f"  prediction {args.workload}:{key}: {text}")
    else:
        print(f"setup_s median over {len(setup_samples)} interpreters")
    for name, value in values.items():
        print(f"  {name:38s} {value:>16.6g} {units[name]}")
    result = {
        "correct": res["failed"] == 0 and not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
