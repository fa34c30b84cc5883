"""One fresh interpreter of the marcsim benchmark.

    python3 perfbench/worker.py setup   --workload W --seed N
    python3 perfbench/worker.py measure --workload W --seed N --seconds S --trace 0|1

Both modes time ``import marcsim`` plus building the workload config, then
check that marcsim was imported from the checkout's ``src``.  ``setup``
prints that time.  ``measure`` runs the workload repeatedly for about
``--seconds`` (at least MIN_RUNS times), checks every output, and prints
the wall times, the peak RSS of this process and, with ``--trace 1``,
the per-layer figures of the traced runs.  Run ``perfbench/run.py``
rather than this file; it starts one interpreter per measurement so that
no workload's allocations inflate another's peak.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
TRACE_DIR = Path(__file__).resolve().parent / "out"
MIN_RUNS = 3  # untraced; a traced measurement makes at least two pairs

#: schemes whose outage_flags and classify_region_batch calls get metrics
FLAG_SCHEMES = ("gqf", "csit", "nonwz_cf", "df", "af", "direct", "direct15")
CLASSIFY_SCHEMES = ("gqf", "nonwz_cf")


def load(d: dict):
    """Import marcsim and build the config; return (cfg, seconds taken).

    Run this before anything else imports numpy, so the time includes
    everything a fresh ``import marcsim`` pays for.
    """
    t0 = time.perf_counter()
    import marcsim
    import marcsim.experiments
    from marcsim.config import config_from_dict

    cfg = config_from_dict(d)
    setup_s = time.perf_counter() - t0
    src = (ROOT / "src").resolve()
    if src not in Path(marcsim.__file__).resolve().parents:
        raise SystemExit(f"marcsim was imported from {marcsim.__file__}, not from {src}")
    return cfg, setup_s


def run_once(cfg, tracer=None) -> tuple[float, str]:
    """Wall time from the config to the CSV text, and the text."""
    from marcsim.experiments import run_experiment

    def body():
        return run_experiment(cfg).to_csv_text()

    if tracer is None:
        t = time.perf_counter()
        text = body()
        return time.perf_counter() - t, text
    with tracer.installed():
        t = time.perf_counter()
        text = tracer.call(spans.RUN_SPAN, body)
        return time.perf_counter() - t, text


def layer_figures(d: dict, tracer: spans.Tracer, block_size: int) -> dict:
    """Per-layer figures of one traced run, keyed by metric name."""
    s = spans.summarize(tracer.spans)
    calls, draws, busy, self_ns = s["calls"], s["draws"], s["busy_ns"], s["self_ns"]
    known = {"channel.sample", spans.RUN_SPAN}
    known |= {f"outage.flags.{x}" for x in FLAG_SCHEMES}
    known |= {f"outage.classify.{x}" for x in CLASSIFY_SCHEMES}
    for name in calls:
        if name not in known and not name.startswith("outage.estimator."):
            print(f"warning: span {name!r} has no metric", file=sys.stderr)

    def per_draw(name):
        return busy[name] / draws[name] if draws[name] else 0.0

    out = {
        "channel.sample.calls": calls["channel.sample"],
        "channel.sample.ns_per_draw": per_draw("channel.sample"),
        "channel.redraw_factor": calls["channel.sample"]
        / workloads.distinct_blocks(d, block_size),
    }
    for layer, schemes in (("flags", FLAG_SCHEMES), ("classify", CLASSIFY_SCHEMES)):
        for x in schemes:
            name = f"outage.{layer}.{x}"
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.ns_per_draw"] = per_draw(name)
    out["outage.estimator.self_s"] = 1e-9 * sum(
        v for k, v in self_ns.items() if k.startswith("outage.estimator.")
    )
    out["experiments.self_s"] = 1e-9 * self_ns[spans.RUN_SPAN]
    return out


def measure(d, cfg, seconds, trace, reference=None, trace_path=None) -> dict:
    """Run the sweep for about ``seconds``; with ``trace``, alternate
    untraced and traced runs.  Every output is checked, against the
    ``reference`` digest too if given; the spans of the traced runs are
    written to ``trace_path`` at the end.  Returns wall times, counts and
    the problems found."""
    from marcsim.channel import BLOCK_SIZE

    # traced and untraced runs alternate, each pair in the other order
    plan = [False, True, True, False] if trace else [False]
    min_runs = 4 if trace else MIN_RUNS
    wall = {False: [], True: []}
    figures, tracers, problems = [], [], []
    attempted = failed = 0
    first_text = None
    start = time.perf_counter()
    while True:
        traced = plan[attempted % len(plan)]
        attempted += 1
        tracer = spans.Tracer() if traced else None
        try:
            dt, text = run_once(cfg, tracer)
        except Exception:
            failed += 1
            problems.append(f"run {attempted} raised:\n{traceback.format_exc()}")
        else:
            found = workloads.check_output(d, text, reference)
            if first_text is None:
                first_text = text
            elif text != first_text:
                found.append("output differs from the first run's")
            if found:
                failed += 1
                problems += [f"run {attempted}: {p}" for p in found]
            wall[traced].append(dt)
            if traced:
                tracers.append(tracer)
                figures.append(layer_figures(d, tracer, BLOCK_SIZE))
        elapsed = time.perf_counter() - start
        done = wall[False] + wall[True]
        if attempted >= min_runs and (
            not done or elapsed + statistics.median(done) > seconds
        ):
            break
    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "wall_s": wall[False],
        "traced_wall_s": wall[True],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "draws": workloads.draws(d),
    }
    if trace and figures:
        counts = [{k: v for k, v in f.items() if k.endswith(".calls")} for f in figures]
        if any(c != counts[0] for c in counts):
            result["problems"].append("traced call counts differ between runs")
        # counts repeat exactly; times are medians over the traced runs
        result["layers"] = {
            k: v if k in counts[0] else statistics.median(f[k] for f in figures)
            for k, v in figures[0].items()
        }
        result["analytic_sample_calls"] = workloads.analytic_sample_calls(d, BLOCK_SIZE)
        result["spans"] = sum(len(t.spans) for t in tracers)
        if trace_path is not None:
            trace_path.parent.mkdir(exist_ok=True)
            with trace_path.open("w") as fh:
                for i, t in enumerate(tracers):
                    t.write_jsonl(fh, run=i)
            result["trace_file"] = str(trace_path.relative_to(ROOT))
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=("setup", "measure"))
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    d = workloads.config_dict(args.workload, args.seed)
    cfg, setup_s = load(d)
    out = {"setup_s": setup_s}
    if args.mode == "measure":
        path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        ref = workloads.reference_digest(args.workload, d)
        out.update(measure(d, cfg, args.seconds, bool(args.trace), ref, path))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
