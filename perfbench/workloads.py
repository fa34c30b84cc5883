"""Workloads of the marcsim benchmark and the check of their output.

Each workload is a config dict in the user-facing YAML schema; the
benchmark runs it through ``config_from_dict`` and ``run_experiment``
with the workload seed as the config ``seed``, so it measures the public
entry point and survives refactors behind it.  This module imports only
the standard library: the benchmark's set-up time starts before marcsim
(and numpy) are imported.

Why these three sweeps: every fading figure is a block-Rayleigh Monte
Carlo sweep, and the traced seed code shows different layers leading on
different sweeps, so no single preset stands in for the rest.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math

REFERENCE_SEED = 12345

_SNR_DB_GRID = [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0]
_SIGMA_RD2_GRID = [0.001, 0.01, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0]
_ALL_SCHEMES = ["gqf", "csit", "nonwz_cf", "df", "af", "direct", "direct15"]

# fields shared by every workload, spelled out so that a changed default
# does not silently change what the benchmark measures; ``workers`` is
# left at its default of 1
_COMMON = {
    "n_samples": 100_000,
    "beta": 0.5,
    "r1": 1.0,
    "r2": 1.0,
    "ru": 3.0,
    "ru_grid": [0.1, 0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0],
    "var_1d": 1.0,
    "var_2d": 1.0,
    "var_1r": 1.0,
    "var_2r": 1.0,
    "var_rd": 1.0,
}

WORKLOADS = {
    # the fig5 preset: 7 fixed-ru schemes x 7 SNR points x 100k draws.
    # Sampling-bound: every scheme redraws the same blocks.  The only
    # workload that runs the csit, df, af and direct15 kernels.
    "fig5_snr_fixed": {
        "kind": "fading_snr_sweep",
        "preset": "fig5",
        "out": "fig5.csv",
        "schemes": _ALL_SCHEMES,
        "snr_db_grid": _SNR_DB_GRID,
    },
    # the fig8 preset: gqf_opt, nonwz_cf_opt and direct x 9 sigma_rd^2
    # points with individual outage.  Kernel-bound: 11 ru values per _opt
    # token.  The only workload that runs classify_region_batch.
    "fig8_sigmard_indiv": {
        "kind": "fading_sigmard_sweep",
        "preset": "fig8",
        "out": "fig8.csv",
        "snr_db": 10.0,
        "schemes": ["gqf_opt", "nonwz_cf_opt", "direct"],
        "sigma_rd2_grid": _SIGMA_RD2_GRID,
        "individual": True,
    },
    # fig5 with one scheme at 1M draws: shares no draws across schemes or
    # ru values, so draw sharing should leave it unchanged, and holding
    # more draws in memory shows up in its peak RSS.
    "gqf_single_1m": {
        "kind": "fading_snr_sweep",
        "preset": "fig5",
        "out": "fig5.csv",
        "schemes": ["gqf"],
        "snr_db_grid": _SNR_DB_GRID,
        "n_samples": 1_000_000,
    },
}

#: which per-layer metric should move which end-to-end metric, per
#: workload; cite one as ``<workload>:<name>``
PREDICTIONS = {
    "fig5_snr_fixed": {
        "sampling": "channel.sample.* and channel.redraw_factor (7.0) move wall_s"
        " here first, on fig8_sigmard_indiv second, on gqf_single_1m not at all",
        "fixed-kernels": "outage.flags.{csit,df,af,direct,direct15}.* move wall_s here",
        "estimator": "outage.estimator.self_s moves wall_s",
    },
    "fig8_sigmard_indiv": {
        "ru-kernels": "outage.flags.{gqf,nonwz_cf}.* move wall_s here",
        "classify": "outage.classify.* move wall_s here only",
        "sampling": "channel.sample.* and channel.redraw_factor (5.0) move wall_s"
        " here, second to fig5_snr_fixed",
        "estimator": "outage.estimator.self_s moves wall_s",
    },
    "gqf_single_1m": {
        "no-sharing": "channel.redraw_factor is 1.0: sharing draws across schemes"
        " or ru values leaves wall_s unchanged",
        "memory": "holding more draws or counts in memory shows up as peak_rss_mb",
        "estimator": "outage.estimator.self_s moves wall_s",
    },
}

# sha256 of the checked columns (see checked_digest) of each workload at
# REFERENCE_SEED, recorded on the seed commit
REFERENCE_DIGESTS = {
    "fig5_snr_fixed": "bc10aab10c2e02781bfcbe6f1753955b2614dcfdf5258fb5db0e431324ea0111",
    "fig8_sigmard_indiv": "9fb0b7b67f514d1a690bf9dcec766da1981db501d12e44a22b0bfa0f2e18b414",
    "gqf_single_1m": "5b6b4fad2c1b820e6f59dd8780ee7e1a8c38f4a8d24e8c34c65d297e0d9bea8c",
}

_RU_SCHEMES = ("gqf", "nonwz_cf")


def config_dict(workload: str, seed: int) -> dict:
    """Config dict of ``workload`` with ``seed`` as the Monte Carlo seed."""
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; known: {sorted(WORKLOADS)}")
    d = copy.deepcopy({**_COMMON, **WORKLOADS[workload]})
    d["seed"] = seed
    return d


def sweep_points(d: dict) -> int:
    grid = "snr_db_grid" if d["kind"] == "fading_snr_sweep" else "sigma_rd2_grid"
    return len(d[grid])


def draws(d: dict) -> int:
    """Draws the sweep reports on: sweep points x draws per point."""
    return sweep_points(d) * d["n_samples"]


def distinct_blocks(d: dict, block_size: int) -> int:
    """Sample blocks a sweep needs if each point draws its blocks once."""
    return sweep_points(d) * math.ceil(d["n_samples"] / block_size)


def _scheme(token: str) -> str:
    return token[: -len("_opt")] if token.endswith("_opt") else token


def analytic_sample_calls(d: dict, block_size: int) -> int:
    """``sample_fading_block`` calls of the seed code's sweep: every
    estimator pass (one per scheme token, plus one per individual-outage
    token) draws every block of its point again."""
    passes = len(d["schemes"])
    if d.get("individual"):
        passes += sum(_scheme(t) in _RU_SCHEMES for t in d["schemes"])
    return passes * distinct_blocks(d, block_size)


# ---------------------------------------------------------------------------
# output check
# ---------------------------------------------------------------------------


def expected_columns(d: dict) -> list[str]:
    """CSV columns the sweep must emit, in order."""
    cols = []
    for token in d["schemes"]:
        if token.endswith("_opt"):
            cols.append(f"{token}_ru")
        cols += [f"{token}_p", f"{token}_ci", f"{token}_rbar"]
        if d.get("individual") and _scheme(token) in _RU_SCHEMES:
            cols += [f"{token}_p_indiv1", f"{token}_p_indiv2", f"{token}_rbar_indiv"]
    return cols


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    """Header and rows of the CSV text, metadata lines skipped."""
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


def checked_digest(text: str) -> str:
    """sha256 over the sweep column and every result column except the
    ``_ci`` ones, cell text as written; intervals are left out so that a
    deliberate change of the interval method keeps the digest."""
    header, rows = parse_csv(text)
    keep = [i for i, name in enumerate(header) if not name.endswith("_ci")]
    payload = [[header[i] for i in keep]] + [[row[i] for i in keep] for row in rows]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def check_output(d: dict, text: str, reference_digest: str | None = None) -> list[str]:
    """Problems found in the CSV text of the sweep configured by ``d``;
    empty when the output is correct.

    At any seed: the layout matches the config, every outage probability
    lies in [0, 1], csit_p <= gqf_p, gqf_opt_p <= gqf_p (ru = 3.0 is in
    the grid), every chosen ru is in ru_grid, and individual outage never
    exceeds common outage.  With ``reference_digest``, the checked
    columns must also match it exactly.
    """
    header, rows = parse_csv(text)
    want = [
        "snr_db" if d["kind"] == "fading_snr_sweep" else "sigma_rd2",
        *expected_columns(d),
    ]
    if header != want:
        return [f"columns {header} differ from the expected {want}"]
    if len(rows) != sweep_points(d) or any(len(r) != len(header) for r in rows):
        return [f"expected {sweep_points(d)} rows of {len(header)} cells"]
    problems = []
    try:
        cols = {name: [float(r[i]) for r in rows] for i, name in enumerate(header)}
    except ValueError as exc:
        return [f"non-numeric or empty cell: {exc}"]

    def at_most(small, big, why):
        if small in cols and big in cols:
            for i, (a, b) in enumerate(zip(cols[small], cols[big])):
                if not a <= b:
                    problems.append(f"row {i}: {small}={a!r} > {big}={b!r} ({why})")

    for name, values in cols.items():
        if name.endswith(("_p", "_p_indiv1", "_p_indiv2")):
            for i, v in enumerate(values):
                if not 0.0 <= v <= 1.0:
                    problems.append(f"row {i}: {name}={v!r} outside [0, 1]")
        if name.endswith("_ru"):
            for i, v in enumerate(values):
                if v not in d["ru_grid"]:
                    problems.append(f"row {i}: {name}={v!r} not in ru_grid")
    at_most("csit_p", "gqf_p", "complete CSI is never worse")
    at_most("gqf_opt_p", "gqf_p", "ru = 3.0 is in the grid")
    for token in d["schemes"]:
        for k in ("1", "2"):
            at_most(f"{token}_p_indiv{k}", f"{token}_p", "individual <= common")
    if reference_digest is not None and checked_digest(text) != reference_digest:
        problems.append("checked columns differ from the reference digest")
    return problems


def reference_digest(workload: str, d: dict) -> str | None:
    """Recorded digest if ``d`` is ``workload`` at the reference seed."""
    if d == config_dict(workload, REFERENCE_SEED):
        return REFERENCE_DIGESTS[workload]
    return None
