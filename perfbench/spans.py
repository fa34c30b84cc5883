"""Span tracer for the benchmark's traced run.

Spans are recorded from the benchmark's side: a wrapper is installed on
the module attribute the caller looks up (``marcsim.outage.sample_fading_block``
is what ``outage._accumulate`` calls), so nothing inside marcsim changes.
Spans are kept in memory as (name, start_ns, end_ns, parent, draws) and
written out only when the run ends; self time is a span's duration minus
the durations of its child spans.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import Counter


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


# (module, attribute, span name from the call's arguments, draws from the
# arguments and result); modules are the layers
_HOOKS = (
    ("marcsim.outage", "sample_fading_block",
     lambda a, k: "channel.sample", lambda a, k, out: len(out)),
    ("marcsim.outage", "outage_flags",
     lambda a, k: "outage.flags." + _arg(a, k, 0, "scheme"),
     lambda a, k, out: len(_arg(a, k, 1, "h"))),
    ("marcsim.outage", "classify_region_batch",
     lambda a, k: "outage.classify." + _arg(a, k, 4, "scheme", "gqf"),
     lambda a, k, out: len(_arg(a, k, 0, "h"))),
    ("marcsim.experiments", "common_outage_mc",
     lambda a, k: "outage.estimator.common_outage_mc", None),
    ("marcsim.experiments", "optimize_ru_grid",
     lambda a, k: "outage.estimator.optimize_ru_grid", None),
    ("marcsim.experiments", "individual_outage_mc",
     lambda a, k: "outage.estimator.individual_outage_mc", None),
)

#: span around run_experiment and the CSV text, called by the benchmark
RUN_SPAN = "experiments.run_experiment"


class Tracer:
    """Spans of one traced workload run, in the order they opened."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, draws]
        self._open = [-1]

    def wrap(self, fn, name_of, draws_of=None):
        spans, stack, clock = self.spans, self._open, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name_of(args, kwargs), 0, 0, stack[-1], 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if draws_of is not None:
                span[4] = draws_of(args, kwargs, out)
            return out

        return traced

    def call(self, name, fn, *args):
        return self.wrap(fn, lambda a, k: name)(*args)

    @contextlib.contextmanager
    def installed(self):
        """Install the wrappers on every hooked name; restore on exit."""
        saved = []
        try:
            for module_name, attr, name_of, draws_of in _HOOKS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name_of, draws_of))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write_jsonl(self, fh, **tags) -> None:
        for i, (name, start, end, parent, draws) in enumerate(self.spans):
            rec = {**tags, "id": i, "name": name, "start_ns": start,
                   "end_ns": end, "parent": parent, "draws": draws}
            fh.write(json.dumps(rec) + "\n")


def summarize(spans) -> dict:
    """Per span name: calls, draws, busy ns and self ns."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls, draws, busy, self_ns = Counter(), Counter(), Counter(), Counter()
    for i, (name, start, end, _, d) in enumerate(spans):
        calls[name] += 1
        draws[name] += d
        busy[name] += end - start
        self_ns[name] += end - start - child_ns[i]
    return {"calls": calls, "draws": draws, "busy_ns": busy, "self_ns": self_ns}
