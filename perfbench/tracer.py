"""Span tracing for the traced benchmark run.

The tracer replaces the names that winflow's modules look up (module
globals and class attributes) with timing wrappers, keeps every span in
memory and restores the original names on exit.  Hot leaf functions
(``LogMgfCurve.log_value``, ``golden_section_max``, ``backlog_bound``) are
only counted: a span per call would cost more than the work they do.

A span is ``(span_id, parent_id, name, start, end, workload, item)``; the
root parent id is 0.  Self time is a span's duration minus the part of it
that its child spans cover.
"""

from __future__ import annotations

import itertools
import os
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

SPAN = "span"
COUNT = "count"

LAYERS = ("scenarios", "models", "bounds", "oracle", "algebra", "simulator", "cli")

# Every per-layer metric the traced run reports, in output order:
# (name, unit, better).  BENCHMARK.json lists the same entries.
PER_LAYER = [
    ("scenarios.parse.calls", "count", "lower"),
    ("scenarios.parse.busy_s", "s", "lower"),
    ("models.sample_increments.iid.calls", "count", "lower"),
    ("models.sample_increments.iid.draws", "count", "lower"),
    ("models.sample_increments.iid.busy_s", "s", "lower"),
    ("models.sample_increments.markov.calls", "count", "lower"),
    ("models.sample_increments.markov.draws", "count", "lower"),
    ("models.sample_increments.markov.busy_s", "s", "lower"),
    ("models.erlang_quantile.calls", "count", "lower"),
    ("models.erlang_quantile.busy_s", "s", "lower"),
    ("simulator.run_flow_control.calls", "count", "lower"),
    ("simulator.run_flow_control.slots", "count", "lower"),
    ("simulator.run_flow_control.busy_s", "s", "lower"),
    ("simulator.run_flow_control.self_s", "s", "lower"),
    ("oracle.equivalent_service_batch.calls", "count", "lower"),
    ("oracle.equivalent_service_batch.path_slots", "count", "lower"),
    ("oracle.equivalent_service_batch.busy_s", "s", "lower"),
    ("oracle.equivalent_service_dp.calls", "count", "lower"),
    ("oracle.equivalent_service_dp.busy_s", "s", "lower"),
    ("oracle.equivalent_service_closure.calls", "count", "lower"),
    ("oracle.equivalent_service_closure.busy_s", "s", "lower"),
    ("oracle.equivalent_service_closure.self_s", "s", "lower"),
    ("algebra.convolve.calls", "count", "lower"),
    ("algebra.convolve.busy_s", "s", "lower"),
    ("algebra.subadditive_closure.calls", "count", "lower"),
    ("algebra.subadditive_closure.busy_s", "s", "lower"),
    ("algebra.subadditive_closure.self_s", "s", "lower"),
    ("bounds.statistical_service_curve.calls", "count", "lower"),
    ("bounds.statistical_service_curve.points", "count", "lower"),
    ("bounds.statistical_service_curve.busy_s", "s", "lower"),
    ("bounds.statistical_service_curve.feasible_ratio", "ratio", "higher"),
    ("bounds.steady_state_backlog_bound.calls", "count", "lower"),
    ("bounds.steady_state_backlog_bound.busy_s", "s", "lower"),
    ("bounds.steady_state_backlog_bound.max_call_s", "s", "lower"),
    ("bounds.backlog_bound.calls", "count", "lower"),
    ("bounds.log_value.calls", "count", "lower"),
    ("bounds.golden_section_max.calls", "count", "lower"),
    ("bounds.effcap.busy_s", "s", "lower"),
    ("cli.cmd_service_curve.calls", "count", "lower"),
    ("cli.cmd_service_curve.busy_s", "s", "lower"),
    ("cli.cmd_service_curve.self_s", "s", "lower"),
    ("cli.cmd_effective_capacity.calls", "count", "lower"),
    ("cli.cmd_effective_capacity.busy_s", "s", "lower"),
    ("cli.cmd_effective_capacity.self_s", "s", "lower"),
    ("cli.cmd_backlog.calls", "count", "lower"),
    ("cli.cmd_backlog.busy_s", "s", "lower"),
    ("cli.cmd_backlog.self_s", "s", "lower"),
    ("cli.cmd_simulate.calls", "count", "lower"),
    ("cli.cmd_simulate.busy_s", "s", "lower"),
    ("cli.cmd_simulate.self_s", "s", "lower"),
    ("cli.write_csv.calls", "count", "lower"),
    ("cli.write_csv.bytes", "count", "lower"),
    ("cli.write_csv.busy_s", "s", "lower"),
] + [(f"layer.{layer}.self_s", "s", "lower") for layer in LAYERS] + [
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.top_coverage", "ratio", "higher"),
]


def _draws(args, kwargs, result):
    return {"draws": int(result.size)}


def _slots(args, kwargs, result):
    return {"slots": int(result.config.total_slots)}


def _path_slots(args, kwargs, result):
    t = args[2] if len(args) > 2 else kwargs["t"]
    return {"path_slots": len(result) * int(t)}


def _curve_points(args, kwargs, result):
    return {"points": len(result.x), "feasible": int(result.feasible.sum())}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(result)}


def targets():
    """(owner, attribute, metric, kind, measure) for every wrapped name.

    The owner is the module or class whose name the caller looks up, so a
    function imported into two modules is wrapped in both.
    """
    from winflow import bounds, cli, models, oracle, scenarios, simulator

    out = [
        (scenarios, "parse_scenario_text", "scenarios.parse", SPAN, None),
        (cli, "erlang_quantile", "models.erlang_quantile", SPAN, None),
        (cli, "run_flow_control", "simulator.run_flow_control", SPAN, _slots),
        (oracle, "equivalent_service_batch", "oracle.equivalent_service_batch", SPAN, _path_slots),
        (simulator, "equivalent_service_batch", "oracle.equivalent_service_batch", SPAN, _path_slots),
        (oracle, "equivalent_service_dp", "oracle.equivalent_service_dp", SPAN, None),
        (oracle, "equivalent_service_closure", "oracle.equivalent_service_closure", SPAN, None),
        (oracle, "convolve", "algebra.convolve", SPAN, None),
        (oracle, "subadditive_closure", "algebra.subadditive_closure", SPAN, None),
        (cli, "statistical_service_curve", "bounds.statistical_service_curve", SPAN, _curve_points),
        (bounds, "statistical_service_curve", "bounds.statistical_service_curve", SPAN, _curve_points),
        (cli, "steady_state_backlog_bound", "bounds.steady_state_backlog_bound", SPAN, None),
        (bounds, "backlog_bound", "bounds.backlog_bound", COUNT, None),
        (bounds, "golden_section_max", "bounds.golden_section_max", COUNT, None),
        (bounds.LogMgfCurve, "log_value", "bounds.log_value", COUNT, None),
        (cli, "write_csv", "cli.write_csv", SPAN, _file_bytes),
    ]
    for name in ("best_effcap_lower", "effcap_lower_series", "effcap_lower_blocks", "effcap_apriori"):
        out.append((cli, name, "bounds.effcap", SPAN, None))
    for verb in ("service_curve", "effective_capacity", "backlog", "simulate"):
        out.append((cli, f"cmd_{verb}", f"cli.cmd_{verb}", SPAN, None))
    for cls in (
        models.DeterministicService,
        models.ExponentialVbrService,
        models.ExponentialArrivals,
        models.LeftoverService,
    ):
        out.append((cls, "sample_increments", "models.sample_increments.iid", SPAN, _draws))
    for cls in (models.MmooService, models.MarkovModulated2Service):
        out.append((cls, "sample_increments", "models.sample_increments.markov", SPAN, _draws))
    return out


class Tracer:
    """Collects spans and counts while installed; one tracer per traced pass."""

    def __init__(self, workload: str, first_id: int = 1):
        self.workload = workload
        self.item = "setup"
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(first_id)
        self._stack = [0]
        self._open: Counter = Counter()

    def timed(self, name, fn, measure=None):
        """Wrap fn in a span; measure(args, kwargs, result) adds counts.

        Counts are added for outermost calls only, so a call nested in a
        span of the same name (leftover sampling draws its base and cross
        increments) is not counted twice.
        """
        ids, stack, nested = self._ids, self._stack, self._open
        spans, counts, tracer = self.spans, self.counts, self

        def wrapper(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1]
            stack.append(span_id)
            nested[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                nested[name] -= 1
                spans.append((span_id, parent, name, start, end, tracer.workload, tracer.item))
            if measure is not None and not nested[name]:
                for key, amount in measure(args, kwargs, result).items():
                    counts[f"{name}.{key}"] += amount
            return result

        return wrapper

    def counted(self, name, fn):
        counts, key = self.counts, f"{name}.calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target name; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, metric, kind, measure in targets():
                original = owner.__dict__[attr]
                wrapped = (
                    self.timed(metric, original, measure)
                    if kind == SPAN
                    else self.counted(metric, original)
                )
                setattr(owner, attr, wrapped)
                saved.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# span analysis
# ---------------------------------------------------------------------------


def _union_length(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans) -> dict:
    """Per span name: calls, busy_s, self_s and max_call_s.

    calls, busy_s and max_call_s count outermost spans only (a span with no
    ancestor of the same name); self_s sums the self time of every span.
    """
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        children[s[1]].append((s[3], s[4]))
    out = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "max_call_s": 0.0})
    for span_id, parent, name, start, end, *_ in spans:
        duration = end - start
        row = out[name]
        row["self_s"] += duration - _union_length(children.get(span_id, ()))
        ancestor = by_id.get(parent)
        while ancestor is not None and ancestor[2] != name:
            ancestor = by_id.get(ancestor[1])
        if ancestor is None:
            row["calls"] += 1
            row["busy_s"] += duration
            row["max_call_s"] = max(row["max_call_s"], duration)
    return dict(out)


def top_level_coverage(spans, wall_s: float) -> float:
    """Share of the pass wall time covered by spans that have no parent."""
    if wall_s <= 0:
        return 0.0
    return _union_length([(s[3], s[4]) for s in spans if s[1] == 0]) / wall_s


def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """Per-layer metric values of one traced pass (trace.* excluded)."""
    summary = summarize(tracer.spans)
    counts = tracer.counts
    values = {}
    for name, _unit, _better in PER_LAYER:
        metric, _, field = name.rpartition(".")
        if metric == "trace" or metric.startswith("layer."):
            continue
        if field == "feasible_ratio":
            points = counts[f"{metric}.points"]
            values[name] = counts[f"{metric}.feasible"] / points if points else 0.0
        elif field in ("calls", "busy_s", "self_s", "max_call_s") and metric in summary:
            values[name] = summary[metric][field]
        else:  # counted names, and span names that did not run
            values[name] = counts[name]
    layer_self = Counter()
    for metric, row in summary.items():
        layer_self[metric.split(".")[0]] += row["self_s"]
    for layer in LAYERS:
        values[f"layer.{layer}.self_s"] = layer_self[layer]
    values["trace.top_coverage"] = top_level_coverage(tracer.spans, wall_s)
    return values


def combine_passes(pass_values: list[dict]) -> dict:
    """Median of each metric over the traced passes.  Counts repeat exactly
    from pass to pass and stay whole numbers."""
    out = {}
    for k in pass_values[0]:
        values = [v[k] for v in pass_values]
        exact = all(isinstance(x, int) for x in values)
        out[k] = statistics.median_low(values) if exact else statistics.median(values)
    return out
