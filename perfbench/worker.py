"""One benchmark process: set up a workload, run passes, check, report.

Started by run.py with PYTHONPATH pointing at the checkout's ``src`` and
BLAS/OpenMP threads pinned to 1.  Prints ``{"ready": <monotonic time>}``
when set-up ends (just before the first item) and, unless ``--setup-only``
is given, one JSON result line when the run ends.

A pass runs every item of the workload once; passes repeat while the next
one is expected to end within ``--seconds``.  The reported wall time is
the sum over items of each item's median duration.  A fixed calibration
loop is timed between items, at least once a second.  With ``--trace 1``
passes alternate untraced and traced.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy

import tracer as tracing
from calibration import CALIBRATE_EVERY_S, calibrate
from checks import Checks
from workloads import WORKLOADS


def _check_source(root: str) -> None:
    """Refuse to measure a winflow other than the checkout's."""
    import winflow

    expected = os.path.join(root, "src", "winflow")
    if os.path.dirname(os.path.abspath(winflow.__file__)) != expected:
        raise SystemExit(f"winflow imported from {winflow.__file__}, expected {expected}")


# Every item should run at least MIN_PASSES times, so that the median of
# each item leaves out its first execution, which runs on cold memory (every
# large array page-faults on first touch).  Runs may stretch their budget by
# MIN_PASSES_STRETCH to get there.
MIN_PASSES = 3
MIN_PASSES_STRETCH = 1.5


def run_pass(workload, out_dir: str, checks, tracer=None, calibrations=None) -> tuple[list, list]:
    """Run every item once; returns (item durations, item results).

    With a calibrations list, the calibration loop is timed into it before
    the first item and then whenever a second of item time has passed.
    """
    results, durations = [], []
    since = CALIBRATE_EVERY_S
    for label, item in workload.items:
        if calibrations is not None and since >= CALIBRATE_EVERY_S:
            calibrations.append(calibrate())
            since = 0.0
        if tracer is not None:
            tracer.item = label
        start = time.perf_counter()
        try:
            results.append(item(out_dir))
        except Exception:  # an item that raises is a failed check; keep going
            checks.record(f"{workload.name}.{label}.raised", False, traceback.format_exc(limit=3))
        durations.append(time.perf_counter() - start)
        since += durations[-1]
    return durations, results


def item_median_wall(passes: list) -> float:
    """Sum over items of each item's median duration across passes."""
    return sum(statistics.median(times) for times in zip(*passes))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", required=True, help="scratch directory for CSV output")
    args = parser.parse_args(argv)

    _check_source(args.root)
    setup_tracer = tracing.Tracer(args.workload) if args.trace else None
    if setup_tracer is not None:
        with setup_tracer.installed():
            workload = WORKLOADS[args.workload](args.seed)
    else:
        workload = WORKLOADS[args.workload](args.seed)
    print(json.dumps({"ready": time.monotonic()}), flush=True)
    if args.setup_only:
        return 0

    checks = Checks()
    os.makedirs(args.out, exist_ok=True)
    untraced, traced, layer_values, calibrations = [], [], [], []
    start = time.monotonic()
    try:
        while True:
            if args.trace and len(untraced) > len(traced):
                # span ids continue after the set-up spans they share a file with
                pass_tracer = tracing.Tracer(args.workload, first_id=len(setup_tracer.spans) + 1)
                with pass_tracer.installed():
                    durations, results = run_pass(workload, args.out, checks, pass_tracer, calibrations)
                traced.append(durations)
                layer_values.append(tracing.layer_metrics(pass_tracer, sum(durations)))
                if len(traced) == 1:
                    spans_path = _write_spans(args, setup_tracer.spans + pass_tracer.spans)
            else:
                durations, results = run_pass(workload, args.out, checks, None, calibrations)
                untraced.append(durations)
            workload.check(results, checks)
            del results
            if args.trace and not traced:
                continue
            passes = len(untraced) + len(traced)
            end = time.monotonic() - start + statistics.median(map(sum, untraced + traced))
            if end > args.seconds * (MIN_PASSES_STRETCH if passes < MIN_PASSES else 1.0):
                break
    finally:
        shutil.rmtree(args.out, ignore_errors=True)

    result = {
        "numpy": numpy.__version__,
        "walls": [sum(p) for p in untraced],
        "wall": item_median_wall(untraced),
        "calibrations": calibrations,
        "work_per_pass": workload.work_per_pass,
        "work_unit": workload.work_unit,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.failures,
        "diagnostics": workload.diagnostics,
    }
    if args.trace:
        per_layer = tracing.combine_passes(layer_values)
        # scenarios are parsed once, in set-up
        parse = tracing.summarize(setup_tracer.spans).get("scenarios.parse", {})
        per_layer["scenarios.parse.calls"] = parse.get("calls", 0)
        per_layer["scenarios.parse.busy_s"] = parse.get("busy_s", 0.0)
        per_layer["layer.scenarios.self_s"] = parse.get("self_s", 0.0)
        per_layer["trace.wall_s"] = item_median_wall(traced)
        # the first pass of a process runs on cold memory; compare warm passes
        per_layer["trace.overhead_s"] = per_layer["trace.wall_s"] - item_median_wall(untraced[1:] or untraced)
        result.update(traced_walls=[sum(p) for p in traced], per_layer=per_layer, spans=spans_path)
    print(json.dumps(result), flush=True)
    return 0


def _write_spans(args, spans) -> str:
    """Write spans as JSON lines; times are seconds from the first span."""
    directory = os.path.join(args.root, ".perfbench_out", "spans")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{args.workload}-seed{args.seed}.jsonl")
    origin = min((s[3] for s in spans), default=0.0)
    keys = ("id", "parent", "name", "start", "end", "workload", "item")
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            row = dict(zip(keys, span))
            row["start"] -= origin
            row["end"] -= origin
            handle.write(json.dumps(row) + "\n")
    return path


if __name__ == "__main__":
    sys.exit(main())
