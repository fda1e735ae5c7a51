"""winflow benchmark: one command, one workload, every metric with its unit.

    python3 perfbench/run.py --workload analytic|simulate|validate \\
        [--seed N] [--seconds S] [--trace 0|1]

Runs from any directory; the program is the checkout's ``src/winflow``.
Each measured run is one fresh worker process with BLAS/OpenMP threads
pinned to 1.  Set-up time is measured on separate fresh processes that stop
just before the first item, and their median is reported.  End-to-end
times are scaled to a nominal machine speed by a calibration loop timed in
the worker (see calibration.py); the measured times are in the run record.  With
``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1`` it
prints the per-layer metrics of a traced run.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the exit status is nonzero when any output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from calibration import speed_scale
from checks import exit_status, fail_ratio
from tracer import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1
WORKLOADS = ("analytic", "simulate", "validate")
SETUP_PROBES = 7
RUN_LIMIT_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
LIMITS = (
    "shared machine: no CPU pinning, no frequency control and no hardware "
    "counters; times are wall-clock medians over passes and set-up processes"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MiB",
}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha(root: str):
    """Commit of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _environment() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _worker(args, env, out_dir: str, setup_only: bool, timeout: float) -> tuple[float, list]:
    """Run one worker process; returns (set-up seconds, JSON lines it printed)."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--root", ROOT, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out_dir,
    ]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout)
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    if proc.returncode != 0 or not lines or "ready" not in lines[0]:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return lines[0]["ready"] - started, lines[1:]


def measure(args) -> dict:
    """Set-up probes, then the measured worker; returns the assembled result."""
    env = _environment()
    out_dir = os.path.join(ROOT, ".perfbench_out", f"{args.workload}-{os.getpid()}")
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = []
    for _ in range(SETUP_PROBES):
        setup, _ = _worker(args, env, out_dir, True, timeout=30.0)
        setups.append(setup)
    setup, lines = _worker(args, env, out_dir, False, timeout=deadline - time.monotonic())
    setups.append(setup)
    if not lines:
        raise RuntimeError("worker printed no result")
    worker = lines[-1]
    worker["setups"] = setups
    return worker


def metrics_of(args, worker: dict) -> dict:
    if args.trace:
        return {
            name: {"value": worker["per_layer"][name], "unit": unit} for name, unit, _ in PER_LAYER
        }
    scale = speed_scale(worker["calibrations"])
    wall = worker["wall"] * scale
    values = {
        "setup_s": statistics.median(worker["setups"]) * scale,
        "wall_s": wall,
        "work_per_s": worker["work_per_pass"] / wall,
        "peak_rss_mb": worker["peak_rss_mb"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def run_record(args, worker: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": worker["numpy"],
        "git_sha": _git_sha(ROOT),
        "threads": {var: _environment()[var] for var in THREAD_VARS},
        "limits": LIMITS,
        "calibrations_s": worker["calibrations"],
        "speed_scale": speed_scale(worker["calibrations"]),
        "measured_wall_s": worker["wall"],
        "measured_setup_s": statistics.median(worker["setups"]),
        "pass_walls_s": worker["walls"],
        "traced_pass_walls_s": worker.get("traced_walls", []),
        "setup_samples_s": worker["setups"],
        "work_per_pass": worker["work_per_pass"],
        "work_unit": worker["work_unit"],
        "spans": worker.get("spans"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0, help="measurement budget per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not os.path.isfile(os.path.join(ROOT, "src", "winflow", "__init__.py")):
        print(f"error: no winflow sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        worker = measure(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    metrics = metrics_of(args, worker)
    print("run_record " + json.dumps(run_record(args, worker), sort_keys=True))
    for line in worker["diagnostics"]:
        print(f"diagnostic: {line}")
    for line in worker["failures"]:
        print(f"FAILED {line}")
    for name, metric in metrics.items():
        print(f"{name:52s} {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        print(f"{'work unit':52s} {worker['work_unit']} per second")
    attempted, failed = worker["attempted"], worker["failed"]
    print(f"{'fail_ratio':52s} {fail_ratio(failed, attempted):.6g} ({failed} of {attempted} checks failed)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return exit_status(failed)


if __name__ == "__main__":
    sys.exit(main())
