"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_reference.py

Runs one pass of ``analytic`` and of ``simulate`` at the default seed on the
checkout's ``src/winflow`` and stores every CSV they write in
``perfbench/reference/<name>.json.xz``.  Run it only at a commit whose
outputs are the intended reference.
"""

from __future__ import annotations

import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from checks import Checks, save_reference  # noqa: E402
from run import DEFAULT_SEED  # noqa: E402
from worker import run_pass  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def record(name: str, reference: str) -> None:
    out_dir = os.path.join(ROOT, ".perfbench_out", "reference")
    shutil.rmtree(out_dir, ignore_errors=True)
    checks = Checks()
    _, results = run_pass(WORKLOADS[name](DEFAULT_SEED), out_dir, checks)
    if checks.failed:
        raise SystemExit("\n".join(checks.failures))
    files = {}
    for entry in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, entry), encoding="utf-8") as handle:
            files[entry] = handle.read()
    shutil.rmtree(out_dir)
    print(save_reference(reference, files), f"({len(files)} files)")


if __name__ == "__main__":
    record("analytic", "analytic")
    record("simulate", f"simulate-seed{DEFAULT_SEED}")
