"""Output checks: counting, tolerant CSV comparison and reference files."""

from __future__ import annotations

import json
import lzma
import math
import os

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


class Checks:
    """Attempted and failed output checks of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{name}: {detail}" if detail else name)


def fail_ratio(failed: int, attempted: int) -> float:
    """Failed over attempted checks (1.0 when nothing was checked)."""
    return failed / attempted if attempted else 1.0


def exit_status(failed: int) -> int:
    """Process exit code of a run: nonzero when any output check failed."""
    return 1 if failed else 0


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def compare_csv(actual: str, expected: str, rel_tol: float, abs_tol: float) -> tuple[bool, str]:
    """Compare two CSV texts cell by cell.

    Numeric cells agree when |a - b| <= abs_tol + rel_tol * |b|; nan and
    infinities must match exactly; other cells must be equal strings.
    """
    a_lines = actual.splitlines()
    e_lines = expected.splitlines()
    if not a_lines or not e_lines or a_lines[0] != e_lines[0]:
        return False, "header differs"
    if len(a_lines) != len(e_lines):
        return False, f"{len(a_lines)} lines, expected {len(e_lines)}"
    worst = 0.0
    for row, (a_line, e_line) in enumerate(zip(a_lines[1:], e_lines[1:]), start=1):
        a_cells, e_cells = a_line.split(","), e_line.split(",")
        if len(a_cells) != len(e_cells):
            return False, f"row {row}: {len(a_cells)} cells, expected {len(e_cells)}"
        for col, (a, e) in enumerate(zip(map(_cell, a_cells), map(_cell, e_cells))):
            if isinstance(a, str) or isinstance(e, str):
                if a != e:
                    return False, f"row {row} col {col}: {a!r} != {e!r}"
                continue
            if not (math.isfinite(a) and math.isfinite(e)):
                if not (a == e or (math.isnan(a) and math.isnan(e))):
                    return False, f"row {row} col {col}: {a} != {e}"
                continue
            diff = abs(a - e)
            if diff > abs_tol + rel_tol * abs(e):
                return False, f"row {row} col {col}: {a!r} vs {e!r}"
            worst = max(worst, diff)
    return True, f"max abs diff {worst:.3g}"


def reference_path(name: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{name}.json.xz")


def load_reference(name: str) -> dict:
    """File name -> CSV text, as recorded by record_reference.py."""
    with lzma.open(reference_path(name), "rt", encoding="utf-8") as handle:
        return json.load(handle)


def save_reference(name: str, files: dict) -> str:
    path = reference_path(name)
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    with lzma.open(path, "wt", encoding="utf-8") as handle:
        json.dump(files, handle, sort_keys=True, indent=0)
    return path
