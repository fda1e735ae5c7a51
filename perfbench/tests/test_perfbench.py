"""Tests of the benchmark's own arithmetic.

    python3 -m pytest perfbench/tests
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import calibration  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from checks import Checks, compare_csv, exit_status, fail_ratio  # noqa: E402
from workloads import WORK_UNITS, WORKLOADS  # noqa: E402


def _span(span_id, parent, name, start, end):
    return (span_id, parent, name, start, end, "test", "item")


def test_self_time_subtracts_nested_children():
    spans = [
        _span(3, 2, "oracle.c", 2.0, 3.0),
        _span(2, 1, "oracle.b", 1.0, 4.0),
        _span(4, 1, "oracle.d", 5.0, 9.0),
        _span(1, 0, "cli.a", 0.0, 10.0),
    ]
    summary = tracer.summarize(spans)
    assert summary["cli.a"]["self_s"] == pytest.approx(3.0)  # 10 - (3 + 4)
    assert summary["oracle.b"]["self_s"] == pytest.approx(2.0)  # 3 - 1
    assert summary["oracle.c"]["self_s"] == pytest.approx(1.0)
    assert summary["oracle.d"]["self_s"] == pytest.approx(4.0)
    assert summary["cli.a"]["busy_s"] == pytest.approx(10.0)
    assert tracer.top_level_coverage(spans, 12.5) == pytest.approx(0.8)


def test_same_name_nesting_counts_outermost_call_once():
    spans = [
        _span(2, 1, "models.x", 2.0, 5.0),
        _span(1, 0, "models.x", 0.0, 10.0),
    ]
    row = tracer.summarize(spans)["models.x"]
    assert row["calls"] == 1
    assert row["busy_s"] == pytest.approx(10.0)
    assert row["max_call_s"] == pytest.approx(10.0)
    assert row["self_s"] == pytest.approx(10.0)  # (10 - 3) + 3


def test_overlapping_children_are_covered_once():
    spans = [
        _span(2, 1, "b", 1.0, 4.0),
        _span(3, 1, "b", 3.0, 6.0),
        _span(1, 0, "a", 0.0, 10.0),
    ]
    assert tracer.summarize(spans)["a"]["self_s"] == pytest.approx(5.0)


def test_tracer_restores_wrapped_names_and_counts_nested_draws_once():
    from winflow import cli, models

    original = models.LeftoverService.__dict__["sample_increments"]
    original_cmd = cli.cmd_backlog
    trace = tracer.Tracer("test")
    leftover = models.LeftoverService(models.DeterministicService(1.0), models.ExponentialArrivals(0.4))
    with trace.installed():
        assert models.LeftoverService.__dict__["sample_increments"] is not original
        leftover.sample_increments(np.random.default_rng(0), 7, 3)
    assert models.LeftoverService.__dict__["sample_increments"] is original
    assert cli.cmd_backlog is original_cmd
    assert trace.counts["models.sample_increments.iid.draws"] == 21
    values = tracer.layer_metrics(trace, 1.0)
    assert values["models.sample_increments.iid.calls"] == 1
    assert values["models.sample_increments.iid.draws"] == 21


def test_wall_sums_per_item_medians_and_drops_a_cold_first_pass():
    # three passes over two items; the first pass is cold and slow
    passes = [[9.0, 6.0], [2.0, 1.0], [1.0, 2.0]]
    assert worker.item_median_wall(passes) == pytest.approx(4.0)


def test_combined_passes_keep_counts_whole():
    combined = tracer.combine_passes([{"n.calls": 4, "n.busy_s": 1.0}, {"n.calls": 4, "n.busy_s": 2.0}])
    assert combined == {"n.calls": 4, "n.busy_s": 1.5}
    assert isinstance(combined["n.calls"], int)


def test_fail_ratio_and_exit_status_with_a_failing_check():
    checks = Checks()
    checks.record("passes", True)
    checks.record("fake", False, "fails on purpose")
    assert (checks.attempted, checks.failed) == (2, 1)
    assert fail_ratio(checks.failed, checks.attempted) == 0.5
    assert checks.failures == ["fake: fails on purpose"]
    assert exit_status(checks.failed) == 1
    assert exit_status(0) == 0


def test_item_that_raises_counts_as_failed_check():
    class Broken:
        name = "broken"

        def boom(self, out_dir):
            raise RuntimeError("on purpose")

        @property
        def items(self):
            return [("ok", lambda out_dir: 1), ("boom", self.boom)]

    checks = Checks()
    _, results = worker.run_pass(Broken(), "unused", checks)
    assert results == [1]
    assert (checks.attempted, checks.failed) == (1, 1)


def test_command_exits_nonzero_and_reports_failure(monkeypatch, capsys):
    fake = {
        "walls": [2.0, 1.0, 3.0], "wall": 2.0, "calibrations": [0.1, 0.025, 0.05], "setups": [0.3, 0.1, 0.2], "work_per_pass": 10,
        "work_unit": "bound values", "peak_rss_mb": 50.0, "numpy": "x",
        "attempted": 4, "failed": 1, "failures": ["fake: on purpose"], "diagnostics": [],
    }
    monkeypatch.setattr(run, "measure", lambda args: fake)
    status = run.main(["--workload", "analytic", "--seconds", "1"])
    out = capsys.readouterr().out.splitlines()
    last = json.loads(out[-1])
    assert status == 1
    assert any(line.startswith("fail_ratio") and " 0.25 " in line for line in out)
    assert last["correct"] is False
    assert (last["attempted"], last["failed"]) == (4, 1)
    # the calibration loop took its nominal 0.05 s, so times are unscaled
    assert last["metrics"]["wall_s"] == {"value": 2.0, "unit": "s"}
    assert last["metrics"]["work_per_s"] == {"value": 5.0, "unit": "1/s"}
    assert last["metrics"]["setup_s"]["value"] == pytest.approx(0.2)


def test_times_scale_to_nominal_machine_speed():
    # a machine at half speed takes twice the nominal calibration time
    assert calibration.speed_scale([0.1, 0.1, 0.2]) == pytest.approx(0.5)
    assert calibration.speed_scale([calibration.CALIBRATION_S]) == pytest.approx(1.0)
    assert 0.01 < calibration.calibrate() < 10.0


@pytest.mark.parametrize(
    "name, unit, work",
    [
        # 2 curve sections x 1001 t x (4 curves + 1 lower + 4 upper),
        # 4 effcap sections x 512 theta x 6 d, 20 lambda rows x 3 eps
        ("analytic", "bound values", 2 * 1001 * 9 + 4 * 512 * 6 + 20 * 3),
        # 4 sections x 4 replications x 2.5e5 slots
        ("simulate", "slot-replications", 4 * 4 * 250_000),
        # 3 servers x 2 delays x 5e4 paths x (10 + 25 + 50) slots
        ("validate", "oracle path-slots", 6 * 50_000 * 85),
    ],
)
def test_work_per_s_units_per_workload(name, unit, work):
    workload = WORKLOADS[name](run.DEFAULT_SEED)
    assert WORK_UNITS[name] == workload.work_unit == unit
    assert workload.work_per_pass == work


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS.values())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracer.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_compare_csv_tolerances():
    expected = "x,y,kind\n1.0,2.0,a\n2.0,inf,b\n3.0,nan,c\n"
    close = "x,y,kind\n1.0,2.0000001,a\n2.0,inf,b\n3.0,nan,c\n"
    assert compare_csv(close, expected, 1e-6, 0.0)[0]
    assert not compare_csv(close, expected, 1e-9, 0.0)[0]
    assert not compare_csv(expected.replace("inf", "5.0"), expected, 1e-6, 0.0)[0]
    assert not compare_csv(expected.replace(",a", ",z"), expected, 1e-6, 0.0)[0]
    assert not compare_csv(expected + "4.0,1.0,d\n", expected, 1e-6, 0.0)[0]
