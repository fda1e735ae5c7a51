"""Config parsing, CSV emission, CLI verbs, and the verify suite."""

import csv
import math
import os
import re

import numpy as np
import pytest

from winflow import cli, units
from winflow.bounds import ThetaGrid
from winflow.cli import _fmt, main, write_csv
from winflow.scenarios import (
    CANNED,
    MAX_SLOTS,
    ScenarioError,
    canned_scenarios,
    parse_scenario_text,
)
from winflow.verify import run_all, run_report, suite_dual_oracle

VBR_CURVE_INI = """
[curves]
kind = service-curve
seed = 7
service = exponential
service_rate_mbps = 1000
w_over_d_mbps = 100
d_ms = 1 2 5
epsilon = 1e-6
horizon_ms = 40
"""

MMOO_CURVE_INI = """
[mmoo-curves]
kind = service-curve
seed = 8
service = mmoo
mmoo_p00 = 0.2
mmoo_p11 = 0.9
mmoo_peak_mbps = 1125
w_over_d_mbps = 100
d_ms = 1 5
epsilon = 1e-6
horizon_ms = 30
"""

EFFCAP_INI = """
[effcap]
kind = effective-capacity
seed = 9
service = exponential
service_rate_mbps = 1000
w_over_d_mbps = 100
d_ms = 1 5
theta_points = 24
"""

BACKLOG_INI = """
[backlog]
kind = backlog
seed = 10
service = exponential
service_rate_mbps = 1000
d_ms = 1
w_mb = 0.1
lambda_mbps = 30 50 70
epsilons = 1e-3 1e-9
theta_points = 48
"""

SIM_INI = """
[sat]
kind = simulate
seed = 11
service = deterministic
service_rate_mbps = 1000
arrival = deterministic
arrival_rate_mbps = 10000
w_mb = 0.1
d_ms = 1
total_slots = 5000
warmup_slots = 100
replications = 2
"""


# the canned studies as literal INI text, from before they were generated
# from one table; the generated text must parse to the same scenarios
CANNED_LITERAL = {
    "fig4": """
[fig4a-vbr-curves-100]
kind = service-curve
seed = 20211
service = exponential
service_rate_mbps = 1000
w_over_d_mbps = 100
d_ms = 1 2 5 10
epsilon = 1e-6
horizon_ms = 100

[fig4b-vbr-curves-500]
kind = service-curve
seed = 20212
service = exponential
service_rate_mbps = 1000
w_over_d_mbps = 500
d_ms = 1 2 5 10
epsilon = 1e-6
horizon_ms = 100
""",
    "fig5": """
[fig5a-vbr-effcap-100]
kind = effective-capacity
seed = 20213
service = exponential
service_rate_mbps = 1000
w_over_d_mbps = 100
d_ms = 1 2 5 10

[fig5b-vbr-effcap-500]
kind = effective-capacity
seed = 20214
service = exponential
service_rate_mbps = 1000
w_over_d_mbps = 500
d_ms = 1 2 5 10
""",
    "fig6": """
[fig6a-mmoo-curves-100]
kind = service-curve
seed = 20215
service = mmoo
mmoo_p00 = 0.2
mmoo_p11 = 0.9
mmoo_peak_mbps = 1125
w_over_d_mbps = 100
d_ms = 1 2 5 10
epsilon = 1e-6
horizon_ms = 100

[fig6b-mmoo-curves-500]
kind = service-curve
seed = 20216
service = mmoo
mmoo_p00 = 0.2
mmoo_p11 = 0.9
mmoo_peak_mbps = 1125
w_over_d_mbps = 500
d_ms = 1 2 5 10
epsilon = 1e-6
horizon_ms = 100
""",
    "fig7": """
[fig7a-mmoo-effcap-100]
kind = effective-capacity
seed = 20217
service = mmoo
mmoo_p00 = 0.2
mmoo_p11 = 0.9
mmoo_peak_mbps = 1125
w_over_d_mbps = 100
d_ms = 1 2 5 10

[fig7b-mmoo-effcap-500]
kind = effective-capacity
seed = 20218
service = mmoo
mmoo_p00 = 0.2
mmoo_p11 = 0.9
mmoo_peak_mbps = 1125
w_over_d_mbps = 500
d_ms = 1 2 5 10
""",
    "fig8": """
[fig8a-vbr-backlog-100]
kind = backlog
seed = 20219
service = exponential
service_rate_mbps = 1000
d_ms = 1
w_mb = 0.1
lambda_mbps = 10 20 30 40 50 60 70 80 85 90 92 94
epsilons = 1e-3 1e-6 1e-9

[fig8b-vbr-backlog-500]
kind = backlog
seed = 20220
service = exponential
service_rate_mbps = 1000
d_ms = 1
w_mb = 0.5
lambda_mbps = 50 100 150 200 250 300 330 360 380 390
epsilons = 1e-3 1e-6 1e-9
""",
}


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        rows = [row for row in reader]
    return header, rows


def column(header, rows, name):
    idx = header.index(name)
    return np.array([float(r[idx]) for r in rows])


class TestScenarioParsing:
    def test_full_valid_scenario(self):
        (sc,) = parse_scenario_text(VBR_CURVE_INI)
        assert sc.kind == "service-curve"
        assert sc.seed == 7
        assert sc.d_slots == [1, 2, 5]
        assert sc.w_mb == pytest.approx([0.1, 0.2, 0.5])
        assert sc.horizon_slots == 40
        assert sc.service.mean_rate == pytest.approx(1.0)

    def test_theta_grid_defaults_to_the_bounds_grid(self):
        (sc,) = parse_scenario_text(VBR_CURVE_INI)
        grid = ThetaGrid.logspace(sc.theta_min, sc.theta_max, sc.theta_points)
        assert np.array_equal(grid.values, ThetaGrid.logspace().values)

    def test_missing_required_key_names_section_and_key(self):
        with pytest.raises(ScenarioError, match=r"\[curves\] epsilon"):
            parse_scenario_text(VBR_CURVE_INI.replace("epsilon = 1e-6", ""))

    def test_no_implicit_seed(self):
        with pytest.raises(ScenarioError, match="seed"):
            parse_scenario_text(VBR_CURVE_INI.replace("seed = 7", ""))

    def test_unknown_key_rejected(self):
        with pytest.raises(ScenarioError, match="unknown key"):
            parse_scenario_text(VBR_CURVE_INI + "typo_key = 3\n")

    def test_window_list_must_match_delay_list(self):
        text = VBR_CURVE_INI.replace("w_over_d_mbps = 100", "w_mb = 0.1 0.2")
        with pytest.raises(ScenarioError, match="one window per delay"):
            parse_scenario_text(text)

    def test_fractional_slot_duration_rejected(self):
        with pytest.raises(ValueError, match="whole number"):
            parse_scenario_text(VBR_CURVE_INI.replace("d_ms = 1 2 5", "d_ms = 1.5"))

    @pytest.mark.parametrize("figure", sorted(CANNED_LITERAL))
    def test_canned_studies_equal_their_literal_text(self, figure):
        assert canned_scenarios(figure) == parse_scenario_text(CANNED_LITERAL[figure])

    def test_canned_studies_are_the_reproduce_choices(self, capsys):
        assert sorted(CANNED) == sorted(CANNED_LITERAL)
        with pytest.raises(SystemExit):
            main(["reproduce", "fig9"])
        assert "'fig4', 'fig5', 'fig6', 'fig7', 'fig8'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "p00, p11, key",
        [
            ("0.2", "0.5", "mmoo_p11"),
            ("0.5", "0.5", "mmoo_p11"),
            ("1.0", "1.0", "mmoo_p11"),
            ("1.5", "0.9", "mmoo_p00"),
        ],
        ids=["fast-switching", "switching-sum-one", "no-steady-state", "not-a-probability"],
    )
    def test_mmoo_without_slow_switching_names_the_key(self, p00, p11, key):
        text = MMOO_CURVE_INI.replace("mmoo_p00 = 0.2", f"mmoo_p00 = {p00}").replace(
            "mmoo_p11 = 0.9", f"mmoo_p11 = {p11}"
        )
        with pytest.raises(ScenarioError, match=rf"\[mmoo-curves\] {key}") as info:
            parse_scenario_text(text)
        assert info.value.key == key

    @pytest.mark.parametrize("p00, p11", [("0.2", "0.5"), ("0.5", "0.5")])
    def test_simulate_accepts_fast_switching_mmoo(self, p00, p11, tmp_path):
        # only the spectral bounds need slow switching; the simulator does not
        text = SIM_INI.replace(
            "service = deterministic",
            f"service = mmoo\nmmoo_p00 = {p00}\nmmoo_p11 = {p11}\nmmoo_peak_mbps = 1125",
        ).replace("service_rate_mbps = 1000\n", "")
        (sc,) = parse_scenario_text(text)
        assert not sc.service.is_slow_switching
        cfg = tmp_path / "sim.ini"
        cfg.write_text(text.replace("total_slots = 5000", "total_slots = 500"))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0

    def test_simulate_rejects_frozen_mmoo(self):
        text = SIM_INI.replace(
            "service = deterministic",
            "service = mmoo\nmmoo_p00 = 1.0\nmmoo_p11 = 1.0\nmmoo_peak_mbps = 1125",
        ).replace("service_rate_mbps = 1000\n", "")
        with pytest.raises(ScenarioError, match=r"\[sat\] mmoo_p11"):
            parse_scenario_text(text)

    @pytest.mark.parametrize("cross", ["1000", "1200"])
    def test_unstable_leftover_names_the_key(self, cross):
        text = VBR_CURVE_INI.replace(
            "service = exponential", f"service = leftover\ncross_rate_mbps = {cross}"
        )
        with pytest.raises(ScenarioError, match=r"\[curves\] cross_rate_mbps") as info:
            parse_scenario_text(text)
        assert info.value.key == "cross_rate_mbps"


    @pytest.mark.parametrize("seed", ["-1", "-20211"])
    def test_negative_seed_names_the_key(self, seed):
        with pytest.raises(ScenarioError, match=r"\[sat\] seed") as info:
            parse_scenario_text(SIM_INI.replace("seed = 11", f"seed = {seed}"))
        assert info.value.key == "seed"

    @pytest.mark.parametrize("verb", ["simulate", "verify"])
    def test_negative_seed_option_is_a_usage_error(self, verb, tmp_path, capsys):
        cfg = tmp_path / "sim.ini"
        cfg.write_text(SIM_INI)
        argv = [verb, "--seed", "-2"]
        if verb == "simulate":
            argv += ["--config", str(cfg), "--out", str(tmp_path)]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("value", ["1", "0", "1.5", "-1e-6", "nan"])
    def test_epsilon_outside_unit_interval_names_the_key(self, value):
        text = VBR_CURVE_INI.replace("epsilon = 1e-6", f"epsilon = {value}")
        with pytest.raises(ScenarioError, match=r"\[curves\] epsilon") as info:
            parse_scenario_text(text)
        assert info.value.key == "epsilon"

    @pytest.mark.parametrize("values", ["1e-3 1", "0 1e-9", "1e-3 2", "nan 1e-3"])
    def test_epsilons_outside_unit_interval_names_the_key(self, values):
        text = BACKLOG_INI.replace("epsilons = 1e-3 1e-9", f"epsilons = {values}")
        with pytest.raises(ScenarioError, match=r"\[backlog\] epsilons") as info:
            parse_scenario_text(text)
        assert info.value.key == "epsilons"

    @pytest.mark.parametrize(
        "key, value",
        [
            ("service_rate_mbps", "nan"),
            ("service_rate_mbps", "inf"),
            ("w_over_d_mbps", "nan"),
            ("w_over_d_mbps", "inf"),
            ("w_over_d_mbps", "-inf"),
            ("d_ms", "0.3"),
            ("d_ms", "nan"),
            ("d_ms", "1 inf"),
            ("horizon_ms", "nan"),
            ("horizon_ms", "2.5"),
            ("horizon_ms", "1e12"),
            ("mmoo_p00", "nan"),
            ("mmoo_p00", "abc"),
            ("mmoo_peak_mbps", "inf"),
            ("mmoo_peak_mbps", "-1"),
        ],
    )
    def test_non_finite_or_fractional_value_names_the_key(self, key, value):
        ini = MMOO_CURVE_INI if key.startswith("mmoo") else VBR_CURVE_INI
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", ini, flags=re.M)
        assert text != ini
        with pytest.raises(ScenarioError, match=rf"{key}:") as info:
            parse_scenario_text(text)
        assert info.value.key == key

    @pytest.mark.parametrize(
        "ini, old, new, key",
        [
            (VBR_CURVE_INI, "horizon_ms = 40", f"horizon_ms = {MAX_SLOTS + 1}", "horizon_ms"),
            (VBR_CURVE_INI, "horizon_ms = 40", "horizon_ms = 1e308\nslot_ms = 0.5", "horizon_ms"),
            (VBR_CURVE_INI, "d_ms = 1 2 5", f"d_ms = 1 {MAX_SLOTS + 1}", "d_ms"),
            (SIM_INI, "total_slots = 5000", f"total_slots = {MAX_SLOTS + 1}", "total_slots"),
            (
                BACKLOG_INI,
                "theta_points = 48",
                f"theta_points = 48\nsimulate = true\nsim_slots = {MAX_SLOTS + 1}\nsim_warmup = 10",
                "sim_slots",
            ),
            # slots times replications: the backlog quantiles hold them all at once
            (SIM_INI, "replications = 2", f"replications = {MAX_SLOTS // 5000 + 1}", "replications"),
            (
                BACKLOG_INI,
                "theta_points = 48",
                f"theta_points = 48\nsimulate = true\nsim_slots = 5000\nsim_warmup = 10\n"
                f"sim_replications = {MAX_SLOTS // 5000 + 1}",
                "sim_replications",
            ),
        ],
        ids=[
            "horizon_ms", "horizon_ms-overflow", "d_ms", "total_slots", "sim_slots",
            "replications", "sim_replications",
        ],
    )
    def test_slot_counts_above_the_limit_name_the_key(self, ini, old, new, key):
        text = ini.replace(old, new)
        assert text != ini
        with pytest.raises(ScenarioError, match=rf"{key}:") as info:
            parse_scenario_text(text)
        assert info.value.key == key

    def test_slot_counts_at_the_limit_parse(self):
        curve_ini = VBR_CURVE_INI.replace("horizon_ms = 40", f"horizon_ms = {MAX_SLOTS}")
        sim_ini = SIM_INI.replace("total_slots = 5000", f"total_slots = {MAX_SLOTS}").replace(
            "replications = 2", "replications = 1"
        )
        (curve,), (sim,) = parse_scenario_text(curve_ini), parse_scenario_text(sim_ini)
        assert curve.horizon_slots == sim.total_slots == MAX_SLOTS
        replicated = SIM_INI.replace("replications = 2", f"replications = {MAX_SLOTS // 5000}")
        backlog = BACKLOG_INI + (
            f"simulate = true\nsim_slots = 5000\nsim_warmup = 10\nsim_replications = {MAX_SLOTS // 5000}\n"
        )
        for (sc,) in (parse_scenario_text(replicated), parse_scenario_text(backlog)):
            assert sc.total_slots * sc.replications == MAX_SLOTS

    @pytest.mark.parametrize(
        "ini, old, new",
        [
            (EFFCAP_INI, "w_over_d_mbps = 100\nd_ms = 1 5", "w_mb = 0.1 0.5\nd_ms = 1 1"),
            (VBR_CURVE_INI, "d_ms = 1 2 5", "d_ms = 1 2 1"),
            (VBR_CURVE_INI, "d_ms = 1 2 5", "d_ms = 1 2 2.0"),
        ],
        ids=["effcap", "curve", "same-float"],
    )
    def test_repeated_delays_name_the_key(self, ini, old, new):
        # each delay names its own output file or column
        text = ini.replace(old, new)
        assert text != ini
        with pytest.raises(ScenarioError, match=r"d_ms: delays must be distinct") as info:
            parse_scenario_text(text)
        assert info.value.key == "d_ms"

    @pytest.mark.parametrize("values", ["1e-3 1e-9 1e-3", "1e-3 0.001"])
    def test_repeated_epsilons_name_the_key(self, values):
        text = BACKLOG_INI.replace("epsilons = 1e-3 1e-9", f"epsilons = {values}")
        with pytest.raises(ScenarioError, match=r"\[backlog\] epsilons: epsilons must be distinct") as info:
            parse_scenario_text(text)
        assert info.value.key == "epsilons"

    @pytest.mark.parametrize("warmup", ["5000", "4999"])
    def test_simulate_warmup_must_leave_two_slots(self, warmup):
        text = SIM_INI.replace("warmup_slots = 100", f"warmup_slots = {warmup}")
        with pytest.raises(ScenarioError, match=r"\[sat\] warmup_slots") as info:
            parse_scenario_text(text)
        assert info.value.key == "warmup_slots"

    @pytest.mark.parametrize("warmup", ["60000", "59999"])
    def test_backlog_sim_warmup_must_leave_two_slots(self, warmup):
        text = BACKLOG_INI + f"simulate = true\nsim_slots = 60000\nsim_warmup = {warmup}\n"
        with pytest.raises(ScenarioError, match=r"\[backlog\] sim_warmup") as info:
            parse_scenario_text(text)
        assert info.value.key == "sim_warmup"

    def test_shortest_warmup_tail_gives_a_drift_ratio(self, tmp_path):
        cfg = tmp_path / "sim.ini"
        cfg.write_text(SIM_INI.replace("warmup_slots = 100", "warmup_slots = 4998"))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "sat_summary.csv")
        assert np.all(np.isfinite(column(header, rows, "drift_ratio")))


class TestUnitConversions:
    def test_rate_round_trip_is_exact_for_study_rates(self):
        for mbps in (50.0, 70.0, 90.0, 100.0, 500.0, 1000.0, 1125.0):
            assert units.mb_per_slot_to_mbps(units.mbps_to_mb_per_slot(mbps)) == mbps

    def test_one_mb_per_ms_slot_is_one_gbps(self):
        assert units.mbps_to_mb_per_slot(1000.0, 1.0) == 1.0

    def test_theta_per_bit(self):
        assert units.theta_per_mb_to_per_bit(1.0) == 1e-6
        assert units.theta_per_bit_to_per_mb(units.theta_per_mb_to_per_bit(3.7)) == pytest.approx(3.7)

    def test_ms_to_slots_validation(self):
        assert units.ms_to_slots(10.0, 2.0) == 5
        with pytest.raises(ValueError):
            units.ms_to_slots(3.0, 2.0)


class TestServiceCurveCommand:
    def test_output_is_deterministic_and_exact_at_delay_one(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(VBR_CURVE_INI)
        assert main(["service-curve", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["service-curve", "--config", str(cfg), "--out", str(out2)]) == 0
        f1 = out1 / "curves_service_curve.csv"
        f2 = out2 / "curves_service_curve.csv"
        assert f1.read_bytes() == f2.read_bytes()

        header, rows = read_csv(f1)
        curve_d1 = column(header, rows, "curve_d1ms_mb")
        lower = column(header, rows, "lower_mb")
        # at one slot of feedback delay the emitted curve is the exact
        # per-slot route, so it coincides with the lower envelope column
        assert np.array_equal(curve_d1, lower)
        for name in header[1:]:
            col = column(header, rows, name)
            assert np.all(np.diff(col) >= -1e-9), name

    def test_one_inversion_per_per_slot_curve(self, tmp_path, monkeypatch):
        families = []
        invert = cli.statistical_service_curve

        def counting(curve, *args):
            families.append(curve.family)
            return invert(curve, *args)

        monkeypatch.setattr(cli, "statistical_service_curve", counting)
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(VBR_CURVE_INI.replace("d_ms = 1 2 5", "d_ms = 1 2 5 10"))
        assert main(["service-curve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        # d = 1 and the shared lower envelope are one per-slot inversion
        assert sorted(families) == ["block-iid"] * 3 + ["per-slot"]

    def test_delays_beyond_six_digits_get_distinct_columns(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(VBR_CURVE_INI.replace("d_ms = 1 2 5", "d_ms = 1000000 1000001"))
        assert main(["service-curve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        header, _ = read_csv(tmp_path / "curves_service_curve.csv")
        assert header == [
            "t_ms",
            "curve_d1000000ms_mb",
            "curve_d1000001ms_mb",
            "lower_mb",
            "upper_d1000000ms_mb",
            "upper_d1000001ms_mb",
        ]

    def test_upper_columns_combine_quantile_and_window_terms(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(VBR_CURVE_INI)
        assert main(["service-curve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "curves_service_curve.csv")
        upper = column(header, rows, "upper_d5ms_mb")
        t_ms = column(header, rows, "t_ms")
        # early on the raw-service quantile dominates; later the window
        # term w * ceil(t/d) = 0.5 * ceil(t/5) takes over
        k = int(np.argmax(t_ms == 30.0))
        assert upper[k] <= 0.5 * math.ceil(30 / 5) + 1e-12

    def test_deterministic_upper_uses_linear_quantile(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            VBR_CURVE_INI.replace("service = exponential", "service = deterministic")
            .replace("[curves]", "[det-curves]")
        )
        assert main(["service-curve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "det-curves_service_curve.csv")
        t_ms = column(header, rows, "t_ms")
        upper = column(header, rows, "upper_d1ms_mb")
        # constant server: the quantile term is the raw path C * t and the
        # window term 0.1 * ceil(t) is smaller throughout
        assert np.allclose(upper, np.minimum(1.0 * t_ms, 0.1 * np.ceil(t_ms)))

    def test_mmoo_curves_have_window_only_upper_and_latent_start(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(MMOO_CURVE_INI)
        assert main(["service-curve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "mmoo-curves_service_curve.csv")
        upper1 = column(header, rows, "upper_d1ms_mb")
        t_ms = column(header, rows, "t_ms")
        # no raw-service quantile for the chain model: pure window term
        assert np.allclose(upper1, 0.1 * np.ceil(t_ms))
        lower = column(header, rows, "lower_mb")
        assert np.all(lower[t_ms <= 8] == 0.0)
        assert np.all(lower[t_ms >= 11] > 0.0)


class TestEffcapCommand:
    def test_columns_and_orderings(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(EFFCAP_INI)
        assert main(["effective-capacity", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        for d in (1, 5):
            header, rows = read_csv(tmp_path / f"effcap_effcap_d{d}ms.csv")
            best = column(header, rows, "best_lower_mbps")
            upper = column(header, rows, "apriori_upper_mbps")
            lower_ap = column(header, rows, "apriori_lower_mbps")
            ok = ~np.isnan(best)
            assert np.all(best[ok] <= upper[ok] + 1e-9)
            assert np.all(best[ok] >= lower_ap[ok] - 1e-9)
            theta = column(header, rows, "theta_per_bit")
            assert np.all(np.diff(theta) > 0)
            assert theta[0] == pytest.approx(1e-4 * 1e-6)

    def test_delays_beyond_six_digits_get_distinct_files(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(EFFCAP_INI.replace("d_ms = 1 5", "d_ms = 1000000 1000001"))
        assert main(["effective-capacity", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert sorted(os.listdir(tmp_path)) == [
            "cfg.ini",
            "effcap_effcap_d1000000ms.csv",
            "effcap_effcap_d1000001ms.csv",
        ]

    def test_markov_series_column_is_nan(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            EFFCAP_INI.replace("service = exponential", "service = mmoo")
            .replace("service_rate_mbps = 1000", "mmoo_p00 = 0.2\nmmoo_p11 = 0.9\nmmoo_peak_mbps = 1125")
            .replace("[effcap]", "[mmoo-effcap]")
        )
        assert main(["effective-capacity", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "mmoo-effcap_effcap_d1ms.csv")
        series = column(header, rows, "lower_series_mbps")
        assert np.all(np.isnan(series))
        blocks = column(header, rows, "lower_blocks_mbps")
        assert np.any(np.isfinite(blocks))


class TestBacklogCommand:
    def test_bounds_monotone_in_lambda_and_epsilon(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(BACKLOG_INI)
        assert main(["backlog", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "backlog_backlog.csv")
        tight = column(header, rows, "bound_eps1e-03_mb")
        loose = column(header, rows, "bound_eps1e-09_mb")
        assert np.all(np.diff(tight) > 0)
        assert np.all(loose > tight)
        # low sensitivity to epsilon at fixed sub-saturation load
        assert np.all(loose / tight < 3.5)

    def test_simulated_quantiles_stay_below_bounds(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            BACKLOG_INI.replace("lambda_mbps = 30 50 70", "lambda_mbps = 50 70")
            .replace("epsilons = 1e-3 1e-9", "epsilons = 1e-3")
            + "simulate = true\nsim_slots = 60000\nsim_warmup = 2000\nsim_replications = 2\n"
        )
        assert main(["backlog", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "backlog_backlog.csv")
        bound = column(header, rows, "bound_eps1e-03_mb")
        sim = column(header, rows, "sim_eps1e-03_mb")
        assert np.all(sim <= bound)

    def test_estimability_at_the_rounding_boundary_writes_nan(self, tmp_path):
        # 1/3 * 100 * 3 rounds below 100 while 1/3 * 300 does not: the verb
        # must decide with the simulator's own product, not raise from it
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            BACKLOG_INI.replace("lambda_mbps = 30 50 70", "lambda_mbps = 30")
            .replace("epsilons = 1e-3 1e-9", "epsilons = 0.3333333333333333 0.5")
            + "simulate = true\nsim_slots = 101\nsim_warmup = 1\nsim_replications = 3\n"
        )
        assert main(["backlog", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "backlog_backlog.csv")
        assert np.isnan(column(header, rows, "sim_eps3.333333333333333e-01_mb")).all()
        assert np.isfinite(column(header, rows, "sim_eps5e-01_mb")).all()

    def test_epsilon_columns_keep_every_digit(self, tmp_path):
        # one-digit mantissas read as in the figures; longer ones keep every
        # digit, so 1.2e-3 does not share the column of 1e-3
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            BACKLOG_INI.replace("lambda_mbps = 30 50 70", "lambda_mbps = 30").replace(
                "epsilons = 1e-3 1e-9", "epsilons = 1e-3 1.2e-3 2.5e-7"
            )
        )
        assert main(["backlog", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "backlog_backlog.csv")
        assert header == [
            "lambda_mbps", "bound_eps1e-03_mb", "bound_eps1.2e-03_mb", "bound_eps2.5e-07_mb"
        ]
        bounds = [column(header, rows, name)[0] for name in header[1:]]
        assert bounds[1] < bounds[0] < bounds[2]


class TestSimulateCommand:
    def test_saturated_run_summary(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(SIM_INI)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "sat_summary.csv")
        throughput = column(header, rows, "throughput_mbps")
        assert np.allclose(throughput, 100.0, rtol=0.02)
        assert os.path.exists(tmp_path / "sat_run0.csv")
        assert os.path.exists(tmp_path / "sat_run1.csv")


class TestReproduce:
    def test_fig4_produces_both_ratio_studies(self, tmp_path):
        assert main(["reproduce", "fig4", "--out", str(tmp_path)]) == 0
        names = sorted(os.listdir(tmp_path))
        assert names == [
            "fig4a-vbr-curves-100_service_curve.csv",
            "fig4b-vbr-curves-500_service_curve.csv",
        ]


def _row_wise_fmt(value) -> str:
    """The per-value formatting of the former row-wise writer."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    value = float(value)
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return repr(value)


class TestCsvWriter:
    def test_float_formatting_round_trips(self, tmp_path):
        path = str(tmp_path / "x.csv")
        write_csv(path, ["a", "b"], [[0.1, 3], [float("inf"), float("nan")]])
        header, rows = read_csv(path)
        assert rows[0][0] == "0.1"
        assert rows[0][1] == "inf"
        assert rows[1][0] == "3"
        assert rows[1][1] == "nan"

    @pytest.mark.parametrize("repeats", [1, 80])
    def test_column_writer_matches_row_wise_formatting(self, tmp_path, repeats):
        specials = [3, np.int64(-7), -0.0, 5e-324, 1e16, 0.1, math.nan, math.inf, -math.inf]
        table = [
            specials + ["text"],
            np.array(specials[:-2] + [2.0**62, 1 / 3, -1e-300], dtype=float),
            np.array(specials + [1 / 3], dtype=np.float32),
            np.array([0, -1, 2**62, np.iinfo(np.int64).min] * 2 + [5, 6], dtype=np.int64),
            np.arange(10, dtype=np.uint8),
            np.array([True, False] * 5),
            ["a", "b c", "", "true", "false", "nan", "x", "y", "z", "per-slot"],
            [np.float64(v) for v in specials] + [np.float32(0.1)],
        ]
        # 10 rows, or 800 rows written in several blocks
        columns = [np.tile(c, repeats) if isinstance(c, np.ndarray) else c * repeats for c in table]
        header = [f"c{i}" for i in range(len(columns))]
        path = str(tmp_path / "mixed.csv")
        assert write_csv(path, header, columns) == path
        expected = ",".join(header) + "\n" + "".join(
            ",".join(v if isinstance(v, str) else _row_wise_fmt(v) for v in row) + "\n"
            for row in zip(*columns)
        )
        with open(path, "rb") as handle:
            assert handle.read() == expected.encode("utf-8")
        assert all(_fmt(v) == _row_wise_fmt(v) for v in specials + [np.float32(0.1)])

    def test_mismatched_columns_are_refused(self, tmp_path):
        path = str(tmp_path / "bad.csv")
        with pytest.raises(ValueError):
            write_csv(path, ["a", "b"], [[1, 2], [3]])
        with pytest.raises(ValueError):
            write_csv(path, ["a"], [[1], [2]])
        assert not os.path.exists(path)


class TestVerifySuite:
    def test_fresh_checkout_passes(self, capsys):
        assert run_report(fast=True, seed=0) == 0
        out = capsys.readouterr().out
        assert "dioid-laws" in out and "OK" in out
        assert "(" in out  # per-suite timing present

    def test_injected_fault_is_detected(self):
        def corrupted(path, params, s, t):
            # sign-flip the window charge: breaks the envelope and the
            # closure agreement
            from winflow.oracle import equivalent_service_dp

            return equivalent_service_dp(path, params, s, t) - 2.0 * params.w

        result = suite_dual_oracle(seed=1, instances=12, dp_fn=corrupted)
        assert result.failures > 0

    def test_all_suites_report_counts(self):
        results = run_all(fast=True, seed=3)
        assert {r.name for r in results} == {
            "dioid-laws",
            "dual-oracle",
            "mgf-dominance",
            "markov-structure",
            "constants-and-units",
        }
        assert all(r.checks > 0 for r in results)
        assert all(r.passed for r in results)
