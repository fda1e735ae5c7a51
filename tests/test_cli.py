"""Config parsing, CSV emission, CLI verbs, and the verify suite."""

import csv
import math
import os
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from winflow import cli, units, verify
from winflow.bounds import (
    _CURVE_BLOCK_ENTRIES,
    FeedbackParams,
    LogMgfCurve,
    ThetaGrid,
    _is_markov,
    block_curve,
    effcap_apriori,
    effcap_lower_blocks,
    effcap_lower_series,
    per_slot_curve,
    steady_state_backlog_bound,
)
from winflow.cli import _fmt, main, write_csv
from winflow.models import DeterministicService, ExponentialArrivals, LeftoverService, MmooService
from winflow.oracle import apriori_envelope, equivalent_service_dp_row
from winflow.scenarios import (
    CANNED,
    MAX_SLOTS,
    ScenarioError,
    canned_scenarios,
    parse_scenario_text,
)
from winflow.verify import (
    exact_backlog_tail,
    suite_dual_oracle,
    suite_mgf_dominance,
)

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

ONOFF_SERVER = "service = mmoo\nmmoo_p00 = 0.2\nmmoo_p11 = 0.9\nmmoo_peak_mbps = 1125"
LEFTOVER_SERVER = "service = leftover\nservice_rate_mbps = 1000\ncross_rate_mbps = 999"


def theta_floor_ini(service, tmin):
    """An effective-capacity section at w/d = 0.1 Mb per slot, with the
    given server and theta_min_per_mb (the default when None)."""
    theta = "" if tmin is None else f"theta_min_per_mb = {tmin}\n"
    return f"[floor]\nkind = effective-capacity\nseed = 9\n{service}\nw_mb = 0.3\nd_ms = 3\n{theta}"


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


def with_keys(ini, edit):
    """``ini`` with each key of ``edit`` set to its value: on the key's own
    line where it has one, on a new last line where it has none.  A value of
    None blanks the key's line."""
    for key, value in edit.items():
        line = "" if value is None else f"{key} = {value}"
        ini, found = re.subn(rf"^{key} = .*$", line, ini, flags=re.M)
        ini += "" if found else line + "\n"
    return ini


def on_off(ini):
    """``ini`` with the On-Off server of ONOFF_SERVER in place of its own."""
    return re.sub(r"service = \w+\nservice_rate_mbps = 1000", ONOFF_SERVER, ini)


LEFTOVER_CURVE_INI = VBR_CURVE_INI.replace("service = exponential", "service = leftover\ncross_rate_mbps = 100")
TOO_MANY_SLOTS = MAX_SLOTS + 1
TOO_MANY_RUNS = MAX_SLOTS // 5000 + 1  # replications of 5000 slots
# effective-capacity sections whose theta_min lies below the reach of the
# transforms; at theta_min = 1e-300 the On-Off section printed an
# apriori_upper_mbps of -0.0, against a true 100 Mbps
BELOW_THE_TRANSFORMS_REACH = {
    # On-Off mean 1 Mb per slot, w/d = 0.1: the limit is theta_min = 1e-8
    "onoff-1e-300": theta_floor_ini(ONOFF_SERVER, "1e-300"),
    "onoff-9e-9": theta_floor_ini(ONOFF_SERVER, "9e-9"),
    # leftover mean 1 - 0.999 Mb per slot sits below w/d
    "leftover-5e-7": theta_floor_ini(LEFTOVER_SERVER, "5e-7"),
    # the default theta_min of 1e-4 at a 1e-6 Mb per slot server
    "slow-default": theta_floor_ini("service = exponential\nservice_rate_mbps = 1e-3", None),
}

# (id, scenario text, edit for with_keys, section, key, message fragment):
# the parser refuses the edited text with a ScenarioError that names the
# section and key, and whose message the fragment (a regex) is found in
REFUSED_SCENARIOS = [
    ("missing-epsilon", VBR_CURVE_INI, {"epsilon": None}, "curves", "epsilon", None),
    ("missing-seed", VBR_CURVE_INI, {"seed": None}, "curves", "seed", None),
    ("unknown-key", VBR_CURVE_INI, {"typo_key": "3"}, "curves", "typo_key", "unknown key"),
    ("w_mb-not-one-per-delay", VBR_CURVE_INI, {"w_over_d_mbps": None, "w_mb": "0.1 0.2"}, "curves", "w_mb",
     "one window per delay"),
    ("d_ms-1.5", VBR_CURVE_INI, {"d_ms": "1.5"}, "curves", "d_ms", "whole number"),
    ("d_ms-0.3", VBR_CURVE_INI, {"d_ms": "0.3"}, "curves", "d_ms", None),
    ("d_ms-nan", VBR_CURVE_INI, {"d_ms": "nan"}, "curves", "d_ms", None),
    ("d_ms-1 inf", VBR_CURVE_INI, {"d_ms": "1 inf"}, "curves", "d_ms", None),
    ("d_ms-above-the-limit", VBR_CURVE_INI, {"d_ms": f"1 {TOO_MANY_SLOTS}"}, "curves", "d_ms", None),
    # each delay names its own output file or column
    ("d_ms-1 2 1", VBR_CURVE_INI, {"d_ms": "1 2 1"}, "curves", "d_ms", "delays must be distinct"),
    ("d_ms-1 2 2.0", VBR_CURVE_INI, {"d_ms": "1 2 2.0"}, "curves", "d_ms", "delays must be distinct"),
    ("d_ms-repeated-effcap", EFFCAP_INI, {"w_over_d_mbps": None, "w_mb": "0.1 0.5", "d_ms": "1 1"}, "effcap",
     "d_ms", "delays must be distinct"),
    ("mmoo-fast-switching", MMOO_CURVE_INI, {"mmoo_p11": "0.5"}, "mmoo-curves", "mmoo_p11", None),
    ("mmoo-switching-sum-one", MMOO_CURVE_INI, {"mmoo_p00": "0.5", "mmoo_p11": "0.5"}, "mmoo-curves", "mmoo_p11",
     None),
    ("mmoo-no-steady-state", MMOO_CURVE_INI, {"mmoo_p00": "1.0", "mmoo_p11": "1.0"}, "mmoo-curves", "mmoo_p11",
     None),
    ("mmoo-frozen-simulate", on_off(SIM_INI), {"mmoo_p00": "1.0", "mmoo_p11": "1.0"}, "sat", "mmoo_p11", None),
    ("mmoo_p00-1.5", MMOO_CURVE_INI, {"mmoo_p00": "1.5"}, "mmoo-curves", "mmoo_p00", None),
    ("mmoo_p11--0.1", MMOO_CURVE_INI, {"mmoo_p11": "-0.1"}, "mmoo-curves", "mmoo_p11", None),
    ("mmoo_p00-nan", MMOO_CURVE_INI, {"mmoo_p00": "nan"}, "mmoo-curves", "mmoo_p00", None),
    ("mmoo_p00-abc", MMOO_CURVE_INI, {"mmoo_p00": "abc"}, "mmoo-curves", "mmoo_p00", None),
    # p00 = 1 with p11 < 1 settles the chain in OFF for good; the theta
    # floor would refuse its zero mean rate under theta_min_per_mb, a key
    # the section need not hold
    ("absorbing-off-service-curve", MMOO_CURVE_INI, {"mmoo_p00": "1"}, "mmoo-curves", "mmoo_p00",
     "mean service rate is 0"),
    ("absorbing-off-effcap", on_off(EFFCAP_INI), {"mmoo_p00": "1"}, "effcap", "mmoo_p00", "mean service rate is 0"),
    ("absorbing-off-backlog", on_off(BACKLOG_INI), {"mmoo_p00": "1"}, "backlog", "mmoo_p00",
     "mean service rate is 0"),
    ("mmoo_peak_mbps-inf", MMOO_CURVE_INI, {"mmoo_peak_mbps": "inf"}, "mmoo-curves", "mmoo_peak_mbps", None),
    ("mmoo_peak_mbps--1", MMOO_CURVE_INI, {"mmoo_peak_mbps": "-1"}, "mmoo-curves", "mmoo_peak_mbps", None),
    # finite Mbps that convert to 0 or inf Mb per slot
    ("mmoo_peak_mbps-1e-322", MMOO_CURVE_INI, {"mmoo_peak_mbps": "1e-322"}, "mmoo-curves", "mmoo_peak_mbps", None),
    ("service_rate_mbps-1e-322", VBR_CURVE_INI, {"service_rate_mbps": "1e-322"}, "curves", "service_rate_mbps",
     None),
    ("arrival_rate_mbps-1e-322", SIM_INI, {"arrival_rate_mbps": "1e-322"}, "sat", "arrival_rate_mbps", None),
    ("cross_rate_mbps-1e-322", LEFTOVER_CURVE_INI, {"cross_rate_mbps": "1e-322"}, "curves", "cross_rate_mbps",
     None),
    ("lambda_mbps-30 1e-322", BACKLOG_INI, {"lambda_mbps": "30 1e-322"}, "backlog", "lambda_mbps", None),
    ("service_rate_mbps-1e308", VBR_CURVE_INI,
     {"slot_ms": "1e10", "d_ms": "1e10 2e10 5e10", "horizon_ms": "4e11", "service_rate_mbps": "1e308"}, "curves",
     "service_rate_mbps", None),
    # a window w = (w/d) * d that overflows
    ("w_over_d_mbps-1e308", VBR_CURVE_INI, {"d_ms": "1 1000000", "w_over_d_mbps": "1e308"}, "curves",
     "w_over_d_mbps", None),
    ("service_rate_mbps-nan", VBR_CURVE_INI, {"service_rate_mbps": "nan"}, "curves", "service_rate_mbps", None),
    ("service_rate_mbps-inf", VBR_CURVE_INI, {"service_rate_mbps": "inf"}, "curves", "service_rate_mbps", None),
    ("w_over_d_mbps-nan", VBR_CURVE_INI, {"w_over_d_mbps": "nan"}, "curves", "w_over_d_mbps", None),
    ("w_over_d_mbps-inf", VBR_CURVE_INI, {"w_over_d_mbps": "inf"}, "curves", "w_over_d_mbps", None),
    ("w_over_d_mbps--inf", VBR_CURVE_INI, {"w_over_d_mbps": "-inf"}, "curves", "w_over_d_mbps", None),
    ("cross_rate_mbps-1000", LEFTOVER_CURVE_INI, {"cross_rate_mbps": "1000"}, "curves", "cross_rate_mbps", None),
    ("cross_rate_mbps-1200", LEFTOVER_CURVE_INI, {"cross_rate_mbps": "1200"}, "curves", "cross_rate_mbps", None),
    ("seed--1", SIM_INI, {"seed": "-1"}, "sat", "seed", None),
    ("seed--20211", SIM_INI, {"seed": "-20211"}, "sat", "seed", None),
    ("repeated-key", SIM_INI + "seed = 12\n", {}, "sat", "seed", None),
    ("repeated-section", SIM_INI + SIM_INI, {}, "sat", "", None),
    ("no-section-header", "kind = simulate\n" + SIM_INI, {}, "", "", None),
    ("theta_points-one-curve-block-and-one", EFFCAP_INI, {"theta_points": str(_CURVE_BLOCK_ENTRIES + 1)}, "effcap",
     "theta_points", "must be <="),
    # parsed only: a grid this wide is never allocated
    ("theta_points-1e11", EFFCAP_INI, {"theta_points": "100000000000"}, "effcap", "theta_points", "must be <="),
    *[
        (f"theta_min-{name}", text, {}, "floor", "theta_min_per_mb", "at least 1e-09")
        for name, text in BELOW_THE_TRANSFORMS_REACH.items()
    ],
    ("epsilon-1", VBR_CURVE_INI, {"epsilon": "1"}, "curves", "epsilon", None),
    ("epsilon-0", VBR_CURVE_INI, {"epsilon": "0"}, "curves", "epsilon", None),
    ("epsilon-1.5", VBR_CURVE_INI, {"epsilon": "1.5"}, "curves", "epsilon", None),
    ("epsilon--1e-6", VBR_CURVE_INI, {"epsilon": "-1e-6"}, "curves", "epsilon", None),
    ("epsilon-nan", VBR_CURVE_INI, {"epsilon": "nan"}, "curves", "epsilon", None),
    ("epsilons-1e-3 1", BACKLOG_INI, {"epsilons": "1e-3 1"}, "backlog", "epsilons", None),
    ("epsilons-0 1e-9", BACKLOG_INI, {"epsilons": "0 1e-9"}, "backlog", "epsilons", None),
    ("epsilons-1e-3 2", BACKLOG_INI, {"epsilons": "1e-3 2"}, "backlog", "epsilons", None),
    ("epsilons-nan 1e-3", BACKLOG_INI, {"epsilons": "nan 1e-3"}, "backlog", "epsilons", None),
    ("epsilons-1e-3 1e-9 1e-3", BACKLOG_INI, {"epsilons": "1e-3 1e-9 1e-3"}, "backlog", "epsilons",
     "epsilons must be distinct"),
    ("epsilons-1e-3 0.001", BACKLOG_INI, {"epsilons": "1e-3 0.001"}, "backlog", "epsilons",
     "epsilons must be distinct"),
    ("horizon_ms-nan", VBR_CURVE_INI, {"horizon_ms": "nan"}, "curves", "horizon_ms", None),
    ("horizon_ms-2.5", VBR_CURVE_INI, {"horizon_ms": "2.5"}, "curves", "horizon_ms", None),
    ("horizon_ms-1e12", VBR_CURVE_INI, {"horizon_ms": "1e12"}, "curves", "horizon_ms", None),
    # positive, but under one slot: it would parse as 0 slots
    ("horizon_ms-1e-12", VBR_CURVE_INI, {"horizon_ms": "1e-12"}, "curves", "horizon_ms", None),
    ("horizon_ms-above-the-limit", VBR_CURVE_INI, {"horizon_ms": str(TOO_MANY_SLOTS)}, "curves", "horizon_ms",
     None),
    ("horizon_ms-overflow", VBR_CURVE_INI, {"horizon_ms": "1e308", "slot_ms": "0.5"}, "curves", "horizon_ms", None),
    ("total_slots-above-the-limit", SIM_INI, {"total_slots": str(TOO_MANY_SLOTS)}, "sat", "total_slots", None),
    ("sim_slots-above-the-limit", BACKLOG_INI,
     {"simulate": "true", "sim_slots": str(TOO_MANY_SLOTS), "sim_warmup": "10"}, "backlog", "sim_slots", None),
    # slots times replications: the backlog quantiles hold them all at once
    ("replications-above-the-limit", SIM_INI, {"replications": str(TOO_MANY_RUNS)}, "sat", "replications", None),
    ("sim_replications-above-the-limit", BACKLOG_INI,
     {"simulate": "true", "sim_slots": "5000", "sim_warmup": "10", "sim_replications": str(TOO_MANY_RUNS)},
     "backlog", "sim_replications", None),
    # a warm-up must leave two slots
    ("warmup_slots-5000", SIM_INI, {"warmup_slots": "5000"}, "sat", "warmup_slots", None),
    ("warmup_slots-4999", SIM_INI, {"warmup_slots": "4999"}, "sat", "warmup_slots", None),
    ("sim_warmup-60000", BACKLOG_INI, {"simulate": "true", "sim_slots": "60000", "sim_warmup": "60000"}, "backlog",
     "sim_warmup", None),
    ("sim_warmup-59999", BACKLOG_INI, {"simulate": "true", "sim_slots": "60000", "sim_warmup": "59999"}, "backlog",
     "sim_warmup", None),
]

DIRECTORY = object()  # a config path that is a directory

# (id, argv, config, stderr fragment): main refuses the run with exit code
# 2 and a usage message, and writes no CSV.  In argv and the fragment,
# {cfg} is the config path, {tmp} the test's directory, {out} a directory
# not made yet and {taken} a file; the config is written as text or bytes,
# made a directory (DIRECTORY) or left out (None)
USAGE_ERRORS = [
    ("seed-option-simulate", "simulate --seed -2 --config {cfg} --out {tmp}", SIM_INI, "--seed"),
    ("seed-option-verify", "verify --seed -2", None, "--seed"),
    *[
        (f"config-{name}", "simulate --config {cfg} --out {tmp}", SIM_INI.replace(old, new), "error: [sat] ")
        for name, old, new in [
            ("negative-seed", "seed = 11", "seed = -1"),
            ("rate-underflow", "arrival_rate_mbps = 10000", "arrival_rate_mbps = 1e-322"),
            ("repeated-key", "seed = 11", "seed = 11\nseed = 12"),
        ]
    ],
    ("config-missing", "simulate --config {cfg} --out {out}", None, "--config {cfg}"),
    ("config-directory", "simulate --config {cfg} --out {out}", DIRECTORY, "--config {cfg}"),
    ("config-not-utf8", "simulate --config {cfg} --out {out}", SIM_INI.encode() + b"; caf\xe9\n", "--config {cfg}"),
    ("config-without-the-verbs-kind", "backlog --config {cfg} --out {out}", SIM_INI,
     "no scenarios of kind 'backlog' in --config {cfg}"),
    *[
        (f"theta_min-{name}", "effective-capacity --config {cfg} --out {tmp}", text, "[floor] theta_min_per_mb")
        for name, text in BELOW_THE_TRANSFORMS_REACH.items()
    ],
    *[
        (f"out-{verb}-{where}", f"{args} --out {target}", config, f"cannot use --out {target} as a directory")
        for verb, args, config in [
            ("reproduce", "reproduce fig5", None),
            ("simulate", "simulate --config {cfg}", SIM_INI),
            ("service-curve", "service-curve --config {cfg}", VBR_CURVE_INI),
            ("effective-capacity", "effective-capacity --config {cfg}", EFFCAP_INI),
            ("backlog", "backlog --config {cfg}", BACKLOG_INI),
        ]
        for where, target in [("file", "{taken}"), ("under-a-file", "{taken}/sub")]
    ],
]


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

    @pytest.mark.parametrize(
        "ini, edit, section, key, fragment", [pytest.param(*row[1:], id=row[0]) for row in REFUSED_SCENARIOS]
    )
    def test_refused_scenario_names_its_section_and_key(self, ini, edit, section, key, fragment):
        with pytest.raises(ScenarioError, match=fragment) as info:
            parse_scenario_text(with_keys(ini, edit))
        assert (info.value.section, info.value.key) == (section, key)
        if section:
            assert str(info.value).startswith(f"[{section}] {key}".rstrip() + ":")

    @pytest.mark.parametrize("argv, config, fragment", [pytest.param(*row[1:], id=row[0]) for row in USAGE_ERRORS])
    def test_usage_error_exits_2_and_writes_nothing(self, argv, config, fragment, tmp_path, capsys):
        paths = dict(cfg=tmp_path / "scenarios.ini", tmp=tmp_path, out=tmp_path / "out", taken=tmp_path / "taken")
        if config is DIRECTORY:
            paths["cfg"].mkdir()
        elif isinstance(config, bytes):
            paths["cfg"].write_bytes(config)
        elif config is not None:
            paths["cfg"].write_text(config)
        if "{taken}" in argv:
            paths["taken"].write_text("not a directory\n")
        with pytest.raises(SystemExit) as info:
            main([arg.format(**paths) for arg in argv.split()])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert fragment.format(**paths) in err
        assert "usage:" in err and "Traceback" not in err
        assert not paths["out"].exists() and not list(tmp_path.rglob("*.csv"))
        if "{taken}" in argv:
            assert paths["taken"].read_text() == "not a directory\n"

    @pytest.mark.parametrize("figure", sorted(CANNED_LITERAL))
    def test_canned_studies_equal_their_literal_text(self, figure):
        assert canned_scenarios(figure) == parse_scenario_text(CANNED_LITERAL[figure])

    def test_canned_studies_are_the_reproduce_choices(self, capsys):
        assert sorted(CANNED) == sorted(CANNED_LITERAL)
        with pytest.raises(SystemExit):
            main(["reproduce", "fig9"])
        assert "'fig4', 'fig5', 'fig6', 'fig7', 'fig8'" in capsys.readouterr().err

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

    def test_simulate_accepts_absorbing_off_state(self, tmp_path):
        server = ONOFF_SERVER.replace("mmoo_p00 = 0.2", "mmoo_p00 = 1")
        text = SIM_INI.replace("service = deterministic\nservice_rate_mbps = 1000", server)
        (sc,) = parse_scenario_text(text)
        assert sc.service.mean_rate == 0.0
        cfg = tmp_path / "sim.ini"
        cfg.write_text(text.replace("total_slots = 5000", "total_slots = 500"))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0

    def test_theta_points_at_one_curve_block_parse(self):
        text = EFFCAP_INI.replace("theta_points = 24", f"theta_points = {_CURVE_BLOCK_ENTRIES}")
        (sc,) = parse_scenario_text(text)
        assert sc.theta_points == _CURVE_BLOCK_ENTRIES

    @pytest.mark.parametrize(
        "service, tmin",
        [
            pytest.param(ONOFF_SERVER, "1.1e-8", id="onoff-1.1e-8"),
            pytest.param(LEFTOVER_SERVER, "2e-6", id="leftover-2e-6"),
        ],
    )
    def test_theta_min_at_the_transforms_reach_parses(self, service, tmin):
        (sc,) = parse_scenario_text(theta_floor_ini(service, tmin))
        assert sc.theta_min == float(tmin)

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

    def test_shortest_warmup_tail_gives_a_drift_ratio(self, tmp_path):
        cfg = tmp_path / "sim.ini"
        cfg.write_text(SIM_INI.replace("warmup_slots = 100", "warmup_slots = 4998"))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "sat_summary.csv")
        assert np.all(np.isfinite(column(header, rows, "drift_ratio")))


# the keys each server and each kind reads, with valid values; every kind
# also reads kind, seed and slot_ms, and any one of the four servers
SERVER_KEYS = {
    "deterministic": {"service_rate_mbps": "1000"},
    "exponential": {"service_rate_mbps": "1000"},
    "mmoo": {"mmoo_p00": "0.2", "mmoo_p11": "0.9", "mmoo_peak_mbps": "1125"},
    "leftover": {"service_rate_mbps": "1000", "cross_rate_mbps": "100"},
}
KIND_KEYS = {
    "service-curve": {"w_over_d_mbps": "100", "d_ms": "1 2 5", "epsilon": "1e-6", "horizon_ms": "40"},
    "effective-capacity": {
        "w_mb": "0.1 0.5", "d_ms": "1 5", "theta_min_per_mb": "1e-3", "theta_max_per_mb": "100",
        "theta_points": "24",
    },
    "backlog": {
        "w_mb": "0.1", "d_ms": "1", "lambda_mbps": "30 50", "epsilons": "1e-3 1e-9",
        "simulate": "true", "sim_slots": "5000", "sim_warmup": "10", "sim_replications": "2",
    },
    "simulate": {
        "w_mb": "0.2", "d_ms": "2", "arrival": "exponential", "arrival_rate_mbps": "500",
        "total_slots": "5000", "warmup_slots": "100", "replications": "2",
    },
}
_SHARED_KEYS = {"kind", "seed", "slot_ms", "service", "w_mb", "w_over_d_mbps", "d_ms"}
_SERVER_KEY_SET = {key for keys in SERVER_KEYS.values() for key in keys}
_THETA_KEYS = {"theta_min_per_mb", "theta_max_per_mb", "theta_points"}
SCHEMA = {
    kind: _SHARED_KEYS | _SERVER_KEY_SET | set(KIND_KEYS[kind]) | (set() if kind == "simulate" else _THETA_KEYS)
    for kind in KIND_KEYS
}

_ATOMS = st.one_of(
    st.integers(-(10**12), 10**12).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.fractions(max_denominator=9).map(str),
    st.sampled_from(["nan", "inf", "-inf", "+inf", "1e-322", "1e308", "-1e308", "0", "-0", "+2", "0.5", "-2.5"]),
    st.text(alphabet="abe019.+-_ /", max_size=8),
)
_VALUES = st.lists(_ATOMS, min_size=1, max_size=2).map(" ".join)


def _configured_rates(model):
    if isinstance(model, LeftoverService):
        return _configured_rates(model.base) + _configured_rates(model.cross)
    return [model.peak if isinstance(model, MmooService) else model.mean_rate]


_ANY_KEY = sorted(set().union(*SCHEMA.values(), {"typo_key"}))


@settings(max_examples=200)
@given(
    kind=st.sampled_from(sorted(KIND_KEYS)),
    server=st.sampled_from(sorted(SERVER_KEYS)),
    values=st.dictionaries(st.sampled_from([key for key in _ANY_KEY if key != "kind"]), _VALUES, max_size=2),
    dropped=st.none() | st.sampled_from(_ANY_KEY),
)
@example(kind="service-curve", server="exponential", values={"service_rate_mbps": "1e-322"}, dropped=None)
@example(kind="backlog", server="leftover", values={"lambda_mbps": "30 1e-322"}, dropped=None)
@example(kind="effective-capacity", server="mmoo", values={"theta_points": "100000000000"}, dropped=None)
def test_parse_returns_bounded_scenarios_or_names_a_key(kind, server, values, dropped):
    """A section of one kind's known keys with some values replaced, a key
    dropped or an unknown key added: parsing gives scenarios in range or a
    ScenarioError that names a key of that section."""
    keys = {"kind": kind, "seed": "3", "slot_ms": "1", "service": server, **SERVER_KEYS[server], **KIND_KEYS[kind]}
    added = set(values) - set(keys)
    keys.update(values)
    keys.pop(dropped, None)
    text = "[prop]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
    try:
        (sc,) = parse_scenario_text(text)
    except ScenarioError as exc:
        assert exc.section == "prop"
        assert exc.key in SCHEMA[kind] | added
        return
    for rate in _configured_rates(sc.service) + sc.lambdas_mb + sc.w_mb:
        assert 0.0 < rate < math.inf
    if sc.arrivals is not None:
        assert 0.0 < sc.arrivals.mean_rate < math.inf
    assert all(0.0 < eps < 1.0 for eps in sc.epsilons + [sc.epsilon])
    assert all(1 <= d <= MAX_SLOTS for d in sc.d_slots)
    assert sc.horizon_slots <= MAX_SLOTS and sc.total_slots * sc.replications <= MAX_SLOTS
    assert 2 <= sc.theta_points <= _CURVE_BLOCK_ENTRIES


class TestUnitConversions:
    def test_theta_per_bit(self):
        assert units.theta_per_mb_to_per_bit(1.0) == 1e-6

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


# one exponential section with six delays at one w/d, and one On-Off
# section whose windows give the caps 100, 100 and 500 Mbps; in both, the
# block and a-priori bounds tie exactly at some theta, so the tie rule
# shows in best_family
EFFCAP_BYTES_INI = """
[vbr-six]
kind = effective-capacity
seed = 1
service = exponential
service_rate_mbps = 1000
w_over_d_mbps = 100
d_ms = 1 2 5 10 20 50
theta_points = 128

[mmoo-mixed]
kind = effective-capacity
seed = 1
service = mmoo
mmoo_p00 = 0.2
mmoo_p11 = 0.9
mmoo_peak_mbps = 1125
w_mb = 0.1 0.2 2.5
d_ms = 1 2 5
theta_points = 128
"""


def previous_effcap_files(sc):
    """The effective-capacity verb's per-delay column build before columns
    were shared, a literal copy with ``best_effcap_lower``'s body inlined
    (without its fallback for a model with no a-priori route): every
    family computed and every column formatted for each delay.  Returns
    file name -> bytes."""
    grid = ThetaGrid.logspace(sc.theta_min, sc.theta_max, sc.theta_points)
    model = sc.service
    iid = not _is_markov(model)
    files = {}

    def to_mbps(values: np.ndarray) -> np.ndarray:
        finite = np.isfinite(values)
        return np.where(finite, units.mb_per_slot_to_mbps(values, sc.slot_ms), math.nan)

    thetas = grid.values
    for w, d in zip(sc.w_mb, sc.d_slots):
        fb = FeedbackParams(w=w, d=d)
        candidates = {"blocks": effcap_lower_blocks(model, fb, thetas)}
        if iid:
            candidates["series"] = effcap_lower_series(model, fb, thetas)
        candidates["apriori"] = effcap_apriori(model, fb, thetas)[0]
        names = list(candidates)
        stacked = np.vstack(list(candidates.values()))
        pick = np.argmax(stacked, axis=0)
        best_value = stacked[pick, np.arange(len(thetas))]
        provenance = [names[i] if ok else "none" for i, ok in zip(pick, np.isfinite(best_value))]
        series = effcap_lower_series(model, fb, thetas) if iid else np.full(len(thetas), math.nan)
        blocks = effcap_lower_blocks(model, fb, thetas)
        apriori_lo, apriori_up = effcap_apriori(model, fb, thetas)
        columns = [
            units.theta_per_mb_to_per_bit(thetas),
            to_mbps(series),
            to_mbps(blocks),
            to_mbps(apriori_lo),
            to_mbps(apriori_up),
            to_mbps(best_value),
            provenance,
        ]
        header = [
            "theta_per_bit",
            "lower_series_mbps",
            "lower_blocks_mbps",
            "apriori_lower_mbps",
            "apriori_upper_mbps",
            "best_lower_mbps",
            "best_family",
        ]
        text = ",".join(header) + "\n" + "".join(
            ",".join(v if isinstance(v, str) else _row_wise_fmt(v) for v in row) + "\n"
            for row in zip(*columns)
        )
        files[f"{sc.name}_effcap_d{units.slots_to_ms(d, sc.slot_ms):.15g}ms.csv"] = text.encode()
    return files


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

    def test_files_are_byte_identical_to_the_per_delay_build(self, tmp_path, monkeypatch):
        caps = []

        def counted(model, fb, theta):
            caps.append(fb.rate_cap)
            return effcap_apriori(model, fb, theta)

        monkeypatch.setattr(cli, "effcap_apriori", counted)
        for sc in parse_scenario_text(EFFCAP_BYTES_INI):
            caps.clear()
            expected = previous_effcap_files(sc)
            paths = cli.cmd_effective_capacity(sc, str(tmp_path))
            assert sorted(os.path.basename(p) for p in paths) == sorted(expected)
            for name, content in expected.items():
                assert (tmp_path / name).read_bytes() == content, name
            # the a-priori pair is computed once per distinct w/d
            rate_caps = [w / d for w, d in zip(sc.w_mb, sc.d_slots)]
            assert caps == list(dict.fromkeys(rate_caps))
        assert len(caps) == 2  # the On-Off section repeats one cap

    def test_best_text_is_the_text_of_its_family(self, tmp_path):
        family_column = {
            "blocks": "lower_blocks_mbps",
            "series": "lower_series_mbps",
            "apriori": "apriori_lower_mbps",
        }
        winners = set()
        for sc in parse_scenario_text(EFFCAP_BYTES_INI):
            for path in cli.cmd_effective_capacity(sc, str(tmp_path)):
                header, rows = read_csv(path)
                best, family = header.index("best_lower_mbps"), header.index("best_family")
                for row in rows:
                    name = row[family]
                    winners.add(name)
                    expected = "nan" if name == "none" else row[header.index(family_column[name])]
                    assert row[best] == expected, (path, row)
        assert winners >= {"blocks", "apriori"}


# a section at d = 1 (the per-slot curve of exponential service, stable
# below 95.2 Mbps) and one at d = 5 (the block curve of On-Off service,
# stable below 49.1 Mbps); each has an unstable rate, so writes inf cells,
# and repeats a rate
BACKLOG_BYTES_INI = """
[vbr-d1]
kind = backlog
seed = 1
service = exponential
service_rate_mbps = 1000
w_over_d_mbps = 100
d_ms = 1
lambda_mbps = 10 50 90 120 50
epsilons = 1e-3 1e-6 1e-9

[mmoo-d5]
kind = backlog
seed = 1
service = mmoo
mmoo_p00 = 0.2
mmoo_p11 = 0.9
mmoo_peak_mbps = 1125
w_over_d_mbps = 100
d_ms = 5
lambda_mbps = 45 5 60 20 45
epsilons = 1e-3 1e-9
"""


def previous_backlog_file(sc):
    """The backlog verb's per-rate build before one call bounded a whole
    section, a literal copy without its simulation columns: one
    ``steady_state_backlog_bound`` call per arrival rate, the rows stacked
    and transposed into columns.  Returns (file name, bytes)."""
    grid = ThetaGrid.logspace(sc.theta_min, sc.theta_max, sc.theta_points)
    model = sc.service
    fb = FeedbackParams(w=sc.w_mb[0], d=sc.d_slots[0])
    curve = per_slot_curve(model, fb) if fb.d == 1 else block_curve(model, fb)
    labels = [np.format_float_scientific(eps, trim="-", exp_digits=2) for eps in sc.epsilons]
    header = ["lambda_mbps"] + [f"bound_eps{label}_mb" for label in labels]
    epsilons = np.array(sc.epsilons)
    bound_rows = []
    for lam in sc.lambdas_mb:
        arrivals = ExponentialArrivals(lam)
        bound_rows.append(steady_state_backlog_bound(arrivals, curve, epsilons, grid))
    lambdas = units.mb_per_slot_to_mbps(np.array(sc.lambdas_mb), sc.slot_ms)
    columns = [lambdas, *np.array(bound_rows).T]
    text = ",".join(header) + "\n" + "".join(
        ",".join(_row_wise_fmt(v) for v in row) + "\n" for row in zip(*columns)
    )
    return f"{sc.name}_backlog.csv", text.encode()


def test_backlog_files_are_byte_identical_to_the_per_rate_build(tmp_path, monkeypatch):
    calls = []
    bound = cli.steady_state_backlog_bound

    def counted(arrivals, *args):
        calls.append(arrivals)
        return bound(arrivals, *args)

    monkeypatch.setattr(cli, "steady_state_backlog_bound", counted)
    sections = parse_scenario_text(BACKLOG_BYTES_INI)
    assert [sc.d_slots for sc in sections] == [[1], [5]]
    for sc in sections:
        name, content = previous_backlog_file(sc)
        assert b"inf" in content
        assert cli.cmd_backlog(sc, str(tmp_path)) == [str(tmp_path / name)]
        assert (tmp_path / name).read_bytes() == content, name
    # one call per section, with every arrival rate of the section
    assert [[a.mean_rate for a in arrivals] for arrivals in calls] == [
        sc.lambdas_mb for sc in sections
    ]


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

    def test_fig8_bounds_dominate_the_exact_backlog_tail(self, tmp_path):
        # both fig8 panels have d = 1 and exponential arrivals of mean lam, so
        # the backlog B' = max(B + a - min(c, w), 0) has the exact tail
        # P(B > b) = sigma exp(-eta b), where eta > 0 solves
        # log1p(-lam eta) = log E[exp(-eta min(c, w))] and sigma = 1 - lam eta
        assert main(["reproduce", "fig8", "--out", str(tmp_path)]) == 0
        checked = 0
        for sc in canned_scenarios("fig8"):
            assert sc.d_slots == [1]
            w = sc.w_mb[0]
            header, rows = read_csv(tmp_path / f"{sc.name}_backlog.csv")
            for i, lam in enumerate(sc.lambdas_mb):
                eta, sigma = exact_backlog_tail(ExponentialArrivals(lam), sc.service, w)
                for eps in sc.epsilons:
                    label = np.format_float_scientific(eps, trim="-", exp_digits=2)
                    bound = column(header, rows, f"bound_eps{label}_mb")[i]
                    assert bound >= math.log(sigma / eps) / eta, (sc.name, lam, eps)
                    checked += 1
        assert checked == 66


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


class TestExactBacklogTail:
    def test_root_solves_the_tail_equation(self):
        # service of at least w: every slot drains exactly w
        model, w = DeterministicService(1.0), 0.4
        for lam in (0.05, 0.2, 0.39):
            eta, sigma = exact_backlog_tail(ExponentialArrivals(lam), model, w)
            assert 0.0 < eta < 1.0 / lam
            assert math.log1p(-lam * eta) == pytest.approx(-eta * w, rel=1e-12, abs=1e-15)
            assert sigma == 1.0 - lam * eta

    def test_refuses_other_arrival_laws(self):
        with pytest.raises(TypeError, match="exponential arrivals"):
            exact_backlog_tail(DeterministicService(0.1), DeterministicService(1.0), 0.4)

    @pytest.mark.parametrize("lam", [0.4, 0.5])
    def test_refuses_an_unstable_arrival_rate(self, lam):
        # the mean drain is min(c, w) = 0.4 per slot
        with pytest.raises(ValueError, match="unstable"):
            exact_backlog_tail(ExponentialArrivals(lam), DeterministicService(1.0), 0.4)


class TestVerifySuite:
    def test_fresh_checkout_passes_every_suite(self, capsys):
        # the CLI run at seed 0: each suite reports its checks and its time,
        # and exact-backlog the range of its fig8 bound over the exact quantile
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        report = re.findall(r"^PASS  (\S+) +(\d+)/(\d+) checks  \(\d+\.\d\d s\)$", out, re.M)
        assert {name for name, _, _ in report} == {
            "dioid-laws", "dual-oracle", "mgf-dominance",
            "markov-structure", "constants-and-units", "exact-backlog",
        }
        assert all(int(passed) == int(checks) > 0 for _, passed, checks in report)
        assert ("exact-backlog", "66", "66") in report
        assert "      bound / exact quantile from 1.253 to 3.221" in out.splitlines()
        assert out.splitlines()[-1].startswith("OK: ")

    def test_injected_fault_is_detected(self, monkeypatch):
        def corrupted(path, params, s, t):
            # sign-flip the window charge: breaks the envelope and the
            # closure agreement
            return equivalent_service_dp_row(path, params, s, t) - 2.0 * params.w

        monkeypatch.setattr(verify, "equivalent_service_dp_row", corrupted)
        assert suite_dual_oracle(seed=1, instances=12).failures > 0

    def test_block_bound_without_its_window_term_is_detected(self, monkeypatch):
        # M^d in place of M^d + d e^{-theta w}: the rate is gamma alone
        def no_window_term(model, params):
            return LogMgfCurve("block", params.d, lambda theta: (model.effective_capacity(theta), 0.0), True)

        monkeypatch.setattr(verify, "block_curve", no_window_term)
        assert suite_mgf_dominance(seed=2, n_paths=4000).failures > 0

    def test_per_slot_bound_without_the_cap_is_detected(self, monkeypatch):
        # the MGF of the raw service in place of min(c, w/d)
        def uncapped(model, params):
            return LogMgfCurve("per-slot", 1, lambda theta: (model.effective_capacity(theta), 0.0), True)

        monkeypatch.setattr(verify, "per_slot_curve", uncapped)
        assert suite_mgf_dominance(seed=2, n_paths=4000).failures > 0

    def test_dual_oracle_suite_runs_one_envelope_and_one_dp_pass_per_s(self, monkeypatch):
        envelopes, dp_calls = [], []

        def counting_envelope(path, *args):
            envelopes.append(path)
            return apriori_envelope(path, *args)

        def recording_dp(path, params, s, t):
            dp_calls.append((path, s, t))  # holds the path, so ids stay unique
            return equivalent_service_dp_row(path, params, s, t)

        monkeypatch.setattr(verify, "apriori_envelope", counting_envelope)
        monkeypatch.setattr(verify, "equivalent_service_dp_row", recording_dp)
        result = suite_dual_oracle(seed=1, instances=60)
        assert result.passed and result.checks == 194
        assert len(envelopes) == 60
        queries = {}
        for path, s, t in dp_calls:
            queries.setdefault(id(path), []).append((s, t))
        # one row call per s, s ascending, each to the horizon: every
        # interval is asked once
        assert len(queries) == 60
        for path in envelopes:
            T = path.horizon
            assert queries[id(path)] == [(s, T) for s in range(T + 1)]

    def test_fast_option_is_refused(self, capsys):
        # one configuration: every suite runs at its own size
        with pytest.raises(SystemExit) as info:
            main(["verify", "--fast"])
        assert info.value.code == 2
        assert "--fast" in capsys.readouterr().err
