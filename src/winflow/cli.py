"""Experiment runner.

Verbs: service-curve, effective-capacity, backlog, simulate, verify, and
reproduce (canned parameter studies fig4 through fig8).  Scenarios come from
an INI config file (see scenarios.py for the schema); every verb emits CSV
only.  Identical config and seed produce byte-identical files: floats are
written with shortest round-trip formatting and rows in deterministic order.
The verbs work on whole columns: each one hands ``write_csv`` its columns,
which formats a block of rows of a numeric array column in one pass and
writes a column that is already a list of str as it is, and the backlog verb
bounds every arrival rate and epsilon of a section in one call (and, with
simulation, reads all the epsilons of a rate from one set of runs).  The
effective-capacity verb formats each distinct column once per call: theta
for all delays, the a-priori pair once per exact w/d, and the best lower
bound row by row from the text of the family that won the row.  No text
outlives the call.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
from typing import List, Sequence

import numpy as np

from . import units
from .bounds import (
    FeedbackParams,
    ThetaGrid,
    _best_lower,
    _is_markov,
    best_effcap_lower,  # noqa: F401 -- a name of this module that perfbench/tracer.py wraps
    block_curve,
    effcap_apriori,
    effcap_lower_blocks,
    effcap_lower_series,
    per_slot_curve,
    statistical_service_curve,
    steady_state_backlog_bound,
)
from .models import (
    DeterministicService,
    ExponentialArrivals,
    ExponentialVbrService,
    erlang_quantile,
)
from .scenarios import CANNED, Scenario, ScenarioError, canned_scenarios, load_scenarios
from .simulator import SimConfig, backlog_quantile, quantile_estimable, run_flow_control

__all__ = ["main"]


def _fmt(value) -> str:
    """One CSV cell: strings as they are, integers in decimal, and floats
    (nan and +-inf included) in shortest round-trip form."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _column_text(column) -> List[str]:
    # a numeric array converts to Python ints or floats in one pass, and
    # repr of those is exactly _fmt's text; a list of str is text already;
    # booleans and objects go by value
    if isinstance(column, np.ndarray) and column.dtype.kind in "fiu":
        return list(map(repr, column.tolist()))
    if isinstance(column, list) and set(map(type, column)) == {str}:
        return column
    return list(map(_fmt, column))


# rows are formatted and written this many at a time, so that the text of
# a long table is never held in memory at once
_BLOCK_ROWS = 256


def write_csv(path: str, header: Sequence[str], columns: Sequence[Sequence]) -> str:
    """Write equal-length columns atomically; UTF-8, '.' decimal, rows in order."""
    lengths = {len(col) for col in columns}
    if len(columns) != len(header) or len(lengths) > 1:
        raise ValueError("write_csv needs one column per header entry, all of one length")
    n_rows = lengths.pop() if lengths else 0
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(",".join(header) + "\n")
            for start in range(0, n_rows, _BLOCK_ROWS):
                block = [_column_text(col[start : start + _BLOCK_ROWS]) for col in columns]
                handle.write("\n".join(map(",".join, zip(*block))) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def _grid(sc: Scenario) -> ThetaGrid:
    return ThetaGrid.logspace(sc.theta_min, sc.theta_max, sc.theta_points)


def _delay_label(sc: Scenario, d: int) -> str:
    # 15 significant digits tell every two delays apart that MAX_SLOTS
    # allows, and print what :g prints for delays of up to 6 digits
    return f"{units.slots_to_ms(d, sc.slot_ms):.15g}"


def _sim_config(sc: Scenario, arrivals) -> SimConfig:
    return SimConfig(
        seed=sc.seed, total_slots=sc.total_slots, warmup_slots=sc.warmup_slots, arrivals=arrivals,
        service=sc.service, feedback=FeedbackParams(w=sc.w_mb[0], d=sc.d_slots[0]),
        replications=sc.replications,
    )


def _curve_family(model, fb: FeedbackParams):
    # at d = 1 the rate-capped per-slot route is the tightest available
    # (exact for i.i.d. increments); beyond that use the block bound
    return per_slot_curve(model, fb) if fb.d == 1 else block_curve(model, fb)


def cmd_service_curve(sc: Scenario, out_dir: str) -> List[str]:
    grid = _grid(sc)
    model = sc.service
    horizon = sc.horizon_slots
    ts = np.arange(horizon + 1)
    fbs = [FeedbackParams(w=w, d=d) for w, d in zip(sc.w_mb, sc.d_slots)]
    shared_ratio = len({round(fb.rate_cap, 12) for fb in fbs}) == 1

    def invert(family) -> np.ndarray:
        return statistical_service_curve(family, sc.epsilon, grid, horizon).value

    # the per-slot curve depends on w/d alone: one inversion per exact cap
    per_slot = {}

    def lower(fb: FeedbackParams) -> np.ndarray:
        if fb.rate_cap not in per_slot:
            per_slot[fb.rate_cap] = invert(per_slot_curve(model, fb))
        return per_slot[fb.rate_cap]

    header = ["t_ms"]
    columns = [units.slots_to_ms(ts, sc.slot_ms)]
    for fb in fbs:  # _curve_family's choice, with the d = 1 inversion shared
        header.append(f"curve_d{_delay_label(sc, fb.d)}ms_mb")
        columns.append(lower(fb) if fb.d == 1 else invert(block_curve(model, fb)))
    if shared_ratio:
        header.append("lower_mb")
        columns.append(lower(fbs[0]))
    else:
        for fb in fbs:
            header.append(f"lower_d{_delay_label(sc, fb.d)}ms_mb")
            columns.append(lower(fb))
    # the raw-service epsilon-quantile bounds any service envelope from
    # above, where the path distribution is known: Erlang sums for the
    # exponential server, a point mass for the constant server; otherwise
    # only the window term applies
    quantiles = np.full(len(ts), math.inf)
    if isinstance(model, ExponentialVbrService):
        quantiles = np.concatenate(([0.0], erlang_quantile(sc.epsilon, ts[1:], model.mean_rate)))
    elif isinstance(model, DeterministicService):
        quantiles = model.rate * ts.astype(float)
    for fb in fbs:
        header.append(f"upper_d{_delay_label(sc, fb.d)}ms_mb")
        columns.append(np.minimum(quantiles, np.ceil(ts / fb.d) * fb.w))
    path = os.path.join(out_dir, f"{sc.name}_service_curve.csv")
    return [write_csv(path, header, columns)]


def cmd_effective_capacity(sc: Scenario, out_dir: str) -> List[str]:
    thetas = _grid(sc).values
    model = sc.service
    iid = not _is_markov(model)
    header = [
        "theta_per_bit",
        "lower_series_mbps",
        "lower_blocks_mbps",
        "apriori_lower_mbps",
        "apriori_upper_mbps",
        "best_lower_mbps",
        "best_family",
    ]

    def mbps_text(values: np.ndarray) -> List[str]:
        mbps = units.mb_per_slot_to_mbps(values, sc.slot_ms)
        return _column_text(np.where(np.isfinite(values), mbps, math.nan))

    # every column is formatted once per call: theta is shared by all
    # delays, the a-priori pair depends on w/d alone, and the best column
    # takes each row's text from the family that won it
    theta_text = _column_text(units.theta_per_mb_to_per_bit(thetas))
    nan_text = ["nan"] * len(thetas)
    apriori = {}  # exact w/d -> (lower values, lower text, upper text)
    paths = []
    for w, d in zip(sc.w_mb, sc.d_slots):
        fb = FeedbackParams(w=w, d=d)
        if fb.rate_cap not in apriori:
            lower, upper = effcap_apriori(model, fb, thetas)
            apriori[fb.rate_cap] = lower, mbps_text(lower), mbps_text(upper)
        apriori_lower, apriori_lower_text, apriori_upper_text = apriori[fb.rate_cap]
        # the families of best_effcap_lower, in its order, and their text
        families = {"blocks": effcap_lower_blocks(model, fb, thetas)}
        text = {"blocks": mbps_text(families["blocks"]), "series": nan_text, "none": nan_text}
        if iid:
            families["series"] = effcap_lower_series(model, fb, thetas)
            text["series"] = mbps_text(families["series"])
        families["apriori"], text["apriori"] = apriori_lower, apriori_lower_text
        best = _best_lower(thetas, families)
        columns = [
            theta_text,
            text["series"],
            text["blocks"],
            apriori_lower_text,
            apriori_upper_text,
            [text[name][i] for i, name in enumerate(best.provenance)],
            best.provenance,
        ]
        path = os.path.join(out_dir, f"{sc.name}_effcap_d{_delay_label(sc, d)}ms.csv")
        paths.append(write_csv(path, header, columns))
    return paths


def cmd_backlog(sc: Scenario, out_dir: str) -> List[str]:
    grid = _grid(sc)
    model = sc.service
    fb = FeedbackParams(w=sc.w_mb[0], d=sc.d_slots[0])
    curve = _curve_family(model, fb)
    # shortest round-trip mantissa: distinct epsilons get distinct columns
    labels = [np.format_float_scientific(eps, trim="-", exp_digits=2) for eps in sc.epsilons]
    header = ["lambda_mbps"] + [f"bound_eps{label}_mb" for label in labels]
    if sc.simulate:
        header += [f"sim_eps{label}_mb" for label in labels]
    epsilons = np.array(sc.epsilons)
    arrivals = [ExponentialArrivals(lam) for lam in sc.lambdas_mb]
    bounds = steady_state_backlog_bound(arrivals, curve, epsilons, grid)  # (lambda, eps)
    lambdas = units.mb_per_slot_to_mbps(np.array(sc.lambdas_mb), sc.slot_ms)
    columns = [lambdas, *bounds.T]
    if sc.simulate:
        sim_rows = []
        for process in arrivals:
            config = _sim_config(sc, process)
            estimable = quantile_estimable(config, epsilons)
            row = np.full(len(epsilons), math.nan)
            if estimable.any():
                row[estimable] = backlog_quantile(config, epsilons[estimable])
            sim_rows.append(row)
        columns.extend(np.array(sim_rows, dtype=float).T)
    path = os.path.join(out_dir, f"{sc.name}_backlog.csv")
    return [write_csv(path, header, columns)]


def cmd_simulate(sc: Scenario, out_dir: str) -> List[str]:
    config = _sim_config(sc, sc.arrivals)
    paths = []
    summary = []
    for r in range(sc.replications):
        run = run_flow_control(config, r)
        k = run.checkpoints
        run_path = os.path.join(out_dir, f"{sc.name}_run{r}.csv")
        columns = [k, run.backlog[k], run.queue[k]]
        paths.append(write_csv(run_path, ["slot", "backlog_mb", "queue_mb"], columns))
        tail = run.tail
        p99, p999 = np.quantile(tail, [0.99, 0.999]).tolist()
        summary.append(
            (
                r,
                units.mb_per_slot_to_mbps(run.throughput, sc.slot_ms),
                float(np.mean(tail)),
                float(np.max(tail)),
                p99,
                p999,
                run.backlog_drift(),
            )
        )
    summary_path = os.path.join(out_dir, f"{sc.name}_summary.csv")
    paths.append(
        write_csv(
            summary_path,
            [
                "replication",
                "throughput_mbps",
                "mean_backlog_mb",
                "max_backlog_mb",
                "p99_backlog_mb",
                "p999_backlog_mb",
                "drift_ratio",
            ],
            list(zip(*summary)),
        )
    )
    return paths


_COMMANDS = {
    "service-curve": cmd_service_curve,
    "effective-capacity": cmd_effective_capacity,
    "backlog": cmd_backlog,
    "simulate": cmd_simulate,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="winflow",
        description="Analytic bounds and simulation for window flow control "
        "systems with random service.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True, help="scenario INI file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override scenario seeds")

    for verb in _COMMANDS:
        add_common(sub.add_parser(verb, help=f"run {verb} scenarios"))
    rep = sub.add_parser("reproduce", help="run a canned parameter study")
    rep.add_argument("figure", choices=list(CANNED))
    add_common(rep, needs_config=False)
    ver = sub.add_parser("verify", help="run the invariant suite")
    ver.add_argument("--seed", type=int, default=0)

    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error(f"--seed must be >= 0, got {args.seed}")

    if args.verb == "verify":
        from .verify import run_report

        return run_report(args.seed)

    if args.verb == "reproduce":
        scenarios = canned_scenarios(args.figure)
    else:
        try:
            scenarios = [sc for sc in load_scenarios(args.config) if sc.kind == args.verb]
        except ScenarioError as exc:
            parser.error(str(exc))
        except OSError as exc:
            parser.error(f"cannot read --config {args.config}: {exc.strerror}")
        except UnicodeDecodeError as exc:
            parser.error(f"--config {args.config} is not UTF-8 text: {exc.reason}")
        if not scenarios:
            parser.error(f"no scenarios of kind {args.verb!r} in --config {args.config}")
    for sc in scenarios:
        if args.seed is not None:
            sc.seed = args.seed
        for path in _COMMANDS[sc.kind](sc, args.out):
            print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
