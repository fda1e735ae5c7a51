"""The three benchmark workloads: inputs from a seed, items, work, checks.

Every workload is a closed loop with one client: its items run one after
another, each starting when the previous one ends.  The program receives
only the generated scenarios, models and sample paths.  Calls go through
module attributes at call time (``cli.cmd_backlog``, ``oracle.equivalent_
service_batch``) so that the traced run's wrappers see them.

* ``analytic``: the bound engine alone, through the cli verb functions on
  an INI in the layout of the canned fig4-fig8 studies.  Outputs do not
  depend on the seed and must match the reference recorded by
  record_reference.py.
* ``simulate``: the slot-level closed loop through the cli simulate verb.
* ``validate``: Monte Carlo validation of the MGF bounds and the
  eps-service curve against the batch oracle, plus dual-oracle equality
  (dynamic program against min-plus closure) on random instances.
"""

from __future__ import annotations

import math
import os

import numpy as np

from winflow import bounds, cli, oracle, scenarios, units

from checks import compare_csv, load_reference, reference_path

# work counted by work_per_s, per workload
WORK_UNITS = {
    "analytic": "bound values",
    "simulate": "slot-replications",
    "validate": "oracle path-slots",
}

VBR = "service = exponential\nservice_rate_mbps = 1000"
MMOO = "service = mmoo\nmmoo_p00 = 0.2\nmmoo_p11 = 0.9\nmmoo_peak_mbps = 1125"
LEFTOVER = "service = leftover\nservice_rate_mbps = 1000\ncross_rate_mbps = 400"

# tolerances of the analytic reference comparison, per output kind:
# (relative, absolute).  Service curves come out of a golden-section
# search, and backlog bounds out of a loop that stops once t-doubling moves
# them by less than 1e-6 relative; effective capacities are closed forms.
ANALYTIC_TOLERANCE = {
    "service_curve": (1e-6, 1e-9),
    "effcap": (1e-9, 1e-9),
    "backlog": (1e-5, 1e-9),
}
# simulate outputs are deterministic per seed; the tolerance admits only
# floating-point reordering of the slot recursion
SIMULATE_TOLERANCE = (1e-9, 1e-8)
THROUGHPUT_STANDARD_ERRORS = 5.0
MAX_DRIFT_RATIO = 1.5
INVARIANT_SLACK_MB = 1e-6

VALIDATE_PATHS = 50_000
VALIDATE_SLOTS = 50
VALIDATE_TIMES = (10, 25, 50)
VALIDATE_THETAS = (0.5, 1.0, 2.0)
DUAL_INSTANCES = 300
DUAL_HORIZONS = range(8, 49)
DUAL_TOLERANCE = 1e-9


def _section(name: str, body: str, **keys) -> str:
    lines = [f"[{name}]", body] + [f"{k} = {v}" for k, v in keys.items()]
    return "\n".join(lines) + "\n"


class Workload:
    """Items run in order; check() inspects their results after a pass."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.diagnostics: list[str] = []

    @property
    def work_unit(self) -> str:
        return WORK_UNITS[self.name]


# ---------------------------------------------------------------------------
# analytic
# ---------------------------------------------------------------------------


def analytic_ini(seed: int) -> str:
    # one w/d ratio for the curves: the 500 Mbps sections repeat the same
    # code path and would cost a fifth of the pass
    sections = [
        _section(
            f"{server}-curves-100", body, kind="service-curve", seed=seed,
            w_over_d_mbps=100, d_ms="1 2 5 10", epsilon="1e-6", horizon_ms=1000,
        )
        for server, body in (("vbr", VBR), ("mmoo", MMOO))
    ]
    for server, body in (("vbr", VBR), ("mmoo", MMOO)):
        for ratio in (100, 500):
            sections.append(
                _section(
                    f"{server}-effcap-{ratio}", body, kind="effective-capacity", seed=seed,
                    w_over_d_mbps=ratio, d_ms="1 2 5 10 20 50", theta_points=512,
                )
            )
    # fig8 rows without the costliest near-saturation rates (94 and 390 Mbps)
    for w_mb, lambdas in (
        ("0.1", "10 20 30 40 50 60 70 80 85 90 92"),
        ("0.5", "50 100 150 200 250 300 330 360 380"),
    ):
        sections.append(
            _section(
                f"vbr-backlog-w{w_mb}", VBR, kind="backlog", seed=seed, d_ms=1, w_mb=w_mb,
                lambda_mbps=lambdas, epsilons="1e-3 1e-6 1e-9", simulate="false",
            )
        )
    return "\n".join(sections)


def _output_kind(filename: str) -> str:
    for kind in ANALYTIC_TOLERANCE:
        if kind in filename:
            return kind
    raise ValueError(f"unknown output kind: {filename}")


class Analytic(Workload):
    name = "analytic"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.scenarios = scenarios.parse_scenario_text(analytic_ini(seed))
        self._reference = None

    @property
    def items(self):
        return [(sc.name, self._runner(sc)) for sc in self.scenarios]

    @staticmethod
    def _runner(sc):
        verb = "cmd_" + sc.kind.replace("-", "_")
        return lambda out_dir: getattr(cli, verb)(sc, out_dir)

    @property
    def work_per_pass(self) -> int:
        """Bound values: (t, curve), (theta, d) and (lambda, eps) cells."""
        total = 0
        for sc in self.scenarios:
            if sc.kind == "service-curve":
                ratios = {round(w / d, 12) for w, d in zip(sc.w_mb, sc.d_slots)}
                lower = 1 if len(ratios) == 1 else len(sc.d_slots)
                total += (sc.horizon_slots + 1) * (2 * len(sc.d_slots) + lower)
            elif sc.kind == "effective-capacity":
                total += sc.theta_points * len(sc.d_slots)
            else:
                total += len(sc.lambdas_mb) * len(sc.epsilons)
        return total

    def check(self, results, checks) -> None:
        if self._reference is None:
            self._reference = load_reference("analytic")
        produced = {os.path.basename(p): p for paths in results for p in paths}
        checks.record(
            "analytic.files", set(produced) == set(self._reference),
            f"missing or extra: {sorted(set(produced) ^ set(self._reference))}",
        )
        for name, path in sorted(produced.items()):
            expected = self._reference.get(name)
            if expected is None:
                continue
            with open(path, encoding="utf-8") as handle:
                ok, detail = compare_csv(handle.read(), expected, *ANALYTIC_TOLERANCE[_output_kind(name)])
            checks.record(f"analytic.{name}", ok, detail)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def simulate_ini(seed: int) -> str:
    sections = []
    index = 0
    for server, body in (("vbr", VBR), ("mmoo", MMOO)):
        for d in (1, 10):
            sections.append(
                _section(
                    f"{server}-sim-d{d}", body, kind="simulate", seed=seed * 16 + index,
                    arrival="exponential", arrival_rate_mbps=80, w_over_d_mbps=100, d_ms=d,
                    total_slots=250_000, warmup_slots=10_000, replications=4,
                )
            )
            index += 1
    return "\n".join(sections)


def _read_rows(path: str) -> np.ndarray:
    """Numeric CSV body without its header."""
    with open(path, encoding="utf-8") as handle:
        next(handle)
        return np.array([[float(x) for x in line.split(",")] for line in handle if line.strip()])


class Simulate(Workload):
    name = "simulate"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.scenarios = scenarios.parse_scenario_text(simulate_ini(seed))

    @property
    def items(self):
        return [(sc.name, self._runner(sc)) for sc in self.scenarios]

    @staticmethod
    def _runner(sc):
        return lambda out_dir: (sc, cli.cmd_simulate(sc, out_dir))

    @property
    def work_per_pass(self) -> int:
        """Simulated slots times replications."""
        return sum(sc.total_slots * sc.replications for sc in self.scenarios)

    def check(self, results, checks) -> None:
        for sc, paths in results:
            w = sc.w_mb[0]
            *run_paths, summary_path = paths
            for r, path in enumerate(run_paths):
                # backlog = A - D and queue = A' - D, so D <= A' <= A is
                # queue >= 0 and backlog >= queue
                rows = _read_rows(path)
                backlog, queue = rows[:, 1], rows[:, 2]
                tag = f"simulate.{sc.name}.run{r}"
                slack = INVARIANT_SLACK_MB
                checks.record(f"{tag}.queue<=w", bool(np.all(queue <= w + slack)), f"max {queue.max()}")
                checks.record(f"{tag}.backlog>=0", bool(np.all(backlog >= -slack)), f"min {backlog.min()}")
                checks.record(f"{tag}.departed<=admitted", bool(np.all(queue >= -slack)), f"min {queue.min()}")
                checks.record(
                    f"{tag}.admitted<=arrived", bool(np.all(backlog >= queue - slack)),
                    f"min {np.min(backlog - queue)}",
                )
            summary = _read_rows(summary_path)
            rate = units.mb_per_slot_to_mbps(sc.arrivals.mean_rate, sc.slot_ms)
            # exponential arrivals: per-slot std equals the mean
            stderr = rate / math.sqrt(sc.total_slots)
            for r, row in enumerate(summary):
                throughput, drift = row[1], row[6]
                checks.record(
                    f"simulate.{sc.name}.run{r}.throughput",
                    abs(throughput - rate) <= THROUGHPUT_STANDARD_ERRORS * stderr,
                    f"{throughput} Mbps against {rate} +- {THROUGHPUT_STANDARD_ERRORS} x {stderr}",
                )
                checks.record(
                    f"simulate.{sc.name}.run{r}.drift", drift <= MAX_DRIFT_RATIO, f"drift ratio {drift}"
                )
        # outputs are recorded for the default seed only
        if os.path.exists(reference_path(f"simulate-seed{self.seed}")):
            self._check_reference(results, checks)

    def _check_reference(self, results, checks) -> None:
        reference = load_reference(f"simulate-seed{self.seed}")
        for _sc, paths in results:
            for path in paths:
                name = os.path.basename(path)
                with open(path, encoding="utf-8") as handle:
                    ok, detail = compare_csv(handle.read(), reference.get(name, ""), *SIMULATE_TOLERANCE)
                checks.record(f"simulate.reference.{name}", ok, detail)


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def validate_ini(seed: int) -> str:
    return "\n".join(
        _section(
            f"{server}-validate", body, kind="service-curve", seed=seed,
            w_over_d_mbps=200, d_ms="1 5", epsilon="1e-2", horizon_ms=VALIDATE_SLOTS,
        )
        for server, body in (("vbr", VBR), ("mmoo", MMOO), ("leftover", LEFTOVER))
    )


def dual_instances(seed: int) -> list:
    """Random (path, params) pairs over exponential, On-Off and signed
    leftover increments; horizons cycle through 8..48 so that the oracle
    work does not depend on the seed."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    out = []
    for k in range(DUAL_INSTANCES):
        T = DUAL_HORIZONS[k % len(DUAL_HORIZONS)]
        family = k % 3
        if family == 0:
            inc = rng.exponential(1.0, T)
        elif family == 1:
            inc = (rng.random(T) < 8.0 / 9.0) * 1.125
        else:
            inc = 1.0 - rng.exponential(0.6, T)
        params = bounds.FeedbackParams(w=float(rng.uniform(1e-3, 3.0)), d=int(rng.choice((1, 2, 3, 5))))
        out.append((oracle.SamplePath(inc), params))
    return out


def _is_markov(model) -> bool:
    return hasattr(model, "eigen_m_plus")


def monte_carlo(sc, index: int, w: float, d: int) -> dict:
    """Oracle-evaluated equivalent service of sampled paths and the bounds
    it is checked against, for one server and one (w, d)."""
    fb = bounds.FeedbackParams(w=w, d=d)
    model = sc.service
    rng = np.random.default_rng(np.random.SeedSequence([sc.seed, index, d]))
    paths = model.sample_increments(rng, VALIDATE_SLOTS, VALIDATE_PATHS)
    values = {t: oracle.equivalent_service_batch(paths, fb, t) for t in VALIDATE_TIMES}
    del paths
    per_slot = bounds.per_slot_curve(model, fb)
    block = bounds.feedback_mgf_blocks_markov if _is_markov(model) else bounds.feedback_mgf_blocks_iid
    family = per_slot if d == 1 else bounds.block_curve(model, fb)
    grid = bounds.ThetaGrid.logspace(sc.theta_min, sc.theta_max, sc.theta_points)
    curve = bounds.statistical_service_curve(family, sc.epsilon, grid, VALIDATE_SLOTS)
    out = {"mgf": [], "violation": []}
    for t in VALIDATE_TIMES:
        for theta in VALIDATE_THETAS:
            transformed = np.exp(-theta * values[t])
            mean = float(transformed.mean())
            stderr = float(transformed.std(ddof=1) / math.sqrt(len(transformed)))
            out["mgf"].append((theta, t, mean, stderr, "block", block(model, fb, theta, t)))
            per_slot_bound = math.exp(float(per_slot.log_value(theta, [t])[0]))
            out["mgf"].append((theta, t, mean, stderr, "per-slot", per_slot_bound))
        envelope = float(curve.value[t])
        out["violation"].append((t, envelope, float(np.mean(values[t] <= envelope))))
    return out


def dual_oracle(path, params) -> float:
    """Largest |dp - closure| over the intervals [0, t) and [T/2, t)."""
    table = oracle.equivalent_service_closure(path, params)
    T = path.horizon
    worst = 0.0
    for s in (0, T // 2):
        for t in range(s, T + 1):
            dp = oracle.equivalent_service_dp(path, params, s, t)
            worst = max(worst, abs(dp - table.value(s, t)))
    return worst


class Validate(Workload):
    name = "validate"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.scenarios = scenarios.parse_scenario_text(validate_ini(seed))
        self.instances = dual_instances(seed)

    @property
    def items(self):
        items = []
        for index, sc in enumerate(self.scenarios):
            for w, d in zip(sc.w_mb, sc.d_slots):
                items.append((f"{sc.name}-d{d}", self._mc(sc, index, w, d)))
        for k, (path, params) in enumerate(self.instances):
            items.append((f"dual-{k}", self._dual(path, params)))
        return items

    @staticmethod
    def _mc(sc, index, w, d):
        return lambda out_dir: (f"{sc.name}-d{d}", sc.epsilon, monte_carlo(sc, index, w, d))

    @staticmethod
    def _dual(path, params):
        return lambda out_dir: ("dual", None, dual_oracle(path, params))

    @property
    def work_per_pass(self) -> int:
        """Batch-oracle path-slots: paths times t, summed over oracle calls."""
        configs = sum(len(sc.d_slots) for sc in self.scenarios)
        return configs * VALIDATE_PATHS * sum(VALIDATE_TIMES)

    def check(self, results, checks) -> None:
        self.diagnostics = []
        for label, eps, result in results:
            if label == "dual":
                checks.record("validate.dual", result <= DUAL_TOLERANCE, f"|dp - closure| = {result}")
                continue
            for theta, t, mean, stderr, kind, bound in result["mgf"]:
                checks.record(
                    f"validate.{label}.{kind}.theta{theta}.t{t}", mean <= bound + 3.0 * stderr,
                    f"E exp(-theta S) = {mean} +- {stderr} above bound {bound}",
                )
            budget = eps + 3.0 * math.sqrt(eps / VALIDATE_PATHS)
            for t, envelope, frequency in result["violation"]:
                if envelope > 0.0:
                    checks.record(
                        f"validate.{label}.curve.t{t}", frequency <= budget,
                        f"violation frequency {frequency} > {budget}",
                    )
                elif frequency > budget:
                    # statistical_service_curve floors the envelope at zero,
                    # which is no eps-envelope for signed (leftover) service
                    self.diagnostics.append(
                        f"{label} t={t}: envelope floored at 0, P(S_eq <= 0) = {frequency} > {budget}"
                    )


WORKLOADS = {cls.name: cls for cls in (Analytic, Simulate, Validate)}
