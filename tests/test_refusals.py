"""Every refusal of a bad direct call into winflow, in one table.

A row of ``REFUSED_CALLS`` is (id, a call with no arguments, the exception
class, the whole message): the call raises exactly that class with exactly
that message, and writes no file.  The parser's refusals are the rows of
``test_cli.REFUSED_SCENARIOS``.  The gate runs both tables and holds each
row to a ``raise`` statement of ``src/winflow``, and every such statement to
a row, or to ``REACHED_ELSEWHERE`` with the test that reaches it.
"""

import ast
import math
import pathlib

import numpy as np
import pytest

import winflow
from conftest import SAMPLERS
from test_cli import REFUSED_SCENARIOS, with_keys
from test_simulator import small_config
from winflow import units
from winflow.algebra import (
    INF,
    BivariateFunction,
    ClosureNonConvergence,
    convolve,
    make_delta,
    make_delta_plus_w,
    pointwise_min,
    subadditive_closure,
)
from winflow.bounds import (
    FeedbackParams,
    LogMgfCurve,
    ThetaGrid,
    backlog_bound,
    block_curve,
    feedback_mgf_blocks_markov,
    per_slot_curve,
    statistical_service_curve,
    steady_state_backlog_bound,
)
from winflow.cli import write_csv
from winflow.models import (
    DeterministicService,
    ExponentialArrivals,
    ExponentialVbrService,
    LeftoverService,
    MarkovModulated2Service,
    MmooService,
    erlang_quantile,
    regularized_lower_gamma,
)
from winflow.oracle import SamplePath, equivalent_service_batch, equivalent_service_closure, equivalent_service_dp
from winflow.scenarios import canned_scenarios, parse_scenario_text
from winflow.simulator import backlog_quantile, run_flow_control
from winflow.verify import MMOO_REFERENCE as MMOO, exact_backlog_tail

SRC = pathlib.Path(winflow.__file__).parent
VBR = ExponentialVbrService(1.0)
GRID = ThetaGrid.logspace()
FB = FeedbackParams(w=0.5, d=2)
CURVE = per_slot_curve(VBR, FeedbackParams(w=0.5, d=1))
ARRIVALS = ExponentialArrivals(0.05)
EPS = "eps must lie strictly between 0 and 1"
NOT_ESTIMABLE = "quantile not estimable: eps * post-warmup slots * replications < 100"


def with_bad_slot(n, row, slot, bad):
    """n paths of 10 slots of 1, with ``bad`` at (row, slot)."""
    paths = np.ones((n, 10))
    paths[row, slot] = bad
    return paths


REFUSED_CALLS = [
    # algebra
    ("bivariate-not-square", lambda: BivariateFunction(np.zeros((2, 3))), ValueError,
     "table must be square, got shape (2, 3)"),
    ("bivariate-nan", lambda: BivariateFunction(np.array([[np.nan]])), ValueError, "table contains NaN"),
    ("bivariate-negative", lambda: BivariateFunction(np.array([[0.0, -1.0], [0.0, 0.0]])), ValueError,
     "bivariate function must be non-negative"),
    ("bivariate-falling-row",
     lambda: BivariateFunction(np.array([[0.0, 5.0, 1.0], [0.0, 0.0, 2.0], [0.0, 0.0, 0.0]])), ValueError,
     "bivariate function must be non-decreasing in t"),
    ("from-increments-2d", lambda: BivariateFunction.from_increments(np.ones((2, 2))), ValueError,
     "increments must be a 1-d sequence"),
    ("value-s-after-t", lambda: BivariateFunction.from_increments([2.0, 5.0, 1.0]).value(2, 1), IndexError,
     "need 0 <= s <= t <= 3, got (2, 1)"),
    ("delta-horizon--1", lambda: make_delta(-1), ValueError, "horizon must be >= 0"),
    ("delta-plus-w-0", lambda: make_delta_plus_w(4, 0.0), ValueError, "window offset w must be > 0"),
    ("delta-plus-w--1", lambda: make_delta_plus_w(4, -1.0), ValueError, "window offset w must be > 0"),
    ("pointwise-min-horizons", lambda: pointwise_min(make_delta(3), make_delta(4)), ValueError,
     "horizon mismatch: 3 != 4"),
    ("convolve-horizons", lambda: convolve(make_delta(3), make_delta(4)), ValueError, "horizon mismatch: 3 != 4"),
    # a negative diagonal drives the powers to minus infinity: the closure
    # refuses rather than return a truncated answer
    ("closure-negative-diagonal",
     lambda: subadditive_closure(BivariateFunction(np.array([[-0.5, 1.0], [INF, 0.0]]), check=False)),
     ClosureNonConvergence, "closure diverges: f(k, k) < 0 at k = [0]"),
    ("closure-negative-diagonal-at-6",
     lambda: subadditive_closure(BivariateFunction(np.diag([0.0] * 6 + [-1e-9] + [0.0] * 3), check=False)),
     ClosureNonConvergence, "closure diverges: f(k, k) < 0 at k = [6]"),
    # bounds
    *[
        (f"feedback-w-{w}", lambda w=w: FeedbackParams(w=w, d=1), ValueError, "window size w must be finite and > 0")
        for w in (0.0, math.nan, math.inf)
    ],
    *[
        (f"feedback-d-{d}", lambda d=d: FeedbackParams(w=1.0, d=d), ValueError,
         "feedback delay d must be an integer >= 1")
        for d in (0, 2.5)
    ],
    ("theta-grid-one-point", lambda: ThetaGrid(np.array([1.0])), ValueError, "theta grid needs at least two points"),
    *[
        (f"theta-grid-{name}", lambda values=values: ThetaGrid(np.array(values)), ValueError,
         "theta grid must be strictly increasing and positive")
        for name, values in (("falling", [1.0, 0.5]), ("negative", [-1.0, 1.0]))
    ],
    ("curve-mgf-t--1", lambda: LogMgfCurve("growth", 1, lambda theta: (-1.0, 0.0), True).mgf(1.0, -1), ValueError,
     "t must be >= 0"),
    ("block-curve-mgf-t--1", lambda: block_curve(VBR, FB).mgf(1.0, -1), ValueError, "t must be >= 0"),
    ("blocks-markov-fast-switching", lambda: feedback_mgf_blocks_markov(MmooService(0.1, 0.3, 1.0), FB, 1.0, 10),
     ValueError, "spectral analysis requires p01 + p10 < 1, got 1.6"),
    ("blocks-markov-iid", lambda: feedback_mgf_blocks_markov(VBR, FB, 1.0, 10), TypeError,
     "markov block bound needs a two-state Markov-modulated model"),
    ("per-slot-curve-two-random-laws", lambda: per_slot_curve(SAMPLERS["two-state"], FB), NotImplementedError,
     "peak-capped composition is defined for the On-Off model only"),
    *[
        (f"service-curve-eps-{eps}", lambda eps=eps: statistical_service_curve(CURVE, eps, GRID, 5), ValueError, EPS)
        for eps in (0.0, 1.0, 1.5, math.nan)
    ],
    *[
        (f"service-curve-horizon-{horizon}",
         lambda horizon=horizon: statistical_service_curve(CURVE, 1e-3, GRID, horizon), ValueError,
         "horizon must be an integer >= 0")
        for horizon in (-1, 2.5)
    ],
    ("backlog-bound-eps-0", lambda: backlog_bound(ARRIVALS, CURVE, 0.0, GRID, 10), ValueError, EPS),
    *[
        (f"backlog-bound-t-{t}", lambda t=t: backlog_bound(ARRIVALS, CURVE, 1e-3, GRID, t),
         ValueError, "t must be an integer >= 1")
        for t in (0, 2.5)
    ],
    ("steady-state-no-arrivals", lambda: steady_state_backlog_bound([], CURVE, 1e-3, GRID), ValueError,
     "steady_state_backlog_bound needs at least one arrival model"),
    *[
        (f"steady-state-eps-{bad}",
         lambda eps=np.array([1e-3, bad, 1e-6]): steady_state_backlog_bound(ARRIVALS, CURVE, eps, GRID),
         ValueError, EPS)
        for bad in (0.0, 1.0, -1e-3, 1.5, math.nan)
    ],
    # models
    *[
        (f"effective-capacity-theta-{theta}", lambda theta=theta: VBR.effective_capacity(theta), ValueError,
         "theta must be > 0")
        for theta in (0.0, math.nan, [0.5, math.nan])
    ],
    *[
        (f"{name}-rate-{rate}", lambda model=model, rate=rate: model(rate), ValueError, message)
        for name, model, message in (
            ("constant", DeterministicService, "rate must be finite and >= 0"),
            ("exponential", ExponentialVbrService, "mean rate must be finite and > 0"),
            ("on-off", lambda peak: MmooService(0.2, 0.9, peak), "peak rate must be finite and > 0"),
        )
        for rate in (math.nan, math.inf)
    ],
    *[
        (f"sample-increments-{name}-{case}",
         lambda model=model, T=T, n=n: model.sample_increments(np.random.default_rng(0), T, n), ValueError,
         f"{'T' if T == -1 else 'n'} must be an integer >= 0")
        for name, model in SAMPLERS.items()
        for case, T, n in (("n-1", 5, -1), ("T-1", -1, 5), ("n2.5", 5, 2.5), ("n1.0", 5, 1.0))
    ],
    ("on-off-fast-switching", lambda: MmooService(0.0, 0.0, 1.0).eigen_m_plus(-1.0), ValueError,
     "spectral analysis requires p01 + p10 < 1, got 2.0"),
    # an absorbing ON state with the state laws tuned so that the two
    # eigenvalues collide, up to float noise, at theta = -1
    ("spectral-weight-coincide",
     lambda: MarkovModulated2Service(
         0.5, 1.0, DeterministicService(0.3), DeterministicService(0.3 + math.log(2.0))
     ).k_theta(-1.0),
     ValueError, "eigenvalues diverge or coincide; spectral weight undefined"),
    ("chain-frozen", lambda: MmooService(1.0, 1.0, 1.0), ValueError,
     "chain has no unique steady state (p00 = p11 = 1)"),
    ("chain-p00-1.5", lambda: MmooService(1.5, 0.5, 1.0), ValueError, "p00 must lie in [0, 1]"),
    ("on-sequence-empty", lambda: MMOO.on_sequence_probability([]), ValueError, "times must be non-empty"),
    ("on-sequence-fractional", lambda: MMOO.on_sequence_probability([0, 1.5]), ValueError,
     "times must be integers"),
    ("on-sequence-repeated", lambda: MMOO.on_sequence_probability([3, 3]), ValueError,
     "times must be strictly increasing"),
    *[
        (f"path-mgf-t--1-{name}", lambda model=model: model.mgf_path(0.5, -1), ValueError, "t must be >= 0")
        for name, model in (("on-off", MMOO), ("exponential", VBR))
    ],
    ("censored-mgf-cap-0", lambda: VBR.log_censored_mgf(-1.0, 0.0), ValueError, "cap must be > 0"),
    ("leftover-censored-mgf-random-base",
     lambda: LeftoverService(ExponentialVbrService(2.0), ExponentialArrivals(0.5)).log_censored_mgf(-1.0, 1.0),
     NotImplementedError, "censored MGF is implemented for a deterministic base with exponential cross traffic"),
    *[
        (f"erlang-quantile-{name}", call, ValueError, message)
        for name, call, message in (
            ("eps-0", lambda: erlang_quantile(0.0, 1, 1.0), EPS),
            ("eps-nan", lambda: erlang_quantile(math.nan, 1, 1.0), EPS),
            ("mean-0", lambda: erlang_quantile(0.5, 1, 0.0), "mean per slot must be finite and > 0"),
            ("mean-nan", lambda: erlang_quantile(0.5, 1, math.nan), "mean per slot must be finite and > 0"),
            ("mean-inf", lambda: erlang_quantile(0.5, 1, math.inf), "mean per slot must be finite and > 0"),
            ("n-0", lambda: erlang_quantile(0.5, 0, 1.0), "shape n must be finite and >= 1"),
            ("n-0-in-array", lambda: erlang_quantile(0.5, np.array([3, 0, 5]), 1.0),
             "shape n must be finite and >= 1"),
        )
    ],
    *[
        (f"lower-gamma-a{a}-x{x}", lambda a=a, x=x: regularized_lower_gamma(a, x), ValueError, message)
        for a, x, message in (
            (0.0, 1.0, "shape a must be finite and > 0"),
            (math.nan, 1.0, "shape a must be finite and > 0"),
            (1.0, -1.0, "x must be finite and >= 0"),
            (1.0, math.nan, "x must be finite and >= 0"),
            (1.0, math.inf, "x must be finite and >= 0"),
        )
    ],
    # oracle
    ("sample-path-inf", lambda: SamplePath([1.0, math.inf]), ValueError, "increments must be finite"),
    ("sample-path-matrix", lambda: SamplePath(np.ones((2, 2))), ValueError, "increments must be one-dimensional"),
    ("dp-s-after-t", lambda: equivalent_service_dp(SamplePath(np.ones(5)), FB, 3, 2), ValueError,
     "need 0 <= s <= t <= 5, got (3, 2)"),
    ("batch-one-path-1d", lambda: equivalent_service_batch(np.ones(5), FB, 2), ValueError,
     "increments must have shape (n_paths, T)"),
    ("batch-t-past-T", lambda: equivalent_service_batch(np.ones((2, 5)), FB, 6), ValueError, "need 0 <= t <= 5"),
    # (paths, the path and the slot of the bad value): the last case puts it
    # in the last slot of the last of many paths
    *[
        (f"batch-{bad}-in-{n}-paths-at-{row}-{slot}",
         lambda args=(n, row, slot, bad): equivalent_service_batch(with_bad_slot(*args), FeedbackParams(0.5, 3), 10),
         ValueError, "increments must be finite")
        for bad in (math.nan, math.inf, -math.inf)
        for n, row, slot in ((3, 1, 0), (3, 1, 4), (3, 1, 9), (8195, -1, 9))
    ],
    ("closure-horizon-80", lambda: equivalent_service_closure(SamplePath(np.ones(80)), FeedbackParams(w=1.0, d=1)),
     ValueError, "closure oracle limited to horizon 64, got 80"),
    # simulator
    ("sim-warmup-100-of-100", lambda: small_config(total_slots=100, warmup_slots=100), ValueError,
     "warmup_slots must satisfy 0 <= warmup <= total - 2"),
    # backlog_drift compares two halves of the post-warmup slots
    ("sim-warmup-99-of-100", lambda: small_config(total_slots=100, warmup_slots=99), ValueError,
     "warmup_slots must satisfy 0 <= warmup <= total - 2"),
    ("sim-no-slots", lambda: small_config(total_slots=0, warmup_slots=0), ValueError,
     "warmup_slots must satisfy 0 <= warmup <= total - 2"),
    ("sim-replications-0", lambda: small_config(replications=0), ValueError, "replications must be >= 1"),
    ("sim-seed--1", lambda: small_config(seed=-1), ValueError, "seed must be >= 0"),
    ("sim-replication-index", lambda: run_flow_control(small_config(), replication=1), ValueError,
     "replication index out of range"),
    ("quantile-eps-0", lambda: backlog_quantile(small_config(), 0.0), ValueError, EPS),
    ("quantile-eps-1-in-array", lambda: backlog_quantile(small_config(), np.array([1e-2, 1.0])), ValueError, EPS),
    ("quantile-not-estimable", lambda: backlog_quantile(small_config(total_slots=500, warmup_slots=10), 1e-6),
     ValueError, NOT_ESTIMABLE),
    ("quantile-one-eps-not-estimable", lambda: backlog_quantile(small_config(), np.array([1e-2, 1e-6])), ValueError,
     NOT_ESTIMABLE),
    # 1/3 * 100 * 3 rounds below 100 in the order of the product
    ("quantile-one-third-not-estimable",
     lambda: backlog_quantile(small_config(total_slots=101, warmup_slots=1, replications=3), np.array([1 / 3, 0.5])),
     ValueError, NOT_ESTIMABLE),
    # cli, units, verify and the canned studies
    ("ms-to-slots-fraction", lambda: units.ms_to_slots(3.0, 2.0), ValueError,
     "3.0 ms is not a whole number of 2.0 ms slots"),
    *[
        (f"csv-{name}", lambda header=header, columns=columns: write_csv("refused.csv", header, columns), ValueError,
         "write_csv needs one column per header entry, all of one length")
        for name, header, columns in (("ragged", ["a", "b"], [[1, 2], [3]]), ("extra-column", ["a"], [[1], [2]]))
    ],
    ("exact-tail-constant-arrivals",
     lambda: exact_backlog_tail(DeterministicService(0.1), DeterministicService(1.0), 0.4), TypeError,
     "the exact backlog tail needs exponential arrivals"),
    # the mean drain is min(c, w) = 0.4 per slot
    *[
        (f"exact-tail-unstable-{lam}",
         lambda lam=lam: exact_backlog_tail(ExponentialArrivals(lam), DeterministicService(1.0), 0.4), ValueError,
         f"arrivals of mean {lam} Mb per slot leave the backlog unstable")
        for lam in (0.4, 0.5)
    ],
    ("canned-fig9", lambda: canned_scenarios("fig9"), ValueError,
     "unknown canned study 'fig9'; choose from ['fig4', 'fig5', 'fig6', 'fig7', 'fig8']"),
]

# raise statements that no row reaches, as (file, the statement's first
# line), each with the test that reaches it or the reason none can
REACHED_ELSEWHERE = {
    ("models.py", 'raise RuntimeError(f"incomplete gamma series did not converge in {_SERIES_MAX_TERMS} terms")'):
        "test_models.py::TestErlangQuantile::test_non_convergence_raises",
    ("models.py", 'raise RuntimeError(f"Erlang quantile did not converge (eps={eps}, n={a[active][:3]})")'):
        "test_models.py::TestErlangQuantile::test_non_convergence_raises",
    ("verify.py", 'raise ValueError(f"{sc.name}: the exact backlog tail needs d = 1")'):
        "none: it guards the canned fig8 study, whose every section has d = 1",
}


@pytest.mark.parametrize("call, error, message", [pytest.param(*row[1:], id=row[0]) for row in REFUSED_CALLS])
def test_refused_call_raises_its_class_and_message(call, error, message, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
    assert not any(tmp_path.iterdir())


def raise_statements() -> dict:
    """(file name, line) -> the first line of each raise statement of
    ``src/winflow`` that raises an exception of its own (not a re-raise)."""
    statements = {}
    for path in SRC.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                statements[path.name, node.lineno] = lines[node.lineno - 1].strip()
    return statements


def innermost_frame(call) -> tuple:
    """(file, line) of the frame in which ``call``'s exception was raised."""
    with pytest.raises(Exception) as info:
        call()
    tb = info.value.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    path = pathlib.Path(tb.tb_frame.f_code.co_filename)
    return (path.name if path.parent == SRC else str(path)), tb.tb_lineno


def test_every_raise_statement_is_reached_by_a_row_or_named(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    statements = raise_statements()
    rows = [(row[0], row[1]) for row in REFUSED_CALLS] + [
        (row[0], lambda ini=row[1], edit=row[2]: parse_scenario_text(with_keys(ini, edit)))
        for row in REFUSED_SCENARIOS
    ]
    frames = [(row_id, innermost_frame(call)) for row_id, call in rows]
    assert [(row_id, frame) for row_id, frame in frames if frame not in statements] == []
    unreached = {(site[0], statements[site]) for site in statements.keys() - {frame for _, frame in frames}}
    assert unreached == set(REACHED_ELSEWHERE)
