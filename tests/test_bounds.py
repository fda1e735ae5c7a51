"""Analytic bound engine tests.

Monte Carlo comparisons use the exact path oracle as ground truth and give
every stochastic assertion an explicit standard-error budget.  Scalar
optimizer results are checked against raw grid scans.
"""

import math

import tracemalloc

import numpy as np
import pytest

from conftest import on_off_capacity_reference
from winflow import bounds
from winflow.bounds import (
    FeedbackParams,
    LogMgfCurve,
    ThetaGrid,
    backlog_bound,
    best_effcap_lower,
    block_curve,
    effcap_apriori,
    effcap_lower_blocks,
    effcap_lower_series,
    feedback_mgf_blocks_iid,
    feedback_mgf_blocks_markov,
    golden_section_max,
    per_slot_curve,
    series_curve,
    statistical_service_curve,
    steady_state_backlog_bound,
)
from winflow.bounds import _log_steady_state_sum
from winflow.models import (
    DeterministicService,
    ExponentialArrivals,
    ExponentialVbrService,
    LeftoverService,
    MarkovModulated2Service,
    MmooService,
)
from winflow.oracle import SamplePath, equivalent_service_batch, equivalent_service_dp
from winflow.scenarios import parse_scenario_text
from winflow.verify import MMOO_REFERENCE as MMOO

VBR = ExponentialVbrService(1.0)
LEFTOVER = LeftoverService(DeterministicService(1.0), ExponentialArrivals(0.4))
GRID = ThetaGrid.logspace()


def scalar_search(objective, thetas, grid_values):
    """Reference for ``bounds._refine_grid_max`` on one problem: the best
    grid point, refined by one golden-section search on the bracket of its
    neighbours and never made worse.  Returns (max, argmax), or (-inf, nan)
    where no grid theta gives a value."""
    k = int(np.argmax(grid_values))
    if grid_values[k] == -math.inf:
        return -math.inf, math.nan
    x, fx = golden_section_max(objective, thetas[max(k - 1, 0)], thetas[min(k + 1, len(thetas) - 1)])
    return (fx, x) if fx >= grid_values[k] else (grid_values[k], thetas[k])


def scalar_service_curve(curve, eps, grid, horizon):
    """Reference inversion: one scalar search per t."""
    log_eps = math.log(eps)
    values, theta_opt = np.empty(horizon + 1), np.empty(horizon + 1)
    for t in range(horizon + 1):

        def objective(theta):
            lm = float(curve.log_value(theta, t))
            return (log_eps - lm) / theta if math.isfinite(lm) else -math.inf

        values[t], theta_opt[t] = scalar_search(objective, grid.values, [objective(th) for th in grid.values])
    return (np.maximum(values, 0.0) if curve.nonnegative else values), theta_opt, values > -math.inf


def scalar_steady_state_backlog_bound(arrivals, curve, eps, grid):
    """Reference: one scalar search of the negated bound, for one eps."""
    log_eps = math.log(eps)

    def negated(theta):
        log_ma = arrivals.log_mgf_increment(theta)
        return (log_eps - _log_steady_state_sum(log_ma, curve, theta)) / theta

    return -float(scalar_search(negated, grid.values, negated(grid.values))[0])


def scalar_backlog_bound(arrivals, curve, eps, grid, t):
    """Reference: one scalar search of the negated finite-horizon bound, a
    log-sum over the lengths 0..t at each theta.  The log-sum takes np.log,
    as ``bounds._log_sum_exp`` does, so the exact equality does not depend
    on which log kernel numpy dispatches."""
    log_eps = math.log(eps)
    ell = np.arange(t + 1, dtype=float)

    def negated(theta):
        log_ma = arrivals.log_mgf_increment(theta)
        if log_ma == math.inf:
            return -math.inf
        log_terms = ell * log_ma + curve.log_value(theta, ell)
        if not np.all(np.isfinite(log_terms)):
            return -math.inf
        top = np.max(log_terms)
        s = float(top + np.log(np.sum(np.exp(log_terms - top))))
        return (log_eps - s) / theta

    return -float(scalar_search(negated, grid.values, [negated(th) for th in grid.values])[0])


def _decay_rate(m, theta):
    """-log(m) / theta where 0 < m < inf, and -inf elsewhere."""
    ok = np.isfinite(m) & (m > 0)
    return np.where(ok, -np.log(np.where(ok, m, 1.0)) / theta, -np.inf)[()]


def closed_form_effcap_series(model, params, theta):
    """Reference: the series lower bound as its own closed form,
    gamma(-theta) + log(1 - e^{theta (d gamma(-theta) - w)}) / theta."""
    gamma = model.effective_capacity(theta)
    arg = theta * (params.d * gamma - params.w)
    ok = arg < 0.0
    return np.where(ok, gamma + np.log(-np.expm1(np.where(ok, arg, -1.0))) / theta, -np.inf)


def closed_form_effcap_blocks(model, params, theta):
    """Reference: the block lower bound as its own closed form,
    gamma(-theta) - log(1 + d e^{theta (d gamma(-theta) - w)}) / (d theta)."""
    gamma = model.effective_capacity(theta)
    ok = gamma > -np.inf
    arg = theta * (params.d * np.where(ok, gamma, 0.0) - params.w)
    with np.errstate(over="ignore"):
        log_term = np.log1p(params.d * np.exp(arg))
    log_term = np.where(np.isfinite(log_term), log_term, np.logaddexp(0.0, arg + math.log(params.d)))
    return np.where(ok, gamma - log_term / (params.d * theta), -np.inf)


def closed_form_effcap_apriori_lower(model, params, theta):
    """Reference: effective capacity of the rate-capped service, from the
    censored MGF (1 - C s e^{(s - 1/C) cap}) / (1 - C s) at s = -theta for
    the exponential server and the peak-capped chain for On-Off service."""
    cap = params.rate_cap
    if isinstance(model, MmooService):
        return MmooService(model.p00, model.p11, min(model.peak, cap)).effective_capacity(theta)
    c, s = model.mean_rate, -theta
    censored = (1.0 - c * s * np.exp((s - 1.0 / c) * cap)) / (1.0 - c * s)
    return _decay_rate(censored, theta)


def effcap_scenarios():
    """The exponential and On-Off effective-capacity sweeps of the analytic
    benchmark: 512 theta, d in {1, 2, 5, 10, 20, 50} ms, w/d in {100, 500} Mbps."""
    servers = {
        "vbr": "service = exponential\nservice_rate_mbps = 1000",
        "mmoo": "service = mmoo\nmmoo_p00 = 0.2\nmmoo_p11 = 0.9\nmmoo_peak_mbps = 1125",
    }
    text = "".join(
        f"[{name}-{ratio}]\n{body}\nkind = effective-capacity\nseed = 1\n"
        f"w_over_d_mbps = {ratio}\nd_ms = 1 2 5 10 20 50\ntheta_points = 512\n"
        for name, body in servers.items()
        for ratio in (100, 500)
    )
    return parse_scenario_text(text)


class TestParams:
    def test_rate_cap_takes_a_numpy_integer_delay(self):
        assert FeedbackParams(w=1.0, d=4).rate_cap == 0.25
        assert FeedbackParams(w=1.0, d=np.int64(4)).rate_cap == 0.25

    def test_theta_grid_logspace(self):
        grid = ThetaGrid.logspace(1e-3, 10.0, 16)
        assert len(grid.values) == 16
        assert grid.values[0] == pytest.approx(1e-3)
        assert grid.values[-1] == pytest.approx(10.0)


class TestSeriesMgfBound:
    def test_huge_window_leaves_plain_path_mgf(self):
        fb = FeedbackParams(w=500.0, d=2)
        for t in (1, 4, 9):
            plain = VBR.mgf_increment(-1.0) ** t
            assert series_curve(VBR, fb).mgf(1.0, t) == pytest.approx(plain, rel=1e-9)

    def test_convergence_boundary_is_infeasible(self):
        theta, d = 1.0, 2
        # window tuned so the geometric ratio is exactly one
        w = d * math.log1p(1.0 * theta) / theta
        assert series_curve(VBR, FeedbackParams(w=w, d=d)).mgf(theta, 5) == math.inf
        assert series_curve(VBR, FeedbackParams(w=w * 0.9, d=d)).mgf(theta, 5) == math.inf
        assert math.isfinite(series_curve(VBR, FeedbackParams(w=w * 1.1, d=d)).mgf(theta, 5))

    def test_dominates_empirical_mgf(self):
        # the series bound is finite only where d gamma(theta) < w: here
        # 2 log(5) / 4 = 0.80 < 1
        fb = FeedbackParams(w=1.0, d=2)
        theta, t, n = 4.0, 4, 100_000
        bound = series_curve(VBR, fb).mgf(theta, t)
        assert 0.0 < bound < 1.0
        rng = np.random.default_rng(7)
        values = equivalent_service_batch(VBR.sample_increments(rng, t, n), fb, t)
        emp = np.exp(-theta * values)
        mean, se = float(emp.mean()), float(emp.std(ddof=1) / math.sqrt(n))
        assert mean <= bound + 3 * se

    def test_curve_object_matches_scalar(self):
        fb = FeedbackParams(w=1.0, d=2)
        curve = series_curve(VBR, fb)
        for t in (0, 3, 7):
            scalar = curve.mgf(0.8, t)
            from_curve = math.exp(curve.log_value(0.8, np.array([t]))[0])
            assert from_curve == pytest.approx(scalar, rel=1e-12)


class TestCurveMgf:
    # log bound(theta, ell) = floor(ell) * theta: the MGF is e^{theta t}
    GROWTH = LogMgfCurve("growth", 1, lambda theta: (-1.0, 0.0), True)

    def test_infinite_from_log_709_on(self):
        assert self.GROWTH.mgf(1.0, 708) == pytest.approx(math.exp(708.0), rel=1e-15)
        assert self.GROWTH.mgf(1.0, 709) == math.inf
        assert self.GROWTH.mgf(2.0, 400) == math.inf

    def test_nan_stays_nan(self):
        curve = LogMgfCurve("nan", 1, lambda theta: (math.nan, 0.0), True)
        assert math.isnan(curve.mgf(1.0, 3))


class TestBlockMgfBounds:
    def test_short_interval_gives_one(self):
        fb = FeedbackParams(w=1.0, d=5)
        assert feedback_mgf_blocks_iid(VBR, fb, 1.0, 4) == 1.0
        assert feedback_mgf_blocks_markov(MMOO, fb, 1.0, 4) == 1.0

    def test_closed_form_shape(self):
        fb = FeedbackParams(w=1.0, d=2)
        theta, t = 0.7, 11
        m = VBR.mgf_increment(-theta)
        expected = (m**2 + 2 * math.exp(-theta)) ** (t // 2)
        assert feedback_mgf_blocks_iid(VBR, fb, theta, t) == pytest.approx(expected, rel=1e-14)

    def test_deterministic_bound_dominates_rate_cap_path(self):
        fb = FeedbackParams(w=0.6, d=3)
        det = DeterministicService(1.0)
        theta, t = 1.3, 12
        bound = feedback_mgf_blocks_iid(det, fb, theta, t)
        blocks = (t // fb.d) * fb.d
        exact_capped = math.exp(-theta * min(1.0, fb.rate_cap) * blocks)
        assert bound >= exact_capped

    def test_decreasing_in_window_size(self):
        theta, t, d = 1.0, 20, 2
        values = [
            feedback_mgf_blocks_iid(VBR, FeedbackParams(w=w, d=d), theta, t)
            for w in (0.2, 0.5, 1.0, 3.0)
        ]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_delay_one_bound_dominates_exact_transform(self):
        # at d = 1 the exact transform of the equivalent service is the
        # censored per-slot MGF to the t-th power; the block bound
        # (M + e^{-theta w})^t must lie above it for every theta
        fb = FeedbackParams(w=0.4, d=1)
        t = 15
        for theta in (0.3, 1.0, 5.0):
            exact = np.exp(VBR.log_censored_mgf(-theta, fb.w)) ** t
            bound = feedback_mgf_blocks_iid(VBR, fb, theta, t)
            assert bound >= exact

    def test_always_on_chain_reduces_to_deterministic(self):
        # an absorbing ON state served at peak rate behaves like a constant
        # server for small theta, where the ON eigenvalue dominates
        always_on = MmooService(p00=0.5, p11=1.0, peak=1.0)
        det = DeterministicService(1.0)
        fb = FeedbackParams(w=0.4, d=2)
        theta, t = 0.1, 14
        markov = feedback_mgf_blocks_markov(always_on, fb, theta, t)
        iid = feedback_mgf_blocks_iid(det, fb, theta, t)
        assert markov == pytest.approx(iid, rel=1e-12)


class TestStatisticalServiceCurve:
    def test_zero_at_time_origin(self):
        fb = FeedbackParams(w=0.5, d=1)
        res = statistical_service_curve(per_slot_curve(VBR, fb), 1e-6, GRID, 10)
        assert res.value[0] == 0.0

    def test_never_worse_than_raw_grid(self):
        fb = FeedbackParams(w=1.0, d=2)
        curve = block_curve(VBR, fb)
        res = statistical_service_curve(curve, 1e-4, GRID, 30)
        ts = np.arange(31)
        best_raw = np.full(31, -np.inf)
        for theta in GRID.values:
            cand = (math.log(1e-4) - curve.log_value(theta, ts)) / theta
            cand[~np.isfinite(cand)] = -np.inf
            best_raw = np.maximum(best_raw, cand)
        assert np.all(res.value >= np.maximum(best_raw, 0.0) - 1e-9)

    def test_theta_argmax_recorded(self):
        fb = FeedbackParams(w=0.5, d=1)
        res = statistical_service_curve(per_slot_curve(VBR, fb), 1e-3, GRID, 20)
        assert res.feasible[5]
        assert GRID.values[0] <= res.theta_opt[5] <= GRID.values[-1]

    def test_all_infeasible_grid_flags_zero(self):
        # the series bound is infeasible at every theta when w is tiny
        fb = FeedbackParams(w=1e-6, d=5)
        res = statistical_service_curve(series_curve(VBR, fb), 1e-6, GRID, 8)
        assert np.all(res.value == 0.0)
        assert not np.any(res.feasible)

    @pytest.mark.parametrize(
        "curve",
        [
            per_slot_curve(VBR, FeedbackParams(w=0.1, d=1)),
            block_curve(VBR, FeedbackParams(w=0.5, d=5)),
            block_curve(MMOO, FeedbackParams(w=1.0, d=10)),
            per_slot_curve(MMOO, FeedbackParams(w=0.1, d=1)),
            series_curve(VBR, FeedbackParams(w=4.0, d=2)),
            per_slot_curve(LEFTOVER, FeedbackParams(w=0.2, d=1)),
            block_curve(LEFTOVER, FeedbackParams(w=1.0, d=5)),
            series_curve(VBR, FeedbackParams(w=1e-6, d=5)),
        ],
        ids=lambda c: f"{c.family}-p{c.period}-{'nonneg' if c.nonnegative else 'signed'}",
    )
    def test_lockstep_inversion_matches_per_t_search(self, curve):
        res = statistical_service_curve(curve, 1e-6, GRID, 60)
        values, theta_opt, feasible = scalar_service_curve(curve, 1e-6, GRID, 60)
        np.testing.assert_array_equal(res.feasible, feasible)
        np.testing.assert_allclose(res.value, values, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(res.theta_opt, theta_opt, rtol=1e-12, atol=0.0)

    def test_signed_service_envelope_is_not_floored(self):
        # leftover increments are signed: P(S_eq(0, t) <= 0) > 0 for every
        # t, so zero is no envelope; at t = 0 the best one is log(eps) / theta_max
        fb = FeedbackParams(w=0.2, d=1)
        res = statistical_service_curve(per_slot_curve(LEFTOVER, fb), 1e-2, GRID, 10)
        assert res.value[0] == pytest.approx(math.log(1e-2) / GRID.values[-1], rel=1e-9)
        assert np.all(res.value[:5] < 0.0)

    def test_signed_service_envelope_violation_frequency(self):
        # leftover server at d = 1: 1000 Mbps minus exponential 400 Mbps
        # cross traffic, w/d = 200 Mbps; the floored envelope of earlier
        # versions was violated with frequency 0.037 at t = 10
        eps, n, horizon = 1e-2, 40_000, 30
        fb = FeedbackParams(w=0.2, d=1)
        res = statistical_service_curve(per_slot_curve(LEFTOVER, fb), eps, GRID, horizon)
        assert np.any(res.value < 0.0)
        paths = LEFTOVER.sample_increments(np.random.default_rng(41), horizon, n)
        budget = eps + 3.0 * math.sqrt(eps / n)
        for t in range(horizon + 1):
            values = equivalent_service_batch(paths, fb, t)
            violation = float(np.mean(values <= res.value[t]))
            assert violation <= budget, (t, res.value[t], violation)


class TestEffectiveCapacityBounds:
    def test_series_huge_window_approaches_gamma(self):
        fb = FeedbackParams(w=200.0, d=2)
        assert effcap_lower_series(VBR, fb, 1.0) == pytest.approx(
            VBR.effective_capacity(1.0), abs=1e-12
        )

    def test_series_infeasible_below_rate_cap(self):
        fb = FeedbackParams(w=0.1, d=1)
        # gamma(1) = ln 2 > 0.1 = w/d, so the series route is infeasible
        assert effcap_lower_series(VBR, fb, 1.0) == -math.inf

    def test_series_finite_value_below_gamma(self):
        fb = FeedbackParams(w=0.1, d=1)
        theta = 40.0  # gamma(40) = log(41)/40 = 0.0928 < 0.1
        value = effcap_lower_series(VBR, fb, theta)
        assert math.isfinite(value)
        assert value < VBR.effective_capacity(theta)

    def test_blocks_huge_window_approaches_gamma(self):
        fb = FeedbackParams(w=200.0, d=3)
        assert effcap_lower_blocks(VBR, fb, 1.0) == pytest.approx(
            VBR.effective_capacity(1.0), abs=1e-12
        )

    def test_blocks_matches_large_t_limit(self):
        fb = FeedbackParams(w=1.0, d=2)
        theta, t = 1.0, 10_000
        closed = effcap_lower_blocks(VBR, fb, theta)
        numeric = -math.log(feedback_mgf_blocks_iid(VBR, fb, theta, t)) / (theta * t)
        assert closed == pytest.approx(numeric, abs=1e-6)

    def test_blocks_beats_series_at_crossover(self):
        # frozen regression: with d=5 and rate cap 0.1 the block route wins
        # at theta = 40 where both are feasible
        fb = FeedbackParams(w=0.5, d=5)
        series = effcap_lower_series(VBR, fb, 40.0)
        blocks = effcap_lower_blocks(VBR, fb, 40.0)
        assert math.isfinite(series)
        assert blocks > series

    def test_apriori_deterministic_collapses(self):
        det = DeterministicService(1.0)
        lo, hi = effcap_apriori(det, FeedbackParams(w=0.5, d=5), 3.0)
        assert lo == pytest.approx(min(1.0, 0.1), abs=1e-12)
        assert hi == pytest.approx(min(1.0, 0.1), abs=1e-12)

    def test_apriori_strictly_separated_for_random_service(self):
        for theta in (0.5, 2.0, 20.0):
            lo, hi = effcap_apriori(VBR, FeedbackParams(w=0.3, d=2), theta)
            assert lo < hi

    def test_best_lower_provenance_at_delay_one(self):
        fb = FeedbackParams(w=0.1, d=1)
        res = best_effcap_lower(VBR, fb, GRID)
        idx = int(np.argmin(np.abs(GRID.values - 1.0)))
        assert res.provenance[idx] == "apriori"

    def test_best_lower_works_without_an_apriori_route(self):
        # general two-state models have no defined rate-capped composition;
        # the block route must carry the result alone
        from winflow.models import DeterministicService, MarkovModulated2Service

        general = MarkovModulated2Service(
            p00=0.3, p11=0.9, law0=DeterministicService(0.2), law1=DeterministicService(1.4)
        )
        res = best_effcap_lower(general, FeedbackParams(w=0.5, d=2), GRID)
        assert np.any(np.isfinite(res.value))
        assert set(res.provenance) <= {"blocks", "none"}


class TestEffcapIsTheCurveRate:
    """Each effective-capacity lower bound is the rate of its MGF curve; it
    stays bit-identical to the family's closed form, and so does the
    family that wins each theta."""

    @pytest.mark.parametrize("sc", effcap_scenarios(), ids=lambda sc: sc.name)
    def test_rates_equal_closed_forms_on_the_analytic_grid(self, sc):
        model = sc.service
        markov = isinstance(model, MmooService)
        grid = ThetaGrid.logspace(sc.theta_min, sc.theta_max, sc.theta_points)
        thetas = grid.values
        for w, d in zip(sc.w_mb, sc.d_slots):
            fb = FeedbackParams(w=w, d=d)
            candidates = {"blocks": closed_form_effcap_blocks(model, fb, thetas)}
            if not markov:
                candidates["series"] = closed_form_effcap_series(model, fb, thetas)
            candidates["apriori"] = closed_form_effcap_apriori_lower(model, fb, thetas)
            assert np.array_equal(effcap_lower_blocks(model, fb, thetas), candidates["blocks"])
            assert np.array_equal(block_curve(model, fb).rates(thetas)[0], candidates["blocks"])
            if not markov:
                assert np.array_equal(effcap_lower_series(model, fb, thetas), candidates["series"])
            assert np.array_equal(effcap_apriori(model, fb, thetas)[0], candidates["apriori"])
            assert np.array_equal(per_slot_curve(model, fb).rates(thetas)[0], candidates["apriori"])
            stacked = np.vstack(list(candidates.values()))
            pick = np.argmax(stacked, axis=0)
            names = list(candidates)
            provenance = [names[i] for i in pick]
            best = best_effcap_lower(model, fb, grid)
            assert best.provenance == provenance
            assert np.array_equal(best.value, stacked[pick, np.arange(len(thetas))])

    @pytest.mark.parametrize(
        "curve",
        [
            series_curve(VBR, FeedbackParams(w=2.0, d=1)),
            series_curve(VBR, FeedbackParams(w=0.1, d=1)),
            block_curve(VBR, FeedbackParams(w=0.5, d=5)),
            block_curve(MMOO, FeedbackParams(w=1.0, d=10)),
            per_slot_curve(VBR, FeedbackParams(w=0.1, d=1)),
            per_slot_curve(MMOO, FeedbackParams(w=0.1, d=1)),
            per_slot_curve(LEFTOVER, FeedbackParams(w=0.2, d=1)),
        ],
        ids=lambda c: f"{c.family}-p{c.period}",
    )
    def test_log_rate_is_minus_period_theta_rate(self, curve):
        rate, _ = curve.rates(GRID.values)
        log_rate, log_offset = curve.coefficients(GRID.values)
        assert np.array_equal(log_rate, -curve.period * GRID.values * rate)
        assert np.array_equal(curve.log_value(GRID.values, 7 * curve.period), 7 * log_rate + log_offset)


class TestDeterministicServerAtLargeTheta:
    """A constant server's e^{-theta c} leaves the float range at the top of
    the theta grid; its bounds stay finite there."""

    def test_apriori_lower_is_the_rate_cap_on_the_whole_grid(self):
        lo, hi = effcap_apriori(DeterministicService(1.0), FeedbackParams(w=1.0, d=1), GRID.values)
        assert GRID.values[-1] == 1e3
        assert np.allclose(lo, 1.0, rtol=1e-9, atol=0.0)
        assert np.array_equal(hi, np.ones(len(GRID.values)))

    def test_blocks_lower_is_finite_on_the_grid(self):
        server, fb = DeterministicService(1.0), FeedbackParams(w=1.0, d=10)
        assert np.all(np.isfinite(effcap_lower_blocks(server, fb, GRID.values)))
        # gamma - log(1 + d e^{theta (d gamma - w)}) / (d theta), with
        # d e^900 beyond the float range
        expected = 1.0 - (900.0 + math.log(10.0)) / 1000.0
        assert effcap_lower_blocks(server, fb, 100.0) == pytest.approx(expected, rel=1e-12)

    def test_per_slot_curve_keeps_the_top_of_the_grid(self):
        # e^{-1000} underflows, but the curve's rate is the rate cap 1
        server, fb = DeterministicService(1.0), FeedbackParams(w=1.0, d=1)
        family = per_slot_curve(server, fb)
        assert family.log_value(1e3, 10) == -10_000.0
        assert np.all(np.isfinite(family.log_value(GRID.values, 10)))
        eps = 1e-6
        curve = statistical_service_curve(family, eps, GRID, 50)
        path = SamplePath(np.ones(50))
        exact = np.array([equivalent_service_dp(path, fb, 0, t) for t in range(51)])
        assert np.all(curve.value <= exact + 1e-12)
        # t + log(eps) / theta is best at the top grid point
        ts = np.arange(1, 51)
        assert np.allclose(curve.value[1:], ts + math.log(eps) / 1e3, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("d", [1, 2, 5, 10])
    def test_envelope_below_exact_equivalent_service(self, d):
        # 1000 Mbps server at w/d = 500 Mbps
        server, fb = DeterministicService(1.0), FeedbackParams(w=0.5 * d, d=d)
        family = per_slot_curve(server, fb) if d == 1 else block_curve(server, fb)
        assert np.all(np.isfinite(family.log_value(GRID.values, 4 * d)))
        curve = statistical_service_curve(family, 1e-6, GRID, 100)
        path = SamplePath(np.ones(100))
        exact = np.array([equivalent_service_dp(path, fb, 0, t) for t in range(101)])
        assert np.all(curve.value <= exact + 1e-12)


class TestLeftoverAtLargeTheta:
    """With a constant base C and exponential cross traffic of mean L,
    M(-theta) = e^{-theta C} / (1 - L theta) underflows below theta = 1/L;
    the effective capacity and the bounds built on it stay finite there."""

    MODEL = LeftoverService(DeterministicService(1.0), ExponentialArrivals(0.001))
    THETA = 774.0
    GAMMA = 1.0 + math.log1p(-0.774) / 774.0  # C + log(1 - L theta) / theta, about 0.998
    FB = FeedbackParams(w=1.0, d=2)

    def test_effective_capacity_in_the_log_domain(self):
        assert self.MODEL.effective_capacity(self.THETA) == pytest.approx(self.GAMMA, rel=1e-12)
        assert self.GAMMA == pytest.approx(0.998, abs=1e-3)
        # from theta = 1/L on the cross MGF diverges
        assert np.array_equal(self.MODEL.effective_capacity(np.array([1e3, 2e3])), [-math.inf, -math.inf])

    def test_apriori_lower_not_above_upper(self):
        lower, upper = effcap_apriori(self.MODEL, self.FB, self.THETA)
        assert lower == 0.5
        assert upper == 0.5  # min(gamma, w / d)

    def test_blocks_lower_is_finite(self):
        # d e^{theta (d gamma - w)} overflows: gamma - (theta (d gamma - w) + log d) / (d theta)
        expected = self.GAMMA - (self.THETA * (2.0 * self.GAMMA - 1.0) + math.log(2.0)) / (
            2.0 * self.THETA
        )
        value = effcap_lower_blocks(self.MODEL, self.FB, self.THETA)
        assert value == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(0.5 - math.log(2.0) / 1548.0, rel=1e-9)

    def test_block_curve_keeps_the_theta(self):
        # floor(10 / d) log(M^d + d e^{-theta w}), added in the log domain
        log_rate = np.logaddexp(-2.0 * self.THETA * self.GAMMA, math.log(2.0) - self.THETA)
        value = block_curve(self.MODEL, self.FB).log_value(self.THETA, 10)
        assert value == pytest.approx(5.0 * log_rate, rel=1e-12)

    def test_per_slot_rate_in_the_log_domain(self):
        # cross mean 1e-4 and w = 0.9 at d = 1: the censored MGF
        # e^{-900} + e^{-1900}/0.9 underflows, its log -900 does not
        model = LeftoverService(DeterministicService(1.0), ExponentialArrivals(1e-4))
        fb = FeedbackParams(w=0.9, d=1)
        assert effcap_apriori(model, fb, 1e3) == (0.9, 0.9)
        assert per_slot_curve(model, fb).log_value(1e3, 10) == pytest.approx(-9000.0, rel=1e-15)

    def test_finite_values_unchanged(self):
        # C + log(1 - L theta) / theta below theta = 1/L, -inf from there on;
        # the product form -log(e^{-theta C} / (1 - L theta)) / theta is
        # itself off by up to 1.5e-12 relative, so it is not the reference
        for model in (LEFTOVER, self.MODEL):
            C, L = model.base.rate, model.cross.mean_rate
            thetas = GRID.values
            below = thetas < 1.0 / L
            gamma = model.effective_capacity(thetas)
            expected = C + np.log1p(-L * thetas[below]) / thetas[below]
            assert np.all(np.abs(gamma[below] - expected) <= 1e-15 * np.abs(expected))
            assert np.all(gamma[~below] == -math.inf)


class TestTwoStateAtLargeTheta:
    """Both state MGFs of a two-state chain underflow at large theta; the
    log eigenvalues are taken from the scaled state MGFs and stay exact.
    The reference values come from a 50-digit evaluation of the quadratic."""

    MODEL = MarkovModulated2Service(0.3, 0.9, DeterministicService(1.0), DeterministicService(2.0))
    FB = FeedbackParams(w=1.0, d=2)

    def test_effective_capacity_is_finite_and_exact(self):
        assert self.MODEL.effective_capacity(1000.0) == pytest.approx(1.0012039728043259, rel=1e-14)
        # tr^2 underflows in the unscaled discriminant here
        assert self.MODEL.effective_capacity(700.0) == pytest.approx(1.0017199611490371, rel=1e-14)

    def test_block_bound_keeps_the_theta(self):
        assert effcap_lower_blocks(self.MODEL, self.FB, 1000.0) == pytest.approx(
            0.4996534264097201, rel=1e-14
        )
        value = block_curve(self.MODEL, self.FB).log_value(1000.0, 10)
        assert value == pytest.approx(-4996.534264097201, rel=1e-14)


class TestCapacityFromTheLogMgf:
    """Capacities read off the log-MGF on the analytic benchmark's grids:
    log1p(C theta) / theta bit for bit for the exponential server, and for
    On-Off service -log(plus) / theta within 2e-12 of a 50-digit evaluation
    of the quadratic's root (the float quadratic cancels; the model's root
    does not)."""

    @pytest.mark.parametrize("sc", effcap_scenarios()[::2], ids=lambda sc: sc.name)
    def test_closed_forms_on_the_analytic_grid(self, sc):
        model = sc.service
        thetas = ThetaGrid.logspace(sc.theta_min, sc.theta_max, sc.theta_points).values
        if isinstance(model, MmooService):
            expected = np.array([on_off_capacity_reference(model, th) for th in thetas])
            assert np.all(np.abs(model.effective_capacity(thetas) - expected) <= 2e-12 * expected)
        else:
            expected = np.log1p(model.mean_rate * thetas) / thetas
            assert np.array_equal(model.effective_capacity(thetas), expected)


class TestServiceCurveBlocks:
    """Service curves are refined in blocks of t; no t depends on another."""

    FAMILY = block_curve(VBR, FeedbackParams(w=1.0, d=2))

    def test_blocking_leaves_every_t_unchanged(self, monkeypatch):
        step = bounds._CURVE_BLOCK_ENTRIES // len(GRID.values)
        horizon = 2 * step + 7
        long = statistical_service_curve(self.FAMILY, 1e-6, GRID, horizon)
        short = statistical_service_curve(self.FAMILY, 1e-6, GRID, step + 3)
        monkeypatch.setattr(bounds, "_CURVE_BLOCK_ENTRIES", 1 << 40)
        whole = statistical_service_curve(self.FAMILY, 1e-6, GRID, horizon)
        for name in ("x", "value", "theta_opt", "feasible"):
            assert np.array_equal(getattr(long, name), getattr(whole, name), equal_nan=name == "theta_opt")
            assert np.array_equal(
                getattr(long, name)[: step + 4], getattr(short, name), equal_nan=name == "theta_opt"
            )
        assert long.feasible[1:].all()

    def test_working_memory_is_bounded(self):
        # unblocked, each (grid x horizon) matrix alone would take 49 MiB
        horizon = 100_000
        tracemalloc.start()
        try:
            curve = statistical_service_curve(self.FAMILY, 1e-6, GRID, horizon)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(curve.value) == horizon + 1
        assert peak < 32 * 2**20


class TestBacklogBound:
    def test_monotone_in_arrival_rate(self):
        fb = FeedbackParams(w=0.1, d=1)
        curve = per_slot_curve(VBR, fb)
        bounds = [
            backlog_bound(ExponentialArrivals(lam), curve, 1e-3, GRID, 300)
            for lam in (0.01, 0.03, 0.05, 0.07, 0.09)
        ]
        assert all(b >= a for a, b in zip(bounds, bounds[1:]))

    def test_light_load_is_small_but_positive(self):
        fb = FeedbackParams(w=0.1, d=1)
        value = backlog_bound(ExponentialArrivals(1e-4), per_slot_curve(VBR, fb), 1e-3, GRID, 200)
        assert 0.0 < value < 0.1

    def test_steady_state_converges_below_saturation(self):
        fb = FeedbackParams(w=0.1, d=1)
        value = steady_state_backlog_bound(
            ExponentialArrivals(0.05), per_slot_curve(VBR, fb), 1e-3, GRID
        )
        assert 0.0 < value < 5.0

    def test_unbounded_at_and_above_saturation(self):
        fb = FeedbackParams(w=0.1, d=1)
        curve = per_slot_curve(VBR, fb)
        # the mean of the capped service is 1 - exp(-0.1) = 0.0952 Mb per slot
        for lam in (0.0952, 0.2):
            assert (
                steady_state_backlog_bound(ExponentialArrivals(lam), curve, 1e-3, GRID)
                == math.inf
            )

    @pytest.mark.parametrize(
        "curve, light, heavy",
        [
            # heavy loads sit at 90 % of each family's saturation rate
            (per_slot_curve(VBR, FeedbackParams(w=0.1, d=1)), 0.0095, 0.0857),
            (block_curve(VBR, FeedbackParams(w=0.5, d=5)), 0.0049, 0.0443),
            (block_curve(MMOO, FeedbackParams(w=0.5, d=5)), 0.0049, 0.0442),
            (series_curve(VBR, FeedbackParams(w=2.0, d=1)), 0.0366, 0.3291),
        ],
        ids=["per-slot-d1", "block-iid-d5", "block-markov-d5", "series-d1"],
    )
    def test_closed_form_matches_finite_sum_at_large_t(self, curve, light, heavy):
        for lam in (light, heavy):
            arrivals = ExponentialArrivals(lam)
            closed = steady_state_backlog_bound(arrivals, curve, 1e-3, GRID)
            finite = backlog_bound(arrivals, curve, 1e-3, GRID, 1 << 16)
            assert math.isfinite(closed)
            assert closed == pytest.approx(finite, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize(
        "curve, saturation",
        [
            (per_slot_curve(VBR, FeedbackParams(w=0.1, d=1)), 0.0952),
            (block_curve(VBR, FeedbackParams(w=0.5, d=5)), 0.0492),
            (block_curve(MMOO, FeedbackParams(w=0.5, d=5)), 0.0491),
            (series_curve(VBR, FeedbackParams(w=2.0, d=1)), 0.3657),
        ],
        ids=["per-slot-d1", "block-iid-d5", "block-markov-d5", "series-d1"],
    )
    def test_equals_scalar_reference(self, curve, saturation):
        # light, heavy and unstable loads
        for lam in (0.1 * saturation, 0.9 * saturation, 1.5 * saturation):
            arrivals = ExponentialArrivals(lam)
            for t in (1, 300, 4096):
                value = backlog_bound(arrivals, curve, 1e-3, GRID, t)
                assert value == scalar_backlog_bound(arrivals, curve, 1e-3, GRID, t), (lam, t)

    def test_divergence_condition_is_exact(self):
        fb = FeedbackParams(w=0.1, d=1)
        curve = per_slot_curve(VBR, fb)
        capped_mean = -math.expm1(-0.1)  # E[min(c, 0.1)] for unit-mean service
        below = ExponentialArrivals(0.999 * capped_mean)
        assert math.isfinite(steady_state_backlog_bound(below, curve, 1e-3, GRID))
        at = ExponentialArrivals(capped_mean)
        assert steady_state_backlog_bound(at, curve, 1e-3, GRID) == math.inf

    @pytest.mark.parametrize(
        "curve, lam",
        [
            (per_slot_curve(VBR, FeedbackParams(w=0.1, d=1)), 0.07),
            (block_curve(MMOO, FeedbackParams(w=0.5, d=5)), 0.03),
            (series_curve(VBR, FeedbackParams(w=2.0, d=1)), 0.2),
            # above the capped mean rate 0.0952: every grid theta is infeasible
            (per_slot_curve(VBR, FeedbackParams(w=0.1, d=1)), 0.2),
        ],
        ids=["per-slot-stable", "block-markov-stable", "series-stable", "per-slot-unstable"],
    )
    def test_epsilon_array_equals_scalar_calls_exactly(self, curve, lam):
        arrivals = ExponentialArrivals(lam)
        eps = np.array([1e-3, 0.5, 1e-9, 1e-6, 1e-3, 0.999])
        values = steady_state_backlog_bound(arrivals, curve, eps, GRID)
        scalars = [steady_state_backlog_bound(arrivals, curve, e, GRID) for e in eps.tolist()]
        reference = [scalar_steady_state_backlog_bound(arrivals, curve, e, GRID) for e in eps]
        assert all(type(v) is float for v in scalars)
        assert values.shape == eps.shape
        assert values.tolist() == scalars == reference
        if lam == 0.2 and curve.family == "per-slot":
            assert scalars == [math.inf] * len(eps)
        else:
            assert all(math.isfinite(v) for v in scalars)
        grid = steady_state_backlog_bound(arrivals, curve, eps.reshape(2, 3), GRID)
        assert grid.tolist() == [scalars[:3], scalars[3:]]

    @pytest.mark.parametrize(
        "curve, saturation",
        [
            (per_slot_curve(VBR, FeedbackParams(w=0.1, d=1)), 0.0952),
            (block_curve(VBR, FeedbackParams(w=0.5, d=5)), 0.0492),
            (block_curve(MMOO, FeedbackParams(w=0.5, d=5)), 0.0491),
            (series_curve(VBR, FeedbackParams(w=2.0, d=1)), 0.3657),
        ],
        ids=["per-slot-d1", "block-iid-d5", "block-markov-d5", "series-d1"],
    )
    def test_arrival_sequence_equals_single_model_calls_exactly(self, curve, saturation):
        # light, heavy, unstable and heavy again, then the same rates reversed
        loads = [0.1, 0.9, 1.5, 0.9, 0.5]
        lams = [f * saturation for f in loads + loads[::-1]]
        arrivals = [ExponentialArrivals(lam) for lam in lams]
        eps = np.array([[1e-3, 0.5, 1e-9], [1e-6, 1e-3, 0.999]])
        values = steady_state_backlog_bound(arrivals, curve, eps, GRID)
        assert values.shape == (len(arrivals), 2, 3)
        for load, model, rows in zip(loads + loads[::-1], arrivals, values):
            single = steady_state_backlog_bound(model, curve, eps, GRID)
            reference = [
                [scalar_steady_state_backlog_bound(model, curve, e, GRID) for e in row]
                for row in eps.tolist()
            ]
            assert rows.tolist() == single.tolist() == reference, load
            if load > 1.0:
                assert np.all(rows == math.inf)
            else:
                assert np.all(np.isfinite(rows))
        # a tuple is a sequence too, and a scalar eps gives one bound per model
        by_model = steady_state_backlog_bound(tuple(arrivals), curve, 1e-3, GRID)
        assert by_model.tolist() == values[:, 0, 0].tolist()

    def test_epsilon_sensitivity_is_mild(self):
        fb = FeedbackParams(w=0.1, d=1)
        curve = per_slot_curve(VBR, fb)
        arrivals = ExponentialArrivals(0.07)
        tight = steady_state_backlog_bound(arrivals, curve, 1e-3, GRID)
        loose = steady_state_backlog_bound(arrivals, curve, 1e-9, GRID)
        assert loose > tight
        assert loose / tight < 3.5

    @pytest.mark.parametrize("d", [1, 2, 7, 1000])
    def test_phase_sum_closed_form_equals_the_explicit_sum(self, d):
        # log sum_{j<d} M_A^j term by term, at log M_A = 0 (idle arrivals),
        # near 0 and large; a period of one adds exactly 0 in both
        curve = block_curve(VBR, FeedbackParams(w=0.5 * d, d=d))
        theta, log_ma = np.array([[2.0], [4.0], [8.0]]), np.array([[0.0, 1e-9, 1e-3, 0.05]])
        log_rate, log_offset = curve.coefficients(theta)
        phase = np.log(np.sum(np.exp(np.multiply.outer(log_ma, np.arange(d))), axis=-1))
        expected = phase + log_offset - np.log(-np.expm1(d * log_ma + log_rate))
        got = _log_steady_state_sum(log_ma, curve, theta)
        assert np.all(np.isfinite(expected)) and got == pytest.approx(expected, rel=1e-12)
        assert d > 1 or got.tolist() == expected.tolist()

    def test_steady_state_memory_does_not_grow_with_the_period(self):
        # the phase sum over j < d is taken in closed form, so memory does not
        # grow with the block curve's period d
        curve = block_curve(VBR, FeedbackParams(w=0.5e5, d=10**5))
        arrivals = [ExponentialArrivals(lam) for lam in (0.01, 0.05, 0.2)]
        tracemalloc.start()
        try:
            values = steady_state_backlog_bound(arrivals, curve, np.array([1e-3, 1e-6]), GRID)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(values)) and peak < 2**20


class TestGoldenSection:
    def test_finds_quadratic_maximum(self):
        x, fx = golden_section_max(lambda x: -(x - 2.3) ** 2 + 4.0, 0.0, 10.0, rel_tol=1e-6)
        assert x == pytest.approx(2.3, abs=1e-4)
        assert fx == pytest.approx(4.0, abs=1e-8)

    def test_handles_infeasible_plateau(self):
        def fn(x):
            return -math.inf if x < 1.0 else -(x - 1.5) ** 2

        x, fx = golden_section_max(fn, 0.5, 3.0)
        assert fx == pytest.approx(0.0, abs=1e-4)
