"""Closed-loop simulator tests.

The per-slot recursion is validated structurally (window law, conservation,
causality), against an independent unthrottled queue reference, against
hand-computed deterministic traces, and against the dioid guarantee that
departures dominate arrivals convolved with the exact equivalent service.
"""

import math
import tracemalloc

import numpy as np
import pytest

import winflow.simulator as simulator
from winflow.algebra import BivariateFunction, convolve
from winflow.bounds import FeedbackParams, ThetaGrid, backlog_bound, per_slot_curve
from winflow.models import (
    DeterministicService,
    ExponentialArrivals,
    ExponentialVbrService,
    LeftoverService,
    MmooService,
)
from winflow.oracle import SamplePath, equivalent_service_batch, equivalent_service_closure
from winflow.scenarios import canned_scenarios
from winflow.simulator import (
    SimConfig,
    _departures,
    backlog_quantile,
    quantile_estimable,
    run_flow_control,
)
from winflow.verify import MMOO_REFERENCE, exact_backlog_tail


def small_config(**overrides):
    base = dict(
        seed=42,
        total_slots=2000,
        warmup_slots=100,
        arrivals=ExponentialArrivals(0.05),
        service=ExponentialVbrService(1.0),
        feedback=FeedbackParams(w=0.1, d=1),
        replications=1,
    )
    base.update(overrides)
    return SimConfig(**base)


def replay_increments(config, replication=0):
    """Redraw the exact arrival and service increments a run consumed."""
    from winflow.simulator import _replication_rngs

    arrival_rng, service_rng = _replication_rngs(config.seed, replication)
    a = config.arrivals.sample_increments(arrival_rng, config.total_slots, 1)[0]
    c = config.service.sample_increments(service_rng, config.total_slots, 1)[0]
    return a, c


class TestStructuralInvariants:
    @pytest.mark.parametrize("d,w", [(1, 0.1), (3, 0.5), (10, 2.0)])
    def test_window_law_holds_every_slot(self, d, w):
        config = small_config(feedback=FeedbackParams(w=w, d=d))
        run = run_flow_control(config)
        a, _ = replay_increments(config)
        A = np.concatenate(([0.0], np.cumsum(a)))
        T = config.total_slots
        admitted = A[run.checkpoints] - run.backlog[run.checkpoints] + run.queue[run.checkpoints]
        departed = admitted - run.queue[run.checkpoints]
        # window law A'(0,t) = min(A(0,t), D(0,t-d) + w) at full resolution
        full_backlog = run.backlog
        full_queue = run.queue
        full_admitted = A - full_backlog + full_queue
        full_departed = full_admitted - full_queue
        for t in range(1, T + 1):
            ref = full_departed[t - d] if t - d > 0 else 0.0
            assert full_admitted[t] == pytest.approx(min(A[t], ref + w), abs=1e-9)
        assert np.allclose(departed, admitted - run.queue[run.checkpoints])

    def test_conservation_and_causality(self):
        run = run_flow_control(small_config())
        a, _ = replay_increments(small_config())
        A = np.concatenate(([0.0], np.cumsum(a)))
        admitted = A - run.backlog + run.queue
        departed = admitted - run.queue
        assert np.all(run.backlog >= -1e-12)
        assert np.all(run.queue >= -1e-12)
        assert np.all(admitted <= A + 1e-9)
        assert np.all(departed <= admitted + 1e-12)
        assert np.all(np.diff(departed) >= -1e-9)

    def test_network_queue_never_exceeds_window(self):
        for d, w in [(1, 0.1), (5, 0.7)]:
            run = run_flow_control(small_config(feedback=FeedbackParams(w=w, d=d)))
            assert np.max(run.queue) <= w + 1e-9

    def test_checkpoint_values_match_cumulative_processes(self):
        # D = A - backlog and A' = D + queue, with A from the replayed
        # arrivals, at every checkpoint; the last one carries the throughput
        config = small_config(total_slots=300, warmup_slots=10)
        run = run_flow_control(config)
        a, _ = replay_increments(config)
        A = np.concatenate(([0.0], np.cumsum(a)))
        arrivals, departed, _, _ = reference_loop(config)
        k = run.checkpoints
        assert k[0] == 0 and k[-1] == config.total_slots
        assert np.array_equal(A, arrivals)
        assert np.allclose(A[k] - run.backlog[k], departed[k], rtol=0.0, atol=1e-12)
        admitted = A - run.backlog + run.queue
        assert np.allclose(admitted[k], departed[k] + run.queue[k], rtol=0.0, atol=1e-12)
        assert np.all(admitted <= A + 1e-12)
        assert run.throughput == pytest.approx(departed[-1] / config.total_slots, abs=1e-12)
        assert np.array_equal(run.tail, run.backlog[config.warmup_slots + 1 :])


class TestAgainstReferences:
    def test_huge_window_matches_unthrottled_queue(self):
        config = small_config(
            feedback=FeedbackParams(w=1e9, d=1),
            arrivals=ExponentialArrivals(0.8),
            total_slots=5000,
            warmup_slots=10,
        )
        run = run_flow_control(config)
        a, c = replay_increments(config)
        q = 0.0
        for k in range(config.total_slots):
            q = max(q + a[k] - max(c[k], 0.0), 0.0)
        assert run.backlog[-1] == pytest.approx(q, abs=1e-9)
        assert run.queue[-1] == pytest.approx(q, abs=1e-9)

    def test_deterministic_lossless_trace(self):
        # constant arrivals below the feedback ceiling pass untouched
        config = small_config(
            arrivals=DeterministicService(0.09),
            service=DeterministicService(1.0),
            feedback=FeedbackParams(w=1.0, d=10),
            total_slots=1000,
            warmup_slots=10,
        )
        run = run_flow_control(config)
        assert run.throughput == pytest.approx(0.09, abs=1e-12)
        assert np.max(run.backlog) <= 1.0 + 1e-9

    def test_hand_computed_first_slots(self):
        # a=10 each slot, c=1, w=1, d=10: one window of traffic departs
        # immediately, the next only after the feedback returns
        config = small_config(
            arrivals=DeterministicService(10.0),
            service=DeterministicService(1.0),
            feedback=FeedbackParams(w=1.0, d=10),
            total_slots=40,
            warmup_slots=1,
        )
        run = run_flow_control(config)
        A = 10.0 * run.checkpoints
        admitted = A - run.backlog + run.queue
        departed = admitted - run.queue
        assert departed[1] == pytest.approx(1.0)
        assert departed[10] == pytest.approx(1.0)
        assert departed[11] == pytest.approx(2.0)
        assert departed[20] == pytest.approx(2.0)
        assert departed[21] == pytest.approx(3.0)

    @pytest.mark.parametrize(
        "service",
        [
            ExponentialVbrService(1.0),
            MMOO_REFERENCE,
            LeftoverService(DeterministicService(1.0), ExponentialArrivals(0.4)),
        ],
        ids=["exponential", "mmoo", "leftover"],
    )
    def test_departures_dominate_equivalent_service_guarantee(self, service):
        # dynamic-server property: D(0,t) >= (A o S_eq)(0,t) for the exact
        # equivalent service built from the realized service path
        T = 32
        config = small_config(
            service=service,
            arrivals=ExponentialArrivals(0.5),
            feedback=FeedbackParams(w=0.8, d=3),
            total_slots=T,
            warmup_slots=1,
        )
        run = run_flow_control(config)
        a, c = replay_increments(config)
        A = BivariateFunction.from_increments(a, check=False)
        # the physical queue serves the clipped rate; its equivalent service
        # is what the loop guarantees
        s_eq = equivalent_service_closure(
            SamplePath(np.maximum(c, 0.0)), config.feedback
        )
        floor = convolve(A, s_eq)
        arrivals_cum = np.concatenate(([0.0], np.cumsum(a)))
        departed = arrivals_cum - run.backlog
        for t in range(T + 1):
            assert departed[t] >= floor.value(0, t) - 1e-9

    def test_exact_server_identity_for_admitted_traffic(self):
        # with admission before service, departures equal the min-plus
        # convolution of admitted traffic with the clipped service path
        config = small_config(total_slots=64, warmup_slots=1)
        run = run_flow_control(config)
        a, c = replay_increments(config)
        A = np.concatenate(([0.0], np.cumsum(a)))
        admitted_cum = A - run.backlog + run.queue
        admitted = BivariateFunction.from_increments(np.diff(admitted_cum))
        S = BivariateFunction.from_increments(np.maximum(c, 0.0))
        exact = convolve(admitted, S)
        departed = admitted_cum - run.queue
        for t in range(65):
            assert departed[t] == pytest.approx(exact.value(0, t), abs=1e-9)


def reference_loop(config, replication=0):
    """The closed loop stepped one slot at a time, event by event."""
    a, c = replay_increments(config, replication)
    T = config.total_slots
    w = config.feedback.w
    d = config.feedback.d
    arrivals_cum = np.concatenate(([0.0], np.cumsum(a)))
    drain = np.maximum(c, 0.0)
    admitted = np.empty(T + 1)
    departed = np.empty(T + 1)
    admitted[0] = 0.0
    departed[0] = 0.0
    ap = 0.0
    q = 0.0
    for k in range(T):
        j = k + 1 - d
        ref = departed[j] if j > 0 else 0.0
        ap_new = arrivals_cum[k + 1]
        cap = ref + w
        if cap < ap_new:
            ap_new = cap
        q += ap_new - ap - drain[k]
        if q < 0.0:
            q = 0.0
        ap = ap_new
        admitted[k + 1] = ap
        departed[k + 1] = ap - q
    return arrivals_cum, departed, admitted - departed, arrivals_cum - departed


LEFTOVER = LeftoverService(DeterministicService(1.0), ExponentialArrivals(0.4))


class SparseDrain:
    """Service of 20 Mb in a slot with probability 0.05, else nothing."""

    def sample_increments(self, rng, t, n):
        return np.where(rng.random((n, t)) < 0.05, 20.0, 0.0)


class SparseThenExponential:
    """Sparse drain up to slot ``switch``, Exp(1) service after it."""

    def __init__(self, switch):
        self.switch = switch

    def sample_increments(self, rng, t, n):
        paths = ExponentialVbrService(1.0).sample_increments(rng, t, n).copy()
        paths[:, : self.switch] = SparseDrain().sample_increments(rng, self.switch, n)
        return paths


# regimes whose unit-step paths defeat the column pass; the load against
# the window rate w/d is 0.8 for the drain-bound two and 5 for overload
STRESS = {
    "sticky": (MmooService(p00=0.99, p11=0.99, peak=2.0), 0.375),
    "sparse": (SparseDrain(), 0.375),
    "overload": (ExponentialVbrService(1.0), 0.06),
}


class TestReferenceLoop:
    """The chunked departure solver against the per-slot loop it replaces, and
    under saturated arrivals against the batch equivalent-service oracle."""

    @pytest.mark.parametrize(
        "T, d, w, service",
        [(9000, d, 0.5 * d, ExponentialVbrService(1.0)) for d in (1, 2, 3, 7, 10, 64)]
        + [(T, d, 0.5 * d, ExponentialVbrService(1.0)) for T in (4095, 4096, 4097) for d in (1, 7)]
        + [
            (30, 50, 2.0, ExponentialVbrService(1.0)),
            (9000, 3, 1e-4, ExponentialVbrService(1.0)),
            (9000, 3, 1e6, ExponentialVbrService(1.0)),
            (9000, 1, 0.5, LEFTOVER),
            (9000, 5, 2.5, LEFTOVER),
            (9000, 10, 5.0, MMOO_REFERENCE),
        ]
        # horizons across the column-pass block, and the regimes that fall
        # back from it to the sweeps
        + [
            pytest.param(T, d, 0.5 * d, ExponentialVbrService(1.0), id=f"block-{T}-d{d}")
            for T in (16383, 16384, 16385, 40000)
            for d in (2, 7)
        ]
        + [
            pytest.param(20000, d, share * d, service, id=f"{name}-d{d}")
            for name, (service, share) in STRESS.items()
            for d in (2, 3, 7, 10, 64)
        ],
    )
    def test_matches_per_slot_loop(self, T, d, w, service):
        config = small_config(
            arrivals=ExponentialArrivals(0.3),
            service=service,
            feedback=FeedbackParams(w=w, d=d),
            total_slots=T,
            warmup_slots=1,
        )
        run = run_flow_control(config)
        arrivals_cum, departed, queue, backlog = reference_loop(config)
        tol = 1e-11 * max(1.0, arrivals_cum[-1])
        assert np.max(np.abs(arrivals_cum - run.backlog - departed)) <= tol
        assert np.max(np.abs(run.queue - queue)) <= tol
        assert np.max(np.abs(run.backlog - backlog)) <= tol

    def test_column_pass_and_sweeps_both_run(self, monkeypatch):
        # the sparse first block falls back to the sweeps, the next one goes
        # to them directly, and the Exp(1) block after it settles by columns
        settled = []
        column_pass = simulator._column_pass

        def counted(*args):
            settled.append(column_pass(*args))
            return settled[-1]

        monkeypatch.setattr(simulator, "_column_pass", counted)
        d = 10
        block = simulator._BLOCK_CHUNKS * d * round(simulator._CHUNK_SLOTS / d)
        config = small_config(
            arrivals=ExponentialArrivals(0.3),
            service=SparseThenExponential(block),
            feedback=FeedbackParams(w=0.5 * d, d=d),
            total_slots=3 * block,
            warmup_slots=1,
        )
        run = run_flow_control(config)
        arrivals_cum, departed, _, _ = reference_loop(config)
        assert settled == [False, True]
        tol = 1e-11 * max(1.0, arrivals_cum[-1])
        assert np.max(np.abs(arrivals_cum - run.backlog - departed)) <= tol

    def test_lindley_identity_at_delay_one(self):
        # at d = 1 the loop is a queue served by min(max(c, 0), w) per slot,
        # so the total backlog follows Lindley's recursion in closed form
        config = small_config(
            feedback=FeedbackParams(w=0.1, d=1), total_slots=1_000_000, warmup_slots=1
        )
        run = run_flow_control(config)
        a, c = replay_increments(config)
        S = np.concatenate(([0.0], np.cumsum(a - np.minimum(np.maximum(c, 0.0), 0.1))))
        lindley = S - np.minimum.accumulate(np.minimum(S, 0.0))
        assert np.max(np.abs(run.backlog - lindley)) <= 1e-11 * max(1.0, float(np.sum(a)))

    @pytest.mark.parametrize("d", [1, 2, 5, 10, 64])
    @pytest.mark.parametrize(
        "service",
        [ExponentialVbrService(1.0), MMOO_REFERENCE],
        ids=["exponential", "mmoo"],
    )
    def test_saturated_departures_are_the_equivalent_service(self, service, d):
        # arrivals that never bind leave D(0, t) = S_eq(0, t), the exact
        # equivalent service of the same path, across the chunk and block
        # edges; this is the overload regime, where most blocks fall back
        fb = FeedbackParams(w=0.5 * d, d=d)
        for T, times in ((9000, (1, 17, 4096, 4097, 9000)), (20000, (16384, 16385, 20000))):
            drain = np.maximum(service.sample_increments(np.random.default_rng(d), T, 1), 0.0)
            drain.flags.writeable = False  # read-only, so the oracle resumes along the times
            departed = _departures(1e9 * np.arange(T + 1.0), drain[0], fb.w, d)
            for t in times:
                s_eq = equivalent_service_batch(drain, fb, t)[0]
                assert abs(departed[t] - s_eq) <= 1e-12 * max(1.0, s_eq), (T, t)


class TestDeterminism:
    def test_identical_configs_identical_runs(self):
        a = run_flow_control(small_config())
        b = run_flow_control(small_config())
        assert np.array_equal(a.backlog, b.backlog)
        assert np.array_equal(a.queue, b.queue)

    def test_replications_use_disjoint_streams(self):
        config = small_config(replications=3)
        runs = [run_flow_control(config, r) for r in range(3)]
        assert not np.array_equal(runs[0].backlog, runs[1].backlog)
        assert not np.array_equal(runs[1].backlog, runs[2].backlog)

    def test_delay_longer_than_the_run_costs_memory_of_the_run(self):
        # with d >= T every feedback reference is to slot 0 or earlier, so a
        # 1,000-slot run is the same at d = 10^7 as at d = 1,000, and its
        # memory is that of the run, not of the delay
        def window_bound(d):
            return small_config(total_slots=1000, feedback=FeedbackParams(w=5.0, d=d))

        reference = run_flow_control(window_bound(1000))
        tracemalloc.start()
        try:
            run = run_flow_control(window_bound(10**7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert run.backlog.tobytes() == reference.backlog.tobytes()
        assert run.queue.tobytes() == reference.queue.tobytes()
        assert peak < 2**20


class TestBacklogQuantile:
    def test_single_run_quantile_is_the_order_statistic_of_its_tail(self):
        config = small_config(total_slots=150_000, warmup_slots=1_000)
        tail = np.sort(run_flow_control(config).tail)
        assert len(tail) == 149_000
        assert backlog_quantile(config, 1e-3) == tail[math.ceil((1.0 - 1e-3) * len(tail)) - 1]

    def test_estimability_floor_is_the_product_of_eps_slots_and_replications(self):
        config = small_config(total_slots=101, warmup_slots=1, replications=3)
        # 1/3 * 100 * 3 rounds below 100 in this order of the product
        eps = np.array([1 / 3, 0.34, 0.5])
        assert quantile_estimable(config, eps).tolist() == [False, True, True]
        assert quantile_estimable(config, 0.5)
        assert backlog_quantile(config, eps[1:]).shape == (2,)

    def test_pooled_quantiles_equal_scalar_calls(self, monkeypatch):
        config = small_config(
            arrivals=ExponentialArrivals(0.3),
            service=MMOO_REFERENCE,
            feedback=FeedbackParams(w=0.5, d=3),
            total_slots=40_000,
            replications=3,
        )
        eps = np.array([0.37, 1e-2, 1.3e-3, 1e-2])
        scalar = [backlog_quantile(config, float(e)) for e in eps]
        pool = np.sort(
            np.concatenate([run_flow_control(config, r).backlog[101:] for r in range(3)])
        )
        assert scalar == [pool[math.ceil((1.0 - e) * len(pool)) - 1] for e in eps]
        calls = []
        monkeypatch.setattr(
            simulator, "run_flow_control", lambda *a: calls.append(a) or run_flow_control(*a)
        )
        pooled = backlog_quantile(config, eps)
        assert len(calls) == config.replications
        assert isinstance(scalar[0], float)
        assert pooled.shape == eps.shape
        assert np.array_equal(pooled, scalar)
        assert np.array_equal(backlog_quantile(config, eps.reshape(2, 2)), pooled.reshape(2, 2))

    def test_zero_arrivals_give_zero_backlog(self):
        config = small_config(
            arrivals=DeterministicService(0.0),
            total_slots=20_000,
            warmup_slots=100,
        )
        assert backlog_quantile(config, 0.01) == 0.0

    def test_quantile_below_analytic_bound(self):
        config = small_config(
            arrivals=ExponentialArrivals(0.05),
            total_slots=200_000,
            warmup_slots=2_000,
            replications=2,
        )
        quantile = backlog_quantile(config, 1e-3)
        bound = backlog_bound(
            ExponentialArrivals(0.05),
            per_slot_curve(ExponentialVbrService(1.0), config.feedback),
            1e-3,
            ThetaGrid.logspace(),
            4096,
        )
        assert quantile <= bound

    def test_overload_detected_and_quantile_grows(self):
        heavy = dict(arrivals=ExponentialArrivals(0.5), warmup_slots=100)
        short = small_config(total_slots=20_000, **heavy)
        longer = small_config(total_slots=80_000, **heavy)
        q_short = backlog_quantile(short, 0.01)
        q_long = backlog_quantile(longer, 0.01)
        assert q_long > 2.0 * q_short
        run = run_flow_control(longer)
        assert run.backlog_drift() > 2.0


class TestExactLawAtDelayOne:
    def test_exceedance_of_the_exact_quantile_is_eps(self):
        # fig8a at 50 Mbps: at d = 1 the backlog B' = max(B + a - min(c, w), 0)
        # has the exact tail P(B > b) = sigma exp(-eta b), so the pooled
        # frequency of B > log(sigma/eps)/eta must be eps up to sampling
        # error.  The replications are independent, so the standard error is
        # the spread of their frequencies; two-sided alpha = 1e-3, from the
        # Student t quantile with 19 degrees of freedom.  The seed is the
        # panel's own.
        sc = canned_scenarios("fig8")[0]
        lam, eps, t_crit = 0.05, 1e-3, 3.883
        assert sc.d_slots == [1] and lam in sc.lambdas_mb
        config = SimConfig(
            seed=sc.seed,
            total_slots=1_000_000,
            warmup_slots=10_000,
            arrivals=ExponentialArrivals(lam),
            service=sc.service,
            feedback=FeedbackParams(w=sc.w_mb[0], d=1),
            replications=20,
        )
        eta, sigma = exact_backlog_tail(config.arrivals, config.service, config.feedback.w)
        quantile = math.log(sigma / eps) / eta
        freqs = np.array(
            [np.mean(run_flow_control(config, r).tail > quantile) for r in range(20)]
        )
        z = (freqs.mean() - eps) / (freqs.std(ddof=1) / math.sqrt(len(freqs)))
        assert abs(z) <= t_crit, (freqs.mean() / eps, z)


class TestConfigValidation:
    def test_warmup_leaves_two_slots(self):
        # backlog_drift compares two halves of the post-warmup slots
        run = run_flow_control(small_config(total_slots=100, warmup_slots=98))
        assert not np.isnan(run.backlog_drift())
