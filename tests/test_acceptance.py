"""Acceptance suite: the exit criteria of the toolkit.

Each test prints one PASS line with its runtime (run with ``pytest -s`` to
see them live).  Stochastic criteria carry explicit standard-error budgets;
identity criteria state their tolerances inline.  Sample batches are shared
across criteria through module-scoped fixtures.  A criterion that is a
`winflow verify` suite runs that suite at its own seed and size, so each
check has one implementation: criteria 01-03 (dual-oracle equivalence, the
d = 1 closed form and the envelope sandwich) read one `suite_dual_oracle`
run, and criteria 04, 10 and 11 run `suite_constants`,
`suite_markov_structure` and `suite_dioid_laws`.
"""

import math
import time

import numpy as np
import pytest

from winflow.bounds import (
    FeedbackParams,
    ThetaGrid,
    best_effcap_lower,
    block_curve,
    effcap_apriori,
    per_slot_curve,
    statistical_service_curve,
    steady_state_backlog_bound,
)
from winflow.models import (
    DeterministicService,
    ExponentialArrivals,
    ExponentialVbrService,
    MmooService,
)
from winflow.oracle import equivalent_service_batch
from winflow.simulator import SimConfig, backlog_quantile, run_flow_control
from winflow import units
from winflow.verify import (
    suite_constants,
    suite_dioid_laws,
    suite_dual_oracle,
    suite_markov_structure,
)

VBR = ExponentialVbrService(1.0)
MMOO = MmooService(p00=0.2, p11=0.9, peak=1.125)
GRID = ThetaGrid.logspace()

N_PATHS = 100_000
MC_CONFIGS = [
    ("exp", 1, 0.1),
    ("exp", 1, 0.5),
    ("exp", 2, 0.1),
    ("exp", 5, 0.5),
    ("exp", 10, 0.1),
    ("exp", 10, 0.5),
    ("mmoo", 1, 0.5),
    ("mmoo", 2, 0.1),
    ("mmoo", 2, 0.5),
    ("mmoo", 5, 0.1),
    ("mmoo", 5, 0.5),
    ("mmoo", 10, 0.1),
]


def report(number, name, started, limit):
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({elapsed:.1f} s)")
    assert elapsed < limit, f"criterion {number} exceeded its {limit} s budget"


@pytest.fixture(scope="module")
def mc_samples():
    """Equivalent-service samples for the 12 Monte Carlo configurations."""
    samples = {}
    for i, (kind, d, ratio) in enumerate(MC_CONFIGS):
        model = VBR if kind == "exp" else MMOO
        fb = FeedbackParams(w=ratio * d, d=d)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=555, spawn_key=(i,)))
        paths = model.sample_increments(rng, 50, N_PATHS)
        values = {
            20: equivalent_service_batch(paths, fb, 20),
            50: equivalent_service_batch(paths, fb, 50),
        }
        samples[(kind, d, ratio)] = (model, fb, values)
    return samples


@pytest.fixture(scope="module")
def dual_oracle():
    """One `suite_dual_oracle` run on 500 instances, with its start time.

    Criteria 01-03 read the checks of this one run: dp == closure, both inside
    the a-priori envelope, and at d = 1 both equal to the prefix-sum closed
    form, each at every (s, t); batch == dp at (0, T).  Three checks an
    instance, plus one at d = 1.
    """
    started = time.perf_counter()
    result = suite_dual_oracle(seed=20240801, instances=500)
    return result, started


def test_01_dual_oracle_equivalence(dual_oracle):
    result, started = dual_oracle
    assert result.passed, result.notes
    report(1, "dual-oracle suite on 500 instances", started, 60.0)


def test_02_delay_one_closed_form(dual_oracle):
    started = time.perf_counter()
    result, _ = dual_oracle
    assert "d=1 closed form" not in result.notes
    seen = result.checks - 3 * 500
    assert seen >= 50  # the instance mix must actually cover d = 1
    report(2, f"delay-one closed form on {seen} instances", started, 60.0)


def test_03_envelope_sandwich(dual_oracle):
    started = time.perf_counter()
    result, _ = dual_oracle
    assert "a-priori envelope" not in result.notes
    report(3, "a-priori envelope sandwich, zero violations", started, 60.0)


def test_04_reference_constants():
    started = time.perf_counter()
    # exponential capacity log1p(theta)/theta at theta = 1/4, 1, 4 and log 2
    # at 1; 1 Mb per 1 ms slot is 1 Gbps; the On-Off mean rate and its
    # closed-form capacity on 32 thetas in [1e-2, 1e2]; two exponential
    # quantiles; six unit round trips
    result = suite_constants()
    assert result.passed, result.notes
    assert result.checks == 4 + 1 + 1 + 32 + 2 + 6
    report(4, "closed-form reference constants", started, 1.0)


def test_05_mgf_bound_dominance(mc_samples):
    started = time.perf_counter()
    for (kind, d, ratio), (model, fb, values) in mc_samples.items():
        for theta in (0.5, 1.0, 2.0):
            for t in (20, 50):
                emp = np.exp(-theta * values[t])
                mean = float(emp.mean())
                se = float(emp.std(ddof=1) / math.sqrt(N_PATHS))
                bound = block_curve(model, fb).mgf(theta, t)
                assert mean <= bound + 3.0 * se, (kind, d, ratio, theta, t, mean, bound)
    report(5, "MGF bound dominance, 12 configurations x 6 points", started, 600.0)


def test_06_service_curve_chernoff_validity(mc_samples):
    started = time.perf_counter()
    eps = 1e-2
    budget = eps + 3.0 * math.sqrt(eps / N_PATHS)
    for (kind, d, ratio), (model, fb, values) in mc_samples.items():
        family = per_slot_curve(model, fb) if d == 1 else block_curve(model, fb)
        curve = statistical_service_curve(family, eps, GRID, 50)
        for t in (20, 50):
            violation = float(np.mean(values[t] <= curve.value[t]))
            assert violation <= budget, (kind, d, ratio, t, violation, curve.value[t])
    report(6, "service-curve violation frequency at desk epsilon", started, 600.0)


def test_07_deterministic_throughput():
    started = time.perf_counter()
    for d in (1, 10, 100):
        config = SimConfig(
            seed=99,
            total_slots=10_000,
            warmup_slots=100,
            arrivals=DeterministicService(10.0),
            service=DeterministicService(1.0),
            feedback=FeedbackParams(w=0.1 * d, d=d),
            replications=1,
        )
        run = run_flow_control(config)
        rate_mbps = units.mb_per_slot_to_mbps(run.throughput, 1.0)
        assert abs(rate_mbps - 100.0) <= 2.0, (d, rate_mbps)
    report(7, "saturated deterministic loop serves 100 Mbps", started, 60.0)


def test_08_effective_capacity_ordering():
    started = time.perf_counter()
    study = [
        (model, FeedbackParams(w=ratio * d, d=d))
        for model in (VBR, MMOO)
        for ratio in (0.1, 0.5)
        for d in (1, 2, 5, 10)
    ]
    for model, fb in study:
        best = best_effcap_lower(model, fb, GRID)
        for i, theta in enumerate(GRID.values):
            ceiling = min(model.effective_capacity(theta), fb.rate_cap)
            assert best.value[i] <= ceiling + 1e-12
        # the envelope closes to within 5 percent at theta = 100 per Mb
        lo, hi = effcap_apriori(model, fb, 100.0)
        assert (hi - lo) / hi < 0.05, (model, fb, lo, hi)
    # at d = 1 the a-priori lower bound is the exact limit: check against
    # the empirical transform of 1e5 oracle-evaluated paths at t = 200
    theta, t, n = 1.0, 200, N_PATHS
    for ratio in (0.1, 0.5):
        fb = FeedbackParams(w=ratio, d=1)
        rng = np.random.default_rng(808)
        values = equivalent_service_batch(VBR.sample_increments(rng, t, n), fb, t)
        emp = np.exp(-theta * values)
        mean = float(emp.mean())
        se = float(emp.std(ddof=1) / math.sqrt(n))
        lower, _ = effcap_apriori(VBR, fb, theta)
        assert abs(mean - math.exp(-theta * lower * t)) <= 3.0 * se
    report(8, "effective-capacity bound ordering and exactness", started, 600.0)


def test_09_backlog_dominance_and_saturation():
    started = time.perf_counter()
    fb = FeedbackParams(w=0.1, d=1)
    curve = per_slot_curve(VBR, fb)
    for lam_mbps in (50.0, 70.0, 90.0):
        lam = units.mbps_to_mb_per_slot(lam_mbps, 1.0)
        bound = steady_state_backlog_bound(ExponentialArrivals(lam), curve, 1e-3, GRID)
        config = SimConfig(
            seed=31_000 + int(lam_mbps),
            total_slots=1_000_000,
            warmup_slots=10_000,
            arrivals=ExponentialArrivals(lam),
            service=VBR,
            feedback=fb,
            replications=20,
        )
        quantile = backlog_quantile(config, 1e-3)
        assert quantile <= bound, (lam_mbps, quantile, bound)
    # at and above the feedback capacity ceiling the bound must diverge
    ceiling = -math.expm1(-0.1)  # mean of min(c, 0.1) = 0.09516 Mb per slot
    for lam in (ceiling, 0.12):
        assert (
            steady_state_backlog_bound(ExponentialArrivals(lam), curve, 1e-3, GRID)
            == math.inf
        )
    report(9, "backlog bound dominates simulation; saturation detected", started, 600.0)


def test_10_markov_structure():
    started = time.perf_counter()
    # correlation monotonicity of 3-point ON patterns in [0, 8]; grouped
    # increments of every index set of size <= 3 in [0, 6] against a
    # contiguous block, both theta signs, by exhaustive enumeration; the
    # spectral sandwich and dominant-term bound for t <= 16; and
    # supermultiplicativity for every s, t in 0..12
    result = suite_markov_structure()
    assert result.passed, result.notes
    assert result.checks == 168 + 2 * (7 + 21 + 35) + 6 * (2 * 16 + 13 * 13 + 1)
    report(10, "chain correlation and spectral structure", started, 30.0)


def test_11_dioid_law_suite():
    started = time.perf_counter()
    # neutrality, associativity, distributivity, offset commutation, closure
    # subadditivity and family preservation on 1000 dyadic instances
    result = suite_dioid_laws(77, instances=1000)
    assert result.passed, result.notes
    assert result.checks == 1000 * 10 + 1
    report(11, "dioid law suite, 1000 randomized instances", started, 30.0)
