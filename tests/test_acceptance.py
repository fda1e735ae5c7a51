"""Acceptance suite: the exit criteria of the toolkit.

Each test prints one PASS line with its runtime (run with ``pytest -s`` to
see them live).  Stochastic criteria carry explicit standard-error budgets;
identity criteria state their tolerances inline.  A criterion that is a
`winflow verify` suite runs that suite at its own seed and size, so each
check has one implementation: criteria 01-03 (dual-oracle equivalence, the
d = 1 closed form and the envelope sandwich) read one `suite_dual_oracle`
run; criteria 05, 06 and the Monte Carlo half of 08 (MGF dominance, curve
violation frequencies and the exact d = 1 transform) read one
`suite_mgf_dominance` run on 100 000 paths per configuration; and criteria
04, 10 and 11 run `suite_constants`, `suite_markov_structure` and
`suite_dioid_laws`.
"""

import math
import time

import pytest

from winflow.bounds import (
    FeedbackParams,
    ThetaGrid,
    best_effcap_lower,
    effcap_apriori,
    per_slot_curve,
    steady_state_backlog_bound,
)
from winflow.models import (
    DeterministicService,
    ExponentialArrivals,
    ExponentialVbrService,
    MmooService,
)
from winflow.simulator import SimConfig, backlog_quantile, run_flow_control
from winflow import units
from winflow.verify import (
    suite_constants,
    suite_dioid_laws,
    suite_dual_oracle,
    suite_markov_structure,
    suite_mgf_dominance,
)

VBR = ExponentialVbrService(1.0)
MMOO = MmooService(p00=0.2, p11=0.9, peak=1.125)
GRID = ThetaGrid.logspace()


def report(number, name, started, limit):
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({elapsed:.1f} s)")
    assert elapsed < limit, f"criterion {number} exceeded its {limit} s budget"


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


@pytest.fixture(scope="module")
def mgf_dominance():
    """One `suite_mgf_dominance` run on 100 000 paths per configuration, with
    its start time; criteria 05, 06 and 08 read its checks."""
    started = time.perf_counter()
    result = suite_mgf_dominance(seed=555, n_paths=100_000)
    return result, started


def failed(result, *checks):
    """The failure notes of the named checks of a suite run."""
    return [note for note in result.notes if note.startswith(checks)]


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


def test_05_mgf_bound_dominance(mgf_dominance):
    result, started = mgf_dominance
    # block MGF in all 12 configurations at 3 theta x 2 t (72), per-slot MGF
    # at d >= 2 (54), exactness at d = 1 (4) and violation frequencies (42)
    assert result.checks == 72 + 54 + 4 + 42
    assert not failed(result, "block mgf", "per-slot mgf")
    report(5, "MGF bound dominance, 12 configurations x 6 points", started, 600.0)


def test_06_service_curve_chernoff_validity(mgf_dominance):
    started = time.perf_counter()
    result, _ = mgf_dominance
    # eps = 1e-2 curves at t = 20 and 50: per-slot at every d, block at d >= 2
    assert not failed(result, "per-slot violation", "block violation")
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


def test_08_effective_capacity_ordering(mgf_dominance):
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
    # at d = 1 the a-priori lower bound, the per-slot rate, is exact: the
    # suite holds exponential service's per-slot transform to E[exp(-S_eq)]
    result, _ = mgf_dominance
    assert not failed(result, "exact per-slot mgf")
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
