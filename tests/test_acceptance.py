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
`suite_dioid_laws`.  Those three suites are the only copy of their checks:
the reference constants and unit conversions, the chain's grouped-time,
spectral and supermultiplicative bounds, and the dioid laws have no second
loop in the unit tests.  Each law of those three runs is also its own test
case, which reads from the run's tally how many checks carry that law's
note and that none failed, so a failure or a dropped law names itself.
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
)
from winflow.simulator import SimConfig, backlog_quantile, run_flow_control
from winflow import units
from winflow.verify import (
    MMOO_REFERENCE as MMOO,
    suite_constants,
    suite_dioid_laws,
    suite_dual_oracle,
    suite_markov_structure,
    suite_mgf_dominance,
)

VBR = ExponentialVbrService(1.0)
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


def checked(result, law):
    """How many checks of a suite run carry a note that starts with ``law``."""
    return sum(n for note, n in result.tally.items() if note.startswith(law))


# checks per law in one run of each structural suite; the laws partition the
# run, so a law that is dropped, renamed or run too few times fails its case
CONSTANTS_LAWS = {
    "exponential effective capacity at theta=1": 1,
    "exponential effective capacity log1p(theta)/theta": 3,
    "1 Mb per 1 ms slot is 1 Gbps": 1,
    "1 Gbps is 1 Mb per 1 ms slot": 1,
    "On-Off mean rate": 1,
    "closed-form effective capacity": 32,
    "unit quantile of the exponential": 1,
    "exponential median": 1,
    "exponential 1e-6 quantile": 1,
    "unit round trip": 7,
}
MARKOV_LAWS = {
    "gap monotonicity": 168,
    "grouped times": 2 * (7 + 21 + 35),
    "spectral sandwich": 8 * 16,
    "dominant-term lower bound": 8 * 16,
    "supermultiplicative": 8 * 13 * 13,
    "weight in (0,1)": 8,
}
DIOID_INSTANCES = 1000
DIOID_LAWS = {
    "left neutrality": DIOID_INSTANCES,
    "right neutrality": DIOID_INSTANCES,
    "associativity": DIOID_INSTANCES,
    "distributivity over min": DIOID_INSTANCES,
    "offset commutation": DIOID_INSTANCES,
    "offset adds w": DIOID_INSTANCES,
    "closure subadditivity": DIOID_INSTANCES,
    "family preservation": 3 * DIOID_INSTANCES,
    "non-commutativity witness": 1,
}


@pytest.fixture(scope="module")
def constants():
    """One `suite_constants` run, with its start time; criterion 04 reads it."""
    started = time.perf_counter()
    return suite_constants(), started


@pytest.fixture(scope="module")
def markov_structure():
    """One `suite_markov_structure` run, with its start time; criterion 10 reads it."""
    started = time.perf_counter()
    return suite_markov_structure(), started


@pytest.fixture(scope="module")
def dioid_laws():
    """One `suite_dioid_laws` run on 1000 instances, with its start time;
    criterion 11 reads it."""
    started = time.perf_counter()
    return suite_dioid_laws(77, instances=DIOID_INSTANCES), started


def law_cases(laws):
    return pytest.mark.parametrize("law, count", laws.items(), ids=list(laws))


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


def test_04_reference_constants(constants):
    result, started = constants
    # exponential capacity log1p(theta)/theta at theta = 1/4, 1, 4 and log 2
    # at 1; 1 Mb per 1 ms slot is 1 Gbps and back; the On-Off mean rate and
    # its closed-form capacity on 32 thetas in [1e-2, 1e2]; three exponential
    # quantiles; seven unit round trips, 50 to 1125 Mbps
    assert result.passed, result.notes
    assert result.checks == sum(CONSTANTS_LAWS.values()) == 4 + 2 + 1 + 32 + 3 + 7
    report(4, "closed-form reference constants", started, 1.0)


@law_cases(CONSTANTS_LAWS)
def test_04_each_constant(constants, law, count):
    result, _ = constants
    assert checked(result, law) == count
    assert not failed(result, law)


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


def test_10_markov_structure(markov_structure):
    result, started = markov_structure
    # correlation monotonicity of 3-point ON patterns in [0, 8]; grouped
    # increments of every index set of size <= 3 in [0, 6] against a
    # contiguous block, both theta signs, by exhaustive enumeration; the
    # spectral sandwich and dominant-term bound for t <= 16; and
    # supermultiplicativity for every s, t in 0..12; the last three at eight
    # theta, +-2, +-1, +-0.5 and +-0.1
    assert result.passed, result.notes
    assert result.checks == sum(MARKOV_LAWS.values())
    assert result.checks == 168 + 2 * (7 + 21 + 35) + 8 * (2 * 16 + 13 * 13 + 1)
    report(10, "chain correlation and spectral structure", started, 30.0)


@law_cases(MARKOV_LAWS)
def test_10_each_markov_law(markov_structure, law, count):
    result, _ = markov_structure
    assert checked(result, law) == count
    assert not failed(result, law)


def test_11_dioid_law_suite(dioid_laws):
    result, started = dioid_laws
    # neutrality, associativity, distributivity, offset commutation, closure
    # subadditivity and family preservation on 1000 dyadic instances of
    # horizon 0 to 10, and the non-commutativity witness
    assert result.passed, result.notes
    assert result.checks == sum(DIOID_LAWS.values()) == 1000 * 10 + 1
    report(11, "dioid law suite, 1000 randomized instances", started, 30.0)


@law_cases(DIOID_LAWS)
def test_11_each_dioid_law(dioid_laws, law, count):
    result, _ = dioid_laws
    assert checked(result, law) == count
    assert not failed(result, law)
