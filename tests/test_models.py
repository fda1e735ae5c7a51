"""Model tests: MGFs, spectral quantities, samplers, special functions.

Independent oracles used here: scipy quadrature and special functions,
exhaustive enumeration of short chain paths, and Monte Carlo with explicit
standard-error budgets.
"""

import itertools
import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from conftest import (
    censored_exponential_rate_reference,
    leftover_two_state,
    on_off_capacity_reference,
    sample_path,
)
from winflow.models import (
    DeterministicService,
    ExponentialArrivals,
    ExponentialVbrService,
    LeftoverService,
    MarkovModulated2Service,
    MmooService,
    _IID_BLOCK_FLOATS,
    erlang_quantile,
    regularized_lower_gamma,
)
from winflow.scenarios import MIN_THETA_RATE
from winflow.verify import MMOO_REFERENCE as MMOO, enumerate_grouped_mgf


def as_two_state(m):
    """An On-Off model as a plain ``MarkovModulated2Service`` with its fields."""
    return MarkovModulated2Service(m.p00, m.p11, m.law0, m.law1)


class TestExponentialVbr:
    def test_mgf_closed_form(self):
        m = ExponentialVbrService(1.0)
        assert m.mgf_increment(-1.0) == pytest.approx(0.5, abs=1e-15)

    def test_mgf_divergence_is_a_value(self):
        m = ExponentialVbrService(1.0)
        assert m.mgf_increment(1.0) == math.inf
        assert m.mgf_increment(2.0) == math.inf
        assert math.isfinite(m.mgf_increment(0.999))

    def test_effective_capacity_closed_form(self):
        m = ExponentialVbrService(1.0)
        for theta in (0.3, 1.0, 7.0):
            assert m.effective_capacity(theta) == pytest.approx(
                math.log1p(theta) / theta, abs=1e-15
            )
        assert m.effective_capacity(1.0) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_effective_capacity_small_theta_limit_is_mean_rate(self):
        for model in (
            ExponentialVbrService(1.0),
            DeterministicService(2.5),
            MMOO,
        ):
            assert model.effective_capacity(1e-8) == pytest.approx(
                model.mean_rate, rel=1e-4
            )

    def test_effective_capacity_requires_positive_theta(self):
        with pytest.raises(ValueError):
            ExponentialVbrService(1.0).effective_capacity(0.0)
        for theta in (math.nan, [0.5, math.nan]):
            with pytest.raises(ValueError, match="theta must be > 0"):
                ExponentialVbrService(1.0).effective_capacity(theta)

    @pytest.mark.parametrize("theta,cap", [(-0.7, 0.35), (-2.0, 1.5), (0.4, 0.8)])
    def test_censored_mgf_against_quadrature(self, theta, cap):
        m = ExponentialVbrService(1.3)
        # the integrand has a kink at the cap; tell the quadrature about it
        ref = scipy.integrate.quad(
            lambda x: math.exp(theta * min(x, cap)) * math.exp(-x / 1.3) / 1.3,
            0.0,
            250.0,
            points=[cap],
            limit=400,
        )[0]
        assert np.exp(m.log_censored_mgf(theta, cap)) == pytest.approx(ref, rel=1e-9)

    def test_censored_mgf_removable_singularity(self):
        m = ExponentialVbrService(2.0)
        at = np.exp(m.log_censored_mgf(0.5, 1.0))
        near = np.exp(m.log_censored_mgf(0.5 + 1e-9, 1.0))
        assert at == pytest.approx(1.0 + 1.0 / 2.0, rel=1e-9)
        assert near == pytest.approx(at, rel=1e-6)

    def test_sample_mean_matches_rate(self):
        path = sample_path(ExponentialVbrService(1.0), seed=42, T=1_000_000)
        assert np.mean(path) == pytest.approx(1.0, rel=5e-3)

    def test_sampling_is_deterministic(self):
        m = ExponentialVbrService(1.0)
        a = sample_path(m, seed=7, T=500)
        b = sample_path(m, seed=7, T=500)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, sample_path(m, seed=8, T=500))


class TestDeterministic:
    def test_mgf_and_censoring(self):
        m = DeterministicService(2.0)
        assert m.mgf_increment(0.5) == pytest.approx(math.e, rel=1e-15)
        assert np.exp(m.log_censored_mgf(-1.0, 0.5)) == pytest.approx(math.exp(-0.5), rel=1e-15)
        assert m.effective_capacity(3.0) == 2.0

    def test_zero_rate_acts_as_empty_process(self):
        m = DeterministicService(0.0)
        assert m.mgf_increment(5.0) == 1.0
        assert np.all(sample_path(m, seed=1, T=10) == 0.0)


@pytest.mark.parametrize("rate", [math.nan, math.inf])
@pytest.mark.parametrize(
    "model",
    [DeterministicService, ExponentialVbrService, lambda peak: MmooService(0.2, 0.9, peak)],
    ids=["constant", "exponential", "on-off"],
)
def test_rates_must_be_finite(model, rate):
    with pytest.raises(ValueError, match="finite"):
        model(rate)


class TestExponentialArrivals:
    def test_mgf_formula_and_divergence(self):
        a = ExponentialArrivals(0.1)
        assert a.mgf_increment(1.0) == pytest.approx(1.0 / 0.9, rel=1e-15)
        assert a.mgf_increment(10.0) == math.inf
        assert a.log_mgf_increment(1.0) == pytest.approx(-math.log(0.9), rel=1e-14)
        assert a.mgf_path(1.0, 3) == pytest.approx((1.0 / 0.9) ** 3, rel=1e-14)


class TestOneClassPerFamily:
    def test_exponential_arrivals_is_the_exponential_law(self):
        assert ExponentialArrivals is ExponentialVbrService

    @pytest.mark.parametrize(
        "model",
        [
            DeterministicService(0.7),
            ExponentialVbrService(1.0),
            LeftoverService(DeterministicService(1.0), ExponentialArrivals(0.4)),
            MMOO,
            MarkovModulated2Service(
                p00=0.3, p11=0.8, law0=ExponentialVbrService(0.2), law1=ExponentialVbrService(1.0)
            ),
            leftover_two_state(1.5, as_two_state(MMOO)),
        ],
        ids=[
            "deterministic", "exponential", "leftover", "on-off", "two-state", "leftover-two-state"
        ],
    )
    @pytest.mark.parametrize("T", [300, 5000])
    def test_sample_path_is_one_row_of_sample_increments(self, model, T):
        for seed in (0, 7, 123):
            rng = np.random.default_rng(np.random.SeedSequence(seed))
            expected = model.sample_increments(rng, T, 1)[0]
            assert np.array_equal(sample_path(model, seed, T), expected)


class TestLeftover:
    def test_mgf_closed_form_against_monte_carlo(self):
        # E[exp(-theta (C - a))] = exp(-theta C) / (1 - lambda theta)
        C, lam, theta = 2.0, 1.0, 0.4
        left = LeftoverService(DeterministicService(C), ExponentialArrivals(lam))
        closed = left.mgf_increment(-theta)
        assert closed == pytest.approx(math.exp(-theta * C) / (1 - lam * theta), rel=1e-14)
        rng = np.random.default_rng(3)
        sample = np.exp(-theta * (C - rng.exponential(lam, 1_000_000)))
        se = sample.std(ddof=1) / math.sqrt(len(sample))
        assert abs(sample.mean() - closed) < 4 * se

    def test_mean_rate_and_stability(self):
        left = LeftoverService(DeterministicService(1.0), ExponentialArrivals(0.3))
        assert left.mean_rate == pytest.approx(0.7)
        assert left.is_stable
        assert not LeftoverService(
            DeterministicService(1.0), ExponentialArrivals(1.5)
        ).is_stable

    def test_paths_may_go_negative_and_average_out(self):
        left = LeftoverService(DeterministicService(1.0), ExponentialArrivals(0.5))
        path = sample_path(left, seed=11, T=200_000)
        assert np.min(path) < 0.0
        assert np.mean(path) == pytest.approx(0.5, abs=0.01)

    @pytest.mark.parametrize("cap", [0.25, 0.9, 5.0])
    def test_censored_mgf_against_quadrature(self, cap):
        C, lam, theta = 1.0, 0.6, -0.8
        left = LeftoverService(DeterministicService(C), ExponentialArrivals(lam))
        ref = scipy.integrate.quad(
            lambda a: math.exp(theta * min(C - a, cap)) * math.exp(-a / lam) / lam,
            0.0,
            300.0,
            limit=400,
        )[0]
        assert np.exp(left.log_censored_mgf(theta, cap)) == pytest.approx(ref, rel=1e-7)

    def test_censored_mgf_divergence(self):
        left = LeftoverService(DeterministicService(1.0), ExponentialArrivals(0.5))
        assert np.exp(left.log_censored_mgf(-2.0, 0.5)) == math.inf  # -theta = 1/lambda boundary


class TestMmoo:
    def test_derived_chain_quantities(self):
        assert MMOO.p01 == pytest.approx(0.8)
        assert MMOO.p10 == pytest.approx(0.1)
        assert MMOO.on_probability == pytest.approx(8.0 / 9.0, abs=1e-15)
        assert MMOO.correlation_eigenvalue == pytest.approx(0.1, abs=1e-15)
        assert MMOO.mean_rate == pytest.approx(1.0, abs=1e-12)

    def test_path_mgf_basics(self):
        assert MMOO.mgf_path(-1.0, 0) == 1.0
        assert MMOO.mgf_path(0.0, 5) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("theta", [-1.0, -0.25, 0.6])
    def test_path_mgf_matches_two_slot_enumeration(self, theta):
        p = MMOO.on_probability
        trans = {(0, 0): 0.2, (0, 1): 0.8, (1, 0): 0.1, (1, 1): 0.9}
        total = 0.0
        for x0, x1 in itertools.product((0, 1), repeat=2):
            weight = (p if x0 else 1 - p) * trans[(x0, x1)]
            total += weight * math.exp(theta * 1.125 * (x0 + x1))
        assert MMOO.mgf_path(theta, 2) == pytest.approx(total, rel=1e-14)

    def test_dominant_eigenvalue_at_zero_is_one(self):
        assert MMOO.eigen_m_plus(0.0) == pytest.approx(1.0, abs=1e-15)

    def test_fast_switching_chain_is_rejected(self):
        fast = MmooService(p00=0.0, p11=0.0, peak=1.0)  # p01 + p10 = 2
        with pytest.raises(ValueError, match="p01 \\+ p10"):
            fast.eigen_m_plus(-1.0)

    def test_spectral_weight_gives_exact_two_term_decomposition(self):
        for theta in (-1.0, -0.3, 0.5):
            K = MMOO.k_theta(theta)
            assert 0.0 < K < 1.0
            m0, m1 = (float(law.mgf_increment(theta)) for law in (MMOO.law0, MMOO.law1))
            L = np.array([[0.2 * m0, 0.8 * m1], [0.1 * m0, 0.9 * m1]])
            minus, plus = np.sort(np.linalg.eigvals(L).real)
            assert K * plus + (1 - K) * minus == pytest.approx(
                MMOO.mgf_increment(theta), abs=1e-14
            )
            for t in range(1, 9):
                two_term = K * plus**t + (1 - K) * minus**t
                assert abs(MMOO.mgf_path(theta, t) - two_term) <= 1e-12

    def test_spectral_weight_rejects_degenerate_chain(self):
        # absorbing ON state with the state laws tuned so the two
        # eigenvalues collide (up to float noise) at theta = -1
        near = MarkovModulated2Service(
            p00=0.5,
            p11=1.0,
            law0=DeterministicService(0.3),
            law1=DeterministicService(0.3 + math.log(2.0)),
        )
        with pytest.raises(ValueError, match="coincide"):
            near.k_theta(-1.0)
        # identical state laws are a one-state chain in disguise: the
        # decomposition collapses onto the dominant eigenvalue exactly
        flat = MarkovModulated2Service(
            p00=0.6, p11=0.7, law0=DeterministicService(1.0), law1=DeterministicService(1.0)
        )
        assert flat.k_theta(0.3) == 1.0

    def test_frozen_chain_is_rejected(self):
        frozen = MmooService(p00=1.0, p11=1.0, peak=1.0)
        with pytest.raises(ValueError, match="steady state"):
            frozen.eigen_m_plus(-1.0)

    def test_steady_state_on_fraction(self):
        path = sample_path(MMOO, seed=2024, T=1_000_000)
        on_fraction = float(np.mean(path > 0))
        assert on_fraction == pytest.approx(8.0 / 9.0, rel=0.01)

    def test_long_path_sampler_is_deterministic(self):
        # long single paths use the sojourn-run branch of the chain sampler
        a = sample_path(MMOO, seed=6, T=50_000)
        b = sample_path(MMOO, seed=6, T=50_000)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, sample_path(MMOO, seed=7, T=50_000))

    def test_batch_sampler_matches_steady_state(self):
        rng = np.random.default_rng(5)
        paths = MMOO.sample_increments(rng, 64, 4000)
        assert float(np.mean(paths > 0)) == pytest.approx(8.0 / 9.0, rel=0.02)

    def test_on_sequence_probability(self):
        assert MMOO.on_sequence_probability([4]) == pytest.approx(8.0 / 9.0, abs=1e-15)
        assert MMOO.on_sequence_probability([0, 1]) >= MMOO.on_sequence_probability([0, 5])
        with pytest.raises(ValueError):
            MMOO.on_sequence_probability([3, 3])

    def test_on_sequence_probability_matches_enumeration(self):
        p = MMOO.on_probability
        trans = {(0, 0): 0.2, (0, 1): 0.8, (1, 0): 0.1, (1, 1): 0.9}
        total = 0.0
        for states in itertools.product((0, 1), repeat=3):
            if all(states):
                weight = (p if states[0] else 1 - p)
                for a, b in zip(states, states[1:]):
                    weight *= trans[(a, b)]
                total += weight
        assert MMOO.on_sequence_probability([0, 1, 2]) == pytest.approx(total, abs=1e-15)


# p00 = 0.3, p11 = 0.9 with constant laws 1 and 2 Mb/slot: as theta -> -inf
# the dominant eigenvalue tends to 0.3 e^theta and the one-slot MGF to
# 0.125 e^theta, so K tends to 0.125 / 0.3 = 5/12
STEP_CHAIN = MarkovModulated2Service(0.3, 0.9, DeterministicService(1.0), DeterministicService(2.0))
FAST_CHAIN = MmooService(0.1, 0.3, 1.0)  # p01 + p10 = 1.6: fast switching
ZERO_DIAGONAL = MmooService(0.0, 0.5, 1.0)
ALTERNATING = MmooService(0.0, 0.0, 1.0)
# the steady state sits in state 0, off the dominant eigenvector at theta > 0
ABSORBED_OFF = MmooService(1.0, 0.5, 1.0)
THETA_GRID = np.concatenate([-np.geomspace(1e-4, 1e3, 512), np.geomspace(1e-4, 1e3, 512)])
GRID_CHAINS = [MMOO, STEP_CHAIN, FAST_CHAIN, ZERO_DIAGONAL, ALTERNATING]
GRID_IDS = ["mmoo", "step", "fast", "zero-diagonal", "alternating"]


class TestScaledSpectralForm:
    """One scaled spectral form serves the path MGF and the spectral weight."""

    @pytest.mark.parametrize("theta", [-10.0, -100.0, -400.0, -800.0])
    def test_spectral_weight_finite_at_very_negative_theta(self, theta):
        K = STEP_CHAIN.k_theta(theta)
        assert math.isfinite(K) and 0.0 < K < 1.0
        if theta <= -100.0:
            assert abs(K - 5.0 / 12.0) <= 1e-12

    @pytest.mark.parametrize("model", GRID_CHAINS, ids=GRID_IDS)
    def test_path_mgf_raises_no_warning_on_theta_grid(self, model):
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            for t in range(101):
                log_value = model.log_mgf_path(THETA_GRID, t)
                value = model.mgf_path(THETA_GRID, t)
                assert not np.any(np.isnan(log_value)) and not np.any(np.isnan(value))
                below = log_value < 709.0
                assert np.array_equal(value[below], np.exp(log_value[below]))
                assert np.all(value[~below] == math.inf)

    @pytest.mark.parametrize(
        "model",
        GRID_CHAINS
        + [
            ABSORBED_OFF,
            MmooService(0.5, 1.0, 1.0),
            MmooService(0.0, 1.0, 1.0),
            MmooService(0.999999, 0.5, 1.0),
            MmooService(0.99999, 0.99999, 1.0),
        ],
        ids=GRID_IDS + ["absorbed-off", "absorbed-on", "always-on", "rarely-on", "sticky"],
    )
    def test_path_mgf_matches_chain_enumeration(self, model):
        for theta in (-60.0, -7.0, -1.0, -0.1, 0.0, 0.2, 3.0):
            for t in range(11):
                exact = enumerate_grouped_mgf(model, theta, range(t)) if t else 1.0
                assert abs(model.mgf_path(theta, t) - exact) <= 1e-12 * exact
                assert model.log_mgf_path(theta, t) == pytest.approx(math.log(exact), rel=1e-12, abs=1e-13)

    def test_zero_diagonal_path_mgf_far_from_theta_zero(self):
        # the smaller state MGF is scaled below the float range here
        assert ZERO_DIAGONAL.mgf_increment(-800.0) == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert ALTERNATING.mgf_increment(-800.0) == pytest.approx(0.5, rel=1e-14)
        assert ALTERNATING.log_mgf_path(-800.0, 4) == pytest.approx(-1600.0, rel=1e-14)
        assert MmooService(0.5, 0.0, 1.0).mgf_path(753.0, 3) == math.inf
        assert MmooService(0.0, 1.0, 1.0).log_mgf_path(-1400.0, 5) == pytest.approx(-7000.0, rel=1e-14)

    def test_zero_diagonal_path_mgf_is_nan_past_its_span(self):
        # state log-MGFs 1600 apart: no value, never a finite or infinite one
        with np.errstate(all="raise"):
            for model in (ZERO_DIAGONAL, ALTERNATING):
                assert math.isnan(model.log_mgf_path(-1600.0, 3))
                assert math.isnan(model.mgf_path(-1600.0, 3))

    def test_path_mgf_of_chain_absorbed_off_the_dominant_eigenvector(self):
        # the chain never leaves state 0 (served 0), while the dominant
        # eigenvalue comes from state 1: every path MGF is exactly 1
        for theta in (1.0, 10.0, 100.0, 700.0):
            for t in (1, 2, 7, 100):
                assert ABSORBED_OFF.log_mgf_path(theta, t) == pytest.approx(0.0, abs=1e-14 * t * theta)

    def test_path_mgf_rejects_negative_length(self):
        for model in (MMOO, ExponentialVbrService(1.0)):
            with pytest.raises(ValueError, match="t must be"):
                model.mgf_path(0.5, -1)


STICKY_CHAINS = [MmooService(p, p, 1.0) for p in (0.99, 0.9999, 0.99999, 0.999999)]


class TestOneDominantRoot:
    """The capacity and eigen_m_plus read the cancellation-free root of the
    spectral form, exact also on sticky chains, whose eigenvalues nearly
    coincide: there a root through the quadratic's discriminant cancels."""

    @pytest.mark.parametrize("model", STICKY_CHAINS, ids=lambda m: f"p{m.p00}")
    @pytest.mark.parametrize("theta", [1e-9, 1e-6, 1e-3, 1.0])
    def test_capacity_of_sticky_chain_matches_50_digit_root(self, model, theta):
        expected = on_off_capacity_reference(model, theta)
        assert abs(model.effective_capacity(theta) - expected) <= 1e-6 * expected

    @pytest.mark.parametrize("model", STICKY_CHAINS, ids=lambda m: f"p{m.p00}")
    def test_dominant_eigenvalue_of_sticky_chain_at_zero_is_one(self, model):
        assert abs(model.eigen_m_plus(0.0) - 1.0) <= 1e-15


# theta times the slowest rate, from the smallest product a scenario may
# name to 1
THETA_RATE_PRODUCTS = np.geomspace(MIN_THETA_RATE, 1.0, 19)


class TestSmallTheta:
    """The rates read from the transforms keep 1e-6 relative accuracy down to
    the smallest theta a scenario accepts; below it they lose about
    ulp / (theta * rate)."""

    @pytest.mark.parametrize("model", [MMOO, MmooService(0.99, 0.3, 7.0), MmooService(0.5, 0.6, 1e-3)])
    def test_on_off_capacity(self, model):
        for product in THETA_RATE_PRODUCTS:
            theta = product / model.mean_rate
            expected = on_off_capacity_reference(model, theta)
            assert abs(model.effective_capacity(theta) - expected) <= 1e-6 * expected

    @pytest.mark.parametrize("mean, cap", [(1.0, 0.3), (1.3, 0.35), (1.0, 2.0), (1e-3, 0.1), (250.0, 3.0)])
    def test_capped_exponential_rate(self, mean, cap):
        model = ExponentialVbrService(mean)
        for product in THETA_RATE_PRODUCTS:
            theta = product / min(mean, cap)
            expected = censored_exponential_rate_reference(mean, cap, theta)
            rate = -float(model.log_censored_mgf(-theta, cap)) / theta
            assert abs(rate - expected) <= 1e-6 * expected


class TestMarkovModulated2:
    def test_reduction_to_on_off_is_bit_for_bit(self):
        general = as_two_state(MMOO)
        for theta in (-2.0, -0.5, 0.0, 0.7):
            assert general.mgf_increment(theta) == MMOO.mgf_increment(theta)
            assert general.eigen_m_plus(theta) == MMOO.eigen_m_plus(theta)
            for t in (1, 3, 9):
                assert general.mgf_path(theta, t) == MMOO.mgf_path(theta, t)
        rng_a = np.random.default_rng(99)
        rng_b = np.random.default_rng(99)
        a = MMOO.sample_increments(rng_a, 128, 16)
        b = general.sample_increments(rng_b, 128, 16)
        assert np.array_equal(a, b)

    def test_on_off_is_the_two_state_model_with_constant_laws(self):
        m = MMOO
        general = as_two_state(m)
        assert isinstance(m, MarkovModulated2Service)
        assert m.peak == 1.125
        assert type(general) is MarkovModulated2Service
        for name in ("p00", "p11", "law0", "law1"):
            assert getattr(m, name) == getattr(general, name)
        assert m.law0 == DeterministicService(0.0)
        assert m.law1 == DeterministicService(1.125)

    def test_leftover_two_state_composition(self):
        cross = as_two_state(MmooService(p00=0.4, p11=0.8, peak=0.5))
        left = leftover_two_state(1.0, cross)
        assert left.mean_rate == pytest.approx(1.0 - cross.mean_rate, abs=1e-14)
        # per-state means: state 0 leaves everything, state 1 leaves C - P
        assert left.law0.mean_rate == pytest.approx(1.0)
        assert left.law1.mean_rate == pytest.approx(0.5)
        assert math.isfinite(left.eigen_m_plus(-0.5))


def geometric_run_walk(rng, p00, p11, p_on, T):
    """Single long path, one scalar geometric draw per sojourn run."""
    state = 1 if rng.random() < p_on else 0
    out = np.empty(T, dtype=np.int8)
    pos = 0
    while pos < T:
        stay = p11 if state else p00
        if stay >= 1.0:
            out[pos:] = state
            break
        run = int(rng.geometric(1.0 - stay))
        end = min(pos + run, T)
        out[pos:end] = state
        pos = end
        state = 1 - state
    return out


class TestSojournSampler:
    """The bulk sojourn draw equals the scalar walk, generator state included."""

    @pytest.mark.parametrize(
        "p00, p11", [(0.2, 0.9), (0.5, 0.5), (0.0, 0.95), (0.999, 0.998), (1.0, 0.3), (0.4, 1.0)]
    )
    @pytest.mark.parametrize("T", [4097, 60_000])
    def test_on_off_matches_scalar_walk(self, p00, p11, T):
        model = MmooService(p00=p00, p11=p11, peak=1.125)
        for seed in range(5):
            rng_ref = np.random.default_rng(seed)
            rng = np.random.default_rng(seed)
            states = geometric_run_walk(rng_ref, p00, p11, model.on_probability, T)
            sample = model.sample_increments(rng, T, 1)[0]
            assert np.array_equal(sample, states * 1.125)
            assert rng.random() == rng_ref.random()

    def test_two_state_law_draws_follow_on_the_same_generator(self):
        model = MarkovModulated2Service(
            p00=0.3, p11=0.8, law0=ExponentialVbrService(0.2), law1=ExponentialVbrService(1.0)
        )
        T = 20_000
        for seed in range(5):
            rng_ref = np.random.default_rng(seed)
            rng = np.random.default_rng(seed)
            states = geometric_run_walk(rng_ref, 0.3, 0.8, model.on_probability, T)
            inc0 = model.law0.sample_increments(rng_ref, T, 1)[0]
            inc1 = model.law1.sample_increments(rng_ref, T, 1)[0]
            expected = (1 - states) * inc0 + states * inc1
            assert np.array_equal(model.sample_increments(rng, T, 1)[0], expected)
            assert rng.random() == rng_ref.random()


def where_chain(rng, p00, p11, p_on, T, n):
    """The batch two-state chain before its step went in place, a literal
    copy: one np.where for the stay probability and one for the next state."""
    states = np.empty((n, T), dtype=np.int8)
    x = (rng.random(n) < p_on).astype(np.int8)
    for k in range(T):
        states[:, k] = x
        if k == T - 1:
            break
        u = rng.random(n)
        stay = np.where(x == 1, p11, p00)
        x = np.where(u < stay, x, 1 - x).astype(np.int8)
    return states


SAMPLER_SHAPES = [(1, 1), (7, 3), (50, 1000), (4096, 2)]


class TestSamplersBitIdenticalToPreviousExpressions:
    """Samples and the generator's next draws equal the previous code."""

    @pytest.mark.parametrize("T, n", SAMPLER_SHAPES)
    def test_exponential(self, T, n):
        rng, rng_ref = np.random.default_rng(T + n), np.random.default_rng(T + n)
        expected = -0.7 * np.log1p(-rng_ref.random((n, T)))
        assert np.array_equal(ExponentialVbrService(0.7).sample_increments(rng, T, n), expected)
        assert np.array_equal(rng.random(5), rng_ref.random(5))

    @pytest.mark.parametrize("T, n", [(1000, 700), (_IID_BLOCK_FLOATS + 5, 3)])
    def test_exponential_over_several_sample_blocks(self, T, n):
        # several blocks of paths, and a path longer than one block
        rng, rng_ref = np.random.default_rng(T + n), np.random.default_rng(T + n)
        expected = -0.7 * np.log1p(-rng_ref.random((n, T)))
        assert np.array_equal(ExponentialVbrService(0.7).sample_increments(rng, T, n), expected)
        assert np.array_equal(rng.random(5), rng_ref.random(5))

    @pytest.mark.parametrize("T, n", SAMPLER_SHAPES)
    def test_leftover_with_constant_base(self, T, n):
        model = LeftoverService(DeterministicService(1.0), ExponentialArrivals(0.6))
        rng, rng_ref = np.random.default_rng(T * n), np.random.default_rng(T * n)
        expected = np.full((n, T), 1.0) - (-0.6 * np.log1p(-rng_ref.random((n, T))))
        assert np.array_equal(model.sample_increments(rng, T, n), expected)
        assert np.array_equal(rng.random(5), rng_ref.random(5))

    def test_leftover_with_random_base(self):
        model = LeftoverService(ExponentialVbrService(2.0), ExponentialArrivals(0.6))
        rng, rng_ref = np.random.default_rng(5), np.random.default_rng(5)
        base = model.base.sample_increments(rng_ref, 30, 4)
        expected = base - model.cross.sample_increments(rng_ref, 30, 4)
        assert np.array_equal(model.sample_increments(rng, 30, 4), expected)
        assert np.array_equal(rng.random(5), rng_ref.random(5))

    @pytest.mark.parametrize("p00, p11", [(0.2, 0.9), (0.5, 0.5), (0.0, 1.0), (1.0, 0.3)])
    @pytest.mark.parametrize("T, n", SAMPLER_SHAPES)
    def test_batch_two_state_chain(self, p00, p11, T, n):
        from winflow.models import _sample_two_state_chain

        rng, rng_ref = np.random.default_rng([T, n]), np.random.default_rng([T, n])
        expected = where_chain(rng_ref, p00, p11, MmooService(p00, p11, 1.0).on_probability, T, n)
        states = _sample_two_state_chain(rng, p00, p11, T, n)
        assert states.dtype == expected.dtype
        assert np.array_equal(states, expected)
        assert np.array_equal(rng.random(5), rng_ref.random(5))

    def test_on_off_batch(self):
        rng, rng_ref = np.random.default_rng(8), np.random.default_rng(8)
        states = where_chain(rng_ref, MMOO.p00, MMOO.p11, MMOO.on_probability, 50, 1000)
        expected = np.where(states == 1, 1.125, 0.0)
        assert np.array_equal(MMOO.sample_increments(rng, 50, 1000), expected)
        assert np.array_equal(rng.random(5), rng_ref.random(5))


class TestErlangQuantile:
    SHAPES = np.array([1, 2, 5, 20, 80, 1000, 10_000])

    def test_against_scipy_inverse(self):
        for eps in (1e-12, 1e-9, 1e-6, 1e-4, 0.3, 0.5, 0.97):
            ref = scipy.special.gammaincinv(self.SHAPES, eps) * 1.7
            mine = erlang_quantile(eps, self.SHAPES, 1.7)
            np.testing.assert_allclose(mine, ref, rtol=1e-12, atol=0)
            for n, expected in zip(self.SHAPES, ref):
                assert erlang_quantile(eps, int(n), 1.7) == pytest.approx(expected, rel=1e-12, abs=0)

    def test_array_call_equals_scalar_calls_bit_for_bit(self):
        shapes = np.arange(1, 1001)
        whole = erlang_quantile(1e-6, shapes, 0.1)
        assert whole.shape == shapes.shape
        assert np.array_equal(whole, [erlang_quantile(1e-6, int(n), 0.1) for n in shapes])
        assert np.ndim(erlang_quantile(1e-6, 7, 0.1)) == 0
        grid = erlang_quantile(0.3, shapes.reshape(20, 50), 0.1)
        assert np.array_equal(grid, erlang_quantile(0.3, shapes, 0.1).reshape(20, 50))

    def test_cdf_round_trip(self):
        x = erlang_quantile(0.123, 7, 2.0)
        assert regularized_lower_gamma(7, x / 2.0) == pytest.approx(0.123, abs=1e-9)

    def test_regularized_gamma_against_scipy(self):
        shapes = (0.5, 1.0, 3.0, 12.0, 60.0)
        points = (0.0, 0.2, 1.0, 5.0, 40.0, 200.0)
        for a in shapes:
            for x in points:
                assert regularized_lower_gamma(a, x) == pytest.approx(
                    float(scipy.special.gammainc(a, x)), abs=1e-12
                )
        a, x = np.meshgrid(shapes, points)
        np.testing.assert_allclose(
            regularized_lower_gamma(a, x), scipy.special.gammainc(a, x), rtol=0, atol=1e-12
        )

    def test_regularized_gamma_far_right_of_the_shape(self):
        # partial sums past the float range are rescaled, not overflowed
        a, x = np.array([0.5, 3.0, 1e4]), np.array([800.0, 5000.0, 2000.0])
        np.testing.assert_allclose(
            regularized_lower_gamma(a, x), scipy.special.gammainc(a, x), rtol=0, atol=1e-12
        )

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            erlang_quantile(0.0, 1, 1.0)
        with pytest.raises(ValueError):
            erlang_quantile(0.5, 0, 1.0)
        with pytest.raises(ValueError):
            erlang_quantile(0.5, 1, 0.0)
        with pytest.raises(ValueError):
            erlang_quantile(math.nan, 1, 1.0)
        for mean in (math.nan, math.inf):
            with pytest.raises(ValueError):
                erlang_quantile(0.5, 1, mean)
        with pytest.raises(ValueError):
            erlang_quantile(0.5, np.array([3, 0, 5]), 1.0)
        for a, x in ((0.0, 1.0), (math.nan, 1.0), (1.0, -1.0), (1.0, math.nan), (1.0, math.inf)):
            with pytest.raises(ValueError):
                regularized_lower_gamma(a, x)

    def test_non_convergence_raises(self, monkeypatch):
        import winflow.models as models

        monkeypatch.setattr(models, "_NEWTON_MAX_STEPS", 1)
        with pytest.raises(RuntimeError, match="did not converge"):
            erlang_quantile(1e-6, self.SHAPES, 1.0)
        monkeypatch.setattr(models, "_SERIES_MAX_TERMS", 16)
        with pytest.raises(RuntimeError, match="did not converge"):
            regularized_lower_gamma(3.0, 40.0)
