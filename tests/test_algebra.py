"""Dioid algebra tests against plain reference programs.

``row_loop_product`` and ``power_iteration_closure`` are the tests' one
copy of the min-plus product and the subadditive closure, written plainly:
the algebra must equal them bit for bit.
"""

import numpy as np
import pytest

from conftest import make_delta_shift, two_product_operand
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
from winflow.verify import random_causal_table, random_feedback_instance, random_monotone_table


def row_loop_product(a, b):
    """The min-plus product as one broadcast per row."""
    n = a.shape[0]
    out = np.empty_like(a)
    for s in range(n):
        np.min(a[s][:, None] + b, axis=0, out=out[s])
    return out


def power_iteration_closure(f):
    """Running minimum of the powers until it stops changing."""
    horizon = f.horizon
    cap = horizon + 2
    running = make_delta(horizon).table
    term = running
    for _ in range(1, cap + 1):
        term = row_loop_product(term, f.table)
        updated = np.minimum(running, term)
        if np.array_equal(updated, running):
            return running
        running = updated
    raise ClosureNonConvergence(f"no fixed point within {cap} iterations")


def non_dyadic_table(rng, horizon):
    """A `verify` table times 1/3: still non-negative and monotone, but its
    entries and their sums round."""
    return BivariateFunction(random_monotone_table(rng, horizon).table / 3.0)


def additive(increments):
    return BivariateFunction.from_increments(increments)


# ---------------------------------------------------------------------------


class TestBivariateFunction:
    def test_additive_table_and_accessors(self):
        f = additive([2.0, 5.0, 1.0])
        assert f.horizon == 3
        assert f.value(0, 3) == 8.0
        assert f.value(1, 2) == 5.0

    def test_tables_are_immutable(self):
        f = additive([1.0])
        with pytest.raises(ValueError):
            f.table[0, 0] = 3.0


class TestDeltaElements:
    def test_delta_values(self):
        d = make_delta(3)
        assert d.value(1, 1) == 0.0
        assert d.value(1, 2) == INF

    def test_offset_element_values(self):
        dw = make_delta_plus_w(4, 2.0)
        assert dw.value(2, 2) == 2.0
        assert dw.value(1, 3) == INF

    def test_shift_zero_is_delta(self):
        assert make_delta_shift(5, 0).equals(make_delta(5))

    def test_shift_rejects_negative_delay(self):
        with pytest.raises(ValueError):
            make_delta_shift(5, -1)

    def test_shift_delays_additive_function(self):
        f = additive([1.0, 2.0, 3.0])
        shifted = convolve(f, make_delta_shift(3, 1))
        assert shifted.value(0, 3) == f.value(0, 2) == 3.0
        assert shifted.value(0, 1) == 0.0  # t - d clipped back to s

    def test_shifted_service_is_not_subadditive(self, rng):
        # strictly positive increments, delay one slot: splitting the
        # interval at tau=2 undercounts the shifted service
        f = additive(rng.uniform(0.5, 2.0, size=4))
        shifted = convolve(f, make_delta_shift(4, 1))
        split = shifted.value(0, 2) + shifted.value(2, 4)
        assert split < shifted.value(0, 4)


class TestPointwiseMin:
    def test_idempotent(self, rng):
        f = random_monotone_table(rng, 6)
        assert pointwise_min(f, f).equals(f)

    def test_min_of_delta_and_offset_is_delta(self):
        assert pointwise_min(make_delta(5), make_delta_plus_w(5, 0.5)).equals(make_delta(5))


class TestConvolve:
    def test_neutral_on_additive(self):
        f = additive([2.0, 5.0, 1.0])
        assert convolve(f, make_delta(3)).equals(f)

    def test_additive_functions_are_subadditive_fixed_points(self, rng):
        # dyadic increments keep interval sums exact under regrouping
        f = additive(rng.integers(0, 24, size=6) * 0.125)
        conv = convolve(f, f)
        assert conv.equals(f)
        assert conv.value(0, 6) == f.value(0, 6)

    def test_bit_identical_to_row_loop_product(self, rng):
        # horizons past 63 split the broadcast into several row blocks
        pairs = [
            (table(rng, horizon), table(rng, horizon))
            for horizon in (0, 1, 2, 7, 24, 48, 64, 65, 130)
            for table in (random_monotone_table, non_dyadic_table)
        ]
        dyadic = np.random.default_rng(1234)
        pairs += [(random_monotone_table(dyadic, 7), random_monotone_table(dyadic, 7)) for _ in range(30)]
        for f, g in pairs:
            assert np.array_equal(convolve(f, g).table, row_loop_product(f.table, g.table))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_delay_window_factorization(self, d):
        # d-fold product of (unit delay, w/d offset) equals (delay d, offset w)
        T, w = 9, 1.5
        once = convolve(make_delta_shift(T, 1), make_delta_plus_w(T, w / d))
        repeated = once
        for _ in range(d - 1):
            repeated = convolve(repeated, once)
        combined = convolve(make_delta_shift(T, d), make_delta_plus_w(T, w))
        assert np.allclose(repeated.table, combined.table)

    def test_exact_server_backlog_is_the_diagonal_sup(self, rng):
        # for an exact server D = A o S the backlog at t is
        # max over tau <= t of A(tau, t) - S(tau, t)
        for _ in range(20):
            T = 8
            A = additive(rng.uniform(0, 2, size=T))
            S = additive(rng.uniform(0, 2, size=T))
            D = convolve(A, S)
            for t in range(T + 1):
                backlog = A.value(0, t) - D.value(0, t)
                sup = max(A.value(tau, t) - S.value(tau, t) for tau in range(t + 1))
                assert backlog == pytest.approx(sup, abs=1e-12)


class TestSubadditiveClosure:
    def test_closure_of_delta_is_delta(self):
        assert subadditive_closure(make_delta(6)).equals(make_delta(6))

    def test_closure_of_offset_is_delta(self):
        assert subadditive_closure(make_delta_plus_w(6, 0.5)).equals(make_delta(6))

    def test_closure_of_subadditive_causal_function_is_itself(self, rng):
        # the closure of any causal function is subadditive and causal, so
        # closing it again must be a fixed point
        f = subadditive_closure(random_causal_table(rng, 7))
        assert subadditive_closure(f).equals(f)

    def test_bit_identical_to_power_iteration_on_feedback_operands(self):
        rng = np.random.default_rng(2024)
        horizons = []
        for _ in range(500):
            path, fb = random_feedback_instance(rng, max_horizon=48)
            service = BivariateFunction.from_increments(path.increments, check=False)
            operand = two_product_operand(service, fb)
            assert np.array_equal(
                subadditive_closure(operand).table, power_iteration_closure(operand)
            )
            horizons.append(path.horizon)
        assert max(horizons) == 48

    def test_bit_identical_to_power_iteration_on_tables(self, rng):
        # the non-dyadic tables round in their sums, so only chains summed
        # left to right, k ascending, give the powers' bits
        tables = [non_dyadic_table(rng, int(rng.integers(0, 13))) for _ in range(200)]
        dyadic = np.random.default_rng(1234)
        tables += [random_monotone_table(dyadic, 6) for _ in range(20)]
        for f in tables:
            assert np.array_equal(subadditive_closure(f).table, power_iteration_closure(f))


class TestFamilyPreservation:
    def test_outputs_remain_monotone_for_causal_or_constant_diagonal(self, rng):
        # arbitrary-diagonal right operands can break monotonicity across
        # the diagonal; every composition formed in this package uses a
        # causal or constant-diagonal right operand
        for _ in range(20):
            f = random_monotone_table(rng, 6)
            causal = random_causal_table(rng, 6)
            for result in (
                convolve(f, causal),
                convolve(f, make_delta_plus_w(6, 0.75)),
                convolve(f, make_delta_shift(6, 2)),
                pointwise_min(f, causal),
            ):
                BivariateFunction(result.table)  # raises outside the family
