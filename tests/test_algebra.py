"""Dioid algebra tests against naive reference implementations."""

import numpy as np
import pytest

from conftest import make_delta_shift
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
from winflow.verify import random_feedback_instance

# ---------------------------------------------------------------------------
# naive reference implementations, written for clarity not speed
# ---------------------------------------------------------------------------


def naive_convolve(f, g):
    n = f.horizon + 1
    out = np.full((n, n), INF)
    for s in range(n):
        for t in range(s, n):
            out[s, t] = min(f.table[s, tau] + g.table[tau, t] for tau in range(s, t + 1))
    return out


def naive_closure(f, max_power=40):
    running = make_delta(f.horizon).table.copy()
    power = make_delta(f.horizon)
    for _ in range(max_power):
        power = BivariateFunction(naive_convolve(power, f), check=False)
        running = np.minimum(running, power.table)
    return running


def row_loop_product(a, b):
    """The min-plus product as one broadcast per row, a literal copy of the
    product the algebra used before its blocked broadcast."""
    n = a.shape[0]
    out = np.empty_like(a)
    for s in range(n):
        np.min(a[s][:, None] + b, axis=0, out=out[s])
    return out


def power_iteration_closure(f):
    """Running minimum of the powers until it stops changing, a literal copy
    of the closure the algebra used before Floyd-Warshall."""
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


def feedback_operand(path, params):
    """S o delta_d o delta_plus_w on the path's horizon, as the closure
    oracle builds it."""
    T = path.horizon
    service = BivariateFunction.from_increments(path.increments, check=False)
    return convolve(
        convolve(service, make_delta_shift(T, params.d)), make_delta_plus_w(T, params.w)
    )


def random_table(rng, horizon, dyadic=True, inf_prob=0.15):
    """Random non-negative monotone table; dyadic values keep sums exact."""
    n = horizon + 1
    table = np.full((n, n), INF)
    for s in range(n):
        if dyadic:
            start = rng.integers(0, 40) * 0.125
            steps = rng.integers(0, 24, size=n - s - 1) * 0.125
        else:
            start = rng.uniform(0, 5)
            steps = rng.uniform(0, 3, size=n - s - 1)
        row = start + np.concatenate(([0.0], np.cumsum(steps)))
        if rng.random() < inf_prob and len(row) > 1:
            row[rng.integers(1, len(row)) :] = INF
        table[s, s:] = row
    return BivariateFunction(table)


def additive(increments):
    return BivariateFunction.from_increments(increments)


# ---------------------------------------------------------------------------


class TestBivariateFunction:
    def test_rejects_negative_values(self):
        with pytest.raises(ValueError, match="non-negative"):
            BivariateFunction(np.array([[0.0, -1.0], [0.0, 0.0]]))

    def test_rejects_non_monotone_rows(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            BivariateFunction(np.array([[0.0, 5.0, 1.0], [0.0, 0.0, 2.0], [0.0, 0.0, 0.0]]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            BivariateFunction(np.array([[np.nan]]))

    def test_additive_table_and_accessors(self):
        f = additive([2.0, 5.0, 1.0])
        assert f.horizon == 3
        assert f.value(0, 3) == 8.0
        assert f.value(1, 2) == 5.0
        with pytest.raises(IndexError):
            f.value(2, 1)

    def test_tables_are_immutable(self):
        f = additive([1.0])
        with pytest.raises(ValueError):
            f.table[0, 0] = 3.0


class TestDeltaElements:
    def test_delta_values(self):
        d = make_delta(3)
        assert d.value(1, 1) == 0.0
        assert d.value(1, 2) == INF

    def test_delta_is_neutral_both_sides(self, rng):
        # exhaustive over every horizon up to 10
        for T in range(11):
            f = random_table(rng, T)
            d = make_delta(T)
            assert convolve(d, f).equals(f)
            assert convolve(f, d).equals(f)

    def test_offset_element_values(self):
        dw = make_delta_plus_w(4, 2.0)
        assert dw.value(2, 2) == 2.0
        assert dw.value(1, 3) == INF

    def test_offset_element_rejects_nonpositive_w(self):
        with pytest.raises(ValueError):
            make_delta_plus_w(4, 0.0)
        with pytest.raises(ValueError):
            make_delta_plus_w(4, -1.0)

    def test_offset_adds_w_and_commutes(self, rng):
        f = random_table(rng, 7)
        dw = make_delta_plus_w(7, 1.5)
        left = convolve(f, dw)
        right = convolve(dw, f)
        assert left.equals(right)
        assert np.array_equal(left.table, f.table + 1.5)

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
        f = random_table(rng, 6)
        assert pointwise_min(f, f).equals(f)

    def test_min_of_delta_and_offset_is_delta(self):
        assert pointwise_min(make_delta(5), make_delta_plus_w(5, 0.5)).equals(make_delta(5))

    def test_convolution_distributes_over_min(self, rng):
        for _ in range(25):
            f = random_table(rng, 6)
            g = random_table(rng, 6)
            h = random_table(rng, 6)
            lhs = convolve(f, pointwise_min(g, h))
            rhs = pointwise_min(convolve(f, g), convolve(f, h))
            assert lhs.equals(rhs)

    def test_horizon_mismatch(self, rng):
        with pytest.raises(ValueError, match="horizon"):
            pointwise_min(random_table(rng, 3), random_table(rng, 4))


class TestConvolve:
    def test_matches_naive_reference(self, rng):
        for _ in range(30):
            f = random_table(rng, 7)
            g = random_table(rng, 7)
            assert np.array_equal(convolve(f, g).table, naive_convolve(f, g))

    def test_neutral_on_additive(self):
        f = additive([2.0, 5.0, 1.0])
        assert convolve(f, make_delta(3)).equals(f)

    def test_additive_functions_are_subadditive_fixed_points(self, rng):
        # dyadic increments keep interval sums exact under regrouping
        f = additive(rng.integers(0, 24, size=6) * 0.125)
        conv = convolve(f, f)
        assert conv.equals(f)
        assert conv.value(0, 6) == f.value(0, 6)

    def test_associativity(self, rng):
        for _ in range(25):
            f = random_table(rng, 8)
            g = random_table(rng, 8)
            h = random_table(rng, 8)
            assert convolve(convolve(f, g), h).equals(convolve(f, convolve(g, h)))

    def test_not_commutative_witness(self):
        f = additive([1.0, 5.0])
        g = additive([5.0, 1.0])
        left = convolve(f, g)
        right = convolve(g, f)
        assert not left.equals(right)
        assert left.value(0, 2) == 2.0
        assert right.value(0, 2) == 6.0

    def test_horizon_mismatch(self, rng):
        with pytest.raises(ValueError, match="horizon"):
            convolve(random_table(rng, 3), random_table(rng, 4))

    def test_bit_identical_to_row_loop_product(self, rng):
        # horizons past 63 split the broadcast into several row blocks
        for horizon in (0, 1, 2, 7, 24, 48, 64, 65, 130):
            for dyadic in (True, False):
                f = random_table(rng, horizon, dyadic=dyadic)
                g = random_table(rng, horizon, dyadic=dyadic)
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

    def test_matches_naive_closure(self, rng):
        for _ in range(20):
            f = random_table(rng, 6)
            assert np.array_equal(subadditive_closure(f).table, naive_closure(f))

    def test_closure_of_subadditive_causal_function_is_itself(self, rng):
        # the closure of any causal function is subadditive and causal, so
        # closing it again must be a fixed point
        base = random_table(rng, 7)
        table = np.array(base.table)
        np.fill_diagonal(table, 0.0)
        f = subadditive_closure(BivariateFunction(table))
        assert subadditive_closure(f).equals(f)

    def test_closure_is_subadditive(self, rng):
        for _ in range(20):
            f = random_table(rng, 7)
            c = subadditive_closure(f).table
            n = f.horizon + 1
            for s in range(n):
                for tau in range(s, n):
                    for t in range(tau, n):
                        assert c[s, t] <= c[s, tau] + c[tau, t] + 1e-12

    def test_nonconvergence_is_reported(self):
        # a negative diagonal drives the powers to minus infinity; the
        # closure must refuse rather than return a truncated answer
        table = np.array([[-0.5, 1.0], [INF, 0.0]])
        f = BivariateFunction(table, check=False)
        with pytest.raises(ClosureNonConvergence):
            subadditive_closure(f)

    def test_negative_diagonal_anywhere_is_refused(self, rng):
        table = np.array(random_table(rng, 9).table)
        table[6, 6] = -1e-9
        with pytest.raises(ClosureNonConvergence, match=r"k = \[6\]"):
            subadditive_closure(BivariateFunction(table, check=False))

    def test_bit_identical_to_power_iteration_on_feedback_operands(self):
        rng = np.random.default_rng(2024)
        horizons = []
        for _ in range(500):
            path, fb = random_feedback_instance(rng, max_horizon=48)
            operand = feedback_operand(path, fb)
            assert np.array_equal(
                subadditive_closure(operand).table, power_iteration_closure(operand)
            )
            horizons.append(path.horizon)
        assert max(horizons) == 48

    def test_bit_identical_to_power_iteration_on_non_dyadic_tables(self, rng):
        for _ in range(200):
            f = random_table(rng, int(rng.integers(0, 13)), dyadic=False)
            assert np.array_equal(subadditive_closure(f).table, power_iteration_closure(f))


class TestFamilyPreservation:
    def test_outputs_remain_monotone_for_causal_or_constant_diagonal(self, rng):
        # arbitrary-diagonal right operands can break monotonicity across
        # the diagonal; every composition formed in this package uses a
        # causal or constant-diagonal right operand
        for _ in range(20):
            f = random_table(rng, 6)
            causal_tab = np.array(random_table(rng, 6).table)
            np.fill_diagonal(causal_tab, 0.0)
            causal = BivariateFunction(causal_tab)
            for result in (
                convolve(f, causal),
                convolve(f, make_delta_plus_w(6, 0.75)),
                convolve(f, make_delta_shift(6, 2)),
                pointwise_min(f, causal),
            ):
                tab = result.table
                for s in range(7):
                    for t in range(s, 6):
                        assert tab[s, t] <= tab[s, t + 1]
                assert np.all(np.diag(tab) >= 0.0)
