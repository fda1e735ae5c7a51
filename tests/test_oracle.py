"""Exact equivalent-service oracle tests.

The independent reference here enumerates every admissible placement of
disjoint windows of length at most d inside [s, t]; each window erases the
service it covers and charges w.  This enumeration is exponential but exact,
and it is the semantic ground truth the dynamic program, the batch
evaluator, and the dioid-closure route must all reproduce.  ``reference_dp``
and ``reference_batch`` are the tests' one copy of each dynamic program,
written plainly: the oracles must equal them bit for bit.
"""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import two_product_operand
from winflow.algebra import BivariateFunction, convolve, subadditive_closure
from winflow.bounds import FeedbackParams
from winflow.models import (
    DeterministicService,
    ExponentialArrivals,
    ExponentialVbrService,
    LeftoverService,
    MarkovModulated2Service,
)
from winflow.oracle import (
    SamplePath,
    apriori_envelope,
    equivalent_service_batch,
    equivalent_service_closure,
    equivalent_service_dp,
    equivalent_service_dp_row,
    _feedback_operand,
)
from winflow.verify import MMOO_REFERENCE, random_feedback_instance


def reference_batch(increments, params, t):
    """The batch dynamic program with one row per path and the whole
    (n, t + 1) table of H, stored by column so that a step's window minimum
    reads contiguous memory."""
    inc = np.asarray(increments, dtype=float)
    n = inc.shape[0]
    if t == 0:
        return np.zeros(n)
    d, w = params.d, params.w
    cum = np.concatenate((np.zeros((n, 1)), np.cumsum(inc[:, :t], axis=1)), axis=1)
    g = np.zeros(n)
    h = np.empty((n, t + 1), order="F")
    h[:, 0] = 0.0
    for j in range(1, t + 1):
        lo = max(0, j - d)
        best = np.min(h[:, lo:j], axis=1)
        g = np.minimum(g, w - cum[:, j] + best)
        h[:, j] = g + cum[:, j]
    return cum[:, t] + g


def reference_dp(path, params, s, t):
    """The scalar dynamic program on a list of H, one window slice a step."""
    if t == s:
        return 0.0
    d, w = params.d, params.w
    cum = path.cumulative[s : t + 1].tolist()
    g = 0.0
    H = [cum[0]]
    for j in range(1, len(cum)):
        g = min(g, w - cum[j] + min(H[max(0, j - d) : j]))
        H.append(g + cum[j])
    return cum[-1] - cum[0] + g


PATH_FAMILIES = {
    "exponential": ExponentialVbrService(1.0),
    "on-off": MMOO_REFERENCE,
    "leftover": LeftoverService(DeterministicService(1.0), ExponentialArrivals(0.6)),
}

# path counts from one to past 8,192, across the powers of two 4,096 and
# 8,192: the one pass over all paths must give each count the same bits
PATH_COUNTS = (1, 4095, 4096, 4097, 8195)

# every batch sampler: the path families, the constant law and a two-state
# chain of two random laws
SAMPLERS = {
    **PATH_FAMILIES,
    "constant": DeterministicService(1.0),
    "two-state": MarkovModulated2Service(0.2, 0.9, ExponentialVbrService(0.5), ExponentialVbrService(2.0)),
}

# the batch program against its reference: (d, seed tag, T, path counts,
# windows per slot of delay, t values)
BATCH_CASES = [
    *((d, (), 64, (400,), (0.05, 0.9), (0, 1, d, 64)) for d in (1, 2, 3, 5, 7, 60)),
    *((d, (7,), 50, (300,), (0.05, 0.9), (0, 1, 10, 50)) for d in (1, 2, 5, 60)),
    *((d, (12,), 64, PATH_COUNTS, (0.4,), (1, d, 64)) for d in (1, 5, 60)),
]

# the scalar program against its reference: (seed tag, T, delays, s and t values)
DP_CASES = [((), 20, (1, 2, 3, 5, 7, 60), range(21)), ((11,), 50, (1, 2, 5, 60), (0, 1, 10, 50))]


def brute_force_equivalent_service(path, params, s, t):
    """Enumerate all disjoint window collections of length <= d in [s, t]."""
    inc = path.increments
    d, w = params.d, params.w
    best = [0.0]

    def recurse(position, cost):
        best[0] = min(best[0], cost)
        for start in range(position, t):
            for end in range(start + 1, min(start + d, t) + 1):
                erased = float(np.sum(inc[start:end]))
                recurse(end, cost + w - erased)

    recurse(s, 0.0)
    return float(np.sum(inc[s:t])) + best[0]


def enumerate_gap_restricted(path, params, s, t):
    """Minimum over full-length windows whose start points are >= d apart,
    plus the all-erased fallback; matches the dynamic program only on
    non-negative paths."""
    cum = path.cumulative
    d, w = params.d, params.w
    span = t - s
    best = cum[t] - cum[s]
    others = []

    def chains(prefix, last_end):
        n = len(prefix)
        if n >= 1:
            value = (
                sum(cum[tau - d] - cum[prev] for prev, tau in zip([s] + prefix[:-1], prefix))
                + (cum[t] - cum[prefix[-1]])
                + n * w
            )
            others.append(value)
        for tau in range(max(last_end + d, s + d), t + 1):
            chains(prefix + [tau], tau)

    chains([], s - d)
    candidates = [best] + others + [math.ceil(span / d) * w]
    return min(candidates)


class TestAgainstBruteForce:
    def test_spec_example_path(self):
        # enumeration over window placements gives 4 for this instance
        path = SamplePath([3.0, 1.0, 4.0])
        fb = FeedbackParams(w=2.0, d=2)
        assert brute_force_equivalent_service(path, fb, 0, 3) == pytest.approx(4.0)
        assert equivalent_service_dp(path, fb, 0, 3) == pytest.approx(4.0, abs=1e-12)

    def test_dp_matches_enumeration_on_mixed_sign_paths(self, rng):
        for _ in range(120):
            path, fb = random_feedback_instance(rng, max_horizon=8)
            T = path.horizon
            for s in range(T + 1):
                for t in range(s, T + 1):
                    expected = brute_force_equivalent_service(path, fb, s, t)
                    got = equivalent_service_dp(path, fb, s, t)
                    assert got == pytest.approx(expected, abs=1e-9)

    def test_gap_restricted_enumeration_agrees_on_nonnegative_paths(self, rng):
        for _ in range(60):
            T = int(rng.integers(2, 8))
            path = SamplePath(rng.exponential(1.0, T))
            fb = FeedbackParams(w=float(rng.uniform(0.1, 3.0)), d=int(rng.choice([1, 2, 3])))
            a = enumerate_gap_restricted(path, fb, 0, T)
            b = equivalent_service_dp(path, fb, 0, T)
            assert a == pytest.approx(b, abs=1e-9)

    def test_gap_restricted_form_is_not_exact_on_signed_paths(self):
        # on leftover-style paths short windows can beat full-length ones,
        # so the gap-restricted value stays strictly above the true minimum
        path = SamplePath([10.0, -5.0])
        fb = FeedbackParams(w=1.0, d=2)
        restricted = enumerate_gap_restricted(path, fb, 0, 2)
        true_value = brute_force_equivalent_service(path, fb, 0, 2)
        assert true_value == pytest.approx(-4.0)
        assert restricted == pytest.approx(1.0)
        assert equivalent_service_dp(path, fb, 0, 2) == pytest.approx(true_value, abs=1e-12)


class TestDualOracle:
    def test_batch_matches_scalar(self, rng):
        paths = rng.exponential(1.0, size=(50, 16))
        paths[25:] = 1.0 - rng.exponential(0.6, size=(25, 16))
        for d, w in [(1, 0.4), (3, 1.7), (5, 0.9)]:
            fb = FeedbackParams(w=w, d=d)
            for t in (0, 1, 7, 16):
                batch = equivalent_service_batch(paths, fb, t)
                for i in range(paths.shape[0]):
                    scalar = equivalent_service_dp(SamplePath(paths[i]), fb, 0, t)
                    assert batch[i] == pytest.approx(scalar, abs=1e-9)

    @pytest.mark.parametrize("family", sorted(PATH_FAMILIES))
    @pytest.mark.parametrize(
        "d, tag, T, counts, rates, times",
        BATCH_CASES,
        ids=[f"d{c[0]}-T{c[2]}-n{c[3][-1]}" for c in BATCH_CASES],
    )
    def test_batch_bit_identical_to_reference(self, family, d, tag, T, counts, rates, times):
        rng = np.random.default_rng([d, *tag, len(family)])
        paths = PATH_FAMILIES[family].sample_increments(rng, T, counts[-1])
        if family == "leftover":
            assert paths.min() < 0.0
        batches = [paths[:n] for n in counts]
        for rate in rates:
            fb = FeedbackParams(w=rate * d, d=d)
            for batch in batches:
                for t in times:
                    assert np.array_equal(
                        equivalent_service_batch(batch, fb, t), reference_batch(batch, fb, t)
                    ), (rate, len(batch), t)

    @pytest.mark.parametrize("family", sorted(PATH_FAMILIES))
    @pytest.mark.parametrize("tag, T, delays, times", DP_CASES, ids=[f"T{c[1]}" for c in DP_CASES])
    def test_dp_bit_identical_to_reference(self, family, tag, T, delays, times):
        rng = np.random.default_rng([*tag, len(family)])
        path = SamplePath(PATH_FAMILIES[family].sample_increments(rng, T, 1)[0])
        for d in delays:
            fb = FeedbackParams(w=float(rng.uniform(0.05, 1.5)) * d, d=d)
            for s in times:
                for t in times:
                    if s <= t:
                        assert equivalent_service_dp(path, fb, s, t) == reference_dp(path, fb, s, t)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_batch_rejects_non_finite_increments(self, bad):
        fb = FeedbackParams(w=0.5, d=3)
        # (paths, the path and the slot of the bad value): the last case puts
        # it in the last slot of the last of many paths
        for n, row, slot in ((3, 1, 0), (3, 1, 4), (3, 1, 9), (PATH_COUNTS[-1], -1, 9)):
            paths = np.ones((n, 10))
            paths[row, slot] = bad
            with pytest.raises(ValueError, match="finite"):
                equivalent_service_batch(paths, fb, 10)
            # slots at or after t are never read
            assert np.all(np.isfinite(equivalent_service_batch(paths, fb, slot)))

    # d = 64 exceeds every horizon drawn here
    @pytest.mark.parametrize("d", [1, 2, 5, 64])
    def test_direct_operand_equals_two_products(self, d):
        rng = np.random.default_rng(2024)
        signed = 0
        for _ in range(40):
            path, fb = random_feedback_instance(rng, max_horizon=40)
            fb = FeedbackParams(w=fb.w, d=d)
            signed += path.increments.min() < 0.0
            S = BivariateFunction.from_increments(path.increments, check=False)
            operand = two_product_operand(S, fb)
            assert np.array_equal(_feedback_operand(S.table, fb), operand.table)
            assert equivalent_service_closure(path, fb).equals(convolve(subadditive_closure(operand), S))
        assert signed > 0

    def test_closure_horizon_guard(self):
        path = SamplePath(np.ones(80))
        with pytest.raises(ValueError, match="horizon"):
            equivalent_service_closure(path, FeedbackParams(w=1.0, d=1))

    def test_closure_accepts_a_shorter_prefix(self):
        path = SamplePath(np.ones(80))
        table = equivalent_service_closure(SamplePath(path.increments[:10]), FeedbackParams(w=0.5, d=1))
        assert table.horizon == 10
        assert table.value(0, 10) == pytest.approx(5.0)  # min(1, 0.5) per slot


class TestResumableDp:
    """A path keeps one pass of the scalar program, for its last (w, d, s):
    no order of calls shows in a value, and the pass holds 8 bytes a
    reached t."""

    @pytest.mark.parametrize("family", sorted(PATH_FAMILIES))
    @pytest.mark.parametrize("d", [1, 2, 5, 60])
    def test_any_call_order_gives_the_fresh_path_bits(self, family, d):
        T = 40
        rng = np.random.default_rng([d, 28, len(family)])
        inc = PATH_FAMILIES[family].sample_increments(rng, T, 1)[0]
        # two equal-valued objects, another w at the same d, another d
        fbs = [
            FeedbackParams(w=0.3 * d, d=d),
            FeedbackParams(w=0.3 * d, d=d),
            FeedbackParams(w=0.8 * d, d=d),
            FeedbackParams(w=0.3 * d, d=d + 1),
        ]
        queries = []
        for fb in fbs[:3]:
            for s in (0, 7, 0):
                queries += [(fb, s, t) for t in range(s, T + 1, 3)]
                queries += [(fb, s, t) for t in range(T, s - 1, -4)]
        # interleaved params at one s: each call replaces the other's pass
        queries += [(fbs[t % 4], 5, t) for t in range(5, T + 1)]
        picks = [
            (fbs[int(rng.integers(4))], int(s), int(t))
            for s, t in np.sort(rng.integers(0, T + 1, size=(300, 2)), axis=1)
        ]
        queries += picks + [(fb, s, s) for fb, s, _ in picks[:20]]
        order = rng.permutation(len(queries))
        shared = SamplePath(inc)
        text = repr(shared)
        for k in list(range(len(queries))) + list(order):
            fb, s, t = queries[k]
            assert equivalent_service_dp(shared, fb, s, t) == equivalent_service_dp(
                SamplePath(inc), fb, s, t
            ), (fb, s, t)
        assert repr(shared) == text

    def test_a_short_call_on_a_long_path_reads_its_span(self):
        path = SamplePath(np.random.default_rng(5).exponential(1.0, 10**6))
        fb = FeedbackParams(w=1.5, d=60)
        for s in (0, 500_000, 10**6 - 3):
            tracemalloc.start()
            try:
                equivalent_service_dp(path, fb, s, s + 3)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 64 * 2**10

    @pytest.mark.parametrize("T, d", [(20_000, 5), (3_000, 3_000)])
    def test_a_sweep_retains_eight_bytes_a_slot(self, T, d):
        # array('d') over-allocates by at most 1/16 as it grows; a list of
        # floats would hold 32 bytes a slot, and a window kept past the
        # horizon 32 bytes an entry of it
        path = SamplePath(np.random.default_rng(6).exponential(1.0, T))
        fb = FeedbackParams(w=0.6 * d, d=d)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for t in range(T + 1):
                equivalent_service_dp(path, fb, 0, t)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained <= 8.5 * (T + 1) + 16 * 2**10

    @pytest.mark.parametrize("family", sorted(PATH_FAMILIES))
    @pytest.mark.parametrize("d", [1, 2, 5, 60])
    def test_row_equals_the_per_t_calls(self, family, d):
        T = 40
        rng = np.random.default_rng([d, 32, len(family)])
        inc = PATH_FAMILIES[family].sample_increments(rng, T, 1)[0]
        fbs = [FeedbackParams(w=0.3 * d, d=d), FeedbackParams(w=0.8 * d, d=d)]
        spans = [(int(s), int(t)) for s, t in np.sort(rng.integers(0, T + 1, size=(150, 2)), axis=1)]
        spans += [(0, T), (T, T), (0, 0), (7, 8)]
        shared = SamplePath(inc)
        for k in rng.permutation(2 * len(spans)):
            fb, (s, t) = fbs[k % 2], spans[k // 2]
            if k % 3 == 0:  # a scalar call on the shared path in between
                equivalent_service_dp(shared, fb, s, int(rng.integers(s, T + 1)))
            row = equivalent_service_dp_row(shared, fb, s, t)
            expected = [equivalent_service_dp(SamplePath(inc), fb, s, u) for u in range(s, t + 1)]
            assert row.dtype == np.float64 and np.array_equal(row, expected), (fb, s, t)


class TestResumableBatch:
    """The batch evaluator keeps one pass, on its last read-only batch and
    (w, d): no order of calls shows in a value, a batch that can change is
    read afresh, and the entry goes with its batch or with a raise."""

    @pytest.mark.parametrize("family", sorted(PATH_FAMILIES))
    @pytest.mark.parametrize("d", [1, 2, 5, 60])
    def test_every_call_order_gives_the_fresh_copy_bits(self, family, d):
        T = 64
        rng = np.random.default_rng([d, 32, len(family)])
        paths = PATH_FAMILIES[family].sample_increments(rng, T, 8)
        assert not paths.flags.writeable
        copy = paths.copy()
        fbs = [FeedbackParams(w=0.4 * d, d=d), FeedbackParams(w=0.9 * d, d=d)]
        last, *rest = sorted({0, 1, 7, d, 25, 50})
        fresh = {(fb.w, t): equivalent_service_batch(copy, fb, t) for fb in fbs for t in rest + [last]}
        # the run p, last, p holds every rotation of (p, last): every order
        # of the times, each as consecutive calls on the one batch
        calls = [t for p in itertools.permutations(rest) for t in (*p, last, *p)]
        for k, t in enumerate(calls):
            # every fifth call at the other w, which replaces the entry
            fb = fbs[k % 5 == 4]
            got = equivalent_service_batch(paths, fb, t)
            assert np.array_equal(got, fresh[fb.w, t]), (k, fb, t)

    @pytest.mark.parametrize("view", [False, True], ids=["writeable", "read-only view"])
    def test_a_batch_that_can_change_is_read_afresh(self, view):
        fb = FeedbackParams(w=2.0, d=5)
        base = ExponentialVbrService(1.0).sample_increments(np.random.default_rng(32), 50, 40).copy()
        paths = base.view() if view else base
        paths.flags.writeable = not view
        for t, scale in ((10, 1.0), (25, 2.0), (50, 0.5), (7, 3.0), (50, 0.25)):
            base *= scale
            # the reference program, so that no other call comes in between
            expected = reference_batch(base, fb, t)
            assert np.array_equal(equivalent_service_batch(paths, fb, t), expected), t

    def test_a_collected_batch_leaves_no_entry(self):
        # the entry holds (d + 2) rows of paths, 5.6 MB here
        n, d, t = 100_000, 5, 50
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            paths = ExponentialVbrService(1.0).sample_increments(np.random.default_rng(4), t, n)
            values = equivalent_service_batch(paths, FeedbackParams(w=2.5, d=d), t)
            del paths, values
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 2**20

    @pytest.mark.parametrize("trap", ["errstate", "warning"])
    def test_a_call_that_raises_leaves_no_entry(self, trap):
        # slots 30 and 31 overflow the running sum at step 32, mid-pass
        fb = FeedbackParams(w=1.5, d=3)
        paths = np.ones((4, 50))
        paths[:, 30:32] = 1e308
        expected = {t: reference_batch(paths, fb, t) for t in (10, 20, 30)}
        paths.flags.writeable = False
        assert np.array_equal(equivalent_service_batch(paths, fb, 10), expected[10])
        with warnings.catch_warnings(), np.errstate(over="raise" if trap == "errstate" else "warn"):
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises((FloatingPointError, RuntimeWarning)):
                equivalent_service_batch(paths, fb, 50)
        # a half-advanced pass would answer from slots past 30
        for t in (20, 30, 10):
            assert np.array_equal(equivalent_service_batch(paths, fb, t), expected[t]), t


class TestBatchLayoutAndMemory:
    """The batch evaluator takes every path in one time-major pass over a
    ring of min(d, t) rows: no memory layout shows in the result, the
    working memory is that window of rows, every sampler hands it a
    time-major read-only batch, and an empty batch gives an empty result."""

    def test_no_paths(self):
        fb = FeedbackParams(w=0.5, d=3)
        for t in (0, 1, 10):
            out = equivalent_service_batch(np.zeros((0, 10)), fb, t)
            assert out.shape == (0,)
            assert out.dtype == np.float64

    @pytest.mark.parametrize("family", sorted(PATH_FAMILIES))
    @pytest.mark.parametrize("d", [1, 5])
    def test_any_layout_gives_the_same_bits(self, family, d):
        # each slot is read as a column view of the input: contiguous for
        # F-order input and F column slices, strided for the others; every
        # layout must equal the C-order result
        T = 64
        rng = np.random.default_rng([d, 23, len(family)])
        paths = np.ascontiguousarray(
            PATH_FAMILIES[family].sample_increments(rng, T, 2 * PATH_COUNTS[-1])
        )
        wide = np.zeros((len(paths), T + 7), order="F")
        wide[:, 3 : 3 + T] = paths
        fb = FeedbackParams(w=0.4 * d, d=d)
        for n in PATH_COUNTS:
            layouts = {
                "fortran": np.asfortranarray(paths[:n]),
                "fortran column slice": wide[:n, 3 : 3 + T],
                "every other path": paths[: 2 * n : 2],
                "every other fortran path": np.asfortranarray(paths[: 2 * n])[::2],
            }
            for t in sorted({0, 1, d, T}):
                for name, view in layouts.items():
                    expected = equivalent_service_batch(np.ascontiguousarray(view), fb, t)
                    assert np.array_equal(equivalent_service_batch(view, fb, t), expected), (
                        name,
                        n,
                        t,
                    )

    @pytest.mark.parametrize("family", sorted(SAMPLERS))
    @pytest.mark.parametrize("T, n", [(7, 3), (50, 1000), (64, PATH_COUNTS[-1])])
    def test_batch_samples_are_time_major(self, family, T, n):
        # and read-only, down to the array that owns them, at any n
        for count in (1, n):
            paths = SAMPLERS[family].sample_increments(np.random.default_rng(T), T, count)
            assert paths.shape == (count, T)
            owner = paths if paths.base is None else paths.base
            assert owner.base is None
            assert not paths.flags.writeable and not owner.flags.writeable
        assert paths.flags.f_contiguous and not paths.flags.c_contiguous

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_working_memory_is_a_window_of_rows(self, order):
        # the two (n, t + 1) tables of a whole-table program take 80 MiB here;
        # the ring holds min(d, t) rows of paths, and a few more rows carry
        # the running sums, the step's scratch and the result
        n, d, t = 100_000, 5, 50
        paths = np.random.default_rng(3).exponential(1.0, size=(n, t))
        paths = np.asarray(paths, order=order)
        tracemalloc.start()
        try:
            equivalent_service_batch(paths, FeedbackParams(w=2.5, d=d), t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert peak <= (min(d, t) + 6) * n * 8


@settings(max_examples=40)
@given(
    n=st.one_of(*(st.integers(max(1, e - 2), e + 2) for e in PATH_COUNTS)),
    horizon=st.integers(1, 64),
    d=st.integers(1, 70),
    w_per_slot=st.floats(0.02, 2.0),
    family=st.sampled_from(sorted(PATH_FAMILIES)),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_batch_property(n, horizon, d, w_per_slot, family, seed, data):
    """At path counts near PATH_COUNTS the batch equals the reference program
    bit for bit and the scalar program within 1e-9, signed leftover paths
    included."""
    paths = PATH_FAMILIES[family].sample_increments(np.random.default_rng(seed), horizon, n)
    t = data.draw(st.integers(0, horizon), label="t")
    fb = FeedbackParams(w=w_per_slot * d, d=d)
    batch = equivalent_service_batch(paths, fb, t)
    assert np.array_equal(batch, reference_batch(paths, fb, t))
    edges = {0, n - 1, min(n - 1, 4095), min(n - 1, 4096)}
    for i in edges | {data.draw(st.integers(0, n - 1), label="path")}:
        scalar = equivalent_service_dp(SamplePath(paths[i]), fb, 0, t)
        assert batch[i] == pytest.approx(scalar, abs=1e-9)


class TestStructure:
    def test_delay_one_is_the_per_slot_cap(self, rng):
        for _ in range(40):
            T = int(rng.integers(1, 20))
            inc = rng.exponential(1.0, T)
            w = float(rng.uniform(0.05, 2.5))
            path = SamplePath(inc)
            expected = float(np.minimum(inc, w).sum())
            assert equivalent_service_dp(path, FeedbackParams(w=w, d=1), 0, T) == pytest.approx(
                expected, abs=1e-12
            )

    def test_huge_window_restores_raw_service(self, rng):
        inc = rng.exponential(1.0, 12)
        path = SamplePath(inc)
        fb = FeedbackParams(w=1e9, d=3)
        assert equivalent_service_dp(path, fb, 0, 12) == pytest.approx(
            path.interval(0, 12), abs=1e-9
        )

    def test_empty_interval_is_zero(self):
        path = SamplePath([1.0, 2.0])
        assert equivalent_service_dp(path, FeedbackParams(w=1.0, d=2), 1, 1) == 0.0

    def test_monotone_in_window_size(self, rng):
        inc = rng.exponential(1.0, 10)
        path = SamplePath(inc)
        previous = -math.inf
        for w in (0.1, 0.5, 1.0, 2.0, 8.0):
            value = equivalent_service_dp(path, FeedbackParams(w=w, d=2), 0, 10)
            assert value >= previous - 1e-12
            previous = value

    def test_monotone_in_time_for_nonnegative_paths(self, rng):
        inc = rng.exponential(1.0, 14)
        path = SamplePath(inc)
        fb = FeedbackParams(w=0.8, d=3)
        values = [equivalent_service_dp(path, fb, 0, t) for t in range(15)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_deterministic_long_run_slope(self):
        # constant-rate path: the equivalent service tracks min(C, w/d)
        C, w, d, T = 1.0, 0.6, 3, 60
        path = SamplePath(np.full(T, C))
        fb = FeedbackParams(w=w, d=d)
        value = equivalent_service_dp(path, fb, 0, T)
        assert value <= min(C * T, math.ceil(T / d) * w) + 1e-12
        assert value / T == pytest.approx(min(C, w / d), rel=0.05)


class TestAprioriEnvelope:
    def test_envelope_brackets_dp_everywhere(self, rng):
        for _ in range(80):
            path, fb = random_feedback_instance(rng, max_horizon=12)
            lower, upper = apriori_envelope(path, fb)
            T = path.horizon
            assert lower.shape == upper.shape == (T + 1, T + 1)
            for s in range(T + 1):
                assert np.all(lower[s, :s] == -math.inf) and np.all(upper[s, :s] == math.inf)
                for t in range(s, T + 1):
                    capped = np.minimum(path.increments[s:t], fb.rate_cap).sum()
                    assert lower[s, t] == pytest.approx(capped, abs=1e-12)
                    windows = math.ceil((t - s) / fb.d) * fb.w
                    assert upper[s, t] == min(path.interval(s, t), windows)
                    mid = equivalent_service_dp(path, fb, s, t)
                    assert lower[s, t] - 1e-9 <= mid <= upper[s, t] + 1e-9

    def test_delay_one_lower_bound_is_tight(self, rng):
        inc = rng.exponential(1.0, 10)
        path = SamplePath(inc)
        fb = FeedbackParams(w=0.7, d=1)
        lower, _ = apriori_envelope(path, fb)
        assert lower[0, 10] == pytest.approx(equivalent_service_dp(path, fb, 0, 10), abs=1e-12)

    def test_constant_rate_lower_bound(self):
        path = SamplePath(np.full(9, 2.0))
        lower, _ = apriori_envelope(path, FeedbackParams(w=3.0, d=2))
        assert lower[0, 9] == pytest.approx(min(2.0, 1.5) * 9, abs=1e-12)

    def test_negative_increments_run_through_both_oracles(self, rng):
        inc = 1.0 - rng.exponential(1.0, 10)
        assert np.min(inc) < 0
        path = SamplePath(inc)
        fb = FeedbackParams(w=0.5, d=2)
        table = equivalent_service_closure(path, fb)
        lower, upper = apriori_envelope(path, fb)
        for t in range(11):
            value = equivalent_service_dp(path, fb, 0, t)
            assert lower[0, t] - 1e-9 <= value <= upper[0, t] + 1e-9
            assert value == pytest.approx(table.value(0, t), abs=1e-9)


class TestSamplePath:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            SamplePath([1.0, math.inf])

    def test_rejects_matrix(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            SamplePath(np.ones((2, 2)))

    def test_interval_sums(self):
        path = SamplePath([1.0, 2.0, 4.0])
        assert path.interval(0, 3) == 7.0
        assert path.interval(1, 2) == 2.0
        assert path.horizon == 3
