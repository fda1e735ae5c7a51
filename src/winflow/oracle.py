"""Exact feedback-equivalent service on concrete sample paths.

Given one realized service path (c_0, ..., c_{T-1}) and feedback parameters
(w, d), the equivalent service of the closed loop over [s, t) is the
subadditive-closure expression

    S_eq = (S o delta_d o delta_plus_w)* o S

of the algebra module.  Expanding the closure shows that it equals

    S(s, t) + min over collections of disjoint subintervals of [s, t],
              each of length at most d, of  sum (w - S(subinterval)),

that is, every placed window erases the service of up to d consecutive
slots and charges w instead.  For non-negative paths the optimal windows
have full length d and start at least d apart, recovering the familiar
restricted index sequences; the interval form also covers paths with
negative increments (leftover service), where the restricted form is no
longer optimal.

Two independent routes compute the minimum exactly: a sliding-window
dynamic program over positions, and the dioid closure.  They serve as
ground truth for every analytic bound and for the simulator.  A batch
evaluator vectorizes the dynamic program across many paths.

Costs: the scalar program keeps one row per (path, params, s).  A path
holds its last (w, d, s) and the values at every t from s to the horizon,
built on the first call in O((T - s) * d) Python float operations, so any
sweep of t at fixed s costs that once, and the row retains 8 bytes a slot.
The closure table is O(T^3) array work in one min-plus product and a
Floyd-Warshall closure, after an O(d T^2) operand built by shifted
minima; the batch evaluator is one pass of t time-major row steps over all
paths, in O(min(d, t) * n_paths) working memory, and it is resumable:
on a read-only batch, such as every random batch sampler returns, calls at
t upward cost one pass to the largest t in all.  It reads each slot's
column of the input in place, whatever the layout; time-major (F-order)
input, which the random batch samplers return, makes those columns
contiguous.  The a-priori envelope is O(T^2) array work on two prefix sums.
"""

from __future__ import annotations

import weakref
from array import array
from collections import deque
from dataclasses import dataclass

import numpy as np

from .algebra import BivariateFunction, convolve, subadditive_closure
from .bounds import FeedbackParams

__all__ = [
    "SamplePath",
    "equivalent_service_dp",
    "equivalent_service_batch",
    "equivalent_service_closure",
    "apriori_envelope",
]

_CLOSURE_HORIZON_GUARD = 64


@dataclass(frozen=True)
class SamplePath:
    """One realized increment sequence; entries must be finite, may be negative."""

    increments: np.ndarray

    def __post_init__(self):
        inc = np.array(self.increments, dtype=float)
        if inc.ndim != 1:
            raise ValueError("increments must be one-dimensional")
        if not np.all(np.isfinite(inc)):
            raise ValueError("increments must be finite")
        inc.flags.writeable = False
        object.__setattr__(self, "increments", inc)
        cum = np.concatenate(([0.0], np.cumsum(inc)))
        cum.flags.writeable = False
        object.__setattr__(self, "_cumulative", cum)
        object.__setattr__(self, "_dp", None)

    @property
    def horizon(self) -> int:
        return len(self.increments)

    @property
    def cumulative(self) -> np.ndarray:
        return self._cumulative

    def interval(self, s: int, t: int) -> float:
        """Accumulated service over [s, t)."""
        return float(self._cumulative[t] - self._cumulative[s])


def _dp_row(path: SamplePath, params: FeedbackParams, s: int) -> array:
    """The scalar program's row from s: entry j is the equivalent service
    over [s, s + j), for j = 0 .. T - s."""
    w, cum = params.w, path.cumulative
    c0, g = float(cum[s]), 0.0
    H = deque([c0], maxlen=params.d)  # the last d of H(j) = G(j) + cum(s + j)
    row = array("d", [0.0])
    for c in cum[s + 1 :].tolist():
        v = w - c + min(H)
        if v < g:
            g = v
        H.append(g + c)
        row.append(c - c0 + g)
    return row


def equivalent_service_dp(path: SamplePath, params: FeedbackParams, s: int, t: int) -> float:
    """Exact equivalent service over [s, t) by dynamic programming.

    G(j) is the cheapest total window cost on [s, s + j); a step either
    leaves the next slot uncovered or ends a window of length <= d at it.
    The predecessor scan is the minimum of G(k) + cum(k) over the last d
    positions, kept in a deque of length d.
    Runs on Python floats, one path at a time.  The path keeps one row, for
    its last (w, d, s): the first call for a (w, d, s) computes the values
    at every t from s to the horizon, and each call reads its t from the
    row.  Another (w, d, s) replaces the row, which holds 8 bytes a slot.
    """
    if not 0 <= s <= t <= path.horizon:
        raise ValueError(f"need 0 <= s <= t <= {path.horizon}, got ({s}, {t})")
    key = (params.w, params.d, s)
    if path._dp is None or path._dp[0] != key:
        object.__setattr__(path, "_dp", (key, _dp_row(path, params, s)))
    return path._dp[1][t - s]


class _BatchPass:
    """The batch program on one batch for one (w, d), to step ``j``: the
    running sums and costs after it, and the ring of the last rows of H."""

    __slots__ = ("batch", "key", "j", "cum", "g", "ring")

    def __init__(self, inc: np.ndarray, key: tuple, width: int):
        self.batch, self.key, self.j = weakref.ref(inc, _forget_batch), key, 0
        # step j reads rows 0 .. j - 1 only: each row is written before it is read
        self.ring = np.empty((width, len(inc)))
        self.ring[0] = 0.0
        self.g = np.zeros(len(inc))
        # cum runs through the same additions as np.cumsum along the path
        self.cum = inc[:, 0].copy()


# the batch evaluator's one entry: its last pass on a read-only batch
_batch_pass: _BatchPass | None = None


def _forget_batch(ref: weakref.ref) -> None:
    """Drop the entry, rows and all, once its batch is collected."""
    global _batch_pass
    if _batch_pass is not None and _batch_pass.batch is ref:
        _batch_pass = None


def _read_only(a: np.ndarray) -> bool:
    """Whether ``a`` and every ndarray it views, down to the owner of the
    memory, are read-only: then no write through any array changes it."""
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return False
        a = a.base
    return a is None


def equivalent_service_batch(
    increments: np.ndarray, params: FeedbackParams, t: int
) -> np.ndarray:
    """Equivalent service over [0, t) for a batch of paths, shape (n_paths, T >= t).

    Vectorization of the scalar dynamic program across paths; used by the
    Monte Carlo harness.  One time-major pass over all paths: step j reads
    slot j - 1 as the column ``increments[:, j - 1]`` in place, whatever the
    memory layout, and the window minimum reads a ring of the last
    min(d, t) rows of H(i) = G(i) + cum(i), row i % min(d, t).  Working
    memory is O(min(d, t) * n_paths) floats, no more than the t slots read
    plus a few rows.  Raises ValueError when a path carries a non-finite
    increment before t, which would otherwise come out as NaN.

    The pass resumes on a batch that cannot change: an ndarray that is
    read-only, as is every array it views, as the batch samplers return.
    The module keeps one entry, the last pass on such a batch: a weak
    reference to it, its (w, d), the step reached and the running rows.  A
    call on that batch with that (w, d) and a t at or past the step reads
    only the new slots, once the ring holds d rows (step >= d).  Any other
    call makes a fresh pass, which becomes the entry on a read-only batch.
    The entry goes when its batch is collected or a call raises; a frozen
    batch must not be thawed and changed while it lives.
    """
    global _batch_pass
    inc = np.asarray(increments, dtype=float)
    if inc.ndim != 2:
        raise ValueError("increments must have shape (n_paths, T)")
    if t < 0 or t > inc.shape[1]:
        raise ValueError(f"need 0 <= t <= {inc.shape[1]}")
    if t == 0:
        return np.zeros(inc.shape[0])
    w, d = params.w, params.d
    read_only = _read_only(inc)
    # detached while it advances: a pass that raises leaves no entry
    state, _batch_pass = _batch_pass, None
    same = read_only and state is not None and state.batch() is inc
    if not (same and state.key == (w, d) and d <= state.j <= t):
        del state  # the old rows go before the new ones come
        state = _BatchPass(inc, (w, d), min(d, t))
    ring, g, cum = state.ring, state.g, state.cum
    width = len(ring)
    m, row = np.empty((2, len(g)))
    # a NaN or an infinity anywhere in the first t slots reaches cum + g
    with np.errstate(invalid="ignore"):
        for j in range(state.j + 1, t + 1):
            if j > 1:
                cum += inc[:, j - 1]
            np.subtract(w, cum, out=row)
            np.min(ring[:j], axis=0, out=m)
            row += m
            np.minimum(g, row, out=g)
            np.add(g, cum, out=ring[j % width])
        out = cum + g
    if not np.isfinite(out).all():
        raise ValueError("increments must be finite")
    if read_only:
        state.j = t
        _batch_pass = state
    return out


def equivalent_service_closure(path: SamplePath, params: FeedbackParams) -> BivariateFunction:
    """Equivalent service as a full bivariate table via the dioid closure.

    Builds the additive service table, forms the feedback operand
    S o delta_d o delta_plus_w, closes it, and convolves with S again.
    Independent of the dynamic-programming route.  Guarded to small
    horizons; the final convolution and the closure cost O(T^3), the
    operand (``_feedback_operand``) O(d T^2).
    """
    if path.horizon > _CLOSURE_HORIZON_GUARD:
        raise ValueError(
            f"closure oracle limited to horizon {_CLOSURE_HORIZON_GUARD}, got {path.horizon}"
        )
    service = BivariateFunction.from_increments(path.increments, check=False)
    operand = BivariateFunction(_feedback_operand(service.table, params), check=False)
    return convolve(subadditive_closure(operand), service)


def _feedback_operand(table: np.ndarray, params: FeedbackParams) -> np.ndarray:
    """Table of S o delta_d o delta_plus_w for the service table S.

    (S o delta_d)(s, t) is the minimum of S(s, tau) over tau in
    [max(s, t - d), t]: d shifted minima of the table, with the +inf lower
    triangle masking tau < s.  Convolving with delta_plus_w adds w.  Min and
    the one addition are exact, so the result equals the two general
    products bit for bit at O(d T^2) cost.
    """
    operand = table.copy()
    for k in range(1, min(params.d, table.shape[0] - 1) + 1):
        np.minimum(operand[:, k:], table[:, :-k], out=operand[:, k:])
    operand += params.w
    return operand


def apriori_envelope(path: SamplePath, params: FeedbackParams) -> tuple[np.ndarray, np.ndarray]:
    """Path-wise sandwich (lower, upper) around the equivalent service, as
    two (T+1, T+1) tables indexed [s, t], -inf and +inf below the diagonal.

    lower: the rate-capped path sum of min(c_k, w/d), which is itself the
    exact equivalent service of the (d=1, w/d) system.  upper: the smaller
    of the raw service and ceil((t-s)/d) * w.  Both are prefix-sum differences.
    """
    capped = np.concatenate(([0.0], np.cumsum(np.minimum(path.increments, params.rate_cap))))
    cum = path.cumulative
    index = np.arange(path.horizon + 1)
    span = index[None, :] - index[:, None]  # t - s
    lower = np.where(span < 0, -np.inf, capped[None, :] - capped[:, None])
    windows = -(-span // params.d) * params.w
    upper = np.where(span < 0, np.inf, np.minimum(cum[None, :] - cum[:, None], windows))
    return lower, upper
