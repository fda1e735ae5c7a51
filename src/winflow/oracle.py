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

Costs: the scalar program is one resumable pass per (path, params, s).  A
path holds one entry: its last (w, d, s) and the values reached so far, so
a sweep of t upward at fixed s costs O((T - s) * d) Python float operations
in all, not per call, and retains 8 bytes a reached t.  The
closure table is O(T^3) array work in one min-plus product and a
Floyd-Warshall closure, after an O(d T^2) operand built by shifted
minima; the batch evaluator is one pass of t time-major row steps over all
paths, in O(min(d, t) * n_paths) working memory.  It reads each slot's
column of the input in place, whatever the layout; time-major (F-order)
input, which the random batch samplers return, makes those columns
contiguous.  The a-priori envelope is O(T^2) array work on two prefix sums.
"""

from __future__ import annotations

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


class _DpPass:
    """The dynamic program of one (w, d, s) on one path, as far as it went.

    ``row[j]`` is the equivalent service over [s, s + j); ``g`` and ``H``
    are the running cost and the window of the last step, dropped once the
    row reaches the horizon.
    """

    __slots__ = ("key", "c0", "row", "g", "H")

    def __init__(self, key: tuple, c0: float, d: int):
        self.key = key
        self.c0 = c0
        self.row = array("d", [0.0])
        self.g = 0.0
        self.H = deque([c0], maxlen=d)  # the last d of H(j) = G(j) + cum(s + j)


def equivalent_service_dp(path: SamplePath, params: FeedbackParams, s: int, t: int) -> float:
    """Exact equivalent service over [s, t) by dynamic programming.

    G(j) is the cheapest total window cost on [s, s + j); a step either
    leaves the next slot uncovered or ends a window of length <= d at it.
    The predecessor scan is the minimum of G(k) + cum(k) over the last d
    positions, kept in a deque of length d.
    Runs on Python floats, one path at a time.  The pass is resumable: the
    path keeps one entry, the values for its last (w, d, s), so a call at
    a reached t is an index and a later t resumes from the last step,
    reading only the new slots.  Another (w, d, s) replaces the entry.  The
    entry keeps 8 bytes a reached t, plus the window until the horizon.
    """
    if not 0 <= s <= t <= path.horizon:
        raise ValueError(f"need 0 <= s <= t <= {path.horizon}, got ({s}, {t})")
    if t == s:
        return 0.0
    d, w = params.d, params.w
    state = path._dp
    if state is None or state.key != (w, d, s):
        state = _DpPass((w, d, s), float(path.cumulative[s]), d)
        object.__setattr__(path, "_dp", state)
    row = state.row
    if t - s < len(row):
        return row[t - s]
    c0, g, H = state.c0, state.g, state.H
    for c in path.cumulative[s + len(row) : t + 1].tolist():
        v = w - c + min(H)
        if v < g:
            g = v
        H.append(g + c)
        row.append(c - c0 + g)
    if t == path.horizon:
        g = state.H = None
    state.g = g
    return row[-1]


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
    """
    inc = np.asarray(increments, dtype=float)
    if inc.ndim != 2:
        raise ValueError("increments must have shape (n_paths, T)")
    if t < 0 or t > inc.shape[1]:
        raise ValueError(f"need 0 <= t <= {inc.shape[1]}")
    n = inc.shape[0]
    if t == 0:
        return np.zeros(n)
    w = params.w
    width = min(params.d, t)
    # step j reads rows 0 .. j - 1 only: each row is written before it is read
    ring = np.empty((width, n))
    ring[0] = 0.0
    g, m, row = np.zeros((3, n))
    # cum runs through the same additions as np.cumsum along the path
    cum = inc[:, 0].copy()
    # a NaN or an infinity anywhere in the first t slots reaches cum + g
    with np.errstate(invalid="ignore"):
        for j in range(1, t + 1):
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
