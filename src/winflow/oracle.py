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

Costs: the scalar program is O(span * d) Python float operations; the
closure table is O(T^3) array work in one min-plus product and a
Floyd-Warshall closure, after an O(d T^2) operand built by shifted
minima; the batch evaluator is t time-major row steps per block of
``_PATH_BLOCK`` paths, in O(t * _PATH_BLOCK) working memory whatever the
number of paths.  It reads time-major (F-order) input, which the random
batch samplers return, in place and copies each block of any other layout
once, transposing it.
"""

from __future__ import annotations

import math
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

# bytes of one slot row of a batch-oracle path block (4096 float paths)
_BLOCK_ROW_BYTES = 1 << 15
_PATH_BLOCK = _BLOCK_ROW_BYTES // np.dtype(float).itemsize


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

    @property
    def horizon(self) -> int:
        return len(self.increments)

    @property
    def cumulative(self) -> np.ndarray:
        return self._cumulative

    def interval(self, s: int, t: int) -> float:
        """Accumulated service over [s, t)."""
        return float(self._cumulative[t] - self._cumulative[s])


def equivalent_service_dp(path: SamplePath, params: FeedbackParams, s: int, t: int) -> float:
    """Exact equivalent service over [s, t) by dynamic programming.

    G(j) is the cheapest total window cost on [s, s + j); a step either
    leaves the next slot uncovered or ends a window of length <= d at it.
    The predecessor scan is the minimum of G(k) + cum(k) over the last d
    positions, kept in a deque of length d.
    Runs on Python floats, one path and one interval at a time.
    """
    if not 0 <= s <= t <= path.horizon:
        raise ValueError(f"need 0 <= s <= t <= {path.horizon}, got ({s}, {t})")
    if t == s:
        return 0.0
    d, w = params.d, params.w
    cum = path.cumulative[s : t + 1].tolist()
    g = 0.0
    H = deque([cum[0]], maxlen=d)  # the last d of H(j) = G(j) + cum(s + j)
    for c in cum[1:]:
        v = w - c + min(H)
        if v < g:
            g = v
        H.append(g + c)
    return cum[-1] - cum[0] + g


def equivalent_service_batch(
    increments: np.ndarray, params: FeedbackParams, t: int
) -> np.ndarray:
    """Equivalent service over [0, t) for a batch of paths, shape (n_paths, T >= t).

    Vectorization of the scalar dynamic program across paths; used by the
    Monte Carlo harness.  Paths are taken in blocks of ``_PATH_BLOCK``; each
    block's state is stored time-major, one row per slot, so every step reads
    and writes contiguous rows.  Any memory layout is accepted and gives the
    same result bit for bit.  When the slot rows of the input are contiguous,
    as in an F-order array such as the random batch samplers return, each
    block is read in place; otherwise it is first copied time-major into a
    buffer.  The working buffers are reused across blocks and hold
    O(t * _PATH_BLOCK) floats whatever the number of paths.  Raises
    ValueError when a path carries a non-finite increment before t, which
    would otherwise come out as NaN.
    """
    inc = np.asarray(increments, dtype=float)
    if inc.ndim != 2:
        raise ValueError("increments must have shape (n_paths, T)")
    if t < 0 or t > inc.shape[1]:
        raise ValueError(f"need 0 <= t <= {inc.shape[1]}")
    n = inc.shape[0]
    if t == 0:
        return np.zeros(n)
    d, w = params.d, params.w
    out = np.empty(n)
    width = min(n, _PATH_BLOCK)
    # the slot rows inc[b : b + k, j] are contiguous when this holds (F order)
    in_place = inc.strides[0] == inc.itemsize
    # flat buffers, viewed per block as contiguous (rows, paths) tables
    inc_buf = None if in_place else np.empty(t * width)
    h_buf = np.empty((t + 1) * width)
    cum_buf, g_buf, m_buf = np.empty((3, width))
    # a NaN or an infinity anywhere in the first t slots reaches cum + g
    with np.errstate(invalid="ignore"):
        for b in range(0, n, _PATH_BLOCK):
            k = min(_PATH_BLOCK, n - b)
            h = h_buf[: (t + 1) * k].reshape(t + 1, k)
            cum, g, m = cum_buf[:k], g_buf[:k], m_buf[:k]
            slots = inc[b : b + k, :t].T
            if not in_place:
                copy = inc_buf[: t * k].reshape(t, k)
                np.copyto(copy, slots)
                slots = copy
            # cum runs through the same additions as np.cumsum along the path
            cum[:] = slots[0]
            g[:] = 0.0
            h[0] = 0.0
            for j in range(1, t + 1):
                if j > 1:
                    cum += slots[j - 1]
                row = h[j]
                np.subtract(w, cum, out=row)
                if d == 1 or j == 1:
                    row += h[j - 1]
                else:
                    np.min(h[max(0, j - d) : j], axis=0, out=m)
                    row += m
                np.minimum(g, row, out=g)
                np.add(g, cum, out=row)
            np.add(cum, g, out=out[b : b + k])
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


def apriori_envelope(
    path: SamplePath, params: FeedbackParams, s: int, t: int
) -> tuple[float, float]:
    """Path-wise sandwich around the equivalent service over [s, t).

    lower: the rate-capped path sum of min(c_k, w/d), which is itself the
    exact equivalent service of the (d=1, w/d) system.  upper: the smaller
    of the raw service and ceil((t-s)/d) * w.
    """
    if not 0 <= s <= t <= path.horizon:
        raise ValueError(f"need 0 <= s <= t <= {path.horizon}, got ({s}, {t})")
    cap = params.rate_cap
    seg = path.increments[s:t]
    lower = float(np.minimum(seg, cap).sum())
    upper = min(path.interval(s, t), math.ceil((t - s) / params.d) * params.w)
    return lower, float(upper)
