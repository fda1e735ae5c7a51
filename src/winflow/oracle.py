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
closure table is O(T^3) array work in three min-plus products and a
Floyd-Warshall closure; the batch evaluator is t time-major row steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    BivariateFunction,
    convolve,
    make_delta_plus_w,
    make_delta_shift,
    subadditive_closure,
)
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
    The predecessor scan is a sliding-window minimum of G(k) + cum(k).
    Runs on Python floats, one path and one interval at a time.
    """
    if not 0 <= s <= t <= path.horizon:
        raise ValueError(f"need 0 <= s <= t <= {path.horizon}, got ({s}, {t})")
    if t == s:
        return 0.0
    d, w = params.d, params.w
    cum = path.cumulative[s : t + 1].tolist()
    g = 0.0
    H = [cum[0]]  # H(j) = G(j) + cum(s + j)
    for j in range(1, len(cum)):
        g = min(g, w - cum[j] + min(H[max(0, j - d) : j]))
        H.append(g + cum[j])
    return cum[-1] - cum[0] + g


def equivalent_service_batch(
    increments: np.ndarray, params: FeedbackParams, t: int
) -> np.ndarray:
    """Equivalent service over [0, t) for a batch of paths, shape (n_paths, T >= t).

    Vectorization of the scalar dynamic program across paths; used by the
    Monte Carlo harness.  The state is stored time-major, one row of n_paths
    per slot, so every step reads and writes contiguous rows.  Raises
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
    cum = np.zeros((t + 1, n))
    np.cumsum(inc[:, :t].T, axis=0, out=cum[1:])
    h = np.zeros((t + 1, n))  # h[j] = g(j) + cum[j]
    g = np.zeros(n)
    # a NaN or an infinity anywhere in the first t slots reaches cum[t] + g
    with np.errstate(invalid="ignore"):
        for j in range(1, t + 1):
            np.minimum(g, w - cum[j] + h[max(0, j - d) : j].min(axis=0), out=g)
            np.add(g, cum[j], out=h[j])
        out = cum[t] + g
    if not np.isfinite(out).all():
        raise ValueError("increments must be finite")
    return out


def equivalent_service_closure(
    path: SamplePath, params: FeedbackParams, horizon: int | None = None
) -> BivariateFunction:
    """Equivalent service as a full bivariate table via the dioid closure.

    Builds the additive service table, forms the feedback operand
    S o delta_d o delta_plus_w, closes it, and convolves with S again.
    Independent of the dynamic-programming route.  Guarded to small
    horizons; each convolution and the closure cost O(T^3).
    """
    T = path.horizon if horizon is None else horizon
    if T > _CLOSURE_HORIZON_GUARD:
        raise ValueError(
            f"closure oracle limited to horizon {_CLOSURE_HORIZON_GUARD}, got {T}"
        )
    if T > path.horizon:
        raise ValueError("horizon exceeds path length")
    service = BivariateFunction.from_increments(path.increments[:T], check=False)
    operand = convolve(
        convolve(service, make_delta_shift(T, params.d)),
        make_delta_plus_w(T, params.w),
    )
    return convolve(subadditive_closure(operand), service)


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
