"""Analytic bound engine for window flow control with random service.

A flow is throttled so that at most w megabits admitted into a network with
random service may be in flight, with the departure feedback delayed by d
slots.  The bounds below control the moment-generating function of the
resulting feedback-equivalent service process, and derive from it

* statistical service curves (a deterministic envelope violated with
  probability at most eps),
* lower and upper bounds on the effective capacity (the long-run MGF
  decay rate, whose theta -> 0 limit is the mean rate), and
* Chernoff backlog bounds against an arrival MGF.

Every bound family here depends on (s, t) only through the interval length
ell, and its log is linear in ell over a period p.  Each family is stated
once, as rates(theta) -> (rate, log_offset) (``LogMgfCurve``):
log bound(theta, ell) = floor(ell / p) * log_rate(theta) + log_offset(theta)
with log_rate = -p theta rate.  The rate is the decay rate of the bound, so
it is also the family's effective-capacity lower bound, and the
``effcap_*`` functions read it off the curve.  Curves are indexed by t
alone, and the steady-state backlog bound sums a geometric series in closed
form; it is finite at theta exactly when p log M_A(theta) + log_rate(theta) < 0.

Every optimization over theta goes through one helper: a fixed logarithmic
grid, then golden-section refinement around each problem's best grid point,
with all searches run in lockstep; the reported optimum is never worse than
the best raw grid point.  Service curves refine their t in bounded blocks,
the steady-state backlog bound every (arrival model, epsilon) pair of a
call, and the finite-horizon backlog bound its one problem, a theta at a
time.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from .models import MarkovModulated2Service, MmooService, _check_counts, _check_eps, _positive_theta, _safe_exp

INF = float("inf")

# the default theta grid (per megabit): geomspace(THETA_MIN, THETA_MAX, THETA_POINTS)
THETA_MIN, THETA_MAX, THETA_POINTS = 1e-4, 1e3, 64

__all__ = [
    "FeedbackParams",
    "ThetaGrid",
    "BoundResult",
    "LogMgfCurve",
    "feedback_mgf_blocks_iid",
    "feedback_mgf_blocks_markov",
    "series_curve",
    "block_curve",
    "per_slot_curve",
    "statistical_service_curve",
    "effcap_lower_series",
    "effcap_lower_blocks",
    "effcap_apriori",
    "best_effcap_lower",
    "backlog_bound",
    "steady_state_backlog_bound",
    "golden_section_max",
]


@dataclass(frozen=True)
class FeedbackParams:
    """Window size w (megabits, finite) and feedback delay d (slots, an
    integer of at least 1; numpy integers pass)."""

    w: float
    d: int

    def __post_init__(self):
        if not (math.isfinite(self.w) and self.w > 0):
            raise ValueError("window size w must be finite and > 0")
        if not isinstance(self.d, numbers.Integral) or self.d < 1:
            raise ValueError("feedback delay d must be an integer >= 1")

    @property
    def rate_cap(self) -> float:
        """Long-run ceiling w / d imposed by the feedback loop."""
        return self.w / self.d


@dataclass(frozen=True)
class ThetaGrid:
    """Strictly increasing positive theta values (per megabit)."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or len(v) < 2:
            raise ValueError("theta grid needs at least two points")
        if not np.all(v > 0) or not np.all(np.diff(v) > 0):
            raise ValueError("theta grid must be strictly increasing and positive")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @classmethod
    def logspace(
        cls, minimum: float = THETA_MIN, maximum: float = THETA_MAX, count: int = THETA_POINTS
    ) -> "ThetaGrid":
        return cls(np.geomspace(minimum, maximum, count))


@dataclass
class BoundResult:
    """A curve produced by one bound family.

    ``x`` is the running coordinate (t in slots, or theta per megabit),
    ``value`` the bound, ``theta_opt`` the optimizing theta where a scalar
    search was involved, and ``feasible`` marks points where the family's
    validity condition held for at least one theta.
    """

    family: str
    x: np.ndarray
    value: np.ndarray
    theta_opt: np.ndarray
    feasible: np.ndarray
    provenance: Optional[List[str]] = None


# ===========================================================================
# scalar optimization helper
# ===========================================================================

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# relative bracket width at which every golden-section search stops
_GOLDEN_REL_TOL = 1e-4


def golden_section_max(
    fn: Callable[[float], float], lo: float, hi: float, rel_tol: float = _GOLDEN_REL_TOL
) -> tuple[float, float]:
    """Golden-section search for a maximum of fn on [lo, hi].

    Assumes fn is unimodal on the bracket; -inf values (infeasible points)
    are treated as arbitrarily bad.  Returns (argmax, max).

    No bound calls it: they all search through ``_refine_grid_max``.  It
    stays as the tests' independent scalar reference for that helper, and
    because the benchmark tracer (``perfbench/tracer.py``) counts its calls
    by name.
    """
    if hi < lo:
        lo, hi = hi, lo
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = fn(x1), fn(x2)
    while (b - a) > rel_tol * max(abs(a), abs(b), 1e-300):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = fn(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = fn(x1)
    if f1 >= f2:
        return x1, f1
    return x2, f2


def _golden_section_max_lockstep(
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """golden_section_max on many brackets [lo[i], hi[i]] at once.

    fn(x, which) evaluates problem which[i] at x[i].  Every problem takes
    exactly the iterates and the stopping rule of its own scalar search; a
    finished problem is no longer evaluated.  Returns (argmax, max) arrays.
    """
    a, b = lo.astype(float), hi.astype(float)
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    everyone = np.arange(len(a))
    f1, f2 = fn(x1, everyone), fn(x2, everyone)

    def still_open(which):
        a_, b_ = a[which], b[which]
        width = _GOLDEN_REL_TOL * np.maximum(np.maximum(np.abs(a_), np.abs(b_)), 1e-300)
        return which[(b_ - a_) > width]

    live = still_open(everyone)
    while live.size:
        right = f1[live] < f2[live]
        up, down = live[right], live[~right]
        a[up], x1[up], f1[up] = x1[up], x2[up], f2[up]
        x2[up] = a[up] + _GOLDEN * (b[up] - a[up])
        b[down], x2[down], f2[down] = x2[down], x1[down], f1[down]
        x1[down] = b[down] - _GOLDEN * (b[down] - a[down])
        fresh = fn(np.where(right, x2[live], x1[live]), live)
        f2[up], f1[down] = fresh[right], fresh[~right]
        live = still_open(live)
    first = f1 >= f2
    return np.where(first, x1, x2), np.where(first, f1, f2)


def _refine_grid_max(
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray], thetas: np.ndarray, grid_values: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximize fn(theta, i) over theta for every problem i at once.

    grid_values[k, i] is fn(thetas[k], i).  Each problem whose best grid
    value is above -inf is refined by golden section on the bracket of the
    neighbouring grid points, all in lockstep; the result is never worse
    than the grid point.  Returns (max, argmax, refined), with argmax nan
    and max -inf where no grid theta gave a value.
    """
    k = np.argmax(grid_values, axis=0)
    best = grid_values[k, np.arange(grid_values.shape[1])]
    refined = best > -INF
    argmax = np.full(len(best), np.nan)
    live, kl = np.flatnonzero(refined), k[refined]
    lo = thetas[np.maximum(kl - 1, 0)]
    hi = thetas[np.minimum(kl + 1, len(thetas) - 1)]
    x, fx = _golden_section_max_lockstep(lambda th, which: fn(th, live[which]), lo, hi)
    improved = fx >= best[live]
    best[live] = np.where(improved, fx, best[live])
    argmax[live] = np.where(improved, x, thetas[kl])
    return best, argmax, refined


# ===========================================================================
# MGF bounds for the feedback-equivalent service
# ===========================================================================


def _is_markov(model) -> bool:
    return isinstance(model, MarkovModulated2Service)


def feedback_mgf_blocks_iid(model, params: FeedbackParams, theta: float, t: int) -> float:
    """Block-counting bound on E[exp(-theta S_eq(0, t))] for i.i.d. service.

    Time is grouped into floor(t / d) blocks of d slots; each block either
    contributes its service MGF or one window cost, giving
    (M^d + d e^{-theta w})^{floor(t/d)}.  Always finite.
    """
    return block_curve(model, params).mgf(theta, t)


def feedback_mgf_blocks_markov(model, params: FeedbackParams, theta: float, t: int) -> float:
    """Block-counting bound for two-state Markov-modulated service.

    Identical in shape to the i.i.d. block bound with the per-slot MGF
    replaced by the dominant eigenvalue of the slot operator L(-theta).
    Requires slow switching (p01 + p10 < 1), which is a hard error.
    """
    if not _is_markov(model):
        raise TypeError("markov block bound needs a two-state Markov-modulated model")
    return block_curve(model, params).mgf(theta, t)


# ---------------------------------------------------------------------------
# log-domain curve objects used by the optimizers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LogMgfCurve:
    """theta-indexed family of log MGF bounds, linear in the length over a period.

    log bound(theta, ell) = -floor(ell / period) * period * theta * rate(theta) + log_offset(theta)

    with the convention 0 * (+-inf) = 0.  ``rates(theta)`` returns
    (rate, log_offset) for a scalar or an array of theta.  The rate is the
    family's effective-capacity lower bound, the decay rate of the bound;
    a rate of -inf or an offset of +inf encodes infeasibility (the offset
    rules out every length).  ``nonnegative`` states that the service never
    decreases, so that zero is a valid floor for its envelopes.
    """

    family: str
    period: int
    rates: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]] = field(repr=False)
    nonnegative: bool

    def coefficients(self, theta) -> Tuple[np.ndarray, np.ndarray]:
        """(log_rate, log_offset), with log_rate = -period * theta * rate."""
        rate, log_offset = self.rates(theta)
        return -self.period * theta * rate, log_offset

    def log_value(self, theta, lengths) -> np.ndarray:
        """log bound values; theta and lengths broadcast against each other."""
        log_rate, log_offset = self.coefficients(_positive_theta(theta))
        blocks = np.floor(np.asarray(lengths, dtype=float) / self.period)
        return _times_log(blocks, log_rate) + log_offset

    def mgf(self, theta: float, t: int) -> float:
        """The bound on E[exp(-theta S_eq(0, t))] at one theta and length t:
        exp of ``log_value`` by ``models._safe_exp``, +inf from log 709 on
        and nan kept."""
        if t < 0:
            raise ValueError("t must be >= 0")
        return float(_safe_exp(self.log_value(theta, t)))


def _times_log(n: np.ndarray, log_base) -> np.ndarray:
    """n * log_base with the convention 0 * (+-inf) = 0."""
    with np.errstate(invalid="ignore"):
        return np.where(n == 0, 0.0, n * log_base)


def series_curve(model, params: FeedbackParams) -> LogMgfCurve:
    """Geometric-series bound as a curve family (i.i.d. models only).

    ell log M - (ell + 2) log(1 - x) with M = e^{-theta gamma(-theta)} and
    x = M^{-d} e^{-theta w}: period one, rate gamma(-theta) + log(1 - x) / theta,
    log_offset = -2 log(1 - x).  Valid only where x < 1, that is
    gamma(-theta) < w / d.
    """
    d, w = params.d, params.w

    def rates(theta):
        gamma = model.effective_capacity(theta)
        arg = theta * (d * gamma - w)  # log x
        ok = arg < 0.0
        log_1mx = np.log(-np.expm1(np.where(ok, arg, -1.0)))
        return np.where(ok, gamma + log_1mx / theta, -INF), np.where(ok, -2.0 * log_1mx, INF)

    return LogMgfCurve("series", 1, rates, model.nonnegative)


def block_curve(model, params: FeedbackParams) -> LogMgfCurve:
    """Block-counting bound as a curve family.

    floor(ell / d) log(M^d + d e^{-theta w}) with M = e^{-theta gamma(-theta)}:
    period d, no offset, rate gamma(-theta) - log(1 + d e^{theta (d gamma - w)}) / (d theta).
    Finite for every theta > 0.  For two-state Markov-modulated models
    gamma is the spectral effective capacity, so M is the dominant
    eigenvalue of the slot operator L(-theta).
    """
    d, w = params.d, params.w

    def rates(theta):
        gamma = model.effective_capacity(theta)  # -inf gives arg = -inf and rate -inf
        arg = theta * (d * gamma - w)
        with np.errstate(over="ignore"):
            log_term = np.log1p(d * np.exp(arg))
        lost = np.isinf(log_term)
        if lost.any():  # d e^arg overflows: log(1 + d e^arg) = logaddexp(0, arg + log d)
            log_term = np.where(lost, np.logaddexp(0.0, arg + math.log(d)), log_term)
        return gamma - log_term / (d * theta), 0.0

    family = "block-markov" if _is_markov(model) else "block-iid"
    return LogMgfCurve(family, d, rates, model.nonnegative)


def per_slot_curve(model, params: FeedbackParams) -> LogMgfCurve:
    """Rate-capped per-slot bound: the service process that in every slot
    offers min(c_k, w/d) for i.i.d. models, or the peak-capped chain for
    Markov-modulated models.

    This is the MGF route of the a-priori envelope; its rate is the
    effective capacity of the capped service.  For d = 1 and i.i.d.
    increments it is the exact equivalent-service MGF, not just a bound.
    """
    cap = params.rate_cap
    if _is_markov(model):
        capped_rate = _peak_capped(model, cap).effective_capacity
    else:

        def capped_rate(theta):
            log_m = model.log_censored_mgf(-theta, cap)
            return np.where(np.isfinite(log_m), -log_m / theta, -INF)

    def rates(theta):
        return capped_rate(theta), 0.0

    return LogMgfCurve("per-slot", 1, rates, model.nonnegative)


def _peak_capped(model, cap: float):
    """Markov-modulated model with the ON rate capped at ``cap``."""
    if isinstance(model, MmooService):
        return MmooService(model.p00, model.p11, min(model.peak, cap))
    raise NotImplementedError(
        "peak-capped composition is defined for the On-Off model only"
    )


# ===========================================================================
# statistical service curves
# ===========================================================================

# theta-grid x t entries evaluated at once; bounds the working memory of a curve
_CURVE_BLOCK_ENTRIES = 1 << 20


def statistical_service_curve(
    curve: LogMgfCurve, eps: float, grid: ThetaGrid, horizon: int
) -> BoundResult:
    """Envelope S_eps with P(service(0, t) <= S_eps(t)) <= eps for each t.

    Chernoff inversion of the MGF bound: the best (largest) envelope over
    theta of (log eps - log bound(theta, t)) / theta.  Envelopes of
    non-negative service are floored at zero; signed service keeps negative
    values.  Where the floor applies, only the strict event is promised,
    P(service(0, t) < S_eps(t)) <= eps, which a zero envelope meets
    trivially: a law with an atom at 0, such as On-Off service, can have
    P(service(0, t) = 0) > eps at small t.  A t where every grid theta is
    infeasible gets the trivial envelope (0, or -inf for signed service)
    with the feasibility flag cleared.  Each t is its own problem, refined
    in blocks of t under ``_CURVE_BLOCK_ENTRIES`` grid entries, so memory
    stays bounded at any horizon and the result does not depend on the
    blocking.
    """
    _check_eps(eps)
    _check_counts(horizon=horizon)
    log_eps = math.log(eps)
    thetas = grid.values
    ts = np.arange(horizon + 1)

    def objective(theta, t):  # t doubles as the problem index
        with np.errstate(invalid="ignore"):
            value = (log_eps - curve.log_value(theta, t)) / theta
        return np.where(np.isfinite(value), value, -INF)

    step = max(1, _CURVE_BLOCK_ENTRIES // len(thetas))
    blocks = [  # problem i of a block is t = lo + i
        _refine_grid_max(
            lambda th, i: objective(th, lo + i), thetas, objective(thetas[:, None], ts[lo : lo + step])
        )
        for lo in range(0, len(ts), step)
    ]
    best, theta_opt, feasible = (np.concatenate(parts) for parts in zip(*blocks))
    values = np.maximum(best, 0.0) if curve.nonnegative else best
    return BoundResult(curve.family, ts, values, theta_opt, feasible)


# ===========================================================================
# effective capacity bounds
# ===========================================================================


def effcap_lower_series(model, params: FeedbackParams, theta):
    """Effective-capacity lower bound from the geometric-series MGF bound:
    the rate of ``series_curve``, -inf where the series diverges.
    Scalar or array theta.
    """
    return series_curve(model, params).rates(_positive_theta(theta))[0][()]


def effcap_lower_blocks(model, params: FeedbackParams, theta):
    """Effective-capacity lower bound from the block-counting MGF bound:
    the rate of ``block_curve``, finite for every theta > 0.  Applies to
    i.i.d. models and to two-state Markov-modulated models.  Scalar or
    array theta.
    """
    return block_curve(model, params).rates(_positive_theta(theta))[0][()]


def effcap_apriori(model, params: FeedbackParams, theta) -> tuple:
    """A-priori envelope (lower, upper) on the feedback effective capacity.

    lower: the rate of ``per_slot_curve``, the effective capacity of the
    rate-capped service (cap w/d per slot), exact for d = 1.  upper:
    min(gamma(-theta), w / d).  For a deterministic server both collapse to
    min(rate, w / d).  Scalar or array theta.
    """
    theta = _positive_theta(theta)
    upper = np.minimum(model.effective_capacity(theta), params.rate_cap)[()]
    lower = per_slot_curve(model, params).rates(theta)[0][()]
    return lower, upper


def best_effcap_lower(model, params: FeedbackParams, grid: ThetaGrid) -> BoundResult:
    """Pointwise best lower bound across all applicable families, per theta.

    Families without a defined value for the model (the series route needs
    i.i.d. increments, the a-priori route a known rate-capped composition)
    simply do not compete; ties go to the family listed first.
    """
    thetas = grid.values
    families = {"blocks": effcap_lower_blocks(model, params, thetas)}
    if not _is_markov(model):
        families["series"] = effcap_lower_series(model, params, thetas)
    try:
        families["apriori"] = effcap_apriori(model, params, thetas)[0]
    except NotImplementedError:
        pass
    return _best_lower(thetas, families)


def _best_lower(thetas: np.ndarray, families: dict) -> BoundResult:
    """Pointwise maximum of the lower-bound arrays in ``families`` (name ->
    values on ``thetas``).  Ties go to the family listed first; a theta
    whose best value is not finite (a nan in any family, or -inf in all)
    has provenance "none".  Each value is bitwise that of its family."""
    names = list(families)
    stacked = np.vstack(list(families.values()))
    pick = np.argmax(stacked, axis=0)
    values = stacked[pick, np.arange(len(thetas))]
    feasible = np.isfinite(values)
    provenance = [names[i] if ok else "none" for i, ok in zip(pick.tolist(), feasible.tolist())]
    return BoundResult("best-lower", thetas, values, thetas.copy(), feasible, provenance)


# ===========================================================================
# backlog bounds
# ===========================================================================


def _log_sum_exp(values: np.ndarray):
    """log of the sum of exp over the last axis of finite values."""
    top = values.max(axis=-1)
    return top + np.log(np.exp(values - top[..., None]).sum(axis=-1))


def _log_backlog_sum(arrivals, curve: LogMgfCurve, theta: float, t: int) -> float:
    """log sum over interval lengths 0..t of M_A(theta)^ell * bound(theta, ell)."""
    log_ma = arrivals.log_mgf_increment(theta)
    if log_ma == INF:
        return INF
    ell = np.arange(t + 1, dtype=float)
    log_terms = ell * log_ma + curve.log_value(theta, ell)
    if not np.all(np.isfinite(log_terms)):
        return INF
    return _log_sum_exp(log_terms)


def _log_steady_state_sum(log_ma, curve: LogMgfCurve, theta):
    """log sum over all lengths ell >= 0 of M_A(theta)^ell * bound(theta, ell),
    from log_ma = log M_A(theta).

    Writing ell = k p + j with j < p, the sum is e^{log_offset} times the
    phase sum over j of M_A^j times a geometric series in k with ratio e^r,
    r = p log M_A + log_rate.  It converges exactly when r < 0 and is +inf
    otherwise.  The phase sum is geometric too: with x = log M_A and a =
    |x|, its log is (p - 1) max(x, 0) + log(1 - e^{-p a}) - log(1 - e^{-a}),
    and log p at x = 0; at period one it is exactly 0.  Scalar or array
    theta; log_ma broadcasts against it, so one evaluation of the curve's
    coefficients serves several arrival models.
    """
    p = curve.period
    log_rate, log_offset = curve.coefficients(theta)
    with np.errstate(invalid="ignore"):
        r = p * log_ma + log_rate
    converges = (r < 0.0) & np.isfinite(log_ma) & np.isfinite(log_offset)
    phase = 0.0
    if p > 1:
        x = np.where(converges, log_ma, 0.0)
        a = np.where(x != 0.0, np.abs(x), 1.0)
        phase = (p - 1) * np.maximum(x, 0.0) + np.log(-np.expm1(-p * a)) - np.log(-np.expm1(-a))
        phase = np.where(x != 0.0, phase, math.log(p))
    tail = np.log(-np.expm1(np.where(converges, r, -1.0)))
    return np.where(converges, phase + log_offset - tail, INF)


def backlog_bound(
    arrivals, curve: LogMgfCurve, eps: float, grid: ThetaGrid, t: int
) -> float:
    """Chernoff backlog bound b with P(B(t) > b) <= eps.

    Minimizes over theta the deconvolution sum of the arrival MGF against the
    service MGF bound, both taken over interval lengths up to t, term by
    term.  Returns +inf when no grid theta is feasible (the system is
    unstable at this arrival rate for every usable theta).  The objective is
    evaluated one theta at a time, so memory stays O(t).
    """
    _check_eps(eps)
    _check_counts(1, t=t)
    log_eps = math.log(eps)

    def negated(thetas, _):
        return np.array([(log_eps - _log_backlog_sum(arrivals, curve, th, t)) / th for th in thetas])

    thetas = grid.values
    best = _refine_grid_max(negated, thetas, negated(thetas, None)[:, None])[0]
    return float(-best[0])


def steady_state_backlog_bound(arrivals, curve: LogMgfCurve, eps, grid: ThetaGrid):
    """Backlog bound in the large-t limit, from the closed-form geometric sum.

    The objective at theta is (log S(theta) - log eps) / theta with
    log S = log sum_{j<p} e^{j log M_A + log_offset} - log(1 - e^r) and
    r = p log M_A(theta) + log_rate(theta).  A theta with r >= 0 is
    infeasible; the bound is +inf exactly when every grid theta is.

    arrivals is one arrival model or a sequence of them, and eps a scalar
    or an array.  One model gives a float for a scalar eps and an array of
    eps's shape otherwise; a sequence gives an array of shape
    (len(arrivals),) + eps.shape.  Every (model, eps) pair is one problem of
    one search: the curve's coefficients and each model's log M_A are
    evaluated once on the grid, and the golden-section refinements around
    the best grid points run in lockstep, so every entry is bitwise the
    bound of its pair alone.
    """
    single = not isinstance(arrivals, Sequence)
    models = [arrivals] if single else list(arrivals)
    if not models:
        raise ValueError("steady_state_backlog_bound needs at least one arrival model")
    eps = _check_eps(eps)
    flat = eps.ravel()
    # problem i is model i // len(flat) at eps i % len(flat)
    model_of = np.repeat(np.arange(len(models)), len(flat))
    log_eps = np.tile([math.log(e) for e in flat.tolist()], len(models))
    thetas = grid.values[:, None]
    log_ma = np.hstack([model.log_mgf_increment(thetas) for model in models])
    on_grid = (log_eps - _log_steady_state_sum(log_ma, curve, thetas)[:, model_of]) / thetas

    def negated(theta, which):
        every = np.array([model.log_mgf_increment(theta) for model in models])
        log_ma = every[model_of[which], np.arange(len(which))]
        return (log_eps[which] - _log_steady_state_sum(log_ma, curve, theta)) / theta

    best = -_refine_grid_max(negated, grid.values, on_grid)[0]
    if single:
        return float(best[0]) if eps.ndim == 0 else best.reshape(eps.shape)
    return best.reshape((len(models),) + eps.shape)
