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
ell, and its log is linear in ell over a period p:
log bound(theta, ell) = floor(ell / p) * log_rate(theta) + log_offset(theta)
(``LogMgfCurve``).  Curves are therefore indexed by t alone, and the
steady-state backlog bound sums a geometric series in closed form; it is
finite at theta exactly when p log M_A(theta) + log_rate(theta) < 0.

All optimizations over theta use a fixed logarithmic grid followed by
golden-section refinement; the reported optimum is never worse than the
best raw grid point.  Service curves refine every t at once, with one
golden-section search per t run in lockstep; the steady-state backlog bound
refines every epsilon of an arrival rate at once in the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from .models import MarkovModulated2Service, MmooService, _decay_rate, _positive_theta

INF = float("inf")

__all__ = [
    "FeedbackParams",
    "ThetaGrid",
    "BoundResult",
    "LogMgfCurve",
    "feedback_mgf_series",
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
    """Window size w (megabits) and feedback delay d (slots, at least 1)."""

    w: float
    d: int

    def __post_init__(self):
        if self.w <= 0:
            raise ValueError("window size w must be > 0")
        if self.d < 1:
            raise ValueError("feedback delay d must be >= 1")

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
    def logspace(cls, minimum: float = 1e-4, maximum: float = 1e3, count: int = 64) -> "ThetaGrid":
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


# ===========================================================================
# MGF bounds for the feedback-equivalent service
# ===========================================================================


def _is_markov(model) -> bool:
    return isinstance(model, MarkovModulated2Service)


def feedback_mgf_series(model, params: FeedbackParams, theta: float, t: int) -> float:
    """Geometric-series bound on E[exp(-theta S_eq(0, t))] for i.i.d. service.

    Counts all window placements with a binomial tail, which telescopes to
    M^t / (1 - M^{-d} e^{-theta w})^{t+2} with M = mgf_increment(-theta).
    Valid only under the convergence condition M^{-d} e^{-theta w} < 1;
    returns +inf where that fails (infeasibility is a value, not an error).
    """
    return _mgf_value(series_curve(model, params), theta, t)


def feedback_mgf_blocks_iid(model, params: FeedbackParams, theta: float, t: int) -> float:
    """Block-counting bound on E[exp(-theta S_eq(0, t))] for i.i.d. service.

    Time is grouped into floor(t / d) blocks of d slots; each block either
    contributes its service MGF or one window cost, giving
    (M^d + d e^{-theta w})^{floor(t/d)}.  Always finite.
    """
    return _mgf_value(block_curve(model, params), theta, t)


def feedback_mgf_blocks_markov(model, params: FeedbackParams, theta: float, t: int) -> float:
    """Block-counting bound for two-state Markov-modulated service.

    Identical in shape to the i.i.d. block bound with the per-slot MGF
    replaced by the dominant eigenvalue of the slot operator L(-theta).
    Requires slow switching (p01 + p10 < 1), which is a hard error.
    """
    if not _is_markov(model):
        raise TypeError("markov block bound needs a two-state Markov-modulated model")
    return _mgf_value(block_curve(model, params), theta, t)


def _mgf_value(curve: LogMgfCurve, theta: float, t: int) -> float:
    """exp of one log_value, with +inf from the float overflow range on."""
    if t < 0:
        raise ValueError("t must be >= 0")
    log_value = float(curve.log_value(theta, t))
    return math.exp(log_value) if log_value < 709.0 else INF


# ---------------------------------------------------------------------------
# log-domain curve objects used by the optimizers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LogMgfCurve:
    """theta-indexed family of log MGF bounds, linear in the length over a period.

    log bound(theta, ell) = floor(ell / period) * log_rate(theta) + log_offset(theta)

    with the convention 0 * (+-inf) = 0.  ``coefficients(theta)`` returns
    (log_rate, log_offset) for a scalar or an array of theta; +inf encodes
    infeasibility (an offset of +inf rules out every length).  ``nonnegative``
    states that the service never decreases, so that zero is a valid floor
    for its envelopes.
    """

    family: str
    period: int
    coefficients: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]] = field(repr=False)
    nonnegative: bool

    def log_value(self, theta, lengths) -> np.ndarray:
        """log bound values; theta and lengths broadcast against each other."""
        log_rate, log_offset = self.coefficients(_positive_theta(theta))
        blocks = np.floor(np.asarray(lengths, dtype=float) / self.period)
        return _times_log(blocks, log_rate) + log_offset


def _times_log(n: np.ndarray, log_base) -> np.ndarray:
    """n * log_base with the convention 0 * (+-inf) = 0."""
    with np.errstate(invalid="ignore"):
        return np.where(n == 0, 0.0, n * log_base)


def _log(x):
    """Natural log with log 0 = -inf and log inf = inf, without warnings."""
    with np.errstate(divide="ignore"):
        return np.log(x)


def series_curve(model, params: FeedbackParams) -> LogMgfCurve:
    """Geometric-series bound as a curve family (i.i.d. models only).

    ell log M - (ell + 2) log(1 - x) with x = M^{-d} e^{-theta w}: period
    one, log_rate = log M - log(1 - x), log_offset = -2 log(1 - x).
    """
    d, w = params.d, params.w

    def coefficients(theta):
        log_m = _log(model.mgf_increment(-theta))
        log_x = -d * log_m - theta * w
        ok = log_x < 0.0
        log_1mx = np.log(-np.expm1(np.where(ok, log_x, -1.0)))
        return np.where(ok, log_m - log_1mx, INF), np.where(ok, -2.0 * log_1mx, INF)

    return LogMgfCurve("series", 1, coefficients, model.nonnegative)


def block_curve(model, params: FeedbackParams) -> LogMgfCurve:
    """Block-counting bound as a curve family; dispatches on the model kind.

    floor(ell / d) log(M^d + d e^{-theta w}): period d, no offset.
    """
    d, w = params.d, params.w
    markov = _is_markov(model)
    slot_mgf = model.eigen_m_plus if markov else model.mgf_increment

    def coefficients(theta):
        return _log(slot_mgf(-theta) ** d + d * np.exp(-theta * w)), 0.0

    family = "block-markov" if markov else "block-iid"
    return LogMgfCurve(family, d, coefficients, model.nonnegative)


def per_slot_curve(model, params: FeedbackParams) -> LogMgfCurve:
    """Rate-capped per-slot bound: the service process that in every slot
    offers min(c_k, w/d) for i.i.d. models, or the peak-capped chain for
    Markov-modulated models.

    This is the MGF route of the a-priori envelope.  For d = 1 and i.i.d.
    increments it is the exact equivalent-service MGF, not just a bound.
    """
    cap = params.rate_cap
    if _is_markov(model):
        slot_mgf = _peak_capped(model, cap).eigen_m_plus
    else:

        def slot_mgf(theta):
            return model.censored_mgf(theta, cap)

    def coefficients(theta):
        return _log(slot_mgf(-theta)), 0.0

    return LogMgfCurve("per-slot", 1, coefficients, model.nonnegative)


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


def statistical_service_curve(
    curve: LogMgfCurve, eps: float, grid: ThetaGrid, horizon: int
) -> BoundResult:
    """Envelope S_eps with P(service(0, t) <= S_eps(t)) <= eps for each t.

    Chernoff inversion of the MGF bound: the best (largest) envelope over
    theta of (log eps - log bound(theta, t)) / theta.  Envelopes of
    non-negative service are floored at zero; signed service keeps negative
    values.  A t where every grid theta is infeasible gets the trivial
    envelope (0, or -inf for signed service) with the feasibility flag
    cleared.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")
    log_eps = math.log(eps)
    thetas = grid.values
    ts = np.arange(horizon + 1)

    def objective(theta, t):
        with np.errstate(invalid="ignore"):
            value = (log_eps - curve.log_value(theta, t)) / theta
        return np.where(np.isfinite(value), value, -INF)

    cand = objective(thetas[:, None], ts)
    k = np.argmax(cand, axis=0)
    best = cand[k, ts]
    feasible = best > -INF
    theta_opt = np.full(horizon + 1, np.nan)
    ft, fk = ts[feasible], k[feasible]
    lo = thetas[np.maximum(fk - 1, 0)]
    hi = thetas[np.minimum(fk + 1, len(thetas) - 1)]
    x, fx = _golden_section_max_lockstep(lambda th, which: objective(th, ft[which]), lo, hi)
    improved = fx >= best[feasible]
    best[feasible] = np.where(improved, fx, best[feasible])
    theta_opt[feasible] = np.where(improved, x, thetas[fk])
    values = np.maximum(best, 0.0) if curve.nonnegative else best
    return BoundResult(curve.family, ts, values, theta_opt, feasible)


# ===========================================================================
# effective capacity bounds
# ===========================================================================


def effcap_lower_series(model, params: FeedbackParams, theta):
    """Effective-capacity lower bound from the geometric-series MGF bound.

    gamma(-theta) + log(1 - e^{theta (d gamma(-theta) - w)}) / theta, valid
    only where gamma(-theta) < w / d; returns -inf where infeasible so that
    pointwise maxima remain correct.  Scalar or array theta.
    """
    theta = _positive_theta(theta)
    gamma = model.effective_capacity(theta)
    arg = theta * (params.d * gamma - params.w)
    ok = arg < 0.0
    return np.where(ok, gamma + np.log(-np.expm1(np.where(ok, arg, -1.0))) / theta, -INF)[()]


def effcap_lower_blocks(model, params: FeedbackParams, theta):
    """Effective-capacity lower bound from the block-counting MGF bound.

    gamma(-theta) - log(1 + d e^{theta (d gamma(-theta) - w)}) / (d theta),
    finite for every theta > 0.  Applies to i.i.d. models and to two-state
    Markov-modulated models through their spectral effective capacity.
    Scalar or array theta.
    """
    theta = _positive_theta(theta)
    gamma = model.effective_capacity(theta)
    ok = gamma > -INF
    arg = theta * (params.d * np.where(ok, gamma, 0.0) - params.w)
    with np.errstate(over="ignore"):
        penalty = np.log1p(params.d * np.exp(arg)) / (params.d * theta)
    return np.where(ok, gamma - penalty, -INF)[()]


def effcap_apriori(model, params: FeedbackParams, theta) -> tuple:
    """A-priori envelope (lower, upper) on the feedback effective capacity.

    lower: effective capacity of the rate-capped service (cap w/d per slot),
    exact for d = 1.  upper: min(gamma(-theta), w / d).  For a deterministic
    server both collapse to min(rate, w / d).  Scalar or array theta.
    """
    theta = _positive_theta(theta)
    cap = params.rate_cap
    upper = np.minimum(model.effective_capacity(theta), cap)[()]
    if _is_markov(model):
        lower = _peak_capped(model, cap).effective_capacity(theta)
    else:
        lower = _decay_rate(model.censored_mgf(-theta, cap), theta)
    return lower, upper


def best_effcap_lower(model, params: FeedbackParams, grid: ThetaGrid) -> BoundResult:
    """Pointwise best lower bound across all applicable families, per theta.

    Families without a defined value for the model (the series route needs
    i.i.d. increments, the a-priori route a known rate-capped composition)
    simply do not compete; ties go to the family listed first.
    """
    thetas = grid.values
    candidates = {"blocks": effcap_lower_blocks(model, params, thetas)}
    if not _is_markov(model):
        candidates["series"] = effcap_lower_series(model, params, thetas)
    try:
        candidates["apriori"] = effcap_apriori(model, params, thetas)[0]
    except NotImplementedError:
        pass
    names = list(candidates)
    stacked = np.vstack(list(candidates.values()))
    pick = np.argmax(stacked, axis=0)
    values = stacked[pick, np.arange(len(thetas))]
    feasible = np.isfinite(values)
    provenance = [names[i] if ok else "none" for i, ok in zip(pick, feasible)]
    return BoundResult("best-lower", thetas, values, thetas.copy(), feasible, provenance)


# ===========================================================================
# backlog bounds
# ===========================================================================


def _log_arrival_mgf(arrivals, theta):
    if hasattr(arrivals, "log_mgf_increment"):
        return arrivals.log_mgf_increment(theta)
    return _log(arrivals.mgf_increment(theta))


def _logsumexp(values: np.ndarray) -> float:
    top = np.max(values)
    if not math.isfinite(top):
        return float(top)
    return float(top + math.log(np.sum(np.exp(values - top))))


def _log_backlog_sum(arrivals, curve: LogMgfCurve, theta: float, t: int) -> float:
    """log sum over interval lengths 0..t of M_A(theta)^ell * bound(theta, ell)."""
    log_ma = _log_arrival_mgf(arrivals, theta)
    if log_ma == INF:
        return INF
    ell = np.arange(t + 1, dtype=float)
    log_terms = ell * log_ma + curve.log_value(theta, ell)
    if not np.all(np.isfinite(log_terms)):
        return INF
    return _logsumexp(log_terms)


def _log_steady_state_sum(arrivals, curve: LogMgfCurve, theta):
    """log sum over all lengths ell >= 0 of M_A(theta)^ell * bound(theta, ell).

    Writing ell = k p + j with j < p, the sum is e^{log_offset} times the
    phase sum over j of M_A^j times a geometric series in k with ratio e^r,
    r = p log M_A + log_rate.  It converges exactly when r < 0 and is +inf
    otherwise.  Scalar or array theta.
    """
    log_ma = _log_arrival_mgf(arrivals, theta)
    log_rate, log_offset = curve.coefficients(theta)
    with np.errstate(invalid="ignore"):
        r = curve.period * log_ma + log_rate
    converges = (r < 0.0) & np.isfinite(log_ma) & np.isfinite(log_offset)
    phase = np.multiply.outer(np.where(converges, log_ma, 0.0), np.arange(curve.period))
    top = phase.max(axis=-1)
    head = top + np.log(np.exp(phase - top[..., None]).sum(axis=-1))
    tail = np.log(-np.expm1(np.where(converges, r, -1.0)))
    return np.where(converges, head + log_offset - tail, INF)


def backlog_bound(
    arrivals, curve: LogMgfCurve, eps: float, grid: ThetaGrid, t: int
) -> float:
    """Chernoff backlog bound b with P(B(t) > b) <= eps.

    Minimizes over theta the deconvolution sum of the arrival MGF against the
    service MGF bound, both taken over interval lengths up to t, term by
    term.  Returns +inf when no grid theta is feasible (the system is
    unstable at this arrival rate for every usable theta).
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie strictly between 0 and 1")
    if t < 1:
        raise ValueError("t must be >= 1")
    log_eps = math.log(eps)

    def objective(theta: float) -> float:
        s = _log_backlog_sum(arrivals, curve, theta, t)
        return (s - log_eps) / theta if math.isfinite(s) else INF

    # grid argmin, then golden-section refinement on the neighbouring
    # bracket; never worse than the best grid point, +inf if all are
    thetas = grid.values
    grid_values = [objective(th) for th in thetas]
    k = int(np.argmin(grid_values))
    if grid_values[k] == INF:
        return INF
    _, fx = golden_section_max(
        lambda th: -objective(th), thetas[max(k - 1, 0)], thetas[min(k + 1, len(thetas) - 1)]
    )
    return float(min(grid_values[k], -fx))


def steady_state_backlog_bound(arrivals, curve: LogMgfCurve, eps, grid: ThetaGrid):
    """Backlog bound in the large-t limit, from the closed-form geometric sum.

    The objective at theta is (log S(theta) - log eps) / theta with
    log S = log sum_{j<p} e^{j log M_A + log_offset} - log(1 - e^r) and
    r = p log M_A(theta) + log_rate(theta).  A theta with r >= 0 is
    infeasible; the bound is +inf exactly when every grid theta is.

    eps is a scalar (the bound is a float) or an array (one bound per
    entry).  All entries share one evaluation of log S on the grid, and the
    golden-section refinements around their best grid points run in lockstep.
    """
    eps = np.asarray(eps, dtype=float)
    flat = eps.ravel()
    if not np.all((flat > 0.0) & (flat < 1.0)):
        raise ValueError("eps must lie strictly between 0 and 1")
    log_eps = np.array([math.log(e) for e in flat.tolist()])
    thetas = grid.values
    grid_values = (_log_steady_state_sum(arrivals, curve, thetas) - log_eps[:, None]) / thetas
    k = np.argmin(grid_values, axis=1)
    best = grid_values[np.arange(len(flat)), k]
    # refine each finite grid minimum on its neighbouring bracket; the
    # result is never worse than the grid point
    live = np.flatnonzero(best < INF)
    if live.size:
        lo = thetas[np.maximum(k[live] - 1, 0)]
        hi = thetas[np.minimum(k[live] + 1, len(thetas) - 1)]

        def negated(theta, which):
            return -((_log_steady_state_sum(arrivals, curve, theta) - log_eps[live[which]]) / theta)

        _, fx = _golden_section_max_lockstep(negated, lo, hi)
        best[live] = np.minimum(best[live], -fx)
    return float(best[0]) if eps.ndim == 0 else best.reshape(eps.shape)
