"""Arrival and service models.

Each model is an immutable dataclass exposing, where meaningful:

* ``mgf_increment(theta)``      E[exp(theta c_k)] of one slot increment,
* ``mgf_path(theta, t)``        exact E[exp(theta S(0, t))], the exp of
  ``log_mgf_path(theta, t)``,
* ``effective_capacity(theta)`` long-run decay rate of the service MGF at
  -theta (theta > 0), whose theta -> 0 limit is the mean rate,
* ``sample_increments(rng, T, n)`` a batch of n sample paths of T slots,
  shape (n, T), a deterministic function of the generator's state.  The
  exponential law draws it path by path and the two-state chain slot by
  slot, each in the order of its draws; both store it time-major (F order),
  one contiguous row per slot, and so do the constant law and the laws
  composed of them.  A batch is read-only, and so is the array that owns
  its memory: it cannot change, so the batch oracle may resume a pass on it.

An i.i.d. law states one transform, ``log_mgf_increment(theta)``.  The
two-state model states one scaled spectral form of its slot operator,
computed from the state laws' log-MGFs.  The MGFs and the effective capacity
of both are read off these, by one implementation in the base class.

Internally rates are megabits per slot and theta is per megabit.  MGFs that
diverge return +inf rather than raising: divergence is a value.  The
per-slot transforms (``mgf_increment``, ``log_censored_mgf``, ``eigen_m_plus``),
the path MGFs and ``effective_capacity`` take a scalar or an array of theta, and
``erlang_quantile(eps, n, C)`` a scalar or an array of shapes n; each returns
a value of the same shape, so a whole theta grid or service-curve horizon is
one call.  ``nonnegative`` tells whether every increment is >= 0.

There is one class per distribution family.  ``ExponentialVbrService``
is the i.i.d. exponential law; ``ExponentialArrivals`` is an alias of it
for arrival processes.  ``MarkovModulated2Service`` is the two-state
Markov-modulated model; ``MmooService(p00, p11, peak)`` is that model with
the constant laws 0 and ``peak`` (On-Off service).

Two-state Markov-modulated models additionally expose the spectral
quantities of the 2x2 slot operator L(theta) = P_transition * diag(M0, M1):
its dominant eigenvalue, one root free of cancellation, drives the effective
capacity, and the mixing weight of the spectral decomposition gives an exact
two-term form of the path MGF.  The path MGF holds for any chain with a
steady state, summed from nonnegative terms only; a chain with p00 = 0 or
p11 = 0 has it while its state log-MGFs differ by at most 1400, and nan past
that.  The dominant eigenvalue, the weight and the capacity, which the
bounds use, require slow switching, p01 + p10 < 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

INF = float("inf")

# floats of uniform draws (512 KiB) an i.i.d. batch sampler holds at once;
# measured a little faster than 2^14 or 2^18 at 5e4 paths x 50 slots
_IID_BLOCK_FLOATS = 1 << 16

__all__ = [
    "DeterministicService",
    "ExponentialVbrService",
    "ExponentialArrivals",
    "LeftoverService",
    "MmooService",
    "MarkovModulated2Service",
    "erlang_quantile",
    "regularized_lower_gamma",
]

_EXP_OVERFLOW = 709.0


def _frozen(batch: np.ndarray) -> np.ndarray:
    """``batch``, made read-only; freeze an owner before taking views of it."""
    batch.flags.writeable = False
    return batch


def _safe_exp(x):
    """exp(x), with +inf from the overflow threshold on and nan kept; scalar or array."""
    x = np.asarray(x, dtype=float)
    return np.where(x >= _EXP_OVERFLOW, INF, np.exp(np.minimum(x, _EXP_OVERFLOW)))[()]


def _positive_theta(theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if not np.all(theta > 0):  # NaN fails too
        raise ValueError("theta must be > 0")
    return theta


def _check_counts(T, n) -> None:
    """Refuse a slot count T or path count n that is negative or not an integer."""
    for name, value in (("T", T), ("n", n)):
        if not isinstance(value, (int, np.integer)) or value < 0:
            raise ValueError(f"{name} must be an integer >= 0")


# ===========================================================================
# regularized lower incomplete gamma and the Erlang quantile
# ===========================================================================

_SERIES_TOL = 2.0**-54  # a term this far below the sum is under half its ulp
_SERIES_MAX_TERMS = 100_000
_SERIES_RESCALE = 2.0**900  # power-of-two rescaling is exact
_NEWTON_TOL = 1e-10
_NEWTON_MAX_STEPS = 50
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_lgamma = np.frompyfunc(math.lgamma, 1, 1)


def _log_lower_gamma(a: np.ndarray, x: np.ndarray, log_x: np.ndarray) -> Tuple:
    """(log P(a, x), log S) for 1-d arrays a > 0, x >= 0 of one length.

    P(a, x) = x^a e^-x / Gamma(a + 1) * S, with S = sum_k x^k / ((a+1)...(a+k)).
    The weight is taken through d = x / a - 1 and the Stirling error
    lgamma(a + 1) - (a + 1/2) log a + a - log(2 pi) / 2 (its asymptotic series
    past a = 15), so no terms of size a log a cancel.  S is summed by the term
    recurrence on whole vectors until every next term is under half an ulp of
    its sum; later terms are smaller still, so no element depends on another.
    """
    d = (x - a) / a
    near = np.abs(d) < 0.5
    log_ratio = np.where(near, np.log1p(np.where(near, d, 0.0)), log_x - np.log(a))
    r2 = 1.0 / (a * a)
    stirling = (1 / 12 - r2 * (1 / 360 - r2 * (1 / 1260 - r2 * (1 / 1680 - r2 / 1188)))) / a
    small = a <= 15.0
    s = a[small]
    stirling[small] = _lgamma(s + 1.0).astype(float) - (s + 0.5) * np.log(s) + s - _HALF_LOG_2PI
    log_weight = -a * (d - log_ratio) - 0.5 * np.log(a) - _HALF_LOG_2PI - stirling
    term = np.ones_like(x)
    total = np.ones_like(x)
    log_scale = np.zeros_like(x)
    # S <= min(e^x, 1 / weight), so only these sums can leave the float range
    wide = np.minimum(x, -log_weight) > 700.0
    any_wide = wide.any()
    for k in range(1, _SERIES_MAX_TERMS + 1):
        term *= x / (a + k)
        total += term
        if any_wide:
            big = wide & (total > _SERIES_RESCALE)
            term[big] /= _SERIES_RESCALE
            total[big] /= _SERIES_RESCALE
            log_scale[big] += math.log(_SERIES_RESCALE)
        # tested every 8 terms: terms past convergence leave the sums as they are
        if k % 8 == 0 and not np.any(term > total * _SERIES_TOL):
            log_s = np.log(total) + log_scale
            return log_weight + log_s, log_s
    raise RuntimeError(f"incomplete gamma series did not converge in {_SERIES_MAX_TERMS} terms")


def regularized_lower_gamma(a, x):
    """P(a, x), the regularized lower incomplete gamma function.

    Scalar or array a and x, broadcast together; scalar in, scalar out.
    Every element comes from the power series of ``_log_lower_gamma``,
    within about 1e-13 absolute of ``scipy.special.gammainc``.
    """
    a, x = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(x, dtype=float))
    if not np.all(np.isfinite(a) & (a > 0)):
        raise ValueError("shape a must be finite and > 0")
    if not np.all(np.isfinite(x) & (x >= 0)):
        raise ValueError("x must be finite and >= 0")
    with np.errstate(divide="ignore"):  # log 0 = -inf carries through to P(a, 0) = 0
        log_p = _log_lower_gamma(a.ravel(), x.ravel(), np.log(x.ravel()))[0]
    # rounding can carry exp(log P) just past 1
    return np.minimum(np.exp(log_p), 1.0).reshape(a.shape)[()]


def erlang_quantile(eps: float, n, mean_per_slot: float):
    """eps-quantile of a Gamma(shape n, scale C) total, i.e. of the sum of
    n independent exponential slot increments with mean C each.

    ``n`` may be an array of shapes, one quantile each; scalar in, scalar
    out.  All shapes are inverted in lockstep by Newton's method on log P
    against log x, which is concave, from the Wilson-Hilferty approximation
    or, where that fails, the small-x asymptote P ~ x^n / n!.  A shape stops
    once its log-x step is at most 1e-10, leaving it within rounding of the
    exact quantile (about 1e-14 relative) and bit-identical to the scalar
    call.  Raises on non-convergence instead of clamping.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie strictly between 0 and 1")
    if not 0.0 < mean_per_slot < INF:
        raise ValueError("mean per slot must be finite and > 0")
    shape = np.asarray(n, dtype=float)
    if not np.all(np.isfinite(shape) & (shape >= 1)):
        raise ValueError("shape n must be finite and >= 1")
    # statistics takes milliseconds to import, and only this function uses it
    from statistics import NormalDist

    a = shape.ravel()
    log_eps = math.log(eps)
    c = 1.0 / (9.0 * a)
    base = 1.0 - c + NormalDist().inv_cdf(eps) * np.sqrt(c)
    low = base <= 0.0
    u = np.log(a) + 3.0 * np.log(np.where(low, 1.0, base))
    u[low] = (log_eps + _lgamma(a[low] + 1.0).astype(float)) / a[low]
    active = np.arange(a.size)
    for _ in range(_NEWTON_MAX_STEPS):
        aa, uu = a[active], u[active]
        log_p, log_s = _log_lower_gamma(aa, np.exp(uu), uu)
        step = (log_p - log_eps) * np.exp(log_s) / aa  # d log P / d log x = a / S
        u[active] = uu - step
        active = active[~(np.abs(step) <= _NEWTON_TOL)]
        if active.size == 0:
            return (np.exp(u) * mean_per_slot).reshape(shape.shape)[()]
    raise RuntimeError(f"Erlang quantile did not converge (eps={eps}, n={a[active][:3]})")


# ===========================================================================
# i.i.d. increment models
# ===========================================================================


class _Model:
    """MGFs and capacity from a family's ``_log_path(theta, t >= 1)`` and
    per-slot log growth rate ``_log_growth``."""

    def log_mgf_path(self, theta, t: int):
        """log E[exp(theta S(0, t))]: 0 at t = 0, +inf where it diverges."""
        if t < 0:
            raise ValueError("t must be >= 0")
        theta = np.asarray(theta, dtype=float)
        return (self._log_path(theta, t) if t else np.zeros_like(theta))[()]

    def mgf_path(self, theta, t: int):
        return _safe_exp(self.log_mgf_path(theta, t))

    def mgf_increment(self, theta):
        return self.mgf_path(theta, 1)

    def effective_capacity(self, theta):
        theta = _positive_theta(theta)
        return (-self._log_growth(-theta) / theta)[()]


class _IidModel(_Model):
    """i.i.d. slot increments: the path log-MGF is t log_mgf_increment."""

    def _log_path(self, theta, t: int):
        return t * self.log_mgf_increment(theta)

    def _log_growth(self, theta):
        return self.log_mgf_increment(theta)


@dataclass(frozen=True)
class DeterministicService(_IidModel):
    """Constant-rate service of ``rate`` megabits in every slot.

    A zero rate is allowed; it doubles as the empty arrival process.
    """

    rate: float
    nonnegative = True

    def __post_init__(self):
        if not (math.isfinite(self.rate) and self.rate >= 0):
            raise ValueError("rate must be finite and >= 0")

    @property
    def mean_rate(self) -> float:
        return self.rate

    def log_mgf_increment(self, theta):
        return np.multiply(theta, self.rate)

    def log_censored_mgf(self, theta, cap: float):
        """log E[exp(theta min(c, cap))] = theta min(rate, cap)."""
        return np.multiply(theta, min(self.rate, cap))

    def sample_increments(self, rng: np.random.Generator, T: int, n: int = 1) -> np.ndarray:
        _check_counts(T, n)
        return _frozen(np.full((T, n), float(self.rate))).T


@dataclass(frozen=True)
class ExponentialVbrService(_IidModel):
    """i.i.d. exponential per-slot increments with mean ``mean_rate`` Mb.

    As a service it is a work-conserving server with exponential per-slot
    capacity; as ``ExponentialArrivals`` it is an exponential arrival process.
    """

    mean_rate: float
    nonnegative = True

    def __post_init__(self):
        if not (math.isfinite(self.mean_rate) and self.mean_rate > 0):
            raise ValueError("mean rate must be finite and > 0")

    def log_mgf_increment(self, theta):
        """-log(1 - C theta), +inf from theta = 1/C on."""
        lam = self.mean_rate
        theta = np.asarray(theta, dtype=float)
        below = theta < 1.0 / lam
        return np.where(below, -np.log1p(-lam * np.where(below, theta, 0.0)), INF)[()]

    def log_censored_mgf(self, theta, cap: float):
        """log E[exp(theta min(c, cap))], finite for every real theta.

        Log of the closed form (1 - C theta e^((theta - 1/C) cap)) / (1 - C theta),
        with the removable singularity at theta = 1/C filled by its limit.
        """
        if cap <= 0:
            raise ValueError("cap must be > 0")
        c = self.mean_rate
        theta = np.asarray(theta, dtype=float)
        denom = 1.0 - c * theta
        singular = np.abs(denom) < 1e-12
        numer = 1.0 - c * theta * _safe_exp((theta - 1.0 / c) * cap)
        return np.log(np.where(singular, 1.0 + cap / c, numer / np.where(singular, 1.0, denom)))[()]

    def sample_increments(self, rng: np.random.Generator, T: int, n: int = 1) -> np.ndarray:
        """Inverse-CDF draws, exactly T per path, path by path as
        ``rng.random((n, T))`` draws them.  A batch (n > 1) is drawn a block
        of paths at a time into one reused buffer and stored one slot row at
        a time: the result is the F-contiguous transpose of a (T, n) table,
        which is read-only, as the result is."""
        _check_counts(T, n)
        if n == 1:
            return _frozen(self._from_uniform(rng.random((1, T))))
        table = np.empty((T, n))
        paths = max(1, _IID_BLOCK_FLOATS // max(T, 1))
        buf = np.empty(min(n, paths) * T)
        for b in range(0, n, paths):
            k = min(paths, n - b)
            block = buf[: k * T]
            rng.random(out=block)
            table[:, b : b + k] = self._from_uniform(block).reshape(k, T).T
        return _frozen(table).T

    def _from_uniform(self, u: np.ndarray) -> np.ndarray:
        np.log1p(np.negative(u, out=u), out=u)
        u *= -self.mean_rate
        return u


ExponentialArrivals = ExponentialVbrService


@dataclass(frozen=True)
class LeftoverService(_IidModel):
    """Capacity left by cross traffic: increment = base increment - cross increment.

    Increments may be negative.  Downstream consumers use leftover paths only
    through interval sums, never clipped per slot.  The model is meaningful
    under the stability condition E[cross] < E[base].
    """

    base: object
    cross: object
    nonnegative = False

    @property
    def mean_rate(self) -> float:
        return self.base.mean_rate - self.cross.mean_rate

    @property
    def is_stable(self) -> bool:
        return self.cross.mean_rate < self.base.mean_rate

    def log_mgf_increment(self, theta):
        return self.base.log_mgf_increment(theta) + self.cross.log_mgf_increment(np.negative(theta))

    def log_censored_mgf(self, theta, cap: float):
        """log E[exp(theta min(c, cap))] for deterministic base and exponential cross.

        With base rate C and exponential cross of mean L the increment is
        C - a.  For cap >= C the cap never binds.  Otherwise condition on
        a <=> C - cap and add the two terms in the log domain; the
        conditional tail MGF of a requires -theta < 1/L, and returns +inf
        where it diverges.
        """
        if not isinstance(self.base, DeterministicService) or not isinstance(
            self.cross, ExponentialArrivals
        ):
            raise NotImplementedError(
                "censored MGF is implemented for a deterministic base with "
                "exponential cross traffic"
            )
        C = self.base.rate
        lam = self.cross.mean_rate
        theta = np.asarray(theta, dtype=float)
        if cap >= C:
            return self.log_mgf_increment(theta)[()]
        x = C - cap  # cap binds exactly when a < x
        log_below = math.log(-math.expm1(-x / lam))
        converges = -theta < 1.0 / lam
        th = np.where(converges, theta, 0.0)
        log_tail = th * C - x * (1.0 / lam + th) - np.log1p(lam * th)
        return np.where(converges, np.logaddexp(th * cap + log_below, log_tail), INF)[()]

    def sample_increments(self, rng: np.random.Generator, T: int, n: int = 1) -> np.ndarray:
        # a constant base draws nothing from rng: subtract from its rate in
        # place, in the fresh cross sample, thawed for it (owner first)
        if isinstance(self.base, DeterministicService):
            cross = self.cross.sample_increments(rng, T, n)
            owner = cross if cross.base is None else cross.base
            owner.flags.writeable = cross.flags.writeable = True
            np.subtract(float(self.base.rate), cross, out=cross)
            owner.flags.writeable = cross.flags.writeable = False
            return cross
        base = self.base.sample_increments(rng, T, n)
        cross = self.cross.sample_increments(rng, T, n)
        return _frozen(base - cross)


# ===========================================================================
# two-state Markov-modulated models
# ===========================================================================


def _sample_sojourns(rng: np.random.Generator, p00: float, p11: float, p_on: float, T: int) -> np.ndarray:
    """One path of T states from geometric sojourn runs, started in state 1
    with probability p_on, the chain's steady state.

    Runs are drawn in bulk with alternating leave probabilities.  A batch
    that overshoots T is redrawn from the saved generator state with exactly
    the runs needed, so the states and the generator state afterwards equal
    those of one scalar draw per sojourn.
    """
    state = 1 if rng.random() < p_on else 0
    if p00 >= 1.0 or p11 >= 1.0:
        # p_on is exactly 0 or 1 here: the chain starts in its absorbing state
        return np.full(T, state, dtype=np.int8)
    out = np.empty(T, dtype=np.int8)
    pos = 0
    leave = np.array([1.0 - p00, 1.0 - p11])
    mean_cycle = 1.0 / leave[0] + 1.0 / leave[1]
    while pos < T:
        count = math.ceil(2.1 * (T - pos) / mean_cycle) + 64
        probs = leave[(state + np.arange(count)) % 2]
        saved = rng.bit_generator.state
        runs = rng.geometric(probs)
        ends = pos + np.cumsum(runs)
        if ends[-1] >= T:
            count = int(np.searchsorted(ends, T)) + 1
            rng.bit_generator.state = saved
            runs = rng.geometric(probs[:count])
            ends = ends[:count]
        states = (state + np.arange(count)) % 2
        out[pos : min(ends[-1], T)] = np.repeat(states.astype(np.int8), runs)[: T - pos]
        pos = int(ends[-1])
        state = int(states[-1]) ^ 1
    return out


def _sample_two_state_chain(rng: np.random.Generator, p00: float, p11: float, T: int, n: int) -> np.ndarray:
    """States in {0, 1}, shape (n, T), chain started in steady state.

    Batches iterate slot by slot across all paths, drawing ``rng.random(n)``
    per slot.  Each slot is one contiguous row of a (T, n) table, and the
    result is its transpose: an F-contiguous (n, T) view.  A single long
    path is generated from geometric sojourn runs, which is equivalent in
    distribution because sojourn times are memoryless given the state.
    """
    p_on = (1.0 - p00) / ((1.0 - p00) + (1.0 - p11))  # the steady state, as on_probability has it
    if n == 1 and T > 4096:
        return _sample_sojourns(rng, p00, p11, p_on, T)[None, :]
    states = np.empty((T, n), dtype=np.int8)
    stay = np.array([p00, p11])
    x = (rng.random(n) < p_on).astype(np.int8)
    for k in range(T):
        states[k] = x
        if k == T - 1:
            break
        x ^= rng.random(n) >= stay[x]
    return states.T


@dataclass(frozen=True)
class MarkovModulated2Service(_Model):
    """General two-state Markov-modulated service.

    The chain selects the slot law: increments are drawn i.i.d. from ``law0``
    in state 0 and from ``law1`` in state 1, independently of the chain.
    The chain starts in steady state; the frozen chain p00 = p11 = 1 has no
    unique one and is refused.  The path MGF holds for any chain with a
    steady state (with a zero diagonal, while the state log-MGFs differ by
    at most 1400).  The spectral bound quantities (``eigen_m_plus``,
    ``k_theta``, ``effective_capacity``) require slow switching,
    p01 + p10 < 1, which keeps the correlation eigenvalue
    mu = 1 - p01 - p10 inside (0, 1).
    """

    p00: float
    p11: float
    law0: object
    law1: object

    def __post_init__(self):
        for name in ("p00", "p11"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.p00 == self.p11 == 1.0:
            raise ValueError("chain has no unique steady state (p00 = p11 = 1)")

    @property
    def p01(self) -> float:
        return 1.0 - self.p00

    @property
    def p10(self) -> float:
        return 1.0 - self.p11

    @property
    def on_probability(self) -> float:
        return self.p01 / (self.p01 + self.p10)

    @property
    def correlation_eigenvalue(self) -> float:
        return 1.0 - self.p01 - self.p10

    @property
    def is_slow_switching(self) -> bool:
        """p01 + p10 in (0, 1), the condition of the spectral bounds."""
        return 0.0 < self.p01 + self.p10 < 1.0

    def _require_slow_switching(self):
        if not self.is_slow_switching:
            raise ValueError(
                f"spectral analysis requires p01 + p10 < 1, got {self.p01 + self.p10}"
            )

    @property
    def mean_rate(self) -> float:
        p = self.on_probability
        return (1.0 - p) * self.law0.mean_rate + p * self.law1.mean_rate

    @property
    def nonnegative(self) -> bool:
        return self.law0.nonnegative and self.law1.nonnegative

    def _scaled(self, theta) -> Tuple:
        """(top, e0, e1, m0, m1): the state MGFs of L(theta) over e^top, as
        logs e and values m = e^e; exact where the MGFs would under- or
        overflow, as eigenvalues and path MGF are homogeneous in (M0, M1).

        top is the larger state log-MGF, +inf where one diverges.  With
        p00 p11 = 0 plus nears sqrt(p01 p10 M0 M1) as the MGFs part, so top is
        the largest log diagonal entry or half log off-diagonal product
        (plus >= 1), but at most 709 below the larger state log-MGF.  Past a
        gap of 1400 between the state log-MGFs a scaled MGF that counts can
        leave the normal float range: top is nan, not a wrong value.
        """
        l0, l1 = self.law0.log_mgf_increment(theta), self.law1.log_mgf_increment(theta)
        top, span = np.maximum(l0, l1), INF
        if self.p00 * self.p11 == 0.0:
            entries = ((self.p00, l0), (self.p11, l1), (math.sqrt(self.p01 * self.p10), 0.5 * (l0 + l1)))
            top = np.maximum.reduce([l + math.log(w) for w, l in entries if w > 0.0] + [top - _EXP_OVERFLOW])
            span = 1400.0
        finite = np.isfinite(top)
        top = np.where(finite, top, 0.0)
        e0, e1 = (np.where(finite, l - top, 0.0) for l in (l0, l1))
        inside = np.abs(e0 - e1) <= span
        e0, e1 = (np.where(inside, e, 0.0) for e in (e0, e1))
        top = np.where(finite, np.where(inside, top, np.nan), INF)
        return top, e0, e1, np.exp(e0), np.exp(e1)

    def _dominant(self, theta) -> Tuple:
        """``_scaled``'s tuple and (trace, h, root_bc, w, plus) over e^top: trace = a + d
        and h = (a - d) / 2 of the diagonal entries, root_bc = sqrt(p01 p10 m0 m1),
        w = hypot(h, root_bc) and the one dominant eigenvalue plus = trace / 2 + w."""
        top, e0, e1, m0, m1 = self._scaled(theta)
        a, d = self.p00 * m0, self.p11 * m1
        root_bc = math.sqrt(self.p01 * self.p10) * np.exp(0.5 * (e0 + e1))  # no square underflows
        h = 0.5 * (a - d)
        w = np.hypot(h, root_bc)
        return top, e0, e1, m0, m1, a + d, h, root_bc, w, 0.5 * (a + d) + w

    def _spectrum(self, theta) -> Tuple:
        """(top, plus, negative, gap, log_r, lead) of the two-term spectral form.

        With r = minus / plus, the path MGF over plus^t e^(top t) is the sum
        of nonnegative terms (lead / plus)(1 + r + ... + r^(t-1)) + rest: for
        r >= 0, lead = mean - minus and rest = r^t; for r < 0 (``negative``,
        fast switching), lead = mean and rest = |r| (1 + r + ... + r^(t-2)).
        gap = 1 - |r| and log_r = log |r|, read off the logs of the MGFs so
        r^t survives where they underflow.  Nothing cancels: with the parts of
        plus from ``_dominant``, |h| + w is the larger of a - minus = plus - d
        and d - minus, whose product is p01 p10 m0 m1; and mean - minus =
        pi0 (p01 m0 + a - minus) + pi1 (p10 m1 + d - minus).  So a steady
        state (nearly) off the dominant eigenvector keeps full precision.
        """
        top, e0, e1, m0, m1, trace, h, root_bc, w, plus = self._dominant(theta)
        p, mu = self.on_probability, self.correlation_eigenvalue
        if mu < 0.0:
            lead, gap = (1.0 - p) * m0 + p * m1, trace / plus
        else:
            big = np.abs(h) + w
            small = root_bc * np.divide(root_bc, big, out=np.zeros_like(big), where=big > 0.0)
            a_gap, d_gap = np.where(h >= 0.0, big, small), np.where(h >= 0.0, small, big)
            lead, gap = (1.0 - p) * (self.p01 * m0 + a_gap) + p * (self.p10 * m1 + d_gap), 2.0 * w / plus
        with np.errstate(divide="ignore"):  # r = 0 where mu = 0
            log_r = np.log(abs(mu)) + e0 + e1 - 2.0 * np.log(plus)
        return top, plus, mu < 0.0, gap, np.where(gap < 0.5, np.log1p(-np.minimum(gap, 0.5)), log_r), lead

    def _log_path(self, theta, t: int):
        """Spectral form of the path log-MGF, for any chain with a steady state:
        K plus^t + (1 - K) minus^t summed as in ``_spectrum``, with no pole
        where the eigenvalues coincide and 1 - r^n taken from gap."""
        top, plus, negative, gap, log_r, lead = self._spectrum(theta)
        one_minus_r = 2.0 - gap if negative else gap

        def geometric(n):  # 1 + r + ... + r^(n-1); log_r is finite when negative
            head = 1.0 + np.exp(n * log_r) if negative and n % 2 else -np.expm1(n * log_r)
            return np.divide(head, one_minus_r, out=np.full_like(gap, float(n)), where=one_minus_r > 0.0)

        with np.errstate(divide="ignore"):  # log 0 = -inf is a vanishing term
            rest = log_r + np.log(geometric(t - 1)) if negative else t * log_r
            log_value = np.logaddexp(np.log(lead) - np.log(plus) + np.log(geometric(t)), rest)
        return t * (np.log(plus) + top) + log_value

    def _log_growth(self, theta):
        """log plus of L(theta), +inf where a state MGF diverges; plus is the
        root of ``_dominant``, the one the path MGF and ``k_theta`` read."""
        self._require_slow_switching()
        top, *_, plus = self._dominant(theta)
        return np.log(plus) + top

    def eigen_m_plus(self, theta):
        return _safe_exp(self._log_growth(theta))

    def k_theta(self, theta: float) -> float:
        """Weight K = (mean - minus) / (plus - minus) of the dominant spectral
        term; the eigenvalues coincide where 1 - r = gap <= 1e-7."""
        self._require_slow_switching()
        top, plus, _, gap, _, lead = self._spectrum(theta)
        if not np.isfinite(top) or gap <= 1e-7:
            raise ValueError("eigenvalues diverge or coincide; spectral weight undefined")
        return lead / (gap * plus)

    def on_sequence_probability(self, times) -> float:
        """Exact probability of the chain being in state 1 at every listed time."""
        ts = list(times)
        if not ts:
            raise ValueError("times must be non-empty")
        if any(int(x) != x for x in ts):
            raise ValueError("times must be integers")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("times must be strictly increasing")
        p, mu = self.on_probability, self.correlation_eigenvalue
        prob = p
        for a, b in zip(ts, ts[1:]):
            prob *= p + (1.0 - p) * mu ** (b - a)
        return prob

    def sample_increments(self, rng: np.random.Generator, T: int, n: int = 1) -> np.ndarray:
        _check_counts(T, n)
        states = _sample_two_state_chain(rng, self.p00, self.p11, T, n)
        # a constant law draws nothing from rng: broadcast its rate, build no array
        inc0, inc1 = (
            float(law.rate) if isinstance(law, DeterministicService) else law.sample_increments(rng, T, n)
            for law in (self.law0, self.law1)
        )
        # with two constant laws the result keeps the chain's F order
        return _frozen(np.where(states == 1, inc1, inc0))


class MmooService(MarkovModulated2Service):
    """Two-state On-Off service: state 1 serves ``peak`` megabits per slot,
    state 0 serves nothing."""

    def __init__(self, p00: float, p11: float, peak: float):
        if not (math.isfinite(peak) and peak > 0):
            raise ValueError("peak rate must be finite and > 0")
        super().__init__(p00, p11, DeterministicService(0.0), DeterministicService(peak))

    @property
    def peak(self) -> float:
        return self.law1.rate

    # its own class attribute: perfbench/tracer.py wraps each class's sampler
    sample_increments = MarkovModulated2Service.sample_increments
