"""Arrival and service models.

Each model is an immutable dataclass exposing, where meaningful:

* ``mgf_increment(theta)``      E[exp(theta c_k)] of one slot increment,
* ``mgf_path(theta, t)``        exact E[exp(theta S(0, t))],
* ``effective_capacity(theta)`` long-run decay rate of the service MGF at
  -theta (theta > 0), whose theta -> 0 limit is the mean rate,
* ``sample_path(seed, T)`` and ``sample_increments(rng, T, n)`` seeded
  deterministic sample path generators.

An i.i.d. law states one transform, ``log_mgf_increment(theta)``; its MGF
and effective capacity are read off it.  Two-state models take the log
eigenvalues of their slot operator from the state laws' log-MGFs.

Internally rates are megabits per slot and theta is per megabit.  MGFs that
diverge return +inf rather than raising: divergence is a value.  The
per-slot transforms (``mgf_increment``, ``log_censored_mgf``, ``eigen_m_plus``)
and ``effective_capacity`` take a scalar or an array of theta, and
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
its dominant eigenvalue drives the effective capacity, and the mixing
weight of the spectral decomposition gives an exact two-term form of the
path MGF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

INF = float("inf")

__all__ = [
    "DeterministicService",
    "ExponentialVbrService",
    "ExponentialArrivals",
    "LeftoverService",
    "MmooService",
    "MarkovModulated2Service",
    "leftover_two_state",
    "erlang_quantile",
    "regularized_lower_gamma",
]

_EXP_OVERFLOW = 709.0


def _safe_exp(x):
    """exp(x), with +inf from the overflow threshold on; scalar or array."""
    x = np.asarray(x, dtype=float)
    return np.where(x < _EXP_OVERFLOW, np.exp(np.minimum(x, _EXP_OVERFLOW)), INF)[()]


def _positive_theta(theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if np.any(theta <= 0):
        raise ValueError("theta must be > 0")
    return theta


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
    """Seeded single-path sampling on top of ``sample_increments``."""

    def sample_path(self, seed: int, T: int) -> np.ndarray:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        return self.sample_increments(rng, T, 1)[0]


class _IidModel(_Model):
    """i.i.d. slot increments: M = exp(log_mgf_increment), path MGF M^t."""

    def mgf_increment(self, theta):
        return _safe_exp(self.log_mgf_increment(theta))

    def effective_capacity(self, theta):
        theta = _positive_theta(theta)
        return (-self.log_mgf_increment(-theta) / theta)[()]

    def mgf_path(self, theta: float, t: int) -> float:
        if t < 0:
            raise ValueError("t must be >= 0")
        if t == 0:
            return 1.0
        m = self.mgf_increment(theta)
        return m**t if math.isfinite(m) else INF


@dataclass(frozen=True)
class DeterministicService(_IidModel):
    """Constant-rate service of ``rate`` megabits in every slot.

    A zero rate is allowed; it doubles as the empty arrival process.
    """

    rate: float
    nonnegative = True

    def __post_init__(self):
        if self.rate < 0:
            raise ValueError("rate must be >= 0")

    @property
    def mean_rate(self) -> float:
        return self.rate

    def log_mgf_increment(self, theta):
        return np.multiply(theta, self.rate)

    def log_censored_mgf(self, theta, cap: float):
        """log E[exp(theta min(c, cap))] = theta min(rate, cap)."""
        return np.multiply(theta, min(self.rate, cap))

    def sample_increments(self, rng: np.random.Generator, T: int, n: int = 1) -> np.ndarray:
        return np.full((n, T), float(self.rate))


@dataclass(frozen=True)
class ExponentialVbrService(_IidModel):
    """i.i.d. exponential per-slot increments with mean ``mean_rate`` Mb.

    As a service it is a work-conserving server with exponential per-slot
    capacity; as ``ExponentialArrivals`` it is an exponential arrival process.
    """

    mean_rate: float
    nonnegative = True

    def __post_init__(self):
        if self.mean_rate <= 0:
            raise ValueError("mean rate must be > 0")

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
        # inverse CDF keeps the draw count per path exactly T
        u = rng.random((n, T))
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
        # a constant base draws nothing from rng: subtract from its rate
        if isinstance(self.base, DeterministicService):
            cross = self.cross.sample_increments(rng, T, n)
            return np.subtract(float(self.base.rate), cross, out=cross)
        base = self.base.sample_increments(rng, T, n)
        cross = self.cross.sample_increments(rng, T, n)
        return base - cross


# ===========================================================================
# two-state Markov-modulated models
# ===========================================================================


def _two_state_eigs(p00: float, p11: float, m0, m1) -> Tuple:
    """Eigenvalues (minus, plus) of [[p00 m0, p01 m1], [p10 m0, p11 m1]].

    For finite state MGFs m0, m1 >= 0, not both 0, under slow switching
    (p00 + p11 > 1, so plus > 0).  The closed-form quadratic is evaluated
    with the product form for the small root to avoid cancellation; tiny
    negative float residue of the discriminant is clamped.
    """
    tr = p00 * m0 + p11 * m1
    det = (p00 + p11 - 1.0) * m0 * m1
    plus = 0.5 * (tr + np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0)))
    return det / plus, plus


def _two_state_mgf_path(
    p00: float, p11: float, p_on: float, m0: float, m1: float, t: int
) -> float:
    if t == 0:
        return 1.0
    if not (math.isfinite(m0) and math.isfinite(m1)):
        return INF
    L = np.array([[p00 * m0, (1.0 - p00) * m1], [(1.0 - p11) * m0, p11 * m1]])
    pi = np.array([1.0 - p_on, p_on])
    return float(pi @ np.linalg.matrix_power(L, t) @ np.ones(2))


def _on_times_probability(p01: float, p10: float, times) -> float:
    """Exact probability of the chain being in state 1 at every listed time."""
    ts = list(times)
    if not ts:
        raise ValueError("times must be non-empty")
    if any(int(x) != x for x in ts):
        raise ValueError("times must be integers")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("times must be strictly increasing")
    p = p01 / (p01 + p10)
    mu = 1.0 - p01 - p10
    prob = p
    for a, b in zip(ts, ts[1:]):
        prob *= p + (1.0 - p) * mu ** (b - a)
    return prob


def _sample_sojourns(rng: np.random.Generator, p00: float, p11: float, p_on: float, T: int) -> np.ndarray:
    """One path of T states from geometric sojourn runs.

    Runs are drawn in bulk with alternating leave probabilities.  A batch
    that overshoots T is redrawn from the saved generator state with exactly
    the runs needed, so the states and the generator state afterwards equal
    those of one scalar draw per sojourn.
    """
    state = 1 if rng.random() < p_on else 0
    out = np.empty(T, dtype=np.int8)
    pos = 0
    if p00 >= 1.0 or p11 >= 1.0:
        # an absorbing state ends the walk
        while pos < T:
            stay = p11 if state else p00
            if stay >= 1.0:
                out[pos:] = state
                break
            run = int(rng.geometric(1.0 - stay))
            out[pos : pos + run] = state
            pos += run
            state = 1 - state
        return out
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


def _sample_two_state_chain(
    rng: np.random.Generator, p00: float, p11: float, p_on: float, T: int, n: int
) -> np.ndarray:
    """States in {0, 1}, shape (n, T), chain started in steady state.

    Batches iterate slot by slot across all paths; a single long path is
    generated from geometric sojourn runs, which is equivalent in
    distribution because sojourn times are memoryless given the state.
    """
    if n == 1 and T > 4096:
        return _sample_sojourns(rng, p00, p11, p_on, T)[None, :]
    states = np.empty((n, T), dtype=np.int8)
    stay = np.array([p00, p11])
    x = (rng.random(n) < p_on).astype(np.int8)
    for k in range(T):
        states[:, k] = x
        if k == T - 1:
            break
        x ^= rng.random(n) >= stay[x]
    return states


@dataclass(frozen=True)
class MarkovModulated2Service(_Model):
    """General two-state Markov-modulated service.

    The chain selects the slot law: increments are drawn i.i.d. from ``law0``
    in state 0 and from ``law1`` in state 1, independently of the chain.
    The chain starts in steady state.  The spectral operations require slow
    switching, p01 + p10 < 1, which keeps the correlation eigenvalue
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
    def has_steady_state(self) -> bool:
        """False only for the frozen chain p00 = p11 = 1."""
        return self.p01 + self.p10 > 0.0

    @property
    def is_slow_switching(self) -> bool:
        """p01 + p10 in (0, 1), the condition of the spectral bounds."""
        return 0.0 < self.p01 + self.p10 < 1.0

    def _require_slow_switching(self):
        if not self.has_steady_state:
            raise ValueError("chain has no unique steady state (p01 = p10 = 0)")
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

    def _state_mgfs(self, theta) -> Tuple:
        return (self.law0.mgf_increment(theta), self.law1.mgf_increment(theta))

    def mgf_increment(self, theta):
        m0, m1 = self._state_mgfs(theta)
        p = self.on_probability
        return (1.0 - p) * m0 + p * m1

    def mgf_path(self, theta: float, t: int) -> float:
        if t < 0:
            raise ValueError("t must be >= 0")
        m0, m1 = self._state_mgfs(theta)
        return _two_state_mgf_path(self.p00, self.p11, self.on_probability, m0, m1, t)

    def _log_eigs(self, theta) -> Tuple:
        """log eigenvalues (minus, plus) of L(theta), +inf where a state MGF diverges.

        Eigenvalues are homogeneous of degree one in (M0, M1): those of the
        state MGFs scaled by the larger, e^(l - top), plus top are exact at
        any theta, where the MGFs themselves would under- or overflow.
        """
        self._require_slow_switching()
        l0, l1 = self.law0.log_mgf_increment(theta), self.law1.log_mgf_increment(theta)
        top = np.maximum(l0, l1)
        finite = np.isfinite(top)
        top = np.where(finite, top, 0.0)
        m0, m1 = (np.exp(np.where(finite, l - top, 0.0)) for l in (l0, l1))
        with np.errstate(divide="ignore"):  # minus is 0 where the smaller MGF underflows
            logs = np.log(_two_state_eigs(self.p00, self.p11, m0, m1)) + top
        return tuple(np.where(finite, logs, INF))

    def eigen_m_plus(self, theta):
        return _safe_exp(self._log_eigs(theta)[1])

    def k_theta(self, theta: float) -> float:
        """Weight of the dominant spectral term in the exact path MGF."""
        minus, plus = _safe_exp(self._log_eigs(theta))
        if not math.isfinite(plus) or plus - minus <= 1e-7 * max(plus, 1.0):
            raise ValueError("eigenvalues coincide; spectral weight undefined")
        return (self.mgf_increment(theta) - minus) / (plus - minus)

    def effective_capacity(self, theta):
        theta = _positive_theta(theta)
        return (-self._log_eigs(-theta)[1] / theta)[()]

    def on_sequence_probability(self, times) -> float:
        return _on_times_probability(self.p01, self.p10, times)

    def sample_increments(self, rng: np.random.Generator, T: int, n: int = 1) -> np.ndarray:
        states = _sample_two_state_chain(rng, self.p00, self.p11, self.on_probability, T, n)
        # a constant law draws nothing from rng: broadcast its rate, build no array
        inc0, inc1 = (
            float(law.rate) if isinstance(law, DeterministicService) else law.sample_increments(rng, T, n)
            for law in (self.law0, self.law1)
        )
        return np.where(states == 1, inc1, inc0)


class MmooService(MarkovModulated2Service):
    """Two-state On-Off service: state 1 serves ``peak`` megabits per slot,
    state 0 serves nothing."""

    def __init__(self, p00: float, p11: float, peak: float):
        if not peak > 0:
            raise ValueError("peak rate must be > 0")
        super().__init__(p00, p11, DeterministicService(0.0), DeterministicService(peak))

    @property
    def peak(self) -> float:
        return self.law1.rate

    # its own class attribute: perfbench/tracer.py wraps each class's sampler
    sample_increments = MarkovModulated2Service.sample_increments


def leftover_two_state(base_rate: float, cross: MarkovModulated2Service) -> MarkovModulated2Service:
    """Leftover service of a constant-rate server under two-state cross traffic.

    The per-state leftover laws are base - cross_law, so the composition is
    itself a two-state Markov-modulated service and all spectral bounds
    apply, provided E[cross] < base_rate.
    """
    base = DeterministicService(base_rate)
    return MarkovModulated2Service(
        p00=cross.p00,
        p11=cross.p11,
        law0=LeftoverService(base, cross.law0),
        law1=LeftoverService(base, cross.law1),
    )

