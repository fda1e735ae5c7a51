"""Self-contained invariant suite behind `winflow verify`.

Each suite runs a batch of randomized or exhaustive checks and counts
checks and failures; ``run_all`` runs every suite at one size and times it.
A fresh checkout passes everything; the exit status of the report is
nonzero as soon as a single check fails.  All randomness is seeded, so a
report is reproducible.
"""

from __future__ import annotations

import itertools
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, List, TextIO

import numpy as np

from .algebra import (
    BivariateFunction,
    convolve,
    make_delta,
    make_delta_plus_w,
    pointwise_min,
    subadditive_closure,
)
from .bounds import (
    FeedbackParams,
    ThetaGrid,
    block_curve,
    per_slot_curve,
    statistical_service_curve,
    steady_state_backlog_bound,
)
from .models import ExponentialVbrService, MarkovModulated2Service, MmooService, erlang_quantile
from .oracle import (
    SamplePath,
    apriori_envelope,
    equivalent_service_batch,
    equivalent_service_closure,
    equivalent_service_dp,
)
from .scenarios import canned_scenarios
from . import units

__all__ = [
    "SuiteResult",
    "enumerate_grouped_mgf",
    "exact_backlog_tail",
    "random_feedback_instance",
    "run_all",
    "run_report",
]

MMOO_REFERENCE = MmooService(p00=0.2, p11=0.9, peak=1.125)


@dataclass
class SuiteResult:
    name: str
    checks: int = 0
    failures: int = 0
    seconds: float = 0.0  # set by run_all
    notes: List[str] = field(default_factory=list)
    summary: str = ""

    def record(self, ok: bool, note: str = ""):
        self.checks += 1
        if not ok:
            self.failures += 1
            if note and len(self.notes) < 8:
                self.notes.append(note)

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _random_monotone_table(rng: np.random.Generator, horizon: int) -> BivariateFunction:
    """Random member of the non-negative, monotone family on a dyadic grid.

    Dyadic values (multiples of 1/8) keep every sum exact in binary floating
    point, so the dioid laws can be asserted with exact equality.
    """
    n = horizon + 1
    table = np.full((n, n), np.inf)
    for s in range(n):
        start = rng.integers(0, 40) * 0.125
        steps = rng.integers(0, 24, size=n - s - 1) * 0.125
        row = start + np.concatenate(([0.0], np.cumsum(steps)))
        if rng.random() < 0.15 and len(row) > 1:
            cut = rng.integers(1, len(row))
            row[cut:] = np.inf
        table[s, s:] = row
    return BivariateFunction(table)


def _random_causal_table(rng: np.random.Generator, horizon: int) -> BivariateFunction:
    # zeroing the diagonal keeps rows monotone: it only lowers each row head
    table = np.array(_random_monotone_table(rng, horizon).table)
    np.fill_diagonal(table, 0.0)
    return BivariateFunction(table)


def suite_dioid_laws(seed: int = 0, instances: int = 200) -> SuiteResult:
    out = SuiteResult("dioid-laws")
    rng = np.random.default_rng(seed)
    for _ in range(instances):
        T = int(rng.integers(1, 9))
        f = _random_monotone_table(rng, T)
        g = _random_monotone_table(rng, T)
        h = _random_monotone_table(rng, T)
        delta = make_delta(T)
        out.record(convolve(delta, f).equals(f), "left neutrality")
        out.record(convolve(f, delta).equals(f), "right neutrality")
        out.record(
            convolve(convolve(f, g), h).equals(convolve(f, convolve(g, h))),
            "associativity",
        )
        out.record(
            convolve(f, pointwise_min(g, h)).equals(
                pointwise_min(convolve(f, g), convolve(f, h))
            ),
            "distributivity over min",
        )
        w = float(rng.integers(1, 24)) * 0.125
        dw = make_delta_plus_w(T, w)
        out.record(convolve(f, dw).equals(convolve(dw, f)), "offset commutation")
        out.record(
            bool(np.array_equal(convolve(f, dw).table[: T + 1], f.table + w)),
            "offset adds w",
        )
        # closure of a causal function is subadditive
        fc = _random_causal_table(rng, T)
        closure = subadditive_closure(fc).table
        ok = True
        for s in range(T + 1):
            for tau in range(s, T + 1):
                for t in range(tau, T + 1):
                    if closure[s, t] > closure[s, tau] + closure[tau, t]:
                        ok = False
        out.record(ok, "closure subadditivity")
        # outputs stay inside the family when the right operand is causal or
        # has a constant diagonal; that covers every composition formed here
        # (convolving with an arbitrary-diagonal operand can break
        # monotonicity across the diagonal)
        for res in (convolve(f, fc), convolve(f, dw), pointwise_min(f, g)):
            tab = res.table
            mono = all(
                tab[s, t] <= tab[s, t + 1] for s in range(T + 1) for t in range(s, T)
            )
            out.record(mono and bool(np.all(np.diag(tab) >= 0.0)), "family preservation")
    # fixed non-commutativity witness
    f = BivariateFunction.from_increments([1.0, 5.0])
    g = BivariateFunction.from_increments([5.0, 1.0])
    out.record(not convolve(f, g).equals(convolve(g, f)), "non-commutativity witness")
    return out


def random_feedback_instance(rng: np.random.Generator, max_horizon: int = 24):
    """Random (path, params) pair over the three path families.

    Exponential and On-Off paths are non-negative; leftover paths mix signs.
    All families are normalized to a unit mean rate.  The tests draw their
    random instances from here too.
    """
    kind = int(rng.integers(0, 3))
    T = int(rng.integers(2, max_horizon + 1))
    if kind == 0:
        inc = rng.exponential(1.0, T)
    elif kind == 1:
        inc = (rng.random(T) < 8.0 / 9.0) * 1.125
    else:
        inc = 1.0 - rng.exponential(0.6, T)
    d = int(rng.choice([1, 2, 3, 5]))
    w = float(rng.uniform(1e-3, 3.0))
    return SamplePath(inc), FeedbackParams(w=w, d=d)


def suite_dual_oracle(
    seed: int = 1,
    instances: int = 60,
    dp_fn: Callable = equivalent_service_dp,
) -> SuiteResult:
    """dp == closure on every entry, the d=1 closed form, and the envelope.

    ``dp_fn`` is injectable so that a deliberately corrupted oracle can be
    shown to trip the checks (mutation testing of the suite itself).
    """
    out = SuiteResult("dual-oracle")
    rng = np.random.default_rng(seed)
    for _ in range(instances):
        path, fb = random_feedback_instance(rng)
        T = path.horizon
        table = equivalent_service_closure(path, fb)
        batch = equivalent_service_batch(path.increments[None, :], fb, T)[0]
        ok_pair = True
        ok_sandwich = True
        for s in range(T + 1):
            for t in range(s, T + 1):
                v = dp_fn(path, fb, s, t)
                if abs(v - table.value(s, t)) > 1e-9:
                    ok_pair = False
                lo, hi = apriori_envelope(path, fb, s, t)
                if not (lo - 1e-9 <= v <= hi + 1e-9):
                    ok_sandwich = False
        out.record(ok_pair, "dp equals closure")
        out.record(ok_sandwich, "a-priori envelope")
        out.record(abs(batch - dp_fn(path, fb, 0, T)) <= 1e-9, "batch equals dp")
        if fb.d == 1:
            direct = float(np.minimum(path.increments, fb.w).sum())
            out.record(abs(dp_fn(path, fb, 0, T) - direct) <= 1e-9, "d=1 closed form")
    return out


def suite_mgf_dominance(seed: int = 2, n_paths: int = 4000) -> SuiteResult:
    out = SuiteResult("mgf-dominance")
    rng = np.random.default_rng(seed)
    vbr = ExponentialVbrService(1.0)
    mmoo = MMOO_REFERENCE
    t = 24
    for model, name in ((vbr, "exp"), (mmoo, "mmoo")):
        for d in (1, 5):
            fb = FeedbackParams(w=0.3 * d, d=d)
            paths = model.sample_increments(rng, t, n_paths)
            values = equivalent_service_batch(paths, fb, t)
            for theta in (0.5, 1.0):
                emp = np.exp(-theta * values)
                mean = float(np.mean(emp))
                se = float(np.std(emp, ddof=1) / math.sqrt(n_paths))
                bound = block_curve(model, fb).mgf(theta, t)
                out.record(
                    mean <= bound + 3.0 * se,
                    f"{name} d={d} theta={theta}: mean {mean:.4g} vs bound {bound:.4g}",
                )
            # quick envelope violation check at a desk epsilon
            eps = 0.05
            curve = statistical_service_curve(
                per_slot_curve(model, fb), eps, ThetaGrid.logspace(), t
            )
            frac = float(np.mean(values <= curve.value[t]))
            out.record(
                frac <= eps + 3.0 * math.sqrt(eps / n_paths),
                f"{name} d={d}: envelope violation {frac:.4f}",
            )
    return out


def suite_markov_structure() -> SuiteResult:
    out = SuiteResult("markov-structure")
    m = MMOO_REFERENCE
    # probability of staying ON is non-increasing in every gap
    for times in itertools.combinations(range(9), 3):
        base = m.on_sequence_probability(times)
        for i in (1, 2):
            widened = list(times)
            widened[i:] = [x + 1 for x in widened[i:]]
            if widened[-1] <= 8 + 1:
                out.record(
                    m.on_sequence_probability(widened) <= base + 1e-15,
                    f"gap monotonicity at {times}",
                )
    # grouped increments vs contiguous path MGF, by exhaustive chain enumeration
    for theta in (0.8, -0.8):
        for size in (1, 2, 3):
            for taus in itertools.combinations(range(7), size):
                exact = enumerate_grouped_mgf(m, theta, taus)
                out.record(
                    exact <= m.mgf_path(theta, size) + 1e-12,
                    f"grouped times {taus} theta={theta}",
                )
    # spectral sandwich and supermultiplicativity
    for theta in (-2.0, -0.5, -0.1, 0.1, 0.5, 2.0):
        m_plus = m.eigen_m_plus(theta)
        mc = m.mgf_increment(theta)
        for t in range(1, 17):
            ms = m.mgf_path(theta, t)
            # up to t = 10 the spectral form is also held to chain enumeration
            enumerated = t > 10 or abs(ms - enumerate_grouped_mgf(m, theta, range(t))) <= 1e-12 * ms
            out.record(
                enumerated and mc**t <= ms * (1 + 1e-12) and ms <= m_plus**t * (1 + 1e-12),
                f"spectral sandwich t={t} theta={theta}",
            )
            out.record(
                ms >= m.k_theta(theta) * m_plus**t * (1 - 1e-12),
                f"dominant-term lower bound t={t} theta={theta}",
            )
        for s in range(13):
            for t in range(13):
                out.record(
                    m.mgf_path(theta, s) * m.mgf_path(theta, t)
                    <= m.mgf_path(theta, s + t) * (1 + 1e-12),
                    f"supermultiplicative s={s} t={t}",
                )
        out.record(0.0 < m.k_theta(theta) < 1.0, f"weight in (0,1) theta={theta}")
    return out


def enumerate_grouped_mgf(model: MarkovModulated2Service, theta: float, taus) -> float:
    """E[exp(theta * sum of the increments at the listed slots)] of a
    two-state Markov-modulated model, by enumerating every state path of
    the chain up to the last listed slot."""
    p = model.on_probability
    trans = ((model.p00, model.p01), (model.p10, model.p11))
    state_mgfs = (float(model.law0.mgf_increment(theta)), float(model.law1.mgf_increment(theta)))
    total = 0.0
    for states in itertools.product((0, 1), repeat=max(taus) + 1):
        weight = p if states[0] else 1.0 - p
        for a, b in zip(states, states[1:]):
            weight *= trans[a][b]
        total += weight * math.prod(state_mgfs[states[tau]] for tau in taus)
    return total


def suite_constants() -> SuiteResult:
    out = SuiteResult("constants-and-units")
    vbr = ExponentialVbrService(1.0)
    out.record(
        abs(vbr.effective_capacity(1.0) - math.log(2.0)) <= 1e-12,
        "exponential effective capacity at theta=1",
    )
    out.record(
        abs(units.mb_per_slot_to_mbps(vbr.mean_rate) - 1000.0) == 0.0,
        "1 Mb per 1 ms slot is 1 Gbps",
    )
    m = MMOO_REFERENCE
    out.record(abs(m.mean_rate - 1.0) <= 1e-12, "On-Off mean rate 1 Gbps")
    for theta in np.geomspace(0.01, 100.0, 32):
        u = math.exp(-theta * m.peak)
        closed = -math.log(
            0.5
            * (
                (m.p00 + m.p11 * u)
                + math.sqrt((m.p00 + m.p11 * u) ** 2 - 4.0 * (m.p00 + m.p11 - 1.0) * u)
            )
        ) / theta
        out.record(
            abs(closed - m.effective_capacity(theta)) <= 1e-12,
            f"closed-form effective capacity theta={theta:.3g}",
        )
    out.record(
        abs(erlang_quantile(1.0 - math.exp(-1.0), 1, 1.0) - 1.0) <= 1e-9,
        "unit quantile of the exponential at its mean",
    )
    out.record(
        abs(erlang_quantile(0.5, 1, 1.0) - math.log(2.0)) <= 1e-9, "exponential median"
    )
    for rate in (50.0, 70.0, 90.0, 100.0, 500.0, 1000.0):
        out.record(
            units.mb_per_slot_to_mbps(units.mbps_to_mb_per_slot(rate)) == rate,
            f"unit round trip {rate} Mbps",
        )
    return out


def exact_backlog_tail(arrivals, model, w: float) -> tuple[float, float]:
    """(eta, sigma) of the exact backlog tail P(B > b) = sigma exp(-eta b)
    of the loop at one slot of feedback delay; the caller refuses d != 1.

    There the backlog is B' = max(B + a - min(c, w), 0).  With exponential
    arrivals of mean lam its up-jumps are memoryless, eta > 0 solves
    log1p(-lam eta) = log E[exp(-eta min(c, w))] and sigma = 1 - lam eta.
    The left side minus the right is concave in eta, zero at 0 and falls to
    -inf at 1/lam, so the root is its one sign change, found by 200
    bisection steps.  Other arrival laws are refused, and so is an arrival
    rate with no positive root: then the backlog has no steady state.
    """
    if not isinstance(arrivals, ExponentialVbrService):
        raise TypeError("the exact backlog tail needs exponential arrivals")
    lam = arrivals.mean_rate
    lo, hi = 0.0, 1.0 / lam
    for _ in range(200):
        eta = 0.5 * (lo + hi)
        if math.log1p(-lam * eta) > model.log_censored_mgf(-eta, w):
            lo = eta
        else:
            hi = eta
    if lo == 0.0:
        raise ValueError(f"arrivals of mean {lam:g} Mb per slot leave the backlog unstable")
    return eta, 1.0 - lam * eta


def suite_exact_backlog() -> SuiteResult:
    """Every fig8 backlog bound against the exact quantile log(sigma/eps)/eta."""
    out = SuiteResult("exact-backlog")
    ratios = []
    for sc in canned_scenarios("fig8"):
        if sc.d_slots != [1]:
            raise ValueError(f"{sc.name}: the exact backlog tail needs d = 1")
        fb = FeedbackParams(w=sc.w_mb[0], d=1)
        curve = per_slot_curve(sc.service, fb)
        grid = ThetaGrid.logspace(sc.theta_min, sc.theta_max, sc.theta_points)
        epsilons = np.array(sc.epsilons)
        panel = [ExponentialVbrService(lam) for lam in sc.lambdas_mb]
        bounds = steady_state_backlog_bound(panel, curve, epsilons, grid)
        for lam, arrivals, bound in zip(sc.lambdas_mb, panel, bounds):
            eta, sigma = exact_backlog_tail(arrivals, sc.service, fb.w)
            exact = np.log(sigma / epsilons) / eta
            ratios.extend(bound / exact)
            for eps, b, x in zip(epsilons, bound, exact):
                out.record(b >= x, f"{sc.name} lambda={lam:g} eps={eps:g}: bound {b:.4g} < exact {x:.4g}")
    out.summary = f"bound / exact quantile from {min(ratios):.3f} to {max(ratios):.3f}"
    return out


def run_all(seed: int = 0) -> List[SuiteResult]:
    """Every suite at its own size, in report order, each one timed."""
    results = []
    for suite, args in (
        (suite_dioid_laws, (seed,)),
        (suite_dual_oracle, (seed + 1,)),
        (suite_mgf_dominance, (seed + 2,)),
        (suite_markov_structure, ()),
        (suite_constants, ()),
        (suite_exact_backlog, ()),
    ):
        start = time.perf_counter()
        result = suite(*args)
        result.seconds = time.perf_counter() - start
        results.append(result)
    return results


def run_report(seed: int = 0, stream: TextIO = None) -> int:
    stream = stream or sys.stdout
    results = run_all(seed)
    failures = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        stream.write(
            f"{status}  {res.name:<22} {res.checks - res.failures}/{res.checks} checks"
            f"  ({res.seconds:.2f} s)\n"
        )
        if res.summary:
            stream.write(f"      {res.summary}\n")
        for note in res.notes:
            stream.write(f"      failed: {note}\n")
        failures += res.failures
    total_checks = sum(r.checks for r in results)
    stream.write(f"{'OK' if failures == 0 else 'FAILED'}: {total_checks - failures}/{total_checks} checks passed\n")
    return 0 if failures == 0 else 1
