"""Self-contained invariant suite behind `winflow verify`.

Each suite runs a batch of randomized or exhaustive checks and counts
checks and failures; ``run_all`` runs every suite at one size and times it.
A fresh checkout passes everything; the exit status of the report is
nonzero as soon as a single check fails.  All randomness is seeded, so a
report is reproducible.  The tests run these suites rather than copy them:
the acceptance criteria read one dual-oracle and one mgf-dominance run and
run the dioid-law, Markov-structure and constants suites, counting each
law's checks in ``SuiteResult.tally``, and the tests
draw their random tables and feedback instances from the generators here.
"""

from __future__ import annotations

import itertools
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, TextIO

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
    equivalent_service_dp_row,
)
from .scenarios import canned_scenarios
from . import units

__all__ = [
    "SuiteResult",
    "enumerate_grouped_mgf",
    "exact_backlog_tail",
    "random_causal_table",
    "random_feedback_instance",
    "random_monotone_table",
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
    notes: List[str] = field(default_factory=list)  # one per failed check; the report shows 8
    tally: Dict[str, int] = field(default_factory=dict)  # checks per note, passed or failed
    summary: str = ""

    def record(self, ok: bool, note: str = ""):
        self.checks += 1
        self.tally[note] = self.tally.get(note, 0) + 1
        if not ok:
            self.failures += 1
            if note:
                self.notes.append(note)

    @property
    def passed(self) -> bool:
        return self.failures == 0


def random_monotone_table(rng: np.random.Generator, horizon: int) -> BivariateFunction:
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


def random_causal_table(rng: np.random.Generator, horizon: int) -> BivariateFunction:
    # zeroing the diagonal keeps rows monotone: it only lowers each row head
    table = np.array(random_monotone_table(rng, horizon).table)
    np.fill_diagonal(table, 0.0)
    return BivariateFunction(table)


def _in_family(f: BivariateFunction) -> bool:
    """Whether f passes BivariateFunction's non-negativity and monotonicity check."""
    try:
        BivariateFunction(f.table)
    except ValueError:
        return False
    return True


def suite_dioid_laws(seed: int = 0, instances: int = 200) -> SuiteResult:
    """The dioid laws, exactly, on dyadic tables of horizon 0 to 10: ten
    checks an instance, and one fixed non-commutativity witness."""
    out = SuiteResult("dioid-laws")
    rng = np.random.default_rng(seed)
    for _ in range(instances):
        T = int(rng.integers(0, 11))
        f = random_monotone_table(rng, T)
        g = random_monotone_table(rng, T)
        h = random_monotone_table(rng, T)
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
        # closure of a causal function is subadditive: c[s, t] <= c[s, tau] +
        # c[tau, t] at every (s, tau, t); the +inf lower triangles make every
        # tau outside [s, t] pass
        fc = random_causal_table(rng, T)
        closure = subadditive_closure(fc).table
        split = closure[:, :, None] + closure[None, :, :]
        out.record(bool(np.all(closure[:, None, :] <= split)), "closure subadditivity")
        # outputs stay inside the family when the right operand is causal or
        # has a constant diagonal; that covers every composition formed here
        # (convolving with an arbitrary-diagonal operand can break
        # monotonicity across the diagonal)
        for res in (convolve(f, fc), convolve(f, dw), pointwise_min(f, g)):
            out.record(_in_family(res), "family preservation")
    # fixed non-commutativity witness
    f = BivariateFunction.from_increments([1.0, 5.0])
    g = BivariateFunction.from_increments([5.0, 1.0])
    fg, gf = convolve(f, g), convolve(g, f)
    out.record(
        not fg.equals(gf) and fg.value(0, 2) == 2.0 and gf.value(0, 2) == 6.0,
        "non-commutativity witness",
    )
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


def suite_dual_oracle(seed: int = 1, instances: int = 60) -> SuiteResult:
    """dp == closure, the envelope around both and, at d = 1, the prefix-sum
    closed form on both, each on the whole (s, t) table; batch == dp at (0, T).
    The DP table takes one row call per s, +inf below the diagonal.
    """
    out = SuiteResult("dual-oracle")
    rng = np.random.default_rng(seed)
    for _ in range(instances):
        path, fb = random_feedback_instance(rng)
        T = path.horizon
        closure = equivalent_service_closure(path, fb).table
        dp = np.full((T + 1, T + 1), np.inf)
        for s in range(T + 1):
            dp[s, s:] = equivalent_service_dp_row(path, fb, s, T)
        lower, upper = apriori_envelope(path, fb)
        batch = equivalent_service_batch(path.increments[None, :], fb, T)[0]
        both = np.array([dp, closure])
        out.record(np.allclose(dp, closure, rtol=0, atol=1e-9), "dp equals closure")
        inside = (lower - 1e-9 <= both) & (both <= upper + 1e-9)
        out.record(bool(inside.all()), "a-priori envelope")
        out.record(abs(batch - dp[0, T]) <= 1e-9, "batch equals dp")
        if fb.d == 1:
            capped = np.minimum(path.increments, fb.w)
            direct = BivariateFunction.from_increments(capped, check=False).table
            out.record(np.allclose(both, direct, rtol=0, atol=1e-9), "d=1 closed form")
    return out


# The Monte Carlo table of (model, d, w/d), each sampled over T = 50 slots
MC_CONFIGS = [
    ("exp", 1, 0.1),
    ("exp", 1, 0.5),
    ("exp", 2, 0.1),
    ("exp", 5, 0.5),
    ("exp", 10, 0.1),
    ("exp", 10, 0.5),
    ("mmoo", 1, 0.5),
    ("mmoo", 2, 0.1),
    ("mmoo", 2, 0.5),
    ("mmoo", 5, 0.1),
    ("mmoo", 5, 0.5),
    ("mmoo", 10, 0.1),
]


def suite_mgf_dominance(seed: int = 2, n_paths: int = 4000) -> SuiteResult:
    """The MGF bounds and eps = 1e-2 curves against the batch oracle on
    MC_CONFIGS (configuration i sampled from SeedSequence(seed, (i,))) at
    t = 20, 50 and theta = 0.5, 1, 2.  The mean of exp(-theta S_eq) may pass
    the block MGF, and at d >= 2 the per-slot MGF, by 3 standard errors at
    most, and a bound that is not finite fails.  At d = 1 the per-slot
    transform of i.i.d. service is exact, so at theta = 1 it is held to the
    mean from both sides (a one-sided test of an equality fails at random).
    The per-slot curve, and at d >= 2 the block curve, may be violated with
    frequency eps + 3 sqrt(eps / n) at most.  A note starts with its check.
    """
    out = SuiteResult("mgf-dominance")
    models = {"exp": ExponentialVbrService(1.0), "mmoo": MMOO_REFERENCE}
    eps, horizon, grid = 1e-2, 50, ThetaGrid.logspace()
    budget = eps + 3.0 * math.sqrt(eps / n_paths)
    for i, (name, d, ratio) in enumerate(MC_CONFIGS):
        model, fb = models[name], FeedbackParams(w=ratio * d, d=d)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        paths = model.sample_increments(rng, horizon, n_paths)
        per_slot = per_slot_curve(model, fb)
        both = [("block", block_curve(model, fb)), ("per-slot", per_slot)]
        envelopes = [
            (kind, statistical_service_curve(curve, eps, grid, horizon).value)
            for kind, curve in (both if d > 1 else both[1:])
        ]
        for t in (20, 50):
            values = equivalent_service_batch(paths, fb, t)
            where = f"{name} d={d} w/d={ratio} t={t}"
            for theta in (0.5, 1.0, 2.0):
                emp = np.exp(-theta * values)
                mean = float(emp.mean())
                se = float(emp.std(ddof=1) / math.sqrt(n_paths))
                stats = f"mean {mean:.5g} se {se:.2g}"
                for kind, curve in both if d > 1 else both[:1]:
                    bound = curve.mgf(theta, t)
                    ok = math.isfinite(bound) and mean <= bound + 3.0 * se
                    out.record(ok, f"{kind} mgf {where} theta={theta}: {stats} bound {bound:.5g}")
                if d == 1 and name == "exp" and theta == 1.0:  # i.i.d. service
                    exact = per_slot.mgf(theta, t)
                    ok = abs(mean - exact) <= 3.0 * se
                    out.record(ok, f"exact per-slot mgf {where}: {stats} exact {exact:.5g}")
            for kind, envelope in envelopes:
                frac = float(np.mean(values <= envelope[t]))
                out.record(frac <= budget, f"{kind} violation {where}: {frac:.4g} above {budget:.4g}")
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
    for theta in (-2.0, -1.0, -0.5, -0.1, 0.1, 0.5, 1.0, 2.0):
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
    for theta in (0.25, 1.0, 4.0):
        gap = abs(vbr.effective_capacity(theta) - math.log1p(theta) / theta)
        out.record(gap <= 1e-12, f"exponential effective capacity log1p(theta)/theta at {theta}")
    out.record(
        abs(units.mb_per_slot_to_mbps(vbr.mean_rate) - 1000.0) == 0.0,
        "1 Mb per 1 ms slot is 1 Gbps",
    )
    out.record(units.mbps_to_mb_per_slot(1000.0, 1.0) == 1.0, "1 Gbps is 1 Mb per 1 ms slot")
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
    tail = -math.log1p(-1e-6)
    out.record(
        abs(erlang_quantile(1e-6, 1, 1.0) - tail) <= 1e-6 * tail,
        "exponential 1e-6 quantile, relative 1e-6",
    )
    for rate in (50.0, 70.0, 90.0, 100.0, 500.0, 1000.0, 1125.0):
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
        for note in res.notes[:8]:
            stream.write(f"      failed: {note}\n")
        failures += res.failures
    total_checks = sum(r.checks for r in results)
    stream.write(f"{'OK' if failures == 0 else 'FAILED'}: {total_checks - failures}/{total_checks} checks passed\n")
    return 0 if failures == 0 else 1
