"""Shared helpers for the test suite."""

import decimal

import numpy as np
import pytest
from hypothesis import settings

from winflow.algebra import INF, BivariateFunction
from winflow.models import DeterministicService, LeftoverService, MarkovModulated2Service

# property tests draw the same examples on every run and keep no example file
settings.register_profile("winflow", derandomize=True, database=None, deadline=None)
settings.load_profile("winflow")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def on_off_capacity_reference(model, theta, digits=50):
    """-log(plus) / theta for On-Off service, with plus the larger root of the
    characteristic quadratic of L(-theta), evaluated with ``digits`` decimal
    digits from the model's exact float parameters.  A scalar theta > 0."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        p00, p11, th = decimal.Decimal(model.p00), decimal.Decimal(model.p11), decimal.Decimal(float(theta))
        m1 = (-th * decimal.Decimal(model.peak)).exp()
        tr, det = p00 + p11 * m1, (p00 + p11 - 1) * m1
        plus = (tr + (tr * tr - 4 * det).sqrt()) / 2
        return float(-plus.ln() / th)


def censored_exponential_rate_reference(mean, cap, theta, digits=50):
    """-log E[exp(-theta min(c, cap))] / theta for an exponential c of the
    given mean, from the closed form (1 + C theta e^(-(theta + 1/C) cap)) /
    (1 + C theta) with ``digits`` decimal digits from the exact float
    arguments.  A scalar theta > 0."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        c, k, th = decimal.Decimal(mean), decimal.Decimal(cap), decimal.Decimal(float(theta))
        mgf = (1 + c * th * (-(th + 1 / c) * k).exp()) / (1 + c * th)
        return float(-mgf.ln() / th)


def sample_path(model, seed: int, T: int) -> np.ndarray:
    """One seeded path of T slots: the first row of a one-path batch."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return model.sample_increments(rng, T, 1)[0]


def make_delta_shift(horizon: int, d: int) -> BivariateFunction:
    """Pure delay element: 0 where t - s <= d, +inf where t - s > d.

    Convolving f with it yields f(s, max(t - d, s)), which for causal f
    realizes a time shift by d slots.  The reference for the closure
    oracle's directly built feedback operand.
    """
    if d < 0:
        raise ValueError("delay d must be >= 0")
    n = horizon + 1
    s, t = np.indices((n, n))
    table = np.where(t - s <= d, 0.0, INF)
    return BivariateFunction(table, check=False)


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
