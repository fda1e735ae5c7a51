"""Shared helpers for the test suite."""

import decimal

import numpy as np
import pytest
from hypothesis import settings

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
