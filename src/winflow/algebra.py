"""Finite-horizon bivariate min-plus dioid.

Bivariate functions f(s, t) describe a quantity accumulated over the time
interval [s, t) of a discrete slotted timeline.  The algebra combines them
with the pointwise minimum and the min-plus convolution

    (f o g)(s, t) = min over s <= tau <= t of f(s, tau) + g(tau, t),

which together form a dioid on the family of functions that are non-negative
and non-decreasing in the second argument.  Values live in [0, +inf]; +inf
marks combinations of (s, t) that a non-causal element forbids.

Everything here operates on a fixed finite horizon T.  All indices are exact
integers, there is no interpolation, and every operation is a pure function
of immutable inputs.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

INF = float("inf")

# entries of the temporary in one step of the min-plus product (2 MiB)
_PRODUCT_BLOCK = 1 << 18

__all__ = [
    "INF",
    "BivariateFunction",
    "ClosureNonConvergence",
    "make_delta",
    "make_delta_plus_w",
    "make_delta_shift",
    "pointwise_min",
    "convolve",
    "deconvolve",
    "self_convolve",
    "subadditive_closure",
]


@lru_cache(maxsize=64)
def _strict_lower(n: int) -> np.ndarray:
    """Read-only mask of the strict lower triangle (s > t) of an (n, n) table."""
    mask = np.tri(n, k=-1, dtype=bool)
    mask.flags.writeable = False
    return mask


class ClosureNonConvergence(RuntimeError):
    """Raised when the subadditive closure does not exist: a negative
    diagonal entry makes the self convolutions decrease without bound."""


class BivariateFunction:
    """Upper-triangular table of f(s, t) for integer 0 <= s <= t <= T.

    The table is stored as a dense (T+1, T+1) float array whose strict lower
    triangle is set to +inf.  That sentinel makes the min-plus product of two
    tables respect the tau range [s, t] automatically.

    Instances are immutable.
    """

    __slots__ = ("_table",)

    def __init__(self, table: np.ndarray, *, check: bool = True):
        table = np.asarray(table, dtype=float)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise ValueError(f"table must be square, got shape {table.shape}")
        n = table.shape[0]
        table = table.copy()
        table[_strict_lower(n)] = INF
        if np.isnan(table).any():
            raise ValueError("table contains NaN")
        if check:
            rows, cols = np.indices((n, n))
            upper = cols >= rows
            if not np.all(table[upper] >= 0.0):
                raise ValueError("bivariate function must be non-negative")
            # monotone in t on each row: f(s, t) <= f(s, t+1) for t >= s
            grow = table[:, 1:] >= table[:, :-1]
            relevant = cols[:, :-1] >= rows[:, :-1]
            if not np.all(grow | ~relevant):
                raise ValueError("bivariate function must be non-decreasing in t")
        table.flags.writeable = False
        self._table = table

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_increments(cls, increments, *, check: bool = True) -> "BivariateFunction":
        """Additive function f(s, t) = sum of increments over slots [s, t).

        Negative increments (leftover service paths) are accepted with
        ``check=False``; the resulting table then leaves the non-negative,
        monotone family but all dioid operations remain well defined.
        """
        inc = np.asarray(increments, dtype=float)
        if inc.ndim != 1:
            raise ValueError("increments must be a 1-d sequence")
        cum = np.concatenate(([0.0], np.cumsum(inc)))
        table = cum[None, :] - cum[:, None]
        return cls(table, check=check)

    # -- accessors -----------------------------------------------------------

    @property
    def table(self) -> np.ndarray:
        return self._table

    @property
    def horizon(self) -> int:
        return self._table.shape[0] - 1

    @property
    def is_causal(self) -> bool:
        """True iff f(t, t) = 0 for every t."""
        return bool(np.all(np.diag(self._table) == 0.0))

    def value(self, s: int, t: int) -> float:
        if not 0 <= s <= t <= self.horizon:
            raise IndexError(f"need 0 <= s <= t <= {self.horizon}, got ({s}, {t})")
        return float(self._table[s, t])

    def equals(self, other: "BivariateFunction") -> bool:
        """Exact equality of the two tables (inf compares equal to inf)."""
        return self.horizon == other.horizon and bool(
            np.array_equal(self._table, other._table)
        )

    def __repr__(self) -> str:
        return f"BivariateFunction(horizon={self.horizon}, causal={self.is_causal})"


# -- neutral and shift elements ----------------------------------------------


def make_delta(horizon: int) -> BivariateFunction:
    """Neutral element of the convolution: 0 on the diagonal, +inf above it."""
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    n = horizon + 1
    table = np.full((n, n), INF)
    np.fill_diagonal(table, 0.0)
    return BivariateFunction(table, check=False)


def make_delta_plus_w(horizon: int, w: float) -> BivariateFunction:
    """Additive offset element: w on the diagonal, +inf above it.

    Convolving with it adds w everywhere, and it commutes with every
    bivariate function although the convolution is not commutative in
    general.  It is not causal.
    """
    if w <= 0:
        raise ValueError("window offset w must be > 0")
    n = horizon + 1
    table = np.full((n, n), INF)
    np.fill_diagonal(table, float(w))
    return BivariateFunction(table, check=False)


def make_delta_shift(horizon: int, d: int) -> BivariateFunction:
    """Pure delay element: 0 where t - s <= d, +inf where t - s > d.

    Convolving f with it yields f(s, max(t - d, s)), which for causal f
    realizes a time shift by d slots.
    """
    if d < 0:
        raise ValueError("delay d must be >= 0")
    n = horizon + 1
    s, t = np.indices((n, n))
    table = np.where(t - s <= d, 0.0, INF)
    return BivariateFunction(table, check=False)


# -- dioid operations ----------------------------------------------------------


def _require_same_horizon(f: BivariateFunction, g: BivariateFunction) -> None:
    if f.horizon != g.horizon:
        raise ValueError(f"horizon mismatch: {f.horizon} != {g.horizon}")


def _min_plus_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # h[s, t] = min_tau a[s, tau] + b[tau, t]; the +inf lower triangles of the
    # operands restrict tau to [s, t] and keep the sentinel in the result.
    # One broadcast per block of rows; the block keeps the (rows, n, n)
    # temporary near _PRODUCT_BLOCK entries.
    n = a.shape[0]
    out = np.empty_like(a)
    rows = max(1, _PRODUCT_BLOCK // (n * n))
    for s in range(0, n, rows):
        np.min(a[s : s + rows, :, None] + b[None], axis=1, out=out[s : s + rows])
    return out


def pointwise_min(f: BivariateFunction, g: BivariateFunction) -> BivariateFunction:
    """Entrywise minimum of two functions on the same horizon."""
    _require_same_horizon(f, g)
    return BivariateFunction(np.minimum(f.table, g.table), check=False)


def convolve(f: BivariateFunction, g: BivariateFunction) -> BivariateFunction:
    """Min-plus convolution h(s, t) = min over tau in [s, t] of f(s, tau) + g(tau, t)."""
    _require_same_horizon(f, g)
    return BivariateFunction(_min_plus_product(f.table, g.table), check=False)


def deconvolve(f: BivariateFunction, g: BivariateFunction) -> BivariateFunction:
    """Min-plus deconvolution h(s, t) = max over tau in [0, s] of f(tau, t) - g(tau, s).

    f must be finite on its whole upper triangle.  +inf entries of g make the
    corresponding tau drop out of the maximum; the diagonal of g must be
    finite so that at least the tau = s candidate survives.
    """
    _require_same_horizon(f, g)
    n = f.horizon + 1
    rows, cols = np.indices((n, n))
    if not np.all(np.isfinite(f.table[cols >= rows])):
        raise ValueError("deconvolve requires a finite-valued left operand")
    if not np.all(np.isfinite(np.diag(g.table))):
        raise ValueError("deconvolve requires finite g(s, s) for every s")
    out = np.full((n, n), INF)
    with np.errstate(invalid="ignore"):
        for s in range(n):
            cand = f.table[: s + 1, :] - g.table[: s + 1, s][:, None]
            out[s] = np.max(cand, axis=0)
    out[cols < rows] = INF
    return BivariateFunction(out, check=False)


def self_convolve(f: BivariateFunction, n: int) -> BivariateFunction:
    """n-fold self convolution, with the zeroth power equal to the neutral element."""
    if n < 0:
        raise ValueError("n must be >= 0")
    acc = make_delta(f.horizon)
    for _ in range(n):
        acc = convolve(acc, f)
    return acc


def subadditive_closure(f: BivariateFunction) -> BivariateFunction:
    """Pointwise minimum of all n-fold self convolutions of f.

    Floyd-Warshall on R = min(delta, f), relaxing through each k in
    increasing order.  The table is upper triangular, so at step k R(s, k)
    is final and R(k, t) is still f(k, t): every chain is summed left to
    right, as the powers of f sum it, and the result is bit-identical to
    iterating the powers.  The only cycles are diagonal entries; a negative
    one drives the powers to minus infinity and raises ClosureNonConvergence.
    """
    horizon = f.horizon
    closure = f.table.copy()
    np.fill_diagonal(closure, np.minimum(np.diagonal(closure), 0.0))
    negative = np.flatnonzero(np.diag(closure) < 0.0)
    if negative.size:
        raise ClosureNonConvergence(f"closure diverges: f(k, k) < 0 at k = {negative.tolist()}")
    for k in range(1, horizon):
        upper = closure[:k, k + 1 :]
        np.minimum(upper, closure[:k, k, None] + closure[k, k + 1 :], out=upper)
    return BivariateFunction(closure, check=False)
