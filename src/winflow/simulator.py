"""Discrete-time Monte Carlo simulation of the closed flow control loop.

The loop consists of a throttle at the network entrance, a work-conserving
network queue with random per-slot capacity, and departure feedback delayed
by d slots.  Within slot k the order of events is pinned as follows:

1. the external arrival a_k and the service capacity c_k are drawn,
2. admission: A'(0, k+1) = min(A(0, k+1), D(0, k+1-d) + w), so admitted
   but undeparted traffic never exceeds the window w,
3. service: the network queue drains by max(c_k, 0) after admission, so
   traffic admitted in slot k may depart in the same slot,
4. departures: D(0, k+1) = A'(0, k+1) - q(k+1).

Admission before service inside the slot makes the exact-server relation
D = A' o S hold with the per-slot queue recursion.  Substituting
q = A' - D turns the four steps into one recursion on departures,

    D(0, k+1) = min(D(0, k) + max(c_k, 0), A(0, k+1), D(0, k+1-d) + w),

with D(0, j) = 0 for j <= 0, after which A' = min(A, D shifted by d plus w),
the network queue A' - D and the total backlog A - D are array
expressions.  The recursion is min-plus linear, and d >= 1 makes it
causal, so it has exactly one solution.  It is solved exactly in chunks
of about _CHUNK_SLOTS slots (a multiple of d).  At d = 1 the window only
caps the drain at w, and each chunk is one Lindley scan: a cumulative sum
of min(max(c, 0), w) and a prefix minimum.  At d >= 2 the closed form
along each residue class mod d is a cumulative-sum scan of the feedback
jumps.  Blocks of _BLOCK_CHUNKS chunks are solved column by column: the
residue columns are relaxed in cyclic order, each one lowered to its
predecessor (the unit step) and closed under its jumps, until no column
has a changed predecessor.  A block that does not settle within a budget
of _COLUMN_CYCLES * d relaxations, as on paths with many unit steps
(long drain-free stretches, sparse drain, overload), falls back to
alternating a prefix minimum along time with the column scans on each
chunk until nothing changes.  Negative capacity increments (leftover
service) drain nothing physically; bound comparisons use the signed sums
separately.

All runs are deterministic functions of the configured seed.  Replications
use disjoint child seed streams and run one after another.  A run keeps
the per-slot total backlog and network queue, from which D and A' follow.
``backlog_quantile`` pools the post-warmup tails of all replications, and
``quantile_estimable`` is the one statement of the tail-sample floor that
such a quantile needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import FeedbackParams
from .oracle import equivalent_service_batch  # noqa: F401 -- a name of this module that perfbench/tracer.py wraps

__all__ = [
    "SimConfig",
    "SimRun",
    "run_flow_control",
    "backlog_quantile",
    "quantile_estimable",
]

INF = float("inf")

_CHECKPOINTS = 257

# slots per chunk of the departure solver, rounded to a multiple of d
_CHUNK_SLOTS = 4096

# chunks per block of the d >= 2 column pass, and its budget in cycles
# of d column relaxations before the block falls back to the sweeps
_BLOCK_CHUNKS = 4
_COLUMN_CYCLES = 3


@dataclass(frozen=True)
class SimConfig:
    """One simulation experiment: models, feedback parameters, protocol."""

    seed: int
    total_slots: int
    warmup_slots: int
    arrivals: object
    service: object
    feedback: FeedbackParams
    replications: int = 1

    def __post_init__(self):
        # at least two post-warmup slots, one for each half of backlog_drift
        if not 0 <= self.warmup_slots <= self.total_slots - 2:
            raise ValueError("warmup_slots must satisfy 0 <= warmup <= total - 2")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")


@dataclass
class SimRun:
    """Result of one seeded replication.

    ``backlog`` is the per-slot total backlog B(t) = A(0,t) - D(0,t) and
    ``queue`` the per-slot network backlog q(t) = A'(0,t) - D(0,t), both of
    length total_slots + 1; D = A - backlog and A' = D + queue.
    ``checkpoints`` are the slots that the run files sample, and
    ``throughput`` is D(0, T) / T.
    """

    config: SimConfig
    backlog: np.ndarray
    queue: np.ndarray
    checkpoints: np.ndarray
    throughput: float

    @property
    def tail(self) -> np.ndarray:
        """The post-warmup backlog B(t), t = warmup_slots + 1 .. total_slots."""
        return self.backlog[self.config.warmup_slots + 1 :]

    def backlog_drift(self) -> float:
        """Mean post-warmup backlog of the second half over the first half.

        Ratios well above one signal a queue that is still growing, i.e. an
        unstable operating point.
        """
        tail = self.tail
        half = len(tail) // 2
        first = float(np.mean(tail[:half]))
        second = float(np.mean(tail[half:]))
        if first <= 0.0:
            return INF if second > 0.0 else 1.0
        return second / first


def _replication_rngs(seed: int, replication: int) -> tuple[np.random.Generator, np.random.Generator]:
    root = np.random.SeedSequence(entropy=seed, spawn_key=(replication,))
    arrival_seq, service_seq = root.spawn(2)
    return np.random.default_rng(arrival_seq), np.random.default_rng(service_seq)


def _departures(arrivals_cum: np.ndarray, drain: np.ndarray, w: float, d: int) -> np.ndarray:
    """Cumulative departures D(0, n), n = 0..T, of the closed loop.

    Solves D_n = min(D_{n-1} + drain_{n-1}, A_n, D_{n-d} + w) with D_j = 0
    for j <= 0 span by span.  Inside a span starting after slot n0, with
    C the cumulative drain restarted at n0 and E = D - C, a unit step is
    free (E never increases).

    At d = 1 the feedback term only caps the drain at w, so with C summed
    over min(drain, w) each chunk is one Lindley scan: E is the prefix
    minimum of A - C, with D(n0) folded into its first entry.

    At d >= 2 the feedback jump from n-d to n costs g_n = w - (C_n -
    C_{n-d}); jumps that reference slots before the span are folded into
    the source term beta (see ``_span_terms``).  Each block of
    _BLOCK_CHUNKS chunks is first solved by the column pass
    (``_column_pass``).  A block that does not settle within its budget is
    solved chunk by chunk by the alternating sweeps (``_sweep_chunk``).
    Both only lower E by exact partial solutions of the recursion, so
    either reaches its unique solution, up to rounding.  The paths that
    defeat the column pass, with many unit steps (long drain-free
    stretches, sparse drain, overload), persist over many blocks, so after
    a fallback the next 1, 3, 7, ... blocks (doubling plus one while the
    fallbacks continue) go to the sweeps directly; a settled block resets
    the count.

    A delay longer than the run is solved as max(T, 2): every feedback
    reference n - d is then <= 0, so the result is the same, and the span
    arrays stay O(T).  The 2 keeps the d >= 2 solver, which rounds
    differently from the Lindley scan.
    """
    T = len(drain)
    d = min(d, max(T, 2))
    departed = np.zeros(T + 1)
    size = d * max(1, round(_CHUNK_SLOTS / d))
    if d == 1:
        for n0 in range(0, T, size):
            length = min(size, T - n0)
            cum = np.cumsum(np.minimum(drain[n0 : n0 + length], w))
            x = arrivals_cum[n0 + 1 : n0 + length + 1] - cum
            x[0] = min(x[0], departed[n0])
            np.minimum.accumulate(x, out=x)
            np.add(x, cum, out=departed[n0 + 1 : n0 + length + 1])
        return departed
    block = _BLOCK_CHUNKS * size
    skip = wait = 0
    for b0 in range(0, T, block):
        end = min(b0 + block, T)
        if wait:
            wait -= 1
        elif _column_pass(departed, arrivals_cum, drain, w, d, b0, end):
            skip = 0
            continue
        else:
            skip = wait = 2 * skip + 1
        for n0 in range(b0, end, size):
            _sweep_chunk(departed, arrivals_cum, drain, w, d, n0, min(n0 + size, end))
    return departed


def _span_terms(departed, arrivals_cum, drain, w, d, n0, end):
    """The recursion on E = D - C over slots n0+1..end, given D up to n0.

    Returns the drain C summed from n0 (length rows*d + 1, padded flat),
    the prefix minimum of the source term beta (length rows*d; entries
    past end are padding) and the (rows, d) jump costs: row k of
    column r is the summed cost of the jumps from row 0 to row k of that
    residue class.
    """
    length = end - n0
    rows = -(-length // d)
    cum = np.zeros(rows * d + 1)
    np.cumsum(drain[n0:end], out=cum[1 : length + 1])
    cum[length + 1 :] = cum[length]
    beta = np.full(rows * d, INF)
    beta[:length] = arrivals_cum[n0 + 1 : end + 1] - cum[1 : length + 1]
    # feedback references before the span, with D_j = 0 for j <= 0
    head = min(d, length)
    ref = departed[np.maximum(np.arange(n0 + 1, n0 + head + 1) - d, 0)]
    beta[:head] = np.minimum(beta[:head], ref + w - cum[1 : head + 1])
    beta[0] = min(beta[0], departed[n0])
    # only jumps of negative cost can lower E; row j of the (rows, d)
    # grid is reached from row j - 1 of the same residue class
    jump = np.minimum(w - (cum[d + 1 :] - cum[1:-d]), 0.0)
    cost = np.zeros((rows, d))
    np.cumsum(jump.reshape(rows - 1, d), axis=0, out=cost[1:])
    return cum, np.minimum.accumulate(beta), cost


def _close_columns(grid: np.ndarray, cost: np.ndarray, out: np.ndarray) -> None:
    """Close each residue column of the (rows, d) grid under its jumps:
    out[k] = min(grid[k], cost[k] + min over rows i < k of (grid[i] -
    cost[i])) for k >= 1; row 0 of out is left as it is."""
    best = np.minimum.accumulate(grid - cost, axis=0)
    np.minimum(grid[1:], cost[1:] + best[:-1], out=out[1:])


def _column_pass(departed, arrivals_cum, drain, w, d, n0, end) -> bool:
    """Solve slots n0+1..end column by column; False if out of budget.

    The span is held as its d residue columns, each one contiguous, and
    every column starts closed under its own jumps.  Relaxing column r
    lowers it to the column before it, r - 1 in the same row (d - 1 of
    the row before for r = 0), which folds in the unit steps, and closes
    it again under its jumps, cost[k] + min over earlier rows of
    (x - cost), from the first row the unit step lowered.  Columns are
    visited in the cyclic order 0, 1, ..., d - 1, 0, ...  A column is
    dirty until it has been relaxed since its predecessor last changed
    (at the start: where the unit step from its predecessor lowers it),
    and the span is settled when no column is dirty.

    Each relaxation only lowers E by terms of the recursion, and each
    value depends only on earlier slots, so the pass terminates and its
    settled columns are the unique solution, up to rounding.  One cycle
    follows a path through the columns in increasing order; every unit
    step from column d - 1 into the next row costs one more cycle.  A span
    still dirty after _COLUMN_CYCLES * d relaxations is left to the
    sweeps, with departed untouched.
    """
    cum, x, cost = _span_terms(departed, arrivals_cum, drain, w, d, n0, end)
    rows = len(cost)
    grid = x.reshape(rows, d)
    _close_columns(grid, cost, grid)
    cols = grid.T.copy()
    costs = cost.T.copy()
    # a column is dirty where the unit step from its predecessor lowers it
    flags = np.zeros(d, dtype=bool)
    flags[(np.flatnonzero(x[1:] > x[:-1]) + 1) % d] = True
    dirty = flags.tolist()
    left = sum(dirty)
    budget = _COLUMN_CYCLES * d
    best = np.empty(rows)
    r = 0
    while left:
        if dirty[r]:
            if not budget:
                return False
            budget -= 1
            dirty[r] = False
            left -= 1
            # column 0 follows column d - 1 of the row before
            x, pred = cols[r], cols[r - 1]
            shift = 0 if r else 1
            lowered = pred[: rows - shift] < x[shift:]
            j = int(lowered.argmax())
            if lowered[j]:
                # x is closed, so x - cost is nonincreasing down the column
                # and only the rows from the first lowered one, j0, change
                j0 = j + shift
                tail, c, b = x[j0:], costs[r, j0:], best[j0:]
                np.minimum(tail, pred[j : rows - shift], out=tail)
                np.subtract(tail, c, out=b)
                if j0:
                    b[0] = min(b[0], x[j0 - 1] - costs[r, j0 - 1])
                np.minimum.accumulate(b, out=b)
                np.add(c[1:], b[:-1], out=b[:-1])
                np.minimum(tail[1:], b[:-1], out=tail[1:])
                nxt = r + 1 if r + 1 < d else 0
                if not dirty[nxt]:
                    dirty[nxt] = True
                    left += 1
        r = r + 1 if r + 1 < d else 0
    length = end - n0
    departed[n0 + 1 : end + 1] = cols.T.ravel()[:length] + cum[1 : length + 1]
    return True


def _sweep_chunk(departed, arrivals_cum, drain, w, d, n0, end) -> None:
    """Solve slots n0+1..end by alternating two exact partial solutions.

    A prefix minimum along time and the closed-form scan along each
    residue class mod d both only lower E, so alternating them until
    nothing changes reaches the unique solution of the recursion.
    """
    cum, x, cost = _span_terms(departed, arrivals_cum, drain, w, d, n0, end)
    rows = len(cost)
    while True:
        grid = x.reshape(rows, d)
        y = grid.copy()
        _close_columns(grid, cost, y)
        y = np.minimum.accumulate(y.ravel())
        if np.array_equal(y, x):
            break
        x = y
    length = end - n0
    departed[n0 + 1 : end + 1] = x[:length] + cum[1 : length + 1]


def run_flow_control(config: SimConfig, replication: int = 0) -> SimRun:
    """Simulate one replication of the closed loop; deterministic per seed."""
    if not 0 <= replication < config.replications:
        raise ValueError("replication index out of range")
    T = config.total_slots
    w = config.feedback.w
    d = config.feedback.d
    arrival_rng, service_rng = _replication_rngs(config.seed, replication)
    a = config.arrivals.sample_increments(arrival_rng, T, 1)[0]
    c = config.service.sample_increments(service_rng, T, 1)[0]
    arrivals_cum = np.concatenate(([0.0], np.cumsum(a)))
    departed = _departures(arrivals_cum, np.maximum(c, 0.0), w, d)
    # admission cap D(0, n-d) + w, then A' = min(A, cap) in place
    admitted = np.full(T + 1, w)
    if d <= T:
        admitted[d:] += departed[: T + 1 - d]
    np.minimum(arrivals_cum, admitted, out=admitted)

    backlog = arrivals_cum - departed
    queue = admitted - departed
    step = max(1, T // (_CHECKPOINTS - 1))
    checkpoints = np.unique(np.concatenate((np.arange(0, T + 1, step), [T])))
    return SimRun(config, backlog, queue, checkpoints, float(departed[-1]) / T)


def quantile_estimable(config: SimConfig, eps) -> np.ndarray:
    """Whether the (1 - eps)-quantile of the pooled post-warmup backlog has
    at least 100 expected tail samples, eps * post-warmup slots *
    replications >= 100; one flag per eps.  Below that the estimate is
    statistically meaningless."""
    post = config.total_slots - config.warmup_slots
    return np.asarray(eps, dtype=float) * post * config.replications >= 100.0


def backlog_quantile(config: SimConfig, eps):
    """Empirical (1 - eps)-quantile of the total backlog.

    ``eps`` is a scalar (returns a float) or an array (returns an array of
    its shape).  Pools post-warmup slots across all replications; each
    replication runs once and every quantile is read from one partition of
    the pool.  Every eps must pass ``quantile_estimable``.
    """
    e = np.asarray(eps, dtype=float)
    if not np.all((0.0 < e) & (e < 1.0)):
        raise ValueError("eps must lie strictly between 0 and 1")
    if not np.all(quantile_estimable(config, e)):
        raise ValueError(
            "quantile not estimable: eps * post-warmup slots * replications < 100"
        )
    post = config.total_slots - config.warmup_slots
    pool = np.empty(post * config.replications)
    for r in range(config.replications):
        pool[r * post : (r + 1) * post] = run_flow_control(config, r).tail
    k = np.clip(np.ceil((1.0 - e) * len(pool)).astype(np.int64), 1, len(pool)) - 1
    pool = np.partition(pool, k.ravel())
    return float(pool[k]) if e.ndim == 0 else pool[k]
