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
of min(max(c, 0), w) and a prefix minimum.  At d >= 2 two closed forms
are alternated until nothing changes: a prefix minimum along time and,
along each residue class mod d, a cumulative-sum scan of the feedback
jumps.  Negative capacity increments (leftover service) drain nothing
physically; bound comparisons use the signed sums separately.

All runs are deterministic functions of the configured seed.  Replications
use disjoint child seed streams and may execute concurrently.  A run keeps
the per-slot total backlog and network queue, from which D and A' follow.
``backlog_quantile`` pools the post-warmup tails of all replications, and
``quantile_estimable`` is the one statement of the tail-sample floor that
such a quantile needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import FeedbackParams
from .oracle import equivalent_service_batch

__all__ = [
    "SimConfig",
    "SimRun",
    "run_flow_control",
    "empirical_equivalent_mgf",
    "backlog_quantile",
    "quantile_estimable",
]

INF = float("inf")

_CHECKPOINTS = 257

# slots per chunk of the departure solver, rounded to a multiple of d
_CHUNK_SLOTS = 4096


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
    for j <= 0 chunk by chunk.  Inside a chunk starting after slot n0, with
    C the cumulative drain restarted at n0 and E = D - C, a unit step is
    free (E never increases).

    At d = 1 the feedback term only caps the drain at w, so with C summed
    over min(drain, w) the chunk is one Lindley scan: E is the prefix
    minimum of A - C, with D(n0) folded into its first entry.

    At d >= 2 the feedback jump from n-d to n costs g_n = w - (C_n -
    C_{n-d}); jumps that reference slots before the chunk are folded into
    the source term beta.  A prefix minimum along time and the closed-form
    scan along each residue class mod d are both exact partial solutions,
    so alternating them only lowers E until it reaches the unique solution
    of the recursion.
    """
    T = len(drain)
    departed = np.zeros(T + 1)
    size = d * max(1, round(_CHUNK_SLOTS / d))
    for n0 in range(0, T, size):
        length = min(size, T - n0)
        if d == 1:
            cum = np.cumsum(np.minimum(drain[n0 : n0 + length], w))
            x = arrivals_cum[n0 + 1 : n0 + length + 1] - cum
            x[0] = min(x[0], departed[n0])
            np.minimum.accumulate(x, out=x)
            np.add(x, cum, out=departed[n0 + 1 : n0 + length + 1])
            continue
        rows = -(-length // d)
        cum = np.zeros(rows * d + 1)
        np.cumsum(drain[n0 : n0 + length], out=cum[1 : length + 1])
        cum[length + 1 :] = cum[length]
        beta = np.full(rows * d, INF)
        beta[:length] = arrivals_cum[n0 + 1 : n0 + length + 1] - cum[1 : length + 1]
        # feedback references before the chunk, with D_j = 0 for j <= 0
        head = min(d, length)
        ref = departed[np.maximum(np.arange(n0 + 1, n0 + head + 1) - d, 0)]
        beta[:head] = np.minimum(beta[:head], ref + w - cum[1 : head + 1])
        beta[0] = min(beta[0], departed[n0])
        # only jumps of negative cost can lower E; row j of the (rows, d)
        # grid is reached from row j - 1 of the same residue class
        jump = np.minimum(w - (cum[d + 1 :] - cum[1:-d]), 0.0)
        cost = np.zeros((rows, d))
        np.cumsum(jump.reshape(rows - 1, d), axis=0, out=cost[1:])
        x = np.minimum.accumulate(beta)
        while True:
            grid = x.reshape(rows, d)
            best = np.minimum.accumulate(grid - cost, axis=0)
            y = grid.copy()
            np.minimum(grid[1:], cost[1:] + best[:-1], out=y[1:])
            y = np.minimum.accumulate(y.ravel())
            if np.array_equal(y, x):
                break
            x = y
        departed[n0 + 1 : n0 + length + 1] = x[:length] + cum[1 : length + 1]
    return departed


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


def empirical_equivalent_mgf(
    service_model,
    params: FeedbackParams,
    theta: float,
    t: int,
    n_paths: int,
    seed: int,
) -> tuple[float, float]:
    """Sample mean and standard error of exp(-theta S_eq(0, t)).

    Draws n_paths service paths, evaluates the exact equivalent service on
    each with the batch oracle, and averages the transform.  Guarded to
    t <= 200 where the exact oracle is practical.
    """
    if t > 200:
        raise ValueError("empirical equivalent-service MGF is guarded to t <= 200")
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    paths = service_model.sample_increments(rng, t, n_paths)
    values = equivalent_service_batch(paths, params, t)
    transformed = np.exp(-theta * values)
    mean = float(np.mean(transformed))
    if n_paths == 1:
        return mean, 0.0
    stderr = float(np.std(transformed, ddof=1) / math.sqrt(n_paths))
    return mean, stderr


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
