"""Event-sequence data handling.

Synthetic data generation for sigmoidal-Cox-process clients (thinning a
dominating homogeneous process), JSONL ingestion, timeline normalization
and splitting, and heterogeneous partitioning by event type.  Everything
is a pure function of its inputs and seed.
"""
from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import expit

from .numerics import check_setting, chol_factor_jittered, solve_with

__all__ = [
    "EventSequence",
    "DatasetSplit",
    "PartitionPlan",
    "RbfSpec",
    "simulate_sgcp",
    "simulate_client",
    "superpose",
    "load_jsonl",
    "save_jsonl",
    "normalize_and_split",
    "partition_heterogeneous",
]

log = logging.getLogger(__name__)

NORMALIZED_HORIZON = 100.0
TRAIN_FRACTION = 0.6
VAL_FRACTION = 0.8
GROUND_TRUTH_GRID = 512


@dataclass(frozen=True)
class EventSequence:
    """Sorted event times on [0, horizon], with optional integer type marks."""

    times: np.ndarray
    horizon: float
    marks: np.ndarray | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64)
        object.__setattr__(self, "times", times)
        check_setting("horizon", self.horizon, float, low=0, strict=True)
        object.__setattr__(self, "horizon", float(self.horizon))
        if times.ndim != 1:
            raise ValueError("times must be a vector")
        if times.size:
            # Every comparison with NaN is false and the horizon is finite,
            # so times passing both checks below are all finite.
            diffs = np.diff(times)
            if not (diffs >= 0).all():
                raise ValueError("times must be finite and nondecreasing")
            if (diffs == 0).any():
                log.warning("sequence contains tied event times")
            if not (times[0] >= 0 and times[-1] <= self.horizon):
                raise ValueError("times must be finite and lie within [0, horizon]")
        if self.marks is not None:
            marks = np.asarray(self.marks, dtype=np.int64)
            object.__setattr__(self, "marks", marks)
            if marks.shape != times.shape:
                raise ValueError("marks must have the same length as times")

    def __len__(self) -> int:
        return self.times.size


@dataclass(frozen=True)
class DatasetSplit:
    """Per-sequence train/val/test slices of the normalized timeline.

    Boundaries are closed on the left split: an event at exactly the
    train/val boundary belongs to train, one at the val/test boundary to
    validation.
    """

    train: list
    val: list
    test: list
    boundaries: tuple = (
        TRAIN_FRACTION * NORMALIZED_HORIZON,
        VAL_FRACTION * NORMALIZED_HORIZON,
    )
    horizon: float = NORMALIZED_HORIZON


@dataclass(frozen=True)
class PartitionPlan:
    """Client id -> assigned event types and per-client sequences."""

    assignments: dict
    client_seqs: dict


@dataclass(frozen=True)
class RbfSpec:
    """Ground-truth stationary RBF kernel for the synthetic generator."""

    variance: float
    length_scale: float

    def __post_init__(self):
        if self.variance <= 0 or self.length_scale <= 0:
            raise ValueError("variance and length_scale must be positive")

    def gram(self, times_a, times_b) -> np.ndarray:
        a = np.asarray(times_a, dtype=np.float64)[:, None]
        b = np.asarray(times_b, dtype=np.float64)[None, :]
        return self.variance * np.exp(-0.5 * (a - b) ** 2 / self.length_scale**2)


def _conditional_draw(kernel, x_new, grid, alpha, factor, nu, rng):
    """Draw f(x_new) given the grid draw under a GP(nu, kernel).

    ``factor`` is the Cholesky factor of the grid gram and ``alpha`` its
    solve against ``f_grid - nu``.  Each point gets its conditional mean
    plus independent noise of its conditional variance.
    """
    if len(x_new) == 0:
        return np.empty(0)
    k_no = kernel.gram(x_new, grid)
    mean = nu + k_no @ alpha
    solved = solve_with(factor, k_no.T)  # (n_grid, n_new)
    # The RBF kernel's diagonal k(t, t) is its variance.
    cond_var = kernel.variance - np.einsum("nm,mn->n", k_no, solved)
    std = np.sqrt(np.maximum(cond_var, 0.0))
    return mean + std * rng.standard_normal(len(mean))


@lru_cache(maxsize=8)
def _grid_and_factor(kernel: RbfSpec, horizon):
    """The ground-truth grid and its gram's factor ``(U, False)``, reused.

    ``U`` is upper-triangular with ``U.T @ U`` the gram; ``U.T @ z`` draws
    f on the grid.  ``U`` is Fortran-ordered, so :func:`solve_with` hands
    it to LAPACK without a copy.  Both arrays are shared, so read-only.
    """
    grid = np.linspace(0.0, horizon, GROUND_TRUTH_GRID)
    (c, _), _ = chol_factor_jittered(kernel.gram(grid, grid), "ground-truth gram")
    upper = np.tril(c).T
    grid.flags.writeable = upper.flags.writeable = False
    return grid, (upper, False)


def _check_resolution(kernel, horizon):
    """Reject a length scale under two ground-truth grid spacings.

    A coarser grid does not pin f between its nodes: sequences would stop
    sharing one intensity, and the grid intensity would alias the true one.
    """
    min_length = 2.0 * horizon / (GROUND_TRUTH_GRID - 1)
    if kernel.length_scale < min_length:
        raise ValueError(
            f"kernel length scale {kernel.length_scale:g} is under two "
            f"ground-truth grid spacings, {min_length:g} on horizon {horizon:g}"
        )


def _check_rate(m, horizon):
    check_setting("m", m, float, low=0, strict=True)
    check_setting("horizon", horizon, float, low=0, strict=True)


def _thin(m, horizon, rng, f_at) -> EventSequence:
    """Thin Poisson(m) candidates on [0, horizon] by sigmoid(f_at(t))."""
    n_cand = rng.poisson(m * horizon)
    cand = np.sort(rng.uniform(0.0, horizon, n_cand))
    f_cand = f_at(cand)  # may draw from rng, so before the survival draws
    keep = rng.uniform(size=n_cand) < expit(f_cand)
    return EventSequence(times=cand[keep], horizon=float(horizon))


def simulate_sgcp(m, kernel, horizon, seed, nu=0.0, f_override=None):
    """Sample one sequence from intensity m * sigmoid(f), f ~ GP.

    Candidates come from a homogeneous Poisson(m) process; each candidate
    survives with probability sigmoid(f).  Valid because the intensity
    never exceeds m.  The candidates' f values are conditioned on f's draw
    on the returned 512-node ground-truth grid, as in
    :func:`simulate_client`, whose kernel resolution check applies.

    ``f_override``: optional callable t -> f(t) replacing the GP draw, for
    fixed-function sampling in statistical checks; ``kernel`` is then
    unused.  Without it this is :func:`simulate_client` with one sequence.
    """
    if f_override is None:
        seqs, truth = simulate_client(m, kernel, horizon, 1, seed, nu)
        return seqs[0], truth
    _check_rate(m, horizon)

    def f_at(t):
        return np.asarray(f_override(t), dtype=np.float64)

    seq = _thin(m, horizon, np.random.default_rng(seed), f_at)
    grid = np.linspace(0.0, horizon, GROUND_TRUTH_GRID)
    return seq, (grid, m * expit(f_at(grid)))


def simulate_client(m, kernel, horizon, n_seqs, seed, nu=0.0):
    """Sample several sequences sharing one latent intensity draw.

    f is drawn once on the ground-truth grid and solved against its gram
    once; each sequence's candidates get the grid-conditional mean of f
    plus per-point residual noise, then are thinned independently.
    ``kernel`` is an :class:`RbfSpec` with length scale at least two grid
    spacings, ``2 * horizon / (GROUND_TRUTH_GRID - 1)`` (ValueError
    otherwise), where the residual variance is at most ~8e-6 of the
    prior's.  Returns (sequences, (grid, intensity)).
    """
    if not isinstance(kernel, RbfSpec):
        raise TypeError("kernel must be an RbfSpec")
    check_setting("n_seqs", n_seqs, int, low=1)
    _check_rate(m, horizon)
    _check_resolution(kernel, horizon)
    rng = np.random.default_rng(seed)
    grid, factor = _grid_and_factor(kernel, horizon)
    f_grid = nu + factor[0].T @ rng.standard_normal(grid.size)
    alpha = solve_with(factor, f_grid - nu)

    def f_at(t):
        return _conditional_draw(kernel, t, grid, alpha, factor, nu, rng)

    seqs = [_thin(m, horizon, rng, f_at) for _ in range(n_seqs)]
    return seqs, (grid, m * expit(f_grid))


def superpose(a: EventSequence, b: EventSequence) -> EventSequence:
    """Merge two sequences; the result has intensity lambda_a + lambda_b."""
    if a.horizon != b.horizon:
        raise ValueError(
            f"horizon mismatch: {a.horizon} vs {b.horizon}"
        )
    times = np.sort(np.concatenate([a.times, b.times]))
    return EventSequence(times=times, horizon=a.horizon)


def load_jsonl(path) -> list[EventSequence]:
    """Read one sequence per line: {"times": [...], "marks?": [...], "horizon?": x}."""
    seqs = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"malformed JSON at line {lineno}: {exc}") from None
            if not isinstance(record, dict):
                raise ValueError(f"line {lineno} is not a JSON object")
            times = record.get("times")
            # JSON numbers load as int or float; this also rejects bools.
            if not (isinstance(times, list)
                    and all(type(t) in (int, float) for t in times)):
                raise ValueError(
                    f"'times' must be a list of numbers at line {lineno}"
                )
            marks = record.get("marks")
            if marks is not None and not (isinstance(marks, list) and all(
                type(k) is int or type(k) is float and k.is_integer()
                for k in marks
            )):
                raise ValueError(f"marks must be integers at line {lineno}")
            horizon = record.get("horizon")
            if horizon is None:
                if not times:
                    raise ValueError(f"empty sequence without horizon at line {lineno}")
                horizon = times[-1]
            try:
                seqs.append(EventSequence(times=times, horizon=horizon, marks=marks))
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"invalid sequence at line {lineno}: {exc}") from None
    if not seqs:
        log.warning("no sequences found in %s", path)
    return seqs


def save_jsonl(seqs: list[EventSequence], path) -> None:
    """Write sequences in the line-delimited format read by :func:`load_jsonl`."""
    with open(path, "w", encoding="utf-8") as fh:
        for seq in seqs:
            record = {"times": seq.times.tolist(), "horizon": seq.horizon}
            if seq.marks is not None:
                record["marks"] = seq.marks.tolist()
            fh.write(json.dumps(record) + "\n")


def _slice_events(seq: EventSequence, mask) -> EventSequence:
    marks = seq.marks[mask] if seq.marks is not None else None
    return EventSequence(
        times=seq.times[mask], horizon=NORMALIZED_HORIZON, marks=marks
    )


def normalize_and_split(seqs: list[EventSequence]) -> DatasetSplit:
    """Rescale every timeline to [0, 100] and split at 60 / 80 by timestamp."""
    if not seqs:
        raise ValueError("cannot split an empty dataset")
    lo, hi = TRAIN_FRACTION * NORMALIZED_HORIZON, VAL_FRACTION * NORMALIZED_HORIZON
    train, val, test = [], [], []
    for seq in seqs:
        scale = NORMALIZED_HORIZON / seq.horizon
        scaled = EventSequence(
            times=seq.times * scale, horizon=NORMALIZED_HORIZON, marks=seq.marks
        )
        train.append(_slice_events(scaled, scaled.times <= lo))
        val.append(_slice_events(scaled, (scaled.times > lo) & (scaled.times <= hi)))
        test.append(_slice_events(scaled, scaled.times > hi))
    return DatasetSplit(train=train, val=val, test=test)


def partition_heterogeneous(seqs, n_types, k, n_clients, seed) -> PartitionPlan:
    """Assign k of the n_types event types to each client and deal sequences.

    Sequences are shuffled once and dealt round-robin (counts equal within
    one); each client then sees only the events of its own types.
    """
    if k >= n_types:
        raise ValueError(f"k must be < number of event types ({k} >= {n_types})")
    if any(seq.marks is None for seq in seqs):
        raise ValueError("heterogeneous partitioning requires marked sequences")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x9A27]))
    assignments = {
        c: tuple(sorted(rng.choice(n_types, size=k, replace=False).tolist()))
        for c in range(n_clients)
    }
    order = rng.permutation(len(seqs))
    client_seqs = {c: [] for c in range(n_clients)}
    for pos, seq_idx in enumerate(order):
        c = pos % n_clients
        seq = seqs[seq_idx]
        mask = np.isin(seq.marks, assignments[c])
        client_seqs[c].append(
            EventSequence(
                times=seq.times[mask], horizon=seq.horizon, marks=seq.marks[mask]
            )
        )
    return PartitionPlan(assignments=assignments, client_seqs=client_seqs)
