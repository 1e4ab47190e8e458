"""Event-sequence data handling.

Synthetic data generation for sigmoidal-Cox-process clients (thinning a
dominating homogeneous process), JSONL ingestion, timeline normalization
and splitting, and heterogeneous partitioning by event type.  Everything
is a pure function of its inputs and seed.
"""
from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numerics import (
    check_setting,
    chol_factor_jittered,
    expit,
    half_solve_with,
    solve_with,
)

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
# The normalized timeline is cut after these times: train, val, test.
SPLIT_BOUNDARIES = (
    TRAIN_FRACTION * NORMALIZED_HORIZON, VAL_FRACTION * NORMALIZED_HORIZON,
)
GROUND_TRUTH_GRID = 512


_BOOL_TYPES = frozenset((bool, np.bool_))


def _integer_marks(marks) -> np.ndarray:
    """``marks`` as int64, or ValueError unless every one is an integer.

    Integral floats in int64's range pass (NaN and infinities fail the
    comparison); bools never do, even in a list that numpy reads as ints.
    """
    try:
        arr = np.asarray(marks)
    except ValueError:  # ragged, e.g. [[1], [2, 3]]
        raise ValueError("marks must be integers") from None
    kind = arr.dtype.kind
    if kind == "f":
        ok = bool(((np.abs(arr) < 2.0**63) & (arr == np.trunc(arr))).all())
    else:  # every signed width, and unsigned below 64 bits, fits int64
        ok = (kind == "i" or kind == "u" and arr.itemsize < 8) and (
            isinstance(marks, np.ndarray) or arr.ndim != 1
            or _BOOL_TYPES.isdisjoint(map(type, marks))
        )
    if not ok:
        raise ValueError("marks must be integers")
    return arr.astype(np.int64, copy=False)


@dataclass(frozen=True)
class EventSequence:
    """Sorted event times on [0, horizon], with optional integer type marks.

    Every public way to build one checks it: this constructor,
    :func:`load_jsonl`, :func:`superpose` and the simulators.  Only the
    rescaled cuts of an already checked sequence inside
    :func:`normalize_and_split` and :func:`partition_heterogeneous` take
    the private :meth:`_trusted` path, which skips the checks.
    """

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
            # so times passing both checks below are all finite.  (np.diff
            # without its wrapper: the same subtraction.)
            diffs = times[1:] - times[:-1]
            if not (diffs >= 0).all():
                raise ValueError("times must be finite and nondecreasing")
            if (diffs == 0).any():
                log.warning("sequence contains tied event times")
            if not (times[0] >= 0 and times[-1] <= self.horizon):
                raise ValueError("times must be finite and lie within [0, horizon]")
        if self.marks is not None:
            marks = _integer_marks(self.marks)
            object.__setattr__(self, "marks", marks)
            if marks.shape != times.shape:
                raise ValueError("marks must have the same length as times")

    @classmethod
    def _trusted(cls, times, horizon, marks=None) -> EventSequence:
        """A sequence from arrays that already pass every check, unchecked.

        ``times`` is a sorted float64 vector inside [0, horizon] with no
        NaN, ``horizon`` a positive finite float and ``marks`` None or an
        int64 vector as long as ``times``; no copy is made.
        """
        seq = object.__new__(cls)
        object.__setattr__(seq, "times", times)
        object.__setattr__(seq, "horizon", horizon)
        object.__setattr__(seq, "marks", marks)
        return seq

    def __len__(self) -> int:
        return self.times.size


@dataclass(frozen=True)
class DatasetSplit:
    """Per-sequence train/val/test slices of the normalized timeline.

    Timelines are normalized to [0, NORMALIZED_HORIZON] and cut at
    SPLIT_BOUNDARIES.  Boundaries are closed on the left split: an event at exactly the
    train/val boundary belongs to train, one at the val/test boundary to
    validation.
    """

    train: list
    val: list
    test: list


@dataclass(frozen=True)
class PartitionPlan:
    """Client id -> assigned event types and train and test sequences.

    Each client's sequences are listed in the order they were dealt.
    """

    assignments: dict
    train: dict
    test: dict


@dataclass(frozen=True)
class RbfSpec:
    """Ground-truth stationary RBF kernel for the synthetic generator."""

    variance: float
    length_scale: float

    def __post_init__(self):
        check_setting("variance", self.variance, float, low=0, strict=True)
        check_setting("length_scale", self.length_scale, float, low=0,
                      strict=True)

    def gram(self, times_a, times_b) -> np.ndarray:
        """``variance * exp(-0.5 (a - b)^2 / length_scale^2)``, one buffer.

        Each step is computed in place, in the order the expression reads.
        """
        a = np.asarray(times_a, dtype=np.float64)[:, None]
        b = np.asarray(times_b, dtype=np.float64)[None, :]
        out = np.subtract(a, b)
        np.square(out, out=out)
        np.multiply(-0.5, out, out=out)
        np.divide(out, self.length_scale**2, out=out)
        np.exp(out, out=out)
        return np.multiply(self.variance, out, out=out)


def _conditional_draw(kernel, x_new, grid, alpha, factor, nu, rng):
    """Draw f(x_new) given the grid draw under a GP(nu, kernel).

    ``factor`` is the Cholesky factor of the grid gram K and ``alpha`` its
    solve against ``f_grid - nu``.  Each point gets its conditional mean
    ``nu + k alpha`` plus independent noise of its conditional variance
    ``k(t, t) - ||v||^2``, where ``v = L^-1 k^T`` is one triangular sweep
    (:func:`half_solve_with`) written over the cross gram's buffer.
    """
    if len(x_new) == 0:
        return np.empty(0)
    k_no = kernel.gram(x_new, grid)
    mean = nu + k_no @ alpha
    # k_no.T is Fortran-ordered, so the sweep overwrites it without a copy.
    v = half_solve_with(factor, k_no.T)  # (n_grid, n_new)
    # The RBF kernel's diagonal k(t, t) is its variance.
    cond_var = kernel.variance - np.einsum("mn,mn->n", v, v)
    std = np.sqrt(np.maximum(cond_var, 0.0))
    return mean + std * rng.standard_normal(len(mean))


@lru_cache(maxsize=8)
def _grid_and_factor(kernel: RbfSpec, horizon):
    """The ground-truth grid and its gram's factor ``(U, False)``, reused.

    ``U`` is upper-triangular with ``U.T @ U`` the gram; ``U.T @ z`` draws
    f on the grid.  ``U`` is Fortran-ordered, so :func:`solve_with` hands
    it to LAPACK without a copy.  Both arrays are shared, so read-only.
    At most two 512x512 arrays are alive at once: the gram and the copy
    being factored, then the lower factor (freed on return) and ``U``.
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


def simulate_sgcp(m, f, horizon, seed):
    """Sample one sequence from intensity m * sigmoid(f(t)) for a fixed f.

    Candidates come from a homogeneous Poisson(m) process; each candidate
    survives with probability sigmoid(f).  Valid because the intensity
    never exceeds m.  ``f`` is a callable t -> f(t) on an array of times,
    for statistical checks of the thinning itself; a sequence whose f is a
    GP draw comes from :func:`simulate_client` with ``n_seqs=1``.
    Returns (sequence, (grid, intensity)) on the 512-node ground-truth grid.
    """
    _check_rate(m, horizon)

    def f_at(t):
        return np.asarray(f(t), dtype=np.float64)

    seq = _thin(m, horizon, np.random.default_rng(seed), f_at)
    grid = np.linspace(0.0, horizon, GROUND_TRUTH_GRID)
    return seq, (grid, m * expit(f_at(grid)))


def simulate_client(m, kernel, horizon, n_seqs, seed, nu=0.0):
    """Sample several sequences sharing one latent intensity draw.

    f is drawn once on the ground-truth grid and solved against its gram
    once; each sequence's candidates get the grid-conditional mean of f
    plus per-point residual noise, then are thinned independently.  The
    residual variance takes one triangular solve per sequence with
    candidates (:func:`_conditional_draw`), against the cached grid factor.
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


_JSON_NUMBERS = frozenset((int, float))


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
                    and _JSON_NUMBERS.issuperset(map(type, times))):
                raise ValueError(
                    f"'times' must be a list of numbers at line {lineno}"
                )
            horizon = record.get("horizon")
            if horizon is None:
                if not times:
                    raise ValueError(f"empty sequence without horizon at line {lineno}")
                horizon = times[-1]
            try:
                seqs.append(EventSequence(times=times, horizon=horizon,
                                          marks=record.get("marks")))
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


def _rescale(seqs):
    """``seqs``' times rescaled to [0, 100], end to end, and their bounds.

    Sequence i's events are ``times[bounds[i]:bounds[i + 1]]``.  A horizon
    under about 5.6e-307, for which ``100 / horizon`` overflows, raises
    ValueError.  Rescaling can tie distinct times; each sequence whose
    rescaled times hold a tie is warned about once.
    """
    scales = [NORMALIZED_HORIZON / seq.horizon for seq in seqs]
    for seq, scale in zip(seqs, scales):
        if not math.isfinite(scale):
            raise ValueError(
                f"horizon {seq.horizon!r} is too small to rescale to "
                f"[0, {NORMALIZED_HORIZON:g}]"
            )
    sizes = [len(seq) for seq in seqs]
    bounds = np.zeros(len(seqs) + 1, dtype=np.intp)
    np.cumsum(sizes, out=bounds[1:])
    # Every time is at most its horizon, but its product with the rounded
    # scale can exceed 100 by an ulp; such an event is at 100.
    times = np.minimum(
        np.concatenate([seq.times for seq in seqs]) * np.repeat(scales, sizes),
        NORMALIZED_HORIZON,
    )
    later = np.flatnonzero(times[1:] == times[:-1]) + 1
    if later.size:
        owner = np.searchsorted(bounds, later, side="right") - 1
        for _ in np.unique(owner[bounds[owner] != later]):
            log.warning("rescaled sequence contains tied event times")
    return times, bounds


def _cuts(times, bounds, mask, marks=None) -> list[EventSequence]:
    """Each sequence's events under ``mask``, not checked again.

    Rounding is monotone, so times that were sorted, finite and inside
    [0, horizon] stay so inside [0, 100] after a finite rescale and the
    clamp at 100 (:func:`_rescale`).  The cuts share one buffer.
    """
    ends = np.concatenate(([0], np.cumsum(mask)))[bounds].tolist()
    times = times[mask]
    marks = None if marks is None else marks[mask]
    return [
        EventSequence._trusted(times[a:b], NORMALIZED_HORIZON,
                               None if marks is None else marks[a:b])
        for a, b in zip(ends, ends[1:])
    ]


def normalize_and_split(seqs: list[EventSequence]) -> DatasetSplit:
    """Rescale every timeline to [0, 100] and split at 60 / 80 by timestamp.

    Train is ``t <= 60`` and test ``t > 80``; an event at exactly 60 is
    train and one at exactly 80 validation.
    """
    if not seqs:
        raise ValueError("cannot split an empty dataset")
    lo, hi = SPLIT_BOUNDARIES
    train, val, test = [], [], []
    # One sequence at a time: some may have marks and others not.
    for seq in seqs:
        times, bounds = _rescale([seq])
        in_train, in_test = times <= lo, times > hi
        for part, mask in ((train, in_train), (val, ~(in_train | in_test)),
                           (test, in_test)):
            part += _cuts(times, bounds, mask, seq.marks)
    return DatasetSplit(train=train, val=val, test=test)


def partition_heterogeneous(seqs, n_types, k, n_clients, seed) -> PartitionPlan:
    """Split every sequence by timestamp and deal it to a client by type.

    Each client is assigned k of the n_types event types.  Sequences are
    shuffled once and dealt round-robin (counts equal within one); each
    one's timeline is rescaled and cut as in :func:`normalize_and_split`,
    and its client keeps the train and test events of the client's own
    types.  Marks outside ``[0, n_types)`` reach no client.
    """
    if not seqs:
        raise ValueError("cannot split an empty dataset")
    if k >= n_types:
        raise ValueError(f"k must be < number of event types ({k} >= {n_types})")
    if any(seq.marks is None for seq in seqs):
        raise ValueError("heterogeneous partitioning requires marked sequences")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x9A27]))
    assignments = {
        c: tuple(sorted(rng.choice(n_types, size=k, replace=False).tolist()))
        for c in range(n_clients)
    }
    dealt = [seqs[i] for i in rng.permutation(len(seqs))]
    times, bounds = _rescale(dealt)
    marks = np.concatenate([seq.marks for seq in dealt])
    # An event is kept when its mark is one of its client's types.
    owns = np.zeros((n_clients, n_types), dtype=bool)
    for c, types in assignments.items():
        owns[c, list(types)] = True
    client = np.repeat(np.arange(len(dealt)) % n_clients, np.diff(bounds))
    known = (marks >= 0) & (marks < n_types)
    keep = known & owns[client, np.where(known, marks, 0)]
    lo, hi = SPLIT_BOUNDARIES
    train = {c: [] for c in range(n_clients)}
    test = {c: [] for c in range(n_clients)}
    for pos, (tr, te) in enumerate(zip(
        _cuts(times, bounds, (times <= lo) & keep, marks),
        _cuts(times, bounds, (times > hi) & keep, marks),
    )):
        train[pos % n_clients].append(tr)
        test[pos % n_clients].append(te)
    return PartitionPlan(assignments=assignments, train=train, test=test)
