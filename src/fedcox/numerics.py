"""Foundational numerics shared by every other module.

Diagonal-Gaussian algebra and divergences, Polya-Gamma first moments,
jittered Cholesky factorization for positive-definite kernel matrices,
trapezoid quadrature on a time interval, and the type rule of every run
setting.  Everything here is a pure function of its inputs and safe to
share across workers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np
from scipy.linalg import cho_factor, cho_solve as _cho_solve

__all__ = [
    "DiagGaussian",
    "QuadratureGrid",
    "FactorizationError",
    "kl_diag",
    "w2_diag",
    "mmd_rbf",
    "pg_mean",
    "log_2cosh",
    "chol_factor_jittered",
    "chol_logdet",
    "trapezoid_grid",
    "check_setting",
]

# Jitter escalates from JITTER_START to JITTER_MAX (times the mean diagonal)
# in decade steps; deep-kernel Gram matrices go near-singular whenever the
# embedding collapses, so plain Cholesky is not enough.
JITTER_START = 1e-8
JITTER_MAX = 1e-2

# pg_mean switches to a Taylor series below this to avoid 0/0.
_PG_SERIES_CUTOFF = 1e-4


class FactorizationError(np.linalg.LinAlgError):
    """Matrix could not be Cholesky-factorized even at maximum jitter."""


@dataclass(frozen=True)
class DiagGaussian:
    """Diagonal Gaussian over a parameter vector.

    Holds both the global prior (mean, var) kept on the server and each
    client's variational distribution over kernel parameters.
    """

    mean: np.ndarray
    var: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        var = np.asarray(self.var, dtype=np.float64)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "var", var)
        if mean.ndim != 1 or var.ndim != 1:
            raise ValueError("mean and var must be 1-D vectors")
        if mean.shape != var.shape or mean.size < 1:
            raise ValueError(
                f"dimension mismatch: mean has {mean.size}, var has {var.size}"
            )
        if not np.all(np.isfinite(mean)):
            raise ValueError("mean entries must be finite")
        if not np.all(np.isfinite(var)) or np.any(var <= 0.0):
            raise ValueError("var entries must be strictly positive and finite")

    @property
    def dim(self) -> int:
        return self.mean.size

    def std(self) -> np.ndarray:
        return np.sqrt(self.var)


@dataclass(frozen=True)
class QuadratureGrid:
    """Fixed nodes and weights for integrals over a time horizon [0, T]."""

    nodes: np.ndarray
    weights: np.ndarray
    horizon: float

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=np.float64)
        weights = np.asarray(self.weights, dtype=np.float64)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if nodes.shape != weights.shape or nodes.ndim != 1:
            raise ValueError("nodes and weights must be equal-length vectors")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if nodes[0] < 0 or nodes[-1] > self.horizon:
            raise ValueError("nodes must lie within [0, horizon]")
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")
        if abs(weights.sum() - self.horizon) > 1e-9 * self.horizon:
            raise ValueError("weights must sum to the horizon")

    @property
    def size(self) -> int:
        return self.nodes.size


def kl_diag(q: DiagGaussian, p: DiagGaussian) -> float:
    """KL(q || p) between diagonal Gaussians, in nats.

    Sum over dimensions of
    ``0.5 * [(var_q + (mean_q - mean_p)^2) / var_p - 1 + ln(var_p / var_q)]``.
    """
    if q.dim != p.dim:
        raise ValueError(f"dimension mismatch: {q.dim} vs {p.dim}")
    ratio = q.var / p.var
    quad = (q.mean - p.mean) ** 2 / p.var
    return float(0.5 * np.sum(ratio + quad - 1.0 - np.log(ratio)))


def w2_diag(q: DiagGaussian, p: DiagGaussian) -> float:
    """2-Wasserstein distance between diagonal Gaussians.

    Closed form ``sqrt(||mean_q - mean_p||^2 + ||std_q - std_p||^2)``;
    exact because diagonal covariances commute.
    """
    if q.dim != p.dim:
        raise ValueError(f"dimension mismatch: {q.dim} vs {p.dim}")
    dm = q.mean - p.mean
    ds = q.std() - p.std()
    return float(np.sqrt(np.sum(dm * dm) + np.sum(ds * ds)))


def mmd_rbf(q: DiagGaussian, p: DiagGaussian, delta: float) -> float:
    """Closed-form RBF-kernel MMD between diagonal Gaussians, summed per dim.

    Per dimension, with kernel ``exp(-(x - y)^2 / delta^2)``:

        delta/sqrt(delta^2 + 4 var_q) + delta/sqrt(delta^2 + 4 var_p)
        - 2 delta exp(-(mean_q - mean_p)^2 / s) / sqrt(s),
        s = delta^2 + 2 var_q + 2 var_p.
    """
    if q.dim != p.dim:
        raise ValueError(f"dimension mismatch: {q.dim} vs {p.dim}")
    if delta <= 0:
        raise ValueError("delta must be positive")
    d2 = delta * delta
    self_q = delta / np.sqrt(d2 + 4.0 * q.var)
    self_p = delta / np.sqrt(d2 + 4.0 * p.var)
    s = d2 + 2.0 * q.var + 2.0 * p.var
    cross = delta * np.exp(-((q.mean - p.mean) ** 2) / s) / np.sqrt(s)
    return float(np.sum(self_q + self_p - 2.0 * cross))


def pg_mean(c):
    """First moment of a PG(1, c) Polya-Gamma variable: tanh(c/2) / (2c).

    Accepts scalars or arrays.  Below c = 1e-4 a 3-term Taylor series
    (1/4 - c^2/48 + c^4/480) replaces the direct formula, which is 0/0
    at c = 0; the limit there is exactly 1/4.
    """
    c = np.asarray(c, dtype=np.float64)
    if np.any(c < 0):
        raise ValueError("c must be nonnegative")
    small = c < _PG_SERIES_CUTOFF
    c_safe = np.where(small, 1.0, c)
    direct = np.tanh(0.5 * c_safe) / (2.0 * c_safe)
    c2 = c * c
    series = 0.25 - c2 / 48.0 + c2 * c2 / 480.0
    out = np.where(small, series, direct)
    return float(out) if out.ndim == 0 else out


def log_2cosh(x):
    """log(2 cosh(x)), overflow-safe for large |x|."""
    return np.logaddexp(x, -x)


def chol_factor_jittered(a: np.ndarray, label: str = "matrix",
                         baseline: bool = False):
    """Cholesky-factorize ``a``, adding escalating diagonal jitter on failure.

    By default a clean factorization is attempted first (well-conditioned
    matrices must round-trip tightly); on failure the jitter ladder starts
    at ``1e-8 * mean(diag)`` and multiplies by 10 up to
    ``1e-2 * mean(diag)``.  With ``baseline=True`` the ladder's first rung
    is applied unconditionally, which keeps quantities derived from
    near-singular kernel grams continuous in the kernel parameters (the
    clean-first policy makes them jump wherever a parameter perturbation
    flips factorization success).  Returns ``(factor, jitter_used)`` where
    ``factor`` feeds :func:`solve_with` / :func:`chol_logdet`.
    """
    a = np.asarray(a, dtype=np.float64)
    scale = float(np.mean(np.diag(a)))
    if not np.isfinite(scale) or scale <= 0:
        scale = 1.0
    jitter = JITTER_START * scale if baseline else 0.0
    eye = np.eye(a.shape[0])
    while True:
        try:
            factor = cho_factor(a + jitter * eye, lower=True, check_finite=False)
            return factor, jitter
        except np.linalg.LinAlgError:
            jitter = JITTER_START * scale if jitter == 0.0 else 10.0 * jitter
            if jitter > JITTER_MAX * scale:
                raise FactorizationError(
                    f"{label}: Cholesky failed even at jitter "
                    f"{JITTER_MAX * scale:.3e}"
                ) from None


def chol_logdet(factor) -> float:
    """log-determinant from a factor returned by :func:`chol_factor_jittered`."""
    return float(2.0 * np.sum(np.log(np.diag(factor[0]))))


def solve_with(factor, b):
    """Solve with an existing factor (saves refactorizing in inner loops)."""
    return _cho_solve(factor, np.asarray(b, dtype=np.float64), check_finite=False)


def trapezoid_grid(horizon: float, n_nodes: int) -> QuadratureGrid:
    """Uniform trapezoid rule on [0, horizon] with endpoints included."""
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if n_nodes < 2:
        raise ValueError("need at least 2 nodes")
    nodes = np.linspace(0.0, horizon, n_nodes)
    h = horizon / (n_nodes - 1)
    weights = np.full(n_nodes, h)
    weights[0] = weights[-1] = 0.5 * h
    return QuadratureGrid(nodes=nodes, weights=weights, horizon=float(horizon))


def check_setting(name: str, value, kind: type, low=None,
                  strict: bool = False) -> None:
    """Check the run setting ``name`` against its kind and lower bound.

    ``kind`` is ``int``, ``float`` or ``bool``.  A bool is never a number,
    numbers must be finite, and numpy scalars count as their kind.  ``low``
    is exclusive when ``strict``.  Raises ``TypeError`` for a wrong type and
    ``ValueError`` for a value out of range.
    """
    types = {int: Integral, float: Real, bool: (bool, np.bool_)}[kind]
    is_bool = isinstance(value, (bool, np.bool_))
    if is_bool != (kind is bool) or not isinstance(value, types):
        what = {int: "an integer", float: "a number", bool: "true or false"}
        raise TypeError(f"{name} must be {what[kind]}, got {value!r}")
    if not -math.inf < value < math.inf:  # NaN fails too
        raise ValueError(f"{name} must be finite, got {value!r}")
    if low is not None and not (value > low if strict else value >= low):
        raise ValueError(
            f"{name} must be {'>' if strict else '>='} {low}, got {value!r}"
        )
