"""Server-side aggregation of client variational distributions.

Given the diagonal Gaussians uploaded by participating clients, produce
the new global prior as the minimizer of the summed divergence.  FedAvg,
KL and 2-Wasserstein have closed forms; the RBF-MMD objective is
minimized per dimension by gradient descent with step halving.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .numerics import DiagGaussian

__all__ = [
    "AggregationMethod",
    "AGGREGATION_KINDS",
    "aggregate",
    "aggregate_fedavg",
    "aggregate_kl",
    "aggregate_w2",
    "aggregate_mmd",
]

log = logging.getLogger(__name__)

AGGREGATION_KINDS = ("fedavg", "kl", "w2", "mmd")

# Aggregated variance is clamped here if every client has collapsed, so the
# broadcast prior stays a valid Gaussian.
_VAR_FLOOR = 1e-10

_MMD_DEFAULTS = {"mmd_delta": 1.0, "mmd_steps": 500, "mmd_eta": 1e-2}


@dataclass(frozen=True)
class AggregationMethod:
    """Which divergence drives the server update, plus MMD optimizer knobs."""

    kind: str
    mmd_delta: float | None = None
    mmd_steps: int | None = None
    mmd_eta: float | None = None

    def __post_init__(self):
        if self.kind not in AGGREGATION_KINDS:
            raise ValueError(
                f"unknown aggregation {self.kind!r}; valid: {AGGREGATION_KINDS}"
            )
        mmd_fields = {
            "mmd_delta": self.mmd_delta,
            "mmd_steps": self.mmd_steps,
            "mmd_eta": self.mmd_eta,
        }
        if self.kind == "mmd":
            for name, default in _MMD_DEFAULTS.items():
                if mmd_fields[name] is None:
                    object.__setattr__(self, name, default)
            if self.mmd_delta <= 0:
                raise ValueError("mmd_delta must be positive")
            if self.mmd_steps < 1:
                raise ValueError("mmd_steps must be >= 1")
            if self.mmd_eta <= 0:
                raise ValueError("mmd_eta must be positive")
        else:
            set_fields = [n for n, v in mmd_fields.items() if v is not None]
            if set_fields:
                raise ValueError(
                    f"{set_fields} only apply to kind='mmd' (got {self.kind!r})"
                )


def _stack(phis: list[DiagGaussian]):
    if not phis:
        raise ValueError("cannot aggregate an empty client list")
    dim = phis[0].dim
    for p in phis:
        if p.dim != dim:
            raise ValueError("client records have mismatched dimensions")
    means = np.stack([p.mean for p in phis])  # (C, D)
    variances = np.stack([p.var for p in phis])
    return means, variances


def aggregate_fedavg(phis: list[DiagGaussian]) -> DiagGaussian:
    """Plain averaging of client means and client variances."""
    means, variances = _stack(phis)
    return DiagGaussian(means.mean(axis=0), variances.mean(axis=0))


def aggregate_kl(phis: list[DiagGaussian]) -> DiagGaussian:
    """Minimizer of the summed KL(client || prior).

    mean = avg of client means; var = avg of (client var + client mean^2)
    minus mean^2, i.e. the FedAvg variance plus the population variance of
    the client means.
    """
    means, variances = _stack(phis)
    mu = means.mean(axis=0)
    var_moment = (variances + means**2).mean(axis=0) - mu**2
    if np.any(var_moment < _VAR_FLOOR):
        log.warning("KL aggregation variance clamped at %g", _VAR_FLOOR)
        var_moment = np.maximum(var_moment, _VAR_FLOOR)
    return DiagGaussian(mu, var_moment)


def aggregate_w2(phis: list[DiagGaussian]) -> DiagGaussian:
    """Minimizer of the summed squared 2-Wasserstein distance.

    Averages client means and client standard deviations (the barycenter),
    which is more conservative than averaging variances.
    """
    means, variances = _stack(phis)
    mu = means.mean(axis=0)
    sigma = np.sqrt(variances).mean(axis=0)
    return DiagGaussian(mu, np.maximum(sigma**2, _VAR_FLOOR))


def _mmd_objective(mu, var, means, variances, delta):
    """Summed per-client MMD terms that depend on the prior, per dimension.

    Shapes: mu, var are (D,); means, variances are (C, D).  The client
    self-term is prior-free and dropped.
    """
    d2 = delta * delta
    prior_self = 1.0 / np.sqrt(d2 + 4.0 * var)  # (D,)
    s = d2 + 2.0 * variances + 2.0 * var  # (C, D)
    cross = np.exp(-((means - mu) ** 2) / s) / np.sqrt(s)
    return means.shape[0] * prior_self - 2.0 * cross.sum(axis=0)


def _mmd_gradient(mu, var, means, variances, delta):
    """Gradient of :func:`_mmd_objective` w.r.t. (mu, var), per dimension."""
    d2 = delta * delta
    diff = means - mu  # (C, D)
    s = d2 + 2.0 * variances + 2.0 * var
    e = np.exp(-(diff**2) / s)
    # d/dmu of -2 e / sqrt(s): the exponent contributes 2*diff/s per client
    g_mu = -(4.0 * diff * e * s**-1.5).sum(axis=0)
    g_var = (
        -2.0 * means.shape[0] * (d2 + 4.0 * var) ** -1.5
        + (e * (2.0 * s**-1.5 - 4.0 * diff**2 * s**-2.5)).sum(axis=0)
    )
    return g_mu, g_var


def aggregate_mmd(phis: list[DiagGaussian], method: AggregationMethod) -> DiagGaussian:
    """Minimize the summed RBF-MMD by per-dimension gradient descent.

    Starts from the KL closed form, walks (mu, log var) with a shared step
    per dimension that halves whenever that dimension's objective would
    increase, and returns the best iterate seen.
    """
    if method.kind != "mmd":
        raise ValueError("method.kind must be 'mmd'")
    means, variances = _stack(phis)
    delta = method.mmd_delta
    warm = aggregate_kl(phis)
    mu, logv = warm.mean.copy(), np.log(warm.var)

    obj = _mmd_objective(mu, np.exp(logv), means, variances, delta)
    if not np.all(np.isfinite(obj)):
        raise FloatingPointError("MMD objective is not finite at the warm start")
    best_mu, best_logv, best_obj = mu.copy(), logv.copy(), obj.copy()
    step = np.full(mu.shape, method.mmd_eta)
    for _ in range(method.mmd_steps):
        var = np.exp(logv)
        g_mu, g_var = _mmd_gradient(mu, var, means, variances, delta)
        g_logv = g_var * var
        trial_mu = mu - step * g_mu
        trial_logv = logv - step * g_logv
        trial_obj = _mmd_objective(
            trial_mu, np.exp(trial_logv), means, variances, delta
        )
        if not np.all(np.isfinite(trial_obj)):
            raise FloatingPointError("MMD objective became non-finite")
        worse = trial_obj > obj
        step = np.where(worse, 0.5 * step, step)
        mu = np.where(worse, mu, trial_mu)
        logv = np.where(worse, logv, trial_logv)
        obj = np.where(worse, obj, trial_obj)
        improved = obj < best_obj
        best_mu = np.where(improved, mu, best_mu)
        best_logv = np.where(improved, logv, best_logv)
        best_obj = np.where(improved, obj, best_obj)
    return DiagGaussian(best_mu, np.maximum(np.exp(best_logv), _VAR_FLOOR))


def aggregate(method: AggregationMethod, phis: list[DiagGaussian]) -> DiagGaussian:
    """Dispatch to the configured aggregation rule."""
    if method.kind == "fedavg":
        return aggregate_fedavg(phis)
    if method.kind == "kl":
        return aggregate_kl(phis)
    if method.kind == "w2":
        return aggregate_w2(phis)
    return aggregate_mmd(phis, method)
