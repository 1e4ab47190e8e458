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

from .numerics import DiagGaussian, check_setting

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

# Every rule clamps the aggregated variance here, so a prior over clients
# that have all collapsed stays a usable Gaussian.
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
        set_fields = [n for n in _MMD_DEFAULTS if getattr(self, n) is not None]
        if self.kind != "mmd" and set_fields:
            raise ValueError(
                f"{set_fields} only apply to kind='mmd' (got {self.kind!r})"
            )
        if self.kind == "mmd":
            # Each knob has its default's kind and must be positive.
            for name, default in _MMD_DEFAULTS.items():
                if getattr(self, name) is None:
                    object.__setattr__(self, name, default)
                check_setting(name, getattr(self, name), type(default),
                              low=0, strict=True)


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


def _floored(var, kind):
    """``var`` clamped at the floor, with a warning if any entry was below."""
    if np.any(var < _VAR_FLOOR):
        log.warning("%s aggregation variance clamped at %g", kind, _VAR_FLOOR)
        var = np.maximum(var, _VAR_FLOOR)
    return var


def aggregate_fedavg(phis: list[DiagGaussian]) -> DiagGaussian:
    """Plain averaging of client means and client variances."""
    means, variances = _stack(phis)
    return DiagGaussian(means.mean(axis=0),
                        _floored(variances.mean(axis=0), "fedavg"))


def aggregate_kl(phis: list[DiagGaussian]) -> DiagGaussian:
    """Minimizer of the summed KL(client || prior).

    mean = avg of client means; var = avg of (client var + client mean^2)
    minus mean^2, i.e. the FedAvg variance plus the population variance of
    the client means.
    """
    means, variances = _stack(phis)
    mu = means.mean(axis=0)
    var_moment = (variances + means**2).mean(axis=0) - mu**2
    return DiagGaussian(mu, _floored(var_moment, "kl"))


def aggregate_w2(phis: list[DiagGaussian]) -> DiagGaussian:
    """Minimizer of the summed squared 2-Wasserstein distance.

    Averages client means and client standard deviations (the barycenter),
    which is more conservative than averaging variances.
    """
    means, variances = _stack(phis)
    mu = means.mean(axis=0)
    sigma = np.sqrt(variances).mean(axis=0)
    return DiagGaussian(mu, _floored(sigma**2, "w2"))


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
    return DiagGaussian(best_mu, _floored(np.exp(best_logv), "mmd"))


def aggregate(method: AggregationMethod, phis: list[DiagGaussian]) -> DiagGaussian:
    """Dispatch to the configured aggregation rule."""
    if method.kind == "fedavg":
        return aggregate_fedavg(phis)
    if method.kind == "kl":
        return aggregate_kl(phis)
    if method.kind == "w2":
        return aggregate_w2(phis)
    return aggregate_mmd(phis, method)
