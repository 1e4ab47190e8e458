"""Server-side aggregation of client variational distributions.

Given the diagonal Gaussians uploaded by participating clients, produce
the new global prior as the minimizer of the summed divergence.  FedAvg,
KL and 2-Wasserstein have closed forms; the RBF-MMD objective is
minimized per dimension by gradient descent with step halving, from the
KL closed form, evaluating its terms once per step.
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


def _moment_match(means, variances):
    """Mean and variance of the records' mixture: the KL minimizer, unfloored."""
    mu = means.mean(axis=0)
    return mu, (variances + means**2).mean(axis=0) - mu**2


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
    mu, var = _moment_match(*_stack(phis))
    return DiagGaussian(mu, _floored(var, "kl"))


def aggregate_w2(phis: list[DiagGaussian]) -> DiagGaussian:
    """Minimizer of the summed squared 2-Wasserstein distance.

    Averages client means and client standard deviations (the barycenter),
    which is more conservative than averaging variances.
    """
    means, variances = _stack(phis)
    mu = means.mean(axis=0)
    sigma = np.sqrt(variances).mean(axis=0)
    return DiagGaussian(mu, _floored(sigma**2, "w2"))


def _mmd_point(mu, var, means, base, d2):
    """Summed per-client MMD terms that depend on the prior, per dimension.

    Shapes: mu, var are (D,); means and ``base = d2 + 2 variances`` are
    (C, D).  The client self-term is prior-free and dropped.  Returns the
    objective and the terms ``(diff, diff**2, s, e, d2 + 4 var)`` that
    :func:`_mmd_gradient` reuses at the same point.
    """
    diff = means - mu  # (C, D)
    sq = diff**2
    s = base + 2.0 * var
    e = np.exp(-sq / s)
    q = d2 + 4.0 * var  # (D,)
    obj = (means.shape[0] * (1.0 / np.sqrt(q))
           - 2.0 * (e / np.sqrt(s)).sum(axis=0))
    return obj, (diff, sq, s, e, q)


def _mmd_gradient(terms):
    """Gradient of the objective w.r.t. (mu, var), from the terms of
    :func:`_mmd_point` at the same point."""
    diff, sq, s, e, q = terms
    s15 = s**-1.5
    # d/dmu of -2 e / sqrt(s): the exponent contributes 2*diff/s per client
    g_mu = -((4.0 * diff * e) * s15).sum(axis=0)
    g_var = (
        (-2.0 * diff.shape[0]) * q**-1.5
        + (e * (2.0 * s15 - (4.0 * sq) * s**-2.5)).sum(axis=0)
    )
    return g_mu, g_var


def aggregate_mmd(phis: list[DiagGaussian], method: AggregationMethod) -> DiagGaussian:
    """Minimize the summed RBF-MMD by per-dimension gradient descent.

    Starts from the KL closed form (the moment match of the records),
    walks (mu, log var) with a shared step per dimension that halves
    whenever that dimension's objective would increase, and returns the
    best iterate seen.  Each step evaluates the MMD terms once, at the
    trial point: an accepted trial's terms give the next step's gradient,
    and a rejected dimension keeps its current terms.
    """
    if method.kind != "mmd":
        raise ValueError("method.kind must be 'mmd'")
    means, variances = _stack(phis)
    d2 = method.mmd_delta * method.mmd_delta
    base = d2 + 2.0 * variances
    mu, var = _moment_match(means, variances)
    logv = np.log(_floored(var, "mmd"))
    var = np.exp(logv)  # as at every later iterate, not the moment itself

    obj, terms = _mmd_point(mu, var, means, base, d2)
    if not np.all(np.isfinite(obj)):
        raise FloatingPointError("MMD objective is not finite at the warm start")
    best_mu, best_logv, best_obj = mu.copy(), logv.copy(), obj.copy()
    step = np.full(mu.shape, method.mmd_eta)
    for _ in range(method.mmd_steps):
        g_mu, g_var = _mmd_gradient(terms)
        trial_mu = mu - step * g_mu
        trial_logv = logv - step * (g_var * var)
        trial_var = np.exp(trial_logv)
        trial_obj, trial_terms = _mmd_point(trial_mu, trial_var, means, base, d2)
        if not np.all(np.isfinite(trial_obj)):
            raise FloatingPointError("MMD objective became non-finite")
        worse = trial_obj > obj
        if worse.any():
            step = np.where(worse, 0.5 * step, step)
            for new, old in zip((trial_mu, trial_logv, trial_var, trial_obj,
                                 *trial_terms), (mu, logv, var, obj, *terms)):
                np.copyto(new, old, where=worse)
        mu, logv, var, obj, terms = (trial_mu, trial_logv, trial_var,
                                     trial_obj, trial_terms)
        improved = obj < best_obj
        np.copyto(best_mu, mu, where=improved)
        np.copyto(best_logv, logv, where=improved)
        np.copyto(best_obj, obj, where=improved)
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
