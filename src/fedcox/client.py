"""One federated client: a sigmoidal Cox process with a deep kernel.

The client keeps a variational distribution over its kernel parameters,
a sparse Gaussian-process posterior at fixed inducing locations, tilted
Polya-Gamma parameters at its events, and the rate of the auxiliary
thinned-out point process on a quadrature grid.  Coordinate updates for
the latter three blocks are closed form; the kernel-parameter block is
trained by reparameterized stochastic gradients against the broadcast
global prior.

All expectations over the kernel parameters use a common set of
reparameterized samples ``w = mean + std * eps`` drawn from a noise seed.
Passing the same sample set to the coordinate updates and to the bound
makes every update an exact coordinate-ascent step of the sampled bound,
which is what the monotonicity guarantees in the tests rely on.
"""
from __future__ import annotations

import copy
import logging
import math
from dataclasses import InitVar, dataclass, field
from functools import reduce
from operator import add

import numpy as np

from . import kernel as dk
from .kernel import EncoderSpec, KernelParams
from .numerics import (
    DiagGaussian,
    QuadratureGrid,
    chol_factor_jittered,
    chol_logdet,
    expit,
    kl_diag,
    log_2cosh,
    pg_mean,
    solve_with,
)

__all__ = [
    "InducingPosterior",
    "ClientState",
    "PredictiveState",
    "init_client",
    "derive_seed",
    "draw_w_samples",
    "posterior_f_moments",
    "sample_blocks",
    "update_pg",
    "update_latent_pp",
    "update_inducing",
    "update_scale",
    "elbo",
    "local_objective",
    "local_objective_grad",
    "client_update",
    "intensity",
    "test_loglik",
]

log = logging.getLogger(__name__)

# Exponent clamp for the latent-process rate; hitting it is recorded in the
# client diagnostics.
_LOG_RATE_CLAMP = 60.0

GAUSS_HERMITE_ORDER = 20
# Gauss-Hermite rule: for f ~ N(mean, var), E[g(f)] is about
# sum(_GH_WEIGHTS * g(mean + sqrt(2 var) * _GH_NODES)).  The nodes and
# weights are scipy.special.roots_hermite(20)'s output, bit for bit.
_GH_NODES = np.array([float.fromhex(h) for h in (
    "-0x1.58cc7ca59b160p+2", "-0x1.26a2bbb67f55ep+2", "-0x1.f8ee072f5de16p+1",
    "-0x1.ac867f9b566b1p+1", "-0x1.64f798cfeaf13p+1", "-0x1.20a2fcf426decp+1",
    "-0x1.bd10ceb867454p+0", "-0x1.3bec6b39e4f50p+0", "-0x1.7996281385f71p-1",
    "-0x1.f67530743d202p-3", "0x1.f67530743d202p-3", "0x1.7996281385f71p-1",
    "0x1.3bec6b39e4f50p+0", "0x1.bd10ceb867454p+0", "0x1.20a2fcf426decp+1",
    "0x1.64f798cfeaf13p+1", "0x1.ac867f9b566b1p+1", "0x1.f8ee072f5de16p+1",
    "0x1.26a2bbb67f55ep+2", "0x1.58cc7ca59b160p+2",
)])
_GH_WEIGHTS = np.array([float.fromhex(h) for h in (
    "0x1.f603cb3708c51p-43", "0x1.e3b670b9be7c0p-32", "0x1.d2769715977edp-24",
    "0x1.05cf732628219p-17", "0x1.dedc5f2bdb14ap-13", "0x1.a92af8d75213bp-9",
    "0x1.967eddf3bc837p-6", "0x1.be88d368eaad6p-4", "0x1.258e438063fd2p-2",
    "0x1.d956678ededfdp-2", "0x1.d956678ededfdp-2", "0x1.258e438063fd2p-2",
    "0x1.be88d368eaad6p-4", "0x1.967eddf3bc837p-6", "0x1.a92af8d75213bp-9",
    "0x1.dedc5f2bdb14ap-13", "0x1.05cf732628219p-17", "0x1.d2769715977edp-24",
    "0x1.e3b670b9be7c0p-32", "0x1.f603cb3708c51p-43",
)]) / math.sqrt(math.pi)

# Trapezoid nodes of the integrated intensity in held-out scores.
HELDOUT_QUAD_NODES = 200


@dataclass
class InducingPosterior:
    """Gaussian posterior over the process values at fixed inducing times."""

    locations: np.ndarray
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.locations = np.asarray(self.locations, dtype=np.float64)
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.cov = np.asarray(self.cov, dtype=np.float64)
        m = self.locations.size
        if not all(np.isfinite(a).all()
                   for a in (self.locations, self.mean, self.cov)):
            raise ValueError("inducing posterior entries must be finite")
        if np.any(np.diff(self.locations) <= 0):
            raise ValueError("inducing locations must be strictly increasing")
        if self.mean.shape != (m,) or self.cov.shape != (m, m):
            raise ValueError("inducing posterior shapes are inconsistent")


@dataclass
class ClientState:
    """Everything one client owns between communication rounds.

    ``train_seqs`` is read once, at construction: its event times are held
    flat in ``events``, with one slice per sequence in ``seq_slices``.
    """

    id: int
    train_seqs: InitVar[list]
    grid: QuadratureGrid
    spec: EncoderSpec
    m: float
    nu: float
    phi: DiagGaussian
    q_u: InducingPosterior
    pg: np.ndarray
    latent_rate: np.ndarray
    latent_c: np.ndarray
    diagnostics: dict = field(default_factory=dict)
    events: np.ndarray = field(init=False)
    seq_slices: list = field(init=False)

    def __post_init__(self, train_seqs):
        if self.m <= 0:
            raise ValueError("scale m must be positive")
        times, slices, start = [], [], 0
        for seq in train_seqs:
            times.append(seq.times)
            slices.append(slice(start, start + len(seq)))
            start += len(seq)
        self.events = np.concatenate(times) if times else np.empty(0)
        self.seq_slices = slices
        if self.pg.shape != self.events.shape:
            raise ValueError("pg must hold one value per training event")
        q = self.grid.size
        if self.latent_rate.shape != (q,) or self.latent_c.shape != (q,):
            raise ValueError("latent blocks must align with the grid")
        if np.any(self.latent_rate < 0) or not np.all(np.isfinite(self.latent_rate)):
            raise ValueError("latent_rate entries must be finite and >= 0")

    @property
    def n_seqs(self) -> int:
        return len(self.seq_slices)


@dataclass(frozen=True)
class PredictiveState:
    """The part of a trained client that prediction reads.

    :func:`intensity`, :func:`posterior_f_moments` and :func:`test_loglik`
    accept this or a :class:`ClientState`, which has the same attributes.
    """

    id: int
    spec: EncoderSpec
    m: float
    nu: float
    phi: DiagGaussian
    q_u: InducingPosterior


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from a tuple of integers (order-sensitive)."""
    entropy = [int(p) & 0x7FFFFFFFFFFFFFFF for p in parts]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def _draw_eps(dim: int, n_samples: int, noise_seed: int) -> np.ndarray:
    rng = np.random.default_rng(noise_seed)
    return rng.standard_normal((n_samples, dim))


def draw_w_samples(phi: DiagGaussian, n_samples: int, noise_seed: int) -> np.ndarray:
    """Reparameterized kernel-parameter samples, (n_samples, dim)."""
    eps = _draw_eps(phi.dim, n_samples, noise_seed)
    return phi.mean + phi.std() * eps


class _InducingBlocks:
    """Kernel blocks at the inducing points for one kernel-parameter sample.

    They depend on the sample and the inducing locations only, so one
    instance serves every set of evaluation times and every q(u) under
    that sample.  Kzz^-1 is solved against the identity on first use.
    The embedding tape of the inducing points feeds the parameter gradient.
    """

    __slots__ = ("params", "tape_z", "d2_zz", "k_zz", "factor", "jitter",
                 "logdet_kzz", "_kzz_inv")

    def __init__(self, state: ClientState, w_row: np.ndarray):
        self.params = KernelParams(w_row, state.spec)
        self.tape_z = dk.embed_with_tape(state.q_u.locations, self.params)
        h_z = self.tape_z.out
        self.d2_zz, self.k_zz = dk.rbf_block(h_z, h_z, self.params)
        self.factor, self.jitter = chol_factor_jittered(
            self.k_zz, f"client {state.id} inducing gram", baseline=True
        )
        self.logdet_kzz = chol_logdet(self.factor)
        self._kzz_inv = None

    @property
    def kzz_inv(self) -> np.ndarray:
        if self._kzz_inv is None:
            self._kzz_inv = solve_with(self.factor, np.eye(self.k_zz.shape[0]))
        return self._kzz_inv


class _SampleCache:
    """Kernel blocks at ``times`` for one kernel-parameter sample.

    ``z`` holds the sample's inducing-point blocks; built here are always
    ``tape_t``, ``d2_tz``, ``k_tz``, ``beta`` (rows Kzz^-1 k_t) and
    ``alpha`` (Kzz^-1 (mu_u - nu)).  Readers form what they need of f's
    moments: :func:`_sample_moments` both, :func:`_sample_grad` the mean.

    Each instance holds several (times x inducing) blocks, so callers pass
    it straight into a function (:func:`_sample_moments`,
    :func:`_natural_terms`, :func:`_sample_grad`) and never bind it in a
    loop: it is freed when that call returns, before the next sample's is
    built, so one sample's blocks are alive at a time.

    Bit-identity contract: reuse is limited to blocks whose floats do not
    depend on which call computes them.  Inducing-point blocks depend on
    the sample alone and may be shared (:func:`client_update` builds them
    once per sweep).  The time-side embedding, cross block, triangular
    solve and GEMMs are computed per call on that call's rows only: BLAS
    can return different last bits for the same row at a different offset
    in its operand, so slicing them out of a larger events+grid build is
    not exact.
    Distances and kernel entries come from :func:`fedcox.kernel.rbf_block`,
    whose distances match the broadcast sum bit for bit.  Training
    amplifies any last-bit change into visibly different parameters, so a
    rewrite here must keep every float identical or be treated as a change
    of results.
    """

    __slots__ = ("z", "tape_t", "d2_tz", "k_tz", "beta", "alpha")

    def __init__(self, state: ClientState, z: _InducingBlocks,
                 times: np.ndarray):
        self.z = z
        self.tape_t = dk.embed_with_tape(times, z.params)
        self.d2_tz, self.k_tz = dk.rbf_block(self.tape_t.out, z.tape_z.out, z.params)
        # One batched triangular solve covers beta and alpha.
        rhs = np.concatenate(
            [self.k_tz.T, (state.q_u.mean - state.nu)[:, None]], axis=1
        )
        solved = solve_with(z.factor, rhs)
        del rhs
        self.beta = solved[:, :-1].T  # rows: Kzz^-1 k_t
        self.alpha = solved[:, -1]


def sample_blocks(state: ClientState | PredictiveState, w) -> list:
    """Inducing-point blocks of each row of ``w``, a packed vector or a
    sample matrix; one list serves every update of a sweep."""
    w = np.atleast_2d(np.asarray(w, dtype=np.float64))
    return [_InducingBlocks(state, row) for row in w]


def _sample_moments(state, c):
    """One sample's first and second moments of f at its cache's times."""
    mean = state.nu + c.k_tz @ c.alpha
    explained = np.sum(c.k_tz * c.beta, axis=1)
    beta_cov = c.beta @ state.q_u.cov
    smoothed = np.sum(beta_cov * c.beta, axis=1)
    var = c.z.params.r - explained + smoothed
    return mean, var + mean**2


def _sample_mean(terms):
    """Average of per-sample terms: summed in sample order from +0.0, then
    divided once.  Not :func:`sum`, which from Python 3.12 compensates the
    round-off of float terms and so moves the bits of a scalar average."""
    return reduce(add, terms, 0.0) / len(terms)


def _mixture_moments(state, blocks, times):
    """First and second moments of f averaged over the samples' blocks."""
    means, seconds = zip(*(
        _sample_moments(state, _SampleCache(state, z, times)) for z in blocks
    ))
    return _sample_mean(means), _sample_mean(seconds)


def posterior_f_moments(state: ClientState | PredictiveState, w, times):
    """Posterior mean and variance of the process at ``times``.

    ``w`` may be a single packed vector or a sample matrix; with several
    samples the returned moments are those of the sample mixture.
    Variances are clamped to at least 1e-12.
    """
    times = np.atleast_1d(np.asarray(times, dtype=np.float64))
    ef, ef2 = _mixture_moments(state, sample_blocks(state, w), times)
    var = ef2 - ef**2
    if np.any(var < -1e-8):
        log.warning("posterior variance fell below -1e-8; clamping")
    return ef, np.maximum(var, 1e-12)


def update_pg(state: ClientState, blocks) -> np.ndarray:
    """Tilt the per-event Polya-Gamma parameters to sqrt(E[f^2]).

    ``blocks`` hold the sweep's kernel samples, from :func:`sample_blocks`.
    """
    if state.events.size:
        _, ef2 = _mixture_moments(state, blocks, state.events)
        state.pg = np.sqrt(np.maximum(ef2, 0.0))
    return state.pg


def update_latent_pp(state: ClientState, blocks) -> np.ndarray:
    """Refresh the thinned-process rate and mark parameter on the grid.

    rate = m * exp(-E[f]/2) / (2 cosh(c/2)) with c = sqrt(E[f^2]); the
    exponent is clamped to +-60 and clamping is recorded in diagnostics.
    ``blocks`` is as in :func:`update_pg`.
    """
    ef, ef2 = _mixture_moments(state, blocks, state.grid.nodes)
    state.latent_c = np.sqrt(np.maximum(ef2, 0.0))
    log_rate = math.log(state.m) - 0.5 * ef - log_2cosh(0.5 * state.latent_c)
    clipped = np.abs(log_rate) > _LOG_RATE_CLAMP
    if np.any(clipped):
        state.diagnostics["log_rate_clamped"] = (
            state.diagnostics.get("log_rate_clamped", 0) + int(clipped.sum())
        )
        log_rate = np.clip(log_rate, -_LOG_RATE_CLAMP, _LOG_RATE_CLAMP)
    state.latent_rate = np.exp(log_rate)
    return state.latent_rate


def _ab_coefficients(state: ClientState, idx, scale):
    """A and B weights, of -E[f^2]/2 and E[f], at :func:`_batch_events`' times.

    Event rows ``idx`` come first, as exact delta sums scaled by ``scale``;
    the grid rows carry the quadrature weights and the sequence count (one
    latent process per training sequence).  Event sums and grid integrals
    never mix.
    """
    lam_w = state.n_seqs * state.grid.weights * state.latent_rate
    a = np.concatenate([
        scale * pg_mean(state.pg)[idx], lam_w * pg_mean(state.latent_c)
    ])
    b = np.concatenate([np.full(idx.size, 0.5 * scale), -0.5 * lam_w])
    return a, b


def update_inducing(state: ClientState, blocks) -> InducingPosterior:
    """Closed-form refresh of the sparse posterior at the inducing points.

    Natural parameters are averaged over the kernel samples: precision
    Kzz^-1 (Int A k k^T) Kzz^-1 + Kzz^-1 and linear term
    Kzz^-1 (Int B~ k + nu 1) with B~ = B - A (nu - k^T Kzz^-1 nu 1).
    ``blocks`` is as in :func:`update_pg`.
    """
    idx, scale, times = _batch_events(state, None)
    a, b = _ab_coefficients(state, idx, scale)
    precisions, linears = zip(*(
        _natural_terms(state, _SampleCache(state, z, times), a, b)
        for z in blocks
    ))
    precision, linear = _sample_mean(precisions), _sample_mean(linears)
    factor, _ = chol_factor_jittered(
        precision, f"client {state.id} inducing precision"
    )
    cov = solve_with(factor, np.eye(linear.size))
    cov = 0.5 * (cov + cov.T)
    state.q_u = InducingPosterior(
        locations=state.q_u.locations, mean=solve_with(factor, linear), cov=cov
    )
    return state.q_u


def _natural_terms(state, c, a, b):
    """One sample's terms of q(u)'s natural parameters at A/B weights a, b."""
    kzz_inv = c.z.kzz_inv
    ones = np.ones(kzz_inv.shape[0])
    offset = state.nu * (1.0 - c.k_tz @ solve_with(c.z.factor, ones))
    b_tilde = b - a * offset
    return (
        c.beta.T @ (a[:, None] * c.beta) + kzz_inv,
        c.beta.T @ b_tilde + state.nu * (kzz_inv @ ones),
    )


def update_scale(state: ClientState) -> float:
    """Fixed-point refresh of the intensity upper bound m.

    Stationary point of the bound in m with the latent rate held fixed:
    (observed events + expected thinned events) per unit of observed time.
    """
    integral = float(state.grid.weights @ state.latent_rate)
    n_total = state.events.size
    state.m = (n_total + state.n_seqs * integral) / (
        state.n_seqs * state.grid.horizon
    )
    if state.m <= 0:
        state.m = 1.0 / state.grid.horizon
    return state.m


def _tilted_terms(m, sign, ef, ef2, c):
    """``log m + sign E[f]/2 - E[omega](E[f^2] - c^2)/2 - log 2cosh(c/2)``.

    ``sign`` is +1 at events and -1 on the thinned-out latent process.
    """
    return (
        math.log(m)
        + sign * 0.5 * ef
        - 0.5 * pg_mean(c) * (ef2 - c * c)
        - log_2cosh(0.5 * c)
    )


def _grid_term(state, ef, ef2):
    """Integrated latent-process terms, counted once per sequence."""
    lam = state.latent_rate
    integrand = np.zeros_like(lam)
    pos = lam > 0.0
    integrand[pos] = lam[pos] * (
        _tilted_terms(state.m, -1.0, ef[pos], ef2[pos], state.latent_c[pos])
        - np.log(lam[pos])
        + 1.0
    )
    return state.n_seqs * (
        float(state.grid.weights @ integrand) - state.m * state.grid.horizon
    )


def _kl_inducing(state, blocks) -> float:
    """KL(q(u) || p(u | w)) averaged over the samples' inducing blocks."""
    m_ind = state.q_u.locations.size
    cov_factor, _ = chol_factor_jittered(
        state.q_u.cov, f"client {state.id} inducing covariance"
    )
    logdet_cov = chol_logdet(cov_factor)
    centered = state.q_u.mean - state.nu
    return _sample_mean([0.5 * (
        z.logdet_kzz
        - logdet_cov
        + float(np.trace(solve_with(z.factor, state.q_u.cov)))
        + float(centered @ solve_with(z.factor, centered))
        - m_ind
    ) for z in blocks])


def _batch_events(state, batch):
    """Event indices, event-term scale and evaluation times of a mini-batch.

    ``batch`` is a nonempty list of training-sequence indices; their event
    terms are scaled by n_seqs / |batch| so the estimator stays unbiased.
    ``None`` means every event at scale 1.  The times are the events, in
    batch order, then the grid nodes, whose rows start at ``idx.size``.
    """
    if batch is None:
        idx, scale = np.arange(state.events.size), 1.0
    else:
        batch = np.asarray(batch, dtype=int)
        if batch.size == 0:
            raise ValueError("batch must be nonempty")
        scale = state.n_seqs / batch.size
        idx = np.concatenate([
            np.arange(s.start, s.stop)
            for s in (state.seq_slices[i] for i in batch)
        ])
    return idx, scale, np.concatenate([state.events[idx], state.grid.nodes])


def elbo(state: ClientState, theta: DiagGaussian, n_w_samples: int,
         noise_seed: int) -> float:
    """Evidence lower bound with the kernel-parameter divergence included.

    Deterministic given ``noise_seed``; the kernel-parameter expectation
    uses ``n_w_samples`` reparameterized draws from the client's phi.
    """
    return -local_objective(state, theta, None, n_w_samples, noise_seed)


def local_objective(state: ClientState, theta: DiagGaussian, batch,
                    n_w_samples: int, noise_seed: int) -> float:
    """Negative sampled bound; the one body of the client's objective.

    Expected augmented log-likelihood minus KL(q(u) || p(u|w)), averaged
    over ``n_w_samples`` draws of w from phi, minus KL(phi || theta).
    ``batch`` selects and rescales the event terms (see
    :func:`_batch_events`); the other terms keep full weight.
    """
    idx, scale, times = _batch_events(state, batch)
    w = draw_w_samples(state.phi, n_w_samples, noise_seed)
    blocks = sample_blocks(state, w)
    ef, ef2 = _mixture_moments(state, blocks, times)
    n_ev = idx.size
    value = scale * float(np.sum(_tilted_terms(
        state.m, 1.0, ef[:n_ev], ef2[:n_ev], state.pg[idx]
    )))
    value += _grid_term(state, ef[n_ev:], ef2[n_ev:])
    value -= _kl_inducing(state, blocks)
    if not np.isfinite(value):
        raise FloatingPointError("augmented bound is not finite")
    return -(value - kl_diag(state.phi, theta))


def local_objective_grad(state: ClientState, theta: DiagGaussian, batch,
                         n_w_samples: int, noise_seed: int):
    """Gradient of :func:`local_objective` w.r.t. (mean, log variance).

    Uses the same reparameterized samples as the objective (common random
    numbers), so it matches finite differences of the sampled objective.
    Returns ``(grad_mean, grad_log_var)``.
    """
    idx, scale, times = _batch_events(state, batch)
    eps = _draw_eps(state.phi.dim, n_w_samples, noise_seed)
    std = state.phi.std()
    w = state.phi.mean + std * eps

    a, b = _ab_coefficients(state, idx, scale)
    # Blocks and cache are temporaries of one call, so one sample's are
    # alive at a time (binding them would hold the previous sample's).
    grads = [
        _sample_grad(
            state, _SampleCache(state, _InducingBlocks(state, row), times), a, b
        )
        for row in w
    ]
    g_mean = _sample_mean(grads)
    g_logv = _sample_mean([g * e for g, e in zip(grads, eps)]) * 0.5 * std
    # Kernel-parameter divergence (always KL for the client-side gradient).
    g_mean = g_mean - (state.phi.mean - theta.mean) / theta.var
    g_logv = g_logv - 0.5 * (state.phi.var / theta.var - 1.0)
    if not (np.all(np.isfinite(g_mean)) and np.all(np.isfinite(g_logv))):
        raise FloatingPointError("objective gradient is not finite")
    return -g_mean, -g_logv


def _sample_grad(state, c, a, b) -> np.ndarray:
    """One sample's gradient of the sampled bound w.r.t. its packed vector.

    ``c`` is the sample's :class:`_SampleCache` at the evaluation times, and
    ``a``/``b`` are the A and B weights there (:func:`_ab_coefficients`),
    the linear coefficients of -E[f^2]/2 and E[f].
    """
    beta = c.beta
    mean = state.nu + c.k_tz @ c.alpha
    gamma = solve_with(c.z.factor, (beta @ state.q_u.cov).T).T
    u_t = b - a * mean
    d_k_tz = u_t[:, None] * c.alpha[None, :] + a[:, None] * (beta - gamma)
    coeff_tt = -0.5 * float(np.sum(a))
    kzz_inv = c.z.kzz_inv
    m_k = (
        -0.5 * (beta.T @ (a[:, None] * beta))
        - 0.5 * kzz_inv
        + 0.5 * kzz_inv @ state.q_u.cov @ kzz_inv
        + 0.5 * np.outer(c.alpha, c.alpha)
    )
    cross = np.outer(c.alpha, beta.T @ u_t)
    m_k -= 0.5 * (cross + cross.T)
    gb = (a[:, None] * gamma).T @ beta
    m_k += 0.5 * (gb + gb.T)
    return dk.accumulate_param_grad(
        m_k, d_k_tz, coeff_tt, c.z.k_zz, c.k_tz, c.z.d2_zz, c.d2_tz,
        c.z.tape_z, c.tape_t, c.z.params, k_zz_jitter=c.z.jitter,
    )


def client_update(state: ClientState, theta: DiagGaussian, epochs: int,
                  batch_size: int, eta: float, seed: int,
                  n_w_samples: int) -> DiagGaussian:
    """Run the local epochs: coordinate sweep, then mini-batch phi steps.

    Each epoch draws one shared set of ``n_w_samples`` kernel samples for
    the sweep and builds their inducing-point blocks once for its three
    updates, then walks shuffled mini-batches of sequences with per-step
    fresh noise of as many samples.
    The phi steps use Adam on (mean, log variance); raw gradients carry
    the event count's scale, which plain constant-step descent cannot
    survive on the log-variance coordinates.  Fully deterministic given
    ``seed``.
    """
    if epochs < 1 or batch_size < 1:
        raise ValueError("epochs and batch_size must be >= 1")
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    dim = state.phi.dim
    adam_m = np.zeros(2 * dim)
    adam_v = np.zeros(2 * dim)
    adam_t = 0
    beta1, beta2, adam_eps = 0.9, 0.999, 1e-8
    for epoch in range(epochs):
        blocks = sample_blocks(state, draw_w_samples(
            state.phi, n_w_samples, derive_seed(seed, epoch, 0)
        ))
        update_pg(state, blocks)
        update_latent_pp(state, blocks)
        update_inducing(state, blocks)
        update_scale(state)
        order = np.random.default_rng(
            derive_seed(seed, epoch, 1)
        ).permutation(state.n_seqs)
        for step, start in enumerate(range(0, state.n_seqs, batch_size)):
            batch = order[start:start + batch_size]
            g_mean, g_logv = local_objective_grad(
                state, theta, batch, n_w_samples,
                derive_seed(seed, epoch, 2, step),
            )
            if eta == 0.0:
                continue
            g = np.concatenate([g_mean, g_logv])
            adam_t += 1
            adam_m = beta1 * adam_m + (1.0 - beta1) * g
            adam_v = beta2 * adam_v + (1.0 - beta2) * g * g
            m_hat = adam_m / (1.0 - beta1**adam_t)
            v_hat = adam_v / (1.0 - beta2**adam_t)
            delta = eta * m_hat / (np.sqrt(v_hat) + adam_eps)
            new_mean = state.phi.mean - delta[:dim]
            new_logv = np.log(state.phi.var) - delta[dim:]
            state.phi = DiagGaussian(new_mean, np.exp(new_logv))
    return state.phi


def _expected_sigmoid(mean, var):
    f = mean[:, None] + np.sqrt(2.0 * var)[:, None] * _GH_NODES[None, :]
    return expit(f) @ _GH_WEIGHTS


def intensity(state: ClientState | PredictiveState, times) -> np.ndarray:
    """Posterior predictive intensity m E[sigmoid(f(t))] at ``times``.

    The kernel parameters are fixed at the variational mean; the
    expectation over f uses 20-node Gauss-Hermite quadrature on the
    Gaussian marginal.
    """
    mean, var = posterior_f_moments(state, state.phi.mean, times)
    return state.m * _expected_sigmoid(mean, var)


def test_loglik(state: ClientState | PredictiveState, test_seqs,
                interval) -> float:
    """Average held-out log-likelihood over sequences on ``interval``.

    Per sequence: sum of log intensity at its events minus the integrated
    intensity over [t_a, t_b] (trapezoid with ``HELDOUT_QUAD_NODES``
    nodes), with the kernel parameters fixed at the variational mean.  One
    intensity call covers the grid and every test event.
    """
    t_a, t_b = float(interval[0]), float(interval[1])
    if not t_a < t_b:
        raise ValueError("interval must satisfy t_a < t_b")
    if not test_seqs:
        raise ValueError("no test sequences supplied")
    for seq in test_seqs:
        if seq.times.size and (
            seq.times[0] < t_a or seq.times[-1] > t_b
        ):
            raise ValueError("test event outside the evaluation interval")
    grid = np.linspace(t_a, t_b, HELDOUT_QUAD_NODES)
    lam = intensity(state, np.concatenate([grid] + [s.times for s in test_seqs]))
    integral = float(np.trapezoid(lam[:HELDOUT_QUAD_NODES], grid))
    log_lam = np.log(np.maximum(lam[HELDOUT_QUAD_NODES:], 1e-300))
    total, start = 0.0, 0
    for seq in test_seqs:
        if seq.times.size:
            total += float(np.sum(log_lam[start:start + seq.times.size]))
            start += seq.times.size
        total -= integral
    return total / len(test_seqs)


def init_client(client_id: int, train_seqs, theta: DiagGaussian,
                spec: EncoderSpec, inducing_locations, grid: QuadratureGrid,
                k_zz: np.ndarray) -> ClientState:
    """Fresh client state: phi broadcast from theta, q(u) at the prior.

    ``k_zz`` is the prior gram at the inducing locations under theta's
    mean; it becomes the q(u) covariance without a copy, so each client
    needs its own.  The initial scale is twice the empirical event rate;
    the latent rate starts at the corresponding zero-function value m/2.
    ValueError names a client without training sequences (no event rate).
    """
    if len(train_seqs) == 0:
        raise ValueError(f"no training sequences for client {client_id}")
    z = np.asarray(inducing_locations, dtype=np.float64)
    n_events = sum(len(s) for s in train_seqs)
    rate = n_events / (len(train_seqs) * grid.horizon)
    m0 = 2.0 * rate if rate > 0 else 1.0 / grid.horizon
    return ClientState(
        id=client_id,
        train_seqs=train_seqs,
        grid=grid,
        spec=spec,
        m=m0,
        nu=0.0,
        phi=DiagGaussian(theta.mean.copy(), theta.var.copy()),
        q_u=InducingPosterior(locations=z, mean=np.zeros(z.size), cov=k_zz),
        pg=np.ones(n_events),
        latent_rate=np.full(grid.size, 0.5 * m0),
        latent_c=np.zeros(grid.size),
    )


def clone_state(state: ClientState) -> ClientState:
    """Deep copy for speculative updates (commit-at-barrier semantics)."""
    return copy.deepcopy(state)
