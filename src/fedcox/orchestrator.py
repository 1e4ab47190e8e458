"""Federated round protocol: broadcast, local updates, aggregate.

The server owns only the global prior over kernel parameters.  Each round
a fixed-size participant set is drawn (frozen for a configurable number
of consecutive rounds to simulate straggling), participants run their
local epochs against the broadcast prior, and the uploaded variational
records are aggregated.  The only payload a client ever uploads is its
kernel-parameter record plus scalar metrics; event data, the intensity
scale, the process mean and the inducing posterior never leave the
client (the payload type has no fields for them).
"""
from __future__ import annotations

import logging
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, fields

import numpy as np

from . import client as cl
from .aggregation import AggregationMethod, aggregate
from .kernel import EncoderSpec, KernelParams, init_kernel_params, kernel_matrix
from .numerics import DiagGaussian, check_setting, trapezoid_grid

__all__ = [
    "FedConfig",
    "ServerState",
    "RoundMetrics",
    "ClientPayload",
    "RoundError",
    "build_clients",
    "sample_participants",
    "heldout_loglik",
    "mean_finite",
    "run_round",
    "run_training",
]

log = logging.getLogger(__name__)

# Stream tags keep the participant-sampling and client-update random
# streams disjoint under one run seed.
_STREAM_PARTICIPANTS = 0x5A17
_STREAM_CLIENT = 0xC11E


class RoundError(RuntimeError):
    """A client failed during a round; the server state was not changed."""


_LOWER_BOUNDS = {
    "n_clients": 1, "participants_per_round": 1, "rounds": 0,
    "local_epochs": 1, "batch_size": 1, "step_size": 0.0,
    "straggle_period": 1, "n_inducing": 1, "quad_nodes": 2,
    "n_w_samples": 1, "hidden_dim": 1, "embed_dim": 1, "n_workers": 1,
    "seed": 0,
}


@dataclass(frozen=True)
class FedConfig:
    """Run-level knobs for the federated protocol and the client models."""

    n_clients: int = 20
    participants_per_round: int = 10
    rounds: int = 100
    local_epochs: int = 5
    batch_size: int = 4
    step_size: float = 1e-3
    straggle_period: int = 1
    aggregation: AggregationMethod = AggregationMethod("kl")
    seed: int = 0
    n_inducing: int = 50
    quad_nodes: int = 200
    n_w_samples: int = 4
    hidden_dim: int = 32
    embed_dim: int = 8
    eval_all: bool = False
    n_workers: int = 1

    def __post_init__(self):
        for f in fields(self):
            # Annotations are strings here (postponed evaluation).
            kind = {"int": int, "float": float, "bool": bool}.get(f.type)
            if kind is not None:
                check_setting(f.name, getattr(self, f.name), kind,
                              _LOWER_BOUNDS.get(f.name))
        if not isinstance(self.aggregation, AggregationMethod):
            raise TypeError(
                f"aggregation must be an AggregationMethod, got {self.aggregation!r}"
            )
        if self.participants_per_round > self.n_clients:
            raise ValueError("participants_per_round must be <= n_clients")


@dataclass
class ServerState:
    theta: DiagGaussian
    round: int = 0


@dataclass(frozen=True)
class ClientPayload:
    """Everything a participant uploads.  Deliberately nothing else."""

    client_id: int
    phi: DiagGaussian
    elbo: float
    test_loglik: float


@dataclass(frozen=True)
class RoundMetrics:
    round: int
    participant_ids: tuple
    mean_test_loglik: float
    per_client_loglik: tuple
    mean_elbo: float
    wall_time_ms: int


def build_clients(config: FedConfig, train_sets, horizon: float,
                  train_window: float | None = None):
    """One client per training set, all sharing inducing grid and encoder.

    ``train_window`` bounds the observed part of the timeline (the
    quadrature grid and the likelihood integral); inducing locations span
    the full horizon so the model extrapolates to evaluation intervals.
    The prior theta has the deterministic kernel init as its mean and
    unit variances.  A client without training sequences has no event
    rate to fit; if there are any, ValueError names each of them.
    """
    if len(train_sets) != config.n_clients:
        raise ValueError(
            f"dataset has {len(train_sets)} clients, config says {config.n_clients}"
        )
    empty = [cid for cid, seqs in enumerate(train_sets) if len(seqs) == 0]
    if empty:
        raise ValueError(
            f"no training sequences for client {', '.join(map(str, empty))}"
        )
    if train_window is None:
        train_window = horizon
    spec = EncoderSpec(config.hidden_dim, config.embed_dim, t_norm=horizon)
    theta = DiagGaussian(init_kernel_params(spec, config.seed),
                         np.ones(spec.n_params))
    inducing = np.linspace(0.0, horizon, config.n_inducing + 2)[1:-1]
    grid = trapezoid_grid(train_window, config.quad_nodes)
    # Every client starts q(u) at the same prior gram; each gets a copy.
    k_zz = kernel_matrix(inducing, inducing, KernelParams(theta.mean, spec))
    clients = [
        cl.init_client(cid, seqs, theta, spec, inducing, grid, k_zz.copy())
        for cid, seqs in enumerate(train_sets)
    ]
    return ServerState(theta=theta), clients


def sample_participants(round_index: int, config: FedConfig) -> tuple:
    """Uniform without-replacement participant set, frozen per straggle window.

    Drawn from a counter-based generator keyed by (seed, round div G), so
    every round inside one straggle window returns the identical set and
    the draw is reproducible across process restarts.
    """
    window = round_index // config.straggle_period
    key = np.random.SeedSequence(
        [config.seed & 0x7FFFFFFFFFFFFFFF, _STREAM_PARTICIPANTS, window]
    )
    rng = np.random.Generator(np.random.Philox(key))
    ids = rng.choice(config.n_clients, size=config.participants_per_round,
                     replace=False)
    return tuple(sorted(int(i) for i in ids))


def heldout_loglik(state, test_seqs, interval) -> float:
    """``state``'s held-out log-likelihood; NaN without test sequences."""
    if not test_seqs:
        return float("nan")
    return cl.test_loglik(state, test_seqs, interval)


def mean_finite(scores) -> float:
    """Mean of the finite ``scores`` in the order given; NaN if none is."""
    finite = [s for s in scores if np.isfinite(s)]
    return float(np.mean(finite)) if finite else float("nan")


def _update_one(state, theta, config, round_index, test_seqs, interval):
    """Run one participant on a copy of its state; return (state, payload)."""
    work = cl.clone_state(state)
    seed = cl.derive_seed(config.seed, _STREAM_CLIENT, state.id, round_index)
    phi = cl.client_update(
        work, theta, config.local_epochs, config.batch_size,
        config.step_size, seed, config.n_w_samples,
    )
    elbo_value = cl.elbo(work, theta, config.n_w_samples,
                         cl.derive_seed(seed, 0xE1B0))
    payload = ClientPayload(
        client_id=state.id,
        phi=DiagGaussian(phi.mean.copy(), phi.var.copy()),
        elbo=elbo_value,
        test_loglik=heldout_loglik(work, test_seqs, interval),
    )
    return work, payload


@contextmanager
def _aborts_round(round_index, what):
    """Turn any failure inside the block into a RoundError naming ``what``."""
    try:
        yield
    except Exception as exc:
        raise RoundError(f"round {round_index} aborted: {what} failed: {exc}") from exc


def run_round(server: ServerState, clients, config: FedConfig,
              test_sets=None, eval_interval=None, scores=None):
    """One communication round; mutates server and participant states.

    Participant updates (on copies), aggregation and ``eval_all`` scoring
    all run before anything is committed, so a failure raises RoundError
    naming the client or the rule, with server, clients and ``scores``
    untouched.

    ``scores`` (optional) maps a client id to the held-out score of that
    client's current state on these test sets and interval.  A score is a
    function of the state alone, so ``eval_all`` reuses it for a
    non-participant; the round's scores are written back at the commit.
    Test sets without an ``eval_interval``, or not one per client, raise
    ValueError before any participant runs.
    """
    if test_sets and eval_interval is None:
        raise ValueError("test_sets need an eval_interval to be scored on")
    if test_sets and len(test_sets) != config.n_clients:
        raise ValueError(
            f"{len(test_sets)} test sets for {config.n_clients} clients"
        )
    participants = sample_participants(server.round, config)
    theta = server.theta
    jobs = {}

    def job(cid):
        test_seqs = test_sets[cid] if test_sets else None
        return _update_one(
            clients[cid], theta, config, server.round, test_seqs, eval_interval
        )

    t0 = time.perf_counter()
    # Results come in participant order, so a failure is reported for the
    # first participant whose result raises; the builtin map (one worker)
    # runs no participant after it.
    pool = ThreadPoolExecutor(config.n_workers) if config.n_workers > 1 else None
    with pool or nullcontext():
        results = (pool.map if pool else map)(job, participants)
        for cid in participants:
            with _aborts_round(server.round, f"client {cid}"):
                jobs[cid] = next(results)

    # Barrier: exactly this round's uploads feed the aggregation.
    payloads = [jobs[cid][1] for cid in participants]
    with _aborts_round(server.round, f"{config.aggregation.kind} aggregation"):
        new_theta = aggregate(config.aggregation, [p.phi for p in payloads])
    elapsed_ms = int(round(1000.0 * (time.perf_counter() - t0)))

    logliks = tuple(p.test_loglik for p in payloads)
    scored = dict(zip(participants, logliks))
    if config.eval_all and test_sets:
        # Full-population evaluation: participants keep their upload's score,
        # non-participants are scored read-only on their unchanged states
        # unless those states have a score already.
        for cid in range(config.n_clients):
            if cid in scored:
                continue
            if scores is not None and cid in scores:
                scored[cid] = scores[cid]
                continue
            with _aborts_round(server.round, f"evaluating client {cid}"):
                scored[cid] = heldout_loglik(clients[cid], test_sets[cid],
                                             eval_interval)
    metrics = RoundMetrics(
        round=server.round,
        participant_ids=participants,
        mean_test_loglik=mean_finite(scored[c] for c in sorted(scored)),
        per_client_loglik=logliks,
        mean_elbo=float(np.mean([p.elbo for p in payloads])),
        wall_time_ms=elapsed_ms,
    )
    for cid in participants:
        clients[cid] = jobs[cid][0]
    if scores is not None:
        scores.update(scored)
    server.theta = new_theta
    server.round += 1
    return server, metrics


def run_training(config: FedConfig, train_sets, horizon: float,
                 test_sets=None, eval_interval=None, on_round=None,
                 train_window: float | None = None):
    """Full federated run: J rounds over freshly initialized clients.

    ``on_round`` (if given) receives each RoundMetrics as it is produced.
    Each client state is scored at most once (see :func:`run_round`).
    Returns (metrics list, server, client states).
    """
    server, clients = build_clients(config, train_sets, horizon, train_window)
    if eval_interval is None:
        eval_interval = (0.0, horizon)
    history, scores = [], {}
    for _ in range(config.rounds):
        server, metrics = run_round(
            server, clients, config, test_sets, eval_interval, scores
        )
        history.append(metrics)
        if on_round is not None:
            on_round(metrics)
        log.info(
            "round %d: mean test loglik %.4f, mean elbo %.4f",
            metrics.round, metrics.mean_test_loglik, metrics.mean_elbo,
        )
    return history, server, clients
