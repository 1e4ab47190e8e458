"""The benchmark's three workloads.

Each workload turns a case number into inputs and returns the program
call that the benchmark times: data generation or ingestion, client set-up
and every training round.  Program entry points are looked up on their
modules at call time, so wrappers installed by :mod:`tracing` see them.

``recovery`` and ``federated`` follow the training configs of acceptance
criteria 8 and 9 through the public API; ``crossdevice`` drives
``fedcox train`` in-process on a marked JSONL written by the benchmark.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Kernel pairs [variance, inverse length scale] of acceptance criterion 8.
RECOVERY_PAIRS = ((1.5, 10.0), (2.0, 8.0))
# Intensity bound of the trial draw in calibrated_scale.
TRIAL_M = 50.0


def calibrated_scale(truth, n_seqs: int, seed: int, per_seq: float):
    """Intensity bound giving about ``per_seq`` events per sequence.

    A round's cost grows with the event count, which with a fixed bound
    varies several-fold between latent-function draws.  Rescaling a trial
    draw's bound fixes the expected count, so a workload's size is set by
    ``per_seq`` alone; the seed still picks the latent function.
    """
    from fedcox import dataio

    seqs, _ = dataio.simulate_client(TRIAL_M, truth, 1.0, n_seqs, seed=seed)
    return TRIAL_M * per_seq * n_seqs / max(sum(len(s) for s in seqs), 1)


@dataclass(frozen=True)
class Recovery:
    """One client whose local update is the whole round (criterion 8)."""

    rounds: int = 10
    per_seq: float = 17.5
    train_seqs: int = 8
    test_seqs: int = 4
    local_epochs: int = 5
    batch_size: int = 4
    n_w_samples: int = 4
    n_inducing: int = 50
    quad_nodes: int = 150
    hidden_dim: int = 32
    embed_dim: int = 8

    name = "recovery"

    def prepare(self, case: int, workdir: Path):
        from fedcox import dataio, orchestrator
        from fedcox.aggregation import AggregationMethod

        variance, inv_length = RECOVERY_PAIRS[case % 2]
        truth = dataio.RbfSpec(variance=variance, length_scale=1.0 / inv_length)
        config = orchestrator.FedConfig(
            n_clients=1, participants_per_round=1, rounds=self.rounds,
            local_epochs=self.local_epochs, batch_size=self.batch_size,
            step_size=0.02, aggregation=AggregationMethod("kl"), seed=case,
            n_inducing=self.n_inducing, quad_nodes=self.quad_nodes,
            n_w_samples=self.n_w_samples, hidden_dim=self.hidden_dim,
            embed_dim=self.embed_dim,
        )

        n_seqs = self.train_seqs + self.test_seqs
        m = calibrated_scale(truth, n_seqs, case, self.per_seq)

        def call():
            seqs, _ = dataio.simulate_client(m, truth, 1.0, n_seqs, seed=case)
            orchestrator.run_training(
                config, [seqs[:self.train_seqs]], 1.0,
                [seqs[self.train_seqs:]], eval_interval=(0.0, 1.0),
            )

        return call


@dataclass(frozen=True)
class Federated:
    """Four clients, all participating behind one barrier (criterion 9)."""

    rounds: int = 5
    per_seq: float = 17.5
    n_clients: int = 4
    train_seqs: int = 6
    test_seqs: int = 3
    local_epochs: int = 5
    batch_size: int = 3
    n_w_samples: int = 2
    n_inducing: int = 50
    quad_nodes: int = 150
    hidden_dim: int = 32
    embed_dim: int = 8

    name = "federated"

    def prepare(self, case: int, workdir: Path):
        from fedcox import dataio, orchestrator
        from fedcox.aggregation import AggregationMethod

        truth = dataio.RbfSpec(variance=1.5, length_scale=0.1)
        config = orchestrator.FedConfig(
            n_clients=self.n_clients, participants_per_round=self.n_clients,
            rounds=self.rounds, local_epochs=self.local_epochs,
            batch_size=self.batch_size, step_size=0.02,
            aggregation=AggregationMethod("kl"), seed=case,
            n_inducing=self.n_inducing, quad_nodes=self.quad_nodes,
            n_w_samples=self.n_w_samples, hidden_dim=self.hidden_dim,
            embed_dim=self.embed_dim,
        )
        n_seqs = self.train_seqs + self.test_seqs
        scales = [
            calibrated_scale(truth, n_seqs, case * 1000 + c, self.per_seq)
            for c in range(self.n_clients)
        ]

        def call():
            train_sets, test_sets = [], []
            for c, m in enumerate(scales):
                seqs, _ = dataio.simulate_client(
                    m, truth, 1.0, n_seqs, seed=case * 1000 + c
                )
                train_sets.append(seqs[:self.train_seqs])
                test_sets.append(seqs[self.train_seqs:])
            orchestrator.run_training(
                config, train_sets, 1.0, test_sets, eval_interval=(0.0, 1.0)
            )

        return call


@dataclass(frozen=True)
class CrossDevice:
    """Many light clients; MMD aggregation and held-out evaluation dominate."""

    rounds: int = 10
    n_seqs: int = 160
    event_types: int = 6
    events_per_type: float = 6.0
    clients: int = 16
    participants: int = 8
    types_per_client: int = 2
    n_inducing: int = 20
    quad_nodes: int = 60
    hidden_dim: int = 32
    embed_dim: int = 8
    mmd_steps: int = 500

    name = "crossdevice"

    def write_jsonl(self, case: int, path: Path) -> None:
        """Marked sequences with a smooth rate per event type.

        Each sequence has its own horizon (normalized away by the split);
        type ``k`` has rate proportional to ``1 + 0.8 sin(2 pi (k/K + x))``
        on the unit timeline ``x``, drawn by thinning.
        """
        rng = np.random.default_rng(np.random.SeedSequence([case, 0xC205]))
        with open(path, "w", encoding="utf-8") as fh:
            for _ in range(self.n_seqs):
                horizon = float(rng.uniform(20.0, 60.0))
                times, marks = [], []
                for k in range(self.event_types):
                    n_cand = rng.poisson(1.8 * self.events_per_type)
                    x = rng.uniform(0.0, 1.0, n_cand)
                    rate = 1.0 + 0.8 * np.sin(2.0 * np.pi * (k / self.event_types + x))
                    keep = x[rng.uniform(0.0, 1.8, n_cand) < rate]
                    times.append(keep * horizon)
                    marks.append(np.full(keep.size, k))
                t = np.concatenate(times)
                order = np.argsort(t, kind="stable")
                record = {
                    "times": t[order].tolist(),
                    "horizon": horizon,
                    "marks": np.concatenate(marks)[order].tolist(),
                }
                fh.write(json.dumps(record) + "\n")

    def prepare(self, case: int, workdir: Path):
        from fedcox import cli

        data = workdir / "events.jsonl"
        self.write_jsonl(case, data)
        config = {
            "seed": case, "clients": self.clients,
            "participants": self.participants, "rounds": self.rounds,
            "local_epochs": 1, "batch_size": 4, "step_size": 0.02,
            "aggregation": "mmd", "mmd_steps": self.mmd_steps,
            "n_inducing": self.n_inducing,
            "quad_nodes": self.quad_nodes, "n_w_samples": 1,
            "hidden_dim": self.hidden_dim, "embed_dim": self.embed_dim,
            "eval_all": True, "split": "time",
            "event_types": self.event_types,
            "types_per_client": self.types_per_client,
        }
        config_path = workdir / "config.yaml"
        # JSON is a subset of YAML, so the config loader reads this file.
        config_path.write_text(json.dumps(config) + "\n", encoding="utf-8")
        argv = [
            "train", "--config", str(config_path), "--data", str(data),
            "--metrics", str(workdir / "metrics.csv"),
            "--model", str(workdir / "model.json"),
        ]

        def call():
            code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"fedcox train exited with code {code}")

        return call


WORKLOADS = {w.name: w for w in (Recovery, Federated, CrossDevice)}
