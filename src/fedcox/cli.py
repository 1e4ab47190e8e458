"""Command-line entry point: generate / train / eval / aggregate.

Configuration comes from a YAML file validated against a fixed key set
(unknown keys are rejected before any work starts).  The seed precedence
is: --seed flag, then the FEDPP_SEED environment variable, then the
config file.  Exit codes: 0 success, 1 runtime failure, 2 validation
failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import secrets
import sys
from pathlib import Path

import numpy as np
import yaml

from . import client as cl
from . import dataio
from .aggregation import (
    _MMD_DEFAULTS,
    AGGREGATION_KINDS,
    AggregationMethod,
    aggregate,
)
from .kernel import PACKING_VERSION, EncoderSpec
from .numerics import DiagGaussian, check_setting
from .orchestrator import FedConfig, run_training

__all__ = ["main", "load_config", "read_param_records", "write_param_records"]

log = logging.getLogger(__name__)

METRICS_HEADER = "round,participants,mean_test_loglik,mean_elbo,wall_time_ms"

# Keys that only the CLI reads, and the CLI's smaller run size; every
# other key left out of a config takes FedConfig's default.
_DEFAULT_CONFIG = {
    "seed": 0,
    "clients": 2,
    "participants": 2,
    "rounds": 10,
    "aggregation": "kl",
    "split": "sequence",
    "generate": {
        "m": 50.0,
        "horizon": 1.0,
        "train_seqs": 8,
        "test_seqs": 4,
        "kernels": [[1.5, 10.0], [2.0, 8.0]],
    },
}
_GEN_KEYS = set(_DEFAULT_CONFIG["generate"])
# Config keys named differently from their FedConfig field.
_FED_FIELDS = {"clients": "n_clients", "participants": "participants_per_round"}
# One config key per FedConfig field; the accepted keys add the mmd_*
# knobs of the aggregation rule and the keys that only the CLI reads.
_FED_KEYS = (
    {f.name for f in dataclasses.fields(FedConfig)} - set(_FED_FIELDS.values())
) | set(_FED_FIELDS)
_TOP_KEYS = _FED_KEYS | set(_MMD_DEFAULTS) | {
    "split", "event_types", "types_per_client", "generate",
}
# The config keys that ``train`` flags override, each spelled
# ``--key-with-dashes``, with the flag's argparse options.
_TRAIN_FLAGS = (
    ("seed", {"type": int}),
    ("aggregation", {"choices": AGGREGATION_KINDS}),
    ("rounds", {"type": int}),
    ("clients", {"type": int}),
    ("participants", {"type": int}),
    ("local_epochs", {"type": int}),
    ("straggle_period", {"type": int}),
)


class ConfigError(ValueError):
    """Invalid run configuration (exit code 2)."""


def load_config(path=None, overrides=None) -> dict:
    """Read, validate and default-fill a run configuration."""
    cfg = {k: (dict(v) if isinstance(v, dict) else v)
           for k, v in _DEFAULT_CONFIG.items()}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            loaded = yaml.safe_load(fh) or {}
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a mapping")
        unknown = set(loaded) - _TOP_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        gen = loaded.get("generate", {})
        if gen:
            unknown = set(gen) - _GEN_KEYS
            if unknown:
                raise ConfigError(f"unknown generate keys: {sorted(unknown)}")
            cfg["generate"].update(gen)
        cfg.update({k: v for k, v in loaded.items() if k != "generate"})
    env_seed = os.environ.get("FEDPP_SEED")
    if env_seed is not None:
        try:
            cfg["seed"] = int(env_seed)
        except ValueError:
            raise ConfigError(f"FEDPP_SEED must be an integer, got {env_seed!r}")
    for key, value in (overrides or {}).items():
        if value is not None:
            cfg[key] = value
    try:
        _validate_config(cfg)
    except (TypeError, ValueError) as exc:
        # A wrong type raises TypeError, a value out of range ValueError.
        raise ConfigError(str(exc)) from None
    return cfg


def _validate_config(cfg: dict) -> None:
    if cfg["split"] not in ("sequence", "time"):
        raise ConfigError("split must be 'sequence' or 'time'")
    gen = cfg["generate"]
    check_setting("generate.m", gen["m"], float, low=0, strict=True)
    check_setting("generate.horizon", gen["horizon"], float, low=0, strict=True)
    check_setting("generate.train_seqs", gen["train_seqs"], int, low=1)
    check_setting("generate.test_seqs", gen["test_seqs"], int, low=0)
    kernels = gen["kernels"]
    if not (isinstance(kernels, list) and kernels and all(
        isinstance(pair, list) and len(pair) == 2 for pair in kernels
    )):
        raise ConfigError(
            "generate.kernels must be a nonempty list of [variance, inverse "
            f"length scale] pairs, got {kernels!r}"
        )
    for pair in kernels:
        for x in pair:
            check_setting("generate.kernels entry", x, float, low=0, strict=True)
        dataio._check_resolution(_kernel_spec(pair), gen["horizon"])
    # Keys that the split or the rule in use does not read are checked all
    # the same, so a file that loads under one rule (``--aggregation``)
    # holds no wrong-typed value for another.
    for key in ("event_types", "types_per_client"):
        if cfg["split"] == "time" or key in cfg:
            check_setting(key, cfg.get(key), int, low=1)
    if cfg["split"] == "time" and cfg["types_per_client"] >= cfg["event_types"]:
        raise ConfigError("types_per_client must be < event_types")
    AggregationMethod("mmd", **{k: cfg.get(k) for k in _MMD_DEFAULTS})
    fed_config(cfg)


def _kernel_spec(pair) -> dataio.RbfSpec:
    """The ground-truth kernel of a ``[variance, inverse length scale]`` pair."""
    return dataio.RbfSpec(variance=pair[0], length_scale=1.0 / pair[1])


def fed_config(cfg: dict) -> FedConfig:
    kwargs = {
        _FED_FIELDS.get(key, key): value for key, value in cfg.items()
        if key in _FED_KEYS and key != "aggregation"
    }
    kind = cfg["aggregation"]
    mmd = {k: cfg.get(k) for k in _MMD_DEFAULTS} if kind == "mmd" else {}
    return FedConfig(aggregation=AggregationMethod(kind, **mmd), **kwargs)


# ----------------------------------------------------------------------
# Parameter-record files (the standalone aggregation surface)
# ----------------------------------------------------------------------

def _write_versioned(path, payload: dict, last_key: str, items) -> None:
    """Write ``payload`` as one JSON line headed by ``PACKING_VERSION``.

    The line ends with ``last_key``, whose list is encoded and written one
    element of ``items`` at a time; the bytes are those of ``json.dumps`` on
    the whole object.  The line goes to a temporary file beside ``path``
    that is flushed to disk and only then replaces ``path``, so after a
    failed write, a killed process or a power loss ``path`` holds either
    the earlier file as it was or the whole new one.  A symlinked ``path`` is replaced at its target.  The new file
    takes the default mode for new files, not the old file's, and the
    directory must be writable.
    """
    path = Path(os.path.realpath(path))
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    fh = open(tmp, "x", encoding="utf-8")
    try:
        # json.dumps takes the C encoder; json.dump never does.
        with fh:
            head = json.dumps({"version": PACKING_VERSION, **payload})
            fh.write(f"{head[:-1]}, {json.dumps(last_key)}: [")
            sep = ""
            for item in items:
                fh.write(sep)
                fh.write(json.dumps(item))
                sep = ", "
            fh.write("]}\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read_versioned(path, what: str) -> dict:
    """Read a file written by :func:`_write_versioned`; ``what`` names it."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    version = payload.get("version")
    if version != PACKING_VERSION:
        raise ValueError(
            f"{what} version {version!r} does not match {PACKING_VERSION!r}"
        )
    return payload


def _gaussian_json(g: DiagGaussian) -> dict:
    return {"mean": g.mean.tolist(), "var": g.var.tolist()}


def write_param_records(records, path) -> None:
    if not records:
        raise ValueError("parameter record list holds no records")
    _write_versioned(path, {"dim": records[0].dim}, "records",
                     map(_gaussian_json, records))


def read_param_records(path) -> list:
    payload = _read_versioned(path, "parameter record")
    dim = payload["dim"]
    records = []
    for i, rec in enumerate(payload["records"]):
        g = DiagGaussian(np.asarray(rec["mean"]), np.asarray(rec["var"]))
        if g.dim != dim:
            raise ValueError(f"record {i} has dimension {g.dim}, header says {dim}")
        records.append(g)
    if not records:
        raise ValueError("parameter record file holds no records")
    return records


# ----------------------------------------------------------------------
# Model container
# ----------------------------------------------------------------------

def _client_json(c) -> dict:
    return {
        "id": c.id,
        "m": c.m,
        "nu": c.nu,
        "phi": _gaussian_json(c.phi),
        "inducing": {
            "locations": c.q_u.locations.tolist(),
            "mean": c.q_u.mean.tolist(),
            "cov": c.q_u.cov.tolist(),
        },
    }


def save_model(path, server, clients, cfg, horizon, train_window,
               eval_interval):
    """Write the trained model and the resolved config (``cfg``) of its run.

    Client records are built, encoded and written one at a time, and the
    file is replaced atomically (:func:`_write_versioned`).
    """
    _write_versioned(path, {
        "config": cfg,
        "horizon": horizon,
        "train_window": train_window,
        "eval_interval": list(eval_interval),
        "encoder": dataclasses.asdict(clients[0].spec),
        "theta": _gaussian_json(server.theta),
        "round": server.round,
    }, "clients", map(_client_json, clients))


def load_model(path):
    """The saved run config and each client's predictive state."""
    payload = _read_versioned(path, "model")
    if "config" not in payload:
        raise ValueError(
            f"model file {path} has no 'config' key; retrain to record it"
        )
    spec = EncoderSpec(**payload["encoder"])
    clients = []
    for rec in payload["clients"]:
        check_setting("client id", rec["id"], int, low=0)
        check_setting(f"client {rec['id']} m", rec["m"], float, low=0,
                      strict=True)
        check_setting(f"client {rec['id']} nu", rec["nu"], float)
        clients.append(cl.PredictiveState(
            id=rec["id"], spec=spec, m=rec["m"], nu=rec["nu"],
            phi=DiagGaussian(**rec["phi"]),
            q_u=cl.InducingPosterior(**rec["inducing"]),
        ))
    return payload["config"], clients


# ----------------------------------------------------------------------
# Data directory layout produced by `generate` / consumed by `train`
# ----------------------------------------------------------------------

def _write_intensity_csv(path, grid, lam):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,lambda\n")
        for t, y in zip(grid, lam):
            fh.write(f"{t!r},{y!r}\n")


def cmd_generate(args) -> int:
    cfg = load_config(args.config, {"seed": args.seed})
    gen = cfg["generate"]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    kernels = gen["kernels"]
    n_clients = cfg["clients"]
    meta_clients = []
    for cid in range(n_clients):
        variance, inv_length = pair = kernels[cid % len(kernels)]
        # Pairs are read as [variance, inverse length scale]; this
        # interpretation is recorded in the metadata for auditability.
        seqs, (grid, lam) = dataio.simulate_client(
            gen["m"], _kernel_spec(pair), gen["horizon"],
            gen["train_seqs"] + gen["test_seqs"],
            cl.derive_seed(cfg["seed"], 0xDA7A, cid),
        )
        train = seqs[: gen["train_seqs"]]
        test = seqs[gen["train_seqs"]:]
        dataio.save_jsonl(train, out / f"client_{cid:02d}.train.jsonl")
        dataio.save_jsonl(test, out / f"client_{cid:02d}.test.jsonl")
        _write_intensity_csv(out / f"client_{cid:02d}.intensity.csv", grid, lam)
        meta_clients.append(
            {
                "id": cid,
                "kernel_pair": [variance, inv_length],
                "interpretation": "pair read as [variance, inverse length scale]",
                "variance": variance,
                "length_scale": 1.0 / inv_length,
                "train_events": int(sum(len(s) for s in train)),
                "test_events": int(sum(len(s) for s in test)),
            }
        )
        print(
            f"client {cid}: {sum(len(s) for s in train)} train / "
            f"{sum(len(s) for s in test)} test events"
        )
    meta = {
        "m": gen["m"],
        "horizon": gen["horizon"],
        "seed": cfg["seed"],
        "train_seqs": gen["train_seqs"],
        "test_seqs": gen["test_seqs"],
        "clients": meta_clients,
    }
    with open(out / "metadata.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")
    return 0


def _load_dataset(data, cfg):
    """Client train and test sets, horizon, training window, eval interval.

    With ``split: sequence``, ``data`` is a directory written by
    ``generate``.  With ``split: time`` it is one marked JSONL file, split
    by timestamp and partitioned across clients by event type.
    """
    n_clients = cfg["clients"]
    if cfg["split"] == "sequence":
        data_dir = Path(data)
        with open(data_dir / "metadata.json", "r", encoding="utf-8") as fh:
            horizon = json.load(fh)["horizon"]
        check_setting("metadata.json horizon", horizon, float, low=0,
                      strict=True)
        horizon = float(horizon)

        def load(path):
            seqs = dataio.load_jsonl(path)
            if any(seq.horizon > horizon for seq in seqs):
                raise ValueError(
                    f"{path} holds a sequence beyond the metadata.json "
                    f"horizon {horizon!r}"
                )
            return seqs

        train_sets, test_sets = [], []
        for cid in range(n_clients):
            train_sets.append(load(data_dir / f"client_{cid:02d}.train.jsonl"))
            test_path = data_dir / f"client_{cid:02d}.test.jsonl"
            test_sets.append(load(test_path) if test_path.exists() else [])
        return train_sets, test_sets, horizon, horizon, (0.0, horizon)
    plan = dataio.partition_heterogeneous(
        dataio.load_jsonl(data), cfg["event_types"], cfg["types_per_client"],
        n_clients, cfg["seed"],
    )
    horizon = dataio.NORMALIZED_HORIZON
    lo, hi = dataio.SPLIT_BOUNDARIES
    return ([plan.train[c] for c in range(n_clients)],
            [plan.test[c] for c in range(n_clients)], horizon, lo, (hi, horizon))


def cmd_train(args) -> int:
    overrides = {key: getattr(args, key) for key, _ in _TRAIN_FLAGS}
    cfg = load_config(args.config, overrides)
    config = fed_config(cfg)
    train_sets, test_sets, horizon, window, interval = _load_dataset(
        args.data, cfg
    )
    metrics_path = Path(args.metrics)
    metrics_path.parent.mkdir(parents=True, exist_ok=True)
    with open(metrics_path, "w", encoding="utf-8") as fh:
        fh.write(METRICS_HEADER + "\n")

        def emit(metrics):
            ids = ";".join(str(i) for i in metrics.participant_ids)
            # wall time is written as 0 so reruns are byte-identical; real
            # timings are available on the in-memory metrics objects.
            fh.write(
                f"{metrics.round},{ids},{metrics.mean_test_loglik!r},"
                f"{metrics.mean_elbo!r},0\n"
            )
            fh.flush()

        history, server, clients = run_training(
            config, train_sets, horizon, test_sets,
            eval_interval=interval, on_round=emit,
            train_window=window,
        )
    if args.model:
        save_model(args.model, server, clients, cfg, horizon, window, interval)
    print(f"completed {len(history)} rounds; metrics in {metrics_path}")
    return 0


def _by_client_id(states, n_clients):
    """``states`` in client-id order; the ids must be exactly 0..n-1."""
    ids = [state.id for state in states]
    if sorted(ids) != list(range(n_clients)):
        expected = set(range(n_clients))
        raise ValueError(
            f"model client ids {ids} are not the data's clients "
            f"0..{n_clients - 1}: missing {sorted(expected - set(ids))}, "
            f"extra {sorted(set(ids) - expected)}"
        )
    return sorted(states, key=lambda state: state.id)


def cmd_eval(args) -> int:
    cfg, states = load_model(args.model)
    _, test_sets, _, _, interval = _load_dataset(args.data, cfg)
    states = _by_client_id(states, len(test_sets))
    values = []
    for state, test_seqs in zip(states, test_sets):
        if not test_seqs:
            values.append(float("nan"))
            continue
        value = cl.test_loglik(state, test_seqs, interval)
        values.append(value)
        print(f"client {state.id}: test loglik {value!r}")
    finite = [v for v in values if np.isfinite(v)]
    mean = float(np.mean(finite)) if finite else float("nan")
    print(f"mean test loglik {mean!r}")
    return 0


def cmd_aggregate(args) -> int:
    kwargs = {"mmd_delta": args.mmd_delta} if args.method == "mmd" else {}
    try:
        method = AggregationMethod(args.method, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    records = read_param_records(args.input)
    result = aggregate(method, records)
    write_param_records([result], args.out)
    print(f"aggregated {len(records)} records with {args.method}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedcox",
        description="Federated sigmoidal Cox process training simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write synthetic client data")
    p_gen.add_argument("--config", type=str, default=None)
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--out", type=str, required=True)
    p_gen.set_defaults(func=cmd_generate)

    p_train = sub.add_parser("train", help="run federated training")
    p_train.add_argument("--config", type=str, default=None)
    p_train.add_argument("--data", type=str, required=True)
    p_train.add_argument("--metrics", type=str, required=True)
    p_train.add_argument("--model", type=str, default=None)
    for key, options in _TRAIN_FLAGS:
        p_train.add_argument("--" + key.replace("_", "-"), dest=key,
                             default=None, **options)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a saved model")
    p_eval.add_argument("--model", type=str, required=True)
    p_eval.add_argument("--data", type=str, required=True)
    p_eval.set_defaults(func=cmd_eval)

    p_agg = sub.add_parser("aggregate", help="aggregate a parameter-record file")
    p_agg.add_argument("--method", choices=AGGREGATION_KINDS, required=True)
    p_agg.add_argument("--in", dest="input", type=str, required=True)
    p_agg.add_argument("--out", type=str, required=True)
    p_agg.add_argument("--mmd-delta", dest="mmd_delta", type=float, default=None)
    p_agg.set_defaults(func=cmd_aggregate)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        log.exception("command failed")
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
