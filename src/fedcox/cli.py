"""Command-line entry point: generate / train / eval / aggregate.

Configuration comes from a YAML file validated against a fixed key set
(unknown keys are rejected before any work starts).  The seed precedence
is: --seed flag, then the FEDPP_SEED environment variable, then the
config file.  Exit codes: 0 success; 2 an invalid config (file, flags,
FEDPP_SEED, ``aggregate --mmd-delta``), a usage error, or a missing file
or one of the wrong kind (a file for a directory or the reverse);
1 a malformed data, model or record file, a horizon or client-count
mismatch, or a failed round.  Only a failed round or an unexpected error
logs a traceback.

Under ``split: sequence`` a data directory holds, for every client, a
``client_XX.train.jsonl`` and a ``client_XX.test.jsonl`` file, and its
horizon is read from its sequences.  ``generate`` also writes
``metadata.json``, a record for the reader that no command reads.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import secrets
import sys
from contextlib import contextmanager
from pathlib import Path

import yaml

from . import client as cl
from . import dataio
from .aggregation import AGGREGATION_KINDS, AggregationMethod, aggregate
from .kernel import PACKING_VERSION, EncoderSpec
from .numerics import DiagGaussian, check_setting
from .orchestrator import (
    FedConfig,
    heldout_loglik,
    inducing_locations,
    mean_finite,
    run_training,
)

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
# The MMD knobs of the aggregation rule, each a config key of its own.
_MMD_KEYS = tuple(f.name for f in dataclasses.fields(AggregationMethod)
                  if f.name != "kind")
_TOP_KEYS = _FED_KEYS | set(_MMD_KEYS) | {
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
            try:
                loaded = yaml.safe_load(fh) or {}
            # A ValueError is text that is not UTF-8, or a value such as the
            # date 2020-13-45 that YAML parses but cannot build.
            except (yaml.YAMLError, ValueError) as exc:
                problem = " ".join(str(exc).split())
                raise ConfigError(
                    f"config file {path} is not valid YAML: {problem}"
                ) from None
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a mapping")
        _check_keys(loaded)
        cfg["generate"].update(loaded.get("generate") or {})
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


def _check_keys(cfg: dict) -> None:
    """Reject keys outside the accepted set, at the top and in ``generate``."""
    unknown = set(cfg) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    # A null section is an empty one.
    gen = {} if cfg.get("generate") is None else cfg["generate"]
    if not isinstance(gen, dict):
        raise ConfigError(f"generate must be a mapping, got {gen!r}")
    unknown = set(gen) - _GEN_KEYS
    if unknown:
        raise ConfigError(f"unknown generate keys: {sorted(unknown)}")


def _check_saved_config(cfg) -> FedConfig:
    """Check a resolved config read back from a file, as :func:`load_config`
    checks its result; every default key must be present.  Returns its
    :class:`FedConfig`."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"config must be a mapping, got {cfg!r}")
    _check_keys(cfg)
    missing = [k for k in _DEFAULT_CONFIG if k not in cfg]
    missing += [f"generate.{k}" for k in _DEFAULT_CONFIG["generate"]
                if k not in (cfg.get("generate") or {})]
    if missing:
        raise ConfigError(f"missing config keys: {missing}")
    return _validate_config(cfg)


def _validate_config(cfg: dict) -> FedConfig:
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
        dataio.check_resolution(_kernel_spec(pair), gen["horizon"])
    # Keys that the split in use does not read are checked all the same,
    # as :func:`_aggregation_method` checks the MMD knobs under every rule.
    for key in ("event_types", "types_per_client"):
        if cfg["split"] == "time" or key in cfg:
            check_setting(key, cfg.get(key), int, low=1)
    if cfg["split"] == "time" and cfg["types_per_client"] >= cfg["event_types"]:
        raise ConfigError("types_per_client must be < event_types")
    return fed_config(cfg)


def _kernel_spec(pair) -> dataio.RbfSpec:
    """The ground-truth kernel of a ``[variance, inverse length scale]`` pair."""
    return dataio.RbfSpec(variance=pair[0], length_scale=1.0 / pair[1])


def fed_config(cfg: dict) -> FedConfig:
    kwargs = {
        _FED_FIELDS.get(key, key): value for key, value in cfg.items()
        if key in _FED_KEYS and key != "aggregation"
    }
    return FedConfig(aggregation=_aggregation_method(cfg["aggregation"], cfg),
                     **kwargs)


def _aggregation_method(kind, settings) -> AggregationMethod:
    """The rule ``kind``.  The MMD knobs in ``settings`` (absent or None:
    the default) are checked under every kind, so settings that work under
    one rule hold no wrong value for another."""
    mmd = AggregationMethod("mmd", **{k: settings.get(k) for k in _MMD_KEYS})
    return mmd if kind == "mmd" else AggregationMethod(kind)


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
    the earlier file as it was or the whole new one.  A symlinked ``path``
    is replaced at its target, and an ``OSError`` names ``path``.  The
    new file takes the default mode for new files, not the old file's, and
    the directory must be writable.
    """
    path = Path(os.path.realpath(path))
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    try:
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
    except OSError as exc:  # name the target, not the temporary file
        raise OSError(exc.errno, exc.strerror, str(path)) from None


def _read_versioned(path, src: str, keys) -> list:
    """The values of ``keys`` in a file written by :func:`_write_versioned`.

    ``src`` names the file in errors.  The file must hold one JSON object
    with, beside the packing version, exactly ``keys`` (:func:`_fields`).
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"{src} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"{src} does not hold a JSON object")
    version = payload.get("version")
    if version != PACKING_VERSION:
        raise ValueError(
            f"{src} version {version!r} does not match {PACKING_VERSION!r}"
        )
    return _fields(payload, ("version", *keys), src, "")[1:]


def _fields(node, keys, src: str, where: str) -> list:
    """The values of ``keys`` in ``node``, a JSON object of exactly those keys.

    ``where`` is the key path of ``node`` in the file ``src`` names ("" at
    the top).  A node that is not an object, a missing key or an unknown
    key is a ValueError naming the file and the key path.
    """
    if not isinstance(node, dict):
        raise ValueError(f"{src} {where} is not a JSON object")
    prefix = f"{where}." if where else ""
    missing = [prefix + key for key in keys if key not in node]
    if missing:
        raise ValueError(f"{src} has no {missing[0]!r} key")
    unknown = [prefix + key for key in sorted(set(node) - set(keys))]
    if unknown:
        raise ValueError(f"{src} has unknown keys {unknown}")
    return [node[key] for key in keys]


def _elements(node, src: str, where: str) -> list:
    """``(key path, element)`` for each element of the JSON array ``node``."""
    if not isinstance(node, list):
        raise ValueError(f"{src} {where} is not a JSON array")
    return [(f"{where}[{i}]", item) for i, item in enumerate(node)]


@contextmanager
def _naming(src: str, where: str):
    """Turn a TypeError, ValueError or OverflowError into a ValueError
    naming the file and the key path of the value being read."""
    try:
        yield
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{src} {where}: {exc}") from None


def _gaussian_json(g: DiagGaussian) -> dict:
    return {"mean": g.mean.tolist(), "var": g.var.tolist()}


def _read_gaussian(node, src: str, where: str, dim: int,
                   of: str) -> DiagGaussian:
    """The record that :func:`_gaussian_json` wrote at ``where``, which must
    have dimension ``dim``; ``of`` names what sets it."""
    mean, var = _fields(node, ("mean", "var"), src, where)
    with _naming(src, where):
        g = DiagGaussian(mean, var)
    if g.dim != dim:
        raise ValueError(
            f"{src} {where} has dimension {g.dim}, not the {dim} of {of}"
        )
    return g


def write_param_records(records, path) -> None:
    """Write ``records``, which must share one dimension, to ``path``."""
    if not records:
        raise ValueError("parameter record list holds no records")
    dim = records[0].dim
    for i, rec in enumerate(records):
        if rec.dim != dim:
            raise ValueError(
                f"record {i} has dimension {rec.dim}, record 0 has {dim}"
            )
    _write_versioned(path, {"dim": dim}, "records",
                     map(_gaussian_json, records))


def read_param_records(path) -> list:
    """The records that :func:`write_param_records` wrote to ``path``."""
    src = f"parameter record file {path}"
    dim, items = _read_versioned(path, src, ("dim", "records"))
    with _naming(src, "dim"):
        check_setting("dim", dim, int, low=1)
    records = [_read_gaussian(item, src, where, dim, "the header")
               for where, item in _elements(items, src, "records")]
    if not records:
        raise ValueError(f"{src} holds no records")
    return records


# ----------------------------------------------------------------------
# Model container
# ----------------------------------------------------------------------

def _client_json(c) -> dict:
    return {
        "m": c.m,
        "nu": c.nu,
        "phi": _gaussian_json(c.phi),
        "inducing": {"mean": c.q_u.mean.tolist(), "cov": c.q_u.cov.tolist()},
    }


def _read_client(cid, node, spec, locations, src: str,
                 where: str) -> cl.PredictiveState:
    """Client ``cid``, which :func:`_client_json` wrote at ``where``; its
    inducing posterior sits at ``locations``."""
    m, nu, phi, inducing = _fields(node, ("m", "nu", "phi", "inducing"),
                                   src, where)
    mean, cov = _fields(inducing, ("mean", "cov"), src, f"{where}.inducing")
    phi = _read_gaussian(phi, src, f"{where}.phi", spec.n_params,
                         "the encoder")
    with _naming(src, where):
        check_setting(f"client {cid} m", m, float, low=0, strict=True)
        check_setting(f"client {cid} nu", nu, float)
        q_u = cl.InducingPosterior(locations, mean, cov)
        return cl.PredictiveState(id=cid, spec=spec, m=m, nu=nu, phi=phi,
                                  q_u=q_u)


# The keys of a model file, after the packing version, in writing order.
# The encoder, training window, evaluation interval, round count, client
# ids and inducing grid follow from the config and the horizon, and are
# not stored.
_MODEL_KEYS = ("config", "horizon", "theta", "clients")


def save_model(path, theta, clients, cfg, horizon):
    """Write the server's ``theta``, the trained ``clients`` in id order
    and the resolved config (``cfg``) of their run.

    Client records are built, encoded and written one at a time, and the
    file is replaced atomically (:func:`_write_versioned`).
    """
    _write_versioned(path, {
        "config": cfg,
        "horizon": horizon,
        "theta": _gaussian_json(theta),
    }, "clients", map(_client_json, clients))


def load_model(path):
    """The saved run config, each client's predictive state and the horizon.

    The file must hold what :func:`save_model` writes and nothing else; a
    missing, unknown or malformed value is a ValueError naming the file
    and the key path.  The config is checked by :func:`load_config`'s
    rules, without ``FEDPP_SEED``, and the file must hold one client
    record per client it sets.  The encoder and the inducing grid are the
    run's, built from the config and the horizon as
    :func:`~fedcox.orchestrator.build_clients` builds them; ``theta`` and
    each client's ``phi`` hold one entry per encoder parameter, and a
    client's id is its position in the file.
    """
    src = f"model file {path}"
    cfg, horizon, theta, clients = _read_versioned(path, src, _MODEL_KEYS)
    # Not a ConfigError: a bad model file exits 1, not 2.
    with _naming(src, "config"):
        config = _check_saved_config(cfg)
    with _naming(src, "horizon"):
        check_setting("horizon", horizon, float, low=0, strict=True)
    horizon = float(horizon)
    spec = EncoderSpec(config.hidden_dim, config.embed_dim, horizon)
    _read_gaussian(theta, src, "theta", spec.n_params, "the encoder")
    locations = inducing_locations(config, horizon)
    states = [_read_client(cid, node, spec, locations, src, where)
              for cid, (where, node)
              in enumerate(_elements(clients, src, "clients"))]
    if len(states) != config.n_clients:
        raise ValueError(
            f"{src} holds {len(states)} clients, but its config sets "
            f"{config.n_clients}"
        )
    return cfg, states, horizon


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


def _load_dataset(data, cfg, horizon=None):
    """Client train and test sets, horizon, training window, eval interval.

    With ``split: sequence``, ``data`` is a directory written by
    ``generate`` that holds ``client_XX.train.jsonl`` and
    ``client_XX.test.jsonl`` for every client.  Every sequence must have
    one horizon: ``horizon`` if given (a model's; the training files are
    then not read, and the train sets are None), else the first training
    sequence's.  With ``split: time`` it is one marked JSONL file, split
    by timestamp and partitioned across clients by event type, whose
    horizon is the normalized one.
    """
    n_clients = cfg["clients"]
    if cfg["split"] == "sequence":
        # Every sequence is observed on [0, horizon]: the client's
        # likelihood integral and the held-out score both span it.
        sets, of = {"train": None}, "the model"
        for kind in ("train", "test") if horizon is None else ("test",):
            sets[kind] = []
            for cid in range(n_clients):
                path = Path(data) / f"client_{cid:02d}.{kind}.jsonl"
                sets[kind].append(dataio.load_jsonl(path))
                for seq in sets[kind][-1]:
                    if horizon is None:
                        horizon = seq.horizon
                        of = f"the first sequence of {path}"
                    elif seq.horizon != horizon:
                        raise ValueError(
                            f"{path} holds a sequence of horizon "
                            f"{seq.horizon!r}, not the horizon {horizon!r} "
                            f"of {of}"
                        )
        return sets["train"], sets["test"], horizon, horizon, (0.0, horizon)
    if horizon not in (None, dataio.NORMALIZED_HORIZON):
        raise ValueError(
            f"split: time normalizes {data} to horizon "
            f"{dataio.NORMALIZED_HORIZON!r}, not the horizon {horizon!r} of "
            "the model"
        )
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
    if args.model and Path(args.model).is_dir():
        raise IsADirectoryError(f"--model {args.model} is a directory")
    metrics_path = Path(args.metrics)
    metrics_path.parent.mkdir(parents=True, exist_ok=True)
    if args.model:
        Path(args.model).parent.mkdir(parents=True, exist_ok=True)
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
        save_model(args.model, server.theta, clients, cfg, horizon)
    print(f"completed {len(history)} rounds; metrics in {metrics_path}")
    return 0


def cmd_eval(args) -> int:
    cfg, states, horizon = load_model(args.model)
    # The saved split and the model's horizon fix the interval.
    _, test_sets, _, _, interval = _load_dataset(args.data, cfg, horizon)
    values = []
    for state, test_seqs in zip(states, test_sets):
        values.append(heldout_loglik(state, test_seqs, interval))
        if test_seqs:
            print(f"client {state.id}: test loglik {values[-1]!r}")
    print(f"mean test loglik {mean_finite(values)!r}")
    return 0


def cmd_aggregate(args) -> int:
    try:
        method = _aggregation_method(args.method, {"mmd_delta": args.mmd_delta})
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
    except (ConfigError, FileNotFoundError, FileExistsError,
            IsADirectoryError, NotADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # malformed input; the message names it
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # failed round or unexpected error
        log.exception("command failed")
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
