"""End-to-end command-line tests: generate, train, eval, aggregate."""
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import yaml

from fedcox import cli, dataio, orchestrator
from fedcox.aggregation import AggregationMethod
from fedcox.cli import (
    fed_config,
    load_config,
    main,
    read_param_records,
    write_param_records,
)
from fedcox.numerics import DiagGaussian
from fedcox.orchestrator import FedConfig

SMALL_CONFIG = {
    "seed": 5,
    "clients": 2,
    "participants": 2,
    "rounds": 2,
    "local_epochs": 1,
    "batch_size": 2,
    "step_size": 0.01,
    "n_inducing": 4,
    "quad_nodes": 9,
    "n_w_samples": 2,
    "hidden_dim": 2,
    "embed_dim": 2,
    "generate": {"m": 20.0, "horizon": 1.0, "train_seqs": 2, "test_seqs": 1},
}


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(SMALL_CONFIG))
    return str(path)


@pytest.fixture()
def data_dir(tmp_path, config_path):
    out = tmp_path / "data"
    assert main(["generate", "--config", config_path, "--out", str(out)]) == 0
    return str(out)


@pytest.fixture()
def sequence_layout(config_path, data_dir):
    return config_path, data_dir


@pytest.fixture()
def time_layout(tmp_path):
    """Config and data of a ``split: time`` run.

    One marked JSONL file; timelines get normalized to [0, 100], split at
    60/80 and partitioned by event type across clients.
    """
    rng = np.random.default_rng(0)
    records = []
    for _ in range(6):
        n = int(rng.integers(20, 40))
        times = np.sort(rng.uniform(0, 50, n))
        marks = rng.integers(0, 4, n)
        records.append(json.dumps({
            "times": times.tolist(), "marks": marks.tolist(),
            "horizon": 50.0,
        }))
    data = tmp_path / "events.jsonl"
    data.write_text("\n".join(records) + "\n")
    cfg = dict(SMALL_CONFIG)
    cfg.update({"split": "time", "event_types": 4, "types_per_client": 2})
    cfg_path = tmp_path / "cfg_time.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    return str(cfg_path), str(data)


class TestConfig:
    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump({"rounds": 3, "typo_key": 1}))
        from fedcox.cli import ConfigError
        with pytest.raises(ConfigError, match="typo_key"):
            load_config(str(path))
        # The generator has no grid-size setting; its grid is fixed.
        path.write_text(yaml.safe_dump({"generate": {"grid_size": 256}}))
        with pytest.raises(ConfigError, match="grid_size"):
            load_config(str(path))
        assert main(["generate", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2

    def test_participants_exceeding_clients_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump({"clients": 2, "participants": 5}))
        assert main(["train", "--config", str(path), "--data", "x",
                     "--metrics", "m.csv"]) == 2

    def test_time_split_requires_type_counts(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump({"split": "time"}))
        from fedcox.cli import ConfigError
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_k_at_least_types_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(
            {"split": "time", "event_types": 4, "types_per_client": 4}
        ))
        from fedcox.cli import ConfigError
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_env_seed_override(self, tmp_path, monkeypatch):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump({"seed": 1}))
        monkeypatch.setenv("FEDPP_SEED", "99")
        assert load_config(str(path))["seed"] == 99

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump({"seed": 1}))
        monkeypatch.setenv("FEDPP_SEED", "99")
        assert load_config(str(path), {"seed": 123})["seed"] == 123


    @pytest.mark.parametrize("argv, env", [
        (["train", "--seed", "-1"], None),
        (["train"], "-3"),
        (["generate", "--seed", "-1"], None),
    ], ids=["train-flag", "train-env", "generate-flag"])
    def test_negative_seed_exits_2(self, tmp_path, monkeypatch, capsys, argv,
                                   env):
        if env is None:
            monkeypatch.delenv("FEDPP_SEED", raising=False)
        else:
            monkeypatch.setenv("FEDPP_SEED", env)
        out = tmp_path / "out"
        if argv[0] == "train":
            where = ["--data", str(out), "--metrics", str(out / "m.csv")]
        else:
            where = ["--out", str(out)]
        assert main(argv + where) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_unset_keys_take_fed_config_defaults(self, monkeypatch):
        monkeypatch.delenv("FEDPP_SEED", raising=False)
        assert fed_config(load_config()) == FedConfig(
            n_clients=2, participants_per_round=2, rounds=10
        )

    @pytest.mark.parametrize("bad, key", [
        ({"rounds": None}, "rounds"),
        ({"n_w_samples": "4"}, "n_w_samples"),
        ({"generate": {"m": None}}, "generate.m"),
        ({"seed": "abc"}, "seed"),
        ({"seed": -1}, "seed"),
        ({"eval_all": "no"}, "eval_all"),
        ({"generate": {"kernels": []}}, "generate.kernels"),
        ({"generate": {"kernels": [[1.5]]}}, "generate.kernels"),
        ({"generate": {"kernels": [[0, 10]]}}, "generate.kernels"),
        ({"generate": {"kernels": 7}}, "generate.kernels"),
        ({"generate": {"train_seqs": 2.5}}, "generate.train_seqs"),
        ({"generate": {"kernels": [[1.5, 1000]]}}, "length scale"),
        # Count keys take integers only; bools are not numbers.
        ({"rounds": 2.5}, "rounds"),
        ({"clients": 2.0}, "clients"),
        ({"participants": 1.0}, "participants"),
        ({"local_epochs": 1.5}, "local_epochs"),
        ({"batch_size": True}, "batch_size"),
        ({"straggle_period": 1.5}, "straggle_period"),
        ({"n_inducing": 3.5}, "n_inducing"),
        ({"quad_nodes": 9.0}, "quad_nodes"),
        ({"n_w_samples": 2.5}, "n_w_samples"),
        ({"embed_dim": 2.5}, "embed_dim"),
        ({"aggregation": "mmd", "mmd_steps": 2.5}, "mmd_steps"),
        ({"split": "time", "types_per_client": 2, "event_types": 4.5},
         "event_types"),
        # Real-valued keys are finite numbers.
        ({"step_size": math.nan}, "step_size"),
        ({"step_size": math.inf}, "step_size"),
        ({"aggregation": "mmd", "mmd_delta": math.nan}, "mmd_delta"),
        ({"aggregation": "mmd", "mmd_eta": math.inf}, "mmd_eta"),
        ({"generate": {"m": math.inf}}, "generate.m"),
        ({"generate": {"m": True}}, "generate.m"),
        ({"generate": {"horizon": math.nan}}, "generate.horizon"),
        # Lower bounds.
        ({"hidden_dim": 0}, "hidden_dim"),
        ({"n_workers": 0}, "n_workers"),
        ({"split": "time", "event_types": 4, "types_per_client": 0},
         "types_per_client"),
        # Keys that the split or rule in use does not read are checked too.
        ({"event_types": "x"}, "event_types"),
        ({"types_per_client": -4.5}, "types_per_client"),
        ({"event_types": 0}, "event_types"),
        ({"aggregation": "kl", "mmd_steps": "abc"}, "mmd_steps"),
        ({"mmd_delta": -1.0}, "mmd_delta"),
        ({"aggregation": "w2", "mmd_eta": math.inf}, "mmd_eta"),
    ], ids=["rounds-null", "n_w_samples-string", "generate-m-null",
            "seed-string", "seed-negative", "eval_all-string", "kernels-empty",
            "kernels-short-pair", "kernels-zero-variance", "kernels-scalar",
            "train_seqs-float", "kernels-under-resolved",
            "rounds-float", "clients-float", "participants-float",
            "local_epochs-float", "batch_size-bool", "straggle_period-float",
            "n_inducing-float", "quad_nodes-float", "n_w_samples-float",
            "embed_dim-float", "mmd_steps-float", "event_types-float",
            "step_size-nan", "step_size-inf", "mmd_delta-nan", "mmd_eta-inf",
            "generate-m-inf", "generate-m-bool", "generate-horizon-nan",
            "hidden_dim-zero", "n_workers-zero", "types_per_client-zero",
            "sequence-event_types-string", "sequence-types_per_client-float",
            "sequence-event_types-zero", "kl-mmd_steps-string",
            "kl-mmd_delta-negative", "w2-mmd_eta-inf"])
    def test_wrong_typed_value_exits_2(self, tmp_path, bad, key):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(bad))
        # A missing --data also exits 2, so check the config step itself.
        with pytest.raises(cli.ConfigError, match=re.escape(key)):
            load_config(str(path))
        assert main(["train", "--config", str(path), "--data", "x",
                     "--metrics", str(tmp_path / "m.csv")]) == 2

    @pytest.mark.parametrize("bad, key, command", [
        ({"step_size": 10**400}, "step_size", "train"),
        ({"generate": {"m": 10**400}}, "generate.m", "generate"),
    ], ids=["step_size", "generate-m"])
    def test_number_beyond_float_range_exits_2(self, tmp_path, capsys, bad,
                                               key, command):
        # A finite number whose float conversion overflows is out of range.
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(bad))
        with pytest.raises(cli.ConfigError, match=f"^{key} must fit a float"):
            load_config(str(path))
        where = (["--data", "x", "--metrics", str(tmp_path / "m.csv")]
                 if command == "train" else ["--out", str(tmp_path / "out")])
        capsys.readouterr()
        assert main([command, "--config", str(path), *where]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {key} must fit a float"
        )

    @pytest.mark.parametrize("value", [False, 0, [], ""],
                             ids=["false", "zero", "list", "string"])
    def test_generate_must_be_a_mapping(self, tmp_path, value):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump({"generate": value}))
        with pytest.raises(cli.ConfigError, match="generate must be a mapping"):
            load_config(str(path))
        # A null section is an empty one.
        path.write_text("generate:\n")
        assert load_config(str(path))["generate"] == (
            cli._DEFAULT_CONFIG["generate"]
        )

    def test_accepted_keys(self, tmp_path, monkeypatch):
        monkeypatch.delenv("FEDPP_SEED", raising=False)
        every_key = dict(
            SMALL_CONFIG, straggle_period=1, aggregation="mmd",
            mmd_delta=1.0, mmd_steps=5, mmd_eta=0.01, n_workers=1,
            eval_all=False, split="time", event_types=4, types_per_client=2,
        )
        assert len(every_key) == 23
        assert cli._TOP_KEYS == set(every_key)
        path = tmp_path / "all.yaml"
        path.write_text(yaml.safe_dump(every_key))
        assert load_config(str(path))["mmd_steps"] == 5

    def test_unread_keys_still_load(self, tmp_path, monkeypatch):
        # Valid mmd_* knobs under another rule, and event-type keys under a
        # sequence split, load; --aggregation then switches the rule.
        monkeypatch.delenv("FEDPP_SEED", raising=False)
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump({
            "aggregation": "kl", "mmd_steps": 7, "mmd_eta": 0.5,
            "event_types": 4, "types_per_client": 6,
        }))
        assert fed_config(load_config(str(path))).aggregation == (
            AggregationMethod("kl")
        )
        switched = load_config(str(path), {"aggregation": "mmd"})
        assert fed_config(switched).aggregation == AggregationMethod(
            "mmd", mmd_steps=7, mmd_eta=0.5
        )

    def test_mmd_without_mmd_keys_takes_aggregation_defaults(self, tmp_path,
                                                             monkeypatch):
        monkeypatch.delenv("FEDPP_SEED", raising=False)
        path = tmp_path / "mmd.yaml"
        path.write_text(yaml.safe_dump({"aggregation": "mmd"}))
        assert fed_config(load_config(str(path))).aggregation == (
            AggregationMethod("mmd")
        )


class TestGenerate:
    def test_default_config_two_clients(self, tmp_path):
        out = tmp_path / "gen"
        code = main(["generate", "--out", str(out), "--seed", "3"])
        assert code == 0
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["m"] == 50.0 and meta["horizon"] == 1.0
        assert len(meta["clients"]) == 2
        assert [c["kernel_pair"] for c in meta["clients"]] == [
            [1.5, 10.0], [2.0, 8.0]
        ]
        for cid in range(2):
            assert (out / f"client_{cid:02d}.train.jsonl").exists()
            assert (out / f"client_{cid:02d}.test.jsonl").exists()
            csv = (out / f"client_{cid:02d}.intensity.csv").read_text()
            assert csv.startswith("t,lambda\n")

    def test_byte_identical_reruns(self, tmp_path, config_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["generate", "--config", config_path, "--out", str(out1)]) == 0
        assert main(["generate", "--config", config_path, "--out", str(out2)]) == 0
        for name in os.listdir(out1):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_invalid_m_rejected(self, tmp_path):
        cfg = dict(SMALL_CONFIG)
        cfg["generate"] = dict(cfg["generate"], m=-1.0)
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(cfg))
        assert main(["generate", "--config", str(path),
                     "--out", str(tmp_path / "x")]) == 2


class TestTrain:
    def test_smoke_run_writes_metrics_and_model(self, tmp_path, config_path,
                                                data_dir):
        metrics = tmp_path / "metrics.csv"
        model = tmp_path / "model.json"
        code = main([
            "train", "--config", config_path, "--data", data_dir,
            "--metrics", str(metrics), "--model", str(model),
        ])
        assert code == 0
        lines = metrics.read_text().strip().splitlines()
        assert lines[0] == "round,participants,mean_test_loglik,mean_elbo,wall_time_ms"
        assert len(lines) == 3  # header + 2 rounds
        assert model.exists()

    def test_model_into_missing_directory(self, tmp_path, config_path,
                                          data_dir):
        # The model's directory is made before round 0, like the metrics'.
        model = tmp_path / "out" / "model.json"
        assert main(["train", "--config", config_path, "--data", data_dir,
                     "--metrics", str(tmp_path / "m.csv"),
                     "--model", str(model)]) == 0
        payload = json.loads(model.read_text())
        assert list(payload["theta"]) == ["mean", "var"]
        assert_client_records(payload, SMALL_CONFIG["clients"])

    def test_rerun_byte_identical_csv_and_model(self, tmp_path, config_path,
                                                data_dir):
        m1, m2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
        mod1, mod2 = tmp_path / "mod1.json", tmp_path / "mod2.json"
        for m, mod in ((m1, mod1), (m2, mod2)):
            assert main(["train", "--config", config_path, "--data", data_dir,
                         "--metrics", str(m), "--model", str(mod)]) == 0
        assert m1.read_bytes() == m2.read_bytes()
        assert mod1.read_bytes() == mod2.read_bytes()

    def test_aggregation_flag(self, tmp_path, config_path, data_dir):
        outs = {}
        for kind in ("fedavg", "kl", "w2"):
            metrics = tmp_path / f"m_{kind}.csv"
            model = tmp_path / f"model_{kind}.json"
            assert main([
                "train", "--config", config_path, "--data", data_dir,
                "--metrics", str(metrics), "--model", str(model),
                "--aggregation", kind,
            ]) == 0
            outs[kind] = json.loads(model.read_text())["theta"]["var"]
        # KL inflates the variance by the spread of client means; w2 shrinks.
        assert outs["kl"] != outs["fedavg"]

    def test_rounds_flag(self, tmp_path, config_path, data_dir):
        metrics = tmp_path / "m.csv"
        assert main(["train", "--config", config_path, "--data", data_dir,
                     "--metrics", str(metrics), "--rounds", "1"]) == 0
        assert len(metrics.read_text().strip().splitlines()) == 2

    def test_every_override_flag_reaches_the_config(self, monkeypatch):
        seen = {}

        def capture(path, overrides):
            seen.update(overrides)
            raise cli.ConfigError("stop")

        monkeypatch.setattr(cli, "load_config", capture)
        assert main(["train", "--data", "d", "--metrics", "m", "--seed", "3",
                     "--aggregation", "w2", "--rounds", "4", "--clients", "5",
                     "--participants", "2", "--local-epochs", "6",
                     "--straggle-period", "7"]) == 2
        assert seen == {"seed": 3, "aggregation": "w2", "rounds": 4,
                        "clients": 5, "participants": 2, "local_epochs": 6,
                        "straggle_period": 7}

    def test_training_horizons_must_agree(self, tmp_path, config_path,
                                          data_dir, capsys, monkeypatch):
        # The first training sequence sets the run's horizon.
        path = os.path.join(data_dir, "client_01.train.jsonl")
        dataio.save_jsonl([
            dataio.EventSequence(times=seq.times[seq.times <= 0.5],
                                 horizon=0.5)
            for seq in dataio.load_jsonl(path)
        ], path)
        started = []
        monkeypatch.setattr(cli, "run_training",
                            lambda *a, **k: started.append(1))
        capsys.readouterr()
        assert main(["train", "--config", config_path, "--data", data_dir,
                     "--metrics", str(tmp_path / "m.csv")]) == 1
        first = os.path.join(data_dir, "client_00.train.jsonl")
        assert capsys.readouterr().err == (
            f"error: {path} holds a sequence of horizon 0.5, not the horizon "
            f"1.0 of the first sequence of {first}\n"
        )
        assert not started

    def test_layout_without_metadata_trains_the_same(self, tmp_path,
                                                     config_path, data_dir):
        # metadata.json is a record for the reader; no command reads it.
        metrics = [tmp_path / "m1.csv", tmp_path / "m2.csv"]
        assert main(["train", "--config", config_path, "--data", data_dir,
                     "--metrics", str(metrics[0])]) == 0
        os.remove(os.path.join(data_dir, "metadata.json"))
        assert main(["train", "--config", config_path, "--data", data_dir,
                     "--metrics", str(metrics[1])]) == 0
        assert metrics[0].read_bytes() == metrics[1].read_bytes()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_missing_test_file_exits_2(self, tmp_path, config_path, data_dir,
                                       capsys, command):
        # Both files of every client are required: eval does not skip a
        # client whose test file is missing.
        model = tmp_path / "model.json"
        argv = ["train", "--config", config_path, "--data", data_dir,
                "--metrics", str(tmp_path / "m.csv"), "--model", str(model)]
        if command == "eval":
            assert main(argv) == 0
            argv = ["eval", "--model", str(model), "--data", data_dir]
        test_path = os.path.join(data_dir, "client_01.test.jsonl")
        os.remove(test_path)
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert test_path in captured.err
        assert captured.out == ""

    def test_directory_as_model_rejected_before_round_0(self, tmp_path,
                                                        config_path, data_dir,
                                                        capsys, monkeypatch):
        model = tmp_path / "adir"
        model.mkdir()
        started = []
        monkeypatch.setattr(cli, "run_training",
                            lambda *a, **k: started.append(1))
        capsys.readouterr()
        assert main(["train", "--config", config_path, "--data", data_dir,
                     "--metrics", str(tmp_path / "m.csv"),
                     "--model", str(model)]) == 2
        assert capsys.readouterr().err == (
            f"error: --model {model} is a directory\n"
        )
        assert not started
        assert not (tmp_path / "m.csv").exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_short_sequence_horizon_rejected(self, tmp_path, config_path,
                                             data_dir, capsys, command):
        # Under split: sequence every sequence is observed on the whole
        # horizon, so a shorter one is not scored past its end.
        model = tmp_path / "model.json"
        argv = ["train", "--config", config_path, "--data", data_dir,
                "--metrics", str(tmp_path / "m.csv"), "--model", str(model)]
        if command == "eval":
            assert main(argv) == 0
            argv = ["eval", "--model", str(model), "--data", data_dir]
        test_path = os.path.join(data_dir, "client_00.test.jsonl")
        dataio.save_jsonl([
            dataio.EventSequence(times=seq.times[seq.times <= 0.3],
                                 horizon=0.3)
            for seq in dataio.load_jsonl(test_path)
        ], test_path)
        capsys.readouterr()
        assert main(argv) == 1
        captured = capsys.readouterr()
        of = ("the model" if command == "eval" else "the first sequence of "
              + os.path.join(data_dir, "client_00.train.jsonl"))
        assert captured.err.endswith(
            f"error: {test_path} holds a sequence of horizon 0.3, not the "
            f"horizon 1.0 of {of}\n"
        )
        assert "test loglik" not in captured.out

    def test_time_split_workflow(self, tmp_path, time_layout):
        cfg_path, data = time_layout
        metrics = tmp_path / "metrics.csv"
        model = tmp_path / "model.json"
        assert main(["train", "--config", cfg_path, "--data", data,
                     "--metrics", str(metrics), "--model", str(model)]) == 0
        lines = metrics.read_text().strip().splitlines()
        assert len(lines) == 3
        for row in lines[1:]:
            assert np.isfinite(float(row.split(",")[2]))
        payload = json.loads(model.read_text())
        assert list(payload) == ["version", "config", "horizon", "theta",
                                 "clients"]
        assert payload["horizon"] == 100.0

    def test_time_split_builds_each_part_once(self, time_layout,
                                              monkeypatch):
        # Each input line becomes one loaded sequence and one train and
        # one test sequence of its client; nothing is masked by np.isin.
        cfg_path, data = time_layout
        cfg = load_config(cfg_path)
        counts = {"sequences": 0, "isin": 0}
        post_init, isin = dataio.EventSequence.__post_init__, np.isin

        def counted_post_init(seq):
            counts["sequences"] += 1
            post_init(seq)

        def counted_isin(*args, **kwargs):
            counts["isin"] += 1
            return isin(*args, **kwargs)

        monkeypatch.setattr(dataio.EventSequence, "__post_init__",
                            counted_post_init)
        monkeypatch.setattr(np, "isin", counted_isin)
        train, test, *_ = cli._load_dataset(data, cfg)
        with open(data, encoding="utf-8") as fh:
            lines = len(fh.read().splitlines())
        assert sum(map(len, train)) == sum(map(len, test)) == lines
        # One checked construction per line: the cuts are not checked again.
        assert counts["sequences"] == lines
        assert counts["isin"] == 0

    def test_subnormal_horizon_exits_1(self, tmp_path, time_layout, capsys):
        cfg_path, _ = time_layout
        data = tmp_path / "tiny.jsonl"
        data.write_text(json.dumps({"times": [0.0, 5e-311, 1e-310],
                                    "marks": [0, 1, 2], "horizon": 1e-310})
                        + "\n")
        capsys.readouterr()
        assert main(["train", "--config", cfg_path, "--data", str(data),
                     "--metrics", str(tmp_path / "m.csv")]) == 1
        assert "horizon 1e-310 is too small" in capsys.readouterr().err

    @pytest.mark.parametrize("split, emptied", [
        ("time", None), ("sequence", [1]), ("sequence", [0, 1, 2, 3]),
    ], ids=["time", "sequence", "sequence-all"])
    def test_client_without_training_sequences_exits_1(self, tmp_path, split,
                                                       emptied, capsys):
        # Time split: three lines dealt to four clients leave client 3
        # none.  Sequence split: the emptied clients' train files are
        # empty; with all of them empty, no sequence sets the horizon.
        cfg = dict(SMALL_CONFIG, clients=4)
        if split == "time":
            cfg.update({"split": "time", "event_types": 4,
                        "types_per_client": 2})
            data = tmp_path / "events.jsonl"
            line = json.dumps({"times": [10.0, 20.0, 30.0],
                               "marks": [0, 1, 2], "horizon": 50.0})
            data.write_text(3 * (line + "\n"))
            missing = "3"
        else:
            data = tmp_path / "data"
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump(cfg))
        if split == "sequence":
            assert main(["generate", "--config", str(cfg_path),
                         "--out", str(data)]) == 0
            for cid in emptied:
                (data / f"client_{cid:02d}.train.jsonl").write_text("")
            missing = ", ".join(map(str, emptied))
        capsys.readouterr()
        assert main(["train", "--config", str(cfg_path), "--data", str(data),
                     "--metrics", str(tmp_path / "m.csv")]) == 1
        err = capsys.readouterr().err
        assert f"no training sequences for client {missing}\n" in err

    def test_model_file_bytes_equal_json_dump(self, tmp_path, time_layout):
        cfg_path, data = time_layout
        model = tmp_path / "model.json"
        assert main(["train", "--config", cfg_path, "--data", data,
                     "--metrics", str(tmp_path / "m.csv"),
                     "--model", str(model)]) == 0
        written = model.read_text(encoding="utf-8")
        # Floats round-trip through repr, so this is json.dump's own output
        # for the saved payload.
        buf = io.StringIO()
        json.dump(json.loads(written), buf)
        assert written == buf.getvalue() + "\n"


def assert_client_records(payload, n_clients):
    """``payload``'s clients are ``n_clients`` records of each client's own
    parameters, with no id and no inducing locations."""
    clients = payload["clients"]
    assert len(clients) == n_clients
    for record in clients:
        assert list(record) == ["m", "nu", "phi", "inducing"]
        assert list(record["inducing"]) == ["mean", "cov"]


def sixteen_client_model():
    """A freshly built 16-client model with 50 inducing points each."""
    config = FedConfig(n_clients=16, participants_per_round=16, seed=3)
    seqs = [[dataio.EventSequence(times=[0.25, 0.5], horizon=1.0)]] * 16
    server, clients = orchestrator.build_clients(config, seqs, 1.0)
    return server, clients, load_config()


def save(path, model):
    server, clients, cfg = model
    cli.save_model(path, server.theta, clients, cfg, 1.0)


class TestSaveModel:
    def test_bytes_equal_one_shot_encode(self, tmp_path):
        # Model files and parameter-record files are both streamed.
        model = sixteen_client_model()
        save(tmp_path / "model.json", model)
        write_param_records([c.phi for c in model[1]], tmp_path / "records.json")
        for name in ("model.json", "records.json"):
            written = (tmp_path / name).read_text(encoding="utf-8")
            assert written == json.dumps(json.loads(written)) + "\n"
        assert_client_records(
            json.loads((tmp_path / "model.json").read_text()), 16
        )

    def test_round_trip_derives_the_inducing_grid(self, tmp_path):
        # The file stores no ids and no inducing locations; load_model
        # derives both, bit-equal to what build_clients gave the clients.
        cfg = load_config(overrides={"clients": 3, "participants": 3,
                                     "n_inducing": 7, "hidden_dim": 2,
                                     "embed_dim": 2})
        seqs = [[dataio.EventSequence(times=[0.25, 1.5], horizon=2.5)]] * 3
        server, clients = orchestrator.build_clients(fed_config(cfg), seqs,
                                                     2.5)
        path = tmp_path / "model.json"
        cli.save_model(path, server.theta, clients, cfg, 2.5)
        saved_cfg, states, horizon = cli.load_model(path)
        assert saved_cfg == cfg and horizon == 2.5
        assert [s.id for s in states] == [c.id for c in clients] == [0, 1, 2]
        for state, client in zip(states, clients):
            assert state.q_u.locations.size == 7
            assert state.q_u.locations.tobytes() == client.q_u.locations.tobytes()
            assert (state.m, state.nu) == (client.m, client.nu)
            for got, want in ((state.phi.mean, client.phi.mean),
                              (state.phi.var, client.phi.var),
                              (state.q_u.mean, client.q_u.mean),
                              (state.q_u.cov, client.q_u.cov)):
                np.testing.assert_array_equal(got, want)

    def test_failed_save_keeps_earlier_file(self, tmp_path, monkeypatch):
        model = sixteen_client_model()
        path = tmp_path / "model.json"
        path.write_text("earlier model\n")
        encode = cli._client_json

        def fail_on_last(c):
            record = encode(c)
            if c.id == 15:
                record["m"] = object()  # the JSON encoder raises TypeError
            return record

        monkeypatch.setattr(cli, "_client_json", fail_on_last)
        with pytest.raises(TypeError):
            save(path, model)
        assert path.read_text() == "earlier model\n"
        assert os.listdir(tmp_path) == ["model.json"]

    def test_symlinked_target_written_through(self, tmp_path):
        model = sixteen_client_model()
        (tmp_path / "store").mkdir()
        target = tmp_path / "store" / "model.json"
        target.write_text("earlier model\n")
        link = tmp_path / "model.json"
        link.symlink_to(target)
        save(link, model)
        assert link.is_symlink()
        payload = json.loads(target.read_text())
        assert payload["theta"] == {"mean": model[0].theta.mean.tolist(),
                                    "var": model[0].theta.var.tolist()}
        assert_client_records(payload, 16)
        assert sorted(os.listdir(tmp_path / "store")) == ["model.json"]

    def test_peak_memory_under_file_size(self, tmp_path):
        model = sixteen_client_model()
        path = tmp_path / "model.json"
        tracemalloc.start()
        try:
            save(path, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One client record is alive at a time, not the whole model.
        assert peak < path.stat().st_size


class TestEval:
    @pytest.mark.parametrize("split", ["sequence", "time"])
    def test_reproduces_final_round_metric(self, tmp_path, split, request,
                                           capsys):
        config, data = request.getfixturevalue(f"{split}_layout")
        metrics = tmp_path / "metrics.csv"
        model = tmp_path / "model.json"
        assert main(["train", "--config", config, "--data", data,
                     "--metrics", str(metrics), "--model", str(model)]) == 0
        final_row = metrics.read_text().strip().splitlines()[-1].split(",")
        final_mean = float(final_row[2])
        assert np.isfinite(final_mean)
        capsys.readouterr()
        assert main(["eval", "--model", str(model), "--data", data]) == 0
        out = capsys.readouterr().out
        reported = float(out.strip().splitlines()[-1].split()[-1])
        assert reported == pytest.approx(final_mean, abs=1e-9)

    @pytest.mark.parametrize("edit, message", [
        (lambda clients: clients.pop(),
         "holds 1 clients, but its config sets 2"),
        # A client's id is its position; files that stored ids are rejected.
        (lambda clients: clients[1].update(id=5),
         "has unknown keys ['clients[1].id']"),
        (lambda clients: clients[1].update(id=0),
         "has unknown keys ['clients[1].id']"),
    ], ids=["truncated", "unknown-id", "repeated-id"])
    def test_client_ids_must_match_the_data(self, tmp_path, config_path,
                                            data_dir, capsys, edit, message):
        model = tmp_path / "model.json"
        assert main(["train", "--config", config_path, "--data", data_dir,
                     "--metrics", str(tmp_path / "m.csv"),
                     "--model", str(model)]) == 0
        payload = json.loads(model.read_text())
        edit(payload["clients"])
        model.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["eval", "--model", str(model), "--data", data_dir]) == 1
        captured = capsys.readouterr()
        assert f"error: model file {model} " in captured.err
        assert message in captured.err
        assert "test loglik" not in captured.out

    def test_other_time_layout_rejected(self, tmp_path, config_path,
                                        data_dir, capsys):
        # A model trained on horizon 1 is not scored on data of horizon 2.
        model = tmp_path / "model.json"
        assert main(["train", "--config", config_path, "--data", data_dir,
                     "--metrics", str(tmp_path / "m.csv"),
                     "--model", str(model)]) == 0
        cfg = dict(SMALL_CONFIG, generate={**SMALL_CONFIG["generate"],
                                           "horizon": 2.0})
        other_cfg = tmp_path / "other.yaml"
        other_cfg.write_text(yaml.safe_dump(cfg))
        other = tmp_path / "other"
        assert main(["generate", "--config", str(other_cfg),
                     "--out", str(other)]) == 0
        capsys.readouterr()
        assert main(["eval", "--model", str(model), "--data", str(other)]) == 1
        captured = capsys.readouterr()
        assert (f"error: {other / 'client_00.test.jsonl'} holds a sequence of "
                "horizon 2.0, not the horizon 1.0 of the model") in captured.err
        assert "test loglik" not in captured.out

    def test_time_model_horizon_must_be_normalized(self, tmp_path,
                                                   time_layout, capsys):
        cfg_path, data = time_layout
        model = tmp_path / "model.json"
        assert main(["train", "--config", cfg_path, "--data", data,
                     "--metrics", str(tmp_path / "m.csv"),
                     "--model", str(model)]) == 0
        payload = json.loads(model.read_text())
        payload["horizon"] = 50.0
        model.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["eval", "--model", str(model), "--data", data]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: split: time normalizes {data} to horizon 100.0, not the "
            "horizon 50.0 of the model\n"
        )
        assert captured.out == ""

    def test_reads_only_the_test_files(self, tmp_path, config_path, data_dir,
                                       capsys):
        # Training files and metadata.json are not read: a layout without
        # the one and with a garbage line in another scores the same.
        model = tmp_path / "model.json"
        assert main(["train", "--config", config_path, "--data", data_dir,
                     "--metrics", str(tmp_path / "m.csv"),
                     "--model", str(model)]) == 0
        capsys.readouterr()
        assert main(["eval", "--model", str(model), "--data", data_dir]) == 0
        intact = capsys.readouterr()
        os.remove(os.path.join(data_dir, "metadata.json"))
        with open(os.path.join(data_dir, "client_01.train.jsonl"), "a",
                  encoding="utf-8") as fh:
            fh.write("garbage\n")
        assert main(["eval", "--model", str(model), "--data", data_dir]) == 0
        assert capsys.readouterr() == intact
        assert intact.out.count("test loglik") == 3

    def test_model_without_config_rejected(self, tmp_path, config_path,
                                           data_dir, capsys):
        model = tmp_path / "model.json"
        metrics = tmp_path / "m.csv"
        assert main(["train", "--config", config_path, "--data", data_dir,
                     "--metrics", str(metrics), "--model", str(model)]) == 0
        payload = json.loads(model.read_text())
        del payload["config"]
        model.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["eval", "--model", str(model), "--data", data_dir]) == 1
        assert "'config'" in capsys.readouterr().err

    @pytest.mark.parametrize("where, value, message", [
        (("clients", 0, "m"), float("nan"), "client 0 m must be finite"),
        (("clients", 0, "m"), -3.0, "client 0 m must be > 0"),
        (("clients", 0, "nu"), float("inf"), "client 0 nu must be finite"),
        (("clients", 0, "inducing", "mean", 1), float("nan"),
         "inducing posterior entries must be finite"),
    ], ids=["m-nan", "m-negative", "nu-inf", "inducing-nan"])
    def test_bad_model_numbers_rejected(self, tmp_path, config_path, data_dir,
                                        capsys, where, value, message):
        model = tmp_path / "model.json"
        assert main(["train", "--config", config_path, "--data", data_dir,
                     "--metrics", str(tmp_path / "m.csv"),
                     "--model", str(model)]) == 0
        payload = json.loads(model.read_text())
        node = payload
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
        model.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["eval", "--model", str(model), "--data", data_dir]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda cfg: cfg.pop("split"), "missing config keys: ['split']"),
        (lambda cfg: cfg["generate"].pop("m"),
         "missing config keys: ['generate.m']"),
        (lambda cfg: cfg.update(clients="2"), "n_clients must be an integer"),
        (lambda cfg: cfg.update(seed=-1), "seed must be >= 0"),
        (lambda cfg: cfg.update(colour="red"),
         "unknown config keys: ['colour']"),
    ], ids=["no-split", "no-generate-m", "clients-string", "seed-negative",
            "unknown-key"])
    def test_bad_saved_config_rejected(self, tmp_path, config_path, data_dir,
                                       capsys, edit, message):
        model = tmp_path / "model.json"
        assert main(["train", "--config", config_path, "--data", data_dir,
                     "--metrics", str(tmp_path / "m.csv"),
                     "--model", str(model)]) == 0
        payload = json.loads(model.read_text())
        edit(payload["config"])
        model.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["eval", "--model", str(model), "--data", data_dir]) == 1
        captured = capsys.readouterr()
        assert f"model file {model} config: {message}" in captured.err
        assert "test loglik" not in captured.out

    def test_env_seed_not_applied_to_saved_config(self, tmp_path, config_path,
                                                  data_dir, monkeypatch,
                                                  capsys):
        model = tmp_path / "model.json"
        assert main(["train", "--config", config_path, "--data", data_dir,
                     "--metrics", str(tmp_path / "m.csv"),
                     "--model", str(model)]) == 0
        monkeypatch.setenv("FEDPP_SEED", "-3")
        assert main(["eval", "--model", str(model), "--data", data_dir]) == 0
        assert "mean test loglik" in capsys.readouterr().out

    def test_model_not_a_json_object_rejected(self, tmp_path, data_dir,
                                              capsys):
        model = tmp_path / "model.json"
        model.write_text("[1, 2]\n")
        assert main(["eval", "--model", str(model), "--data", data_dir]) == 1
        assert (f"model file {model} does not hold a JSON object"
                in capsys.readouterr().err)

    def test_missing_model_exits_2(self, tmp_path, data_dir):
        assert main(["eval", "--model", str(tmp_path / "nope.json"),
                     "--data", data_dir]) == 2

    def test_version_mismatch_rejected(self, tmp_path, config_path, data_dir):
        model = tmp_path / "model.json"
        metrics = tmp_path / "m.csv"
        assert main(["train", "--config", config_path, "--data", data_dir,
                     "--metrics", str(metrics), "--model", str(model)]) == 0
        payload = json.loads(model.read_text())
        payload["version"] = "other-9"
        model.write_text(json.dumps(payload))
        assert main(["eval", "--model", str(model), "--data", data_dir]) == 1


def _pop(*path):
    """An edit of a JSON payload that deletes the key at ``path``."""
    def edit(payload):
        node = payload
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
        return payload
    return edit


def _put(*path, value):
    """An edit of a JSON payload that sets the key at ``path`` to ``value``."""
    def edit(payload):
        node = payload
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return payload
    return edit


def _cut(payload):
    """An edit that leaves the file's JSON text cut short."""
    return json.dumps(payload)[:25]


class TestMalformedFiles:
    """A malformed model or record file exits 1 with an error that names
    the file and the key path."""

    @pytest.mark.parametrize("target, edit, message", [
        ("model", _pop("clients", 0, "phi"), "has no 'clients[0].phi' key"),
        ("model", _put("clients", value=[1]),
         "clients[0] is not a JSON object"),
        ("model", _put("clients", 0, "inducing", "extra", value=1),
         "has unknown keys ['clients[0].inducing.extra']"),
        ("records", _pop("dim"), "has no 'dim' key"),
        ("records", _pop("records", 0, "var"),
         "has no 'records[0].var' key"),
        ("model", _cut, "is not valid JSON"),
        ("records", _cut, "is not valid JSON"),
        # The encoder is built from the saved config, not stored.
        ("model", _put("config", "hidden_dim", value=16),
         "theta has dimension"),
        ("model", _put("clients", 0, "phi", value={"mean": [0.0],
                                                   "var": [1.0]}),
         "clients[0].phi has dimension 1, not the"),
        ("model", _put("theta", value="garbage"), "theta is not a JSON object"),
        ("model", _put("theta", value={"mean": [0.0], "var": [1.0]}),
         "theta has dimension 1, not the"),
        # A file written when the model stored its round count.
        ("model", _put("round", value=2), "has unknown keys ['round']"),
        # A file written when the model stored these three run facts.
        ("model", lambda payload: {
            **payload, "train_window": 1.0, "eval_interval": [0.0, 1.0],
            "encoder": {"hidden_dim": 32, "output_dim": 8, "t_norm": 1.0},
        }, "has unknown keys ['encoder', 'eval_interval', 'train_window']"),
        # Finite numbers whose float conversion overflows.
        ("model", _put("horizon", value=10**400),
         "horizon: horizon must fit a float"),
        ("model", _put("clients", 0, "m", value=10**400),
         "clients[0]: client 0 m must fit a float"),
        ("model", _put("theta", "mean", 0, value=10**400),
         "theta: int too large to convert to float"),
    ], ids=["model-client-no-phi", "model-client-int",
            "model-encoder-extra-key", "records-no-dim", "records-no-var",
            "model-truncated", "records-truncated",
            "model-encoder-hidden_dim", "model-phi-length", "model-theta-string",
            "model-theta-length", "model-old-format-round", "model-old-format",
            "model-horizon-beyond-float", "model-m-beyond-float",
            "model-theta-beyond-float"])
    def test_error_names_file_and_key(self, tmp_path, config_path, data_dir,
                                      capsys, target, edit, message):
        model = tmp_path / "model.json"
        if target == "model":
            assert main(["train", "--config", config_path, "--data", data_dir,
                         "--metrics", str(tmp_path / "m.csv"),
                         "--model", str(model)]) == 0
            path, kind = model, "model file"
            argv = ["eval", "--model", str(model), "--data", data_dir]
        else:
            path, kind = tmp_path / "in.json", "parameter record file"
            write_param_records(
                [DiagGaussian(np.zeros(2), np.ones(2))] * 2, path
            )
            argv = ["aggregate", "--method", "kl", "--in", str(path),
                    "--out", str(tmp_path / "out.json")]
        edited = edit(json.loads(path.read_text()))
        path.write_text(edited if isinstance(edited, str) else json.dumps(edited))
        capsys.readouterr()
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert f"error: {kind} {path}" in captured.err
        assert message in captured.err
        assert "test loglik" not in captured.out

    def test_malformed_file_prints_no_traceback(self, tmp_path, config_path,
                                                data_dir):
        path = tmp_path / "data" / "client_01.train.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("garbage\n")
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        done = subprocess.run(
            [sys.executable, "-m", "fedcox.cli", "train", "--config",
             config_path, "--data", data_dir, "--metrics",
             str(tmp_path / "m.csv")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 1
        assert done.stderr == (f"error: {path}: malformed JSON at line 3: "
                               "Expecting value: line 1 column 1 (char 0)\n")

    # Config files that YAML cannot read: a syntax error, a tab indent, a
    # date that does not exist and text that is not UTF-8.
    _BAD_YAML = {
        "yaml-unclosed": b"seed: [1, 2\n",
        "yaml-tab": b"seed: 1\nrounds:\n\t- 2\n",
        "yaml-date": b"seed: 2020-13-45\n",
        "yaml-not-utf8": b"\xff\xfe seed: 1\n",
    }

    @pytest.mark.parametrize("kind", [
        *_BAD_YAML, "time-split-directory", "sequence-split-file",
        "generate-out-file", "metrics-under-file",
    ])
    def test_usage_error_exits_2_without_traceback(self, tmp_path,
                                                   config_path, data_dir,
                                                   time_layout, kind):
        # A config that is not YAML, a --data path of the wrong kind, or a
        # file where --out or --metrics needs a directory.
        config, data = time_layout
        metrics = tmp_path / "m.csv"
        afile = tmp_path / "afile"
        afile.write_text("")
        if kind in self._BAD_YAML:
            config = tmp_path / f"{kind}.yaml"
            config.write_bytes(self._BAD_YAML[kind])
        elif kind == "time-split-directory":
            data = data_dir
        elif kind == "sequence-split-file":
            config = config_path
        elif kind == "metrics-under-file":
            metrics = afile / "m.csv"
        argv = ["train", "--config", str(config), "--data", str(data),
                "--metrics", str(metrics)]
        if kind == "generate-out-file":
            argv = ["generate", "--config", config_path, "--out", str(afile)]
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        done = subprocess.run(
            [sys.executable, "-m", "fedcox.cli", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 2
        assert done.stderr.startswith("error: ")
        assert done.stderr.count("\n") == 1
        assert "Traceback" not in done.stderr
        if kind in self._BAD_YAML:
            assert f"config file {config} is not valid YAML" in done.stderr

    @pytest.mark.parametrize("error, traced", [
        (ValueError("bad input"), False),
        (orchestrator.RoundError("round 0 aborted"), True),
        (FloatingPointError("not finite"), True),
        (KeyError("unexpected"), True),
    ], ids=["value-error", "round-error", "floating-point", "unexpected"])
    def test_traceback_only_for_failed_rounds_and_surprises(
            self, config_path, data_dir, tmp_path, monkeypatch, caplog,
            error, traced):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "run_training", fail)
        with caplog.at_level("ERROR"):
            assert main(["train", "--config", config_path, "--data",
                         data_dir, "--metrics", str(tmp_path / "m.csv")]) == 1
        assert any(r.exc_info for r in caplog.records) == traced


class TestAggregateCommand:
    def test_kl_fixture(self, tmp_path):
        records = [
            DiagGaussian(np.array([0.0]), np.array([1.0])),
            DiagGaussian(np.array([2.0]), np.array([1.0])),
        ]
        src, dst = tmp_path / "in.json", tmp_path / "out.json"
        write_param_records(records, src)
        assert main(["aggregate", "--method", "kl", "--in", str(src),
                     "--out", str(dst)]) == 0
        result = read_param_records(dst)[0]
        assert result.mean[0] == pytest.approx(1.0, abs=1e-12)
        assert result.var[0] == pytest.approx(2.0, abs=1e-12)

    def test_w2_fixture(self, tmp_path):
        records = [
            DiagGaussian(np.array([0.0]), np.array([1.0])),
            DiagGaussian(np.array([0.0]), np.array([9.0])),
        ]
        src, dst = tmp_path / "in.json", tmp_path / "out.json"
        write_param_records(records, src)
        assert main(["aggregate", "--method", "w2", "--in", str(src),
                     "--out", str(dst)]) == 0
        assert read_param_records(dst)[0].var[0] == pytest.approx(4.0, rel=1e-12)

    def test_single_record_identity(self, tmp_path):
        record = DiagGaussian(np.array([0.3, -1.0]), np.array([0.5, 2.0]))
        src, dst = tmp_path / "in.json", tmp_path / "out.json"
        write_param_records([record], src)
        for method in ("kl", "w2", "fedavg"):
            assert main(["aggregate", "--method", method, "--in", str(src),
                         "--out", str(dst)]) == 0
            out = read_param_records(dst)[0]
            np.testing.assert_allclose(out.mean, record.mean, rtol=1e-12)
            np.testing.assert_allclose(out.var, record.var, rtol=1e-9)

    @pytest.mark.parametrize("method", ["kl", "mmd"])
    def test_large_means_accepted(self, tmp_path, method):
        records = [
            DiagGaussian(np.array([-64.6]), np.array([0.26])),
            DiagGaussian(np.array([-65.2]), np.array([0.62])),
        ]
        src, dst = tmp_path / "in.json", tmp_path / "out.json"
        write_param_records(records, src)
        assert main(["aggregate", "--method", method, "--in", str(src),
                     "--out", str(dst)]) == 0
        assert np.all(read_param_records(dst)[0].var > 0)

    def test_mmd_delta_defaults_to_aggregation_default(self, tmp_path):
        records = [
            DiagGaussian(np.array([0.0, 1.0]), np.array([1.0, 0.5])),
            DiagGaussian(np.array([2.0, -1.0]), np.array([1.0, 2.0])),
        ]
        src = tmp_path / "in.json"
        write_param_records(records, src)
        outs = []
        for extra in ([], ["--mmd-delta", "1.0"]):
            dst = tmp_path / f"out{len(extra)}.json"
            assert main(["aggregate", "--method", "mmd", "--in", str(src),
                         "--out", str(dst)] + extra) == 0
            outs.append(dst.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("method, delta", [
        ("mmd", "0"), ("mmd", "-1"), ("mmd", "nan"),
        ("kl", "0"), ("kl", "-1"), ("kl", "nan"),
    ], ids=["0", "-1", "nan", "kl-0", "kl--1", "kl-nan"])
    def test_invalid_mmd_delta_exits_2(self, tmp_path, method, delta, capsys):
        # The knob is checked under every method, as in a config file.
        src = tmp_path / "in.json"
        write_param_records(
            [DiagGaussian(np.array([0.0]), np.array([1.0]))], src
        )
        assert main(["aggregate", "--method", method, "--in", str(src),
                     "--out", str(tmp_path / "o.json"),
                     "--mmd-delta", delta]) == 2
        assert "mmd_delta" in capsys.readouterr().err

    @pytest.mark.parametrize("out, problem", [
        ("adir", "[Errno 21] Is a directory"),
        ("nodir/out.json", "[Errno 2] No such file or directory"),
    ], ids=["directory", "missing-directory"])
    def test_unwritable_out_named(self, tmp_path, capsys, out, problem):
        # The error names the target, not the temporary file beside it.
        src, out = tmp_path / "in.json", tmp_path / out
        write_param_records(
            [DiagGaussian(np.array([0.0]), np.array([1.0]))], src
        )
        (tmp_path / "adir").mkdir()
        assert main(["aggregate", "--method", "kl", "--in", str(src),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {problem}: '{os.path.realpath(out)}'\n"
        )
        assert sorted(os.listdir(tmp_path)) == ["adir", "in.json"]
        assert os.listdir(tmp_path / "adir") == []

    def test_writing_no_records_fails_before_any_file(self, tmp_path):
        with pytest.raises(ValueError, match="holds no records"):
            write_param_records([], tmp_path / "records.json")
        assert list(tmp_path.iterdir()) == []

    def test_mixed_dimensions_fail_before_any_file(self, tmp_path):
        records = [DiagGaussian(np.zeros(1), np.ones(1)),
                   DiagGaussian(np.zeros(1), np.ones(1)),
                   DiagGaussian(np.zeros(2), np.ones(2))]
        with pytest.raises(ValueError,
                           match="record 2 has dimension 2, record 0 has 1"):
            write_param_records(records, tmp_path / "records.json")
        assert list(tmp_path.iterdir()) == []

    def test_unknown_method_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["aggregate", "--method", "median", "--in", "x", "--out", "y"])
        assert err.value.code == 2

    def test_records_not_a_json_object_rejected(self, tmp_path, capsys):
        path = tmp_path / "records.json"
        path.write_text("[1, 2]\n")
        out = tmp_path / "o.json"
        assert main(["aggregate", "--method", "kl", "--in", str(path),
                     "--out", str(out)]) == 1
        assert (f"parameter record file {path} does not hold a JSON object"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_version_check(self, tmp_path):
        path = tmp_path / "records.json"
        path.write_text(json.dumps(
            {"version": "ancient", "dim": 1,
             "records": [{"mean": [0.0], "var": [1.0]}]}
        ))
        assert main(["aggregate", "--method", "kl", "--in", str(path),
                     "--out", str(tmp_path / "o.json")]) == 1
