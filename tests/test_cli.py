"""End-to-end command-line tests: generate, train, eval, aggregate."""
import json
import math
import os
import re

import numpy as np
import pytest
import yaml

from fedcox import cli
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
    ], ids=["rounds-null", "n_w_samples-string", "generate-m-null",
            "seed-string", "eval_all-string", "kernels-empty",
            "kernels-short-pair", "kernels-zero-variance", "kernels-scalar",
            "train_seqs-float", "kernels-under-resolved",
            "rounds-float", "clients-float", "participants-float",
            "local_epochs-float", "batch_size-bool", "straggle_period-float",
            "n_inducing-float", "quad_nodes-float", "n_w_samples-float",
            "embed_dim-float", "mmd_steps-float", "event_types-float",
            "step_size-nan", "step_size-inf", "mmd_delta-nan", "mmd_eta-inf",
            "generate-m-inf", "generate-m-bool", "generate-horizon-nan",
            "hidden_dim-zero", "n_workers-zero", "types_per_client-zero"])
    def test_wrong_typed_value_exits_2(self, tmp_path, bad, key):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(bad))
        # A missing --data also exits 2, so check the config step itself.
        with pytest.raises(cli.ConfigError, match=re.escape(key)):
            load_config(str(path))
        assert main(["train", "--config", str(path), "--data", "x",
                     "--metrics", str(tmp_path / "m.csv")]) == 2

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
        assert payload["train_window"] == 60.0
        assert payload["eval_interval"] == [80.0, 100.0]


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

    @pytest.mark.parametrize("delta", ["0", "-1", "nan"])
    def test_invalid_mmd_delta_exits_2(self, tmp_path, delta, capsys):
        src = tmp_path / "in.json"
        write_param_records(
            [DiagGaussian(np.array([0.0]), np.array([1.0]))], src
        )
        assert main(["aggregate", "--method", "mmd", "--in", str(src),
                     "--out", str(tmp_path / "o.json"),
                     "--mmd-delta", delta]) == 2
        assert "mmd_delta" in capsys.readouterr().err

    def test_unknown_method_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["aggregate", "--method", "median", "--in", "x", "--out", "y"])
        assert err.value.code == 2

    def test_version_check(self, tmp_path):
        path = tmp_path / "records.json"
        path.write_text(json.dumps(
            {"version": "ancient", "dim": 1,
             "records": [{"mean": [0.0], "var": [1.0]}]}
        ))
        assert main(["aggregate", "--method", "kl", "--in", str(path),
                     "--out", str(tmp_path / "o.json")]) == 1
