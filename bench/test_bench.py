"""Tests of the benchmark itself: span arithmetic, wrapping, tiny workloads.

Run from the repository root:  python -m pytest -q bench
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import threading
import types
from pathlib import Path

import pytest

import run
import tracing
from workloads import CrossDevice, Federated, Recovery

REPO = Path(__file__).resolve().parents[1]
assert run.import_fedcox(REPO) is None

TINY_MODEL = dict(n_inducing=6, quad_nodes=12, hidden_dim=4, embed_dim=2)
TINY = {
    "recovery": Recovery(rounds=2, per_seq=5.0, train_seqs=2, test_seqs=1,
                         local_epochs=1, batch_size=2, n_w_samples=2,
                         **TINY_MODEL),
    "federated": Federated(rounds=2, per_seq=5.0, n_clients=2, train_seqs=2,
                           test_seqs=1, local_epochs=1, batch_size=2,
                           **TINY_MODEL),
    "crossdevice": CrossDevice(rounds=2, n_seqs=12, events_per_type=2.0,
                               clients=3, participants=2, mmd_steps=5,
                               **TINY_MODEL),
}


def span(name, start, end, parent=None, round_id=None):
    return tracing.Span(name, start, end, parent, round_id)


def test_self_time_subtracts_union_of_direct_children():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("b", 3.0, 6.0, parent=0),      # overlaps a: union [1, 6]
        span("c", 8.0, 12.0, parent=0),     # clipped to the parent: [8, 10]
        span("a.child", 2.0, 3.0, parent=1),  # grandchild: not the root's
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0])


def test_outermost_skips_nested_spans_of_the_same_name():
    spans = [
        span("cli.config", 0.0, 5.0),
        span("other", 1.0, 4.0, parent=0),
        span("cli.config", 2.0, 3.0, parent=1),
        span("cli.config", 6.0, 7.0),
    ]
    assert tracing.outermost(spans, "cli.config") == [0, 3]


def test_tracer_records_parents_and_round_ids():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    setup = tracer.open("dataio.simulate")
    tracer.close(setup)
    outer = tracer.open(tracing.ROUND_SPAN)
    inner = tracer.open("client.update")
    tracer.close(inner)
    tracer.close(outer)
    spans = tracer.spans
    assert [s.round for s in spans] == [None, 0, 0]
    assert spans[2].parent == outer and spans[1].parent is None
    assert tracing.self_times(spans)[outer] == pytest.approx(2.0)


def test_worker_thread_spans_are_children_of_the_round():
    tracer = tracing.Tracer()
    both_open = threading.Barrier(2)
    outer = tracer.open(tracing.ROUND_SPAN)

    def participant():
        update = tracer.open("client.update")
        embed = tracer.open("kernel.embed")
        both_open.wait()
        tracer.close(embed)
        tracer.close(update)

    workers = [threading.Thread(target=participant) for _ in range(2)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    tracer.close(outer)

    spans = tracer.spans
    updates = [i for i, s in enumerate(spans) if s.name == "client.update"]
    embeds = [i for i, s in enumerate(spans) if s.name == "kernel.embed"]
    assert [spans[i].parent for i in updates] == [outer, outer]
    assert sorted(spans[i].parent for i in embeds) == updates
    assert all(s.round == 0 for s in spans)
    # The two updates overlap, so the round's self time is its length
    # minus their union, not minus their sum.
    union = tracing.covered(
        [(spans[i].start, spans[i].end) for i in updates],
        spans[outer].start, spans[outer].end,
    )
    longest = max(spans[i].end - spans[i].start for i in updates)
    assert union < sum(spans[i].end - spans[i].start for i in updates)
    assert union >= longest
    assert tracing.self_times(spans)[outer] == pytest.approx(
        spans[outer].end - spans[outer].start - union
    )


def test_parallel_participants_are_traced_under_their_round():
    from fedcox import dataio, orchestrator
    from fedcox.aggregation import AggregationMethod

    truth = dataio.RbfSpec(variance=1.5, length_scale=0.1)
    sets = [dataio.simulate_client(20.0, truth, 1.0, 3, seed=c)[0]
            for c in range(2)]
    config = orchestrator.FedConfig(
        n_clients=2, participants_per_round=2, rounds=2, local_epochs=1,
        batch_size=2, step_size=0.02, aggregation=AggregationMethod("kl"),
        seed=0, n_w_samples=1, n_workers=2, **TINY_MODEL,
    )
    tracer = tracing.Tracer()
    with tracing.tracer_patch(tracer):
        orchestrator.run_training(config, [s[:2] for s in sets], 1.0,
                                  [s[2:] for s in sets],
                                  eval_interval=(0.0, 1.0))
    spans = tracer.spans
    rounds = [i for i, s in enumerate(spans) if s.name == tracing.ROUND_SPAN]
    updates = [s for s in spans if s.name == "client.update"]
    assert len(rounds) == 2 and len(updates) == 4
    assert all(s.parent in rounds and s.round == spans[s.parent].round
               for s in updates)
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent]
            assert parent.start <= span.start <= span.end <= parent.end
    selfs = tracing.self_times(spans)
    for i in rounds:
        assert 0.0 <= selfs[i] <= spans[i].end - spans[i].start
    layers = tracing.layer_metrics(tracer, rounds=2, calls=1)
    assert layers["aggregation.records"] == 2
    assert layers["client.grad_calls"] > 0 and layers["numerics.chol_calls"] > 0


def test_layer_metrics_split_round_and_call_scope():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    index = tracer.open("dataio.simulate")       # 0..1, per call
    tracer.close(index)
    for _ in range(2):                            # two rounds of 3 ticks
        outer = tracer.open(tracing.ROUND_SPAN)
        inner = tracer.open("client.update")
        tracer.close(inner)
        tracer.close(outer)
    layers = tracing.layer_metrics(tracer, rounds=2, calls=1)
    assert set(layers) == set(tracing.PER_LAYER_UNITS) - {"trace.overhead_ratio"}
    assert layers["dataio.simulate_s"] == pytest.approx(1.0)
    assert layers["orchestrator.round_s"] == pytest.approx(3.0)
    assert layers["client.update_s"] == pytest.approx(1.0)
    assert layers["orchestrator.self_s"] == pytest.approx(2.0)


def test_patch_reaches_names_bound_at_import_and_restores_them():
    import fedcox
    from fedcox import cli, client, dataio, numerics, orchestrator

    original = orchestrator.run_training
    marker = object()
    with tracing.Patch([(original, marker)]):
        assert cli.run_training is marker
        assert fedcox.run_training is marker
        assert orchestrator.run_training is marker
    assert cli.run_training is original and fedcox.run_training is original

    tracer = tracing.Tracer()
    with tracing.tracer_patch(tracer):
        chol = numerics.chol_factor_jittered
        assert client.chol_factor_jittered is chol
        assert dataio.chol_factor_jittered is chol
        assert chol.__wrapped__ is not chol
        assert orchestrator.aggregate.__wrapped__ is not None
    assert not hasattr(orchestrator.aggregate, "__wrapped__")


def test_patch_reaches_a_module_added_after_the_benchmark_was_written(
        monkeypatch):
    from fedcox import numerics
    from fedcox.numerics import chol_factor_jittered

    added = types.ModuleType("fedcox.added_later")
    added.chol = chol_factor_jittered
    monkeypatch.setitem(sys.modules, added.__name__, added)
    tracer = tracing.Tracer()
    with tracing.tracer_patch(tracer):
        assert added.chol is numerics.chol_factor_jittered
        assert added.chol.__wrapped__ is chol_factor_jittered
    assert added.chol is chol_factor_jittered


def test_import_loads_every_submodule_but_main(tmp_path):
    shutil.copytree(REPO / "src" / "fedcox", tmp_path / "src" / "fedcox",
                    ignore=shutil.ignore_patterns("__pycache__"))
    package = tmp_path / "src" / "fedcox"
    (package / "added_later.py").write_text("LOADED = True\n")
    (package / "__main__.py").write_text("raise SystemExit(3)\n")
    probe = (
        "import sys; from pathlib import Path; import run; "
        "assert run.import_fedcox(Path(sys.argv[1])) is None; "
        "print('fedcox.added_later' in sys.modules, "
        "'fedcox.__main__' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe, str(tmp_path)], cwd=Path(run.__file__).parent,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True", "False"]


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_runs_end_to_end_at_tiny_size(name, tmp_path):
    workload = TINY[name]
    call = workload.prepare(3, tmp_path)
    plain = run.run_episode(call, workload.rounds)
    tracer = tracing.Tracer()
    traced = run.run_episode(call, workload.rounds, tracer)
    for episode in (plain, traced):
        assert episode["error"] is None
        assert episode["completed"] == workload.rounds
        assert math.isfinite(episode["heldout_loglik"])
    assert plain["theta_sha256"] == traced["theta_sha256"]
    assert plain["heldout_loglik"] == traced["heldout_loglik"]
    layers = tracing.layer_metrics(tracer, workload.rounds, 1)
    assert layers["orchestrator.round_s"] > 0
    assert layers["client.update_s"] > 0
    assert layers["aggregation.records"] > 0


def test_round_error_ends_the_episode_and_counts_failed_rounds(tmp_path):
    from fedcox import client

    workload = TINY["recovery"]
    call = workload.prepare(0, tmp_path)
    original = client.client_update
    calls = []

    def fails_in_second_round(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise FloatingPointError("injected")
        return original(*args, **kwargs)

    with tracing.Patch([(original, fails_in_second_round)]):
        broken = run.run_episode(call, workload.rounds)
    assert broken["completed"] == 1 and "RoundError" in broken["error"]
    good = run.run_episode(call, workload.rounds)
    expected = {"heldout_loglik": good["heldout_loglik"]}
    assert run.outcome([good, good, broken], expected, 1e-6) == (False, 4, 1)
    assert run.outcome([good, good, good], expected, 1e-6) == (True, 4, 0)
    wrong = {"heldout_loglik": good["heldout_loglik"] + 1.0}
    assert run.outcome([good, good, good], wrong, 1e-6) == (False, 4, 4)


def test_check_episode_tolerance():
    episode = {"heldout_loglik": 10.0, "error": None, "completed": 3, "rounds": 3}
    assert run.check_episode(episode, {"heldout_loglik": 10.0 + 5e-6}, 1e-6)
    assert not run.check_episode(episode, {"heldout_loglik": 10.001}, 1e-6)
    assert not run.check_episode(episode, None, 1e-6)
    assert not run.check_episode(dict(episode, completed=2), {"heldout_loglik": 10.0}, 1e-6)


def test_benchmark_json_names_match_the_code():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: run.END_TO_END_UNITS[k] for k in run.GATED
    }
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS


def test_refuses_a_directory_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert run.main(["--workload", "recovery", "--seed", "1",
                     "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
