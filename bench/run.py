"""fedcox benchmark: time federated training rounds, end to end or by layer.

Run from the root of a source checkout:

    python3 bench/run.py --workload recovery --seed 1 --seconds 30 --trace 0

One run imports ``fedcox`` from ``src/``, builds the workload's inputs from
``--seed`` and calls the program repeatedly, one *episode* per call (data
generation or ingestion, client set-up, every round), for ``--seconds``.
A first, untimed episode lets caches fill.  Round times come from the
benchmark's own clock around ``orchestrator.run_round``; the metrics CSV
that ``fedcox train`` writes carries no timings.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced episodes and reports the per-layer metrics from the
traced ones (see ``tracing.py``), plus the tracing overhead.

Every episode's final held-out log-likelihood is checked against
``expected.json`` (recorded by ``record_expected.py``); the run also
reports a SHA-256 digest of the final server prior.  Inputs depend on
``seed % CASES`` so that every input a seed can select has a recorded
answer.  Human-readable lines come first; the last line of standard
output is the JSON result.  The exit code is 0 when the run completes,
even if rounds failed or the check did not pass; it is 2 when the
checkout holds no ``src/fedcox`` to measure.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import pkgutil
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CASES = 64
EXPECTED_PATH = BENCH_DIR / "expected.json"
# Measure at least this many rounds; the tail percentile is the highest of
# TAIL_LADDER that leaves ten rounds beyond it at this count.
MIN_ROUNDS = {"recovery": 100, "federated": 40, "crossdevice": 100}
TAIL_LADDER = (99, 95, 90, 75, 50)
# Keep measuring past --seconds until MIN_ROUNDS, but never past this.
MAX_MEASURE_S = 140.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "round_s_p50": "s",
    "round_s_tail": "s",
    "client_updates_per_s": "1/s",
    "heldout_loglik": "nats/seq",
    "peak_rss_mb": "MB",
    "round_fail_ratio": "ratio",
}
# heldout_loglik depends on the seed's data and round_fail_ratio is 0 on a
# healthy run, so neither suits a relative bound; both are printed and put
# in the record line, and failures also reach the result's "failed" count.
GATED = ("setup_s", "run_s", "round_s_p50", "round_s_tail",
         "client_updates_per_s", "peak_rss_mb")


def import_fedcox(root: Path) -> str | None:
    """Import fedcox and all its submodules from ``root/src``.

    Returns what went wrong, or None.  Every submodule is loaded up front
    so that tracing finds the names each one binds at import.
    """
    package = root / "src" / "fedcox"
    if not (package / "__init__.py").is_file():
        return f"no fedcox sources under {package}"
    sys.path.insert(0, str(root / "src"))
    fedcox = importlib.import_module("fedcox")
    found = Path(fedcox.__file__).resolve().parent
    if found != package.resolve():
        return f"imported fedcox from {found}, not {package}"
    for info in pkgutil.walk_packages(fedcox.__path__, "fedcox."):
        if not info.name.endswith(".__main__"):  # importing it would run it
            importlib.import_module(info.name)
    return None


def tail_percentile(min_rounds: int) -> int:
    return next(p for p in TAIL_LADDER if min_rounds * (100 - p) / 100 >= 10)


class RoundClock:
    """Times every ``orchestrator.run_round`` and keeps its result."""

    def __init__(self):
        self.rounds = []  # (start, end, RoundMetrics)
        self.theta = None

    def patch(self) -> tracing.Patch:
        from fedcox import orchestrator

        original = orchestrator.run_round

        def timed(*args, **kwargs):
            start = time.perf_counter()
            server, metrics = original(*args, **kwargs)
            self.rounds.append((start, time.perf_counter(), metrics))
            self.theta = server.theta
            return server, metrics

        return tracing.Patch([(original, timed)])


def theta_digest(theta) -> str:
    return hashlib.sha256(theta.mean.tobytes() + theta.var.tobytes()).hexdigest()


def run_episode(call, rounds: int, tracer=None) -> dict:
    """One program call; a failure ends the episode but not the run."""
    clock = RoundClock()
    error = None
    with contextlib.ExitStack() as stack:
        stack.enter_context(clock.patch())
        if tracer is not None:
            stack.enter_context(tracing.tracer_patch(tracer))
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        start = time.perf_counter()
        try:
            call()
        except Exception as exc:  # noqa: BLE001 - a failed round is a result
            traceback.print_exc()
            error = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
    first = clock.rounds[0][0] if clock.rounds else end
    final = clock.rounds[-1][2] if clock.rounds else None
    return {
        "setup_s": first - start,
        "run_s": end - first,
        "round_s": [b - a for a, b, _ in clock.rounds],
        "rounds": rounds,
        "completed": len(clock.rounds),
        "updates": sum(len(m.participant_ids) for _, _, m in clock.rounds),
        "heldout_loglik": final.mean_test_loglik if final else float("nan"),
        "theta_sha256": None if clock.theta is None else theta_digest(clock.theta),
        "error": error,
    }


def finite_or_none(value: float) -> float | None:
    return value if math.isfinite(value) else None


def check_episode(episode: dict, expected: dict | None, rel_tol: float) -> bool:
    """Complete, finite, and within tolerance of the recorded answer."""
    value = episode["heldout_loglik"]
    if episode["error"] or episode["completed"] != episode["rounds"]:
        return False
    if not math.isfinite(value) or expected is None:
        return False
    ref = expected["heldout_loglik"]
    return abs(value - ref) <= rel_tol * max(1.0, abs(ref))


def outcome(episodes, expected: dict | None, rel_tol: float):
    """(correct, attempted, failed) over the episodes after the warm-up.

    A round that did not complete failed; a complete episode whose answer
    fails the check fails all its rounds.  The run is correct when every
    episode, the warm-up too, passes and all end at the same prior.
    """
    checks = [check_episode(e, expected, rel_tol) for e in episodes]
    correct = all(checks) and len({e["theta_sha256"] for e in episodes}) == 1
    measured = list(zip(episodes[1:], checks[1:]))
    attempted = sum(e["rounds"] for e, _ in measured)
    failed = sum(
        e["rounds"] - e["completed"] or (0 if ok else e["rounds"])
        for e, ok in measured
    )
    return correct, attempted, failed


def blas_build(library) -> str:
    """Name and version of the BLAS that ``library`` was built against."""
    blas = library.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}"


def environment(root: Path) -> dict:
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        # fedcox factorizes and solves through scipy.linalg, which ships
        # its own BLAS; numpy's serves the rest.
        "numpy_blas": blas_build(np),
        "scipy_blas": blas_build(scipy),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": git_commit(root),
        "machine": platform.machine(),
    }


def git_commit(root: Path) -> str | None:
    """HEAD commit read from ``.git`` without running git; None outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def end_to_end(episodes, pct: int) -> dict:
    """Medians over episodes and rounds; 0 where no round completed."""
    rounds = [t for e in episodes for t in e["round_s"]] or [0.0]
    rates = [e["updates"] / e["run_s"] for e in episodes if e["run_s"] > 0]
    return {
        "setup_s": statistics.median(e["setup_s"] for e in episodes),
        "run_s": statistics.median(e["run_s"] for e in episodes),
        "round_s_p50": float(np.percentile(rounds, 50)),
        "round_s_tail": float(np.percentile(rounds, pct)),
        "client_updates_per_s": statistics.median(rates) if rates else 0.0,
        "heldout_loglik": episodes[-1]["heldout_loglik"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def measure(call, rounds: int, seconds: float, min_rounds: int, trace: bool):
    """Episodes for ``seconds`` (and ``min_rounds`` untraced rounds)."""
    plain, traced = [], []
    tracer = tracing.Tracer() if trace else None
    start = time.perf_counter()
    while True:
        use_tracer = trace and len(traced) < len(plain)
        episode = run_episode(call, rounds, tracer if use_tracer else None)
        (traced if use_tracer else plain).append(episode)
        elapsed = time.perf_counter() - start
        measured = sum(e["completed"] for e in plain)
        if elapsed >= MAX_MEASURE_S:
            break
        if trace:
            if elapsed >= seconds and len(traced) >= 2 and len(plain) == len(traced):
                break
        elif elapsed >= seconds and measured >= min_rounds and len(plain) >= 3:
            break
    return plain, traced, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    problem = import_fedcox(root)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]()
    case = args.seed % CASES
    record = json.loads(EXPECTED_PATH.read_text())
    expected = record["workloads"].get(args.workload, {}).get(str(case))
    min_rounds = MIN_ROUNDS[args.workload]
    pct = tail_percentile(min_rounds)

    scratch = root / ".bench_work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as workdir:
        call = workload.prepare(case, Path(workdir))
        warmup = run_episode(call, workload.rounds)
        plain, traced, tracer = measure(
            call, workload.rounds, args.seconds, min_rounds, bool(args.trace)
        )
    with contextlib.suppress(OSError):
        scratch.rmdir()

    episodes = [warmup] + plain + traced
    digests = {e["theta_sha256"] for e in episodes}
    correct, attempted, failed = outcome(episodes, expected, record["rel_tol"])
    metrics = end_to_end(plain, pct)
    metrics["round_fail_ratio"] = sum(
        e["rounds"] - e["completed"] for e in episodes[1:]
    ) / attempted
    rounds_sampled = sum(len(e["round_s"]) for e in plain)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "case": case,
        "trace": args.trace,
        "episodes": len(plain),
        "traced_episodes": len(traced),
        "rounds_per_episode": workload.rounds,
        "round_samples": rounds_sampled,
        "round_s_tail_percentile": pct,
        "heldout_loglik": finite_or_none(metrics["heldout_loglik"]),
        "heldout_loglik_expected": expected and expected["heldout_loglik"],
        "rel_tol": record["rel_tol"],
        "round_fail_ratio": metrics["round_fail_ratio"],
        "theta_sha256": sorted(d or "" for d in digests),
        "theta_matches_record": bool(expected) and digests == {expected["theta_sha256"]},
        "errors": sorted({e["error"] for e in episodes if e["error"]}),
        "env": environment(root),
    }
    for name, unit in END_TO_END_UNITS.items():
        label = f"p{pct} of {rounds_sampled}" if name == "round_s_tail" else ""
        print(f"{name:22s} {metrics[name]:.6g} {unit} {label}".rstrip())

    if args.trace:
        untraced_run = statistics.median(e["run_s"] for e in plain)
        traced_run = statistics.median(e["run_s"] for e in traced)
        rounds = sum(e["completed"] for e in traced)
        layers = tracing.layer_metrics(tracer, rounds, len(traced))
        layers["trace.overhead_ratio"] = (
            traced_run / untraced_run - 1.0 if untraced_run > 0 else 0.0
        )
        out = {k: {"value": v, "unit": tracing.PER_LAYER_UNITS[k]}
               for k, v in layers.items()}
    else:
        out = {k: {"value": metrics[k], "unit": END_TO_END_UNITS[k]} for k in GATED}
    print("record " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
