"""In-memory spans and counters around the public functions of fedcox.

A :class:`Tracer` replaces each traced function with a wrapper that opens
a span, calls the original and closes the span.  Names bound at import
(``orchestrator.aggregate``, ``client.chol_factor_jittered``,
``cli.run_training``, ...) are found by identity in every loaded fedcox
module, so a call reaches the wrapper whichever module it is looked up in.
Each thread keeps its own stack of open spans; a span opened by a worker
thread inside a round is a child of the round.  Spans and counters stay in
memory; :func:`layer_metrics` reduces them when the run ends.
"""
from __future__ import annotations

import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

ROUND_SPAN = "orchestrator.round"


def fedcox_modules() -> list:
    """Every loaded module that is ``fedcox`` or inside it."""
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "fedcox" or name.startswith("fedcox."))
    ]


@dataclass
class Span:
    """One traced call: ``parent`` indexes the enclosing span, if any."""

    name: str
    start: float
    end: float
    parent: int | None
    round: int | None


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [
        (s.end - s.start) - covered(children[i], s.start, s.end)
        for i, s in enumerate(spans)
    ]


def outermost(spans, name: str) -> list[int]:
    """Indices of ``name`` spans with no ``name`` span above them."""
    keep = []
    for i, span in enumerate(spans):
        if span.name != name:
            continue
        parent = span.parent
        while parent is not None and spans[parent].name != name:
            parent = spans[parent].parent
        if parent is None:
            keep.append(i)
    return keep


class Tracer:
    """Span and counter store plus the wrappers that feed it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        # Counts made inside rounds and outside them (set-up, saving).
        self.round_counters: dict = defaultdict(float)
        self.call_counters: dict = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._round = None  # id of the open round
        self._round_span = None  # its span index
        self._rounds_seen = 0

    def _stack(self) -> list[int]:
        """The calling thread's open spans."""
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name: str) -> int:
        stack = self._stack()
        with self._lock:
            if name == ROUND_SPAN:
                self._round = self._rounds_seen
                self._rounds_seen += 1
            parent = stack[-1] if stack else self._round_span
            self.spans.append(
                Span(name, self.clock(), float("nan"), parent, self._round)
            )
            index = len(self.spans) - 1
            if name == ROUND_SPAN:
                self._round_span = index
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self._stack().pop()
        with self._lock:
            self.spans[index].end = self.clock()
            if self.spans[index].name == ROUND_SPAN:
                self._round = self._round_span = None

    def wrap(self, func, name: str, count=None):
        """Wrapper that records a ``name`` span and, on success, counts."""
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.close(index)
            if count is not None:
                with self._lock:
                    in_round = self._round is not None
                    count(self.round_counters if in_round else self.call_counters,
                          args, kwargs, result)
            return result

        traced.__wrapped__ = func
        return traced


class Patch:
    """Swap functions for wrappers at every fedcox binding; undo on exit."""

    def __init__(self, replacements):
        self.replacements = replacements  # [(original, wrapper)]
        self._undo = []

    def __enter__(self):
        modules = fedcox_modules()
        for original, wrapper in self.replacements:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._undo.append((module, attr, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()
        return False


# ----------------------------------------------------------------------
# What is traced, and how spans and counters become per-layer metrics
# ----------------------------------------------------------------------

def _count_rows(counters, args, kwargs, result):
    counters["kernel.embed_rows"] += np.size(args[0])


def _count_chol(counters, args, kwargs, result):
    from fedcox.numerics import JITTER_START

    baseline = kwargs.get("baseline", args[2] if len(args) > 2 else False)
    scale = float(np.mean(np.diag(np.asarray(args[0]))))
    if not np.isfinite(scale) or scale <= 0:
        scale = 1.0
    # The ladder's first rung is free with baseline=True; any larger jitter
    # means at least one factorization failed and was retried.
    counters["numerics.chol_clean"] += result[1] <= (
        JITTER_START * scale if baseline else 0.0
    )


def _count_uploads(counters, args, kwargs, result):
    phis = args[1]
    counters["aggregation.records"] += len(phis)
    counters["orchestrator.upload_bytes"] += sum(
        p.mean.nbytes + p.var.nbytes for p in phis
    )


def _count_simulated(counters, args, kwargs, result):
    counters["dataio.events_in"] += sum(len(s) for s in result[0])


def _count_loaded(counters, args, kwargs, result):
    counters["dataio.events_in"] += sum(len(s) for s in result)


# (module, function, span name, counter).  Span names are layer.phase; the
# per-layer time metric of a span name is that name plus "_s".
TRACE_POINTS = (
    ("fedcox.orchestrator", "run_round", ROUND_SPAN, None),
    ("fedcox.client", "clone_state", "orchestrator.clone", None),
    ("fedcox.client", "client_update", "client.update", None),
    ("fedcox.client", "update_pg", "client.sweep", None),
    ("fedcox.client", "update_latent_pp", "client.sweep", None),
    ("fedcox.client", "update_inducing", "client.sweep", None),
    ("fedcox.client", "update_scale", "client.sweep", None),
    ("fedcox.client", "local_objective_grad", "client.grad", None),
    ("fedcox.client", "elbo", "client.elbo", None),
    ("fedcox.client", "test_loglik", "client.eval", None),
    ("fedcox.kernel", "embed", "kernel.embed", _count_rows),
    ("fedcox.kernel", "embed_with_tape", "kernel.embed", _count_rows),
    ("fedcox.kernel", "accumulate_param_grad", "kernel.param_grad", None),
    ("fedcox.numerics", "chol_factor_jittered", "numerics.chol", _count_chol),
    ("fedcox.aggregation", "aggregate", "aggregation.aggregate", _count_uploads),
    ("fedcox.dataio", "simulate_client", "dataio.simulate", _count_simulated),
    ("fedcox.dataio", "load_jsonl", "dataio.ingest", _count_loaded),
    ("fedcox.dataio", "normalize_and_split", "dataio.split", None),
    ("fedcox.dataio", "partition_heterogeneous", "dataio.split", None),
    ("fedcox.cli", "load_config", "cli.config", None),
    ("fedcox.cli", "fed_config", "cli.config", None),
    ("fedcox.cli", "save_model", "cli.save_model", None),
)

PER_LAYER_UNITS = {
    "client.update_s": "s",
    "client.sweep_s": "s",
    "client.grad_s": "s",
    "client.grad_calls": "count",
    "client.elbo_s": "s",
    "client.eval_s": "s",
    "client.eval_calls": "count",
    "kernel.embed_s": "s",
    "kernel.embed_rows": "count",
    "kernel.param_grad_s": "s",
    "numerics.chol_calls": "count",
    "numerics.chol_s": "s",
    "numerics.chol_clean_ratio": "ratio",
    "aggregation.aggregate_s": "s",
    "aggregation.records": "count",
    "orchestrator.round_s": "s",
    "orchestrator.clone_s": "s",
    "orchestrator.self_s": "s",
    "orchestrator.upload_bytes": "bytes",
    "dataio.simulate_s": "s",
    "dataio.ingest_s": "s",
    "dataio.split_s": "s",
    "dataio.events_in": "count",
    "cli.config_s": "s",
    "cli.save_model_s": "s",
    "trace.overhead_ratio": "ratio",
}

# Layers that work outside rounds are reported per program call; all
# others per round, from the spans inside rounds only.
PER_CALL_LAYERS = ("dataio.", "cli.")


def tracer_patch(tracer: Tracer) -> Patch:
    replacements = []
    for module, func, span, count in TRACE_POINTS:
        original = getattr(sys.modules[module], func)
        replacements.append((original, tracer.wrap(original, span, count)))
    return Patch(replacements)


def layer_metrics(tracer: Tracer, rounds: int, calls: int) -> dict:
    """Per-layer figures: per round inside rounds, per call outside them."""
    spans = tracer.spans
    out = {}
    for name in dict.fromkeys(point[2] for point in TRACE_POINTS):
        per_call = name.startswith(PER_CALL_LAYERS)
        indices = [
            i for i in outermost(spans, name)
            if (spans[i].round is None) == per_call
        ]
        total = sum(spans[i].end - spans[i].start for i in indices)
        out[f"{name}_s"] = total / max(calls if per_call else rounds, 1)
    per_round = 1.0 / max(rounds, 1)
    selfs = self_times(spans)
    out["orchestrator.self_s"] = per_round * sum(
        selfs[i] for i, s in enumerate(spans) if s.name == ROUND_SPAN
    )

    def in_rounds(name):
        return sum(1 for s in spans if s.name == name and s.round is not None)

    chol_calls = in_rounds("numerics.chol")
    out["client.grad_calls"] = per_round * in_rounds("client.grad")
    out["client.eval_calls"] = per_round * in_rounds("client.eval")
    out["numerics.chol_calls"] = per_round * chol_calls
    c = tracer.round_counters
    out["numerics.chol_clean_ratio"] = (
        c["numerics.chol_clean"] / chol_calls if chol_calls else 1.0
    )
    out["kernel.embed_rows"] = per_round * c["kernel.embed_rows"]
    out["aggregation.records"] = per_round * c["aggregation.records"]
    out["orchestrator.upload_bytes"] = per_round * c["orchestrator.upload_bytes"]
    out["dataio.events_in"] = tracer.call_counters["dataio.events_in"] / max(calls, 1)
    return out
