"""Spans around difflab's public functions, recorded from the benchmark's side.

The tracer wraps a fixed list of package functions and rebinds *every* name
that refers to one of them in any loaded ``difflab`` module.  ``solvers``,
``amed`` and ``geometry`` import ``eval_model`` by name, so wrapping only
``score_models.eval_model`` would miss most model calls.  Everything is put
back when the ``installed`` block ends.  ``ModelCallCounter`` uses the same
rebinding to count model calls without recording spans, for the untraced
memory pass.

A span records its name, parent, start and end (``perf_counter``), the time
covered by its direct children, the model calls made inside it and a few
per-call facts (batch rows, returned NFE).  With ``memory=True`` each span
also records its own tracemalloc peak above the memory in use when it
started; nested spans fold their peaks into the parent so resetting the
global peak at every entry loses nothing.
"""

from __future__ import annotations

import importlib
import inspect
import math
import os
import sys
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np

# (module under difflab, attribute path, span name)
TARGETS = (
    ("score_models", "eval_model", "eval_model"),
    ("score_models", "oracle_solve", "oracle_solve"),
    ("solvers", "sample", "sample"),
    ("amed", "amed_sample", "amed_sample"),
    ("amed", "train", "train"),
    ("amed", "step_loss_grad", "step_loss_grad"),
    ("amed", "AdamState.update", "adam_update"),
    ("geometry", "pca_trajectory", "pca"),
    ("geometry", "grid_align", "grid_align"),
    ("metrics", "sliced_wasserstein", "sliced_w2"),
    ("metrics", "order_estimate", "order_estimate"),
    ("trajectory", "write_trajectory_csv", "csv_write"),
    ("trajectory", "read_trajectory_csv", "csv_read"),
    ("harness", "run_experiment", "run_experiment"),
)


@contextmanager
def rebind(wrap):
    """Replace every alias of every target in the loaded difflab modules.

    wrap(span_name, function) returns the replacement, or None to leave that
    target alone.  All aliases are restored when the block ends.
    """
    modules = [m for n, m in list(sys.modules.items()) if n == "difflab" or n.startswith("difflab.")]
    saved = []
    try:
        for modname, path, name in TARGETS:
            owner = importlib.import_module(f"difflab.{modname}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            orig = getattr(owner, attr)
            replacement = wrap(name, orig)
            if replacement is None:
                continue
            for holder in [owner] + modules:
                for key, val in list(vars(holder).items()):
                    if val is orig:
                        saved.append((holder, key, val))
                        setattr(holder, key, replacement)
        yield
    finally:
        for holder, key, val in reversed(saved):
            setattr(holder, key, val)


class ModelCallCounter:
    """Counts eval_model calls with no per-call allocation that outlives the call."""

    def __init__(self):
        self.calls = 0

    def _wrap(self, name, fn):
        if name != "eval_model":
            return None

        def counted(*args, **kwargs):
            self.calls += 1
            return fn(*args, **kwargs)

        return counted

    def installed(self):
        return rebind(self._wrap)


class Span:
    __slots__ = ("name", "parent", "t0", "t1", "child_s", "calls0", "calls", "info", "base", "peak")

    def __init__(self, name, parent, calls0):
        self.name, self.parent, self.calls0 = name, parent, calls0
        self.t0 = self.t1 = 0.0
        self.child_s = 0.0
        self.calls = 0
        self.info = None
        self.base = self.peak = 0

    @property
    def dur(self) -> float:
        return self.t1 - self.t0

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s


class Tracer:
    """Collects spans in memory while ``installed`` is active."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[Span] = []
        self.model_calls = 0
        self.call_checks: list[tuple[str, bool, str]] = []
        self._open: list[Span] = []

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, name) -> Span:
        parent = self._open[-1] if self._open else None
        sp = Span(name, parent, self.model_calls)
        if self.memory:
            cur, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent.peak = max(parent.peak, peak)
            tracemalloc.reset_peak()
            sp.base = sp.peak = cur
        self.spans.append(sp)
        self._open.append(sp)
        sp.t0 = time.perf_counter()
        return sp

    def _exit(self, sp: Span) -> None:
        sp.t1 = time.perf_counter()
        popped = self._open.pop()
        if popped is not sp:
            raise RuntimeError(f"span {sp.name} closed out of order")
        sp.calls = self.model_calls - sp.calls0
        if sp.parent is not None:
            sp.parent.child_s += sp.dur
        if self.memory:
            sp.peak = max(sp.peak, tracemalloc.get_traced_memory()[1])
            if sp.parent is not None:
                sp.parent.peak = max(sp.parent.peak, sp.peak)

    def _wrap(self, name, fn):
        hook = getattr(self, f"_after_{name}", None)
        sig = inspect.signature(fn) if name == "oracle_solve" else None

        def traced(*args, **kwargs):
            sp = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(sp)
            if hook is not None:
                hook(sp, sig.bind(*args, **kwargs) if sig else args, result)
            return result

        return traced

    # -- per-function facts and exact call-count checks --------------------

    def _after_eval_model(self, sp, args, result):
        model = args[0]
        rows = math.prod(np.shape(args[1])[:-1])
        sp.info = (rows, rows * model.n_components * model.dim)
        self.model_calls += 1  # parents read the counter when they close
        sp.calls = 1

    def _after_sample(self, sp, args, traj):
        sp.info = (traj.nfe, len(traj.nodes) - 1)
        self.call_checks.append(
            (f"{sp.name} model calls == Trajectory.nfe", sp.calls == traj.nfe,
             f"counted {sp.calls}, nfe {traj.nfe}"))

    _after_amed_sample = _after_sample

    def _after_oracle_solve(self, sp, bound, traj):
        bound.apply_defaults()
        expected = 4 * bound.arguments["substeps"] * (bound.arguments["schedule"].n - 1)
        self.call_checks.append(
            ("oracle_solve model calls == 4*substeps*intervals", sp.calls == expected,
             f"counted {sp.calls}, expected {expected}"))

    def _after_csv_write(self, sp, args, result):
        sp.info = os.path.getsize(args[1])

    def installed(self):
        """Trace every target while the returned context is active."""
        return rebind(self._wrap)

    def run(self, fn, *args):
        """Run fn inside a root span named 'pass'; returns (result, root span)."""
        sp = self._enter("pass")
        try:
            result = fn(*args)
        finally:
            self._exit(sp)
        return result, sp


MIB = 2.0**20


def layer_metrics(tr: Tracer, wall: float) -> dict:
    """Per-layer figures of one traced pass whose root span is tr.spans[0]."""
    by = {}
    for sp in tr.spans[1:]:
        by.setdefault(sp.name, []).append(sp)

    def spans(name):
        return by.get(name, [])

    def total(name, attr="dur"):
        return sum(getattr(sp, attr) for sp in spans(name))

    def calls(name):
        return sum(sp.calls for sp in spans(name))

    ev = spans("eval_model")
    ev_s = total("eval_model")
    b1 = [sp.dur for sp in ev if sp.info[0] == 1]
    samp = spans("sample")
    intervals = sum(sp.info[1] for sp in samp)
    updates = len(spans("adam_update"))
    n_pca = len(spans("pca"))
    return {
        "eval_model.calls": len(ev),
        "eval_model.rows": sum(sp.info[0] for sp in ev),
        "eval_model.s": ev_s,
        "eval_model.us_per_call": 1e6 * ev_s / len(ev) if ev else 0.0,
        "eval_model.batch1_us_per_call": 1e6 * sum(b1) / len(b1) if b1 else 0.0,
        "eval_model.elems_per_s": sum(sp.info[1] for sp in ev) / ev_s if ev else 0.0,
        "oracle_solve.s": total("oracle_solve"),
        "oracle_solve.self_s": total("oracle_solve", "self_s"),
        "oracle_solve.model_calls": calls("oracle_solve"),
        "oracle_solve.share": total("oracle_solve") / wall,
        "sample.s": total("sample"),
        "sample.self_s": total("sample", "self_s"),
        "sample.self_us_per_interval": 1e6 * total("sample", "self_s") / intervals if intervals else 0.0,
        "sample.model_calls": calls("sample"),
        "sample.nfe_accounted": sum(sp.info[0] for sp in samp),
        "train.s": total("train"),
        "train.updates": updates,
        "train.model_calls_per_update": calls("train") / updates if updates else 0.0,
        "train.teacher_s": sum(sp.dur for sp in samp if sp.parent.name == "train"),
        "train.step_loss_grad_s": total("step_loss_grad"),
        "train.step_loss_grad.self_s": total("step_loss_grad", "self_s"),
        "train.adam_s": total("adam_update"),
        "amed_sample.s": total("amed_sample"),
        "amed_sample.model_calls": calls("amed_sample"),
        "pca.s": total("pca"),
        "pca.ms_per_call": 1e3 * total("pca") / n_pca if n_pca else 0.0,
        "grid_align.s": total("grid_align"),
        "grid_align.self_s": total("grid_align", "self_s"),
        "grid_align.model_calls": calls("grid_align"),
        "sliced_w2.s": total("sliced_w2"),
        "order_estimate.s": total("order_estimate"),
        "csv.write_s": total("csv_write"),
        "csv.read_s": total("csv_read"),
        "csv.bytes": sum(sp.info for sp in spans("csv_write")),
        "run_experiment.self_s": total("run_experiment", "self_s"),
        "trace.unattributed_s": tr.spans[0].self_s,
    }


def peak_metrics(tr: Tracer) -> dict:
    """Largest single-call tracemalloc peaks of a memory-mode pass."""

    def peak(name):
        return max((sp.peak - sp.base for sp in tr.spans if sp.name == name), default=0) / MIB

    return {"eval_model.peak_mib": peak("eval_model"), "sample.peak_mib": peak("sample")}


def accounting(tr: Tracer, wall: float):
    """(covered seconds, nesting problems): layer self times plus unattributed."""
    problems = []
    for sp in tr.spans[1:]:
        p = sp.parent
        if not (p.t0 <= sp.t0 <= sp.t1 <= p.t1):
            problems.append(f"{sp.name} not inside {p.name}")
    for sp in tr.spans:
        if sp.self_s < -1e-9:
            problems.append(f"{sp.name} has negative self time {sp.self_s}")
    covered = sum(sp.self_s for sp in tr.spans[1:]) + tr.spans[0].self_s
    return covered, problems
