"""Experiment orchestration: configs, batch runs, metrics files.

``run_experiment`` samples a batch of trajectories per (solver, NFE) pair,
scores endpoints against a high-accuracy reference and against exact draws
from the data distribution, and writes a CSV table plus a JSON report.  All
randomness derives from the config seed through named streams, so reruns are
byte-identical; wall-clock timings are therefore kept out of the report files
and written to a separate sidecar.
"""

from __future__ import annotations

import os
import platform
import time
from contextlib import contextmanager
from dataclasses import asdict, astuple, dataclass, field, fields
from functools import partial

import numpy as np

from .metrics import order_estimate, sliced_wasserstein
from .rng import _is_int, stream
from .schedules import SCHEDULE_KINDS, make_schedule
from .score_models import ORACLE_NODES, ORACLE_SUBSTEPS, GaussianMixture, _is_number, _read_json, _write_json
from .score_models import load_model, reference_solve, sample_data
from .solvers import SolverKind, _current, _run, parse_solver_spec, substep
from .trajectory import write_csv

ENV_OUTDIR = "DIFFLAB_OUTDIR"


class ConfigError(ValueError):
    """Invalid or internally inconsistent run configuration."""


def nfe_to_steps(kind: SolverKind, nfe: int, afs: bool) -> int:
    """Number of schedule nodes N that makes ``kind`` consume exactly nfe evals.

    One identity covers every solver: N nodes cost e * (N - 1) model calls,
    e = ``kind.evals_per_interval``, one fewer with the analytic first step;
    a budget that no N meets (the wrong parity at e = 2) raises ConfigError.
    """
    if nfe < 1:
        raise ConfigError("NFE must be positive")
    intervals, rest = divmod(nfe + afs, kind.evals_per_interval)
    if rest:
        parity, with_afs = ("odd", "with") if afs else ("even", "without")
        raise ConfigError(f"{kind.label()} {with_afs} the analytic first step takes {parity} NFE only; got {nfe}")
    return intervals + 1


@dataclass(frozen=True)
class RunConfig:
    """One batch experiment over a grid of solvers and NFE budgets; what to measure, not how.

    Construction checks each key's whole rule, type and range, for JSON files and Python callers alike.
    """

    model: str | GaussianMixture
    solvers: tuple
    nfe: tuple = (8, 16, 32, 64)
    schedule_kind: str = "polynomial"
    rho: float = 7.0
    t_min: float = 0.002
    t_max: float = 80.0
    afs: bool = False
    batch: int = 64
    seed: int = 0
    outdir: str | None = None
    oracle_substeps = ORACLE_SUBSTEPS  # the reference's certified setting, not fields: no run sets them
    oracle_nodes = ORACLE_NODES

    def __post_init__(self):
        solvers = tuple(self.solvers)
        labels = [kind.label() for kind in solvers]
        t_max_ok = _is_number(self.t_max) and self.t_max < np.inf  # t_min's rule compares against t_max
        for key, ok, want in (
            ("nfe", isinstance(self.nfe, (list, tuple)) and self.nfe and all(_is_int(v) and v >= 1 for v in self.nfe)
             and len(set(self.nfe)) == len(self.nfe), "a non-empty list of distinct positive integers"),
            ("batch", _is_int(self.batch) and self.batch >= 1, "an integer, at least 1"),
            ("seed", _is_int(self.seed) and self.seed >= 0, "a non-negative integer"),
            ("schedule_kind", self.schedule_kind in SCHEDULE_KINDS, f"one of {list(SCHEDULE_KINDS)}"),
            ("t_max", t_max_ok, "a finite number"),
            ("t_min", t_max_ok and _is_number(self.t_min) and 0 < self.t_min < self.t_max,
             f"a positive number below t_max ({self.t_max!r})"),
            ("rho", _is_number(self.rho) and 0 < self.rho < np.inf, "a positive finite number"),
            ("afs", isinstance(self.afs, bool), "true or false"),
            ("outdir", self.outdir is None or isinstance(self.outdir, (str, os.PathLike)), "a string"),
            ("solvers", len(set(labels)) == len(labels), "solvers with distinct labels"),
        ):
            if not ok:
                got = labels if key == "solvers" else getattr(self, key)
                raise ConfigError(f"config key {key!r} must be {want}; got {got!r}")
        if not solvers:
            raise ConfigError("need at least one solver")
        object.__setattr__(self, "nfe", tuple(int(v) for v in self.nfe))
        object.__setattr__(self, "solvers", solvers)
        for kind in solvers:
            for nfe in self.nfe:
                nfe_to_steps(kind, nfe, self.afs)  # raises on parity conflicts


@dataclass
class RunEntry:
    solver: str
    nfe: int
    steps: int
    mean_endpoint_l2: float
    sliced_w2: float
    nfe_observed: int


@dataclass
class MetricsReport:
    entries: list = field(default_factory=list)
    orders: dict = field(default_factory=dict)
    reference: dict = field(default_factory=dict)
    wallclock: dict = field(default_factory=dict)

    def to_doc(self) -> dict:
        # wall-clock deliberately excluded: report files are byte-deterministic
        return {"entries": [asdict(e) for e in self.entries], "orders": self.orders, "reference": self.reference}


def _lockstep(model, kinds, x, t_hi, t_lo, carry, eps_cur=None):
    """One interval of a group's rows, stacked on axis 0: one model call at t_hi, then each row's substep on its slope.

    The slope rows this call made take the next states (an injected slope is read-only); ipndm's history keeps copies.
    """
    eps, n = _current(model, x, t_hi, eps_cur)
    x_next, calls, carry = eps if n else np.empty_like(eps), np.full(len(kinds), n), list(carry or [None] * len(kinds))
    for j, kind in enumerate(kinds):
        slope = eps[j].copy() if kind.tag == "ipndm" and kind.order > 1 else eps[j]
        x_next[j], m, carry[j] = substep(model, kind, x[j], t_hi, t_lo, carry[j], eps_cur=slope)
        calls[j] += m
    return x_next, calls, carry


def _environment() -> dict:
    """Python, numpy and BLAS build of this process (the field names of perfbench's fingerprint)."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas_name": blas.get("name"), "blas_version": blas.get("version")}


@contextmanager
def _phase(wallclock: dict, name: str):
    """Add the wall time of the block to ``wallclock[name]``."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        wallclock[name] = wallclock.get(name, 0.0) + time.perf_counter() - t0


def run_experiment(cfg: RunConfig) -> MetricsReport:
    """Run the configured grid and (optionally) persist CSV/JSON reports.

    The reference is one ``reference_solve`` on ``certified_grid``'s two end
    nodes, whatever the run's schedule: it integrates exactly that grid and
    keeps only x_T and the endpoint.  ``report.reference`` holds the error
    estimate it returns (0.98x the error against 256 substeps on gmm2_d8,
    0.65x on gmm4_d16) and that estimate's ratio to the smallest row's mean
    endpoint error.  Rows with one node count and calls per interval walk in
    lockstep, one model call per interval serving all their slopes, keep their
    newest states only and are scored when the walk ends: memory grows with a
    group's rows, not with NFE or the reference grid.  The data sample is drawn
    after the reference, so the reference's state pair and the data are never
    held at once.  ``report.wallclock`` (and ``timing.json``) holds the seconds
    spent on model, output directory, input draw, reference ends and data draw
    (``setup``), the reference's two runs walked as one (``oracle``), each
    group's schedule and walk (its rows' ``<label>@<nfe>``
    joined by ``+``), endpoint errors, sliced W2 and order fits (``metrics``),
    the CSV and JSON reports (``write``) and the call up to the sidecar
    (``total``), plus ``environment``.
    """
    start = time.perf_counter()
    report = MetricsReport()
    with _phase(report.wallclock, "setup"):
        model = load_model(cfg.model) if isinstance(cfg.model, (str, os.PathLike)) else cfg.model
        outdir = cfg.outdir or os.environ.get(ENV_OUTDIR)
        if outdir:
            os.makedirs(outdir, exist_ok=True)
        x_T = stream(cfg.seed, "x_T").standard_normal((cfg.batch, model.dim)) * cfg.t_max
        ref_ends = make_schedule("polynomial", 2, cfg.t_min, cfg.t_max)  # certified_grid's two ends

    with _phase(report.wallclock, "oracle"):
        ref = reference_solve(model, x_T, ref_ends)
    with _phase(report.wallclock, "setup"):  # after the reference, which then never holds the data
        data = sample_data(model, cfg.batch, stream(cfg.seed, "data"))

    rows = [(kind, nfe) for kind in cfg.solvers for nfe in cfg.nfe]  # the report's order
    groups, entries = {}, {}  # the rows of one schedule and calls per interval walk in lockstep, keyed by both
    for kind, nfe in rows:
        groups.setdefault((nfe_to_steps(kind, nfe, cfg.afs), kind.evals_per_interval), []).append((kind, nfe))
    for (n, _), group in groups.items():
        name = "+".join(f"{kind.label()}@{nfe}" for kind, nfe in group)
        with _phase(report.wallclock, name):
            schedule = make_schedule(cfg.schedule_kind, n, cfg.t_min, cfg.t_max, rho=cfg.rho)
            walk = _run(model, partial(_lockstep, model, [kind for kind, _ in group]), schedule,
                        np.broadcast_to(x_T, (len(group),) + x_T.shape), cfg.afs, name)
            for _, ends, nfe_observed in walk:
                pass  # only the newest states are kept
        with _phase(report.wallclock, "metrics"):  # now, and by index: a view of the ends would keep the stack alive
            for j, ((kind, nfe), observed) in enumerate(zip(group, nfe_observed.tolist())):
                err = float(np.mean(np.linalg.norm(ends[j] - ref.endpoint, axis=-1)))
                sw = sliced_wasserstein(ends[j], data, seed=cfg.seed)
                entries[kind, nfe] = RunEntry(kind.label(), nfe, n, err, sw, observed)
    report.entries = [entries[row] for row in rows]
    with _phase(report.wallclock, "metrics"):
        for kind in cfg.solvers:
            errs = [(nfe, entries[kind, nfe].mean_endpoint_l2) for nfe in cfg.nfe]
            report.orders[kind.label()] = order_estimate(errs) if len(errs) >= 3 else None

    report.reference = {"substeps": ORACLE_SUBSTEPS, "error_estimate": ref.error_estimate,
                        "ratio_to_best": ref.error_estimate / min(e.mean_endpoint_l2 for e in report.entries)}
    if outdir:
        with _phase(report.wallclock, "write"):
            header = [f.name for f in fields(RunEntry)]
            write_csv(os.path.join(outdir, "metrics.csv"), header, map(astuple, report.entries))
            _write_json(os.path.join(outdir, "metrics.json"), report.to_doc(), indent=2)
    report.wallclock["total"] = time.perf_counter() - start
    if outdir:
        _write_json(os.path.join(outdir, "timing.json"), {**report.wallclock, "environment": _environment()}, indent=2)
    return report


def load_run_config(path) -> RunConfig:
    """Read a flat key-value JSON config document; a fault raises ConfigError naming path."""
    doc = _read_json(path, ConfigError)
    try:
        unknown = set(doc) - {f.name for f in fields(RunConfig)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "model" not in doc or "solvers" not in doc:
            raise ConfigError("config must name a model file and a solver list")
        if not isinstance(doc["model"], str):
            raise ConfigError(f"config key 'model' must be a string; got {doc['model']!r}")
        if not (isinstance(doc["solvers"], list) and all(isinstance(s, str) for s in doc["solvers"])):
            raise ConfigError(f"config key 'solvers' must be a list of strings; got {doc['solvers']!r}")
        return RunConfig(**{**doc, "solvers": tuple(parse_solver_spec(s) for s in doc["solvers"])})
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from None
