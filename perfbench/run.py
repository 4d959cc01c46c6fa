"""difflab benchmark: one workload, end-to-end or per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload eval --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): eval, train, analysis, highdim.  Inputs come
from --seed through difflab.rng.stream.

--trace 0 measures the end-to-end metrics with tracing off:
  setup_s      median, over SETUP_PROBES fresh interpreters (half before the
               timed passes, half after), of import plus workload set-up
               (config and model load, schedules, inputs)
  wall_ticks   median, over the timed passes made in --seconds, of the
               pass's wall time net of the ticker's ticks, times the mean
               tick rate during that pass (ticker.py): the pass time in
               ticks.  The host's CPU speed swings too much for raw seconds
               to repeat between runs; the tick, run every 5 ms through the
               pass, cancels most of that swing
  peak_mib     tracemalloc peak of one untimed pass
  model_calls  eval_model calls counted in that same pass
The raw median pass time (wall_s) is printed too, and the analysis
workload prints the batch-1 dump latency (p50, p95).

--trace 1 alternates untraced and traced passes for --seconds and reports
the per-layer metrics of BENCHMARK.json (medians over the traced passes; the
largest single-call memory peaks come from one traced tracemalloc pass).  It
checks exact model-call counts under every sample, amed_sample and
oracle_solve span, and that layer self times plus unattributed time cover
each traced pass's wall time within 5%.

Both modes run the workload's correctness checks.  Human-readable lines go
first; the last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  A fuller record (environment and shape
fingerprint, pass times, failures, and the spans of the last traced pass)
is written to perfbench/results/.  All scratch output goes to
perfbench/_work/ and is removed before exit.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import bootstrap
import ticker as ticking

HERE = Path(__file__).resolve().parent
ROOT = bootstrap.ROOT
WORK = HERE / "_work"
RESULTS = HERE / "results"
SETUP_PROBES = 6
MIN_PASSES = 3
ACCOUNTING_TOLERANCE = 0.05
# Files the benchmark must leave byte-identical.
GUARDED = ("out/eval_example", "configs")


def tree_digest() -> str:
    h = hashlib.sha256()
    for rel in GUARDED:
        base = ROOT / rel
        for path in sorted(p for p in base.rglob("*") if p.is_file()) if base.is_dir() else []:
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def probe_setup(workload: str, seed: int, workdir: Path) -> float:
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(workdir)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def timed_pass(wl, ticker=None):
    wl.tidy()
    gc.collect()
    with ticker.running() if ticker else contextlib.nullcontext():
        t0 = time.perf_counter()
        out = wl.run()
        wall = time.perf_counter() - t0
    return out, wall


def percentile(values, q):
    """q-th percentile (0 < q < 100) with linear interpolation between ranks."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure_untraced(args, wl_cls, workdir, checks, tracer):
    setups = [probe_setup(args.workload, args.seed, workdir) for _ in range(SETUP_PROBES // 2)]
    wl = wl_cls(args.seed, ROOT, workdir)

    # Untimed first pass: memory peak and model calls; also warms every path.
    counter = tracer.ModelCallCounter()
    gc.collect()
    tracemalloc.start()
    try:
        with counter.installed():
            out = wl.run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    wl.check(out, checks)
    ref = wl.digest(out)

    ticker = ticking.Ticker()
    walls, rels, tick_us, latencies = [], [], [], []
    end = time.perf_counter() + args.seconds
    while len(walls) < MIN_PASSES or time.perf_counter() < end:
        out, wall = timed_pass(wl, ticker)
        walls.append(wall)
        rels.append(ticker.relative(wall))
        tick_us.append(1e6 * statistics.median(ticker.ticks))
        wl.check(out, checks)
        checks("same seed gives the same outputs", wl.digest(out) == ref)
        if args.workload == "analysis":
            latencies += out["latency_s"]
    wl.final_checks(out, checks)
    setups += [probe_setup(args.workload, args.seed, workdir) for _ in range(SETUP_PROBES - len(setups))]

    metrics = {
        "setup_s": statistics.median(setups),
        "wall_ticks": statistics.median(rels),
        "peak_mib": peak / tracer.MIB,
        "model_calls": counter.calls,
    }
    extra = {"wall_s": statistics.median(walls), "setup_s_samples": setups, "pass_walls_s": walls,
             "pass_ticks": rels, "tick_us": tick_us}
    if latencies:
        extra["dump_ms_p50"] = 1e3 * statistics.median(latencies)
        extra["dump_ms_p95"] = 1e3 * percentile(latencies, 95)
        extra["dumps"] = len(latencies)
    return wl, metrics, extra, None


def measure_traced(args, wl_cls, workdir, checks, tracer):
    wl = wl_cls(args.seed, ROOT, workdir)

    def call_checks(tr):
        for name, ok, detail in tr.call_checks:
            checks(name, ok, detail)

    # Untimed first pass with per-span memory peaks; also warms every path.
    mem = tracer.Tracer(memory=True)
    gc.collect()
    tracemalloc.start()
    try:
        with mem.installed():
            out, _ = mem.run(wl.run)
    finally:
        tracemalloc.stop()
    call_checks(mem)
    wl.check(out, checks)
    ref = wl.digest(out)
    peaks = tracer.peak_metrics(mem)
    del mem

    plain, traced, per_pass = [], [], []
    end = time.perf_counter() + args.seconds
    while len(traced) < MIN_PASSES or time.perf_counter() < end:
        out, wall = timed_pass(wl)
        plain.append(wall)
        wl.check(out, checks)

        tr = tracer.Tracer()
        wl.tidy()
        gc.collect()
        with tr.installed():
            t0 = time.perf_counter()
            out, _ = tr.run(wl.run)
            wall = time.perf_counter() - t0
        traced.append(wall)
        wl.check(out, checks)
        checks("same seed gives the same outputs", wl.digest(out) == ref)
        call_checks(tr)
        covered, problems = tracer.accounting(tr, wall)
        checks("spans nest inside their parents", not problems, "; ".join(problems[:3]))
        gap = abs(covered - wall) / wall
        checks("self times plus unattributed cover the traced wall within 5%",
               gap <= ACCOUNTING_TOLERANCE, f"covered {covered:.6g} s of {wall:.6g} s")
        per_pass.append(tracer.layer_metrics(tr, wall))
    wl.final_checks(out, checks)

    metrics = {k: statistics.median_low(p[k] for p in per_pass) for k in per_pass[0]}
    metrics.update(peaks)
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(plain) - 1.0
    extra = {"untraced_walls_s": plain, "traced_walls_s": traced}
    return wl, metrics, extra, tr


def span_rows(tr):
    """Compact span list: [name, parent index, start s, end s, model calls]."""
    index = {id(sp): i for i, sp in enumerate(tr.spans)}
    t_base = tr.spans[0].t0
    return [[sp.name, index[id(sp.parent)] if sp.parent else -1,
             sp.t0 - t_base, sp.t1 - t_base, sp.calls] for sp in tr.spans]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="difflab benchmark")
    ap.add_argument("--workload", required=True, choices=("eval", "train", "analysis", "highdim"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bootstrap.pin_blas_threads()
    bootstrap.import_difflab()
    import tracer
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    guarded = tree_digest()
    checks = workloads.Checks()
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        measure = measure_traced if args.trace else measure_untraced
        wl, metrics, extra, last_trace = measure(args, workloads.WORKLOADS[args.workload], workdir, checks, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    checks("out/eval_example and configs unchanged", tree_digest() == guarded)

    if set(metrics) != set(units):
        raise SystemExit(f"benchmark: metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")

    env = bootstrap.fingerprint()
    failed = len(checks.failures)
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# env " + json.dumps(env))
    print("# shape " + json.dumps(wl.shape))
    for name, unit in units.items():
        print(f"{name} = {metrics[name]!r} {unit}")
    if "wall_s" in extra:
        print(f"wall_s = {extra['wall_s']!r} s (median of {len(extra['pass_walls_s'])} passes)")
    for name in ("dump_ms_p50", "dump_ms_p95"):
        if name in extra:
            print(f"{name} = {extra[name]!r} ms (over {extra['dumps']} dumps)")
    print(f"fail_ratio = {failed / checks.attempted!r} ({failed} failed of {checks.attempted} checks)")
    for msg in checks.failures[:20]:
        print(f"FAILED {msg}", file=sys.stderr)

    record = {"args": vars(args), "env": env, "shape": wl.shape, "metrics": metrics, "extra": extra,
              "checks": {"attempted": checks.attempted, "failed": failed, "failures": checks.failures}}
    if last_trace is not None:
        record["spans"] = span_rows(last_trace)
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{args.workload}.trace{args.trace}.json", "w") as f:
        json.dump(record, f)
        f.write("\n")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
