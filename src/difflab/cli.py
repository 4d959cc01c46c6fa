"""Command-line entry points.

Subcommands: sample, train-amed, pca, align, bound-check, eval.  The default
output directory may be set through the DIFFLAB_OUTDIR environment variable;
everything else comes from flags or a JSON config file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace

import numpy as np

from .amed import PredictorParams, TrainConfig, amed_sample, load_predictor, save_predictor, train
from .geometry import (
    BoundParams,
    cumulative_variance,
    grid_align,
    mc_shell_check,
    projection_error,
    write_alignment_csv,
)
from .harness import ENV_OUTDIR, RunConfig, load_run_config, nfe_to_steps, run_experiment
from .rng import stream
from .schedules import SCHEDULE_KINDS, make_schedule
from .score_models import load_model, reference_solve
from .solvers import parse_solver_spec, sample
from .trajectory import DivergenceError, Trajectory, read_trajectory_csv, write_csv, write_trajectory_csv

_HELD_OUT = 256  # states in train-amed's held-out batch
_MAX_GRID = 1000  # split-point candidates align searches at most


def _out_path(path: str) -> str:
    outdir = os.environ.get(ENV_OUTDIR)
    if outdir and not os.path.isabs(path):
        os.makedirs(outdir, exist_ok=True)
        return os.path.join(outdir, path)
    return path


def _schedule(args):
    return make_schedule(args.schedule_kind, args.N, args.t_min, args.t_max, rho=args.rho)


def _cmd_sample(args) -> int:
    model = load_model(args.model)
    solver = parse_solver_spec(args.solver)
    if args.nfe is not None:
        args.N = nfe_to_steps(solver, args.nfe, args.afs)
    schedule = _schedule(args)
    x_T = stream(args.seed, "x_T").standard_normal(model.dim) * schedule.t_max
    traj = sample(model, solver, schedule, x_T, afs=args.afs)
    write_trajectory_csv(traj, _out_path(args.out))
    print(f"wrote {args.out}: {len(traj.nodes)} nodes, nfe={traj.nfe}")
    return 0


def _cmd_train_amed(args) -> int:
    model = load_model(args.model)
    teacher = parse_solver_spec(args.teacher)
    student = None if args.student == "amed" else parse_solver_spec(args.student)
    cfg = TrainConfig(
        teacher=teacher,
        student=student,
        m=args.M,
        batch=args.batch,
        images=args.images,
        lr=args.lr,
        seed=args.seed,
        learn_time_scale=args.time_scale,
    )
    schedule = _schedule(args)
    result = train(model, cfg, schedule)
    out = _out_path(args.out)
    save_predictor(result.params, out)
    if args.loss_out:
        header = [f"interval_{k}" for k in range(result.losses.shape[1])]
        write_csv(_out_path(args.loss_out), header, result.losses.tolist())
    print(
        f"trained on {args.images} images ({result.losses.shape[0]} loops); "
        f"first-loop mean loss {result.losses[0].mean():.6g}, "
        f"last-loop mean loss {result.losses[-1].mean():.6g}; wrote {args.out}"
    )
    # Fixed held-out batch, independent of --seed; one reference serves both rows.
    # The trained row scores the checkpoint as written.
    held = stream(77, "held").standard_normal((_HELD_OUT, model.dim)) * schedule.t_max
    ref = reference_solve(model, held, schedule)
    errs = {}
    for label, params in (("untrained", PredictorParams.zeros()), ("trained", load_predictor(out))):
        traj = amed_sample(model, params, schedule, held, base=student)
        errs[label] = float(np.mean(np.linalg.norm(traj.endpoint - ref.endpoint, axis=-1)))
    print(f"reference: error estimate {ref.error_estimate:.3g}, {ref.nfe} model calls")
    print(
        f"held-out mean endpoint L2 ({_HELD_OUT} states, nfe={traj.nfe}): "
        f"untrained {errs['untrained']:.6g}, trained {errs['trained']:.6g}"
    )
    return 0


def _cmd_pca(args) -> int:
    paths = [args.infile] if args.infile else []
    if args.batch_dir:
        paths += sorted(
            os.path.join(args.batch_dir, p)
            for p in os.listdir(args.batch_dir)
            if p.endswith(".csv")
        )
    if not paths:
        raise ValueError("nothing to analyze: pass --in and/or --batch")
    trajs = [read_trajectory_csv(p) for p in paths]
    times, width = trajs[0].times, trajs[0].endpoint.shape[-1]
    for p, traj in zip(paths, trajs):
        if not np.array_equal(traj.times, times):
            raise ValueError(f"{p}: node times differ from those of {paths[0]}; cannot average node by node")
        if traj.endpoint.shape[-1] != width:
            raise ValueError(f"{p}: {traj.endpoint.shape[-1]} coordinates, {paths[0]} has {width}; cannot stack")
    batch = Trajectory(times, np.stack([tr.xs for tr in trajs], axis=1))
    try:
        err = projection_error(batch, min(2, width)).mean(axis=1)
        cum = cumulative_variance(batch).mean(axis=0)
    except ValueError as e:  # too few nodes; every dump shares the first one's times
        raise ValueError(f"{paths[0]}: {e}") from None
    write_csv(_out_path(args.out), ["t", "rel_projection_error_k2"], zip(times.tolist(), err.tolist()))
    print(f"wrote {args.out} (averaged over {len(paths)} trajectories)" if len(paths) > 1 else f"wrote {args.out}")
    print("cumulative variance by k: " + ", ".join(f"{v:.6f}" for v in cum))
    return 0


def _cmd_align(args) -> int:
    model = load_model(args.model)
    base = parse_solver_spec(args.solver)
    try:
        lo, hi, step = (float(v) for v in args.grid.split(":"))
    except ValueError:
        raise ValueError(f"--grid takes lo:hi:step, three numbers; got {args.grid!r}") from None
    if not 0 < step < np.inf:
        raise ValueError(f"--grid step must be positive and finite; got {args.grid!r}")
    if not (hi - lo) / step + 1 <= _MAX_GRID:
        raise ValueError(f"--grid lo:hi:step spans more than {_MAX_GRID} points; got {args.grid!r}")
    if args.batch < 1:
        raise ValueError(f"--batch must be at least 1; got {args.batch}")
    grid = np.arange(lo, hi + 0.5 * step, step)
    if grid.size and abs(grid[-1] - hi) <= 1e-9 * step:  # arange drifts: 0.1:1:0.3 ends at 1.0000000000000002
        grid[-1] = hi
    schedule = _schedule(args)
    x_T = stream(args.seed, "align").standard_normal((args.batch, model.dim)) * schedule.t_max
    oracle = reference_solve(model, x_T, schedule)
    result = grid_align(model, base, schedule, grid, oracle)
    write_alignment_csv(result, _out_path(args.out))
    print(f"reference: error estimate {oracle.error_estimate:.3g}, {oracle.nfe} model calls")
    print(f"wrote {args.out}; mean alignment per step: "
          + ", ".join(f"{v:.6g}" for v in result.mean_alignment))
    return 0


def _cmd_bound_check(args) -> int:
    given = {k: getattr(args, k) for k in ("a", "b") if getattr(args, k) is not None}
    params = replace(BoundParams.default(args.d), **given)
    rep = mc_shell_check(params, args.s, args.t, trials=args.trials, seed=args.seed,
                         substeps=args.substeps)
    doc = {
        "mean_norm": rep.mean_norm,
        "rel_std": rep.rel_std,
        "shell_radius": rep.radius,
        "ratio": rep.mean_norm / rep.radius,
        "trials": args.trials,
        "substeps": args.substeps,
    }
    print(json.dumps(doc, indent=2))
    return 0


def _cmd_eval(args) -> int:
    cfg = load_run_config(args.config)
    report = run_experiment(cfg)
    for e in report.entries:
        print(
            f"{e.solver:>14s}  nfe={e.nfe:<3d} endpoint_l2={e.mean_endpoint_l2:.6g} "
            f"sliced_w2={e.sliced_w2:.6g}"
        )
    for label, order in report.orders.items():
        if order is not None:
            print(f"{label:>14s}  empirical order {order:.3f}")
    print("reference ({substeps} RK4 substeps): error estimate {error_estimate:.3g}, "
          "{ratio_to_best:.3g} of the best row's".format(**report.reference))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="difflab")
    sub = ap.add_subparsers(dest="command", required=True)

    run_defaults = {f.name: f.default for f in fields(RunConfig)}

    def add_schedule_flags(p, default_n=None):
        p.add_argument("--schedule-kind", default=run_defaults["schedule_kind"], choices=SCHEDULE_KINDS)
        p.add_argument("--rho", type=float, default=run_defaults["rho"])
        p.add_argument("--t-min", type=float, default=run_defaults["t_min"])
        p.add_argument("--t-max", type=float, default=run_defaults["t_max"])
        if default_n is not None:
            p.add_argument("--N", type=int, default=default_n)

    p = sub.add_parser("sample", help="run one solver and dump the trajectory CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--solver", required=True)
    p.add_argument("--nfe", type=int, default=None, help="evaluation budget; overrides --N")
    p.add_argument("--afs", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="traj.csv")
    add_schedule_flags(p, default_n=8)
    p.set_defaults(func=_cmd_sample)

    train_defaults = {f.name: f.default for f in fields(TrainConfig)}
    p = sub.add_parser("train-amed", help="distill the step predictor")
    p.add_argument("--model", required=True)
    p.add_argument("--student", default="amed", help="'amed' or a base solver spec")
    p.add_argument("--teacher", required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--M", type=int, default=train_defaults["m"])
    p.add_argument("--images", type=int, default=train_defaults["images"])
    p.add_argument("--batch", type=int, default=train_defaults["batch"])
    p.add_argument("--lr", type=float, default=train_defaults["lr"])
    p.add_argument("--seed", type=int, default=train_defaults["seed"])
    p.add_argument("--time-scale", action="store_true")
    p.add_argument("--out", default="predictor.json")
    p.add_argument("--loss-out", default=None)
    add_schedule_flags(p)
    p.set_defaults(func=_cmd_train_amed)

    p = sub.add_parser("pca", help="planarity analysis of trajectory CSV dumps")
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--batch", dest="batch_dir", default=None)
    p.add_argument("--out", default="pca.csv")
    p.set_defaults(func=_cmd_pca)

    p = sub.add_parser("align", help="greedy split-point grid search vs the reference")
    p.add_argument("--model", required=True)
    p.add_argument("--solver", required=True)
    p.add_argument("--grid", default="0.1:1.0:0.1", help="lo:hi:step")
    p.add_argument("--batch", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="align.csv")
    add_schedule_flags(p, default_n=6)
    p.set_defaults(func=_cmd_align)

    p = sub.add_parser("bound-check", help="Monte-Carlo check of the shell radius")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--trials", type=int, default=4096)
    p.add_argument("--substeps", type=int, default=200)
    p.add_argument("--a", type=float, default=None, help="default: BoundParams.default(d)")
    p.add_argument("--b", type=float, default=None, help="default: BoundParams.default(d)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_bound_check)

    p = sub.add_parser("eval", help="batch experiment from a JSON config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_eval)

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, DivergenceError) as e:  # bad input, or a run it made diverge: exit status 2, one line
        parser.exit(2, f"difflab {args.command}: error: {e}\n")


if __name__ == "__main__":
    sys.exit(main())
