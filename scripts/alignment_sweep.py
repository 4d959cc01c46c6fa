"""Split-point grid search against the reference trajectory, per base solver.

Reproduces the relative-alignment experiment on a Gaussian mixture: a
baseline run splits every interval at the geometric midpoint, a searched run
greedily picks the split exponent per interval, and the gap between their
distances to a high-accuracy reference is tabulated per step.
"""

import argparse
import sys

import numpy as np

import difflab as dl


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--model", default=None, help="model JSON; a built-in 2-mode mixture if omitted")
    ap.add_argument("--solvers", nargs="+", default=["dpm2", "euler_ddim"])
    ap.add_argument("--N", type=int, default=6)
    ap.add_argument("--rho", type=float, default=7.0)
    ap.add_argument("--t-min", type=float, default=0.002)
    ap.add_argument("--t-max", type=float, default=80.0)
    ap.add_argument("--grid", default="0.1:1.0:0.1")
    ap.add_argument("--batch", type=int, default=64)
    ap.add_argument("--seed", type=int, default=4)
    ap.add_argument("--oracle-substeps", type=int, default=dl.ORACLE_SUBSTEPS)
    ap.add_argument("--out-prefix", default="align")
    args = ap.parse_args(argv)

    if args.model:
        model = dl.load_model(args.model)
    else:
        rng = dl.stream(31, "gmm")
        means = rng.uniform(-2, 2, (2, 16))
        w = rng.uniform(0.5, 1.5, 2)
        w /= w.sum()
        model = dl.GaussianMixture(weights=w, means=means, stds=rng.uniform(0.5, 1.0, 2))

    lo, hi, step = (float(v) for v in args.grid.split(":"))
    grid = np.arange(lo, hi + 0.5 * step, step)
    sch = dl.make_schedule("polynomial", args.N, args.t_min, args.t_max, rho=args.rho)
    x = dl.stream(args.seed, "align").standard_normal((args.batch, model.dim)) * args.t_max
    oracle = dl.reference_solve(model, x, sch, substeps=args.oracle_substeps)

    from difflab.geometry import write_alignment_csv

    from difflab.solvers import parse_solver_spec

    for spec in args.solvers:
        base = parse_solver_spec(spec)
        res = dl.grid_align(model, base, sch, grid, oracle)
        out = f"{args.out_prefix}_{base.tag}.csv"
        write_alignment_csv(res, out)
        print(f"{base.tag:>12s}: overall mean alignment {res.alignment.mean():+.5f} -> {out}")
        for i, (t, r, al) in enumerate(zip(res.target_times, res.mean_best_r, res.mean_alignment)):
            print(f"   step {i} (t={t:9.4f}): best r {r:.2f}, alignment {al:+.5f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
