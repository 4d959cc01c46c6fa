"""Acceptance suite: one test per exit criterion, run at the stated tolerances.

Each test prints a `[criterion NN] PASS` line (visible with `pytest -s` or in
the captured output) and asserts its runtime budget.
"""

import hashlib
import math
import time
from dataclasses import replace

import numpy as np
import pytest

import difflab as dl
from difflab import amed
from difflab.amed import PredictorParams, TrainConfig, step_loss, step_loss_grad
from difflab.geometry import BoundParams
from difflab.harness import RunConfig, run_experiment

from conftest import make_gmm


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds
        self.t0 = time.perf_counter()

    def done(self, label):
        elapsed = time.perf_counter() - self.t0
        assert elapsed < self.seconds, f"{label}: {elapsed:.1f}s exceeds {self.seconds}s budget"
        print(f"[{label}] PASS ({elapsed:.2f}s)")


def train_model_c5():
    return make_gmm(9, 4, 16, spread=6.0, s_lo=0.1, s_hi=0.3)


def test_c01_solver_equivalences(gmm2_d8, poly_schedule):
    budget = Budget(1.0)
    zp = PredictorParams.zeros()
    for seed in range(10):
        x = dl.stream(seed, "c1").standard_normal(8) * 80.0
        a = dl.sample(gmm2_d8, dl.SolverKind("dpm2", r=1.0), poly_schedule, x)
        b = dl.sample(gmm2_d8, dl.SolverKind("heun_edm"), poly_schedule, x)
        for (_, xa), (_, xb) in zip(a.nodes, b.nodes):
            np.testing.assert_array_equal(xa, xb)
        c = dl.amed_sample(gmm2_d8, zp, poly_schedule, x)
        d = dl.sample(gmm2_d8, dl.SolverKind("dpm2", r=0.5), poly_schedule, x)
        for (_, xc), (_, xd) in zip(c.nodes, d.nodes):
            np.testing.assert_array_equal(xc, xd)
    budget.done("criterion 01: solver equivalences")


def test_c02_convergence_orders():
    budget = Budget(10.0)

    def order_of(kind, model, schedule_kind, t_max):
        x = dl.stream(0, "c2").standard_normal((8, model.dim)) * t_max
        exact = dl.exact_trajectory(model, x, 0.002, t_max)
        errs = []
        for nfe in (8, 16, 32, 64):
            n = dl.nfe_to_steps(kind, nfe, False)
            sch = dl.make_schedule(schedule_kind, n, 0.002, t_max, rho=7.0)
            e = np.mean(np.linalg.norm(dl.sample(model, kind, sch, x).endpoint - exact, axis=-1))
            errs.append((nfe, float(e)))
        return dl.order_estimate(errs)

    narrow = dl.GaussianMixture(weights=[1.0], means=[np.zeros(4)], stds=[1.0])
    # wide component so the uniform grid (the native grid of the multistep
    # coefficients) resolves the flow at 8 evaluations already
    wide = dl.GaussianMixture(weights=[1.0], means=[np.zeros(4)], stds=[20.0])

    o_euler = order_of(dl.SolverKind("euler_ddim"), narrow, "polynomial", 80.0)
    o_heun = order_of(dl.SolverKind("heun_edm"), narrow, "polynomial", 80.0)
    o_dpm2 = order_of(dl.SolverKind("dpm2"), narrow, "polynomial", 80.0)
    o_pp = order_of(dl.SolverKind("dpmpp_2m"), narrow, "polynomial", 80.0)
    o_ip = order_of(dl.SolverKind("ipndm"), wide, "uniform", 80.0)

    assert 0.7 <= o_euler <= 1.3, o_euler
    assert 1.7 <= o_heun <= 2.3, o_heun
    assert 1.7 <= o_dpm2 <= 2.3, o_dpm2
    assert 1.6 <= o_pp <= 2.4, o_pp
    assert o_ip >= 2.5, o_ip
    budget.done(
        "criterion 02: convergence orders "
        f"(euler {o_euler:.2f}, heun {o_heun:.2f}, dpm2 {o_dpm2:.2f}, "
        f"dpmpp_2m {o_pp:.2f}, ipndm {o_ip:.2f})"
    )


def test_c03_planarity():
    budget = Budget(5.0)
    m1 = dl.GaussianMixture(weights=[1.0], means=[np.zeros(6)], stds=[1.0])
    sch = dl.make_schedule("polynomial", 12, 0.002, 80.0, rho=7.0)
    for seed in range(5):
        x = dl.stream(seed, "c3").standard_normal(6) * 80.0
        traj = dl.sample(m1, dl.SolverKind("heun_edm"), sch, x)
        assert np.nanmax(dl.projection_error(traj, 2)) <= 1e-10
        assert abs(dl.cumulative_variance(traj)[0] - 1.0) <= 1e-12
    rng = dl.stream(1, "c3-models")
    sch8 = dl.make_schedule("polynomial", 8, 0.002, 80.0, rho=7.0)
    for i in range(100):
        m = make_gmm(i, int(rng.integers(1, 4)), 6)
        x = rng.standard_normal(6) * 80.0
        traj = dl.sample(m, dl.SolverKind("heun_edm"), sch8, x)
        pca = dl.pca_trajectory(traj)
        states = traj.states
        xc = states - states.mean(axis=0)
        total = np.sum(xc * xc) / (states.shape[0] - 1)
        assert abs(pca.eigenvalues.sum() - total) <= 1e-10 * max(total, 1.0)
    budget.done("criterion 03: trajectory planarity and PCA identities")


def test_c04_grid_alignment():
    budget = Budget(30.0)
    model = make_gmm(31, 2, 16)
    sch = dl.make_schedule("polynomial", 6, 0.002, 80.0, rho=7.0)
    x = dl.stream(4, "c4").standard_normal((64, 16)) * 80.0
    oracle = dl.oracle_solve(model, x, sch, substeps=128)
    grid = [round(0.1 * i, 1) for i in range(1, 11)]
    means = {}
    for tag in ("dpm2", "euler_ddim"):
        res = dl.grid_align(model, dl.SolverKind(tag), sch, grid, oracle)
        means[tag] = float(res.alignment.mean())
        assert means[tag] > 0.0, (tag, means[tag])
    budget.done(
        "criterion 04: split-point search alignment "
        f"(dpm2 {means['dpm2']:.4f}, euler_ddim {means['euler_ddim']:.4f})"
    )


def test_c05_training_gain():
    budget = Budget(300.0)
    model = train_model_c5()
    sch = dl.make_schedule("polynomial", 4, 0.002, 80.0, rho=7.0)
    held = dl.stream(77, "held").standard_normal((256, 16)) * 80.0
    ref = dl.reference_solve(model, held, sch).endpoint

    def held_out_error(params):
        traj = dl.amed_sample(model, params, sch, held)
        return float(np.mean(np.linalg.norm(traj.endpoint - ref, axis=-1)))

    base_err = held_out_error(PredictorParams.zeros())
    cfg = TrainConfig(
        teacher=dl.SolverKind("dpm2"), student=None, m=1,
        batch=128, images=10_000, lr=1e-3, seed=0,
    )
    result = amed.train(model, cfg, sch)
    err = held_out_error(result.params)
    gain = (base_err - err) / base_err
    assert gain >= 0.05, f"gain {gain:.3f} below 5%"
    budget.done(f"criterion 05: learned-solver training gain ({100 * gain:.1f}%)")


def test_c06_plugin_gain():
    budget = Budget(600.0)
    model = train_model_c5()
    base = dl.SolverKind("ipndm")
    held = dl.stream(77, "held").standard_normal((256, 16)) * 80.0
    gains = {}
    for nfe in (4, 6, 8):
        n = nfe // 2 + 1
        sch = dl.make_schedule("polynomial", n, 0.002, 80.0, rho=7.0)
        ref = dl.reference_solve(model, held, sch).endpoint

        def held_out_error(params):
            traj = dl.amed_sample(model, params, sch, held, base=base)
            return float(np.mean(np.linalg.norm(traj.endpoint - ref, axis=-1)))

        untrained = held_out_error(PredictorParams.zeros())
        cfg = TrainConfig(
            teacher=base, student=base, m=2,
            batch=128, images=10_000, lr=3e-3, seed=0,
        )
        result = amed.train(model, cfg, sch)
        trained = held_out_error(result.params)
        gains[nfe] = (untrained - trained) / untrained
        assert trained <= untrained, f"NFE={nfe}: trained {trained:.4f} > untrained {untrained:.4f}"
    sweep = ", ".join(f"NFE {k}: {100 * v:+.1f}%" for k, v in gains.items())
    budget.done(f"criterion 06: wrapped-solver training sweep ({sweep})")


def test_c07_nfe_accounting(gmm2_d8):
    budget = Budget(1.0)
    zp = PredictorParams.zeros()
    x = dl.stream(8, "c7").standard_normal(8) * 80.0
    for n in range(2, 7):
        sch = dl.make_schedule("polynomial", n, 0.002, 80.0, rho=7.0)
        assert dl.amed_sample(gmm2_d8, zp, sch, x).nfe == 2 * (n - 1)
        assert dl.amed_sample(gmm2_d8, zp, sch, x, afs=True).nfe == 2 * (n - 1) - 1
        assert dl.amed_sample(gmm2_d8, zp, sch, x, base=dl.SolverKind("ipndm")).nfe == 2 * (n - 1)
        assert (
            dl.amed_sample(gmm2_d8, zp, sch, x, base=dl.SolverKind("ipndm"), afs=True).nfe
            == 2 * (n - 1) - 1
        )
        for tag in ("euler_ddim", "ipndm", "dpmpp_2m"):
            assert dl.sample(gmm2_d8, dl.SolverKind(tag), sch, x).nfe == n - 1
            assert dl.sample(gmm2_d8, dl.SolverKind(tag), sch, x, afs=True).nfe == n - 2
    budget.done("criterion 07: NFE accounting")


def test_c08_afs_validity():
    budget = Budget(2.0)
    rng = dl.stream(11, "c8-model")
    means = rng.uniform(-2.0, 2.0, (3, 16))
    w = rng.uniform(0.5, 1.5, 3)
    w /= w.sum()
    means = means - w @ means
    norms = np.linalg.norm(means, axis=1)
    means *= min(1.0, 2.0 / norms.max())        # every component mean inside radius 2
    model = dl.GaussianMixture(weights=w, means=means, stds=rng.uniform(0.5, 1.0, 3))
    x = dl.stream(3, "c8").standard_normal((1024, 16)) * 80.0
    eps = dl.eval_model(model, x, 80.0).epsilon
    a = dl.afs_direction(x, 80.0)
    cos = np.sum(eps * a, axis=1) / (np.linalg.norm(eps, axis=1) * np.linalg.norm(a, axis=1))
    assert cos.mean() >= 0.99
    budget.done(f"criterion 08: analytic first step validity (mean cosine {cos.mean():.5f})")


def test_c09_shell_concentration():
    budget = Budget(30.0)
    bp = BoundParams.default(256)
    assert abs(bp.a - math.sqrt(3 * 256) / 15.0) < 1e-15 and bp.b == 3.0
    rep = dl.mc_shell_check(bp, 1.0, 10.0, trials=4096, seed=0)
    assert abs(rep.mean_norm - rep.radius) <= 0.05 * rep.radius
    assert rep.rel_std <= 0.10
    budget.done(
        "criterion 09: shell concentration "
        f"(mean {rep.mean_norm:.4f} vs radius {rep.radius:.4f}, rel std {rep.rel_std:.4f})"
    )


def test_c10_fd_gradient_oracle():
    budget = Budget(5.0)
    model = make_gmm(0, 2, 2, spread=2.0, s_lo=0.7, s_hi=1.1)
    rng = dl.stream(1, "c10")
    params = PredictorParams.init(rng, hidden=4, emb_dim=8, outputs=3)
    params = replace(
        params,
        w3=0.3 * rng.standard_normal(params.w3.shape),
        b3=0.1 * rng.standard_normal(params.b3.shape),
        b1=0.1 * rng.standard_normal(params.b1.shape),
        b2=0.1 * rng.standard_normal(params.b2.shape),
    )
    x = dl.stream(2, "c10x").standard_normal((5, 2)) * 10.0
    y = dl.stream(3, "c10y").standard_normal((5, 2))
    _, grads, _, _ = step_loss_grad(model, params, None, x, 10.0, 2.0, y)
    assembled, full = [], []
    for name in ("w1", "b1", "w2", "b2", "w3", "b3"):
        a = getattr(params, name)
        fd = np.zeros_like(a)
        it = np.nditer(a, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            h = 1e-5 * max(abs(a[idx]), 1.0)
            up, down = a.copy(), a.copy()
            up[idx] += h
            down[idx] -= h
            lp = step_loss(model, replace(params, **{name: up}), None, x, 10.0, 2.0, y)
            lm = step_loss(model, replace(params, **{name: down}), None, x, 10.0, 2.0, y)
            fd[idx] = (lp - lm) / (2 * h)
        assembled.append(grads[name].ravel())
        full.append(fd.ravel())
    g, fd = np.concatenate(assembled), np.concatenate(full)
    rel = np.linalg.norm(g - fd) / np.linalg.norm(fd)
    assert rel <= 1e-4, rel
    budget.done(f"criterion 10: finite-difference gradient oracle (rel err {rel:.2e})")


def test_c11_distributional_convergence():
    budget = Budget(120.0)
    model = make_gmm(13, 2, 8)
    n_samples = 4096
    x = dl.stream(0, "c11").standard_normal((n_samples, 8)) * 80.0
    data = dl.sample_data(model, n_samples, dl.stream(0, "c11-data"))
    # MC noise floor from seed resampling of the exact draws
    floor = np.std(
        [
            dl.sliced_wasserstein(
                dl.sample_data(model, n_samples, dl.stream(s, "c11-data")), data, 64, seed=0
            )
            for s in range(1, 6)
        ]
    )
    report = {}
    for tag in ("euler_ddim", "heun_edm", "dpm2", "ipndm", "dpmpp_2m"):
        kind = dl.SolverKind(tag)
        vals = []
        for nfe in (4, 8, 16, 32):
            n = dl.nfe_to_steps(kind, nfe, False)
            sch = dl.make_schedule("polynomial", n, 0.002, 80.0, rho=7.0)
            ep = dl.sample(model, kind, sch, x).endpoint
            vals.append(dl.sliced_wasserstein(ep, data, 64, seed=0))
        inversions = [vals[i + 1] - vals[i] for i in range(3) if vals[i + 1] > vals[i]]
        assert len(inversions) <= 1, (tag, vals)
        for exc in inversions:
            assert exc <= 2.0 * floor, (tag, exc, floor)
        report[tag] = vals
    budget.done(
        "criterion 11: distributional convergence "
        + "; ".join(f"{k}: " + "->".join(f"{v:.3f}" for v in vs) for k, vs in report.items())
    )


def test_c12_determinism(tmp_path, gmm2_d8, poly_schedule):
    budget = Budget(120.0)

    # batch experiment: byte-identical report files
    def digest(sub):
        out = tmp_path / sub
        cfg = RunConfig(
            model=make_gmm(7, 2, 4), solvers=(dl.SolverKind("dpm2"), dl.SolverKind("ipndm")),
            nfe=(4, 8, 16), batch=64, seed=11, outdir=str(out),
        )
        run_experiment(cfg)
        h = hashlib.sha256()
        for name in ("metrics.csv", "metrics.json"):
            h.update((out / name).read_bytes())
        return h.hexdigest()

    assert digest("a") == digest("b")

    # training: bit-identical parameters
    model = make_gmm(21, 2, 4)
    sch = dl.make_schedule("polynomial", 3, 0.002, 80.0, rho=7.0)
    cfg = TrainConfig(teacher=dl.SolverKind("dpm2"), student=None, m=1, batch=16, images=64, lr=1e-3, seed=3)
    r1, r2 = amed.train(model, cfg, sch), amed.train(model, cfg, sch)
    for name in ("w1", "b1", "w2", "b2", "w3", "b3"):
        np.testing.assert_array_equal(getattr(r1.params, name), getattr(r2.params, name))

    # Monte-Carlo and search pipelines: identical numbers
    bp = BoundParams.default(64)
    a = dl.mc_shell_check(bp, 1.0, 5.0, trials=512, seed=9)
    b = dl.mc_shell_check(bp, 1.0, 5.0, trials=512, seed=9)
    assert a.mean_norm == b.mean_norm and a.rel_std == b.rel_std

    x = dl.stream(4, "c12").standard_normal((8, 8)) * 80.0
    oracle = dl.oracle_solve(gmm2_d8, x, poly_schedule, 64)
    g1 = dl.grid_align(gmm2_d8, dl.SolverKind("dpm2"), poly_schedule, [0.3, 0.5, 0.7], oracle)
    g2 = dl.grid_align(gmm2_d8, dl.SolverKind("dpm2"), poly_schedule, [0.3, 0.5, 0.7], oracle)
    np.testing.assert_array_equal(g1.alignment, g2.alignment)
    np.testing.assert_array_equal(g1.best_r, g2.best_r)
    budget.done("criterion 12: bit-reproducibility under fixed seeds")
