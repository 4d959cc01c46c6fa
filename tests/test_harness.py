import dataclasses
import hashlib
import json
import math
import os
import re
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import difflab as dl
from difflab.harness import ConfigError, RunConfig, load_run_config, nfe_to_steps, run_experiment

from conftest import make_gmm, save_model, traced_peak

ROOT = Path(__file__).resolve().parent.parent


def test_sliced_wasserstein_identity():
    a = dl.stream(0, "sw").standard_normal((256, 4))
    assert dl.sliced_wasserstein(a, a.copy(), 32, seed=1) == 0.0


def test_sliced_wasserstein_1d_exact():
    a = np.array([[0.0], [1.0]])
    b = np.array([[1.0], [2.0]])
    assert abs(dl.sliced_wasserstein(a, b, 1, seed=0) - 1.0) < 1e-15
    # order of samples is irrelevant
    assert dl.sliced_wasserstein(a[::-1], b, 1, seed=0) == dl.sliced_wasserstein(a, b, 1, seed=0)


def test_sliced_wasserstein_symmetry():
    rng = dl.stream(1, "sw")
    a = rng.standard_normal((128, 3))
    b = rng.standard_normal((128, 3)) + 1.0
    assert dl.sliced_wasserstein(a, b, 16, seed=2) == dl.sliced_wasserstein(b, a, 16, seed=2)


def test_sliced_wasserstein_validation():
    with pytest.raises(ValueError):
        dl.sliced_wasserstein(np.zeros((4, 2)), np.zeros((5, 2)))
    with pytest.raises(ValueError):
        dl.sliced_wasserstein(np.zeros((4, 2)), np.zeros((4, 3)))
    with pytest.raises(ValueError, match="at least one projection"):
        dl.sliced_wasserstein(np.zeros((4, 2)), np.zeros((4, 2)), projections=0)


def test_order_estimate_synthetic():
    pts1 = [(n, 3.0 / n) for n in (8, 16, 32, 64)]
    assert abs(dl.order_estimate(pts1) - 1.0) < 1e-9
    pts2 = [(n, 5.0 / n**2) for n in (8, 16, 32, 64)]
    assert abs(dl.order_estimate(pts2) - 2.0) < 1e-9
    with pytest.raises(ValueError):
        dl.order_estimate([(8, 1.0), (16, 0.5)])
    for bad in ([(0, 1.0), (8, 0.5), (16, 0.25)], [(-8, 1.0), (8, 0.5), (16, 0.25)]):
        with pytest.raises(ValueError, match="NFE and errors must be positive"):
            dl.order_estimate(bad)


def test_nfe_to_steps_rules():
    euler = dl.SolverKind("euler_ddim")
    heun = dl.SolverKind("heun_edm")
    assert nfe_to_steps(euler, 8, False) == 9
    assert nfe_to_steps(euler, 8, True) == 10
    assert nfe_to_steps(heun, 8, False) == 5
    assert nfe_to_steps(heun, 7, True) == 5
    with pytest.raises(ConfigError):
        nfe_to_steps(heun, 7, False)  # odd budget without the analytic first step
    with pytest.raises(ConfigError):
        nfe_to_steps(heun, 8, True)
    with pytest.raises(ConfigError):
        nfe_to_steps(euler, 0, False)


@pytest.mark.parametrize("afs", [False, True])
@pytest.mark.parametrize("tag", dl.solvers.SOLVER_TAGS)
def test_nfe_to_steps_matches_brute_force(tag, afs):
    # N nodes cost e * (N - 1) calls, one fewer with AFS; a budget no N >= 2 meets must raise.
    kind = dl.SolverKind(tag)
    e = kind.evals_per_interval
    for nfe in range(1, 41):
        fits = [n for n in range(2, 43) if e * (n - 1) - afs == nfe]
        if fits:
            assert nfe_to_steps(kind, nfe, afs) == fits[0]
        else:
            with pytest.raises(ConfigError, match=f"{'odd' if afs else 'even'} NFE only; got {nfe}"):
                nfe_to_steps(kind, nfe, afs)


def test_run_config_rejects_parity_conflicts():
    m = make_gmm(1, 1, 2)
    with pytest.raises(ConfigError):
        RunConfig(model=m, solvers=(dl.SolverKind("dpm2"),), nfe=(7,))


@pytest.mark.parametrize(
    "doc, why",
    [
        ({"solvers": ["dpm2"], "nfe": [7]}, "dpm2 without the analytic first step takes even NFE only"),
        ({"solvers": ["rk45"]}, "unknown solver tag 'rk45'"),
        ({"solvers": ["euler_ddim:3"]}, "solver 'euler_ddim' takes no parameter"),
        ({"solvers": []}, "need at least one solver"),
        ({"bogus": 1}, "unknown config keys"),
        ({"solvers": ["dpm2", "dpm2"]},
         r"config key 'solvers' must be solvers with distinct labels; got \['dpm2', 'dpm2'\]"),
        ({"solvers": ["dpm2", "dpm2:0.5"]}, r"config key 'solvers' .* got \['dpm2', 'dpm2'\]"),
        ({"solvers": ["ipndm", "euler_ddim", "ipndm:4"]},
         r"config key 'solvers' .* got \['ipndm', 'euler_ddim', 'ipndm'\]"),
    ],
)
def test_load_run_config_names_path(tmp_path, doc, why):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"model": "m.json", "solvers": ["euler_ddim"], **doc}))
    with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}: {why}"):
        load_run_config(path)


def test_run_experiment_heun_beats_euler_at_16(tmp_path):
    m = dl.GaussianMixture(weights=[1.0], means=[np.zeros(4)], stds=[2.0])
    cfg = RunConfig(
        model=m,
        solvers=(dl.SolverKind("euler_ddim"), dl.SolverKind("heun_edm")),
        nfe=(16,),
        t_min=0.002,
        t_max=10.0,
        batch=16,
        seed=0,
    )
    report = run_experiment(cfg)
    errs = {e.solver: e.mean_endpoint_l2 for e in report.entries}
    assert errs["heun_edm"] < errs["euler_ddim"]


def test_run_experiment_deterministic_bytes(tmp_path):
    m = make_gmm(7, 2, 4)
    def digest(sub):
        out = tmp_path / sub
        cfg = RunConfig(model=m, solvers=(dl.SolverKind("ipndm"),), nfe=(4, 8, 16),
                        batch=32, seed=11, outdir=str(out))
        run_experiment(cfg)
        h = hashlib.sha256()
        for name in ("metrics.csv", "metrics.json"):
            h.update((out / name).read_bytes())
        return h.hexdigest()

    assert digest("a") == digest("b")


def test_run_experiment_reports_match_trajectory_nfe(tmp_path):
    m = make_gmm(7, 2, 4)
    cfg = RunConfig(model=m, solvers=(dl.SolverKind("dpm2"), dl.SolverKind("euler_ddim")),
                    nfe=(8, 16), batch=8, seed=3)
    report = run_experiment(cfg)
    for e in report.entries:
        assert e.nfe_observed == e.nfe


def test_run_experiment_orders(tmp_path):
    m = dl.GaussianMixture(weights=[1.0], means=[np.zeros(4)], stds=[1.0])
    cfg = RunConfig(model=m, solvers=(dl.SolverKind("euler_ddim"),), nfe=(8, 16, 32, 64),
                    batch=8, seed=0)
    report = run_experiment(cfg)
    assert 0.7 <= report.orders["euler_ddim"] <= 1.3


def test_timing_sidecar_records_oracle(tmp_path):
    m = make_gmm(7, 2, 4)
    cfg = RunConfig(model=m, solvers=(dl.SolverKind("euler_ddim"),), nfe=(4,), batch=4, seed=0,
                    outdir=str(tmp_path))
    run_experiment(cfg)
    timing = json.loads((tmp_path / "timing.json").read_text())
    assert set(timing) == {"setup", "oracle", "euler_ddim@4", "metrics", "write", "total", "environment"}
    assert timing["oracle"] > 0
    phases = sum(v for k, v in timing.items() if k not in ("total", "environment"))
    assert 0.95 * timing["total"] <= phases <= timing["total"]
    for name in ("metrics.csv", "metrics.json"):
        assert "oracle" not in (tmp_path / name).read_text()


@pytest.mark.parametrize(
    "key, value",
    [
        ("batch", -1),
        ("batch", 0),
        ("schedule_kind", "cosine"),
        ("t_min", 0.0),
        ("t_min", 100.0),
        ("t_max", 0.001),
        ("rho", 0.0),
        ("rho", -7.0),
        ("nfe", []),
        ("seed", -1),
        ("t_max", math.inf),
        ("rho", math.inf),
        ("nfe", (8.7,)),
        ("nfe", (0, 8)),
        ("seed", 1.5),
        ("t_min", True),
        ("batch", 2.5),
        ("afs", "no"),
        ("nfe", (8, 8)),
    ],
)
def test_run_config_rejects_out_of_range_values(tmp_path, key, value):
    # Raised at construction, before any model call, naming the key (t_max
    # below t_min is reported on t_min, the key the bound is checked on).
    # JSON's reader takes Infinity, so infinite t_max and rho reach the config.
    named = "t_min" if (key, value) == ("t_max", 0.001) else key
    with pytest.raises(ConfigError, match=f"config key '{named}'"):
        RunConfig(model=make_gmm(1, 2, 3), solvers=(dl.SolverKind("euler_ddim"),), **{"nfe": (8,), key: value})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": "m.json", "solvers": ["euler_ddim"], key: value}))
    with pytest.raises(ConfigError, match=rf"cfg\.json: config key '{named}'"):
        load_run_config(path)


def test_run_config_from_json(tmp_path):
    m = make_gmm(2, 2, 3)
    model_path = tmp_path / "model.json"
    save_model(m, model_path)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({
        "model": str(model_path),
        "solvers": ["euler_ddim", "dpm2:0.4"],
        "nfe": [8, 16],
        "batch": 4,
        "seed": 5,
    }))
    cfg = load_run_config(cfg_path)
    assert cfg.solvers[1].r == 0.4
    report = run_experiment(cfg)
    assert len(report.entries) == 4


def test_run_config_rejects_unknown_keys(tmp_path):
    # The reference and sliced W2 run at fixed settings, so no config key sets them.
    cfg_path = tmp_path / "run.json"
    for key in ("bogus", "oracle_substeps", "oracle_nodes", "projections"):
        cfg_path.write_text(json.dumps({"model": "x.json", "solvers": ["euler_ddim"], key: 1}))
        with pytest.raises(ConfigError, match=rf"unknown config keys: \['{key}'\]"):
            load_run_config(cfg_path)


@pytest.mark.parametrize(
    "key,value",
    [("solvers", "dpm2"), ("nfe", 8), ("batch", "4"), ("model", 5), ("afs", "true"), ("t_max", "80"), ("rho", "7")],
)
def test_run_config_rejects_mistyped_values(tmp_path, key, value):
    doc = {"model": "x.json", "solvers": ["dpm2"], "nfe": [8], key: value}
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=f"config key '{key}'"):
        load_run_config(cfg_path)


@pytest.mark.parametrize("content, why", [("", "not JSON"), ("5", "not a JSON object"), (None, "cannot read")])
def test_run_config_not_a_json_object_names_path(tmp_path, content, why):
    cfg_path = tmp_path / "run.json"
    if content is not None:
        cfg_path.write_text(content)
    with pytest.raises(ConfigError, match=rf"run\.json: {why}"):
        load_run_config(cfg_path)


def test_outdir_env_var(tmp_path, monkeypatch):
    from difflab.harness import ENV_OUTDIR

    monkeypatch.setenv(ENV_OUTDIR, str(tmp_path / "envout"))
    m = make_gmm(1, 1, 2)
    cfg = RunConfig(model=m, solvers=(dl.SolverKind("euler_ddim"),), nfe=(4,), batch=2)
    run_experiment(cfg)
    assert (tmp_path / "envout" / "metrics.csv").exists()


def test_stream_independence_and_determinism():
    a = dl.stream(0, "x").standard_normal(4)
    b = dl.stream(0, "x").standard_normal(4)
    c = dl.stream(0, "y").standard_normal(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    d = dl.stream(0, "x", 3).standard_normal(4)
    assert not np.array_equal(a, d)


def test_run_config_requires_model_and_solvers(tmp_path):
    import json as _json

    p = tmp_path / "bad.json"
    p.write_text(_json.dumps({"solvers": ["euler_ddim"]}))
    with pytest.raises(ConfigError):
        load_run_config(p)


def test_run_experiment_with_afs(tmp_path):
    m = make_gmm(7, 2, 4)
    cfg = RunConfig(model=m, solvers=(dl.SolverKind("dpm2"), dl.SolverKind("euler_ddim")),
                    nfe=(5, 9), afs=True, batch=8, seed=3)
    report = run_experiment(cfg)
    for e in report.entries:
        assert e.nfe_observed == e.nfe


def test_reference_ignores_run_schedule():
    """Every schedule kind and rho is scored against the one certified reference grid.

    On gmm4_d16 a reference on the run's own uniform grid would err by 1.4e-2,
    1.9e-2 of the best row's error.
    """
    cfg = load_run_config(ROOT / "configs" / "eval_example.json")
    model = dl.load_model(ROOT / "configs" / "gmm4_d16.json")
    cfg = dataclasses.replace(cfg, model=model, solvers=(dl.SolverKind("ipndm"),), nfe=(64,), outdir=None)
    default = run_experiment(cfg).reference
    assert (cfg.oracle_nodes, cfg.oracle_substeps, default["substeps"]) == (17, 8, 8)
    for kind, rho in (("uniform", 7.0), ("logsnr", 7.0), ("polynomial", 3.0)):
        ref = run_experiment(dataclasses.replace(cfg, schedule_kind=kind, rho=rho)).reference
        assert ref["error_estimate"] == default["error_estimate"], (kind, rho)
        assert ref["ratio_to_best"] <= 1 / 100, (kind, rho, ref)


def test_committed_report_reproduces(tmp_path):
    """Rerunning configs/eval_example.json reproduces out/eval_example/metrics.{csv,json}.

    In the environment recorded in the committed timing.json (Python, numpy
    and BLAS build) both reports must be byte-identical.  Elsewhere the
    floats may differ in their last digits: labels, budgets and counts must
    match exactly, every float to a relative 1e-9.
    """
    cfg = load_run_config(ROOT / "configs" / "eval_example.json")
    cfg = dataclasses.replace(cfg, model=str(ROOT / cfg.model), outdir=str(tmp_path))
    run_experiment(cfg)
    committed = ROOT / "out" / "eval_example"
    recorded = json.loads((committed / "timing.json").read_text())["environment"]
    if recorded == json.loads((tmp_path / "timing.json").read_text())["environment"]:
        for name in ("metrics.json", "metrics.csv"):
            assert (tmp_path / name).read_bytes() == (committed / name).read_bytes(), name
    got = json.loads((tmp_path / "metrics.json").read_text())
    want = json.loads((committed / "metrics.json").read_text())
    assert len(got["entries"]) == len(want["entries"])
    for g, w in zip(got["entries"], want["entries"]):
        assert [g[k] for k in ("solver", "nfe", "steps", "nfe_observed")] == [
            w[k] for k in ("solver", "nfe", "steps", "nfe_observed")
        ]
        for key in ("mean_endpoint_l2", "sliced_w2"):
            assert g[key] == pytest.approx(w[key], rel=1e-9, abs=0), (w["solver"], w["nfe"], key)
    assert got["orders"].keys() == want["orders"].keys()
    for label, order in want["orders"].items():
        assert got["orders"][label] == pytest.approx(order, rel=1e-9, abs=0), label
    # The estimate is a difference of two endpoints that agree to about 1e-7 of
    # their size, so a last-digit change in them moves it by about 1e-9.
    assert got["reference"]["substeps"] == want["reference"]["substeps"]
    for key in ("error_estimate", "ratio_to_best"):
        assert got["reference"][key] == pytest.approx(want["reference"][key], rel=1e-6, abs=0), key


def test_orders_config_matches_exact_solution(monkeypatch):
    """configs/orders_gauss1_d4.json: every row's error equals its error against the exact flow.

    On the single Gaussian the reference's own error (about 2e-9) sits far
    below the best solver's (about 2e-3), so the report's endpoint errors
    are the solvers' true errors to a relative 1e-5.
    """
    monkeypatch.delenv(dl.harness.ENV_OUTDIR, raising=False)
    cfg = load_run_config(ROOT / "configs" / "orders_gauss1_d4.json")
    assert cfg.outdir is None and len(cfg.solvers) == 5 and cfg.nfe == (8, 16, 32, 64)
    model = dl.load_model(ROOT / cfg.model)
    report = run_experiment(dataclasses.replace(cfg, model=model))
    x_T = dl.stream(cfg.seed, "x_T").standard_normal((cfg.batch, model.dim)) * cfg.t_max
    exact = dl.exact_trajectory(model, x_T, cfg.t_min, cfg.t_max)
    kinds = {kind.label(): kind for kind in cfg.solvers}
    assert len(report.entries) == 20
    for e in report.entries:
        schedule = dl.make_schedule(cfg.schedule_kind, e.steps, cfg.t_min, cfg.t_max, rho=cfg.rho)
        traj = dl.sample(model, kinds[e.solver], schedule, x_T)
        err = float(np.mean(np.linalg.norm(traj.endpoint - exact, axis=-1)))
        assert e.mean_endpoint_l2 == pytest.approx(err, rel=1e-5, abs=0), (e.solver, e.nfe)
    assert all(order is not None for order in report.orders.values())


def test_run_experiment_memory_does_not_grow_with_nfe(monkeypatch):
    """A solver run keeps only its newest state: at NFE 64 the peak is within 4 states of NFE 8's.

    numpy.random is imported first: numpy loads it lazily, and the import
    alone would count as memory of whichever run came first.
    """
    import numpy.random  # noqa: F401

    monkeypatch.delenv(dl.harness.ENV_OUTDIR, raising=False)
    model = dl.load_model(ROOT / "configs" / "gmm2_d8.json")

    def peak(nfe):
        cfg = RunConfig(model=model, solvers=(dl.SolverKind("euler_ddim"),), nfe=(nfe,), batch=256)
        return traced_peak(partial(run_experiment, cfg))

    state = 256 * model.dim * 8
    assert abs(peak(64) - peak(8)) < 4 * state


@pytest.mark.parametrize("call", ["reference_solve", "run_experiment"])
def test_the_reference_streams(monkeypatch, call):
    """Asked for the certified grid's two ends, the reference holds under 10 states, not the grid's 17 nodes.

    At d = 1024 a state outweighs every per-component array; a warm-up call
    runs first, so lazy imports and caches do not count.  Walking its two
    runs as one, stepped in place, the reference reads 8.3 states and the run
    9.3; collecting the grid read 25 states for the reference and 27 for the run.
    """
    monkeypatch.delenv(dl.harness.ENV_OUTDIR, raising=False)
    model = make_gmm(3, 4, 1024)
    x_T = dl.stream(0, "x_T").standard_normal((32, 1024)) * 80.0
    if call == "reference_solve":
        run = partial(dl.reference_solve, model, x_T, dl.make_schedule("polynomial", 2, 0.002, 80.0))
    else:
        run = partial(run_experiment, RunConfig(model=model, solvers=(dl.SolverKind("dpm2"),), nfe=(4,), batch=32))
    run()
    peak = traced_peak(run)
    assert peak < 10 * x_T.nbytes, peak / x_T.nbytes


@pytest.mark.parametrize("afs,nfe", [(False, (8, 16)), (True, (5, 9))], ids=["exact_first", "afs"])
def test_run_experiment_counts_every_model_call(monkeypatch, afs, nfe):
    """Model calls made = each lockstep group's calls plus the reference pair's (4 * 8 per interval, 16 intervals).

    A group of R rows with e calls per interval over I intervals makes one
    shared call per interval (none in interval 0 with the analytic first
    step) and (e - 1) * I calls of each row's own.
    """
    from test_solvers import count_model_calls

    calls = count_model_calls(monkeypatch, dl.solvers, dl.score_models)
    kinds = {t: dl.SolverKind(t) for t in dl.solvers.SOLVER_TAGS}
    cfg = RunConfig(model=make_gmm(7, 2, 4), solvers=tuple(kinds.values()), nfe=nfe, afs=afs, batch=8, seed=3)
    report = run_experiment(cfg)
    assert len(report.entries) == 10 and all(e.nfe_observed == e.nfe for e in report.entries)
    groups = {}
    for e in report.entries:
        groups.setdefault((e.steps, kinds[e.solver].evals_per_interval), []).append(e.solver)
    assert sorted(map(len, groups.values())) == [2, 2, 3, 3]
    group_calls = sum(steps - 1 - afs + (evals - 1) * (steps - 1) * len(rows) for (steps, evals), rows in groups.items())
    assert len(calls) == group_calls + 4 * 8 * 16


LOCKSTEP_SPECS = ("euler_ddim", "heun_edm", "dpm2", "ipndm", "dpmpp_2m", "ipndm:2", "dpm2:0.3")


@pytest.mark.parametrize("batch", [256, 1])
@pytest.mark.parametrize("afs,nfe", [(False, (8, 16)), (True, (5, 9))], ids=["exact_first", "afs"])
def test_lockstep_rows_equal_solo_runs(monkeypatch, afs, nfe, batch):
    """Every row of a lockstep run equals its solver's own ``sample`` run: endpoint error, sliced W2 and NFE.

    At batch 256 the bits are equal; at batch 1 the shared call's products may
    round differently than a single row's, so a relative 1e-12 is allowed.
    """
    monkeypatch.delenv(dl.harness.ENV_OUTDIR, raising=False)
    model = dl.load_model(ROOT / "configs" / "gmm4_d16.json")
    kinds = tuple(dl.solvers.parse_solver_spec(s) for s in LOCKSTEP_SPECS)
    cfg = RunConfig(model=model, solvers=kinds, nfe=nfe, afs=afs, batch=batch, seed=5)
    report = run_experiment(cfg)
    x_T = dl.stream(cfg.seed, "x_T").standard_normal((batch, model.dim)) * cfg.t_max
    data = dl.sample_data(model, batch, dl.stream(cfg.seed, "data"))
    ref = dl.reference_solve(model, x_T, dl.make_schedule("polynomial", 2, cfg.t_min, cfg.t_max)).endpoint
    rel = 0.0 if batch == 256 else 1e-12
    assert [(e.solver, e.nfe) for e in report.entries] == [(k.label(), n) for k in kinds for n in nfe]
    for kind, e in zip((k for k in kinds for _ in nfe), report.entries):
        schedule = dl.make_schedule(cfg.schedule_kind, e.steps, cfg.t_min, cfg.t_max, rho=cfg.rho)
        solo = dl.sample(model, kind, schedule, x_T, afs=afs)
        err = float(np.mean(np.linalg.norm(solo.endpoint - ref, axis=-1)))
        sw = dl.sliced_wasserstein(solo.endpoint, data, seed=cfg.seed)
        assert e.nfe_observed == solo.nfe == e.nfe, (e.solver, e.nfe)
        assert e.mean_endpoint_l2 == pytest.approx(err, rel=rel, abs=0), (e.solver, e.nfe)
        assert e.sliced_w2 == pytest.approx(sw, rel=rel, abs=0), (e.solver, e.nfe)


def test_lockstep_divergence_names_the_group_and_interval(monkeypatch):
    """A row that diverges inside a group ends the run in one DivergenceError naming the group's rows and interval."""
    monkeypatch.delenv(dl.harness.ENV_OUTDIR, raising=False)
    real = dl.harness.substep

    def dpm2_fails_low(model, kind, x, t_hi, t_lo, carry=None, **kw):
        x_next, nfe, carry = real(model, kind, x, t_hi, t_lo, carry, **kw)
        return (x_next * np.nan if kind.tag == "dpm2" and t_hi < 1.0 else x_next), nfe, carry

    monkeypatch.setattr(dl.harness, "substep", dpm2_fails_low)
    cfg = RunConfig(model=make_gmm(7, 2, 4), solvers=(dl.SolverKind("euler_ddim"), dl.SolverKind("heun_edm"),
                    dl.SolverKind("dpm2")), nfe=(8,), batch=4)
    ts = dl.make_schedule(cfg.schedule_kind, 5, cfg.t_min, cfg.t_max, rho=cfg.rho).times[::-1]
    t_hi, t_lo = next((hi, lo) for hi, lo in zip(ts, ts[1:]) if hi < 1.0)
    with pytest.raises(dl.DivergenceError,
                       match=rf"^heun_edm@8\+dpm2@8 diverged in interval \[{t_lo:g}, {t_hi:g}\]$"):
        run_experiment(cfg)


@pytest.mark.parametrize("afs", [False, True])
def test_lockstep_group_memory_is_at_most_its_rows_summed(afs):
    """A one-call trio's walk peaks at no more than its rows' solo streamed walks summed, plus one state.

    At batch 256 and d = 8 the trio read 19.0 states (22.0 with the analytic
    first step) against solo walks of 5.1, 8.1 and 6.1 (6.1, 9.2 and 7.1).
    """
    import numpy.random  # noqa: F401  (loaded lazily by numpy; its import would count as the first walk's memory)
    from difflab.harness import _lockstep
    from difflab.solvers import _run, substep

    model = make_gmm(3, 2, 8)
    x_T = dl.stream(0, "x_T").standard_normal((256, 8)) * 80.0
    kinds = [dl.SolverKind("euler_ddim"), dl.SolverKind("ipndm"), dl.SolverKind("dpmpp_2m")]
    schedule = dl.make_schedule("polynomial", nfe_to_steps(kinds[0], 8, afs), 0.002, 80.0)

    def peak(step, x):
        def walk():
            for _ in _run(model, step, schedule, x, afs, "walk"):
                pass
        walk()
        return traced_peak(walk)

    group = peak(partial(_lockstep, model, kinds), np.broadcast_to(x_T, (3,) + x_T.shape))
    solos = [peak(partial(substep, model, kind), x_T) for kind in kinds]
    assert group <= sum(solos) + x_T.nbytes, (group / x_T.nbytes, [s / x_T.nbytes for s in solos])
