import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

import difflab as dl
from difflab.cli import main

from conftest import make_gmm, save_model


@pytest.fixture
def model_path(tmp_path):
    path = tmp_path / "model.json"
    save_model(make_gmm(5, 2, 4), path)
    return str(path)


def test_sample_writes_trajectory(tmp_path, model_path, capsys):
    out = tmp_path / "traj.csv"
    rc = main([
        "sample", "--model", model_path, "--solver", "heun_edm",
        "--N", "6", "--seed", "3", "--out", str(out),
    ])
    assert rc == 0
    traj = dl.read_trajectory_csv(out)
    assert len(traj.nodes) == 6
    assert traj.nodes[0][0] == 80.0


def test_sample_nfe_overrides_schedule_n(tmp_path, model_path):
    out = tmp_path / "traj.csv"
    main([
        "sample", "--model", model_path, "--solver", "euler_ddim",
        "--N", "6", "--nfe", "12", "--out", str(out),
    ])
    assert len(dl.read_trajectory_csv(out).nodes) == 13


def _fails_with(capsys, argv, pattern):
    """Run the CLI and require exit status 2 with one stderr line matching pattern."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    assert re.search(pattern, err), err


def test_sample_rejects_parity_conflict(tmp_path, model_path, capsys):
    _fails_with(capsys, [
        "sample", "--model", model_path, "--solver", "dpm2",
        "--nfe", "7", "--out", str(tmp_path / "t.csv"),
    ], "^difflab sample: error: .*even NFE")


@pytest.mark.parametrize("command", ["sample", "eval", "train-amed", "train-amed-teacher", "train-amed-teacher-dpm2"])
def test_diverged_run_exits_with_status_2_and_one_line(tmp_path, model_path, capsys, recwarn, command):
    if command == "sample":
        argv = ["sample", "--model", model_path, "--solver", "euler_ddim", "--t-max", "1e200",
                "--out", str(tmp_path / "t.csv")]
        pattern = r"^difflab sample: error: euler_ddim diverged in interval \[\S+, 1e\+200\]$"
    elif command == "eval":
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"model": model_path, "solvers": ["euler_ddim"], "nfe": [4], "batch": 4,
                                   "t_max": 1e200, "outdir": str(tmp_path / "out")}))
        argv, pattern = ["eval", "--config", str(cfg)], "^difflab eval: error: "
    elif command.startswith("train-amed-teacher"):  # the teacher walks first, so its overflow ends the run
        # dpm2 makes two evaluations per step; its first, at the start states, also serves the student.
        teacher = "dpm2" if command.endswith("dpm2") else "euler_ddim"
        argv = ["train-amed", "--model", model_path, "--teacher", teacher, "--N", "4", "--images", "16",
                "--batch", "8", "--t-max", "1e200", "--out", str(tmp_path / "p.json")]
        pattern = rf"^difflab train-amed: error: {teacher} diverged in interval \[\S+, 1e\+200\]$"
    else:
        argv = ["train-amed", "--model", model_path, "--teacher", "dpm2", "--N", "4", "--images", "16",
                "--batch", "8", "--lr", "1e307", "--out", str(tmp_path / "p.json")]
        pattern = r"^difflab train-amed: error: lr 1e\+307 overflowed the weights at loop 0, interval 0$"
    _fails_with(capsys, argv, pattern)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)], [str(w.message) for w in recwarn]


def test_eval_names_the_diverging_reference(tmp_path, model_path, capsys, recwarn):
    """The reference runs first, so an overflow at t_max ends the run naming the oracle and its top interval."""
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"model": model_path, "solvers": ["euler_ddim"], "nfe": [4], "batch": 4,
                               "t_max": 1e200, "outdir": str(tmp_path / "out")}))
    _fails_with(capsys, ["eval", "--config", str(cfg)],
                r"^difflab eval: error: oracle diverged in interval \[6\.36501e\+199, 1e\+200\]$")
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)], [str(w.message) for w in recwarn]


def test_train_amed_names_overflowing_logits(tmp_path, model_path, capsys, recwarn):
    """Finite weights whose logits overflow end the run as an overflowing Adam step does: one line naming lr."""
    out = tmp_path / "p.json"
    argv = ["train-amed", "--model", model_path, "--teacher", "dpm2", "--N", "4", "--images", "64",
            "--batch", "8", "--lr", "2.5e306", "--out", str(out)]
    _fails_with(capsys, argv, r"^difflab train-amed: error: lr 2\.5e\+306 overflowed the logits at loop 7, interval 0$")
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)], [str(w.message) for w in recwarn]
    assert not out.exists()


def test_train_amed_cli(tmp_path, model_path, capsys):
    out = tmp_path / "predictor.json"
    loss_out = tmp_path / "loss.csv"
    rc = main([
        "train-amed", "--model", model_path, "--student", "amed", "--teacher", "dpm2",
        "--N", "3", "--M", "1", "--images", "64", "--batch", "32", "--lr", "0.001",
        "--seed", "1", "--out", str(out), "--loss-out", str(loss_out),
    ])
    assert rc == 0
    params = dl.load_predictor(out)
    assert params.n_params <= 20_000
    header, *rows = loss_out.read_text().splitlines()
    assert header == "interval_0,interval_1"
    curve = np.array([[float(v) for v in row.split(",")] for row in rows])
    assert curve.shape == (2, 2)


def test_train_amed_defaults_are_train_config_defaults():
    from dataclasses import fields

    from difflab.cli import build_parser

    args = build_parser().parse_args(["train-amed", "--model", "m.json", "--teacher", "dpm2", "--N", "4"])
    want = {f.name: f.default for f in fields(dl.TrainConfig)}
    got = {"m": args.M, "batch": args.batch, "images": args.images, "lr": args.lr, "seed": args.seed}
    assert got == {k: want[k] for k in got}


def test_schedule_flag_defaults_are_run_config_defaults():
    from dataclasses import fields

    from difflab.cli import build_parser

    want = {f.name: f.default for f in fields(dl.RunConfig)}
    for argv in (["sample", "--model", "m.json", "--solver", "dpm2"],
                 ["train-amed", "--model", "m.json", "--teacher", "dpm2", "--N", "4"],
                 ["align", "--model", "m.json", "--solver", "dpm2"]):
        args = build_parser().parse_args(argv)
        got = {k: getattr(args, k) for k in ("schedule_kind", "rho", "t_min", "t_max")}
        assert got == {k: want[k] for k in got}


def test_missing_input_exits_with_status_2(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    _fails_with(capsys, ["eval", "--config", str(missing)],
                rf"^difflab eval: error: {re.escape(str(missing))}: cannot read")
    _fails_with(capsys, ["pca", "--out", str(tmp_path / "pca.csv")], "^difflab pca: error: nothing to analyze")
    _fails_with(capsys, ["pca", "--in", str(tmp_path / "none.csv")], "none.csv")


def test_train_amed_accepts_parameterised_specs(tmp_path, model_path, capsys):
    rc = main([
        "train-amed", "--model", model_path, "--student", "dpm2:0.3", "--teacher", "ipndm:2",
        "--N", "3", "--M", "1", "--images", "32", "--batch", "16", "--out", str(tmp_path / "p.json"),
    ])
    assert rc == 0
    assert "held-out mean endpoint L2 (256 states, nfe=8)" in capsys.readouterr().out


@pytest.mark.parametrize("student, nfe", [("amed", 4), ("dpm2", 8)])
def test_train_amed_held_out_line(tmp_path, model_path, capsys, monkeypatch, student, nfe):
    import difflab.cli

    calls = []

    def counting_reference_solve(*args, **kwargs):
        calls.append(args)
        return dl.reference_solve(*args, **kwargs)

    monkeypatch.setattr(difflab.cli, "reference_solve", counting_reference_solve)
    rc = main([
        "train-amed", "--model", model_path, "--student", student, "--teacher", "dpm2",
        "--N", "3", "--M", "1", "--images", "32", "--batch", "16", "--out", str(tmp_path / "p.json"),
    ])
    assert rc == 0
    assert len(calls) == 1  # one reference serves the trained and the untrained row
    line = capsys.readouterr().out.splitlines()[-1]
    m = re.fullmatch(
        rf"held-out mean endpoint L2 \(256 states, nfe={nfe}\): untrained (\S+), trained (\S+)", line
    )
    assert m is not None, line
    held = dl.stream(77, "held").standard_normal((256, 4)) * 80.0
    sch = dl.make_schedule("polynomial", 3, 0.002, 80.0)
    base = None if student == "amed" else dl.SolverKind(student)
    model = dl.load_model(model_path)
    ref = dl.reference_solve(model, held, sch).endpoint
    traj = dl.amed_sample(model, dl.PredictorParams.zeros(), sch, held, base=base)
    untrained = np.mean(np.linalg.norm(traj.endpoint - ref, axis=-1))
    assert float(m.group(1)) == pytest.approx(untrained, rel=1e-5)


def test_pca_cli(tmp_path, model_path):
    traj_path = tmp_path / "traj.csv"
    main([
        "sample", "--model", model_path, "--solver", "euler_ddim",
        "--out", str(traj_path),
    ])
    out = tmp_path / "pca.csv"
    rc = main(["pca", "--in", str(traj_path), "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,rel_projection_error_k2"
    assert len(lines) == 9
    t0, err0 = (float(v) for v in lines[1].split(","))
    assert t0 == 80.0 and err0 >= 0.0


def test_pca_cli_batch_dir(tmp_path, model_path):
    batch_dir = tmp_path / "trajs"
    batch_dir.mkdir()
    for seed in range(3):
        main([
            "sample", "--model", model_path, "--solver", "euler_ddim",
            "--N", "6", "--seed", str(seed),
            "--out", str(batch_dir / f"t{seed}.csv"),
        ])
    out = tmp_path / "pca.csv"
    rc = main(["pca", "--batch", str(batch_dir), "--out", str(out)])
    assert rc == 0
    assert len(out.read_text().strip().splitlines()) == 7


def test_pca_cli_batch_rejects_mismatched_times(tmp_path, model_path, capsys):
    # dumps on different schedules cannot be averaged node by node
    batch_dir = tmp_path / "trajs"
    batch_dir.mkdir()
    for name, extra in (("a", []), ("b", []), ("c", ["--rho", "3"])):
        main(["sample", "--model", model_path, "--solver", "euler_ddim", "--N", "6",
              "--out", str(batch_dir / f"{name}.csv"), *extra])
    pca = ["pca", "--batch", str(batch_dir), "--out", str(tmp_path / "pca.csv")]
    _fails_with(capsys, pca, r"c\.csv: node times differ from those of .*a\.csv")
    main(["sample", "--model", model_path, "--solver", "euler_ddim", "--N", "7", "--out", str(batch_dir / "c.csv")])
    _fails_with(capsys, pca, r"c\.csv: node times differ")
    # same node times, but 8 coordinates beside 4: the dumps cannot be stacked into one batch
    wide = str(Path(__file__).resolve().parent.parent / "configs" / "gmm2_d8.json")
    main(["sample", "--model", wide, "--solver", "euler_ddim", "--N", "6", "--out", str(batch_dir / "c.csv")])
    _fails_with(capsys, pca, r"c\.csv: 8 coordinates, .*a\.csv has 4")


def test_pca_cli_names_the_dump_with_too_few_nodes(tmp_path, model_path, capsys):
    # a 2-node dump has no plane to fit; the error names the file, not only the rule
    dump = tmp_path / "two.csv"
    main(["sample", "--model", model_path, "--solver", "euler_ddim", "--N", "2", "--out", str(dump)])
    _fails_with(capsys, ["pca", "--in", str(dump), "--out", str(tmp_path / "pca.csv")],
                r"two\.csv: PCA needs at least three nodes")


def test_align_cli_ipndm_default_grid(tmp_path):
    # the default grid holds r = 1, whose candidate keeps one fewer past slope than the split candidates
    out = tmp_path / "align.csv"
    model = Path(__file__).resolve().parent.parent / "configs" / "gmm2_d8.json"
    rc = main(["align", "--model", str(model), "--solver", "ipndm", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "step,t,mean_best_r,mean_alignment"
    assert len(lines) == 6


def test_align_cli(tmp_path, model_path):
    out = tmp_path / "align.csv"
    rc = main([
        "align", "--model", model_path, "--solver", "dpm2", "--grid", "0.2:1.0:0.2",
        "--N", "4", "--batch", "4", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "step,t,mean_best_r,mean_alignment"
    assert len(lines) == 4


def test_align_and_train_amed_print_the_reference_estimate(tmp_path, capsys):
    model = str(Path(__file__).resolve().parent.parent / "configs" / "gmm4_d16.json")
    assert main(["align", "--model", model, "--solver", "dpm2", "--schedule-kind", "uniform", "--N", "5",
                 "--batch", "8", "--out", str(tmp_path / "a.csv")]) == 0
    first, last = capsys.readouterr().out.splitlines()
    m = re.fullmatch(r"reference: error estimate (\S+), 608 model calls", first)  # 4 * 8 * 19 intervals
    assert m is not None and 0 < float(m.group(1)) < 1e-5, first
    assert "mean alignment per step" in last
    assert main(["train-amed", "--model", model, "--teacher", "dpm2", "--N", "3", "--M", "1", "--images", "16",
                 "--batch", "16", "--out", str(tmp_path / "p.json")]) == 0
    line = capsys.readouterr().out.splitlines()[-2]  # the held-out line comes last
    m = re.fullmatch(r"reference: error estimate (\S+), 512 model calls", line)  # 4 * 8 * 16 intervals
    assert m is not None and 0 < float(m.group(1)) < 1e-5, line


@pytest.mark.parametrize(
    "grid,solver", [("0.1:1:0.3", "dpm2"), ("0.1:1:0.15", "ipndm"), ("0.1:1:0.15", "euler_ddim")]
)
def test_align_grid_ends_exactly_at_hi(tmp_path, model_path, grid, solver):
    # np.arange ends these grids at 1 + 2e-16 (outside (0, 1]) and 1 - 1e-16 (missing the r = 1 case)
    out = tmp_path / "align.csv"
    rc = main(["align", "--model", model_path, "--solver", solver, "--grid", grid,
               "--N", "6", "--batch", "4", "--out", str(out)])
    assert rc == 0
    assert len(out.read_text().strip().splitlines()) == 6


def test_bound_check_cli(capsys):
    rc = main(["bound-check", "--d", "64", "--s", "1.0", "--t", "5.0", "--trials", "512", "--substeps", "200"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["ratio"] - 1.0) < 0.1


def test_bound_check_rejects_explicit_zero_a(capsys):
    # --a 0 is a value, not "unset": it must reach BoundParams and fail there
    _fails_with(capsys, ["bound-check", "--d", "4", "--s", "1.0", "--t", "5.0", "--trials", "8", "--a", "0"],
                "must be positive")


def _bound_check(capsys, *flags):
    assert main(["bound-check", "--d", "64", "--s", "1", "--t", "5", "--trials", "8", *flags]) == 0
    return json.loads(capsys.readouterr().out)


def test_bound_check_a_and_b_apply_independently(capsys):
    default = dl.BoundParams.default(64)
    doc = _bound_check(capsys)
    assert list(doc) == ["mean_norm", "rel_std", "shell_radius", "ratio", "trials", "substeps"]
    assert (doc["trials"], doc["substeps"]) == (8, 200)
    assert doc["shell_radius"] == dl.shell_radius(default, 1.0, 5.0)
    for flags, want in (
        (["--b", "5"], dl.BoundParams(a=default.a, b=5.0, d=64)),
        (["--a", "2"], dl.BoundParams(a=2.0, b=default.b, d=64)),
        (["--a", "2", "--b", "5"], dl.BoundParams(a=2.0, b=5.0, d=64)),
    ):
        got = _bound_check(capsys, *flags)["shell_radius"]
        assert got == dl.shell_radius(want, 1.0, 5.0) and got != doc["shell_radius"], flags


def test_bound_check_rejects_zero_dimension(capsys):
    _fails_with(capsys, ["bound-check", "--d", "0", "--s", "1.0", "--t", "5.0", "--trials", "8"],
                "^difflab bound-check: error: d must be a positive integer")


@pytest.mark.parametrize(
    "flags, pattern",
    [
        (["--grid", "0.1:1:0"], "--grid step must be positive"),
        (["--grid", "0.1:1:-0.1"], "--grid step must be positive"),
        (["--grid", "0.1:1"], "--grid takes lo:hi:step"),
        (["--grid", "0.1:1:0.1:2"], "--grid takes lo:hi:step"),
        (["--grid", "a:b:c"], "--grid takes lo:hi:step"),
        (["--batch", "0"], "--batch must be at least 1; got 0"),
        (["--batch", "-1"], "--batch must be at least 1; got -1"),
        (["--grid", "0:1:1e-6"], "--grid lo:hi:step spans more than 1000 points"),
        (["--grid", "0.1:1:inf"], "--grid step must be positive and finite"),
        (["--seed", "-1"], "seed must be a non-negative integer; got -1"),
    ],
)
def test_align_rejects_bad_study_flags(tmp_path, model_path, capsys, flags, pattern):
    out = tmp_path / "align.csv"
    _fails_with(capsys, ["align", "--model", model_path, "--solver", "dpm2", "--N", "3", *flags, "--out", str(out)],
                f"^difflab align: error: {pattern}")
    assert not out.exists()


def test_eval_cli(tmp_path, model_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "model": model_path,
        "solvers": ["euler_ddim"],
        "nfe": [4, 8],
        "batch": 4,
        "seed": 2,
        "outdir": str(tmp_path / "out"),
    }))
    rc = main(["eval", "--config", str(cfg)])
    assert rc == 0
    assert (tmp_path / "out" / "metrics.csv").exists()
    assert (tmp_path / "out" / "metrics.json").exists()
    out = capsys.readouterr().out
    assert "euler_ddim" in out
    assert re.search(r"^reference \(8 RK4 substeps\): error estimate \S+, \S+ of the best row's$", out, re.M)


def test_eval_cli_prints_empirical_orders(monkeypatch, capsys):
    # the K=1 convergence study: every solver's NFE ladder gets a fitted order
    from difflab.harness import ENV_OUTDIR

    monkeypatch.chdir(Path(__file__).resolve().parent.parent)
    monkeypatch.delenv(ENV_OUTDIR, raising=False)
    assert main(["eval", "--config", "configs/orders_gauss1_d4.json"]) == 0
    out = capsys.readouterr().out
    assert len(re.findall(r"^ *\S+  empirical order -?\d+\.\d{3}$", out, re.M)) == 5, out


def test_cli_outdir_env(tmp_path, model_path, monkeypatch):
    from difflab.harness import ENV_OUTDIR

    monkeypatch.setenv(ENV_OUTDIR, str(tmp_path / "dflt"))
    main([
        "sample", "--model", model_path, "--solver", "euler_ddim",
        "--schedule-kind", "uniform", "--N", "4", "--out", "rel.csv",
    ])
    assert (tmp_path / "dflt" / "rel.csv").exists()

