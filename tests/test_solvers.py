import tracemalloc
from collections import deque
from functools import partial

import numpy as np
import pytest

import difflab as dl
import difflab.solvers as solvers
from difflab.score_models import ModelEval

from conftest import make_gmm, nan_interval, traced_peak


def const_field(vec):
    """Stand-in for eval_model with a state- and time-independent slope, written into ``out`` when given."""

    def fake_eval(model, x, t, out=None):
        eps = np.empty(np.shape(x)) if out is None else out
        eps[...] = vec
        return ModelEval(epsilon=eps)

    return fake_eval


def count_model_calls(monkeypatch, *modules):
    """Route every module's eval_model alias through one counter; returns the call log."""
    calls = []
    real = dl.eval_model

    def counted(model, x, t, **kwargs):
        calls.append(t)
        return real(model, x, t, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, "eval_model", counted)
    return calls


def test_euler_step_value(monkeypatch, single_gaussian):
    calls = count_model_calls(monkeypatch, solvers)
    x = np.array([2.0, 0.0])
    x_next, nfe, carry = solvers.substep(single_gaussian, dl.SolverKind("euler_ddim"), x, 1.0, 0.5)
    np.testing.assert_array_equal(x_next, [1.5, 0.0])
    assert nfe == 1 and carry is None and calls == [1.0]


def test_euler_rejects_zero_step(single_gaussian):
    with pytest.raises(ValueError):
        solvers.substep(single_gaussian, dl.SolverKind("euler_ddim"), np.zeros(2), 1.0, 1.0)


@pytest.mark.parametrize("step", [solvers.step_dpm2, solvers.step_ipndm, solvers.step_dpmpp_2m])
def test_steps_reject_infinite_time_with_injected_slope(gmm2_d8, step):
    # An injected slope skips eval_model's own time check; the interval check must refuse it.
    x = dl.stream(6, "inf").standard_normal(8)
    with pytest.raises(ValueError, match="need 0 < t_lo < t_hi < inf"):
        step(gmm2_d8, x, np.inf, 1.0, eps_cur=x)


@pytest.mark.parametrize("form", ["float", "numpy", "array"])
@pytest.mark.parametrize("which", ["t_hi", "t_lo"])
@pytest.mark.parametrize("step", [solvers.step_dpm2, solvers.step_ipndm, solvers.step_dpmpp_2m])
def test_steps_reject_nan_time_with_injected_slope(gmm2_d8, step, which, form):
    t_hi, t_lo = nan_interval(form, which)
    x = dl.stream(6, "nan").standard_normal((2, 8) if form == "array" else 8)
    with pytest.raises(ValueError, match="need 0 < t_lo < t_hi < inf"):
        step(gmm2_d8, x, t_hi, t_lo, eps_cur=x)


def test_stationary_point_fixed():
    m = dl.GaussianMixture(weights=[0.5, 0.5], means=[[1.0, 0.0], [-1.0, 0.0]], stds=[1.0, 1.0])
    x = np.zeros(2)
    x_next, _, _ = solvers.substep(m, dl.SolverKind("euler_ddim"), x, 2.0, 1.0)
    np.testing.assert_allclose(x_next, x, atol=1e-14)


def test_dpm2_r1_equals_heun_bitwise(gmm2_d8, poly_schedule):
    for seed in range(10):
        x = dl.stream(seed, "eq").standard_normal(8) * 80.0
        t1 = dl.sample(gmm2_d8, dl.SolverKind("dpm2", r=1.0), poly_schedule, x)
        t2 = dl.sample(gmm2_d8, dl.SolverKind("heun_edm"), poly_schedule, x)
        for (ta, xa), (tb, xb) in zip(t1.nodes, t2.nodes):
            assert ta == tb
            np.testing.assert_array_equal(xa, xb)


def test_dpm2_half_uses_midpoint_slope_only(monkeypatch, gmm2_d8):
    # weights (1, 0): the current slope drops out of the combination
    calls = count_model_calls(monkeypatch, solvers)
    x = dl.stream(1, "w").standard_normal(8) * 10.0
    x_next, nfe, _ = dl.step_dpm2(gmm2_d8, x, 4.0, 1.0, 0.5)
    s = dl.schedules._geom(1.0, 4.0, 0.5)
    assert nfe == 2 and calls[1] == s
    x_s = x + (s - 4.0) * dl.eval_model(gmm2_d8, x, 4.0).epsilon
    manual = x + (1.0 - 4.0) * dl.eval_model(gmm2_d8, x_s, s).epsilon
    np.testing.assert_allclose(x_next, manual, rtol=0, atol=1e-15)


def test_dpm2_r_validation(gmm2_d8):
    with pytest.raises(ValueError):
        dl.step_dpm2(gmm2_d8, np.zeros(8), 2.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        dl.step_dpm2(gmm2_d8, np.zeros(8), 2.0, 1.0, 1.2)


def test_constant_field_exactness(monkeypatch, gmm2_d8):
    vec = np.array([0.3, -1.0, 0.2, 0.0, 1.0, -0.4, 0.1, 2.0])
    monkeypatch.setattr(solvers, "eval_model", const_field(vec))
    x = np.ones(8)
    want = x + (1.0 - 5.0) * vec
    for kind_args in (("euler_ddim",), ("heun_edm",), ("dpm2",), ("ipndm",), ("dpmpp_2m",)):
        kind = dl.SolverKind(*kind_args)
        x2, _, _ = solvers.substep(gmm2_d8, kind, x, 5.0, 1.0)
        np.testing.assert_allclose(x2, want, rtol=1e-12, atol=1e-12)
    # dpm2 result independent of r on a constant field
    for r in (0.2, 0.5, 0.9, 1.0):
        x2, _, _ = solvers.step_dpm2(gmm2_d8, x, 5.0, 1.0, r)
        np.testing.assert_allclose(x2, want, rtol=1e-12)
    # heun equals euler exactly
    xe, _, _ = solvers.substep(gmm2_d8, dl.SolverKind("euler_ddim"), x, 5.0, 1.0)
    xh, _, _ = solvers.substep(gmm2_d8, dl.SolverKind("heun_edm"), x, 5.0, 1.0)
    np.testing.assert_allclose(xh, xe, rtol=1e-14)
    # ipndm with any history of the same constant matches euler
    for hist_len in (1, 2, 3):
        xi, _, _ = solvers.step_ipndm(gmm2_d8, x, 5.0, 1.0, [vec.copy() for _ in range(hist_len)])
        np.testing.assert_allclose(xi, xe, rtol=1e-12)


def test_ipndm_empty_history_is_euler_bitwise(gmm2_d8):
    x = dl.stream(4, "h").standard_normal(8) * 20.0
    euler = x + (1.0 - 3.0) * dl.eval_model(gmm2_d8, x, 3.0).epsilon
    xe, _, carry = solvers.substep(gmm2_d8, dl.SolverKind("euler_ddim"), x, 3.0, 1.0)
    xi, _, _ = dl.step_ipndm(gmm2_d8, x, 3.0, 1.0, [])
    np.testing.assert_array_equal(xe, euler)
    np.testing.assert_array_equal(xi, euler)
    assert carry is None


def test_ipndm_history_contract(gmm2_d8):
    x = np.zeros(8)
    hist = [np.zeros(8)] * 4
    with pytest.raises(ValueError):
        dl.step_ipndm(gmm2_d8, x, 3.0, 1.0, hist)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_ipndm_low_orders_through_sample(gmm2_d8, poly_schedule, order):
    x = dl.stream(8, "ip").standard_normal((3, 8)) * 80.0
    kind = dl.SolverKind("ipndm", order=order)
    traj = dl.sample(gmm2_d8, kind, poly_schedule, x)
    ts = poly_schedule.times[::-1]
    cur, carry = x, None
    for i in range(1, len(ts)):
        cur, nfe, carry = solvers.substep(gmm2_d8, kind, cur, float(ts[i - 1]), float(ts[i]), carry)
        assert nfe == 1 and len(carry or ()) == min(i, order - 1)
        np.testing.assert_array_equal(cur, traj.nodes[i][1])
    below = dl.SolverKind("euler_ddim") if order == 1 else dl.SolverKind("ipndm", order=order - 1)
    lower = dl.sample(gmm2_d8, below, poly_schedule, x)
    if order == 1:
        np.testing.assert_array_equal(traj.states, lower.states)
    else:
        assert not np.array_equal(traj.endpoint, lower.endpoint)


def test_ipndm_beats_euler_at_low_nfe():
    m = dl.GaussianMixture(weights=[1.0], means=[np.zeros(4)], stds=[1.0])
    x = dl.stream(0, "probe").standard_normal((8, 4)) * 80.0
    exact = dl.exact_trajectory(m, x, 0.002, 80.0)
    sch = dl.make_schedule("polynomial", 9, 0.002, 80.0, rho=7.0)
    e_ip = np.mean(np.linalg.norm(dl.sample(m, dl.SolverKind("ipndm"), sch, x).endpoint - exact, axis=-1))
    e_eu = np.mean(np.linalg.norm(dl.sample(m, dl.SolverKind("euler_ddim"), sch, x).endpoint - exact, axis=-1))
    assert e_ip < e_eu


def test_dpmpp_exact_for_constant_denoised():
    # a needle-thin component makes the data prediction constant
    mu = np.array([0.7, -0.2, 1.1])
    m = dl.GaussianMixture(weights=[1.0], means=[mu], stds=[1e-8])
    x = np.array([30.0, -12.0, 5.0])
    x_next, _, _ = dl.step_dpmpp_2m(m, x, 40.0, 0.5)
    want = dl.exact_trajectory(m, x, 0.5, 40.0)
    np.testing.assert_allclose(x_next, want, rtol=1e-9)


def test_dpmpp_beats_euler_at_low_nfe():
    m = dl.GaussianMixture(weights=[1.0], means=[np.zeros(4)], stds=[1.0])
    x = dl.stream(0, "probe").standard_normal((8, 4)) * 80.0
    exact = dl.exact_trajectory(m, x, 0.002, 80.0)
    sch = dl.make_schedule("polynomial", 9, 0.002, 80.0, rho=7.0)
    e_pp = np.mean(np.linalg.norm(dl.sample(m, dl.SolverKind("dpmpp_2m"), sch, x).endpoint - exact, axis=-1))
    e_eu = np.mean(np.linalg.norm(dl.sample(m, dl.SolverKind("euler_ddim"), sch, x).endpoint - exact, axis=-1))
    assert e_pp < e_eu


def test_dpmpp_equal_denoised_collapses_to_first_order(gmm2_d8):
    x = dl.stream(6, "pp").standard_normal(8) * 5.0
    denoised = x - 2.0 * dl.eval_model(gmm2_d8, x, 2.0).epsilon
    first, _, _ = dl.step_dpmpp_2m(gmm2_d8, x, 2.0, 1.0)
    second, _, _ = dl.step_dpmpp_2m(gmm2_d8, x, 2.0, 1.0, prev=(3.0, denoised))
    # prev denoised equal to the current one: the difference term vanishes
    np.testing.assert_allclose(second, first, rtol=1e-12)


def test_dpmpp_rejects_previous_time_below_current(gmm2_d8):
    x = dl.stream(6, "pp").standard_normal(8)
    for t_prev in (2.0, 1.5, np.array(1.5)):
        with pytest.raises(ValueError, match="higher time"):
            dl.step_dpmpp_2m(gmm2_d8, x, 2.0, 1.0, prev=(t_prev, x))


def test_sample_rejects_state_of_wrong_dim(gmm2_d8, poly_schedule):
    with pytest.raises(ValueError, match="state has dim 3, model has dim 8"):
        dl.sample(gmm2_d8, dl.SolverKind("euler_ddim"), poly_schedule, np.zeros((2, 3)))


def test_afs_direction_values():
    np.testing.assert_array_equal(dl.afs_direction(np.zeros(3), 5.0), np.zeros(3))
    x = np.array([4.0, -2.0])
    np.testing.assert_array_equal(dl.afs_direction(x, 2.0), [2.0, -1.0])
    m = dl.GaussianMixture(weights=[1.0], means=[np.zeros(2)], stds=[1e-9])
    ev = dl.eval_model(m, x, 2.0)
    np.testing.assert_allclose(dl.afs_direction(x, 2.0), ev.epsilon, rtol=1e-12)
    for t in (0.0, -1.0, np.array([1.0, 0.0])):
        with pytest.raises(ValueError, match="strictly positive"):
            dl.afs_direction(np.zeros((2, 3)), t)


@pytest.mark.parametrize("tag,per", [("euler_ddim", 1), ("ipndm", 1), ("dpmpp_2m", 1), ("heun_edm", 2), ("dpm2", 2)])
@pytest.mark.parametrize("afs", [False, True])
def test_nfe_accounting(monkeypatch, gmm2_d8, tag, per, afs):
    calls = count_model_calls(monkeypatch, solvers)
    x = dl.stream(8, "nfe").standard_normal(8) * 80.0
    for n in range(2, 7):
        sch = dl.make_schedule("polynomial", n, 0.002, 80.0, rho=7.0)
        calls.clear()
        traj = dl.sample(gmm2_d8, dl.SolverKind(tag), sch, x, afs=afs)
        assert traj.nfe == per * (n - 1) - (1 if afs else 0)
        assert len(calls) == traj.nfe
        assert traj.nodes[0][0] == 80.0 and traj.nodes[-1][0] == 0.002


@pytest.mark.parametrize("tag", ["euler_ddim", "heun_edm", "dpm2", "ipndm", "dpmpp_2m"])
def test_step_contract(monkeypatch, gmm2_d8, tag):
    calls = count_model_calls(monkeypatch, solvers)
    kind = dl.SolverKind(tag)
    x = dl.stream(9, "contract").standard_normal((2, 8)) * 10.0
    _, nfe, carry = solvers.substep(gmm2_d8, kind, x, 10.0, 5.0)
    assert nfe == len(calls) == kind.evals_per_interval
    calls.clear()
    _, nfe, carry = solvers.substep(gmm2_d8, kind, x, 5.0, 2.0, carry, eps_cur=x / 5.0)
    assert nfe == len(calls) == kind.evals_per_interval - 1
    if tag == "ipndm":
        assert len(carry) == 2 and carry[0].shape == x.shape
    elif tag == "dpmpp_2m":
        assert carry[0] == 5.0
        np.testing.assert_array_equal(carry[1], x - 5.0 * (x / 5.0))
    else:
        assert carry is None


def test_sample_deterministic(gmm2_d8, poly_schedule):
    x = dl.stream(3, "det").standard_normal(8) * 80.0
    a = dl.sample(gmm2_d8, dl.SolverKind("ipndm"), poly_schedule, x)
    b = dl.sample(gmm2_d8, dl.SolverKind("ipndm"), poly_schedule, x)
    for (ta, xa), (tb, xb) in zip(a.nodes, b.nodes):
        np.testing.assert_array_equal(xa, xb)


def test_batched_matches_loop(gmm2_d8, poly_schedule):
    xb = dl.stream(11, "b").standard_normal((4, 8)) * 80.0
    batched = dl.sample(gmm2_d8, dl.SolverKind("heun_edm"), poly_schedule, xb)
    for i in range(4):
        single = dl.sample(gmm2_d8, dl.SolverKind("heun_edm"), poly_schedule, xb[i])
        np.testing.assert_allclose(batched.endpoint[i], single.endpoint, rtol=1e-12)


def test_divergence_aborts_with_interval(monkeypatch, gmm2_d8, poly_schedule):
    calls = {"n": 0}

    def exploding(model, x, t, out=None):
        calls["n"] += 1
        eps = np.empty(np.shape(x)) if out is None else out
        eps.fill(1e308)
        return ModelEval(epsilon=eps)

    monkeypatch.setattr(solvers, "eval_model", exploding)
    with np.errstate(over="ignore"), pytest.raises(dl.DivergenceError) as err:
        dl.sample(gmm2_d8, dl.SolverKind("euler_ddim"), poly_schedule, np.ones(8))
    assert "interval" in str(err.value)


def test_empirical_orders_on_exact_solution():
    m = dl.GaussianMixture(weights=[1.0], means=[np.zeros(4)], stds=[1.0])
    x = dl.stream(0, "probe").standard_normal((8, 4)) * 80.0
    exact = dl.exact_trajectory(m, x, 0.002, 80.0)

    def order_of(kind):
        errs = []
        for nfe in (8, 16, 32, 64):
            n = dl.nfe_to_steps(kind, nfe, False)
            sch = dl.make_schedule("polynomial", n, 0.002, 80.0, rho=7.0)
            e = np.mean(np.linalg.norm(dl.sample(m, kind, sch, x).endpoint - exact, axis=-1))
            errs.append((nfe, float(e)))
        return dl.order_estimate(errs)

    assert 1.7 <= order_of(dl.SolverKind("heun_edm")) <= 2.3
    assert 0.7 <= order_of(dl.SolverKind("euler_ddim")) <= 1.3


def test_solver_kind_validation():
    with pytest.raises(ValueError):
        dl.SolverKind("rk45")
    with pytest.raises(ValueError):
        dl.SolverKind("dpm2", r=0.0)
    with pytest.raises(ValueError):
        dl.SolverKind("ipndm", order=5)


def test_dpm2_r1_equals_heun_property(gmm2_d8):
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(st.floats(0.01, 1.0), st.floats(1.2, 60.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def check(t_lo, ratio, seed):
        t_hi = t_lo * ratio if ratio > 1.2 else t_lo * 1.2
        x = dl.stream(seed, "prop").standard_normal(8) * t_hi
        xa, _, _ = dl.step_dpm2(gmm2_d8, x, t_hi, t_lo, 1.0)
        # Heun's trapezoid: average the slopes at x and at the Euler predictor.
        h = t_lo - t_hi
        e1 = dl.eval_model(gmm2_d8, x, t_hi).epsilon
        e2 = dl.eval_model(gmm2_d8, x + h * e1, t_lo).epsilon
        np.testing.assert_array_equal(xa, x + h * (0.5 * e2 + 0.5 * e1))

    check()


def test_trajectory_csv_roundtrip(tmp_path, gmm2_d8, poly_schedule):
    x = dl.stream(12, "csv").standard_normal(8) * 80.0
    traj = dl.sample(gmm2_d8, dl.SolverKind("euler_ddim"), poly_schedule, x)
    path = tmp_path / "traj.csv"
    dl.write_trajectory_csv(traj, path)
    header = path.read_text().splitlines()[0]
    assert header == "t," + ",".join(f"x_{i}" for i in range(8))
    back = dl.read_trajectory_csv(path)
    assert len(back.nodes) == len(traj.nodes)
    for (ta, xa), (tb, xb) in zip(traj.nodes, back.nodes):
        assert ta == tb
        np.testing.assert_array_equal(xa, xb)


def test_trajectory_csv_write_rejects_batched(tmp_path, gmm2_d8, poly_schedule):
    traj = dl.sample(gmm2_d8, dl.SolverKind("euler_ddim"), poly_schedule, np.zeros((2, 8)))
    with pytest.raises(ValueError, match="unbatched"):
        dl.write_trajectory_csv(traj, tmp_path / "traj.csv")


def test_trajectory_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "traj.csv"
    path.write_text("t,x_0\n2.0,1.5\n\n1.0,0.5\n\n")
    traj = dl.read_trajectory_csv(path)
    assert [t for t, _ in traj.nodes] == [2.0, 1.0]
    np.testing.assert_array_equal(traj.states, [[1.5], [0.5]])


def test_collect_keeps_the_arrays_the_walk_yields(gmm2_d8, poly_schedule):
    """A copy per node would add a state to every sampling peak; the times are stored once, read-only."""
    nodes = list(_walk(gmm2_d8, "dpm2", poly_schedule, dl.stream(3, "own").standard_normal((4, 8)) * 80.0, False))
    traj = dl.Trajectory.collect(iter(nodes))
    assert all(kept is x for kept, (_, x, _) in zip(traj.xs, nodes, strict=True))
    np.testing.assert_array_equal(traj.times, poly_schedule.times[::-1])
    assert traj.nfe == nodes[-1][2] and not traj.times.flags.writeable
    ts = np.array([2.0, 1.0])
    dl.Trajectory(ts, [np.zeros(2), np.ones(2)])
    assert ts.flags.writeable  # the caller's array keeps its flags


@pytest.mark.parametrize("source, bound", [("read", 1.5), ("sampled", 2.1)])
def test_trajectories_keep_little_beyond_their_data(tmp_path, source, bound):
    """200 trajectories of 17 nodes x 16 coordinates, held, cost at most bound x their times' and states' bytes.

    A (t, x) tuple per node costs 2.5x read back and 2.4x sampled, above both bounds.
    """
    model, kind = make_gmm(0, 4, 16), dl.SolverKind("dpm2")
    schedule = dl.make_schedule("polynomial", 17, 0.002, 80.0, rho=7.0)
    x_T = dl.stream(0, "retained").standard_normal((200, 16)) * 80.0
    paths = [tmp_path / f"{i}.csv" for i in range(len(x_T))]
    for x, path in zip(x_T, paths):
        dl.write_trajectory_csv(dl.sample(model, kind, schedule, x), path)
    if source == "read":
        make = partial(map, dl.read_trajectory_csv, paths)
    else:
        make = partial(map, partial(dl.sample, model, kind, schedule), x_T)
    list(make())  # first calls fill numpy's and the interpreter's caches
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        held = list(make())
        kept = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    data = len(held) * 17 * (1 + 16) * 8
    assert kept <= bound * data, f"{kept / data:.3f} x the data bytes"


def test_write_csv_exact_text(tmp_path):
    from difflab.trajectory import write_csv

    path = tmp_path / "t.csv"
    third = float(np.float64(1.0) / 3.0)
    write_csv(path, ["i", "tag", "a", "b", "c", "d", "e"], [(3, "dpm2", 0.1, 1e-05, 1e16, float("nan"), third)])
    assert path.read_text() == "i,tag,a,b,c,d,e\n3,dpm2,0.1,1e-05,1e+16,nan,0.3333333333333333\n"


def test_parse_solver_spec():
    from difflab.solvers import parse_solver_spec

    assert parse_solver_spec("dpm2:0.3").r == 0.3
    assert parse_solver_spec("ipndm:2").order == 2
    with pytest.raises(ValueError):
        parse_solver_spec("euler_ddim:3")


def test_label_parses_back():
    from hypothesis import example, given, settings
    from hypothesis import strategies as st

    from difflab.solvers import parse_solver_spec

    kinds = [dl.SolverKind(tag) for tag in dl.solvers.SOLVER_TAGS]
    kinds += [dl.SolverKind("ipndm", order=k) for k in (1, 2, 3, 4)]
    for kind in kinds:
        assert parse_solver_spec(kind.label()) == kind
    assert [k.label() for k in kinds[:5]] == list(dl.solvers.SOLVER_TAGS)

    @given(st.floats(0.0, 1.0, exclude_min=True))
    @example(0.123456789)
    @settings(max_examples=200, deadline=None)
    def check(r):
        kind = dl.SolverKind("dpm2", r=r)
        assert parse_solver_spec(kind.label()) == kind

    check()


@pytest.mark.parametrize(
    "body,where",
    [
        ("t,x_0,x_1\n2.0,1.0,0.5\n1.0,0.5\n", ":3:"),
        ("t,x_0,x_1\n2.0,1.0,0.5,7.0\n", ":2:"),
        ("t,x_0,x_1\n2.0,1.0,0.5\n1.0,abc,0.5\n", ":3:"),
        ("t,x_0,x_1\n2.0,1.0,0.5\n1.0,nan,0.5\n", ":3: non-finite"),
        ("t,x_0,x_1\n2.0,1.0,inf\n1.0,0.5,0.5\n", ":2: non-finite"),
        ("t,x_0,x_1\n", ":1:"),
        ("step,t,mean_best_r\n0,1.0,0.5\n", ": not a trajectory CSV"),
    ],
    ids=["short_row", "long_row", "non_numeric", "nan_cell", "inf_cell", "header_only", "header_not_t"],
)
def test_trajectory_csv_rejects_malformed(tmp_path, body, where):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(ValueError, match=f"bad.csv{where}"):
        dl.read_trajectory_csv(path)


@pytest.mark.parametrize("tag", ["euler_ddim", "dpm2", "dpmpp_2m"])
def test_nan_state_aborts_naming_the_interval(monkeypatch, gmm2_d8, poly_schedule, tag):
    monkeypatch.setattr(solvers, "eval_model", const_field(np.full(8, np.nan)))
    t_hi, t_lo = poly_schedule.times[::-1][:2]
    with pytest.raises(dl.DivergenceError, match=rf"^{tag} diverged in interval \[{t_lo:g}, {t_hi:g}\]$"):
        dl.sample(gmm2_d8, dl.SolverKind(tag), poly_schedule, np.ones(8))


def _walk(model, tag, schedule, x_T, afs):
    """The schedule walk ``run_experiment`` streams: ``sample``'s, with no node collected."""
    return solvers._run(model, partial(solvers.substep, model, dl.SolverKind(tag)), schedule, x_T, afs, tag)


@pytest.mark.parametrize("afs", [False, True], ids=["exact_first", "afs"])
@pytest.mark.parametrize("tag", solvers.SOLVER_TAGS)
def test_streamed_walk_ends_where_sample_does(gmm2_d8, poly_schedule, tag, afs):
    """The newest state and NFE of the stream are sample's endpoint and nfe, bitwise.

    Between two nodes the consumer runs under its own numpy error state: the
    walk sets its own around each step, never across a yield.
    """
    x_T = dl.stream(0, "probe").standard_normal((4, 8)) * 80.0
    seen = []
    with np.errstate(all="warn"):
        mine = np.geterr()
        for _, x, nfe in _walk(gmm2_d8, tag, poly_schedule, x_T, afs):
            seen.append(np.geterr())
    traj = dl.sample(gmm2_d8, dl.SolverKind(tag), poly_schedule, x_T, afs=afs)
    assert np.array_equal(x, traj.endpoint) and nfe == traj.nfe
    assert len(seen) == len(traj.nodes) and all(e == mine for e in seen)


@pytest.mark.parametrize("afs", [False, True], ids=["exact_first", "afs"])
@pytest.mark.parametrize("tag", solvers.SOLVER_TAGS)
def test_streamed_walk_diverges_as_sample_does(gmm2_d8, tag, afs):
    """Above t = 1.3e154 eval_model's t*t overflows: both name the solver and the interval."""
    schedule = dl.make_schedule("polynomial", 6, 0.002, 1e200, rho=7.0)
    x_T = dl.stream(0, "probe").standard_normal((4, 8)) * 1e200
    messages = []
    for run in (lambda: deque(_walk(gmm2_d8, tag, schedule, x_T, afs), maxlen=0),
                lambda: dl.sample(gmm2_d8, dl.SolverKind(tag), schedule, x_T, afs=afs)):
        with pytest.raises(dl.DivergenceError, match=rf"^{tag} diverged in interval \[") as err:
            run()
        messages.append(str(err.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("tag", solvers.SOLVER_TAGS)
def test_walk_refuses_a_non_finite_first_slope(monkeypatch, gmm2_d8, poly_schedule, tag, bad):
    """An injected first slope is made outside the walk's rule; the walk checks it in interval 0, before the step."""
    calls = count_model_calls(monkeypatch, solvers)
    x_T = dl.stream(0, "probe").standard_normal((4, 8)) * 80.0
    t_hi, t_lo = poly_schedule.times[::-1][:2]
    walk = dl.trajectory._walk_schedule(partial(solvers.substep, gmm2_d8, dl.SolverKind(tag)), poly_schedule, x_T,
                                        np.full_like(x_T, bad), tag)
    with pytest.raises(dl.DivergenceError, match=rf"^{tag} diverged in interval \[{t_lo:g}, {t_hi:g}\]$"):
        deque(walk, maxlen=0)
    assert calls == []


# Each step rule forms its update in arrays it allocated.  The references below are the rules written out,
# one fresh array per operation; the steps must match them bit for bit and leave their inputs unwritten.
_col, _B = solvers._col, 5


def _ref_split(model, x, t_hi, t_lo, r, eps1, base=None, w=1.0, c=1.0, a=None, carry=None):
    s = dl.schedules._geom(t_lo, t_hi, r)
    t_eval = s if a is None else a * s
    if base is None:
        eps2 = dl.eval_model(model, x + _col(s - t_hi, x) * eps1, t_eval).epsilon
        return x + _col(t_lo - t_hi, x) * (_col(c, x) * (_col(w, x) * eps2 + _col(1.0 - w, x) * eps1)), None
    x_s, carry = _ref_substep(model, base, x, t_hi, s, eps1, carry, 1.0)
    return _ref_substep(model, base, x_s, s, t_lo, dl.eval_model(model, x_s, t_eval).epsilon, carry, c)


def _ref_ipndm(x, t_hi, t_lo, eps, history, scale, max_order):
    coeffs = solvers._AB_COEFFS[min(len(history) + 1, max_order)]
    combo = coeffs[0] * eps
    for c, past in zip(coeffs[1:], history):
        combo = combo + c * past
    return x + _col(t_lo - t_hi, x) * (_col(scale, x) * combo), ((eps,) + tuple(history))[: max_order - 1] or None


def _ref_dpmpp_2m(x, t_hi, t_lo, eps, prev, scale):
    denoised = x - _col(t_hi, x) * eps
    h = np.log(t_hi) - np.log(t_lo)
    d_combo = denoised
    if prev is not None:
        w = _col(1.0 / (2.0 * ((np.log(prev[0]) - np.log(t_hi)) / h)), x)
        d_combo = (1.0 + w) * denoised - w * prev[1]
    return _col(t_lo, x) / _col(t_hi, x) * x - _col(np.expm1(-h), x) * (_col(scale, x) * d_combo), (t_hi, denoised)


def _ref_substep(model, kind, x, t_hi, t_lo, eps, carry, scale):
    if kind.tag in ("heun_edm", "dpm2"):
        r = 1.0 if kind.tag == "heun_edm" else kind.r
        return _ref_split(model, x, t_hi, t_lo, r, eps, w=1.0 / (2.0 * r), c=scale)
    if kind.tag == "dpmpp_2m":
        return _ref_dpmpp_2m(x, t_hi, t_lo, eps, carry, scale)
    return _ref_ipndm(x, t_hi, t_lo, eps, carry or (), scale, 1 if kind.tag == "euler_ddim" else kind.order)


def _inputs(shape):
    """(x, c, r, a): a (d,) state, a (B, d) batch with per-sample factors, or ``step_loss_grad``'s probe grid."""
    rng = dl.stream(11, "own buffers", shape)
    if shape == "state":
        return rng.standard_normal(8) * 20.0, 0.9, 0.4, None
    x = rng.standard_normal((_B, 8)) * 20.0
    if shape == "batch":
        return x, rng.uniform(0.8, 1.2, _B), rng.uniform(0.2, 1.0, _B), None
    return x[None, None], rng.uniform(0.8, 1.2, (3, 1, _B)), rng.uniform(0.2, 1.0, (1, 3, _B)), rng.uniform(0.9, 1.1, (1, 3, _B))


def _past(x, n):
    """n past slopes shaped like x, newest first."""
    return tuple(dl.stream(12, "past", i).standard_normal(x.shape) for i in range(n))


def _frozen(*entries):
    """(array, copy) for every array entry; scalar entries (a time) are skipped."""
    return [(e, e.copy()) for e in entries if np.ndim(e)]


def _same(got, want):
    return got is want is None or (len(got) == len(want) and all(np.array_equal(g, w) for g, w in zip(got, want)))


_SHAPES = pytest.mark.parametrize("shape", ["state", "batch", "probe"])
_INJECT = pytest.mark.parametrize("inject", [False, True], ids=["evaluated", "injected"])


@_INJECT
@_SHAPES
@pytest.mark.parametrize("base", [None, *solvers.SOLVER_TAGS])
def test_split_step_bits_and_read_only_inputs(gmm2_d8, base, shape, inject):
    """With no base and with each base: the written-out rule's bits; x, the slope and the carry stay unwritten."""
    x, c, r, a = _inputs(shape)
    kind = None if base is None else dl.SolverKind(base)
    carry = {"ipndm": _past(x, 3), "dpmpp_2m": (5.0, _past(x, 1)[0])}.get(base)
    eps1 = dl.eval_model(gmm2_d8, x, 3.0).epsilon
    want, want_carry = _ref_split(gmm2_d8, x, 3.0, 1.0, r, eps1, kind, c=c, a=a, carry=carry)
    inputs = _frozen(x, eps1, *(carry or ()))
    got, _, got_carry = solvers.split_step(gmm2_d8, x, 3.0, 1.0, r, base=kind, c=c, a=a, carry=carry,
                                           eps_cur=eps1 if inject else None)
    assert np.array_equal(got, want) and _same(got_carry, want_carry)
    assert all(np.array_equal(e, before) for e, before in inputs)


@_INJECT
@_SHAPES
@pytest.mark.parametrize("r", [0.5, 1.0])
def test_step_dpm2_bits_and_read_only_inputs(gmm2_d8, r, shape, inject):
    x, c, _, _ = _inputs(shape)
    eps1 = dl.eval_model(gmm2_d8, x, 3.0).epsilon
    want, _ = _ref_split(gmm2_d8, x, 3.0, 1.0, r, eps1, w=1.0 / (2.0 * r), c=c)
    inputs = _frozen(x, eps1)
    got, nfe, carry = solvers.step_dpm2(gmm2_d8, x, 3.0, 1.0, r, eps_cur=eps1 if inject else None, scale=c)
    assert np.array_equal(got, want) and nfe == 2 - inject and carry is None
    assert all(np.array_equal(e, before) for e, before in inputs)


def _two_steps(model, step, ref, x, c, r, carry, inject):
    """Two steps through a split point s, as a base's two substeps take them: to s (per-sample in the
    batch, per-probe in the grid, where the time column widens the state), then from s to the floor,
    each scaled by c and fed the previous step's carry.  Each matches its reference bitwise and leaves
    x, an injected slope and every carry entry unwritten."""
    s = dl.schedules._geom(1.0, 3.0, r)
    for t_hi, t_lo in ((3.0, s), (s, 1.0)):
        eps = dl.eval_model(model, x, t_hi).epsilon
        want, want_carry = ref(x, t_hi, t_lo, eps, carry, c)
        inputs = _frozen(x, eps, *(carry or ()))
        got, nfe, got_carry = step(model, x, t_hi, t_lo, carry, eps_cur=eps if inject else None, scale=c)
        assert np.array_equal(got, want) and nfe == 1 - inject and _same(got_carry, want_carry)
        assert all(np.array_equal(e, before) for e, before in inputs)
        x, carry = got, got_carry


@_INJECT
@_SHAPES
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_step_ipndm_bits_and_read_only_inputs(gmm2_d8, order, shape, inject):
    x, c, r, _ = _inputs(shape)

    def step(model, x, t_hi, t_lo, history, **kw):
        return solvers.step_ipndm(model, x, t_hi, t_lo, history or (), max_order=order, **kw)

    def ref(x, t_hi, t_lo, eps, history, scale):
        return _ref_ipndm(x, t_hi, t_lo, eps, history or (), scale, order)

    _two_steps(gmm2_d8, step, ref, x, c, r, _past(x, order - 1), inject)


@_INJECT
@_SHAPES
@pytest.mark.parametrize("with_prev", [False, True], ids=["first", "prev"])
def test_step_dpmpp_2m_bits_and_read_only_inputs(gmm2_d8, with_prev, shape, inject):
    x, c, r, _ = _inputs(shape)
    _two_steps(gmm2_d8, solvers.step_dpmpp_2m, _ref_dpmpp_2m, x, c, r, (5.0, _past(x, 1)[0]) if with_prev else None, inject)


@pytest.mark.parametrize("tag,states", [("euler_ddim", 3.5), ("heun_edm", 5.5), ("dpm2", 5.5), ("ipndm", 7.5), ("dpmpp_2m", 5.5)])
def test_streamed_walk_peak_in_states(poly_schedule, tag, states):
    """A streamed walk's peak above its input, in states of batch x d doubles, after a warm walk.

    At d = 1024 a state outweighs every per-component array.  Forming each
    update in fresh arrays read 4.0 states for euler_ddim, 6.0 for heun_edm
    and dpm2 and 7.0 for ipndm and dpmpp_2m; forming it in arrays the step
    allocated reads 3.3, 5.3, 7.0 and 5.0.  ipndm's 7 are its floor: the
    current state, the four slopes of an order-4 step (three carried), the
    running sum and one product.
    """
    model = make_gmm(3, 4, 1024)
    x_T = dl.stream(0, "x_T").standard_normal((32, 1024)) * 80.0

    def walk():
        deque(_walk(model, tag, poly_schedule, x_T, False), maxlen=0)

    walk()
    peak = traced_peak(walk)
    assert peak <= states * x_T.nbytes, peak / x_T.nbytes


@pytest.mark.parametrize("tag", ["heun_edm", "dpm2"])
def test_split_walks_evaluate_into_their_split_state(poly_schedule, tag):
    """The split slope is evaluated into x_s, which the step reads no more: one state below the 5.3
    that ``test_streamed_walk_peak_in_states`` bounds by 5.5; 4.3 at d = 1024."""
    model = make_gmm(3, 4, 1024)
    x_T = dl.stream(0, "x_T").standard_normal((32, 1024)) * 80.0

    def walk():
        deque(_walk(model, tag, poly_schedule, x_T, False), maxlen=0)

    walk()
    peak = traced_peak(walk)
    assert peak <= 4.5 * x_T.nbytes, peak / x_T.nbytes


@_INJECT
@pytest.mark.parametrize("a", [None, 1.2], ids=["s", "time-scaled"])
@pytest.mark.parametrize("r", [0.4, "per-sample"])
def test_split_step_on_a_fortran_ordered_state(monkeypatch, gmm2_d8, r, a, inject):
    """With no base the split slope is evaluated into x_s, which eval_model's out= needs C-ordered: a split
    step on a Fortran-ordered (2, 5, 8) batch, with a Fortran-ordered injected slope, hands it a C-ordered
    x_s and returns its C-ordered copy's endpoint bit for bit."""
    outs = []

    def spy(model, x, t, out=None):
        outs.append(out)
        return dl.eval_model(model, x, t, out=out)

    monkeypatch.setattr(solvers, "eval_model", spy)
    rng = dl.stream(13, "fortran")
    x_c = rng.standard_normal((2, 5, 8)) * 20.0
    r = rng.uniform(0.2, 1.0, (2, 5)) if r == "per-sample" else r
    eps = dl.eval_model(gmm2_d8, x_c, 3.0).epsilon if inject else None
    want, _, _ = solvers.split_step(gmm2_d8, x_c, 3.0, 1.0, r, c=0.9, a=a, eps_cur=eps)
    outs.clear()
    got, _, _ = solvers.split_step(gmm2_d8, np.asfortranarray(x_c), 3.0, 1.0, r, c=0.9, a=a,
                                   eps_cur=None if eps is None else np.asfortranarray(eps))
    assert outs[-1] is not None and outs[-1].flags.c_contiguous and outs[-1].shape == x_c.shape
    assert got.shape == want.shape == x_c.shape and np.array_equal(got, want)


def test_split_step_time_scale_wider_than_its_split(gmm2_d8):
    """A time scale a wider than the split point widens the split slope past x_s: it is evaluated into a fresh
    array, and the step widens as the written-out rule does."""
    x = dl.stream(14, "wide a").standard_normal((_B, 8)) * 20.0
    eps1 = dl.eval_model(gmm2_d8, x, 3.0).epsilon
    a = np.linspace(0.9, 1.1, 3)[:, None] * np.ones(_B)
    want, _ = _ref_split(gmm2_d8, x, 3.0, 1.0, 0.4, eps1, c=0.9, a=a)
    got, _, _ = solvers.split_step(gmm2_d8, x, 3.0, 1.0, 0.4, c=0.9, a=a, eps_cur=eps1)
    assert got.shape == (3, _B, 8) and np.array_equal(got, want)
