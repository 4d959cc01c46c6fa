import json
import math
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import difflab as dl
from difflab import amed
from difflab.amed import (
    PredictorParams,
    TrainConfig,
    predict_with_cache,
    predictor_vjp,
    step_loss,
    step_loss_grad,
)

from conftest import make_gmm, nan_interval, traced_peak


def rand_params(seed=0, hidden=4, emb_dim=8, outputs=3, scale=0.3):
    rng = dl.stream(seed, "rand-params")
    p = PredictorParams.init(rng, hidden=hidden, emb_dim=emb_dim, outputs=outputs)
    return replace(
        p,
        w3=scale * rng.standard_normal(p.w3.shape),
        b3=0.1 * rng.standard_normal(p.b3.shape),
        b1=0.1 * rng.standard_normal(p.b1.shape),
        b2=0.1 * rng.standard_normal(p.b2.shape),
    )


def test_zero_params_emit_neutral_outputs():
    p = PredictorParams.zeros(outputs=3)
    out = predict_with_cache(p, np.zeros(16), 80.0, 30.0)[0]
    assert out.r == 0.5 and out.c == 1.0 and out.a == 1.0


def test_predict_is_pure():
    p = rand_params()
    h = dl.stream(1, "h").random(16)
    a = predict_with_cache(p, h, 10.0, 2.0)[0]
    b = predict_with_cache(p, h, 10.0, 2.0)[0]
    assert a.r == b.r and a.c == b.c and a.a == b.a


def test_feature_sensitivity_and_zero_feature_independence():
    p = rand_params(scale=0.5)
    rng = dl.stream(2, "h")
    h1, h2 = rng.random(16), rng.random(16)
    o1, o2 = predict_with_cache(p, h1, 10.0, 2.0)[0], predict_with_cache(p, h2, 10.0, 2.0)[0]
    assert o1.r != o2.r  # feature path is live
    z = predict_with_cache(p, np.zeros(16), 10.0, 2.0)[0]
    z2 = predict_with_cache(p, np.zeros(16), 10.0, 2.0)[0]
    assert z.r == z2.r  # zeroed feature makes the output state-independent


@given(st.floats(-30, 30), st.floats(-30, 30), st.floats(-30, 30))
@settings(max_examples=60, deadline=None)
def test_output_ranges(b1, b2, b3):
    p = replace(PredictorParams.zeros(outputs=3), b3=np.array([b1, b2, b3]))
    out = predict_with_cache(p, np.zeros(16), 50.0, 10.0)[0]
    assert 0.0 < out.r < 1.0
    assert 0.0 < out.c < 2.0
    assert 0.5 < out.a < 1.5


def _nan_w2(p):
    w2 = p.w2.copy()
    w2[0, 0] = np.nan
    return {"w2": w2}


@pytest.mark.parametrize(
    "fields,message",
    [
        (lambda p: {"w1": np.zeros((8, p.hidden))}, "w1 has 8 rows, the feature is 16 wide"),
        (lambda p: {"b1": np.zeros(p.hidden + 1)}, "feature-path shapes"),
        (lambda p: {"b3": np.zeros(3)}, "output-layer shapes"),
        (lambda p: {"w3": np.zeros((p.w3.shape[0], 4)), "b3": np.zeros(4)}, "2 or 3 outputs"),
        (_nan_w2, "must be finite"),
    ],
    ids=["w1_width", "feature_path", "output_layer", "output_count", "non_finite"],
)
def test_predictor_params_reject_malformed_weights(fields, message):
    p = PredictorParams.zeros(hidden=4, emb_dim=8)
    with pytest.raises(ValueError, match=message):
        replace(p, **fields(p))


FIELDS = ("w1", "b1", "w2", "b2", "w3", "b3")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", FIELDS)
def test_predictor_params_reject_non_finite_weight_in_any_field(name, bad):
    p = PredictorParams.zeros(hidden=4, emb_dim=8)
    a = getattr(p, name).copy()
    a.flat[-1] = bad
    with pytest.raises(ValueError, match="predictor weights must be finite"):
        replace(p, **{name: a})


def test_fields_are_read_only_views_of_theta():
    p = rand_params(seed=4, hidden=8, emb_dim=8, outputs=3)
    assert p.theta.shape == (p.n_params,) and not p.theta.flags.writeable
    np.testing.assert_array_equal(np.concatenate([getattr(p, k).ravel() for k in FIELDS]), p.theta)
    for name in FIELDS:
        a = getattr(p, name)
        assert np.shares_memory(a, p.theta) and not a.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0.0


def test_replace_rebuilds_theta():
    p = rand_params(seed=4, hidden=8, emb_dim=8, outputs=2)
    before = p.theta.copy()
    w3 = np.full(p.w3.shape, 0.25)
    q = replace(p, w3=w3)
    assert q.theta is not p.theta and np.shares_memory(q.w3, q.theta) and not np.shares_memory(q.w3, w3)
    assert w3.flags.writeable  # the caller's array is copied, not locked
    np.testing.assert_array_equal(q.w3, w3)
    np.testing.assert_array_equal(p.theta, before)
    for name in ("w1", "b1", "w2", "b2", "b3"):
        np.testing.assert_array_equal(getattr(q, name), getattr(p, name))
        assert not np.shares_memory(getattr(q, name), p.theta), name


def per_array_adam(params, grads_seq, lr):
    """Adam applied field by field (beta1 0.9, beta2 0.999, eps 1e-8): the reference for the flat update."""
    m = {k: np.zeros_like(getattr(params, k)) for k in FIELDS}
    v = {k: np.zeros_like(getattr(params, k)) for k in FIELDS}
    for t, grads in enumerate(grads_seq, start=1):
        out = {}
        for k in FIELDS:
            g = grads[k]
            m[k] = 0.9 * m[k] + (1.0 - 0.9) * g
            v[k] = 0.999 * v[k] + (1.0 - 0.999) * g * g
            m_hat = m[k] / (1.0 - 0.9**t)
            v_hat = v[k] / (1.0 - 0.999**t)
            out[k] = getattr(params, k) - lr * m_hat / (np.sqrt(v_hat) + 1e-8)
        params = replace(params, **out)
    return params


@pytest.mark.parametrize("outputs", [2, 3])
def test_flat_adam_matches_per_array_adam_bitwise(outputs):
    p0 = rand_params(seed=8, hidden=16, emb_dim=8, outputs=outputs)
    rng = dl.stream(9, "adam-grads")
    # Per-field gradient scales spread over six decades, as the per-interval losses do.
    scales = {k: 10.0 ** rng.uniform(-4, 2) for k in FIELDS}
    grads_seq = [{k: scales[k] * rng.standard_normal(getattr(p0, k).shape) for k in FIELDS} for _ in range(25)]
    opt, p = amed.AdamState(p0), p0
    for grads in grads_seq:
        p = opt.update(p, grads, 3e-3)
    assert opt.t == 25 and opt.m.shape == opt.v.shape == p0.theta.shape
    want = per_array_adam(p0, grads_seq, 3e-3)
    for name in FIELDS:
        np.testing.assert_array_equal(getattr(p, name), getattr(want, name), err_msg=name)
    assert not np.array_equal(p.theta, p0.theta)


@pytest.mark.parametrize("outputs", [2, 3])
def test_adam_update_rebuilds_params_over_the_new_vector(outputs):
    p = rand_params(seed=10, hidden=8, emb_dim=8, outputs=outputs)
    rng = dl.stream(11, "adam-in-place")
    grads = {k: rng.standard_normal(getattr(p, k).shape) for k in FIELDS}
    grads_before = {k: g.copy() for k, g in grads.items()}
    theta_before = p.theta.copy()
    opt = amed.AdamState(p)
    m, v = opt.m, opt.v
    q = opt.update(opt.update(p, grads, 3e-3), grads, 3e-3)
    assert opt.m is m and opt.v is v  # the moments are updated in place
    np.testing.assert_array_equal(p.theta, theta_before)
    for k in FIELDS:
        np.testing.assert_array_equal(grads[k], grads_before[k], err_msg=k)
        assert grads[k].flags.writeable and not np.shares_memory(grads[k], q.theta), k
    assert not q.theta.flags.writeable and not np.shares_memory(q.theta, p.theta)
    want = PredictorParams(**amed._views(q.theta, p))
    for k in FIELDS:
        a = getattr(q, k)
        np.testing.assert_array_equal(a, getattr(want, k), err_msg=k)
        assert a.shape == getattr(p, k).shape and np.shares_memory(a, q.theta) and not a.flags.writeable, k
    assert (q.hidden, q.emb_dim, q.outputs, q.n_params) == (p.hidden, p.emb_dim, p.outputs, p.n_params)


@pytest.mark.parametrize("form", ["float", "numpy", "array"])
@pytest.mark.parametrize("which", ["t_hi", "t_lo"])
@pytest.mark.parametrize("base", [None, "ipndm", "dpm2"])
def test_learned_steps_reject_nan_times(gmm2_d8, base, which, form):
    t_hi, t_lo = nan_interval(form, which)
    p = PredictorParams.zeros(outputs=3)
    x = dl.stream(15, "nan").standard_normal((2, 8) if form == "array" else 8)
    kind = None if base is None else dl.SolverKind(base)
    with pytest.raises(ValueError, match="need 0 < t_lo < t_hi < inf"):
        amed.amed_step(gmm2_d8, p, x, t_hi, t_lo, base=kind, eps_cur=x)
    with pytest.raises(ValueError, match="need 0 < t_lo < t_hi < inf"):
        step_loss_grad(gmm2_d8, p, kind, x, t_hi, t_lo, x, eps_cur=x)


@pytest.mark.parametrize("base", [None, "ipndm"])
def test_nan_state_aborts_amed_sample_naming_the_interval(monkeypatch, gmm2_d8, poly_schedule, base):
    def nan_eval(model, x, t):
        return dl.ModelEval(epsilon=np.full(np.shape(x), np.nan))

    monkeypatch.setattr(amed, "eval_model", nan_eval)
    monkeypatch.setattr(dl.solvers, "eval_model", nan_eval)
    t_hi, t_lo = poly_schedule.times[::-1][:2]
    kind = None if base is None else dl.SolverKind(base)
    with pytest.raises(dl.DivergenceError, match=rf"^amed diverged in interval \[{t_lo:g}, {t_hi:g}\]$"):
        amed.amed_sample(gmm2_d8, PredictorParams.zeros(), poly_schedule, np.ones(8), base=kind)


def test_predict_rejects_feature_of_wrong_width():
    with pytest.raises(ValueError, match="feature has width 8, predictor expects 16"):
        predict_with_cache(PredictorParams.zeros(), np.zeros((3, 8)), 10.0, 2.0)


def test_param_budget_enforced():
    with pytest.raises(ValueError):
        PredictorParams.zeros(hidden=256)
    # the default configuration stays far under budget
    assert PredictorParams.zeros().n_params <= 20_000


@pytest.mark.parametrize("afs", [False, True])
def test_amed_step_zero_init_equals_dpm2(gmm2_d8, poly_schedule, afs):
    # With AFS the first interval's predictor reads the all-zero feature.
    zp = PredictorParams.zeros()
    for seed in range(10):
        x = dl.stream(seed, "eq2").standard_normal(8) * 80.0
        t1 = dl.amed_sample(gmm2_d8, zp, poly_schedule, x, afs=afs)
        t2 = dl.sample(gmm2_d8, dl.SolverKind("dpm2", r=0.5), poly_schedule, x, afs=afs)
        assert t1.nfe == t2.nfe
        for (ta, xa), (tb, xb) in zip(t1.nodes, t2.nodes):
            np.testing.assert_array_equal(xa, xb)


def test_plugin_zero_init_is_pure_interval_split(gmm2_d8, poly_schedule):
    from difflab.schedules import _geom
    from difflab.solvers import substep

    zp = PredictorParams.zeros()
    x = dl.stream(1, "pl").standard_normal(8) * 80.0
    traj = dl.amed_sample(gmm2_d8, zp, poly_schedule, x, base=dl.SolverKind("euler_ddim"))
    ts = poly_schedule.times[::-1]
    cur = x
    for i in range(len(ts) - 1):
        t_hi, t_lo = float(ts[i]), float(ts[i + 1])
        s = float(_geom(t_lo, t_hi, np.float64(0.5)))
        cur, _, _ = substep(gmm2_d8, dl.SolverKind("euler_ddim"), cur, t_hi, s)
        cur, _, _ = substep(gmm2_d8, dl.SolverKind("euler_ddim"), cur, s, t_lo)
        np.testing.assert_array_equal(cur, traj.nodes[i + 1][1])


def test_amed_constant_field_with_unit_scale(monkeypatch, gmm2_d8):
    import difflab.amed as amed_mod
    import difflab.solvers as solvers_mod
    from test_solvers import const_field

    vec = np.linspace(-1, 1, 8)
    monkeypatch.setattr(solvers_mod, "eval_model", const_field(vec))
    monkeypatch.setattr(amed_mod, "eval_model", const_field(vec))
    x = np.ones(8)
    x2, _, _ = amed.amed_step(gmm2_d8, PredictorParams.zeros(), x, 5.0, 1.0)
    np.testing.assert_allclose(x2, x + (1.0 - 5.0) * vec, rtol=1e-12)


@pytest.mark.parametrize("base_tag,per", [("euler_ddim", 2), ("ipndm", 2), ("dpmpp_2m", 2), ("heun_edm", 4), ("dpm2", 4)])
def test_plugin_doubles_base_eval_count(gmm2_d8, poly_schedule, base_tag, per):
    zp = PredictorParams.zeros()
    x = dl.stream(2, "nfe").standard_normal(8) * 80.0
    traj = dl.amed_sample(gmm2_d8, zp, poly_schedule, x, base=dl.SolverKind(base_tag))
    assert traj.nfe == per * (poly_schedule.n - 1)


def test_amed_nfe_accounting(gmm2_d8):
    zp = PredictorParams.zeros()
    x = dl.stream(3, "nfe").standard_normal(8) * 80.0
    for n in range(2, 7):
        sch = dl.make_schedule("polynomial", n, 0.002, 80.0, rho=7.0)
        assert dl.amed_sample(gmm2_d8, zp, sch, x).nfe == 2 * (n - 1)
        assert dl.amed_sample(gmm2_d8, zp, sch, x, afs=True).nfe == 2 * (n - 1) - 1
        traj = dl.amed_sample(gmm2_d8, zp, sch, x, base=dl.SolverKind("ipndm"), afs=True)
        assert traj.nfe == 2 * (n - 1) - 1


@pytest.mark.parametrize("base_tag", [None, "euler_ddim", "heun_edm", "dpm2", "ipndm", "dpmpp_2m"])
@pytest.mark.parametrize("afs", [False, True])
def test_amed_counted_model_calls_equal_nfe(monkeypatch, gmm2_d8, base_tag, afs):
    import difflab.solvers as solvers_mod
    from test_solvers import count_model_calls

    calls = count_model_calls(monkeypatch, solvers_mod, amed)
    p = rand_params(outputs=3, hidden=64, emb_dim=16)
    base = None if base_tag is None else dl.SolverKind(base_tag)
    x = dl.stream(3, "calls").standard_normal((4, 8)) * 80.0
    for n in range(2, 6):
        sch = dl.make_schedule("polynomial", n, 0.002, 80.0, rho=7.0)
        calls.clear()
        traj = dl.amed_sample(gmm2_d8, p, sch, x, base=base, afs=afs)
        assert traj.nfe > 0 and len(calls) == traj.nfe


@pytest.mark.parametrize("afs", [False, True])
def test_amed_sample_rejects_state_of_wrong_dim(poly_schedule, afs):
    model = dl.load_model(Path(__file__).resolve().parent.parent / "configs" / "gmm2_d8.json")
    with pytest.raises(ValueError, match="state has dim 3, model has dim 8"):
        dl.amed_sample(model, PredictorParams.zeros(), poly_schedule, np.zeros((2, 3)), afs=afs)


def test_amed_sample_deterministic(gmm2_d8, poly_schedule):
    p = rand_params(outputs=2, hidden=64, emb_dim=16)
    x = dl.stream(4, "det").standard_normal(8) * 80.0
    a = dl.amed_sample(gmm2_d8, p, poly_schedule, x)
    b = dl.amed_sample(gmm2_d8, p, poly_schedule, x)
    np.testing.assert_array_equal(a.endpoint, b.endpoint)


def test_time_scale_changes_second_eval(monkeypatch, gmm2_d8, poly_schedule):
    import difflab.solvers as solvers_mod
    from test_solvers import count_model_calls

    calls = count_model_calls(monkeypatch, solvers_mod, amed)
    p3 = replace(PredictorParams.zeros(outputs=3), b3=np.array([0.0, 0.0, 2.0]))
    out = predict_with_cache(p3, np.zeros(16), 10.0, 2.0)[0]
    assert out.a > 1.0
    x = dl.stream(5, "ts").standard_normal(8) * 10.0
    x_scaled, _, _ = amed.amed_step(gmm2_d8, p3, x, 10.0, 2.0)
    x_plain, _, _ = amed.amed_step(gmm2_d8, PredictorParams.zeros(outputs=2), x, 10.0, 2.0)
    assert len(calls) == 4 and calls[1] > calls[3]  # second evaluation happens at a*s > s
    assert not np.allclose(x_scaled, x_plain)


@pytest.mark.parametrize("t_hi,t_lo", [(2.0, 2.0), (2.0, 3.0), (2.0, 0.0), (2.0, -1.0)])
def test_learned_steps_reject_invalid_intervals(gmm2_d8, t_hi, t_lo):
    p = PredictorParams.zeros(outputs=3)
    x = dl.stream(15, "bad").standard_normal(8)
    with pytest.raises(ValueError, match="t_lo"):
        amed.amed_step(gmm2_d8, p, x, t_hi, t_lo)
    with pytest.raises(ValueError, match="t_lo"):
        amed.amed_step(gmm2_d8, p, x, t_hi, t_lo, base=dl.SolverKind("ipndm"))


def test_plugin_time_scale_moves_second_eval(monkeypatch, gmm2_d8):
    import difflab.solvers as solvers_mod
    from test_solvers import count_model_calls

    calls = count_model_calls(monkeypatch, solvers_mod, amed)
    p3 = replace(PredictorParams.zeros(outputs=3), b3=np.array([0.0, 0.0, 2.0]))
    x = dl.stream(14, "pts").standard_normal(8) * 10.0
    base = dl.SolverKind("euler_ddim")
    x_a, _, _ = amed.amed_step(gmm2_d8, p3, x, 10.0, 2.0, base=base)
    x_n, _, _ = amed.amed_step(gmm2_d8, PredictorParams.zeros(outputs=2), x, 10.0, 2.0, base=base)
    assert len(calls) == 4 and calls[1] > calls[3]
    assert not np.allclose(x_a, x_n)


def _full_fd_gradient(m, params, student, x, t_hi, t_lo, y, carry):
    """Central differences of step_loss in every predictor weight."""
    fd = {}
    for name in ("w1", "b1", "w2", "b2", "w3", "b3"):
        a = getattr(params, name)
        fd[name] = np.zeros_like(a)
        it = np.nditer(a, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            h = 1e-5 * max(abs(a[idx]), 1.0)
            up, down = a.copy(), a.copy()
            up[idx] += h
            down[idx] -= h
            lp = step_loss(m, replace(params, **{name: up}), student, x, t_hi, t_lo, y, carry)
            lm = step_loss(m, replace(params, **{name: down}), student, x, t_hi, t_lo, y, carry)
            fd[name][idx] = (lp - lm) / (2 * h)
    return fd


def test_fd_gradient_matches_full_fd():
    # tiny instance: hidden=4, d=2; every student with 2 and 3 outputs, over three
    # intervals that continue from the student's own states and carries
    m = make_gmm(0, 2, 2, spread=2.0, s_lo=0.7, s_hi=1.1)
    ts = (10.0, 5.0, 2.0, 0.8)
    for student_tag in (None, "euler_ddim", "heun_edm", "dpm2", "ipndm", "dpmpp_2m"):
        student = None if student_tag is None else dl.SolverKind(student_tag)
        for outputs in (2, 3):
            params = rand_params(seed=1, hidden=4, emb_dim=8, outputs=outputs)
            x = dl.stream(2, "x").standard_normal((5, 2)) * 10.0
            carry = None
            for k in range(3):
                t_hi, t_lo, y = ts[k], ts[k + 1], dl.stream(3, "y", k).standard_normal((5, 2))
                loss, grads, x_next, carry_next = step_loss_grad(m, params, student, x, t_hi, t_lo, y, carry)
                assert np.isfinite(loss)
                fd = _full_fd_gradient(m, params, student, x, t_hi, t_lo, y, carry)
                g = np.concatenate([grads[name].ravel() for name in fd])
                want = np.concatenate([v.ravel() for v in fd.values()])
                rel = np.linalg.norm(g - want) / np.linalg.norm(want)
                assert rel <= 1e-4, (student_tag, outputs, k, rel)
                x, carry = x_next, carry_next


def _serial_step_loss_grad(model, params, student, x, t_hi, t_lo, y, carry=None):
    """Reference form of step_loss_grad: one full student step per logit probe."""
    eps1, _, _, cache = amed._predict_for_step(model, params, x, t_hi, t_lo, None)
    o, h = cache["o"], 1e-3

    def step(shift):
        out = amed._squash(o + shift)
        return dl.split_step(model, x, t_hi, t_lo, out.r, base=student, c=out.c, a=out.a,
                             carry=carry, eps_cur=eps1)

    x_next, _, carry_next = step(0.0)
    norms = np.linalg.norm(x_next - y, axis=-1)
    g_o = np.zeros_like(o)
    for j, e in enumerate(np.eye(params.outputs) * h):
        n_plus = np.linalg.norm(step(e)[0] - y, axis=-1)
        n_minus = np.linalg.norm(step(-e)[0] - y, axis=-1)
        g_o[..., j] = n_plus - n_minus
    grads = predictor_vjp(params, cache, g_o / (2 * h * norms.size))
    return float(np.mean(norms)), grads, x_next, carry_next


# At batch 64 the order of numpy's sums depends on memory layout, which batch 6 does not show.
@pytest.mark.parametrize("outputs, batch", [(2, 6), (3, 6), (2, 64), (3, 64)], ids=["2", "3", "2-64", "3-64"])
@pytest.mark.parametrize("student_tag", [None, "euler_ddim", "heun_edm", "dpm2", "ipndm", "dpmpp_2m"])
def test_probe_grid_matches_serial_probes_bitwise(gmm2_d8, poly_schedule, student_tag, outputs, batch):
    # Two intervals, so the ipndm and dpmpp_2m carries entering the second are non-empty.
    params = rand_params(seed=11, hidden=8, emb_dim=8, outputs=outputs)
    student = None if student_tag is None else dl.SolverKind(student_tag)
    ts = poly_schedule.times[::-1]
    x_grid = x_ref = dl.stream(12, "grid").standard_normal((batch, 8)) * 80.0
    carry_grid = carry_ref = None
    for k in range(2):
        t_hi, t_lo = float(ts[k]), float(ts[k + 1])
        y = dl.stream(13, "grid-y", k).standard_normal((batch, 8)) * t_lo
        got = step_loss_grad(gmm2_d8, params, student, x_grid, t_hi, t_lo, y, carry_grid)
        want = _serial_step_loss_grad(gmm2_d8, params, student, x_ref, t_hi, t_lo, y, carry_ref)
        assert got[0] == want[0]
        for name in ("w1", "b1", "w2", "b2", "w3", "b3"):
            np.testing.assert_array_equal(got[1][name], want[1][name])
        np.testing.assert_array_equal(got[2], want[2])
        x_grid, carry_grid = got[2], got[3]
        x_ref, carry_ref = want[2], want[3]
        if student_tag in (None, "euler_ddim", "heun_edm", "dpm2"):
            assert carry_grid is None and carry_ref is None
        else:
            assert len(carry_grid) == len(carry_ref) > 0
            for g, w in zip(carry_grid, carry_ref):
                assert np.shape(g) == np.shape(w)
                np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("outputs", [2, 3])
@pytest.mark.parametrize(
    "student_tag,calls_per_update",
    [(None, 2), ("euler_ddim", 2), ("ipndm", 2), ("dpmpp_2m", 2), ("heun_edm", 4), ("dpm2", 4)],
)
def test_step_loss_grad_costs_one_student_step(monkeypatch, gmm2_d8, student_tag, calls_per_update, outputs):
    # One call for the feature and slope at x, then one student step whose calls every probe shares.
    import difflab.solvers as solvers_mod
    from test_solvers import count_model_calls

    calls = count_model_calls(monkeypatch, solvers_mod, amed)
    params = rand_params(seed=14, hidden=8, emb_dim=8, outputs=outputs)
    student = None if student_tag is None else dl.SolverKind(student_tag)
    x = dl.stream(15, "calls").standard_normal((5, 8)) * 80.0
    step_loss_grad(gmm2_d8, params, student, x, 80.0, 20.0, np.zeros((5, 8)))
    assert len(calls) == calls_per_update


@pytest.mark.parametrize("outputs", [2, 3])
@pytest.mark.parametrize("student_tag", [None, "euler_ddim", "heun_edm", "dpm2", "ipndm", "dpmpp_2m"])
def test_step_loss_grad_takes_a_shared_model_eval_whole(gmm2_d8, student_tag, outputs):
    # train hands interval 0 the teacher's first evaluation: it must act as the call it replaces.
    params = rand_params(seed=16, hidden=8, emb_dim=8, outputs=outputs)
    student = None if student_tag is None else dl.SolverKind(student_tag)
    x = dl.stream(17, "shared").standard_normal((6, 8)) * 80.0
    y = dl.stream(18, "shared-y").standard_normal((6, 8)) * 20.0
    ev = dl.eval_model(gmm2_d8, x, 80.0)
    got = step_loss_grad(gmm2_d8, params, student, x, 80.0, 20.0, y, eps_cur=ev)
    want = step_loss_grad(gmm2_d8, params, student, x, 80.0, 20.0, y)
    np.testing.assert_array_equal(got[0], want[0])
    for name in ("w1", "b1", "w2", "b2", "w3", "b3"):
        np.testing.assert_array_equal(got[1][name], want[1][name], err_msg=name)
    np.testing.assert_array_equal(got[2], want[2])
    assert (got[3] is None) == (want[3] is None) == (student_tag in (None, "euler_ddim", "heun_edm", "dpm2"))
    for g, w in zip(got[3] or (), want[3] or ()):
        np.testing.assert_array_equal(g, w)
    # The slope alone is an injected one: the predictor would see an all-zero feature.
    assert step_loss_grad(gmm2_d8, params, student, x, 80.0, 20.0, y, eps_cur=ev.epsilon)[0] != want[0]


def test_vjp_shapes_match_params():
    p = rand_params(outputs=2)
    h = dl.stream(7, "h").random((6, 16))
    out, cache = predict_with_cache(p, h, 10.0, 2.0)
    grads = predictor_vjp(p, cache, np.ones((6, 2)))
    for name in ("w1", "b1", "w2", "b2", "w3", "b3"):
        assert grads[name].shape == getattr(p, name).shape


def _reference_predictor_vjp(params, cache, g_o):
    """Reference backprop on the unflattened stacks: all of g_o @ w3.T, then its hidden columns."""
    u, z1, z2, h = cache["u"], cache["z1"], cache["z2"], cache["h"]

    def flat(a, width):
        return np.asarray(a).reshape(-1, width)

    go = flat(g_o, params.outputs)
    gw3 = flat(u, u.shape[-1]).T @ go
    g_p2 = (g_o @ params.w3.T)[..., : params.hidden] * (1.0 - z2**2)
    gp2 = flat(g_p2, params.hidden)
    g_p1 = (g_p2 @ params.w2.T) * (1.0 - z1**2)
    gp1 = flat(g_p1, params.hidden)
    return {"w1": flat(h, h.shape[-1]).T @ gp1, "b1": gp1.sum(axis=0), "w2": flat(z1, params.hidden).T @ gp2,
            "b2": gp2.sum(axis=0), "w3": gw3, "b3": go.sum(axis=0)}


@pytest.mark.parametrize("outputs", [2, 3])
@pytest.mark.parametrize("lead", [(), (6,), (2, 3)])
def test_vjp_matches_reference_backprop_bitwise(lead, outputs):
    p = rand_params(seed=21, hidden=8, emb_dim=8, outputs=outputs)
    assert np.all(p.w3 != 0) and np.all(p.b3 != 0)
    rng = dl.stream(22, "vjp", len(lead), outputs)
    t_hi = rng.uniform(2.0, 40.0, lead)
    _, cache = predict_with_cache(p, rng.standard_normal(lead + (16,)), t_hi, t_hi / 3)
    g_o = rng.standard_normal(lead + (outputs,))
    got, want = predictor_vjp(p, cache, g_o), _reference_predictor_vjp(p, cache, g_o)
    assert got.keys() == want.keys()
    for name, w in want.items():
        assert got[name].shape == getattr(p, name).shape
        np.testing.assert_array_equal(got[name], w, err_msg=name)


def test_vjp_leading_axes_are_rows():
    # a (4, 16)-lead cache backpropagates exactly as its 64 rows do
    p = rand_params(seed=23, hidden=64, emb_dim=16, outputs=3)
    rng = dl.stream(24, "vjp-rows")
    _, cache = predict_with_cache(p, rng.standard_normal((4, 16, 16)), 30.0, 10.0)
    g_o = rng.standard_normal((4, 16, 3))
    rows = {k: v.reshape(64, v.shape[-1]) for k, v in cache.items()}
    got, want = predictor_vjp(p, cache, g_o), predictor_vjp(p, rows, g_o.reshape(64, 3))
    for name in want:
        np.testing.assert_array_equal(got[name], want[name], err_msg=name)


def test_zero_lr_is_null_update():
    m = make_gmm(21, 2, 4)
    sch = dl.make_schedule("polynomial", 3, 0.002, 80.0, rho=7.0)
    cfg = TrainConfig(teacher=dl.SolverKind("dpm2"), student=None, m=1, batch=8, images=16, lr=0.0, seed=0)
    res = amed.train(m, cfg, sch)
    ref = PredictorParams.init(dl.stream(0, "init"), outputs=2)
    for name in ("w1", "b1", "w2", "b2", "w3", "b3"):
        np.testing.assert_array_equal(getattr(res.params, name), getattr(ref, name))


def test_train_updates_per_loop():
    m = make_gmm(21, 2, 4)
    n = 5
    sch = dl.make_schedule("polynomial", n, 0.002, 80.0, rho=7.0)
    cfg = TrainConfig(teacher=dl.SolverKind("dpm2"), student=None, m=1, batch=8, images=24, lr=1e-3, seed=0)
    res = amed.train(m, cfg, sch)
    assert res.losses.shape == (3, n - 1)  # ceil(24/8) loops, N-1 updates each
    assert np.all(np.isfinite(res.losses))


def test_train_divergence_names_loop_and_interval(monkeypatch):
    # No finite learning rate was found that drives the loss non-finite, so
    # the fifth update (loop 1, interval 1 of 3) reports a NaN loss instead.
    real = amed.step_loss_grad
    calls = []

    def nan_on_fifth(*args, **kwargs):
        loss, grads, x, carry = real(*args, **kwargs)
        calls.append(loss)
        return (float("nan") if len(calls) == 5 else loss), grads, x, carry

    monkeypatch.setattr(amed, "step_loss_grad", nan_on_fifth)
    m = make_gmm(21, 2, 4)
    sch = dl.make_schedule("polynomial", 4, 0.002, 80.0, rho=7.0)
    cfg = TrainConfig(teacher=dl.SolverKind("dpm2"), student=None, m=1, batch=8, images=24, lr=1e-3, seed=0)
    with pytest.raises(dl.DivergenceError, match=r"^training loss diverged at loop 1, interval 1$"):
        amed.train(m, cfg, sch)
    assert len(calls) == 5


def test_train_adam_overflow_names_loop_interval_and_lr():
    m = make_gmm(21, 2, 4)
    sch = dl.make_schedule("polynomial", 4, 0.002, 80.0, rho=7.0)
    cfg = TrainConfig(teacher=dl.SolverKind("dpm2"), student=None, m=1, batch=8, images=24, lr=1e307, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # one error, and no numpy warning ahead of it
        with pytest.raises(dl.DivergenceError, match=r"^lr 1e\+307 overflowed the weights at loop 0, interval 0$"):
            amed.train(m, cfg, sch)


def test_train_logit_overflow_names_loop_interval_and_lr():
    """At lr 3e306 the weights stay finite but their logits overflow: one error naming the loop, interval and lr."""
    m = make_gmm(21, 2, 4)
    sch = dl.make_schedule("polynomial", 4, 0.002, 80.0, rho=7.0)
    cfg = TrainConfig(teacher=dl.SolverKind("dpm2"), student=None, m=1, batch=8, images=48, lr=3e306, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # one error, and no numpy warning ahead of it
        with pytest.raises(dl.DivergenceError, match=r"^lr 3e\+306 overflowed the logits at loop 5, interval 0$"):
            amed.train(m, cfg, sch)


def test_train_reduces_eval_loss():
    m = make_gmm(9, 4, 16, spread=6.0, s_lo=0.1, s_hi=0.3)
    sch = dl.make_schedule("polynomial", 4, 0.002, 80.0, rho=7.0)
    cfg = TrainConfig(teacher=dl.SolverKind("dpm2"), student=None, m=2, batch=128, images=10_240, lr=1e-3, seed=0)
    res = amed.train(m, cfg, sch)
    # fixed evaluation batch, mean over intervals
    eval_x = dl.stream(55, "evalbatch").standard_normal((256, 16)) * 80.0
    fine = dl.refine_teacher(sch, cfg.m)
    ts = sch.times[::-1]

    def mean_loss(params):
        teacher = dl.sample(m, cfg.teacher, fine, eval_x)
        x, carry, tot = eval_x, None, 0.0
        for k in range(sch.n - 1):
            y = teacher.nodes[(k + 1) * (cfg.m + 1)][1]
            loss, _, x, carry = step_loss_grad(
                m, params, None, x, float(ts[k]), float(ts[k + 1]), y, carry
            )
            tot += loss
        return tot

    init = PredictorParams.init(dl.stream(0, "init"), outputs=2)
    assert mean_loss(res.params) < mean_loss(init)


@pytest.mark.parametrize("n", [3, 4])
def test_training_improves_held_out_endpoint(n):
    # trained vs neutral-init endpoint error, two evaluation budgets
    m = make_gmm(9, 4, 16, spread=6.0, s_lo=0.1, s_hi=0.3)
    sch = dl.make_schedule("polynomial", n, 0.002, 80.0, rho=7.0)
    held = dl.stream(77, "held").standard_normal((256, 16)) * 80.0
    ref = dl.reference_solve(m, held, sch).endpoint

    def held_out_error(params):
        traj = dl.amed_sample(m, params, sch, held)
        return float(np.mean(np.linalg.norm(traj.endpoint - ref, axis=-1)))

    base_err = held_out_error(PredictorParams.zeros())
    cfg = TrainConfig(teacher=dl.SolverKind("dpm2"), student=None, m=1, batch=128, images=10_000, lr=1e-3, seed=0)
    res = amed.train(m, cfg, sch)
    err = held_out_error(res.params)
    assert err <= 0.95 * base_err


def test_train_is_bit_reproducible():
    m = make_gmm(21, 2, 4)
    sch = dl.make_schedule("polynomial", 3, 0.002, 80.0, rho=7.0)
    cfg = TrainConfig(teacher=dl.SolverKind("dpm2"), student=None, m=1, batch=16, images=64, lr=1e-3, seed=3)
    r1 = amed.train(m, cfg, sch)
    r2 = amed.train(m, cfg, sch)
    np.testing.assert_array_equal(r1.losses, r2.losses)
    for name in ("w1", "b1", "w2", "b2", "w3", "b3"):
        np.testing.assert_array_equal(getattr(r1.params, name), getattr(r2.params, name))


def _per_loop_train(model, cfg, schedule):
    """``train`` written loop by loop: one teacher ``sample`` per batch, then N-1 updates."""
    params = PredictorParams.init(dl.stream(cfg.seed, "init"), outputs=3 if cfg.learn_time_scale else 2)
    fine = dl.refine_teacher(schedule, cfg.m)
    ts = schedule.times[::-1]
    losses = np.zeros((math.ceil(cfg.images / cfg.batch), schedule.n - 1))
    opt = [amed.AdamState(params) for _ in range(schedule.n - 1)]
    for loop in range(len(losses)):
        x = dl.stream(cfg.seed, "batch", loop).standard_normal((cfg.batch, model.dim)) * schedule.t_max
        teacher, carry = dl.sample(model, cfg.teacher, fine, x), None
        for k in range(schedule.n - 1):
            y = teacher.nodes[(k + 1) * (cfg.m + 1)][1]
            losses[loop, k], grads, x, carry = step_loss_grad(
                model, params, cfg.student, x, float(ts[k]), float(ts[k + 1]), y, carry
            )
            params = opt[k].update(params, grads, cfg.lr)
    return losses, params


@pytest.mark.parametrize("student_tag,time_scale", [(None, False), ("ipndm", False), (None, True), ("ipndm", True)])
def test_train_matches_per_loop_reference_bitwise(student_tag, time_scale):
    # 5 loops: one full group of teacher batches and a partial one; ipndm carries history across intervals.
    m = make_gmm(21, 2, 4)
    sch = dl.make_schedule("polynomial", 5, 0.002, 80.0, rho=7.0)
    student = None if student_tag is None else dl.SolverKind(student_tag)
    cfg = TrainConfig(teacher=dl.SolverKind("dpm2"), student=student, m=2, batch=8, images=40, lr=1e-3, seed=4,
                      learn_time_scale=time_scale)
    res = amed.train(m, cfg, sch)
    losses, params = _per_loop_train(m, cfg, sch)
    assert res.losses.shape == (5, 4)
    np.testing.assert_array_equal(res.losses, losses)
    np.testing.assert_array_equal(res.params.theta, params.theta)


def test_train_on_a_zero_feature_model_matches_per_loop_reference_bitwise():
    # The shared first evaluation of a zero_feature model has no responsibilities to cut into loop rows.
    base = make_gmm(21, 2, 4)
    m = dl.GaussianMixture(weights=base.weights, means=base.means, stds=base.stds, zero_feature=True)
    sch = dl.make_schedule("polynomial", 4, 0.002, 80.0, rho=7.0)
    cfg = TrainConfig(teacher=dl.SolverKind("dpm2"), student=None, m=1, batch=8, images=32, lr=1e-3, seed=2)
    res = amed.train(m, cfg, sch)
    losses, params = _per_loop_train(m, cfg, sch)
    np.testing.assert_array_equal(res.losses, losses)
    np.testing.assert_array_equal(res.params.theta, params.theta)


@pytest.mark.parametrize("teacher_tag,student_tag,per_update", [("dpm2", None, 2), ("euler_ddim", "dpm2", 4)])
@pytest.mark.parametrize("images", [24, 40, 56])
def test_train_walks_the_teacher_once_per_three_loops(monkeypatch, teacher_tag, student_tag, per_update, images):
    # 3, 5 and 7 loops of 8: one teacher walk per started group of three, then each loop's N-1 updates,
    # less interval 0's first call, which the teacher's first evaluation serves.
    m = make_gmm(21, 2, 4)
    n = 4
    sch = dl.make_schedule("polynomial", n, 0.002, 80.0, rho=7.0)
    student = None if student_tag is None else dl.SolverKind(student_tag)
    cfg = TrainConfig(teacher=dl.SolverKind(teacher_tag), student=student, m=2, batch=8, images=images, seed=0)
    teacher_nfe = dl.sample(m, cfg.teacher, dl.refine_teacher(sch, cfg.m), np.zeros((8, 4))).nfe
    calls = []
    real = dl.eval_model

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    # Every alias: solvers, amed and score_models each hold eval_model by name.
    for name, module in list(sys.modules.items()):
        if name == "difflab" or name.startswith("difflab."):
            for key, val in list(vars(module).items()):
                if val is real:
                    monkeypatch.setattr(module, key, counted)
    amed.train(m, cfg, sch)
    loops = images // 8
    assert len(calls) == math.ceil(loops / 3) * teacher_nfe + loops * ((n - 1) * per_update - 1)


def test_train_teacher_streams_its_fine_nodes():
    # One teacher group on a d = 256 mixture: holding every fine node, as a collected walk does, would
    # grow the peak with the (N-1)(m+1)+1 nodes; streaming keeps the N-1 coarse ones whatever m is.
    m = make_gmm(22, 2, 256)
    sch = dl.make_schedule("polynomial", 4, 0.002, 80.0, rho=7.0)

    def peak(m_extra):
        cfg = TrainConfig(teacher=dl.SolverKind("dpm2"), student=None, m=m_extra, batch=16, images=48, seed=0)
        return traced_peak(lambda: amed.train(m, cfg, sch))

    peak(1)  # warm: first-call allocations (lazy imports, caches) are not the walk's
    assert peak(8) <= 1.1 * peak(1)


def test_train_config_validation():
    teacher = dl.SolverKind("dpm2")
    with pytest.raises(ValueError):
        TrainConfig(teacher=teacher, m=0)
    with pytest.raises(ValueError):
        TrainConfig(teacher=teacher, lr=-0.1)
    for key in ("batch", "images"):
        with pytest.raises(ValueError, match="batch and images must be positive"):
            TrainConfig(teacher=teacher, **{key: 0})
    for key, value in (("m", 1.5), ("batch", 2.0), ("images", "10"), ("m", None), ("m", True), ("batch", True),
                       ("images", True), ("seed", 1.5), ("seed", "3")):
        with pytest.raises(ValueError, match=f"^{key} must be an integer, got {value!r}$"):
            TrainConfig(teacher=teacher, **{key: value})
    with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
        TrainConfig(teacher=teacher, seed=-1)
    for lr in (np.nan, np.inf, -np.inf, float("nan"), True):
        with pytest.raises(ValueError, match="^lr must be finite and non-negative, got"):
            TrainConfig(teacher=teacher, lr=lr)
    with pytest.raises(ValueError, match="^learn_time_scale must be a bool, got 'no'$"):
        TrainConfig(teacher=teacher, learn_time_scale="no")
    TrainConfig(teacher=teacher, m=np.int64(3), batch=np.int32(7), lr=0.0)  # numpy integers and lr 0 pass


def test_checkpoint_roundtrip(tmp_path):
    p = rand_params(seed=5, hidden=8, emb_dim=8, outputs=3)
    path = tmp_path / "predictor.json"
    amed.save_predictor(p, path)
    q = amed.load_predictor(path)
    assert q.emb_dim == p.emb_dim
    for name in ("w1", "b1", "w2", "b2", "w3", "b3"):
        np.testing.assert_array_equal(getattr(q, name), getattr(p, name))


@pytest.mark.parametrize("stale", [8, 12])
def test_checkpoint_ignores_stale_emb_dim_key(tmp_path, stale):
    # Older checkpoints carry an emb_dim key; the width is read off w3, whatever the key says.
    p = rand_params(seed=5, hidden=4, emb_dim=8, outputs=2)
    path = _write_checkpoint(tmp_path, lambda d: d.update(emb_dim=stale))
    q = amed.load_predictor(path)
    assert q.emb_dim == 8
    for name in ("w1", "b1", "w2", "b2", "w3", "b3"):
        np.testing.assert_array_equal(getattr(q, name), getattr(p, name))


def test_checkpoint_version_check(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"version": 99, "emb_dim": 16, "arrays": {}}')
    with pytest.raises(ValueError):
        amed.load_predictor(path)


@pytest.mark.parametrize("logit", [-25.0, 25.0])
def test_clipped_outputs_get_zero_sensitivity(gmm2_d8, logit):
    # At |logit| = 25 the clip holds r and c while the sigmoid has not yet rounded to 0 or 1,
    # so the logit probes leave both unchanged and their gradient is exactly 0.
    params = replace(PredictorParams.zeros(outputs=3), b3=np.array([logit, logit, 0.3]))
    x = dl.stream(16, "clipped").standard_normal((4, 8)) * 10.0
    y = dl.stream(17, "clipped").standard_normal((4, 8))
    _, grads, _, _ = step_loss_grad(gmm2_d8, params, None, x, 10.0, 2.0, y)
    assert grads["b3"][0] == 0.0 and grads["b3"][1] == 0.0
    assert grads["b3"][2] != 0.0


def test_checkpoint_not_json_names_path(tmp_path):
    # An empty file is what train-amed reads back from --out /dev/null.
    path = tmp_path / "empty.json"
    path.write_text("")
    with pytest.raises(ValueError, match="empty.json: not JSON"):
        amed.load_predictor(path)


def _write_checkpoint(tmp_path, mutate):
    path = tmp_path / "predictor.json"
    amed.save_predictor(rand_params(seed=5, hidden=4, emb_dim=8, outputs=2), path)
    doc = json.loads(path.read_text())
    mutate(doc)
    path.write_text(json.dumps(doc))
    return path


def _emb_dim_6_with_matching_w3(doc):
    # hidden 4 + emb_dim 6 rows: every shape agrees, only the width read off w3 is invalid.
    w3 = doc["arrays"]["w3"]
    w3["shape"] = [10, 2]
    w3["data"] = w3["data"][:20]


def _w1_8_rows(doc):
    # A predictor built for an 8-wide feature: consistent shapes, the wrong width for this lab.
    w1 = doc["arrays"]["w1"]
    w1["shape"] = [8, 4]
    w1["data"] = w1["data"][:32]


@pytest.mark.parametrize(
    "mutate,key",
    [
        (lambda d: d["arrays"].pop("w2"), "w2"),
        (lambda d: d["arrays"].update(w4=d["arrays"]["b1"]), "w4"),
        (lambda d: d["arrays"]["w1"].update(shape=[3, 5]), "w1"),
        (lambda d: d["arrays"]["b3"]["data"].__setitem__(0, "x"), "b3"),
        (_emb_dim_6_with_matching_w3, "emb_dim"),
        (lambda d: d.update(arrays=[d["arrays"]["w1"]]), "'arrays' must map"),
        (lambda d: d["arrays"]["w2"].pop("shape"), r"arrays\.w2 needs"),
        (lambda d: d["arrays"]["b1"].pop("data"), r"arrays\.b1 needs"),
        (_w1_8_rows, "w1 has 8 rows, the feature is 16 wide"),
    ],
    ids=[
        "missing_array", "extra_array", "shape_mismatch", "non_numeric", "emb_dim_not_multiple_of_4",
        "arrays_not_a_mapping", "spec_without_shape", "spec_without_data", "w1_width",
    ],
)
def test_checkpoint_errors_name_path_and_key(tmp_path, mutate, key):
    path = _write_checkpoint(tmp_path, mutate)
    with pytest.raises(ValueError, match=f"predictor.json.*{key}"):
        amed.load_predictor(path)


def test_time_embedding_validation():
    from difflab.amed import time_embedding

    with pytest.raises(ValueError):
        time_embedding(10.0, 2.0, 6)
    emb = time_embedding(10.0, 2.0, 16)
    assert emb.shape == (16,) and np.all(np.isfinite(emb))


def test_predictor_overflow_raises_numeric_error():
    p = PredictorParams.zeros(outputs=2)
    huge = replace(p, w3=np.full(p.w3.shape, 1e308), b3=np.full(2, 1e308))
    h = np.full(16, 1e8)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError):
            predict_with_cache(huge, h, 10.0, 2.0)
