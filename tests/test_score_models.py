import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import difflab as dl
from difflab.harness import load_run_config
from difflab.score_models import FEATURE_DIM, _rk4_interval, certified_grid

from conftest import make_gmm, save_model

ROOT = Path(__file__).resolve().parent.parent


def test_single_gaussian_eval(single_gaussian):
    ev = dl.eval_model(single_gaussian, np.array([2.0, 0.0]), 1.0)
    # eps = t (x - mu) / (s^2 + t^2)
    np.testing.assert_array_equal(ev.epsilon, np.array([1.0, 0.0]))


def test_eval_at_mode_is_zero():
    m = dl.GaussianMixture(weights=[1.0], means=[[1.5, -0.5, 2.0]], stds=[0.8])
    ev = dl.eval_model(m, np.array([1.5, -0.5, 2.0]), 3.0)
    np.testing.assert_array_equal(ev.epsilon, np.zeros(3))


def test_symmetric_mixture_cancels():
    m = dl.GaussianMixture(weights=[0.5, 0.5], means=[[1.0, 0.0], [-1.0, 0.0]], stds=[1.0, 1.0])
    for t in (0.01, 1.0, 50.0):
        ev = dl.eval_model(m, np.zeros(2), t)
        np.testing.assert_allclose(ev.epsilon, np.zeros(2), atol=1e-14)


def direct_eps(model, x, t):
    """Noise prediction for one state, one component at a time, no expansion."""
    var = model.stds**2 + t * t
    logp = np.empty(model.n_components)
    for k in range(model.n_components):
        diff = x - model.means[k]
        logp[k] = np.log(model.weights[k]) - 0.5 * (diff @ diff) / var[k] - 0.5 * model.dim * np.log(var[k])
    resp = np.exp(logp - logp.max())
    resp /= resp.sum()
    eps = np.zeros(model.dim)
    for k in range(model.n_components):
        eps += resp[k] / var[k] * (x - model.means[k])
    return t * eps


# eval_model's precision contract against the direct form, relative to each
# row's largest |eps|.
EVAL_RTOL = 1e-9
T_GRID = np.geomspace(0.002, 80.0, 9)


def _assert_rows_close(got, want):
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) <= EVAL_RTOL * np.max(np.abs(w))


def _probe_states(model, t, rows, rng):
    """States near the modes (mu_k + t z) and spread around the mixture mean (mean + t z)."""
    near = model.means[rng.integers(model.n_components, size=rows)]
    spread = np.broadcast_to(model.mean, (rows, model.dim))
    return np.concatenate([near, spread]) + t * rng.standard_normal((2 * rows, model.dim))


@pytest.mark.parametrize("d", [2, 16, 3072])
@pytest.mark.parametrize("k", [1, 4, 64])
@pytest.mark.parametrize("offset", [0.0, 100.0])
def test_eval_matches_direct_form(k, d, offset):
    base = make_gmm(30 + k, k, d)
    m = dl.GaussianMixture(weights=base.weights, means=base.means + offset, stds=base.stds)
    rng = dl.stream(5, "direct", k, d)
    rows = 1 if d == 3072 else 4
    for t in T_GRID:
        x = _probe_states(m, t, rows, rng)
        want = [direct_eps(m, row, t) for row in x]
        _assert_rows_close(dl.eval_model(m, x, t).epsilon, want)


def _assert_evals_close(got, rows):
    _assert_rows_close(got.epsilon, [r.epsilon for r in rows])
    np.testing.assert_allclose(got.feature, [r.feature for r in rows], rtol=0, atol=EVAL_RTOL)


def test_eval_broadcasts_one_state_over_times():
    m = make_gmm(12, 4, 16)
    x = dl.stream(6, "bcast").standard_normal(16) * 3.0
    got = dl.eval_model(m, x, T_GRID)
    assert got.epsilon.shape == (T_GRID.size, 16) and got.feature.shape == (T_GRID.size, FEATURE_DIM)
    _assert_evals_close(got, [dl.eval_model(m, x, t) for t in T_GRID])


def test_eval_per_row_times_match_row_calls():
    m = make_gmm(13, 64, 16, spread=4.0)
    rng = dl.stream(7, "rows")
    x = m.means[rng.integers(64, size=T_GRID.size)] + T_GRID[:, None] * rng.standard_normal((T_GRID.size, 16))
    got = dl.eval_model(m, x, T_GRID)
    _assert_evals_close(got, [dl.eval_model(m, row, t) for row, t in zip(x, T_GRID)])


def test_eval_scalar_time_equals_per_row_time_bitwise():
    # The zero predictor reproduces dpm2 at r=0.5 bitwise only if a scalar
    # time and the same time per row give the same bits.
    m = make_gmm(14, 5, 16)
    x = dl.stream(9, "scalar-t").standard_normal((3, 7, 16)) * 4.0
    for t in (0.002, 1.3, 80.0):
        one, rows = dl.eval_model(m, x, t), dl.eval_model(m, x, np.full(x.shape[:-1], t))
        np.testing.assert_array_equal(one.epsilon, rows.epsilon)
        np.testing.assert_array_equal(one.responsibilities, rows.responsibilities)


def test_eval_returns_a_fresh_array_it_owns():
    """epsilon is a new array, not a view: its caller may overwrite it, and a stored node costs no second header."""
    m = make_gmm(15, 5, 16)
    x = dl.stream(10, "fresh").standard_normal((3, 7, 16)) * 4.0
    for state, t in ((x[0, 0], 1.3), (x[0], 1.3), (x, 1.3), (x[:, :1], x[:, :, 0] ** 2 + 0.1), (x.transpose(1, 0, 2), 1.3)):
        eps = dl.eval_model(m, state, t).epsilon
        assert eps.flags.owndata and eps.flags.writeable and not np.shares_memory(eps, x)


def test_eval_batch_dims_are_restored():
    m = make_gmm(15, 5, 16)
    rng = dl.stream(10, "lifted")
    x = rng.standard_normal((3, 7, 16)) * 4.0
    t = rng.uniform(0.01, 20.0, (3, 7))
    lifted = dl.eval_model(m, x[None], t[None])
    assert lifted.epsilon.shape == (1, 3, 7, 16) and lifted.responsibilities.shape == (1, 3, 7, 5)
    assert lifted.feature.shape == (1, 3, 7, FEATURE_DIM)
    for i in range(3):
        slice_i = dl.ModelEval(lifted.epsilon[0, i], lifted.responsibilities[0, i])
        _assert_evals_close(slice_i, [dl.eval_model(m, row, s) for row, s in zip(x[i], t[i])])
    np.testing.assert_allclose(lifted.responsibilities.sum(axis=-1), 1.0, rtol=0, atol=1e-12)
    # One (3, 1, d) state per row shared by the row's 7 times.
    shared = dl.eval_model(m, x[:, :1], t)
    assert shared.epsilon.shape == (3, 7, 16) and shared.responsibilities.shape == (3, 7, 5)
    _assert_evals_close(dl.ModelEval(shared.epsilon.reshape(-1, 16), shared.responsibilities.reshape(-1, 5)),
                        [dl.eval_model(m, x[i, 0], s) for i in range(3) for s in t[i]])
    # A non-contiguous state gives the bits of its contiguous copy.
    strided = x.transpose(1, 0, 2)[::2]
    for s in (1.3, t.T[::2]):
        got, want = dl.eval_model(m, strided, s), dl.eval_model(m, np.ascontiguousarray(strided), s)
        np.testing.assert_array_equal(got.epsilon, want.epsilon)
        np.testing.assert_array_equal(got.responsibilities, want.responsibilities)


def test_eval_times_of_the_batch_shape_match_a_broadcast_column_bitwise():
    # Times shaped like the state's batch are used as they are, however they
    # are laid out; a column of times is broadcast first.  Both give one set of bits.
    m = make_gmm(17, 5, 16)
    rng = dl.stream(11, "row-times")
    x = rng.standard_normal((4, 6, 16)) * 4.0
    col = rng.uniform(0.01, 20.0, (4, 1))
    want = dl.eval_model(m, x, col)
    full = np.repeat(col, 6, axis=1)
    layouts = {
        "contiguous": full,
        "transposed": np.ascontiguousarray(full.T).T,
        "strided": np.repeat(col, 12, axis=1)[:, ::2],
        "zero-stride": np.broadcast_to(col, (4, 6)),
    }
    for name, t in layouts.items():
        assert t.shape == (4, 6) and t.flags.c_contiguous == (name == "contiguous"), name
        got = dl.eval_model(m, x, t)
        np.testing.assert_array_equal(got.epsilon, want.epsilon, err_msg=name)
        np.testing.assert_array_equal(got.responsibilities, want.responsibilities, err_msg=name)


@pytest.mark.parametrize("state_shape, t_shape", [((16,), (5,)), ((1, 16), (5,)), ((3, 1, 16), (3, 5))])
def test_eval_shared_state_still_broadcasts_bitwise(state_shape, t_shape):
    m = make_gmm(18, 5, 16)
    rng = dl.stream(12, "shared-state")
    x = rng.standard_normal(state_shape) * 4.0
    t = rng.uniform(0.01, 20.0, t_shape)
    lead = np.broadcast_shapes(state_shape[:-1], t_shape)
    got = dl.eval_model(m, x, t)
    want = dl.eval_model(m, np.ascontiguousarray(np.broadcast_to(x, lead + (16,))), t)
    assert got.epsilon.shape == lead + (16,) and got.responsibilities.shape == lead + (5,)
    np.testing.assert_array_equal(got.epsilon, want.epsilon)
    np.testing.assert_array_equal(got.responsibilities, want.responsibilities)


@pytest.mark.parametrize("t", [1.3, np.ones(0)])
def test_eval_empty_batch(t):
    ev = dl.eval_model(make_gmm(16, 5, 16), np.zeros((0, 16)), t)
    assert ev.epsilon.shape == (0, 16) and ev.responsibilities.shape == (0, 5) and ev.feature.shape == (0, FEATURE_DIM)


def direct_feature(model, x, t):
    """The first FEATURE_DIM responsibilities of one state, zero-padded, one component at a time."""
    var = model.stds**2 + t * t
    logp = np.array([
        np.log(model.weights[k]) - 0.5 * ((x - model.means[k]) @ (x - model.means[k])) / var[k]
        - 0.5 * model.dim * np.log(var[k])
        for k in range(model.n_components)
    ])
    resp = np.exp(logp - logp.max())
    resp /= resp.sum()
    feature = np.zeros(FEATURE_DIM)
    k = min(model.n_components, FEATURE_DIM)
    feature[:k] = resp[:k]
    return feature


@pytest.mark.parametrize("k", [1, 4, 16, 64])
def test_feature_is_padded_truncated_responsibilities(k):
    base = make_gmm(40 + k, k, 8, spread=3.0)
    flagged = dl.GaussianMixture(weights=base.weights, means=base.means, stds=base.stds, zero_feature=True)
    rng = dl.stream(8, "feature", k)
    x = _probe_states(base, 1.0, 3, rng)
    t = 0.7
    cases = [
        (x[0], t, [direct_feature(base, x[0], t)]),
        (x, t, [direct_feature(base, row, t) for row in x]),
        (x[0], T_GRID, [direct_feature(base, x[0], s) for s in T_GRID]),
    ]
    for xs, ts, want in cases:
        ev = dl.eval_model(base, xs, ts)
        assert ev.feature.shape == np.shape(ev.epsilon)[:-1] + (FEATURE_DIM,)
        np.testing.assert_allclose(np.reshape(ev.feature, (-1, FEATURE_DIM)), want, rtol=0, atol=EVAL_RTOL)
        zeroed = dl.eval_model(flagged, xs, ts)
        assert zeroed.feature.shape == ev.feature.shape and np.all(zeroed.feature == 0.0)
        np.testing.assert_array_equal(zeroed.epsilon, ev.epsilon)


def test_feature_is_padded_probability_vector():
    m = make_gmm(4, 3, 4)
    ev = dl.eval_model(m, np.ones(4), 2.0)
    assert ev.feature.shape == (FEATURE_DIM,)
    assert np.all(ev.feature >= 0)
    assert abs(ev.feature.sum() - 1.0) < 1e-9
    assert np.all(ev.feature[3:] == 0.0)


def test_zero_feature_flag():
    base = make_gmm(4, 3, 4)
    m = dl.GaussianMixture(
        weights=base.weights, means=base.means, stds=base.stds, zero_feature=True
    )
    ev = dl.eval_model(m, np.ones(4), 2.0)
    assert np.all(ev.feature == 0.0)
    ref = dl.eval_model(base, np.ones(4), 2.0)
    np.testing.assert_array_equal(ev.epsilon, ref.epsilon)


def test_far_field_responsibilities_stay_finite():
    # log-sum-exp must survive log-densities around -1e8
    m = dl.GaussianMixture(weights=[0.5, 0.5], means=[[0.0, 0.0], [3.0, 0.0]], stds=[0.5, 0.5])
    ev = dl.eval_model(m, np.array([2000.0, 0.0]), 0.1)
    assert np.all(np.isfinite(ev.epsilon))
    assert abs(ev.feature.sum() - 1.0) < 1e-9


def test_subnormal_responsibilities_flush_to_zero():
    # With means -1 and +1, unit stds and t = 1, the second component's shifted logit is x itself:
    # exp(x) is subnormal for x in about [-745, -708], and the flush sets it to exactly 0.
    m = dl.GaussianMixture(weights=[0.5, 0.5], means=[[-1.0], [1.0]], stds=[1.0, 1.0])
    x = np.array([[-708.5], [-720.0], [-744.0]])
    resp = dl.eval_model(m, x, 1.0).responsibilities
    tiny = np.finfo(np.float64).tiny
    assert not np.any((resp > 0) & (resp < tiny)), resp
    np.testing.assert_array_equal(resp, [[1.0, 0.0]] * 3)


def test_responsibilities_shift_invariant_across_time_extremes():
    # a common constant in the component log-densities must cancel; extreme
    # noise levels push those constants to +-1e16 and expose naive exponentials
    m = make_gmm(8, 4, 3)
    x = np.array([0.3, -0.9, 2.2])
    for t in (1e-8, 1e-3, 1.0, 1e4, 1e8):
        ev = dl.eval_model(m, x, t)
        assert np.all(np.isfinite(ev.feature)) and np.all(ev.feature >= 0)
        assert abs(ev.feature.sum() - 1.0) < 1e-9
    # with well-separated modes and vanishing noise, the nearest mode takes
    # all responsibility (the stabilized softmax saturates cleanly)
    sep = make_gmm(8, 4, 3, spread=6.0, s_lo=0.05, s_hi=0.1)
    near = dl.eval_model(sep, sep.means[2] + 1e-6, 1e-8).feature
    assert near[2] > 1.0 - 1e-12


def test_epsilon_matches_log_density_gradient():
    # independent route: eps(x, t) = -t * grad log p_t(x), with the gradient
    # taken by central differences of the perturbed-mixture log density
    m = make_gmm(17, 3, 4)

    def log_density(x, t):
        var = m.stds**2 + t * t
        logs = (
            np.log(m.weights)
            - 0.5 * m.dim * np.log(2 * np.pi * var)
            - 0.5 * np.sum((x - m.means) ** 2, axis=1) / var
        )
        peak = logs.max()
        return peak + np.log(np.sum(np.exp(logs - peak)))

    rng = dl.stream(4, "fd")
    for t in (0.05, 1.0, 20.0):
        x = rng.standard_normal(4) * (1.0 + t)
        fd = np.zeros(4)
        h = 1e-6 * (1.0 + t)
        for i in range(4):
            up, down = x.copy(), x.copy()
            up[i] += h
            down[i] -= h
            fd[i] = (log_density(up, t) - log_density(down, t)) / (2 * h)
        eps = dl.eval_model(m, x, t).epsilon
        np.testing.assert_allclose(eps, -t * fd, rtol=1e-6, atol=1e-9)


NON_FINITE = "non-finite input"
NOT_POSITIVE = "strictly positive"
BAD_TIMES = [(0.0, NOT_POSITIVE), (-1.0, NOT_POSITIVE), (np.nan, NON_FINITE), (np.inf, NON_FINITE), (-np.inf, NON_FINITE)]
# t as a Python float, an np.float64, a 0-d array and a per-row array.
TIME_FORMS = (float, np.float64, np.array, lambda v: np.array([1.0, v]))


def test_eval_validation():
    m = make_gmm(4, 2, 3)
    x = np.zeros((2, 3))
    for make_t in TIME_FORMS:
        for value, message in BAD_TIMES:
            with pytest.raises(ValueError, match=message):
                dl.eval_model(m, x, make_t(value))
            # A non-finite state is reported first, whatever is wrong with the time.
            with pytest.raises(ValueError, match=NON_FINITE):
                dl.eval_model(m, np.full((2, 3), np.nan), make_t(value))
        for bad in (np.nan, np.inf, -np.inf):
            x_bad = x.copy()
            x_bad[1, 2] = bad
            with pytest.raises(ValueError, match=NON_FINITE):
                dl.eval_model(m, x_bad, make_t(1.0))
    with pytest.raises(ValueError, match="dim"):
        dl.eval_model(m, np.zeros(4), 1.0)


def test_mixture_validation():
    with pytest.raises(ValueError):
        dl.GaussianMixture(weights=[0.5, 0.6], means=[[0.0], [1.0]], stds=[1.0, 1.0])
    with pytest.raises(ValueError):
        dl.GaussianMixture(weights=[1.0], means=[[0.0]], stds=[0.0])
    with pytest.raises(ValueError):
        dl.GaussianMixture(weights=[0.5, -0.5], means=[[0.0], [1.0]], stds=[1.0, 1.0])
    with pytest.raises(ValueError, match="1-D"):
        dl.GaussianMixture(weights=[[0.5, 0.5]], means=[[0.0], [1.0]], stds=[1.0, 1.0])
    with pytest.raises(ValueError, match="1-D"):
        dl.GaussianMixture(weights=[1.0], means=[[[0.0]]], stds=[1.0])
    with pytest.raises(ValueError, match="agree on K"):
        dl.GaussianMixture(weights=[0.5, 0.5], means=[[0.0], [1.0], [2.0]], stds=[1.0, 1.0])
    with pytest.raises(ValueError, match="finite"):
        dl.GaussianMixture(weights=[0.5, 0.5], means=[[0.0], [np.nan]], stds=[1.0, 1.0])


def test_mixture_is_immutable():
    m = make_gmm(2, 2, 2)
    with pytest.raises(ValueError):
        m.means[0, 0] = 99.0


def test_mixture_leaves_caller_arrays_writable():
    w, means, stds = np.array([0.25, 0.75]), np.zeros((2, 3)), np.ones(2)
    m = dl.GaussianMixture(weights=w, means=means, stds=stds)
    w[0], means[0, 0], stds[0] = 0.5, 9.0, 2.0
    assert (m.weights[0], m.means[0, 0], m.stds[0]) == (0.25, 0.0, 1.0)
    for own in (m.weights, m.means, m.stds):
        assert not own.flags.writeable


def test_exact_trajectory_values():
    m = dl.GaussianMixture(weights=[1.0], means=[np.zeros(2)], stds=[1.0])
    x = np.array([9.0, 0.0])
    np.testing.assert_array_equal(dl.exact_trajectory(m, x, 80.0, 80.0), x)
    out = dl.exact_trajectory(m, x, 1e-12, 80.0)
    np.testing.assert_allclose(out, 9.0 / np.sqrt(6401.0) * np.array([1.0, 0.0]), rtol=1e-10)

    m2 = dl.GaussianMixture(weights=[1.0], means=[[1.0, 1.0]], stds=[2.0])
    for t in (0.5, 3.0, 40.0):
        np.testing.assert_array_equal(dl.exact_trajectory(m2, np.array([1.0, 1.0]), t, 80.0), [1.0, 1.0])


def test_exact_trajectory_rejects_mixtures():
    m = make_gmm(1, 2, 2)
    with pytest.raises(ValueError):
        dl.exact_trajectory(m, np.zeros(2), 1.0, 80.0)


@pytest.mark.parametrize("t, T", [(0.0, 80.0), (-1.0, 80.0), (81.0, 80.0)])
def test_exact_trajectory_time_range(single_gaussian, t, T):
    with pytest.raises(ValueError, match="0 < t <= T"):
        dl.exact_trajectory(single_gaussian, np.zeros(2), t, T)


@given(st.floats(0.01, 79.0), st.floats(0.02, 1.0))
@settings(max_examples=40, deadline=None)
def test_exact_norm_decreases_toward_floor(t, frac):
    # distance to the mean shrinks monotonically as t decreases
    m = dl.GaussianMixture(weights=[1.0], means=[np.zeros(3)], stds=[1.0])
    x = np.array([3.0, -4.0, 12.0])
    hi = dl.exact_trajectory(m, x, t, 80.0)
    lo = dl.exact_trajectory(m, x, t * frac, 80.0)
    assert np.linalg.norm(lo) <= np.linalg.norm(hi) + 1e-12


def test_oracle_matches_exact_solution():
    m = dl.GaussianMixture(weights=[1.0], means=[np.zeros(6)], stds=[1.0])
    x = dl.stream(2, "p").standard_normal(6) * 80.0
    sch = dl.make_schedule("polynomial", 8, 0.002, 80.0, rho=7.0)
    orc = dl.oracle_solve(m, x, sch, 128)
    for t, state in orc.nodes:
        ex = dl.exact_trajectory(m, x, t, 80.0)
        assert np.linalg.norm(state - ex) <= 1e-8 * np.linalg.norm(ex)
    end = dl.exact_trajectory(m, x, 0.002, 80.0)
    assert np.linalg.norm(orc.endpoint - end) <= 1e-9 * np.linalg.norm(end)


def test_oracle_fourth_order_richardson():
    m = dl.GaussianMixture(weights=[1.0], means=[np.zeros(4)], stds=[1.0])
    x = dl.stream(7, "r").standard_normal(4) * 80.0
    sch = dl.make_schedule("polynomial", 3, 0.002, 80.0, rho=7.0)
    exact = dl.exact_trajectory(m, x, 0.002, 80.0)
    e_coarse = np.linalg.norm(dl.oracle_solve(m, x, sch, 64).endpoint - exact)
    e_fine = np.linalg.norm(dl.oracle_solve(m, x, sch, 128).endpoint - exact)
    assert 8.0 < e_coarse / e_fine < 32.0


def _richardson_error(model, x_T, schedule):
    """Default-resolution reference endpoints and their estimated mean row error.

    RK4 is fourth order, so with S and 2S substeps the error at S is about
    |ref(S) - ref(2S)| * 16/15.
    """
    coarse = dl.reference_solve(model, x_T, schedule).endpoint
    fine = dl.reference_solve(model, x_T, schedule, 2 * dl.ORACLE_SUBSTEPS).endpoint
    return coarse, float(np.mean(np.linalg.norm(coarse - fine, axis=-1))) * 16 / 15


@pytest.mark.parametrize("model_file", ["gmm2_d8.json", "gmm4_d16.json"])
def test_oracle_default_certified(model_file):
    """The default reference errs at most 1/100 as much as the best solver.

    Runs configs/eval_example.json (its seed, batch 256, 17 polynomial
    reference nodes, five solvers at NFE 8-64) on each shipped model and
    estimates the reference's error on the same initial states, on the
    17-node reference grid and on the 3-, 4- and 6-node student schedules
    that the held-out scoring of train-amed and the align command integrate on.
    """
    cfg = load_run_config(ROOT / "configs" / "eval_example.json")
    model = dl.load_model(ROOT / "configs" / model_file)
    cfg = dataclasses.replace(cfg, model=model, outdir=None)
    assert cfg.oracle_substeps == dl.ORACLE_SUBSTEPS
    x_T = dl.stream(cfg.seed, "x_T").standard_normal((cfg.batch, model.dim)) * cfg.t_max
    best_solver_err = min(e.mean_endpoint_l2 for e in dl.run_experiment(cfg).entries)
    for n in (cfg.oracle_nodes, 3, 4, 6):
        sch = dl.make_schedule(cfg.schedule_kind, n, cfg.t_min, cfg.t_max, rho=cfg.rho)
        _, oracle_err = _richardson_error(model, x_T, sch)
        assert oracle_err <= best_solver_err / 100, (n, oracle_err, best_solver_err)


@pytest.mark.parametrize("n", [17, 4])
def test_oracle_richardson_estimate_matches_exact_error(n):
    # reference_solve takes K=1 in closed form, so RK4 runs here on the grid it
    # integrates a mixture's schedule on: the certified grid joined with the schedule.
    m = dl.GaussianMixture(weights=[1.0], means=[np.full(8, 0.5)], stds=[0.5])
    x = dl.stream(0, "x_T").standard_normal((256, 8)) * 80.0
    sch = dl.make_schedule("polynomial", n, 0.002, 80.0, rho=7.0)
    union = np.union1d(sch.times, certified_grid(0.002, 80.0).times)
    grid = sch if n == 17 else dl.TimeSchedule(union, "polynomial", 7.0)
    coarse = dl.oracle_solve(m, x, grid).endpoint
    fine = dl.oracle_solve(m, x, grid, 2 * dl.ORACLE_SUBSTEPS).endpoint
    estimate = float(np.mean(np.linalg.norm(coarse - fine, axis=-1))) * 16 / 15
    exact = dl.exact_trajectory(m, x, 0.002, 80.0)
    true = float(np.mean(np.linalg.norm(coarse - exact, axis=-1)))
    assert 0.5 <= estimate / true <= 2.0, (estimate, true)


@pytest.mark.parametrize("model_file", ["gmm2_d8.json", "gmm4_d16.json"])
def test_run_certificate_matches_fine_reference(model_file):
    """The report's reference estimate is within a factor 2 of its error against 256 substeps."""
    cfg = load_run_config(ROOT / "configs" / "eval_example.json")
    model = dl.load_model(ROOT / "configs" / model_file)
    cfg = dataclasses.replace(cfg, model=model, outdir=None)
    ref = dl.run_experiment(cfg).reference
    x_T = dl.stream(cfg.seed, "x_T").standard_normal((cfg.batch, model.dim)) * cfg.t_max
    sch = dl.make_schedule(cfg.schedule_kind, cfg.oracle_nodes, cfg.t_min, cfg.t_max, rho=cfg.rho)
    used = dl.reference_solve(model, x_T, sch, cfg.oracle_substeps).endpoint
    fine = dl.reference_solve(model, x_T, sch, 256).endpoint
    true = float(np.mean(np.linalg.norm(used - fine, axis=-1)))
    assert ref["substeps"] == cfg.oracle_substeps
    assert 0.5 <= ref["error_estimate"] / true <= 2.0, (ref, true)
    assert ref["ratio_to_best"] <= 1 / 100, ref


@pytest.mark.parametrize("n", [3, 17])
def test_reference_solve_is_exact_for_one_component(n):
    m = dl.GaussianMixture(weights=[1.0], means=[np.full(4, 0.5)], stds=[0.7])
    x = dl.stream(3, "x_T").standard_normal((16, 4)) * 80.0
    sch = dl.make_schedule("polynomial", n, 0.002, 80.0, rho=7.0)
    ref = dl.reference_solve(m, x, sch)
    assert ref.nfe == 0
    np.testing.assert_array_equal(ref.times, sch.times[::-1])
    for t, state in ref.nodes:
        np.testing.assert_array_equal(state, dl.exact_trajectory(m, x, t, 80.0))


def test_reference_solve_integrates_the_certified_grid_joined_with_the_schedule():
    m = make_gmm(5, 3, 4)
    x = dl.stream(1, "x_T").standard_normal((4, 4)) * 80.0
    grid = certified_grid(0.002, 80.0)
    full = dl.oracle_solve(m, x, grid)
    # Polynomial rho-7 schedules whose nodes lie on the certified grid integrate that grid itself.
    for n in (3, 5, 9, 17):
        sch = dl.make_schedule("polynomial", n, 0.002, 80.0, rho=7.0)
        ref = dl.reference_solve(m, x, sch)
        np.testing.assert_array_equal(ref.times, sch.times[::-1])
        for (t, xs), (tf, xf) in zip(ref.nodes, full.nodes[:: 16 // (n - 1)], strict=True):
            assert t == tf
            np.testing.assert_array_equal(xs, xf)
        assert ref.nfe == 4 * 8 * 16
    # A 4-node uniform schedule shares only its ends with the grid: 17 + 2 nodes, 18 intervals.
    uniform = dl.make_schedule("uniform", 4, 0.002, 80.0)
    ref4 = dl.reference_solve(m, x, uniform)
    np.testing.assert_array_equal(ref4.times, uniform.times[::-1])
    assert ref4.nfe == 4 * 8 * 18
    assert 0 < ref4.error_estimate < 1e-4
    # At batch 4 the two runs walked as one keep the bits of oracle_solve at S and S//2 on the joined grid.
    joined = dataclasses.replace(uniform, times=sorted(set(uniform.times.tolist()) | set(grid.times.tolist())))
    fine, half = dl.oracle_solve(m, x, joined, 8), dl.oracle_solve(m, x, joined, 4)
    fine_at = dict(fine.nodes)
    for t, xs in ref4.nodes:
        np.testing.assert_array_equal(xs, fine_at[t])
    assert ref4.error_estimate == float(np.mean(np.linalg.norm(fine.endpoint - half.endpoint, axis=-1))) / 15
    # A single state's products may round differently from a batch's: a relative 1e-12.
    one = dl.reference_solve(m, x[0], uniform)
    alone = dict(dl.oracle_solve(m, x[0], joined, 8).nodes)
    for t, xs in one.nodes:
        assert np.linalg.norm(xs - alone[t]) <= 1e-12 * np.linalg.norm(alone[t]), t


def test_reference_solve_substep_floor():
    m = make_gmm(9, 2, 3)
    sch = dl.make_schedule("uniform", 3, 0.5, 10.0)
    with pytest.raises(ValueError, match="reference requires substeps >= 8"):
        dl.reference_solve(m, np.ones(3), sch, 7)
    with pytest.raises(ValueError, match="even substeps.*; got 9"):
        dl.reference_solve(m, np.ones(3), sch, 9)
    assert dl.reference_solve(m, np.ones(3), sch, 8).nfe == 4 * 8 * 17


@pytest.fixture(scope="module", params=["gmm2_d8.json", "gmm4_d16.json"])
def fine_endpoint(request):
    """A mixture, train-amed's held-out batch, and its endpoints by RK4 at 32 substeps on 256 intervals.

    Only the endpoint is compared, and it does not depend on the nodes a run
    visits, so one fine run serves every schedule.
    """
    model = dl.load_model(ROOT / "configs" / request.param)
    x_T = dl.stream(77, "held").standard_normal((256, model.dim)) * 80.0
    fine = dl.oracle_solve(model, x_T, dl.refine_teacher(certified_grid(0.002, 80.0), 15), 32)
    return model, x_T, fine.endpoint


@pytest.mark.parametrize("kind", ["uniform", "logsnr"])
def test_reference_is_certified_off_the_polynomial_grid(fine_endpoint, kind):
    """Within 1e-5 of a fine run, and the estimate within a factor 2 of that error.

    A reference on the schedule's own (refined) nodes erred by 3.3e-3 to 3.7e-2 on uniform schedules.
    """
    model, x_T, fine = fine_endpoint
    for n in (4, 5, 6):
        ref = dl.reference_solve(model, x_T, dl.make_schedule(kind, n, 0.002, 80.0))
        err = float(np.mean(np.linalg.norm(ref.endpoint - fine, axis=-1)))
        assert err <= 1e-5, (n, err)
        assert 0.5 <= ref.error_estimate / err <= 2.0, (n, ref.error_estimate, err)


def test_oracle_records_all_nodes():
    m = make_gmm(9, 2, 3)
    sch = dl.make_schedule("uniform", 2, 0.5, 10.0)
    orc = dl.oracle_solve(m, np.ones(3), sch, 32)
    assert len(orc.nodes) == 2
    assert orc.nodes[0][0] == 10.0 and orc.nodes[1][0] == 0.5


def test_oracle_substep_floor():
    m = make_gmm(9, 2, 3)
    sch = dl.make_schedule("uniform", 3, 0.5, 10.0)
    with pytest.raises(ValueError):
        dl.oracle_solve(m, np.ones(3), sch, 3)
    assert dl.oracle_solve(m, np.ones(3), sch, 4).nfe == 4 * 4 * 2


def _rk4_written_out(model, x, t_hi, t_lo, substeps):
    """Classical RK4 from t_hi to t_lo as the textbook writes it, on np.linspace(t_hi, t_lo, substeps + 1)."""
    def eps(y, t):
        return dl.eval_model(model, y, t).epsilon

    grid = np.linspace(t_hi, t_lo, substeps + 1)
    for t0, t1 in zip(grid[:-1], grid[1:]):
        h = t1 - t0
        k1 = eps(x, t0)
        k2 = eps(x + 0.5 * h * k1, t0 + 0.5 * h)
        k3 = eps(x + 0.5 * h * k2, t0 + 0.5 * h)
        k4 = eps(x + h * k3, t1)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


@pytest.mark.parametrize("shape", [(6,), (5, 6)], ids=["single", "batch"])
def test_rk4_has_the_bits_of_the_written_out_step(shape):
    """One interval of RK4 equals x + (h/6)(k1 + 2 k2 + 2 k3 + k4) written out, bit for bit, and leaves x as it was.

    ``oracle_solve`` refuses fewer than 4 substeps, so at 1 and 2 its step
    ``_rk4_interval`` runs alone; ``oracle_solve`` runs at 4 and 8.
    """
    m = make_gmm(4, 3, 6)
    x = dl.stream(2, "rk4").standard_normal(shape) * 3.0
    kept = x.copy()
    for substeps in (1, 2):
        got, nfe, _ = _rk4_interval(m, substeps, x, 3.0, 0.5)
        np.testing.assert_array_equal(got, _rk4_written_out(m, x, 3.0, 0.5, substeps))
        assert nfe == 4 * substeps
    one = dl.make_schedule("uniform", 2, 0.5, 3.0)
    for substeps in (4, 8):
        np.testing.assert_array_equal(dl.oracle_solve(m, x, one, substeps).endpoint,
                                      _rk4_written_out(m, x, 3.0, 0.5, substeps))
    np.testing.assert_array_equal(x, kept)


@pytest.mark.parametrize("seed", [7, 11, 23, 40])
def test_afs_direction_aligns_at_large_t(seed):
    m = make_gmm(seed, 3, 16, centered=True)
    assert np.linalg.norm(m.mean) < 1e-12
    scale = min(1.0, 2.0 / np.linalg.norm(m.means, axis=1).max())
    m = dl.GaussianMixture(weights=m.weights, means=m.means * scale, stds=m.stds)
    x = dl.stream(3, "afs").standard_normal((1024, 16)) * 80.0
    eps = dl.eval_model(m, x, 80.0).epsilon
    a = x / 80.0
    cos = np.sum(eps * a, axis=1) / (np.linalg.norm(eps, axis=1) * np.linalg.norm(a, axis=1))
    assert cos.mean() >= 0.99


def test_model_roundtrip(tmp_path):
    m = make_gmm(6, 3, 4)
    path = tmp_path / "model.json"
    save_model(m, path)
    m2 = dl.load_model(path)
    np.testing.assert_allclose(m2.weights, m.weights, rtol=1e-15)
    np.testing.assert_array_equal(m2.means, m.means)
    np.testing.assert_array_equal(m2.stds, m.stds)


@pytest.mark.parametrize("key", ["weight", "mean", "std"])
def test_load_model_names_missing_key(tmp_path, key):
    comps = [{"weight": 1.0, "mean": [0.0, 1.0], "std": 0.5} for _ in range(3)]
    del comps[1][key]
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"components": comps}))
    with pytest.raises(ValueError, match=rf"model\.json: component 1 has no '{key}'"):
        dl.load_model(path)


def test_load_model_rejects_ragged_means(tmp_path):
    comps = [{"weight": 1.0, "mean": [0.0] * n, "std": 0.5} for n in (2, 2, 3)]
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"components": comps}))
    with pytest.raises(ValueError, match=r"model\.json: component 2: 'mean' has length 3, component 0's has 2"):
        dl.load_model(path)


@pytest.mark.parametrize("key, value", [("weight", "heavy"), ("mean", [0.0, "up"]), ("std", "wide")])
def test_load_model_names_non_numeric_value(tmp_path, key, value):
    comps = [{"weight": 1.0, "mean": [0.0, 1.0], "std": 0.5} for _ in range(3)]
    comps[2][key] = value
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"components": comps}))
    with pytest.raises(ValueError, match=rf"model\.json: component 2: '{key}' must be a"):
        dl.load_model(path)


@pytest.mark.parametrize("content, why", [("", "not JSON"), ("5", "not a JSON object")])
def test_load_model_not_a_json_object_names_path(tmp_path, content, why):
    path = tmp_path / "model.json"
    path.write_text(content)
    with pytest.raises(ValueError, match=rf"model\.json: {why}"):
        dl.load_model(path)


@pytest.mark.parametrize("value", ["false", 0, 1, None])
def test_load_model_names_a_zero_feature_that_is_not_a_bool(tmp_path, value):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"components": [{"weight": 1.0, "mean": [0.0], "std": 1.0}], "zero_feature": value}))
    with pytest.raises(ValueError, match=rf"model\.json: 'zero_feature' must be true or false, got {value!r}$"):
        dl.load_model(path)
    for flag in (True, False):
        path.write_text(json.dumps({"components": [{"weight": 1.0, "mean": [0.0], "std": 1.0}], "zero_feature": flag}))
        assert dl.load_model(path).zero_feature is flag


@pytest.mark.parametrize(
    "components, why",
    [
        ([], "no components"),
        ([{"weight": 0.0, "mean": [0.0], "std": 1.0}], "weights must be positive"),
        ([{"weight": 1.0, "mean": [0.0], "std": 1.0}, {"weight": -1.0, "mean": [1.0], "std": 1.0}],
         "weights must be positive"),
        ([{"weight": 1.0, "mean": [0.0], "std": 0.0}], "stds must be strictly positive"),
        ([{"weight": 1.0, "mean": [], "std": 1.0}], "component 0: 'mean' must be a non-empty flat list"),
        ([{"weight": 1.0, "mean": [0.0], "std": 1.0}, {"weight": 1.0, "mean": 1.0, "std": 1.0}],
         "component 1: 'mean' must be a non-empty flat list"),
    ],
    ids=["empty", "zero_weight", "negative_weight", "zero_std", "empty_mean", "scalar_mean"],
)
def test_load_model_rejects_bad_components(tmp_path, components, why):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"components": components}))
    with pytest.raises(ValueError, match=rf"model\.json: {why}"):
        dl.load_model(path)


def test_sample_data_statistics():
    m = dl.GaussianMixture(weights=[0.25, 0.75], means=[[-4.0], [4.0]], stds=[0.5, 0.5])
    xs = dl.sample_data(m, 20_000, dl.stream(0, "data"))
    mean = xs.mean()
    assert abs(mean - (0.75 * 4.0 - 0.25 * 4.0)) < 0.05


def test_oracle_divergence_names_interval(monkeypatch):
    import difflab.score_models as sm

    m = dl.GaussianMixture(weights=[1.0], means=[np.zeros(2)], stds=[1.0])
    sch = dl.make_schedule("uniform", 3, 1.0, 10.0)

    def exploding(model, x, t, out=None):
        from difflab.score_models import ModelEval

        eps = np.empty(np.shape(x)) if out is None else out
        eps.fill(1e308)
        return ModelEval(epsilon=eps)

    monkeypatch.setattr(sm, "eval_model", exploding)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(dl.DivergenceError, match="interval"):
            sm.oracle_solve(m, np.ones(2), sch, 32)
