import math
import re
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import difflab as dl
from difflab.geometry import BoundParams, write_alignment_csv
from difflab.trajectory import Trajectory

from conftest import make_gmm, traced_peak


def line_trajectory(n=8, d=5):
    # planted rank-1 trajectory
    direction = np.arange(1.0, d + 1.0)
    ts = np.linspace(10.0, 1.0, n)
    return Trajectory(ts, [0.3 * t * direction + 2.0 for t in ts], 0)


def plane_trajectory(n=10, d=6):
    rng = dl.stream(0, "plane")
    u = rng.standard_normal(d)
    v = rng.standard_normal(d)
    ts = np.linspace(5.0, 0.5, n)
    return Trajectory(ts, [math.sin(t) * u + math.cos(2 * t) * v for t in ts], 0)


def test_pca_orthonormal_and_sorted():
    pca = dl.pca_trajectory(plane_trajectory())
    gram = pca.components @ pca.components.T
    np.testing.assert_allclose(gram, np.eye(6), atol=1e-10)
    assert np.all(np.diff(pca.eigenvalues) <= 1e-12)
    assert np.all(pca.eigenvalues >= 0)


def test_pca_sign_convention_deterministic():
    a = dl.pca_trajectory(plane_trajectory())
    b = dl.pca_trajectory(plane_trajectory())
    np.testing.assert_array_equal(a.components, b.components)
    for v in a.components:
        first = v[np.argmax(np.abs(v) > 1e-12)]
        assert first > 0


def test_pca_rank1_trajectory():
    pca = dl.pca_trajectory(line_trajectory())
    assert pca.eigenvalues[1] / pca.eigenvalues[0] < 1e-12
    errs = dl.projection_error(line_trajectory(), 2)
    assert np.nanmax(errs) < 1e-10
    cum = dl.cumulative_variance(line_trajectory())
    np.testing.assert_allclose(cum, np.ones_like(cum), atol=1e-10)


def test_pca_trace_identity_on_solver_trajectories():
    rng = dl.stream(0, "trace")
    for i in range(100):
        m = make_gmm(i, int(rng.integers(1, 4)), 6)
        x = rng.standard_normal(6) * 80.0
        sch = dl.make_schedule("polynomial", 8, 0.002, 80.0, rho=7.0)
        traj = dl.sample(m, dl.SolverKind("heun_edm"), sch, x)
        pca = dl.pca_trajectory(traj)
        states = traj.states
        xc = states - states.mean(axis=0)
        total = np.sum(xc * xc) / (states.shape[0] - 1)
        assert abs(pca.eigenvalues.sum() - total) <= 1e-10 * max(total, 1.0)


def test_projection_error_planted_plane():
    errs = dl.projection_error(plane_trajectory(), 2)
    assert np.nanmax(errs) < 1e-10


def test_projection_error_full_rank_is_zero():
    traj = plane_trajectory()
    errs = dl.projection_error(traj, 6)
    assert np.nanmax(errs) < 1e-12


def test_projection_error_monotone_in_k():
    m = make_gmm(3, 3, 6)
    x = dl.stream(1, "mono").standard_normal(6) * 80.0
    sch = dl.make_schedule("polynomial", 10, 0.002, 80.0, rho=7.0)
    traj = dl.sample(m, dl.SolverKind("heun_edm"), sch, x)
    prev = None
    for k in range(1, 7):
        cur = np.nansum(dl.projection_error(traj, k) ** 2)
        if prev is not None:
            assert cur <= prev + 1e-12
        prev = cur


def test_projection_error_flags_zero_norm_nodes():
    errs = dl.projection_error(Trajectory([3.0, 2.0, 1.0], [np.array([1.0, 0.0]), np.array([0.0, 0.0]), np.array([-1.0, 0.0])]), 1)
    assert not np.isnan(errs[0]) and np.isnan(errs[1])


@pytest.mark.parametrize("n,d", [(5, 8), (12, 4)])
def test_geometry_batched_matches_per_trajectory_loop(n, d):
    # rows: two random trajectories, an all-equal one and one with a zero-norm node
    states = dl.stream(n, "batched").standard_normal((n, 4, d))
    states[:, 2] = 2.5
    states[n // 2, 3] = 0.0
    ts = np.linspace(5.0, 0.5, n)
    batch = Trajectory(ts, states)
    pca = dl.pca_trajectory(batch)
    errs = dl.projection_error(batch, 2)
    cum = dl.cumulative_variance(batch)
    assert pca.components.shape == (4, min(n, d), d) and pca.eigenvalues.shape == (4, d)
    assert errs.shape == (n, 4) and cum.shape == (4, d)
    for b in range(4):
        single = Trajectory(ts, list(states[:, b]))
        ref = dl.pca_trajectory(single)
        np.testing.assert_allclose(pca.eigenvalues[b], ref.eigenvalues, rtol=0, atol=1e-12)
        np.testing.assert_allclose(pca.mean[b], ref.mean, rtol=0, atol=1e-12)
        np.testing.assert_allclose(errs[:, b], dl.projection_error(single, 2), rtol=0, atol=1e-12)
        np.testing.assert_allclose(cum[b], dl.cumulative_variance(single), rtol=0, atol=1e-12)
    np.testing.assert_array_equal(cum[2], np.ones(d))
    assert np.isnan(errs[n // 2, 3]) and not np.isnan(np.delete(errs[:, 3], n // 2)).any()


def test_geometry_of_a_csv_read_trajectory_keeps_the_bits(tmp_path, gmm2_d8, poly_schedule):
    """A read-back trajectory's states are one array's rows, a sampled one's the walk's arrays: same bits."""
    x_T = dl.stream(6, "csv-bits").standard_normal((3, 8)) * 80.0
    sampled = dl.sample(gmm2_d8, dl.SolverKind("dpm2"), poly_schedule, x_T)
    rows = [Trajectory(sampled.times, [x[b] for x in sampled.xs]) for b in range(3)]
    for b, row in enumerate(rows):
        dl.write_trajectory_csv(row, tmp_path / f"{b}.csv")
    back = [dl.read_trajectory_csv(tmp_path / f"{b}.csv") for b in range(3)]
    pairs = [(rows[0], back[0]), (sampled, Trajectory(sampled.times, np.stack([tr.xs for tr in back], axis=1)))]
    for listed, read in pairs:
        a, b = dl.pca_trajectory(listed), dl.pca_trajectory(read)
        for name in ("components", "eigenvalues", "mean"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        np.testing.assert_array_equal(dl.projection_error(listed, 2), dl.projection_error(read, 2))
        np.testing.assert_array_equal(dl.cumulative_variance(listed), dl.cumulative_variance(read))


@pytest.mark.parametrize("k", [0, 6])
def test_projection_error_rank_range(k):
    with pytest.raises(ValueError, match="1 <= k <= dim"):
        dl.projection_error(line_trajectory(d=5), k)


def test_pca_needs_three_nodes():
    with pytest.raises(ValueError):
        dl.pca_trajectory(Trajectory([2.0, 1.0], [np.zeros(3), np.zeros(3)]))


def test_cumulative_variance_random_cloud_scales_like_k_over_d():
    rng = dl.stream(2, "cloud")
    ts = np.linspace(9, 1, 4000)
    cum = dl.cumulative_variance(Trajectory(ts, [rng.standard_normal(8) for _ in ts]))
    np.testing.assert_allclose(cum, np.arange(1, 9) / 8.0, atol=0.05)


def test_degenerate_trajectory_is_valid():
    traj = Trajectory([3.0, 2.0, 1.0], [np.ones(3)] * 3)
    pca = dl.pca_trajectory(traj)
    np.testing.assert_allclose(pca.eigenvalues, 0.0, atol=1e-300)
    cum = dl.cumulative_variance(traj)
    np.testing.assert_array_equal(cum, np.ones(3))


# ---------------------------------------------------------------------------
# Grid alignment


def test_grid_align_singleton_is_exactly_zero(gmm2_d8, poly_schedule):
    x = dl.stream(4, "align").standard_normal((8, 8)) * 80.0
    oracle = dl.oracle_solve(gmm2_d8, x, poly_schedule, 64)
    res = dl.grid_align(gmm2_d8, dl.SolverKind("dpm2"), poly_schedule, [0.5], oracle)
    assert np.all(res.alignment == 0.0)
    assert np.all(res.best_r == 0.5)


def test_grid_align_first_step_nonnegative(gmm2_d8, poly_schedule):
    x = dl.stream(4, "align").standard_normal((8, 8)) * 80.0
    oracle = dl.oracle_solve(gmm2_d8, x, poly_schedule, 64)
    grid = [0.25, 0.5, 0.75, 1.0]
    for tag in ("dpm2", "euler_ddim"):
        res = dl.grid_align(gmm2_d8, dl.SolverKind(tag), poly_schedule, grid, oracle)
        assert np.all(res.alignment[0] >= -1e-12)


@pytest.mark.parametrize("tag", ["dpm2", "euler_ddim", "ipndm"])
def test_grid_align_counted_model_calls(monkeypatch, gmm2_d8, poly_schedule, tag):
    import difflab.geometry as geometry_mod
    import difflab.solvers as solvers_mod
    from test_solvers import count_model_calls

    x = dl.stream(4, "align").standard_normal((8, 8)) * 80.0
    oracle = dl.oracle_solve(gmm2_d8, x, poly_schedule, 64)
    calls = count_model_calls(monkeypatch, solvers_mod, geometry_mod)
    grid = [0.25, 0.5, 0.75]
    dl.grid_align(gmm2_d8, dl.SolverKind(tag), poly_schedule, grid, oracle)
    # Per interval: the r = 0.5 baseline step (2 calls), one slope at the
    # searched state shared by every candidate, one call per candidate split.
    # In interval 0 both runs start at the same state and share that slope.
    assert len(calls) == (poly_schedule.n - 1) * (3 + len(grid)) - 1


def test_grid_align_positive_mean_on_mixture():
    model = make_gmm(31, 2, 16)
    sch = dl.make_schedule("polynomial", 6, 0.002, 80.0, rho=7.0)
    x = dl.stream(4, "align").standard_normal((64, 16)) * 80.0
    oracle = dl.oracle_solve(model, x, sch, 128)
    grid = [round(0.1 * i, 1) for i in range(1, 11)]
    for tag in ("dpm2", "euler_ddim"):
        res = dl.grid_align(model, dl.SolverKind(tag), sch, grid, oracle)
        assert res.alignment.mean() > 0


def test_grid_align_validation(gmm2_d8, poly_schedule):
    x = dl.stream(4, "align").standard_normal(8) * 80.0
    oracle = dl.oracle_solve(gmm2_d8, x, poly_schedule, 64)
    with pytest.raises(ValueError):
        dl.grid_align(gmm2_d8, dl.SolverKind("dpm2"), poly_schedule, [0.0, 0.5], oracle)
    with pytest.raises(ValueError):
        dl.grid_align(gmm2_d8, dl.SolverKind("dpm2"), poly_schedule, [], oracle)
    other = dl.make_schedule("polynomial", 4, 0.002, 80.0, rho=7.0)
    with pytest.raises(ValueError):
        dl.grid_align(gmm2_d8, dl.SolverKind("dpm2"), other, [0.5], oracle)
    empty = dl.oracle_solve(gmm2_d8, np.zeros((0, 8)), poly_schedule)
    with pytest.raises(ValueError, match="holds no states"):
        dl.grid_align(gmm2_d8, dl.SolverKind("dpm2"), poly_schedule, [0.5], empty)


def test_grid_align_refuses_more_than_one_batch_axis(gmm2_d8, poly_schedule):
    # The walks' rows are one batch axis; a (2, 3) grid of states is refused by name, not by numpy's broadcast error.
    oracle = dl.oracle_solve(gmm2_d8, dl.stream(4, "align").standard_normal((2, 3, 8)) * 80.0, poly_schedule, 8)
    with pytest.raises(ValueError, match=r"^reference holds no states or more than one batch axis: states of shape \(2, 3, 8\)$"):
        dl.grid_align(gmm2_d8, dl.SolverKind("dpm2"), poly_schedule, [0.5], oracle)


def test_grid_align_multistep_bases(gmm2_d8, poly_schedule):
    x = dl.stream(9, "single").standard_normal((4, 8)) * 80.0
    oracle = dl.oracle_solve(gmm2_d8, x, poly_schedule, 64)
    for tag in ("ipndm", "dpmpp_2m", "heun_edm"):
        res = dl.grid_align(gmm2_d8, dl.SolverKind(tag), poly_schedule, [0.3, 0.5, 0.7], oracle)
        assert np.all(np.isfinite(res.alignment))
        assert np.all(res.alignment[0] >= -1e-12)


@pytest.mark.parametrize(
    "tag,grid",
    [("ipndm", [0.3, 0.5, 0.7]), ("dpmpp_2m", [0.3, 0.5, 0.7, 1.0]), ("ipndm", [0.3, 0.5, 0.7, 1.0])],
)
def test_grid_align_batched_matches_rows(gmm2_d8, poly_schedule, tag, grid):
    # the per-sample gather of the history carry must follow each row's own picks;
    # with r = 1 in the grid, ipndm's candidates hold histories of different lengths
    x = dl.stream(10, "rows").standard_normal((6, 8)) * 80.0
    oracle = dl.oracle_solve(gmm2_d8, x, poly_schedule, 64)
    kind = dl.SolverKind(tag)
    batched = dl.grid_align(gmm2_d8, kind, poly_schedule, grid, oracle)
    for i in range(x.shape[0]):
        row = Trajectory(oracle.times, [xs[i] for xs in oracle.xs], oracle.nfe)
        single = dl.grid_align(gmm2_d8, kind, poly_schedule, grid, row)
        np.testing.assert_array_equal(batched.best_r[:, i], single.best_r[:, 0])
        np.testing.assert_allclose(batched.alignment[:, i], single.alignment[:, 0], rtol=1e-9, atol=0)


def test_grid_align_names_the_diverging_baseline(gmm2_d8, recwarn):
    """Above t = 1.3e154 the shared first slope is NaN: the baseline walk ends in its first interval."""
    schedule = dl.make_schedule("polynomial", 5, 0.002, 1e200, rho=7.0)
    x = dl.stream(4, "align").standard_normal((4, 8)) * 1e200
    oracle = Trajectory(schedule.times[::-1], [x] * schedule.n)  # any finite reference on the schedule
    t_hi, t_lo = schedule.times[::-1][:2]
    message = f"grid_align baseline diverged in interval [{t_lo:g}, {t_hi:g}]"
    with pytest.raises(dl.DivergenceError, match=f"^{re.escape(message)}$"):
        dl.grid_align(gmm2_d8, dl.SolverKind("dpm2"), schedule, [0.3, 0.5], oracle)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)], [str(w.message) for w in recwarn]


@pytest.mark.parametrize("how", ["overflow", "nan"])
@pytest.mark.parametrize("tag", ["dpm2", "ipndm"])
def test_grid_align_names_a_diverging_search(monkeypatch, gmm2_d8, poly_schedule, tag, how):
    """A candidate that overflows or turns non-finite ends the search, named with its interval; the baseline is spared."""
    import difflab.geometry as geometry_mod

    real = geometry_mod._search_step
    ts = poly_schedule.times[::-1]

    def bad_candidate(model, base, r, x, t_hi, t_lo, carry=None, eps_cur=None):
        x_next, nfe, carry = real(model, base, r, x, t_hi, t_lo, carry, eps_cur)
        if r == 0.7 and t_hi == ts[2]:
            x_next = x_next * 1e300 * 1e300 if how == "overflow" else np.full_like(x_next, np.nan)
        return x_next, nfe, carry

    monkeypatch.setattr(geometry_mod, "_search_step", bad_candidate)
    x = dl.stream(4, "align").standard_normal((4, 8)) * 80.0
    oracle = dl.oracle_solve(gmm2_d8, x, poly_schedule, 64)
    with pytest.raises(dl.DivergenceError, match=rf"^grid_align search diverged in interval \[{ts[3]:g}, {ts[2]:g}\]$"):
        dl.grid_align(gmm2_d8, dl.SolverKind(tag), poly_schedule, [0.3, 0.5, 0.7], oracle)


@pytest.mark.parametrize(
    "tag,grid,bound",
    [("dpm2", [0.3, 0.5, 0.7], 10), ("ipndm", [0.3, 0.5, 0.7, 1.0], 18), ("dpmpp_2m", [0.3, 0.5, 0.7], 16)],
    ids=["dpm2", "ipndm_r1", "dpmpp_2m"],
)
def test_grid_align_streams(tag, grid, bound):
    """Both walks keep their current state, not their nodes: the peak holds from 6 nodes to 17.

    At d = 1024 a state outweighs every per-row array; a warm-up call runs
    first, so lazy imports and caches do not count.  Streamed, dpm2 / ipndm /
    dpmpp_2m read 8.3 / 16.1 / 14.1 states at both N = 6 and N = 17; collecting
    both walks and stacking the reference read 27-29 states at N = 6 and 82 at N = 17.
    """
    model = make_gmm(3, 4, 1024)
    x_T = dl.stream(0, "x_T").standard_normal((32, 1024)) * 80.0
    peaks = []
    for n in (6, 17):
        schedule = dl.make_schedule("polynomial", n, 0.002, 80.0, rho=7.0)
        run = partial(dl.grid_align, model, dl.SolverKind(tag), schedule, grid, dl.oracle_solve(model, x_T, schedule, 8))
        run()
        peaks.append(traced_peak(run) / x_T.nbytes)
    assert max(peaks) < bound, peaks
    assert peaks[1] <= peaks[0] + 1, peaks


def test_alignment_csv(tmp_path, gmm2_d8, poly_schedule):
    x = dl.stream(4, "align").standard_normal(8) * 80.0
    oracle = dl.oracle_solve(gmm2_d8, x, poly_schedule, 64)
    res = dl.grid_align(gmm2_d8, dl.SolverKind("dpm2"), poly_schedule, [0.4, 0.5, 0.6], oracle)
    path = tmp_path / "align.csv"
    write_alignment_csv(res, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,t,mean_best_r,mean_alignment"
    assert len(lines) == 1 + poly_schedule.n - 1
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[1]) == res.target_times[0]
    assert float(first[3]) == res.mean_alignment[0]


# ---------------------------------------------------------------------------
# Logistic envelope, shell radius, Monte-Carlo check


def test_logistic_bound_values():
    bp = BoundParams(a=2.0, b=1.0, d=4)
    assert dl.logistic_bound(bp, 0.0) == 0.0
    assert abs(dl.logistic_bound(bp, 1e3) - 1.0) < 1e-12
    taus = np.linspace(-5, 5, 50)
    vals = dl.logistic_bound(bp, taus)
    assert np.all(np.diff(vals) > 0)


def test_logistic_bound_saturates_at_half_a():
    d = 12288
    bp = BoundParams(a=math.sqrt(3 * d) / 15.0, b=3.0, d=d)
    assert abs(bp.a - 12.8) < 1e-12
    assert abs(dl.logistic_bound(bp, 80.0) - bp.a / 2.0) <= 1e-6


def test_shell_radius_matches_quadrature():
    bp = BoundParams.default(64)
    for s, t in ((0.5, 2.0), (1.0, 10.0), (3.0, 30.0)):
        integral, err = quad(lambda u: dl.logistic_bound(bp, u) ** 2 / bp.d, s, t, epsrel=1e-12)
        r = dl.shell_radius(bp, s, t)
        assert abs(r * r - bp.d * integral) <= 1e-9 * bp.d * integral


def test_shell_radius_asymptotics_and_monotonicity():
    bp = BoundParams(a=1.8, b=3.0, d=16)
    # at large bs, bt the boundary term vanishes
    r = dl.shell_radius(bp, 10.0, 20.0)
    assert abs(r - (bp.a / 2.0) * math.sqrt(10.0)) < 1e-12 * r
    rs = [dl.shell_radius(bp, 0.5, t) for t in (1.0, 2.0, 4.0, 8.0)]
    assert all(b > a for a, b in zip(rs, rs[1:]))
    # zero-length interval limit
    assert dl.shell_radius(bp, 1.0, 1.0 + 1e-12) < 1e-5


def test_shell_radius_validation():
    bp = BoundParams.default(4)
    with pytest.raises(ValueError):
        dl.shell_radius(bp, 2.0, 1.0)
    with pytest.raises(ValueError):
        BoundParams(a=-1.0, b=3.0, d=4)
    # d is checked first: the default a is derived from it
    for make in (lambda: BoundParams(a=0.0, b=3.0, d=0), lambda: BoundParams.default(0),
                 lambda: BoundParams.default(-3)):
        with pytest.raises(ValueError, match="d must be a positive integer"):
            make()


@pytest.mark.parametrize(
    "s, t, trials, substeps, message",
    [
        (2.0, 1.0, 8, 10, "0 < s < t"),
        (1.0, 1.0, 8, 10, "0 < s < t"),
        (0.0, 1.0, 8, 10, "0 < s < t"),
        (1.0, math.inf, 8, 10, "0 < s < t"),
        (1.0, 2.0, 0, 10, "trials and substeps must be positive"),
        (1.0, 2.0, 8, 0, "trials and substeps must be positive"),
    ],
)
def test_mc_shell_check_validation(s, t, trials, substeps, message):
    with pytest.raises(ValueError, match=message):
        dl.mc_shell_check(BoundParams.default(4), s, t, trials=trials, seed=0, substeps=substeps)


def test_mc_shell_check_concentrates():
    bp = BoundParams.default(256)
    rep = dl.mc_shell_check(bp, 1.0, 10.0, trials=4096, seed=0)
    assert abs(rep.mean_norm - rep.radius) <= 0.05 * rep.radius
    assert rep.rel_std <= 0.10


def test_mc_shell_check_null_diffusion():
    bp = BoundParams(a=1e-12, b=3.0, d=16)
    rep = dl.mc_shell_check(bp, 1.0, 5.0, trials=128, seed=0)
    assert rep.mean_norm < 1e-11


def test_mc_shell_check_matches_chi_mean():
    # the endpoint is sqrt(v) times a standard normal in d dimensions, so its norm is sqrt(v) * chi_d
    bp = BoundParams.default(64)
    s, t, substeps, trials = 1.0, 10.0, 200, 4096
    taus = np.linspace(t, s, substeps + 1)
    v = sum(dl.logistic_bound(bp, taus[k]) ** 2 * (taus[k] - taus[k + 1]) for k in range(substeps)) / bp.d
    chi_mean = math.sqrt(2.0 * v) * math.exp(math.lgamma((bp.d + 1) / 2) - math.lgamma(bp.d / 2))
    rep = dl.mc_shell_check(bp, s, t, trials=trials, seed=3, substeps=substeps)
    std_err = rep.rel_std * rep.mean_norm / math.sqrt(trials)
    assert abs(rep.mean_norm - chi_mean) <= 3.0 * std_err


def test_mc_shell_check_substep_insensitive():
    bp = BoundParams.default(64)
    a = dl.mc_shell_check(bp, 1.0, 10.0, trials=2048, seed=0, substeps=400)
    b = dl.mc_shell_check(bp, 1.0, 10.0, trials=2048, seed=0, substeps=200)
    assert abs(a.mean_norm - b.mean_norm) < 0.01 * a.mean_norm


@pytest.mark.parametrize("d", [3, 16, 256])
def test_two_component_trajectories_are_planar(d):
    # eps = t * (A (x - m) - B (mu_1 - mu_2) / 2), m the midpoint of the means, keeps x
    # in the plane m + span{x_T - m, mu_1 - mu_2}; every step below is an affine
    # combination of states and slopes, so its nodes stay there up to rounding.
    m = make_gmm(d, 2, d)
    assert np.linalg.norm(m.means.mean(axis=0)) > 1.0  # uncentred: the plane misses the origin
    x_T = dl.stream(0, "planar", d).standard_normal(d) * 80.0
    schedule = dl.make_schedule("polynomial", 8, 0.002, 80.0, rho=7.0)
    trajs = {
        "reference": dl.reference_solve(m, x_T, schedule),
        "dpmpp_2m": dl.sample(m, dl.SolverKind("dpmpp_2m"), schedule, x_T),
        "ipndm": dl.sample(m, dl.SolverKind("ipndm"), schedule, x_T),
        # the analytic first step (x - mean)/t lies in the plane too: the mixture mean is on it
        "dpmpp_2m+afs": dl.sample(m, dl.SolverKind("dpmpp_2m"), schedule, x_T, afs=True),
        "ipndm+afs": dl.sample(m, dl.SolverKind("ipndm"), schedule, x_T, afs=True),
        "amed+afs": dl.amed_sample(m, dl.PredictorParams.zeros(), schedule, x_T, afs=True),
    }
    for name, traj in trajs.items():
        err = float(np.max(dl.projection_error(traj, 2)))
        assert err <= 1e-12, (name, err)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_four_component_trajectories_are_near_planar_not_planar(seed):
    """Off the two-component case the rank-2 residual is small but not rounding: gmm4_d16 at K = 4.

    Over 64 reference trajectories on 17 polynomial nodes, each trajectory's
    largest rank-2 relative error had a median of 0.0121 (0.011-0.015 at
    seeds 1-2), a maximum of 0.094-0.098 and a minimum of 7e-4 to 1.3e-3.
    """
    model = dl.load_model(Path(__file__).resolve().parent.parent / "configs" / "gmm4_d16.json")
    schedule = dl.make_schedule("polynomial", 17, 0.002, 80.0, rho=7.0)
    x_T = dl.stream(seed, "planar").standard_normal((64, 16)) * 80.0
    err = np.max(dl.projection_error(dl.reference_solve(model, x_T, schedule), 2), axis=0)
    assert err.shape == (64,)
    assert 0.008 < np.median(err) < 0.02, np.median(err)
    assert err.max() < 0.12, err.max()
    assert err.min() > 1e-4, err.min()  # no trajectory is planar to rounding, unlike K <= 2
