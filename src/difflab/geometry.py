"""Trajectory geometry: PCA planarity, split-point grid search, shell bounds.

The PCA utilities quantify how close a sampling trajectory is to a low-rank
affine subspace.  The grid search measures, per interval, how much moving the
split point away from the geometric midpoint (the baseline, a schedule walk)
improves agreement with a high-accuracy reference trajectory.  The remaining
functions implement a scaled-logistic envelope for off-plane deviation, the
closed-form shell radius of the induced zero-drift diffusion and a Monte-Carlo
check of that radius from one exact-law draw (the ``bound-check`` command).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .rng import stream
from .schedules import TimeSchedule
from .score_models import eval_model
from .solvers import SolverKind, _current, split_step, step_dpm2, substep
from .trajectory import Trajectory, _walk_schedule, write_csv


@dataclass(frozen=True)
class PcaResult:
    """Principal axes of each trajectory in states of shape (nodes, *batch, d).

    components (*batch, min(nodes, d), d): orthonormal rows, descending eigenvalue;
    eigenvalues (*batch, d), zero-padded; mean (*batch, d).  ``projection_error``
    returns (nodes, *batch), node-first like the states; ``cumulative_variance`` (*batch, d).
    """

    components: np.ndarray
    eigenvalues: np.ndarray
    mean: np.ndarray


def _centred_svd(traj: Trajectory, compute_uv=True):
    """States (*batch, nodes, d), their node mean and the centred states' thin SVD (singular values only without uv)."""
    x = np.stack(traj.xs, axis=-2)
    if x.shape[-2] < 3:
        raise ValueError("PCA needs at least three nodes")
    mean = x.mean(axis=-2, keepdims=True)
    return x, mean, np.linalg.svd(x - mean, full_matrices=False, compute_uv=compute_uv)


def _eigenvalues(x, sv) -> np.ndarray:
    """The nodes' covariance eigenvalues from the singular values, zero-padded to d."""
    evals = np.zeros(x.shape[:-2] + x.shape[-1:])
    evals[..., : sv.shape[-1]] = sv * sv / (x.shape[-2] - 1)
    return evals


def pca_trajectory(traj: Trajectory) -> PcaResult:
    """Principal axes and variances of the nodes, by one stacked thin SVD of the centred states.

    The SVD resolves an off-plane residual to about 1e-15 of the states' norm
    (the covariance's eigendecomposition stops near 1e-12).  Components carry
    a deterministic sign (first coordinate of meaningful magnitude is
    positive); an all-equal trajectory yields zero eigenvalues.
    """
    x, mean, (_, sv, comps) = _centred_svd(traj)
    lead = np.take_along_axis(comps, np.argmax(np.abs(comps) > 1e-12, axis=-1)[..., None], axis=-1)
    comps = np.where(lead < 0, -comps, comps)
    return PcaResult(components=comps, eigenvalues=_eigenvalues(x, sv), mean=mean[..., 0, :])


def projection_error(traj: Trajectory, k: int) -> np.ndarray:
    """Per-node relative error of the rank-k reconstruction, ||x - x~|| / ||x||, from the row norms of U[:, k:] S[k:].

    Nodes with zero norm are flagged with NaN.
    """
    x, _, (u, sv, _) = _centred_svd(traj)
    if not 1 <= k <= x.shape[-1]:
        raise ValueError("need 1 <= k <= dim")
    nodes_first = (x.ndim - 2, *range(x.ndim - 2), x.ndim - 1)
    err = np.linalg.norm((u[..., k:] * sv[..., None, k:]).transpose(nodes_first), axis=-1)
    norms = np.linalg.norm(x.transpose(nodes_first), axis=-1)
    return np.divide(err, norms, out=np.full_like(norms, np.nan), where=norms > 0)


def cumulative_variance(traj: Trajectory) -> np.ndarray:
    """Fraction of total variance explained by the top k components, k = 1..d; all ones if all-equal."""
    x, _, sv = _centred_svd(traj, compute_uv=False)
    cum = np.cumsum(_eigenvalues(x, sv), axis=-1)
    return np.divide(cum, cum[..., -1:], out=np.ones_like(cum), where=cum[..., -1:] > 0)


# ---------------------------------------------------------------------------
# Split-point grid search


@dataclass
class AlignmentResult:
    """Greedy grid-search output, one row per interval (descending time).

    alignment[i] = ||x_baseline - x_ref|| - ||x_searched - x_ref|| at the
    interval's target node; positive means the searched split point tracked
    the reference better than the geometric-midpoint baseline.
    """

    target_times: np.ndarray  # (steps,)
    best_r: np.ndarray        # (steps, batch)
    alignment: np.ndarray     # (steps, batch)

    @property
    def mean_alignment(self) -> np.ndarray:
        return self.alignment.mean(axis=-1)

    @property
    def mean_best_r(self) -> np.ndarray:
        return self.best_r.mean(axis=-1)


def _search_step(model, base: SolverKind, r, x, t_hi, t_lo, carry=None, eps_cur=None):
    """One interval with split exponent r, following the base solver.

    dpm2 consumes r natively; other solvers are split into two substeps at
    the corresponding intermediate point with neutral scaling.  r = 1
    collapses the split onto the interval bottom, leaving a single substep.
    eps_cur, if given, is the slope at x (shared by all candidates of an
    interval).  Returns the step's ``(x_next, nfe, carry)``.
    """
    if base.tag == "dpm2":
        return step_dpm2(model, x, t_hi, t_lo, r, eps_cur=eps_cur)
    if np.all(np.asarray(r) == 1.0):
        return substep(model, base, x, t_hi, t_lo, carry, eps_cur=eps_cur)
    return split_step(model, x, t_hi, t_lo, r, base=base, carry=carry, eps_cur=eps_cur)


def grid_align(model, base: SolverKind, schedule: TimeSchedule, grid, oracle: Trajectory) -> AlignmentResult:
    """Greedy per-interval search of the split exponent against a reference.

    Two schedule walks from the reference's first state: the baseline steps
    at r = 0.5; the search runs every grid value at each interval and, per
    batch element, continues from the one whose step lands closest to the
    reference node.  A history-based base (ipndm) keeps the newest-first past
    slopes every candidate holds: the r = 1 candidate, one substep, holds one
    fewer.  Either walk diverging ends with a ``DivergenceError`` naming it
    (``grid_align baseline`` or ``grid_align search``) and the interval.  Each walk keeps only its current state
    and, per node, its rows' distances to the reference node, read in place: memory does not grow with N.
    """
    grid = [float(r) for r in grid]
    if not grid:
        raise ValueError("empty grid")
    for r in grid:
        if not 0 < r <= 1:
            raise ValueError("grid values must lie in (0, 1]")
    if oracle.times.shape[0] != schedule.n or not np.allclose(
        oracle.times, schedule.times[::-1], rtol=1e-12, atol=0.0
    ):
        raise ValueError("reference trajectory was not produced on this schedule")

    x0 = np.atleast_2d(np.asarray(oracle.xs[0], dtype=np.float64))  # a single state is a batch of one
    n_b = x0.shape[0]
    if n_b == 0:
        raise ValueError("reference trajectory holds no states")
    ys = [np.asarray(y, dtype=np.float64).reshape(n_b, -1) for y in oracle.xs[1:]]  # in place, as the walk's rows
    picks = []

    def search(x, t_hi, t_lo, carry, eps_cur=None):
        """Every candidate from x; each row keeps the one landing closest to its reference node, picked
        as np.argmin picks: the first minimum, or the first NaN, which the walk names as a divergence."""
        eps_cur, nfe = _current(model, x, t_hi, eps_cur)
        y = ys[len(picks)]
        for j, r in enumerate(grid):
            x_c, n, c = _search_step(model, base, r, x, t_hi, t_lo, carry, eps_cur)
            nfe += n
            dist = np.linalg.norm(x_c - y, axis=-1)
            c = () if c is None else tuple(np.broadcast_to(h, (n_b,) + np.shape(h)[1:]) for h in c)  # per row
            if j == 0:
                best, pick, x_next, history = dist, np.zeros(n_b, dtype=np.intp), x_c, c
                continue
            won = (dist < best) | (np.isnan(dist) & ~np.isnan(best))
            best, pick, x_next = np.where(won, dist, best), np.where(won, j, pick), np.where(won[:, None], x_c, x_next)
            history = tuple(np.where(won.reshape((n_b,) + (1,) * (h.ndim - 1)), h, k) for h, k in zip(c, history))
        picks.append(pick)
        return x_next, nfe, history or None

    with np.errstate(all="ignore"):  # both walks check it in their first interval
        eps0 = eval_model(model, x0, schedule.t_max).epsilon  # shared by both walks

    def distances(step, name):
        """At each node after the first, the rows' distances to the reference node; the states are dropped."""
        walk = _walk_schedule(step, schedule, x0, eps0, name)
        return np.array([np.linalg.norm(x - ys[i - 1], axis=-1) for i, (_, x, _) in enumerate(walk) if i])

    baseline = distances(partial(_search_step, model, base, 0.5), "grid_align baseline")
    alignment = baseline - distances(search, "grid_align search")
    return AlignmentResult(schedule.times[-2::-1], np.array(grid)[np.array(picks)], alignment)


def write_alignment_csv(result: AlignmentResult, path) -> None:
    cols = (result.target_times.tolist(), result.mean_best_r.tolist(), result.mean_alignment.tolist())
    write_csv(path, ["step", "t", "mean_best_r", "mean_alignment"], zip(range(len(cols[0])), *cols))


# ---------------------------------------------------------------------------
# Off-plane deviation envelope and shell concentration


@dataclass(frozen=True)
class BoundParams:
    """Scaled-logistic envelope parameters and the ambient dimension."""

    a: float
    b: float
    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be a positive integer")
        if self.a <= 0 or self.b <= 0:
            raise ValueError("a and b must be positive")

    @classmethod
    def default(cls, d: int) -> "BoundParams":
        """a = sqrt(3d) / 15, b = 3; a d below 1 is refused by the constructor."""
        return cls(a=math.sqrt(3.0 * max(d, 0)) / 15.0, b=3.0, d=d)


def logistic_bound(params: BoundParams, tau) -> np.ndarray:
    """f(tau) = a * (sigmoid(b tau) - 1/2): zero at 0, increasing, -> a/2."""
    tau = np.asarray(tau, dtype=np.float64)
    return params.a * 0.5 * np.tanh(0.5 * params.b * tau)


def shell_radius(params: BoundParams, s: float, t: float) -> float:
    """Concentration radius of the zero-drift diffusion driven by f/sqrt(d).

    r(s, t) = (a/sqrt(b)) * sqrt([1/(1+e^u)] from bs to bt + (b/4)(t - s)).
    """
    if not 0 < s < t < math.inf:
        raise ValueError("need 0 < s < t < inf")

    def antiderivative(u):
        # 1/(1 + e^u), evaluated stably
        return 0.5 * (1.0 - math.tanh(0.5 * u))

    bracket = antiderivative(params.b * t) - antiderivative(params.b * s)
    total = bracket + 0.25 * params.b * (t - s)
    return params.a / math.sqrt(params.b) * math.sqrt(total)


@dataclass(frozen=True)
class ShellReport:
    mean_norm: float
    rel_std: float
    radius: float


def mc_shell_check(params: BoundParams, s: float, t: float, trials: int, seed: int,
                   substeps: int = 200) -> ShellReport:
    """Euler-Maruyama endpoints of the zero-drift diffusion from t down to s.

    The endpoint, a sum of independent Gaussian increments, is drawn from its
    exact law sqrt(v) N(0, I), v = sum_k f(tau_k)^2 |dtau_k| / d over
    ``substeps`` uniform steps.  Reports the sample mean of the endpoint norm
    and its relative spread, to be compared against shell_radius.
    """
    radius = shell_radius(params, s, t)  # refuses all but 0 < s < t < inf
    if trials < 1 or substeps < 1:
        raise ValueError("trials and substeps must be positive")
    taus = np.linspace(t, s, substeps + 1)
    v = float(np.sum(logistic_bound(params, taus[:-1]) ** 2 * np.abs(np.diff(taus)))) / params.d
    z = math.sqrt(v) * stream(seed, "shell").standard_normal((trials, params.d))
    norms = np.linalg.norm(z, axis=1)
    mean = float(norms.mean())
    rel = float(norms.std() / mean) if mean > 0 else 0.0
    return ShellReport(mean_norm=mean, rel_std=rel, radius=radius)
