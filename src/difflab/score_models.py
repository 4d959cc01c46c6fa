"""Analytic score models: isotropic Gaussian mixtures with closed-form predictions.

Under the variance-exploding convention used throughout (noise scale equal to
time, zero drift), perturbing an isotropic mixture component with standard
deviation s by noise level t gives another isotropic Gaussian with variance
s^2 + t^2.  The marginal score is therefore available in closed form, and with
it the noise prediction eps(x, t) = -t * score; the data prediction
x - t * eps is formed by the solvers that use it.  Each evaluation also
keeps the posterior component responsibilities, from which a fixed-width
feature vector is formed on read, playing the role a network's bottleneck
activation would play for a learned model.

Cost model of ``eval_model``: the batch dimensions flatten to B rows and every
per-component array is component-major, (K, B), so the log-sum-exp reductions over the
short K axis run as whole-row operations across the batch.  Two matrix products per
call, the (K, d) means with the (B, d) states and the transposed (K, B) weighted
responsibilities with [1 | means], plus O(K) work per time and O(B * (K + d)) memory;
no (B, K, d) tensor is formed, no feature vector unless one is read, and per-row times
shaped like the batch are not broadcast.  Its precision contract: each row's noise
prediction agrees with the direct per-component form to 1e-9 of its largest |eps|.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .schedules import TimeSchedule, make_schedule
from .trajectory import DivergenceError, Trajectory, _walk_schedule  # DivergenceError: re-exported

_TINY = float(np.finfo(np.float64).tiny)  # smallest normal double

# Width of the per-evaluation feature vector.  Responsibilities of the
# perturbed mixture fill the first min(K, FEATURE_DIM) slots, the rest stay
# zero; a mixture with more components is truncated.
FEATURE_DIM = 16

# RK4 substeps per interval of a reference, and the nodes of ``certified_grid``,
# which every mixture reference integrates joined with the schedule's nodes.
# test_score_models.py::test_oracle_default_certified holds the Richardson
# estimate of 8 substeps (against 16) to 1/100 of the best solver's mean
# endpoint error on the shipped mixtures.  Half of it, which fails that bar on
# gmm4_d16, is ``oracle_solve``'s floor and the coarse run of every certificate.
ORACLE_SUBSTEPS = 8
ORACLE_NODES = 17


def certified_grid(t_min: float, t_max: float) -> TimeSchedule:
    """The reference grid the certificate was measured on: 17 polynomial rho-7 nodes."""
    return make_schedule("polynomial", ORACLE_NODES, t_min, t_max, rho=7.0)


def _lock(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class GaussianMixture:
    """Isotropic Gaussian mixture sum_k w_k N(mu_k, s_k^2 I).

    Immutable after construction; evaluations are pure functions of (x, t).
    ``zero_feature=True`` makes every evaluation report an all-zero feature
    vector (the ablation that removes state information from downstream
    predictors) without touching the scores themselves.
    """

    weights: np.ndarray
    means: np.ndarray
    stds: np.ndarray
    zero_feature: bool = False

    def __post_init__(self):
        # Copies, so that locking them below leaves the caller's arrays writable.
        w = np.atleast_1d(np.array(self.weights, dtype=np.float64))
        m = np.atleast_2d(np.array(self.means, dtype=np.float64))
        s = np.atleast_1d(np.array(self.stds, dtype=np.float64))
        if w.ndim != 1 or s.ndim != 1 or m.ndim != 2:
            raise ValueError("weights and stds must be 1-D, means 2-D (K, d)")
        if not (w.shape[0] == m.shape[0] == s.shape[0]):
            raise ValueError("weights, means and stds must agree on K")
        if not np.all(np.isfinite(w)) or not np.all(np.isfinite(m)) or not np.all(np.isfinite(s)):
            raise ValueError("mixture parameters must be finite")
        if np.any(w <= 0):
            raise ValueError("weights must be strictly positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1 within 1e-12")
        if np.any(s <= 0):
            raise ValueError("stds must be strictly positive")
        if not isinstance(self.zero_feature, bool):
            raise ValueError(f"'zero_feature' must be true or false, got {self.zero_feature!r}")
        object.__setattr__(self, "weights", _lock(w))
        object.__setattr__(self, "means", _lock(m))
        object.__setattr__(self, "stds", _lock(s))
        # Per-model constants of eval_model, per-component ones as (K, 1) columns.
        # They are plain attributes, not dataclass fields, so the constructor,
        # repr, equality and the saved form see only the parameters above.  Means
        # are taken relative to the mixture mean: the expanded squared distances
        # cancel in proportion to |x|^2 + |mu_k|^2, which an offset would inflate.
        centre = self.mean
        mc = m - centre
        object.__setattr__(self, "_centre", _lock(centre))
        object.__setattr__(self, "_ones_means", _lock(np.hstack([np.ones((mc.shape[0], 1)), mc])))
        object.__setattr__(self, "_means_c", self._ones_means[:, 1:])  # a view: one copy of the means
        object.__setattr__(self, "_half_mean_sq", _lock(0.5 * np.einsum("kd,kd->k", mc, mc)[:, None]))
        object.__setattr__(self, "_s2", _lock((s * s)[:, None]))
        object.__setattr__(self, "_log_w", _lock(np.log(w)[:, None]))

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @property
    def n_components(self) -> int:
        return self.means.shape[0]

    @property
    def mean(self) -> np.ndarray:
        """Mixture mean sum_k w_k mu_k."""
        return self.weights @ self.means


@dataclass(frozen=True)
class ModelEval:
    """One model evaluation: noise prediction and component responsibilities.

    ``responsibilities`` has shape (..., K), or is None for an evaluation
    that reports no state information (a ``zero_feature`` model, or a test
    stand-in).  ``feature`` is formed from it only when read.
    """

    epsilon: np.ndarray
    responsibilities: np.ndarray | None = None

    def __getitem__(self, index) -> ModelEval:
        """The evaluation of the batch rows ``index``."""
        return ModelEval(self.epsilon[index], None if self.responsibilities is None else self.responsibilities[index])

    @property
    def feature(self) -> np.ndarray:
        """The FEATURE_DIM-wide feature vector over the batch dimensions.

        The first min(K, FEATURE_DIM) responsibilities, zero-padded; for
        K > FEATURE_DIM the vector is truncated and no longer sums to one.
        All zeros when ``responsibilities`` is None.
        """
        resp = self.responsibilities
        feature = np.zeros(np.shape(self.epsilon)[:-1] + (FEATURE_DIM,))
        if resp is not None:
            k = min(resp.shape[-1], FEATURE_DIM)
            feature[..., :k] = resp[..., :k]
        return feature


def eval_model(model: GaussianMixture, x, t, out=None) -> ModelEval:
    """Evaluate the closed-form noise prediction at state x and time t.

    x may carry leading batch dimensions, shape (..., d).  t is a positive
    scalar or an array broadcastable against the batch dimensions, which lets
    one vectorized call use a different time per batch element.

    The per-component differences x - mu_k are never formed.  With x and the
    means taken relative to the mixture mean, the component log-densities are
    (x.mu_k - |x|^2/2) / v_k + b_k, where v_k = s_k^2 + t^2 and the bias b_k
    collects log w_k, -d/2 log v_k and -|mu_k|^2 / (2 v_k); 1/v and b are
    (K, 1) columns per time, (K, B) for per-row times.  The prediction is
    t * (x * sum_k a_k - sum_k a_k mu_k) with a_k = rho_k / v_k and rho_k the
    responsibilities; one product with [1 | mu] gives both sums.  A rho_k
    whose a_k would be subnormal is set to exactly 0, and so is that a_k.
    ``epsilon`` is a fresh array, or ``out``: a C-contiguous float64 array of
    x's shape, which may be x itself.  Its caller may overwrite it.
    """
    x = np.asarray(x, dtype=np.float64)
    if (d := x.shape[-1]) != model.dim:
        raise ValueError(f"state has dim {d}, model has dim {model.dim}")
    if not isinstance(t, float):
        t = np.asarray(t, dtype=np.float64)
        if t.ndim == 0:
            t = float(t)
    if isinstance(t, float):
        if not (np.count_nonzero(np.isfinite(x)) == x.size and math.isfinite(t)):  # cheaper than .all()
            raise ValueError("non-finite input to model evaluation")
        if t <= 0:
            raise ValueError("time must be strictly positive")
        t_row = t_col = t
    else:
        if not (np.count_nonzero(np.isfinite(x)) == x.size and np.isfinite(t).all()):
            raise ValueError("non-finite input to model evaluation")
        if (t <= 0).any():
            raise ValueError("time must be strictly positive")
        if t.shape != x.shape[:-1]:  # one state may be shared by many times
            lead = np.broadcast_shapes(x.shape[:-1], t.shape)
            x, t = np.broadcast_to(x, lead + (d,)), np.broadcast_to(t, lead)
        t_row, t_col = t.reshape(1, -1), t.reshape(-1, 1)
    eps = np.subtract(x, model._centre, out=out, order="C")  # the centred states, spent on ε and returned whole
    xc = eps.reshape(-1, d)                                             # (B, d)

    inv_var = 1.0 / (model._s2 + t_row * t_row)                         # (K, 1) or (K, B)
    bias = model._log_w + (0.5 * d * np.log(inv_var) - model._half_mean_sq * inv_var)
    g = model._means_c @ xc.T                                           # (K, B)
    g -= 0.5 * np.einsum("bd,bd->b", xc, xc)
    # Log-densities of the perturbed components, constants independent of k dropped.
    logp = g * inv_var
    logp += bias
    logp -= np.maximum.reduce(logp)  # log-sum-exp shift over axis 0 (a ufunc reduce skips ndarray.max's wrapper)
    resp = np.exp(logp, out=logp)
    resp /= np.add.reduce(resp)                                         # (K, B)
    weights = resp * inv_var
    subnormal = weights < _TINY  # such weights would slow the product below up to 70x
    resp[subnormal] = weights[subnormal] = 0.0
    sums = weights.T @ model._ones_means                                # (B, 1 + d)
    np.multiply(xc, sums[:, :1], out=xc)
    xc -= sums[:, 1:]
    xc *= t_col
    return ModelEval(eps, None if model.zero_feature else resp.T.reshape(x.shape[:-1] + (len(resp),)))


def exact_trajectory(model: GaussianMixture, x_T, t: float, T: float) -> np.ndarray:
    """Exact flow-ODE solution for a single-Gaussian model.

    For K=1 the noise prediction is linear in x and the ODE integrates to
    x(t) = mu + (x_T - mu) * sqrt((s^2 + t^2) / (s^2 + T^2)).
    """
    if model.n_components != 1:
        raise ValueError("exact solution only available for a single-component model")
    if not 0 < t <= T:
        raise ValueError("need 0 < t <= T")
    mu = model.means[0]
    s = model.stds[0]
    scale = np.sqrt((s * s + t * t) / (s * s + T * T))
    return mu + (np.asarray(x_T, dtype=np.float64) - mu) * scale


def _rk4_step(model: GaussianMixture, x, t0, t1, total, k) -> None:
    """One classical RK4 step of x in place, from t0 to t1 (times, or per-row times); total, k: x-shaped scratch.

    The written-out step's bits: k1 + 2 k2 + 2 k3 + k4 summed left to right, each stage made in its slope's buffer.
    """
    h = t1 - t0
    mid, half, sixth = t0 + 0.5 * h, 0.5 * h, h / 6.0
    if np.ndim(h):  # per-row times span the state's last axis too
        h, half, sixth = h[..., None], half[..., None], sixth[..., None]
    total = eval_model(model, x, t0, out=total).epsilon
    k = eval_model(model, np.add(x, np.multiply(half, total, out=k), out=k), mid, out=k).epsilon
    total += 2.0 * k
    k = eval_model(model, np.add(x, np.multiply(half, k, out=k), out=k), mid, out=k).epsilon
    total += 2.0 * k
    total += eval_model(model, np.add(x, np.multiply(h, k, out=k), out=k), t1, out=k).epsilon
    total *= sixth
    x += total


def _rk4_interval(model: GaussianMixture, substeps: int, x, t_hi: float, t_lo: float, carry=None, eps_cur=None):
    """``substeps`` uniform classical RK4 steps from t_hi to t_lo on a copy of x; returns (x, nfe, None)."""
    grid = np.linspace(t_hi, t_lo, substeps + 1)
    x, total, k = np.array(x, dtype=np.float64, order="C"), np.empty(np.shape(x)), np.empty(np.shape(x))
    for t0, t1 in zip(grid[:-1], grid[1:]):
        _rk4_step(model, x, t0, t1, total, k)
    return x, 4 * substeps, None


def _rk4_pair_interval(model: GaussianMixture, substeps: int, pair, t_hi, t_lo, carry=None, eps_cur=None):
    """RK4 from t_hi to t_lo on pair = [S//2 run, S run] in place, S = ``substeps``; returns (pair, 4 S, None).

    Each S//2 step rides in the model calls of the first of the two S steps it
    spans, each row to its own end time; the S row then takes the second alone.
    """
    fine = np.linspace(t_hi, t_lo, substeps + 1)  # its even nodes are the S//2 grid's, bit for bit
    total, k, rows = np.empty(pair.shape), np.empty(pair.shape), (2,) + (1,) * (pair.ndim - 2)
    for i in range(0, substeps, 2):
        _rk4_step(model, pair, fine[i], fine[[i + 2, i + 1]].reshape(rows), total, k)
        _rk4_step(model, pair[1], fine[i + 1], fine[i + 2], total[1], k[1])
    return pair, 4 * substeps, None


def oracle_solve(model: GaussianMixture, x_T, schedule, substeps: int = ORACLE_SUBSTEPS) -> Trajectory:
    """RK4 on the schedule as given: ``substeps`` uniform steps per interval, at least half of ORACLE_SUBSTEPS.

    Records the state at every schedule node; 4 * substeps model calls per
    interval.  The default is certified on ``certified_grid`` only: on 3
    polynomial nodes it errs by 1.1e-1 (mean endpoint L2 on
    configs/gmm4_d16.json).  ``reference_solve`` joins that grid's nodes first.
    """
    if substeps < ORACLE_SUBSTEPS // 2:
        raise ValueError(f"oracle requires substeps >= {ORACLE_SUBSTEPS // 2} per interval")
    x = np.asarray(x_T, dtype=np.float64)
    return Trajectory.collect(_walk_schedule(partial(_rk4_interval, model, substeps), schedule, x, None, "oracle"))


def reference_solve(model: GaussianMixture, x_T, schedule, substeps: int = ORACLE_SUBSTEPS) -> Trajectory:
    """Reference states at the schedule's nodes, with their Richardson error estimate.

    A single-component model takes ``exact_trajectory`` at every node (nfe 0,
    estimate 0).  Otherwise ``certified_grid`` joined with the schedule's nodes is
    integrated at S//2 and S = ``substeps`` (even) RK4 steps per interval, the two
    runs walked as one stacked pair (``_rk4_pair_interval``): 4 S model calls per
    interval, which nfe counts, and at batch 2 and up the bits of the runs walked
    apart.  It keeps x_T, a copy of the S row at each later schedule node and the
    S//2 endpoint.  ``error_estimate`` is mean |y_S - y_(S//2)| / (2^4 - 1) at the endpoint.
    """
    if substeps < ORACLE_SUBSTEPS:
        raise ValueError(f"reference requires substeps >= {ORACLE_SUBSTEPS} per interval; got {substeps}")
    if substeps % 2:
        raise ValueError(f"reference requires an even substeps, S//2 steps that each span two S steps; got {substeps}")
    if model.n_components == 1:
        times = schedule.times[::-1]
        return Trajectory(times, [exact_trajectory(model, x_T, t, schedule.t_max) for t in times.tolist()], 0, 0.0)
    keep = set(schedule.times.tolist())
    grid = replace(schedule, times=sorted(keep.union(certified_grid(schedule.t_min, schedule.t_max).times.tolist())))
    x = np.asarray(x_T, dtype=np.float64)
    pair = np.stack((x, x))  # [S//2 run, S run], stepped in place
    walk = _walk_schedule(partial(_rk4_pair_interval, model, substeps), grid, pair, None, "oracle")
    ref = Trajectory.collect((t, pair[1].copy() if nfe else x, nfe) for t, _, nfe in walk if t in keep)
    ref.error_estimate = float(np.mean(np.linalg.norm(ref.endpoint - pair[0], axis=-1))) / 15
    return ref


def sample_data(model: GaussianMixture, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n exact samples from the unperturbed mixture."""
    comp = rng.choice(model.n_components, size=n, p=model.weights)
    z = rng.standard_normal((n, model.dim))
    return model.means[comp] + model.stds[comp, None] * z


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _read_json(path, error=ValueError) -> dict:
    """The JSON object stored at path; anything else raises ``error`` naming the path."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        raise error(f"{path}: cannot read ({e.strerror})") from None
    except ValueError as e:  # not JSON, or not UTF-8 text
        raise error(f"{path}: not JSON ({e})") from None
    if not isinstance(doc, dict):
        raise error(f"{path}: not a JSON object")
    return doc


def _write_json(path, doc, indent=None) -> None:
    """Write doc as JSON followed by a newline."""
    with open(path, "w") as f:
        json.dump(doc, f, indent=indent)
        f.write("\n")


def load_model(path) -> GaussianMixture:
    """Load a mixture from a JSON config: {"components": [{weight, mean, std}, ...]}.

    Weights are normalized to sum to one; the dimension is inferred from the
    means.  An optional top-level "zero_feature" flag, true or false, is honored.  A malformed
    file raises ValueError naming the path and, where one is at fault, the
    component index and key.
    """
    cfg = _read_json(path)
    comps = cfg.get("components")
    if not comps:
        raise ValueError(f"{path}: no components")
    means = []
    for i, c in enumerate(comps):
        for key in ("weight", "mean", "std"):
            if not isinstance(c, dict) or key not in c:
                raise ValueError(f"{path}: component {i} has no {key!r}")
        for key in ("weight", "std"):
            if not _is_number(c[key]):
                raise ValueError(f"{path}: component {i}: {key!r} must be a number, got {c[key]!r}")
        mean = c["mean"]
        if not (isinstance(mean, list) and mean and all(_is_number(v) for v in mean)):
            raise ValueError(f"{path}: component {i}: 'mean' must be a non-empty flat list of numbers")
        mean = np.array(mean, dtype=np.float64)
        if means and mean.size != means[0].size:
            raise ValueError(
                f"{path}: component {i}: 'mean' has length {mean.size}, component 0's has {means[0].size}"
            )
        means.append(mean)
    w = np.array([c["weight"] for c in comps], dtype=np.float64)
    if np.any(w <= 0):
        raise ValueError(f"{path}: weights must be positive")
    w = w / w.sum()
    stds = np.array([c["std"] for c in comps], dtype=np.float64)
    try:
        return GaussianMixture(weights=w, means=np.array(means), stds=stds, zero_feature=cfg.get("zero_feature", False))
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e

