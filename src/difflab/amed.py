"""Learned mean-direction stepping: tiny predictor, solver, plugin, training.

The predictor is a small MLP mapping (feature vector, t_hi, t_lo) to a
per-step interval split r, a direction scale c and optionally a time scale a.
With all-zero final-layer weights the outputs sit exactly at (0.5, 1, 1), so
an untrained predictor reproduces the default two-evaluation solver geometry;
training starts from that baseline and is not guaranteed to beat it.

Training distills against a teacher run on a refined schedule: per interval
the student step is taken, the batch-mean L2 gap to the teacher state is the
loss, and the parameter gradient is exact MLP backpropagation from central
finite-difference sensitivities of the loss with respect to the two or three
output logits.  No autodiff framework is involved.  The step and its probes
run together as one step over a probe grid (see ``step_loss_grad``), so an
update costs 1 + one student step's model calls.  The teacher walks once per
three loops on their stacked batches, bitwise as one walk per loop, and its
first evaluation serves each loop's interval 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from itertools import accumulate, islice

import numpy as np

from .rng import _is_int, stream
from .schedules import TimeSchedule, refine_teacher
from .score_models import FEATURE_DIM, GaussianMixture, ModelEval, _is_number, _lock, _read_json, _write_json, eval_model
from .solvers import SolverKind, _check_interval, _run, split_step, substep
from .trajectory import DivergenceError, Trajectory, _walk_schedule

CHECKPOINT_VERSION = 1

_SIGMOID_CLIP = 1e-9


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def time_embedding(t_hi, t_lo, emb_dim: int) -> np.ndarray:
    """Sinusoidal embedding of (log t_hi, log t_lo), emb_dim components total."""
    if emb_dim % 4 != 0 or emb_dim < 4:
        raise ValueError("emb_dim must be a positive multiple of 4")
    m = emb_dim // 4
    freqs = 0.5 * 2.0 ** np.arange(m)
    parts = []
    for t in (t_hi, t_lo):
        ang = np.log(np.asarray(t, dtype=np.float64))[..., None] * freqs
        parts += [np.sin(ang), np.cos(ang)]
    return np.concatenate(parts, axis=-1)


_PARAM_FIELDS = ("w1", "b1", "w2", "b2", "w3", "b3")


def _views(theta: np.ndarray, params) -> dict:
    """theta cut, in _PARAM_FIELDS order, into views shaped like params' six weight arrays."""
    shapes = [getattr(params, k).shape for k in _PARAM_FIELDS]
    ends = accumulate(math.prod(s) for s in shapes)
    return {k: theta[e - math.prod(s) : e].reshape(s) for k, s, e in zip(_PARAM_FIELDS, shapes, ends)}


@dataclass(frozen=True)
class PredictorParams:
    """Weights of the step predictor.

    Feature path: two tanh layers (w1/b1 then w2/b2).  The hidden state is
    concatenated with the time embedding and mapped by w3/b3 to 2 or 3 logits,
    squashed to r in (0,1), c in (0,2) and, when present, a in (0.5,1.5).
    The embedding width is read off the weights (w3 has hidden + emb_dim
    rows); the ``emb_dim`` key that older checkpoints carry is ignored.
    The six arrays are read-only views, in field order, into one flat locked
    copy ``theta`` of the weights, which ``AdamState`` updates whole.
    """

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray

    def __post_init__(self):
        if self.w1.shape[0] != FEATURE_DIM:
            raise ValueError(f"w1 has {self.w1.shape[0]} rows, the feature is {FEATURE_DIM} wide")
        h = self.w1.shape[1]
        if self.b1.shape != (h,) or self.w2.shape != (h, h) or self.b2.shape != (h,):
            raise ValueError("inconsistent feature-path shapes")
        if self.emb_dim < 4 or self.emb_dim % 4 != 0:
            raise ValueError(f"emb_dim must be a positive multiple of 4, got {self.emb_dim}")
        if self.b3.shape != (self.w3.shape[1],):
            raise ValueError("inconsistent output-layer shapes")
        if self.outputs not in (2, 3):
            raise ValueError("predictor must emit 2 or 3 outputs")
        self._adopt(np.concatenate([np.ravel(getattr(self, k)) for k in _PARAM_FIELDS], dtype=np.float64), self)
        if self.theta.size > 20_000:
            raise ValueError(f"predictor has {self.theta.size} parameters, budget is 20k")

    def _adopt(self, theta: np.ndarray, shaped_like: PredictorParams) -> PredictorParams:
        """Lock flat float64 theta (no copy), check it for finiteness and cut it into views shaped as shaped_like's."""
        if not np.isfinite(_lock(theta)).all():
            raise ValueError("predictor weights must be finite")
        object.__setattr__(self, "theta", theta)  # a plain attribute like GaussianMixture's constants, not a field
        for k, a in _views(theta, shaped_like).items():
            object.__setattr__(self, k, a)
        return self

    @property
    def hidden(self) -> int:
        return self.w1.shape[1]

    @property
    def emb_dim(self) -> int:
        return self.w3.shape[0] - self.hidden

    @property
    def outputs(self) -> int:
        return self.w3.shape[1]

    @property
    def n_params(self) -> int:
        return self.theta.size

    @classmethod
    def zeros(cls, hidden=64, emb_dim=16, outputs=2):
        shapes = [(FEATURE_DIM, hidden), hidden, (hidden, hidden), hidden, (hidden + emb_dim, outputs), outputs]
        return cls(*map(np.zeros, shapes))  # in _PARAM_FIELDS order

    @classmethod
    def init(cls, rng: np.random.Generator, hidden=64, emb_dim=16, outputs=2):
        """Random feature path, zero output layer: outputs start exactly neutral."""
        return replace(
            cls.zeros(hidden, emb_dim, outputs),
            w1=rng.standard_normal((FEATURE_DIM, hidden)) / math.sqrt(FEATURE_DIM),
            w2=rng.standard_normal((hidden, hidden)) / math.sqrt(hidden),
        )


@dataclass(frozen=True)
class PredictorOutput:
    """Squashed predictor outputs; a is None when time scaling is disabled."""

    r: np.ndarray
    c: np.ndarray
    a: np.ndarray | None = None


def _squash(o) -> PredictorOutput:
    """Logits (..., 2 or 3) to r in (0,1), c in (0,2) and, with a third logit, a in (0.5,1.5)."""
    s = _sigmoid(o)
    rc = np.minimum(np.maximum(s[..., :2], _SIGMOID_CLIP), 1.0 - _SIGMOID_CLIP)  # np.clip's bits, less overhead
    return PredictorOutput(r=rc[..., 0], c=2.0 * rc[..., 1], a=0.5 + s[..., 2] if o.shape[-1] == 3 else None)


def predict_with_cache(params: PredictorParams, h, t_hi, t_lo):
    h = np.asarray(h, dtype=np.float64)
    if h.shape[-1] != FEATURE_DIM:
        raise ValueError(f"feature has width {h.shape[-1]}, predictor expects {FEATURE_DIM}")
    z1 = np.tanh(h @ params.w1 + params.b1)
    u = np.empty(z1.shape[:-1] + params.w3.shape[:1])  # [z2 | time embedding]
    z2 = np.tanh(z1 @ params.w2 + params.b2, out=u[..., : params.hidden])
    u[..., params.hidden :] = time_embedding(t_hi, t_lo, params.emb_dim)
    o = u @ params.w3 + params.b3
    if not np.isfinite(o).all():
        raise FloatingPointError("non-finite predictor activations")
    return _squash(o), {"h": h, "z1": z1, "z2": z2, "u": u, "o": o}


def predictor_vjp(params: PredictorParams, cache, g_o) -> dict:
    """Exact parameter gradients from per-sample logit sensitivities g_o (..., outputs).

    Plain 2-D backprop: every leading axis of g_o and the cache is one row.
    The time embedding has no parameters, so g_o is carried back through the
    hidden rows of w3 only.
    """
    go, h, z1, z2, u = (
        np.reshape(a, (-1, np.shape(a)[-1])) for a in (g_o, cache["h"], cache["z1"], cache["z2"], cache["u"])
    )
    g_p2 = (go @ params.w3[: params.hidden].T) * (1.0 - z2**2)
    g_p1 = (g_p2 @ params.w2.T) * (1.0 - z1**2)
    return {"w1": h.T @ g_p1, "b1": g_p1.sum(axis=0), "w2": z1.T @ g_p2, "b2": g_p2.sum(axis=0),
            "w3": u.T @ go, "b3": go.sum(axis=0)}


_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


class AdamState:
    """Flat Adam moments, like ``PredictorParams.theta``, updated in place with the textbook formulas' bits."""

    def __init__(self, params: PredictorParams):
        self.t = 0
        self.m = np.zeros_like(params.theta)
        self.v = np.zeros_like(params.theta)

    def update(self, params: PredictorParams, grads: dict, lr: float) -> PredictorParams:
        self.t += 1
        g = np.concatenate([np.ravel(grads[k]) for k in _PARAM_FIELDS], dtype=np.float64)
        self.m *= _ADAM_BETA1
        self.m += (1.0 - _ADAM_BETA1) * g
        self.v *= _ADAM_BETA2
        self.v += (1.0 - _ADAM_BETA2) * g * g
        den = np.sqrt(np.divide(self.v, 1.0 - _ADAM_BETA2**self.t, out=g), out=g)  # g is spent
        den += _ADAM_EPS
        step = self.m / (1.0 - _ADAM_BETA1**self.t)
        step *= lr
        step /= den
        return object.__new__(PredictorParams)._adopt(np.subtract(params.theta, step, out=step), params)


def _predict_for_step(model, params, x, t_hi, t_lo, eps_cur):
    """Current slope, its model calls, and the predictor outputs for one interval.

    eps_cur may be the ``ModelEval`` of ``eval_model(model, x, t_hi)`` made
    by the caller: it is used whole at no call, responsibilities included.
    An injected slope array (the analytic first step) costs no call and
    carries no state information: its ModelEval's feature is all zeros.
    """
    if eps_cur is None:
        ev, nfe = eval_model(model, x, t_hi), 1
    elif isinstance(eps_cur, ModelEval):
        ev, nfe = eps_cur, 0
    else:
        ev, nfe = ModelEval(np.asarray(eps_cur, dtype=np.float64)), 0
    out, cache = predict_with_cache(params, ev.feature, t_hi, t_lo)
    return ev.epsilon, nfe, out, cache


def amed_step(model, params, x, t_hi, t_lo, carry=None, *, base=None, eps_cur=None):
    """One learned update with the predicted (r, c[, a]); returns (x_next, nfe, carry).

    base=None is the learned single-step solver (two evaluations); with a
    base solver it is the plugin, and carry threads the base's history.
    """
    _check_interval(t_hi, t_lo)  # squashing keeps r, c and a in range (PredictorParams)
    eps1, nfe, out, _ = _predict_for_step(model, params, x, t_hi, t_lo, eps_cur)
    x_next, n, carry = split_step(
        model, x, t_hi, t_lo, out.r, base=base, c=out.c, a=out.a, carry=carry, eps_cur=eps1
    )
    return x_next, nfe + n, carry


def amed_sample(model, params, schedule, x_T, base: SolverKind | None = None, afs: bool = False) -> Trajectory:
    """Run the learned solver (base=None) or the learned plugin over a schedule; afs as in ``sample``."""
    return Trajectory.collect(_run(model, partial(amed_step, model, params, base=base), schedule, x_T, afs, "amed"))


# ---------------------------------------------------------------------------
# Training


@dataclass(frozen=True)
class TrainConfig:
    """Distillation recipe for the step predictor.

    teacher runs on the schedule refined with m extra nodes per interval;
    student is a base solver to wrap, or None for the learned single-step
    solver.  images is the total number of start states consumed
    (ceil(images/batch) loops).  The distance is L2.

    Updates use Adam with one moment state per interval: the per-interval
    losses live on scales that differ by orders of magnitude (states near
    the top of the schedule are ~t_max times larger than near the floor),
    and a shared scalar step size provably cannot serve all intervals at
    once, while shared second moments let the large-scale intervals starve
    the small ones.
    """

    teacher: SolverKind
    student: SolverKind | None = None
    m: int = 2
    batch: int = 128
    images: int = 10_000
    lr: float = 3e-3
    seed: int = 0
    learn_time_scale: bool = False

    def __post_init__(self):
        for name in ("m", "batch", "images", "seed"):
            if not _is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if not (_is_number(self.lr) and 0 <= self.lr < math.inf):
            raise ValueError(f"lr must be finite and non-negative, got {self.lr!r}")
        if self.batch < 1 or self.images < 1:
            raise ValueError("batch and images must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed!r}")
        if not isinstance(self.learn_time_scale, bool):
            raise ValueError(f"learn_time_scale must be a bool, got {self.learn_time_scale!r}")


@dataclass
class TrainResult:
    params: PredictorParams
    losses: np.ndarray  # (loops, N-1), batch-mean L2 per interval, in update order


_FD_H = 1e-3
_TEACHER_GROUP = 3  # loops per teacher walk: 3 x batch rows, as many as a two-output probe grid evaluates
# Logit shifts over the probe grid (c row, (r, a) column, logit); see step_loss_grad.
_PROBE_SHIFTS = np.zeros((3, 5, 3))
_PROBE_SHIFTS[1:, 0, 1] = _PROBE_SHIFTS[0, 1:3, 0] = _PROBE_SHIFTS[0, 3:, 2] = (_FD_H, -_FD_H)


def step_loss(model, params, student, x, t_hi, t_lo, y, carry=None, eps_cur=None) -> float:
    """Batch-mean L2 gap to the teacher state after one ``amed_step``."""
    x_next, _, _ = amed_step(model, params, x, t_hi, t_lo, carry, base=student, eps_cur=eps_cur)
    return float(np.mean(np.linalg.norm(x_next - y, axis=-1)))


def _map_carry(f, carry):
    """Apply f to every array entry of a carry; scalar entries (a time) pass through."""
    if carry is None:
        return None
    return tuple(f(e) if np.ndim(e) else e for e in carry)


def step_loss_grad(model, params, student, x, t_hi, t_lo, y, carry=None, eps_cur=None):
    """Loss, assembled parameter gradient, and the student's own continuation.

    Returns ``(loss, grads, x_next, carry_next)``.  The gradient is exact
    predictor backprop from central finite differences of the loss with
    respect to the logits o (probes o +- h, h = 1e-3).  A clipped r or c
    thus gets its true sensitivity, 0.

    The student step and all its probes run as one ``split_step`` over a
    probe grid of shifted logits: axis 0 holds c's logit shifted by 0, +h,
    -h; axis 1 holds r's by 0, +h, -h and, with a time scale, a's by +h,
    -h.  x, the slope and the carry get two leading length-1 axes, so cell
    [0, 0] is the step itself.  c only scales the final direction term, so
    its probes cost no model call, and the evaluated probes share each of
    the step's calls: an update costs 1 + one student step's model calls (2
    for the learned solver and for euler, ipndm and dpmpp_2m, 4 for the heun
    and dpm2 plugins), with two or three outputs alike.
    """
    _check_interval(t_hi, t_lo)
    eps1, _, _, cache = _predict_for_step(model, params, x, t_hi, t_lo, eps_cur)
    o, k = cache["o"], params.outputs
    shifts = _PROBE_SHIFTS[:, : 2 * k - 1, :k]
    probe = _squash(o + shifts.reshape(shifts.shape[:2] + (1,) * (o.ndim - 1) + (k,)))

    def lift(e):
        return np.asarray(e, dtype=np.float64)[None, None]

    grid, _, carry_grid = split_step(
        model, lift(x), t_hi, t_lo, probe.r[:1], base=student, c=probe.c[:, :1],
        a=None if probe.a is None else probe.a[:1], carry=_map_carry(lift, carry), eps_cur=lift(eps1),
    )
    # Norms (np.linalg.norm's bits, without its wrapper) only for the cells read: row 0 and column 0.
    row, col = (np.sqrt(np.add.reduce(d * d, axis=-1)) for d in (grid[0] - y, grid[1:, 0] - y))
    x_next = grid[0, 0].copy()
    carry_next = _map_carry(lambda e: e[0, 0].copy(), carry_grid)
    del grid, carry_grid
    loss = float(np.mean(row[0]))
    n_samples = max(1, row[0].size)
    g_o = np.stack([row[1] - row[2], col[0] - col[1], *([row[3] - row[4]] if k == 3 else [])], axis=-1)
    return loss, predictor_vjp(params, cache, g_o / (2 * _FD_H * n_samples)), x_next, carry_next


@np.errstate(all="ignore")  # the teacher's walk, the logits, the loss and the weights are checked, naming the interval
def train(model: GaussianMixture, cfg: TrainConfig, schedule: TimeSchedule) -> TrainResult:
    """Distill the predictor against a refined-schedule teacher.

    Per loop: draw a batch of start states, then walk the intervals top-down
    taking the student step, updating the parameters after every interval
    (N-1 updates per loop), and continuing from the student's own states.
    Once per three loops their stacked start states are evaluated once; the
    teacher walks the refined grid from that evaluation, keeping only the
    coarse nodes, and loop j reads row j of them and hands row j of the
    evaluation, whole, to its interval 0: the bits of one teacher walk and
    one first call per loop.  Bit-reproducible per seed.
    """
    params = PredictorParams.init(stream(cfg.seed, "init"), outputs=3 if cfg.learn_time_scale else 2)
    fine = refine_teacher(schedule, cfg.m)
    ts = schedule.times[::-1]
    n = schedule.n
    loops = math.ceil(cfg.images / cfg.batch)
    losses = np.zeros((loops, n - 1))
    opt = [AdamState(params) for _ in range(n - 1)]
    for loop in range(loops):
        if (j := loop % _TEACHER_GROUP) == 0:  # one teacher walk on this loop's and the next two's stacked batches
            xs = np.stack([stream(cfg.seed, "batch", i).standard_normal((cfg.batch, model.dim))
                           for i in range(loop, min(loop + _TEACHER_GROUP, loops))]) * schedule.t_max
            ev0 = eval_model(model, xs, float(ts[0]))  # the walk checks its slope in the teacher's first interval
            walk = _walk_schedule(partial(substep, model, cfg.teacher), fine, xs, ev0.epsilon, cfg.teacher.tag)
            ys = [y for _, y, _ in islice(walk, cfg.m + 1, None, cfg.m + 1)]  # the coarse nodes
        x, carry = xs[j], None
        for k in range(n - 1):
            t_hi, t_lo = float(ts[k]), float(ts[k + 1])
            try:
                loss, grads, x, carry = step_loss_grad(
                    model, params, cfg.student, x, t_hi, t_lo, ys[k][j], carry, ev0[j] if k == 0 else None
                )
            except FloatingPointError:  # finite weights whose logits overflow (predict_with_cache)
                raise DivergenceError(f"lr {cfg.lr!r} overflowed the logits at loop {loop}, interval {k}") from None
            if not np.isfinite(loss):
                raise DivergenceError(f"training loss diverged at loop {loop}, interval {k}")
            losses[loop, k] = loss
            try:
                params = opt[k].update(params, grads, cfg.lr)
            except ValueError:  # the Adam step made the weights non-finite
                raise DivergenceError(f"lr {cfg.lr!r} overflowed the weights at loop {loop}, interval {k}") from None
    return TrainResult(params=params, losses=losses)


# ---------------------------------------------------------------------------
# Checkpoints


def save_predictor(params: PredictorParams, path) -> None:
    """Versioned JSON checkpoint: shapes plus row-major weight data, full doubles."""
    doc = {"version": CHECKPOINT_VERSION, "arrays": {}}
    for name in _PARAM_FIELDS:
        a = getattr(params, name)
        doc["arrays"][name] = {"shape": list(a.shape), "data": a.ravel(order="C").tolist()}
    _write_json(path, doc)


def load_predictor(path) -> PredictorParams:
    """Read a save_predictor checkpoint; malformed content raises ValueError naming path and key."""
    doc = _read_json(path)
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {doc.get('version')!r}")
    specs = doc.get("arrays")
    if not isinstance(specs, dict):
        raise ValueError(f"{path}: key 'arrays' must map array names to specs")
    missing = [k for k in _PARAM_FIELDS if k not in specs]
    extra = sorted(set(specs) - set(_PARAM_FIELDS))
    if missing or extra:
        raise ValueError(f"{path}: arrays missing {missing}, unexpected {extra}")
    arrays = {}
    for name in _PARAM_FIELDS:
        spec = specs[name]
        if not isinstance(spec, dict) or "shape" not in spec or "data" not in spec:
            raise ValueError(f"{path}: arrays.{name} needs 'shape' and 'data'")
        try:
            arrays[name] = np.array(spec["data"], dtype=np.float64).reshape(spec["shape"])
        except (TypeError, ValueError) as e:
            raise ValueError(f"{path}: arrays.{name}: {e}") from None
    try:
        return PredictorParams(**arrays)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
