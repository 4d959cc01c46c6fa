"""Baseline ODE solvers under a single stepping interface.

Every solver advances the flow ODE dx/dt = eps(x, t) from a higher time t_hi
to a lower time t_lo.  The five solver tags share three step rules: euler_ddim
is the order-1 Adams-Bashforth step of ``step_ipndm`` and heun_edm the
``step_dpm2`` split at r = 1.  Every step returns ``(x_next, nfe, carry)``: nfe
counts the model calls it made, carry is the history the next step consumes
(None for single-step solvers and order-1 ipndm, the newest-first past slopes
up to order - 1 for ipndm, (t_hi, denoised) for dpmpp_2m).  Two hooks exist
for composition: ``eps_cur`` injects a precomputed (or analytically
substituted) slope at the current state at no model call, and ``scale``
multiplies the step's direction term, which is how a learned per-step
rescaling wraps a base solver.  Times may be scalars or per-sample arrays
broadcast against a batched state.  A step writes only arrays it allocated:
``eps_cur`` and carry entries are read-only.  ``_run`` hands ``substep`` to the generator
``trajectory._walk_schedule``; ``sample`` collects every node, ``run_experiment`` the newest.

``split_step`` is the one interval-split primitive; each solver that splits
an interval is one choice of its parameters (r, w, c, a, base), the rest
left at their defaults (w = c = 1, a and base None):

    step_dpm2            r (heun_edm: 1),   w = 1/(2r), c = scale
    amed_step            learned r, c[, a]; base = the wrapped solver, if any
    geometry.grid_align  searched r,        base = any solver but dpm2
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .schedules import _geom
from .score_models import GaussianMixture, eval_model
from .trajectory import Trajectory, _walk_schedule

SOLVER_TAGS = ("euler_ddim", "heun_edm", "dpm2", "ipndm", "dpmpp_2m")

# Classical uniform-grid Adams-Bashforth weights by order.
_AB_COEFFS = {
    1: (1.0,),
    2: (3.0 / 2.0, -1.0 / 2.0),
    3: (23.0 / 12.0, -16.0 / 12.0, 5.0 / 12.0),
    4: (55.0 / 24.0, -59.0 / 24.0, 37.0 / 24.0, -9.0 / 24.0),
}


@dataclass(frozen=True)
class SolverKind:
    """Solver selector: tag plus per-family options.

    r      -- intermediate-point exponent for dpm2 (r=0.5 is the default
              geometry, r=1 degenerates to the Heun step).
    order  -- maximum history order for ipndm.
    """

    tag: str
    r: float = 0.5
    order: int = 4

    def __post_init__(self):
        if self.tag not in SOLVER_TAGS:
            raise ValueError(f"unknown solver tag {self.tag!r}")
        if not 0 < self.r <= 1:
            raise ValueError("r must lie in (0, 1]")
        if self.order not in (1, 2, 3, 4):
            raise ValueError("order must be in 1..4")

    @property
    def evals_per_interval(self) -> int:
        return 2 if self.tag in ("heun_edm", "dpm2") else 1

    def label(self) -> str:
        """The spec ``parse_solver_spec`` reads back: the tag, ``dpm2:<repr(r)>`` or ``ipndm:<order>``."""
        if self.tag == "dpm2" and self.r != 0.5:
            return f"dpm2:{float(self.r)!r}"
        if self.tag == "ipndm" and self.order != 4:
            return f"ipndm:{self.order}"
        return self.tag


def _col(u, x) -> np.ndarray:
    """Broadcast a scalar-or-batched time quantity against state columns."""
    u = np.asarray(u, dtype=np.float64)
    return u[..., None] if u.ndim else u


def _times(u, a) -> np.ndarray:
    """u * a, written into a (the step's own array) when the ``_col`` factor u is a scalar: a per-sample u may widen a."""
    return np.multiply(u, a, out=a if u.ndim == 0 else None)


def _check_interval(t_hi, t_lo) -> None:
    if not np.asarray((0 < t_lo) & (t_lo < t_hi) & (t_hi < np.inf)).all():  # the array's .all(): np.all's wrapper costs µs
        raise ValueError("need 0 < t_lo < t_hi < inf")


def afs_direction(x, t) -> np.ndarray:
    """Analytic stand-in for the first slope: eps(x, t) ~ x / t at large t."""
    if np.any(np.asarray(t) <= 0):
        raise ValueError("time must be strictly positive")
    return np.asarray(x, dtype=np.float64) / _col(t, x)


def _current(model, x, t_hi, eps_cur):
    """Slope at the current state and its model calls: 0 if injected, else 1."""
    if eps_cur is not None:
        return np.asarray(eps_cur, dtype=np.float64), 0
    return eval_model(model, x, t_hi).epsilon, 1


def split_step(model, x, t_hi, t_lo, r, *, base=None, w=1.0, c=1.0, a=None, carry=None, eps_cur=None):
    """Split the interval at s = t_lo^r * t_hi^(1-r), evaluate there, finish scaled.

    With no base: Euler to s, evaluate at (x_s, a*s) and return
    x + (t_lo - t_hi) * c * (w * eps_s + (1 - w) * eps_cur).  With a base
    solver: the base's substep to s on the current slope, evaluate, then the
    base's substep from s to t_lo on the new slope, scaled by c; carry threads
    the base's history.  a=None evaluates at s itself.  Returns
    ``(x_next, nfe, carry)``.  The caller validates the interval and r.
    """
    eps1, nfe = _current(model, x, t_hi, eps_cur)
    s = _geom(t_lo, t_hi, r)
    t_eval = s if a is None else a * s
    if base is None:
        x_s = _col(s - t_hi, x) * eps1
        x_s += x
        mix = _times(_col(w, x), eval_model(model, x_s, t_eval).epsilon)  # the fresh eps2, which t_lo - t_hi never widens
        mix += _col(1.0 - w, x) * eps1
        x_next = _times(_col(c, x), mix)
        x_next *= _col(t_lo - t_hi, x)
        x_next += x
        return x_next, nfe + 1, None
    x_s, n1, carry = substep(model, base, x, t_hi, s, carry, eps_cur=eps1)
    eps2 = eval_model(model, x_s, t_eval).epsilon
    x_next, n2, carry = substep(model, base, x_s, s, t_lo, carry, eps_cur=eps2, scale=c)
    return x_next, nfe + n1 + 1 + n2, carry


def step_dpm2(model, x, t_hi, t_lo, r=0.5, *, eps_cur=None, scale=1.0):
    """Two-evaluation step with a movable intermediate point.

    Euler to s = t_lo^r * t_hi^(1-r), evaluate there, and take the full step
    with slope weights (1/(2r), 1 - 1/(2r)).  r=0.5 uses only the midpoint
    slope; r=1 is the Heun trapezoid, the step heun_edm runs.
    """
    _check_interval(t_hi, t_lo)
    if not np.asarray((0 < r) & (r <= 1)).all():
        raise ValueError("r must lie in (0, 1]")
    return split_step(model, x, t_hi, t_lo, r, w=1.0 / (2.0 * r), c=scale, eps_cur=eps_cur)


def step_ipndm(model, x, t_hi, t_lo, history=(), *, eps_cur=None, scale=1.0, max_order=4):
    """Adams-Bashforth step on the slope, order set by the available history.

    history holds the most recent past slopes, newest first (at most three).
    With no history this is the Euler step.  Returns the new slope prepended (None at max_order 1).
    """
    _check_interval(t_hi, t_lo)
    history = tuple(history)
    if len(history) > 3:
        raise ValueError("ipndm history holds at most 3 past slopes")
    eps, nfe = _current(model, x, t_hi, eps_cur)
    coeffs = _AB_COEFFS[min(len(history) + 1, max_order)]
    combo = coeffs[0] * eps
    for c, past in zip(coeffs[1:], history):
        combo += c * past
    combo = _times(_col(scale, x), combo)  # rebound: a widening scale frees the sum before the next product
    x_next = _times(_col(t_lo - t_hi, x), combo)
    return np.add(x_next, x, out=x_next), nfe, ((eps,) + history)[: max_order - 1] or None


def step_dpmpp_2m(model, x, t_hi, t_lo, prev=None, *, eps_cur=None, scale=1.0):
    """Second-order multistep exponential-integrator step on the data prediction.

    Works in lambda = -log t.  With h = lambda(t_lo) - lambda(t_hi) and
    r0 = (lambda(t_hi) - lambda(t_prev)) / h the update is

        x_next = (t_lo/t_hi) x - (e^-h - 1) [(1 + 1/(2 r0)) D - 1/(2 r0) D_prev]

    falling back to the first-order form (exact for D constant in t) when no
    previous data prediction is available.  Returns (t_hi, D) as carry.
    """
    _check_interval(t_hi, t_lo)
    eps, nfe = _current(model, x, t_hi, eps_cur)
    own = eps if nfe else None  # an evaluated slope is spent on D: eval_model's fresh eps already spans x and t_hi
    denoised = np.subtract(x, np.multiply(_col(t_hi, x), eps, out=own), out=own)
    h = np.log(t_hi) - np.log(t_lo)
    if prev is None:
        d_combo = _col(scale, x) * denoised
    else:
        t_prev, denoised_prev = prev
        if not np.all(t_prev > t_hi):
            raise ValueError("previous step must come from a higher time")
        r0 = (np.log(t_prev) - np.log(t_hi)) / h
        w = _col(1.0 / (2.0 * r0), x)
        d_combo = (1.0 + w) * denoised
        d_combo -= w * denoised_prev
        d_combo = _times(_col(scale, x), d_combo)
    d_combo = _times(_col(np.expm1(-h), x), d_combo)  # now as wide as the time columns and x together
    x_next = np.subtract(_col(t_lo, x) / _col(t_hi, x) * x, d_combo, out=d_combo)
    return x_next, nfe, (t_hi, denoised)


def substep(model, kind: SolverKind, x, t_hi, t_lo, carry=None, *, eps_cur=None, scale=1.0):
    """Apply one update of ``kind``; carry is the history its previous step returned."""
    tag = kind.tag
    if tag in ("heun_edm", "dpm2"):
        r = 1.0 if tag == "heun_edm" else kind.r
        return step_dpm2(model, x, t_hi, t_lo, r, eps_cur=eps_cur, scale=scale)
    if tag in ("euler_ddim", "ipndm"):
        order = 1 if tag == "euler_ddim" else kind.order
        return step_ipndm(model, x, t_hi, t_lo, carry or (), eps_cur=eps_cur, scale=scale, max_order=order)
    return step_dpmpp_2m(model, x, t_hi, t_lo, carry, eps_cur=eps_cur, scale=scale)


def sample(model: GaussianMixture, kind: SolverKind, schedule, x_T, afs: bool = False) -> Trajectory:
    """Run ``kind`` from the top of the schedule down to its floor.

    afs replaces the run's first model call by the analytic direction
    (x - m)/t, m the mixture mean: eps's large-t limit.
    Deterministic given x_T (which may be batched); see ``_walk_schedule``.
    """
    return Trajectory.collect(_run(model, partial(substep, model, kind), schedule, x_T, afs, kind.tag))


def _run(model: GaussianMixture, step, schedule, x_T, afs: bool, name: str):
    """Check the state's width and take the analytic first slope if afs, now; return the schedule walk."""
    x = np.asarray(x_T, dtype=np.float64)
    if x.shape[-1] != model.dim:
        raise ValueError(f"state has dim {x.shape[-1]}, model has dim {model.dim}")
    eps0 = afs_direction(x - model.mean, schedule.t_max) if afs else None
    return _walk_schedule(step, schedule, x, eps0, name)


def parse_solver_spec(spec: str) -> SolverKind:
    """Parse 'tag' or 'tag:param' (r for dpm2, order for ipndm)."""
    tag, _, arg = spec.partition(":")
    tag = tag.strip()
    kw = {}
    if arg:
        if tag == "dpm2":
            kw["r"] = float(arg)
        elif tag == "ipndm":
            kw["order"] = int(arg)
        else:
            raise ValueError(f"solver {tag!r} takes no parameter")
    return SolverKind(tag=tag, **kw)
