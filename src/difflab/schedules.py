"""Sampling time grids and the teacher refinement used for distillation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SCHEDULE_KINDS = ("polynomial", "logsnr", "uniform")


@dataclass(frozen=True)
class TimeSchedule:
    """Strictly increasing grid t_1 = eps < ... < t_N = T with a kind tag (and rho, if polynomial)."""

    times: np.ndarray
    kind: str
    rho: float | None = None

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64)
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.kind == "polynomial" and not (self.rho is not None and self.rho > 0):
            raise ValueError(f"a polynomial schedule needs a positive rho; got {self.rho!r}")
        if t.ndim != 1 or t.size < 2:
            raise ValueError("schedule needs at least two nodes")
        if t[0] <= 0:
            raise ValueError("schedule floor must be positive")
        if not np.all(np.diff(t) > 0):
            raise ValueError("schedule must be strictly increasing")
        t = t.copy()
        t.flags.writeable = False
        object.__setattr__(self, "times", t)

    @property
    def n(self) -> int:
        return self.times.size

    @property
    def t_min(self) -> float:
        return float(self.times[0])

    @property
    def t_max(self) -> float:
        return float(self.times[-1])


def make_schedule(kind: str, n: int, t_min: float, t_max: float, rho: float | None = 7.0) -> TimeSchedule:
    """Build an N-node grid on [t_min, t_max].

    polynomial -- interpolate t^(1/rho) affinely and raise back (the grid that
                  concentrates nodes near the floor for rho > 1).
    logsnr     -- affine in log t, the rho -> infinity limit of polynomial.
    uniform    -- affine in t.
    """
    if n < 2:
        raise ValueError("need at least two nodes")
    if not 0 < t_min < t_max < np.inf:
        raise ValueError("need 0 < t_min < t_max < inf")
    u = np.arange(n, dtype=np.float64) / (n - 1)
    if kind == "polynomial":
        if rho is None or rho <= 0:
            raise ValueError(f"a polynomial schedule needs a positive rho; got {rho!r}")
        lo, hi = t_min ** (1.0 / rho), t_max ** (1.0 / rho)
        times = (lo + u * (hi - lo)) ** rho
    elif kind == "logsnr":
        times = np.exp(np.log(t_min) + u * (np.log(t_max) - np.log(t_min)))
        rho = None
    elif kind == "uniform":
        times = t_min + u * (t_max - t_min)
        rho = None
    else:
        raise ValueError(f"unknown schedule kind {kind!r}")
    # Endpoints exactly as requested (the transform round-trip is only
    # accurate to rounding).
    times[0] = t_min
    times[-1] = t_max
    return TimeSchedule(times=times, kind=kind, rho=rho)


def refine_teacher(schedule: TimeSchedule, m: int) -> TimeSchedule:
    """Insert m intermediate nodes per interval, following the schedule's own rule.

    The result has (m+1)*(N-1)+1 nodes and is rebuilt from the same closed
    form over the same endpoints, so every original node reappears bitwise:
    both grids place node j at parameter j/(nodes-1) and the two parameter
    fractions are equal real numbers, hence equal doubles.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    n_fine = (m + 1) * (schedule.n - 1) + 1
    return make_schedule(schedule.kind, n_fine, schedule.t_min, schedule.t_max, rho=schedule.rho)


def _geom(t_lo, t_hi, r):
    # Shared expression for the interval split point.  The exponent is
    # normalized to an array so every caller takes the same pow code path
    # (numpy's scalar and array pow can differ in the last ulp).
    r = np.asarray(r, dtype=np.float64)
    return t_lo**r * t_hi ** (1.0 - r)
