"""Trajectories, the one schedule walk, and the one CSV writer.

``_walk_schedule`` is a generator that yields every node and keeps none: ``sample``, ``amed_sample`` and
``oracle_solve`` collect them (``Trajectory.collect``), ``grid_align``'s two walks their rows' reference distances;
``reference_solve`` walks its S//2 and S runs as one two-row state stepped in place and keeps copies of
the S row at its schedule's nodes, ``run_experiment`` each lockstep group's newest states and
``amed.train``'s teacher only the coarse nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class DivergenceError(RuntimeError):
    """Numerical integration or sampling produced a non-finite state."""


@dataclass(slots=True)
class Trajectory:
    """States recorded at every schedule node, in descending time order.

    times   -- the node times, one read-only float64 array.
    xs      -- the node states, node first: the walk's own arrays, or one array's rows
               (``states`` stacks them afresh); x may carry a leading batch dimension.
    nfe     -- model evaluations per trajectory; an analytically substituted first one counts as zero,
               and ``reference_solve``'s counts the calls its two runs made together.
    error_estimate -- ``reference_solve``'s estimate of its mean endpoint error; else None.
    """

    times: np.ndarray
    xs: list | np.ndarray
    nfe: int = 0
    error_estimate: float | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64)
        self.times = times.view() if times is self.times else times  # a caller's array keeps its flags
        self.times.flags.writeable = False

    @property
    def nodes(self) -> tuple:
        return tuple(zip(self.times.tolist(), self.xs))

    @property
    def states(self) -> np.ndarray:
        return np.stack(self.xs)

    @property
    def endpoint(self) -> np.ndarray:
        return self.xs[-1]

    @classmethod
    def collect(cls, walk) -> Trajectory:
        """Every node of a ``_walk_schedule`` walk, keeping the state arrays it yields uncopied, and its NFE."""
        times, xs, nfe = zip(*walk)
        return cls(times, list(xs), nfe[-1])


def _walk_schedule(step, schedule, x, eps0, name: str):
    """Step from the top of the schedule down to its floor, yielding ``(t, x, nfe so far)`` at every node.

    step(x, t_hi, t_lo, carry, eps_cur=...) returns ``(x_next, nfe, carry)``, nfe an int or per-row counts;
    eps0, if not None, is interval 0's first slope (the analytic first step,
    or one the caller already computed).  An overflow, a non-finite state or
    a non-finite eps0 aborts naming the interval; numpy's error state is set
    per step, never across a yield.
    """
    ts = schedule.times[::-1].tolist()
    nfe, carry = 0, None
    yield ts[0], x, nfe
    for i in range(len(ts) - 1):
        t_hi, t_lo = ts[i], ts[i + 1]
        try:
            with np.errstate(all="raise", under="ignore"):  # e.g. eval_model's t*t past 1.3e154: a NaN slope
                if i == 0 and eps0 is not None and not np.isfinite(eps0).all():  # a slope made outside this rule
                    raise FloatingPointError
                x, n, carry = step(x, t_hi, t_lo, carry, eps_cur=eps0 if i == 0 else None)
                if not np.isfinite(x).all():  # a NaN slope propagates without raising
                    raise FloatingPointError
        except FloatingPointError:
            raise DivergenceError(f"{name} diverged in interval [{t_lo:g}, {t_hi:g}]") from None
        nfe = nfe + n  # a new object: per-row counts already yielded stay as they were
        yield t_lo, x, nfe


def write_csv(path, header, rows) -> None:
    """Write a header and rows of Python ints, strings and floats (str(float) is its repr).

    Convert numpy values first (``.tolist()``, ``float``): in numpy 2 their repr is not the number.
    """
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(map(str, row)) + "\n")


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """One row per node, header t,x_0..x_{d-1}, full double precision."""
    if np.ndim(traj.endpoint) != 1:
        raise ValueError("CSV export expects a single (unbatched) trajectory")
    table = np.column_stack((traj.times, traj.states))
    write_csv(path, ["t"] + [f"x_{i}" for i in range(table.shape[1] - 1)], table.tolist())


def read_trajectory_csv(path) -> Trajectory:
    """Read a node-only trajectory written by write_trajectory_csv.

    A row whose width differs from the header's, a non-numeric or non-finite
    cell or a file with no rows raises ValueError naming the path and line number.
    """
    with open(path) as f:
        header = f.readline().strip().split(",")
        if header[0] != "t":
            raise ValueError(f"{path}: not a trajectory CSV")
        rows = []
        for lineno, line in enumerate(f, start=2):
            cells = line.strip().split(",")
            if cells == [""]:
                continue
            if len(cells) != len(header):
                raise ValueError(f"{path}:{lineno}: {len(cells)} cells, the header has {len(header)}")
            try:
                vals = [float(v) for v in cells]
            except ValueError as e:
                raise ValueError(f"{path}:{lineno}: {e}") from None
            if not all(map(math.isfinite, vals)):
                raise ValueError(f"{path}:{lineno}: non-finite cell")
            rows.append(vals)
    if not rows:
        raise ValueError(f"{path}:1: header only, no trajectory rows")
    table = np.array(rows, dtype=np.float64)  # (nodes, 1 + d): the times column and the states' rows share it
    return Trajectory(table[:, 0], table[:, 1:])
