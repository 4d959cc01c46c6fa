"""Sampling trajectories and their CSV representation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Trajectory:
    """States recorded at every schedule node, in descending time order.

    nodes   -- list of (t, x); x may carry a leading batch dimension.
    nfe     -- per-trajectory count of model evaluations (an analytically
               substituted first evaluation counts as zero).
    """

    nodes: list = field(default_factory=list)
    nfe: int = 0

    @property
    def times(self) -> np.ndarray:
        return np.array([t for t, _ in self.nodes])

    @property
    def states(self) -> np.ndarray:
        return np.stack([x for _, x in self.nodes])

    @property
    def endpoint(self) -> np.ndarray:
        return self.nodes[-1][1]


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """One row per node, header t,x_0..x_{d-1}, full double precision."""
    d = np.asarray(traj.nodes[0][1]).shape[-1]
    if np.asarray(traj.nodes[0][1]).ndim != 1:
        raise ValueError("CSV export expects a single (unbatched) trajectory")
    with open(path, "w") as f:
        f.write("t," + ",".join(f"x_{i}" for i in range(d)) + "\n")
        for t, x in traj.nodes:
            f.write(repr(float(t)) + "," + ",".join(repr(float(v)) for v in x) + "\n")


def read_trajectory_csv(path) -> Trajectory:
    """Read a node-only trajectory written by write_trajectory_csv.

    A row whose width differs from the header's, a non-numeric cell or a
    file with no rows raises ValueError naming the path and line number.
    """
    with open(path) as f:
        header = f.readline().strip().split(",")
        if header[0] != "t":
            raise ValueError(f"{path}: not a trajectory CSV")
        nodes = []
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
            nodes.append((vals[0], np.array(vals[1:], dtype=np.float64)))
    if not nodes:
        raise ValueError(f"{path}:1: header only, no trajectory rows")
    return Trajectory(nodes=nodes, nfe=0)
