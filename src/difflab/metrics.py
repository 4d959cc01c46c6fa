"""Distribution distances and convergence-rate estimation."""

from __future__ import annotations

import numpy as np

from .rng import stream


def sliced_wasserstein(a, b, projections: int = 64, seed: int = 0) -> float:
    """Mean 1-D 2-Wasserstein distance over random unit projections.

    a and b are equally sized sample sets of shape (n, d).  Each projection
    pairs sorted coordinates and takes the root-mean-square gap, which is the
    exact W2 in one dimension; for d == 1 the fixed coordinate axis is used,
    so a single projection reproduces the exact distance.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError("sample sets must be (n, d) with matching d")
    if a.shape[0] != b.shape[0]:
        raise ValueError("sorted-coordinate pairing needs equally sized sets")
    if projections < 1:
        raise ValueError("need at least one projection")
    d = a.shape[1]
    if d == 1:
        u = np.ones((1, 1))
    else:
        u = stream(seed, "sw").standard_normal((projections, d))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
    # In place, d projections at a time: 2 (n, d) scratch buffers, the sample sets' size, not 2 (n, projections).
    w2 = np.empty(len(u))
    for i in range(0, len(u), d):
        pa, pb = a @ u[i : i + d].T, b @ u[i : i + d].T
        pa.sort(axis=0)
        pb.sort(axis=0)
        pa -= pb
        w2[i : i + d] = np.sqrt(np.mean(np.square(pa, out=pa), axis=0))
    return float(w2.mean())


def order_estimate(errors) -> float:
    """Empirical convergence order: negated log-log slope of error vs NFE."""
    pts = [(float(n), float(e)) for n, e in errors]
    if len(pts) < 3:
        raise ValueError("order estimation needs at least three (NFE, error) points")
    n = np.array([p[0] for p in pts])
    e = np.array([p[1] for p in pts])
    if np.any(n <= 0) or np.any(e <= 0):
        raise ValueError("NFE and errors must be positive")
    slope = np.polyfit(np.log(n), np.log(e), 1)[0]
    return float(-slope)
