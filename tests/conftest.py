import json
import tracemalloc

import numpy as np
import pytest

import difflab as dl


def make_gmm(seed, k, d, spread=2.0, s_lo=0.5, s_hi=1.0, centered=False):
    rng = dl.stream(seed, "gmm")
    means = rng.uniform(-spread, spread, (k, d))
    if centered:
        w_pre = rng.uniform(0.5, 1.5, k)
        w_pre /= w_pre.sum()
        means = means - w_pre @ means
        weights = w_pre
    else:
        weights = rng.uniform(0.5, 1.5, k)
        weights /= weights.sum()
    stds = rng.uniform(s_lo, s_hi, k)
    return dl.GaussianMixture(weights=weights, means=means, stds=stds)


def traced_peak(call) -> int:
    """Bytes above the traced memory at the start that tracemalloc counts at call()'s peak."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def save_model(model, path):
    """Write a mixture in the JSON form that ``load_model`` reads."""
    cfg = {
        "components": [
            {"weight": float(w), "mean": [float(v) for v in mu], "std": float(s)}
            for w, mu, s in zip(model.weights, model.means, model.stds)
        ],
        "zero_feature": model.zero_feature,
    }
    with open(path, "w") as f:
        json.dump(cfg, f, indent=2)
        f.write("\n")


@pytest.fixture
def single_gaussian():
    return dl.GaussianMixture(weights=[1.0], means=[np.zeros(2)], stds=[1.0])


@pytest.fixture
def gmm2_d8():
    return make_gmm(5, 2, 8)


@pytest.fixture
def poly_schedule():
    return dl.make_schedule("polynomial", 6, 0.002, 80.0, rho=7.0)


def nan_interval(form, which):
    """(t_hi, t_lo) with a NaN at `which`: Python floats, numpy scalars, or per-sample arrays of 2."""
    t = {"t_hi": 2.0, "t_lo": 1.0}
    if form == "array":
        return tuple(np.array([v, np.nan if k == which else v]) for k, v in t.items())
    t[which] = np.nan
    return tuple((np.float64 if form == "numpy" else float)(v) for v in t.values())
