import json

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
