import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import difflab as dl
from difflab.schedules import _geom

KINDS = ("polynomial", "logsnr", "uniform")


def test_two_nodes_are_endpoints():
    for kind in KINDS:
        sch = dl.make_schedule(kind, 2, 0.002, 80.0)
        np.testing.assert_array_equal(sch.times, [0.002, 80.0])


def test_polynomial_middle_node():
    sch = dl.make_schedule("polynomial", 3, 0.002, 80.0, rho=7.0)
    want = ((0.002 ** (1 / 7) + 80 ** (1 / 7)) / 2) ** 7
    assert abs(sch.times[1] - want) < 1e-12 * want


def test_logsnr_is_large_rho_limit():
    a = dl.make_schedule("polynomial", 8, 0.002, 80.0, rho=1e6).times
    b = dl.make_schedule("logsnr", 8, 0.002, 80.0).times
    assert np.max(np.abs(a - b) / b) < 1e-3


@given(st.sampled_from(KINDS), st.integers(2, 40))
@settings(max_examples=60, deadline=None)
def test_schedules_strictly_increasing(kind, n):
    sch = dl.make_schedule(kind, n, 0.002, 80.0)
    assert np.all(np.diff(sch.times) > 0)
    assert sch.times[0] == 0.002 and sch.times[-1] == 80.0


def test_make_schedule_validation():
    with pytest.raises(ValueError):
        dl.make_schedule("polynomial", 1, 0.002, 80.0)
    with pytest.raises(ValueError):
        dl.make_schedule("polynomial", 4, 0.0, 80.0)
    with pytest.raises(ValueError):
        dl.make_schedule("polynomial", 4, 2.0, 1.0)
    with pytest.raises(ValueError, match="t_max < inf"):
        dl.make_schedule("polynomial", 2, 0.002, np.inf)
    with pytest.raises(ValueError):
        dl.make_schedule("polynomial", 4, 0.002, 80.0, rho=-1.0)
    with pytest.raises(ValueError):
        dl.make_schedule("quadratic", 4, 0.002, 80.0)
    with pytest.raises(ValueError, match="positive rho; got None"):
        dl.make_schedule("polynomial", 4, 0.002, 80.0, rho=None)


@pytest.mark.parametrize(
    "times,kind,rho,message",
    [
        ([1.0, 2.0], "cosine", None, "unknown schedule kind 'cosine'"),
        ([1.0, 2.0], "polynomial", None, "positive rho; got None"),
        ([1.0, 2.0], "polynomial", 0.0, "positive rho; got 0.0"),
        ([1.0], "uniform", None, "at least two nodes"),
        ([[1.0, 2.0]], "uniform", None, "at least two nodes"),
        ([0.0, 2.0], "uniform", None, "floor must be positive"),
        ([1.0, 3.0, 2.0], "uniform", None, "strictly increasing"),
    ],
)
def test_time_schedule_validation(times, kind, rho, message):
    with pytest.raises(ValueError, match=message):
        dl.TimeSchedule(times=np.array(times), kind=kind, rho=rho)


def test_refine_hand_built_polynomial_names_rho():
    # Refinement rebuilds the grid from its rule, so a polynomial grid without rho is refused when built.
    with pytest.raises(ValueError, match="rho"):
        dl.refine_teacher(dl.TimeSchedule(np.array([0.002, 1.0, 80.0]), "polynomial"), 1)


def test_refine_needs_one_inserted_node():
    with pytest.raises(ValueError, match="m must be >= 1"):
        dl.refine_teacher(dl.make_schedule("uniform", 3, 1.0, 3.0), 0)


def test_refine_uniform_midpoint():
    sch = dl.TimeSchedule(times=np.array([1.0, 3.0]), kind="uniform")
    fine = dl.refine_teacher(sch, 1)
    np.testing.assert_array_equal(fine.times, [1.0, 2.0, 3.0])


def test_refine_matches_global_reconstruction():
    sch = dl.make_schedule("polynomial", 3, 0.002, 80.0, rho=7.0)
    fine = dl.refine_teacher(sch, 2)
    direct = dl.make_schedule("polynomial", 7, 0.002, 80.0, rho=7.0)
    assert np.max(np.abs(fine.times - direct.times)) < 1e-12 * direct.times[-1]


@given(st.sampled_from(KINDS), st.integers(2, 9), st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_refine_contains_original_nodes_bitwise(kind, n, m):
    sch = dl.make_schedule(kind, n, 0.002, 80.0, rho=7.0)
    fine = dl.refine_teacher(sch, m)
    assert fine.n == (m + 1) * (n - 1) + 1
    np.testing.assert_array_equal(fine.times[:: m + 1], sch.times)


def test_geometric_intermediate_values():
    assert _geom(1.0, 4.0, 0.5) == 2.0
    assert _geom(1.0, 4.0, 1.0) == 1.0
    assert _geom(1.0, 16.0, 0.25) == 8.0


@given(
    st.floats(0.01, 1.0),
    st.floats(1.5, 100.0),
    st.floats(0.01, 0.99),
    st.floats(0.01, 0.2),
)
@settings(max_examples=80, deadline=None)
def test_geometric_intermediate_monotone_in_r(t_lo, t_hi, r, dr):
    s1 = _geom(t_lo, t_hi, r)
    s2 = _geom(t_lo, t_hi, min(r + dr, 1.0))
    assert t_lo <= s2 <= s1 <= t_hi
