"""Band detection, projection onto the constraint class, and the
piecewise-linear competitor."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fhn_pulse import (
    Grid,
    Profile,
    build_q0,
    detect_crossings,
    is_admissible,
    negative_tail_cutoff,
    project,
)
from fhn_pulse.admissible import band_bounds

BETA = 0.4
M = negative_tail_cutoff(BETA, 0.3)
GRID_H01 = Grid(10.0, 100)  # h = 0.1


class TestDetectCrossings:
    def test_competitor_indices(self):
        # ramp hits beta = 0.4 at x = 2.6 and zero at x = 3.0
        q0 = build_q0(2.0, 3.0, GRID_H01)
        i1, i2 = detect_crossings(q0, BETA)
        assert i1 == 26
        assert i2 == 30

    def test_all_negative(self):
        w = Profile(GRID_H01, np.full(101, -0.1))
        assert detect_crossings(w, BETA) == (None, 0)

    def test_monotone_step(self):
        x = GRID_H01.nodes()
        w = Profile(GRID_H01, np.where(x <= 1.0, 1.0, 0.0))
        i1, i2 = detect_crossings(w, BETA)
        assert i1 == 10  # last node of the plateau
        assert i2 == 11  # first zero node after it

    def test_never_returning_profile(self):
        w = Profile(GRID_H01, np.full(101, 0.5))
        i1, i2 = detect_crossings(w, BETA)
        assert i1 == 100
        assert i2 is None

    def test_refinement_moves_crossings_at_most_h(self):
        for n in (100, 200, 400):
            grid = Grid(10.0, n)
            q0 = build_q0(2.0, 3.0, grid)
            i1, i2 = detect_crossings(q0, BETA)
            assert abs(i1 * grid.h - 2.6) <= grid.h + 1e-12
            assert abs(i2 * grid.h - 3.0) <= grid.h + 1e-12


class TestProject:
    def test_already_admissible_unchanged(self):
        q0 = build_q0(2.0, 3.0, GRID_H01)
        i1, i2 = detect_crossings(q0, BETA)
        proj = project(q0, i1, i2, BETA, M)
        # nodes within the band tolerance of a bound may snap onto it
        assert np.allclose(proj.values, q0.values, rtol=0.0, atol=1e-12)

    def test_clamps_overshoot(self):
        q0 = build_q0(2.0, 3.0, GRID_H01)
        vals = q0.values.copy()
        vals[5] = 1.3
        i1, i2 = detect_crossings(q0, BETA)
        proj = project(Profile(GRID_H01, vals), i1, i2, BETA, M)
        assert proj.values[5] == 1.0

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        w = Profile(GRID_H01, rng.uniform(-3.0, 2.0, 101))
        once = project(w, 20, 40, BETA, M)
        twice = project(once, 20, 40, BETA, M)
        assert np.array_equal(once.values, twice.values)
        assert is_admissible(once, 20, 40, BETA, M)

    def test_projection_is_nearest_point(self):
        rng = np.random.default_rng(1)
        w = Profile(GRID_H01, rng.uniform(-3.0, 2.0, 101))
        i1, i2 = 20, 40
        proj = project(w, i1, i2, BETA, M)
        d_proj = float(np.sum((proj.values - w.values) ** 2))
        lower, upper = band_bounds(GRID_H01, i1, i2, BETA, M)
        for _ in range(100):
            z = rng.uniform(lower, upper)
            assert d_proj <= float(np.sum((z - w.values) ** 2)) + 1e-12

    def test_index_validation(self):
        w = Profile(GRID_H01, np.zeros(101))
        with pytest.raises(ValueError):
            project(w, -1, 40, BETA, M)
        with pytest.raises(ValueError):
            project(w, 40, 40, BETA, M)
        with pytest.raises(ValueError):
            project(w, 40, 200, BETA, M)

    def test_open_tail(self):
        # i2 = None leaves the mid band running to the boundary
        w = Profile(GRID_H01, np.full(101, 0.7))
        proj = project(w, 50, None, BETA, M)
        assert np.all(proj.values[51:] <= BETA)
        assert np.all(proj.values[:51] >= BETA)


class TestBuildQ0:
    def test_plateau_ramp_tail(self):
        q0 = build_q0(2.0, 3.0, GRID_H01)
        x = GRID_H01.nodes()
        assert np.all(q0.values[x <= 2.0] == 1.0)
        assert np.all(q0.values[x >= 3.0] == 0.0)
        assert q0.values[25] == pytest.approx(0.5, rel=1e-12)  # x = 2.5

    @pytest.mark.parametrize(
        "a,b",
        [(3.0, 2.0), (0.0, 0.5), (2.0, 11.0), (-1.0, 0.5), (2.0, 3.5)],
    )
    def test_breakpoint_validation(self, a, b):
        with pytest.raises(ValueError):
            build_q0(a, b, GRID_H01)

    def test_member_of_class(self):
        q0 = build_q0(2.0, 3.0, GRID_H01)
        i1, i2 = detect_crossings(q0, BETA)
        assert is_admissible(q0, i1, i2, BETA, M)


@settings(max_examples=50)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(5, 45),
    st.integers(50, 95),
)
def test_projection_properties(seed, i1, i2):
    rng = np.random.default_rng(seed)
    w = Profile(GRID_H01, rng.uniform(-(M + 2.0), 2.0, 101))
    proj = project(w, i1, i2, BETA, M)
    assert is_admissible(proj, i1, i2, BETA, M)
    # idempotence
    again = project(proj, i1, i2, BETA, M)
    assert np.array_equal(again.values, proj.values)
    # clamping never moves a value past the nearer bound
    lower, upper = band_bounds(GRID_H01, i1, i2, BETA, M)
    assert np.all(proj.values >= lower)
    assert np.all(proj.values <= upper)
