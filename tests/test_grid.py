"""Grid, trapezoid quadrature, difference stencils, and profile IO."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fhn_pulse import Grid, Profile, mirror, profile_from_csv, profile_to_csv
from fhn_pulse.grid import (
    crossing_location,
    derivative,
    inner_l2,
    integrate,
    norm_h1,
    norm_l2,
    stiffness_form,
)
from fhn_pulse.records import write_csv


def make(values_fn, x_max=10.0, n=500):
    grid = Grid(x_max, n)
    return Profile(grid, values_fn(grid.nodes()))


class TestGrid:
    def test_nodes_and_spacing(self):
        g = Grid(10.0, 16)
        assert g.h == 0.625
        x = g.nodes()
        assert len(x) == 17
        assert x[0] == 0.0 and x[-1] == 10.0
        assert np.allclose(np.diff(x), 0.625)

    def test_weights_sum_to_length(self):
        g = Grid(7.0, 19)
        assert np.sum(g.weights()) == pytest.approx(7.0, rel=1e-14)
        assert g.weights()[0] == pytest.approx(g.h / 2.0)

    @pytest.mark.parametrize("bad", [(0.0, 32), (-1.0, 32), (10.0, 0), (10.0, 8)])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            Grid(*bad)

    @pytest.mark.parametrize("n", [16.5, 4096.0, True, "4096", None])
    def test_rejects_non_integer_n(self, n):
        # a float n used to pass and fail later in nodes() and weights()
        with pytest.raises(ValueError, match="n must be an integer"):
            Grid(12.0, n)

    @pytest.mark.parametrize("n", [np.int64(64), np.int32(64), np.uint16(64)])
    def test_accepts_numpy_integer_n(self, n):
        g = Grid(12.0, n)
        assert g.nodes().shape == (65,) and g.h == 12.0 / 64

    def test_profile_length_check(self):
        g = Grid(10.0, 32)
        with pytest.raises(ValueError):
            Profile(g, np.zeros(5))

    def test_profile_rejects_nonfinite(self):
        g = Grid(10.0, 32)
        vals = np.zeros(33)
        vals[3] = np.nan
        with pytest.raises(ValueError):
            Profile(g, vals)


    def test_profile_values_read_only(self):
        src = np.linspace(0.0, 1.0, 17)
        p = Profile(Grid(10.0, 16), src)
        with pytest.raises(ValueError):
            p.values[0] = 1.0
        # the profile holds a read-only view; the caller's array stays writable
        src[0] = 2.0
        assert p.values[0] == 2.0


class TestQuadrature:
    def test_constant_exact(self):
        p = make(lambda x: np.ones_like(x))
        assert integrate(p) == pytest.approx(10.0, rel=1e-14)

    def test_linear_exact(self):
        p = make(lambda x: x, x_max=1.0, n=17)
        assert integrate(p) == pytest.approx(0.5, rel=1e-14)

    def test_sin_order_two(self):
        # errors against the analytic value 2 shrink ~4x per refinement
        errs = []
        for n in (100, 200, 400):
            p = make(np.sin, x_max=math.pi, n=n)
            errs.append(abs(integrate(p) - 2.0))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.05)

    def test_inner_product_and_norms(self):
        p = make(lambda x: np.ones_like(x))
        q = make(lambda x: x)
        assert inner_l2(p, q) == pytest.approx(50.0, rel=1e-13)
        assert norm_l2(p) == pytest.approx(math.sqrt(10.0), rel=1e-13)
        # H1 norm of a constant equals its L2 norm
        assert norm_h1(p) == pytest.approx(norm_l2(p), rel=1e-13)
        assert stiffness_form(q) == pytest.approx(10.0, rel=1e-12)


class TestDerivative:
    def test_constant(self):
        p = make(lambda x: np.full_like(x, 3.7))
        assert np.max(np.abs(derivative(p).values)) < 1e-12

    def test_linear_exact(self):
        p = make(lambda x: 2.0 * x - 1.0)
        assert np.allclose(derivative(p).values, 2.0, atol=1e-10)

    def test_sin_order_two(self):
        errs = []
        for n in (100, 200):
            p = make(np.sin, x_max=math.pi, n=n)
            errs.append(np.max(np.abs(derivative(p).values - np.cos(p.grid.nodes()))))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)

    def test_discrete_integration_by_parts(self):
        g = Grid(3.0, 600)
        x = g.nodes()
        p = Profile(g, np.exp(-x) * np.cos(x))
        q = Profile(g, x**2 + 1.0)
        lhs = inner_l2(derivative(p), q) + inner_l2(p, derivative(q))
        boundary = p.values[-1] * q.values[-1] - p.values[0] * q.values[0]
        assert lhs == pytest.approx(boundary, abs=50.0 * g.h**2)


class TestCrossing:
    def test_interpolated_location(self):
        g = Grid(1.0, 20)
        p = Profile(g, 1.0 - g.nodes())  # crosses 0.45 at x = 0.55
        i = int(np.argmax(p.values < 0.45)) - 1
        assert crossing_location(p, 0.45, i) == pytest.approx(0.55, rel=1e-12)

    def test_no_bracket(self):
        g = Grid(1.0, 20)
        p = Profile(g, np.ones(21))
        with pytest.raises(ValueError):
            crossing_location(p, 0.5, 3)


class TestIO:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        g = Grid(5.0, 64)
        p = Profile(g, rng.standard_normal(65))
        path = tmp_path / "p.csv"
        profile_to_csv(p, path)
        q = profile_from_csv(path)
        assert q.grid == g
        assert np.array_equal(q.values, p.values)  # 17 digits reproduce binary64

    def test_csv_bytes_match_numpy_scalar_formatting(self, tmp_path):
        # write_csv formats Python floats, a chunk of rows at a time; the
        # bytes are those of the numpy float64 scalars it formatted before,
        # signed zero, the smallest subnormal and the overflow edge
        # included, over more rows than one chunk
        special = [-0.0, 5e-324, 1e308, 1.0 / 3.0, -1e-300, 0.1]
        vals = np.concatenate([special, np.random.default_rng(3).standard_normal(9000)])
        cols = (vals, -vals)
        row = "%.17g,%.17g"
        expected = "\n".join(["a,b"] + [row % pair for pair in zip(*cols)]) + "\n"
        path = tmp_path / "c.csv"
        write_csv(path, "a,b", cols)
        assert path.read_bytes() == expected.encode()
        assert path.read_text().splitlines()[1:4] == [
            "-0,0",
            "4.9406564584124654e-324,-4.9406564584124654e-324",
            "1e+308,-1e+308",
        ]

    def test_header_check(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            profile_from_csv(path)

    def test_mirror(self):
        g = Grid(1.0, 16)
        p = Profile(g, np.linspace(1.0, 5.0, 17))
        xs, vs = mirror(p)
        assert len(xs) == 33
        assert xs[0] == -1.0 and xs[-1] == 1.0
        assert np.array_equal(vs, vs[::-1])  # even reflection
        assert vs[16] == 1.0


@given(st.integers(16, 200), st.floats(0.5, 50.0))
def test_weights_match_node_count(n, x_max):
    g = Grid(x_max, n)
    assert len(g.weights()) == n + 1
    assert np.sum(g.weights()) == pytest.approx(x_max, rel=1e-12)
