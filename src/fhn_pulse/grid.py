"""Uniform half-line grid, trapezoid quadrature, and profile containers.

The computational domain is [0, x_max] with n uniform intervals. Even
symmetry about the origin is encoded in the boundary conventions used
everywhere downstream: Neumann at x = 0, Dirichlet at x = x_max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .records import write_csv


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [0, x_max] with n intervals (n + 1 nodes)."""

    x_max: float
    n: int

    def __post_init__(self) -> None:
        if not (self.x_max > 0.0 and math.isfinite(self.x_max)):
            raise ValueError(f"x_max must be positive and finite, got {self.x_max}")
        if isinstance(self.n, bool) or not isinstance(self.n, (int, np.integer)):
            raise ValueError(f"n must be an integer, got {self.n!r}")
        if self.n < 16:
            raise ValueError(f"n must be at least 16, got {self.n}")

    @property
    def h(self) -> float:
        return self.x_max / self.n

    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.x_max, self.n + 1)

    def weights(self) -> np.ndarray:
        """Trapezoid quadrature weights; the induced bilinear form is the
        discrete L2 inner product used throughout."""
        w = np.full(self.n + 1, self.h)
        w[0] = 0.5 * self.h
        w[-1] = 0.5 * self.h
        return w


@dataclass(frozen=True)
class Profile:
    """Nodal values of a function on a Grid. values is a read-only view."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n + 1,):
            raise ValueError(
                f"profile length {vals.shape} does not match grid with "
                f"{self.grid.n + 1} nodes"
            )
        if not np.isfinite(vals).all():
            raise ValueError("profile contains non-finite values")
        # a read-only view: the profile cannot be written through, and the
        # caller's array stays writable
        vals = vals.view()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


def integrate(p: Profile) -> float:
    """Trapezoid quadrature of p over [0, x_max]. Exact for piecewise-linear
    integrands sampled at the nodes."""
    return float(np.dot(p.grid.weights(), p.values))


def inner_l2(p: Profile, q: Profile) -> float:
    if p.grid != q.grid:
        raise ValueError("profiles live on different grids")
    return float(np.dot(p.grid.weights(), p.values * q.values))


def norm_l2(p: Profile) -> float:
    return math.sqrt(max(inner_l2(p, p), 0.0))


def stiffness_form(p: Profile) -> float:
    """Sum of h * (slope per interval)^2; the discrete Dirichlet form
    approximating the integral of (p')^2 at second order."""
    d = np.diff(p.values)
    return float(np.dot(d, d) / p.grid.h)


def norm_h1(p: Profile) -> float:
    return math.sqrt(max(inner_l2(p, p) + stiffness_form(p), 0.0))


def derivative(p: Profile) -> Profile:
    """Second-order first derivative: central differences in the interior,
    one-sided three-point stencils at both ends."""
    v = p.values
    h = p.grid.h
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return Profile(p.grid, out)


def crossing_location(p: Profile, level: float, i: int) -> float:
    """Linearly interpolated x where p crosses `level` on [x_i, x_{i+1}].

    The crossing must be bracketed: p_i and p_{i+1} on opposite sides
    (a node value exactly at the level counts as the crossing point).
    """
    v = p.values
    if i < 0 or i + 1 > p.grid.n:
        raise ValueError(f"interval index {i} out of range")
    a = v[i] - level
    b = v[i + 1] - level
    if a == 0.0:
        return float(i * p.grid.h)
    if b == 0.0:
        return float((i + 1) * p.grid.h)
    if a * b > 0.0:
        raise ValueError(f"no level crossing bracketed on interval {i}")
    return float(p.grid.h * (i + a / (a - b)))


def mirror(p: Profile) -> tuple[np.ndarray, np.ndarray]:
    """Even reflection to [-x_max, x_max] for export or plotting."""
    x = p.grid.nodes()
    xs = np.concatenate([-x[:0:-1], x])
    vs = np.concatenate([p.values[:0:-1], p.values])
    return xs, vs


def profile_to_csv(p: Profile, path: str) -> None:
    """Write (x, value) rows with 17-significant-digit decimals."""
    write_csv(path, "x,value", (p.grid.nodes(), p.values))


def profile_from_csv(path: str) -> Profile:
    """Read a profile written by profile_to_csv; the grid is reconstructed
    from the x column and checked for uniformity."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "x,value":
            raise ValueError(f"unexpected CSV header {header!r} in {path}")
        data = np.loadtxt(fh, delimiter=",")
    if data.ndim != 2 or data.shape[1] != 2 or data.shape[0] < 3:
        raise ValueError(f"malformed profile CSV {path}")
    x, vals = data[:, 0], data[:, 1]
    n = len(x) - 1
    grid = Grid(x_max=float(x[-1]), n=n)
    if not np.allclose(x, grid.nodes(), rtol=0.0, atol=1e-12 * grid.x_max):
        raise ValueError(f"non-uniform x column in {path}")
    return Profile(grid, vals)
