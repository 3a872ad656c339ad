"""Admissible profile class: band constraints, crossing detection,
projection, and the piecewise-linear competitor.

An admissible profile starts in [beta, 1], passes through [0, beta] on a
middle band, and ends in [-(M+1), 0], where M is the negative-tail cutoff.
The band boundaries are tracked by node indices i1 (last node of the
leading excursion) and i2 (first nonpositive node after it); i2 = None
encodes a middle band that extends to x_max.
"""

from __future__ import annotations

import numpy as np

from .grid import Grid, Profile

#: Tolerance on band-bound comparisons.
BAND_TOL = 1e-12


def detect_crossings(
    w: Profile, beta: float, tol: float = BAND_TOL
) -> tuple[int | None, int | None]:
    """Locate the band indices of w by one deterministic left-to-right scan.

    i1 is the last node of the contiguous block starting at node 0 with
    values >= beta - tol (None when the block is empty); i2 is the first
    node after i1 with value <= tol (None when the profile never returns
    to zero).
    """
    v = w.values
    if v[0] >= beta - tol:
        above = v >= beta - tol
        if above.all():
            i1 = len(v) - 1
        else:
            i1 = int(np.argmin(above)) - 1  # argmin = first False
    else:
        i1 = None

    start = 0 if i1 is None else i1 + 1
    i2 = None
    if start < len(v):
        below = v[start:] <= tol
        if below.any():
            i2 = start + int(np.argmax(below))
    return i1, i2


def band_bounds(
    grid: Grid, i1: int, i2: int | None, beta: float, M: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-node (lower, upper) bounds induced by the band indices."""
    n = grid.n
    lower = np.empty(n + 1)
    upper = np.empty(n + 1)
    end_mid = n + 1 if i2 is None else i2 + 1
    lower[: i1 + 1] = beta
    upper[: i1 + 1] = 1.0
    lower[i1 + 1 : end_mid] = 0.0
    upper[i1 + 1 : end_mid] = beta
    if i2 is not None:
        lower[i2 + 1 :] = -(M + 1.0)
        upper[i2 + 1 :] = 0.0
    return lower, upper


def is_admissible(
    w: Profile, i1: int, i2: int | None, beta: float, M: float, tol: float = BAND_TOL
) -> bool:
    lower, upper = band_bounds(w.grid, i1, i2, beta, M)
    return bool(
        np.all(w.values >= lower - tol) and np.all(w.values <= upper + tol)
    )


def project(w: Profile, i1: int, i2: int | None, beta: float, M: float) -> Profile:
    """Clamp w onto the admissible bands determined by (i1, i2).

    Idempotent, and optimal per node: each value moves to the nearest point
    of its band interval. Requires 0 <= i1 < i2 <= n when i2 is present.
    """
    n = w.grid.n
    if not 0 <= i1 <= n:
        raise ValueError(f"i1 = {i1} out of range for n = {n}")
    if i2 is not None and not i1 < i2 <= n:
        raise ValueError(f"need i1 < i2 <= n, got i1 = {i1}, i2 = {i2}")
    lower, upper = band_bounds(w.grid, i1, i2, beta, M)
    return Profile(w.grid, np.clip(w.values, lower, upper))


def build_q0(a: float, b: float, grid: Grid) -> Profile:
    """Piecewise-linear competitor: 1 on [0, a], linear down to 0 on [a, b],
    identically 0 afterwards. Requires 0 < a < b <= x_max and b - a <= 1."""
    if not (0.0 < a < b <= grid.x_max):
        raise ValueError(f"need 0 < a < b <= x_max, got a={a}, b={b}")
    if b - a > 1.0:
        raise ValueError(f"competitor ramp width {b - a} exceeds 1")
    x = grid.nodes()
    return Profile(grid, np.clip((b - x) / (b - a), 0.0, 1.0))


def q0_gradient_term(d: float, a: float, b: float) -> float:
    """Exact gradient energy of the competitor: d / (2 (b - a))."""
    return d / (2.0 * (b - a))


def q0_potential_term(beta: float, a: float, b: float) -> float:
    """Exact potential integral of the competitor:
    -(1 - 2 beta) a / 12 + (b - a) (1/20 - (1 + beta)/12 + beta/6)."""
    return -(1.0 - 2.0 * beta) * a / 12.0 + (b - a) * (
        1.0 / 20.0 - (1.0 + beta) / 12.0 + beta / 6.0
    )


def q0_nonlocal_upper_bound(beta: float, gamma: float, a: float, b: float) -> float:
    """Closed-form upper bound on the competitor's nonlocal energy:
    (3 sqrt(2) / 4) (1 + 1/gamma) (a + (b - a)/2)^{3/2}."""
    return (
        0.75 * np.sqrt(2.0) * (1.0 + 1.0 / gamma) * (a + 0.5 * (b - a)) ** 1.5
    )


def q0_energy_upper_bound(
    d: float, beta: float, gamma: float, a: float, b: float
) -> float:
    """Closed-form upper bound on the competitor's total energy; with the
    constructive breakpoints and d = d0 it reproduces the negative gap -M0
    up to rounding."""
    return (
        q0_gradient_term(d, a, b)
        + q0_potential_term(beta, a, b)
        + q0_nonlocal_upper_bound(beta, gamma, a, b)
    )
