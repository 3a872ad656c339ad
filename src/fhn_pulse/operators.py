"""Inhibitor response operators on the half-line grid.

Every linear solve in the package reduces to one discrete form,

    (-D2 + c) V = rhs   on nodes 0..n-1,   V(n) = 0,

where D2 is the second-difference operator with a ghost-node Neumann row at
x = 0 (V_{-1} = V_1) and c > 0 is a scalar or per-node coefficient. Halving
the first row makes the system symmetric positive definite, which is the
banded layout scipy.linalg.solveh_banded consumes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded, solveh_banded

from .grid import Grid, Profile


class InhibitorError(RuntimeError):
    """Raised when a caller requires a converged inhibitor solve and the
    Newton iteration failed to reach tolerance."""


class GreenKind(enum.Enum):
    """Which screened resolvent to apply: L = (gamma - D2)^{-1} or
    L0 = (gamma + 1 - D2)^{-1}."""

    L = "L"
    L0 = "L0"

    @property
    def gamma_shift(self) -> float:
        return 0.0 if self is GreenKind.L else 1.0


def spd_banded(c: np.ndarray | float, h: float, m: int) -> np.ndarray:
    """Upper-diagonal banded storage of the symmetrized (-D2 + c) matrix on
    m unknowns. Row 0 carries the halved Neumann ghost row."""
    ab = np.zeros((2, m))
    ab[0, 1:] = -1.0 / h**2
    cc = np.broadcast_to(np.asarray(c, dtype=float), (m,)).copy()
    diag = 2.0 / h**2 + cc
    diag[0] = 1.0 / h**2 + 0.5 * cc[0]
    ab[1, :] = diag
    return ab


def solve_shifted(c: np.ndarray | float, rhs: np.ndarray, h: float) -> np.ndarray:
    """Solve (-D2 + c) V = rhs with Neumann at 0 and V = 0 at the last node.

    rhs has one entry per unknown (nodes 0..n-1); the returned array has the
    Dirichlet zero appended, length n + 1.
    """
    m = len(rhs)
    ab = spd_banded(c, h, m)
    b = np.array(rhs, dtype=float)
    b[0] *= 0.5
    v = solveh_banded(ab, b, lower=False)
    return np.append(v, 0.0)


def factor_shifted(c: float, h: float, m: int):
    """Cholesky factorization of the shifted operator for repeated solves
    with a fixed coefficient (time stepping)."""
    return cholesky_banded(spd_banded(c, h, m), lower=False)


def solve_factored(factor, rhs: np.ndarray) -> np.ndarray:
    b = np.array(rhs, dtype=float)
    b[0] *= 0.5
    v = cho_solve_banded((factor, False), b)
    return np.append(v, 0.0)


def _cumulative_trapezoid(y: np.ndarray, h: float) -> np.ndarray:
    """Running trapezoid integral of y on spacing h, starting at 0 (the
    arithmetic of scipy.integrate.cumulative_trapezoid, whose import
    would pull in several scipy subpackages)."""
    return np.concatenate(([0.0], np.cumsum(h * (y[1:] + y[:-1]) / 2.0)))


def apply_green(
    kind: GreenKind, w: Profile, gamma: float, method: str = "solve"
) -> Profile:
    """Apply the screened resolvent (gamma_eff - D2)^{-1} to w.

    method="solve" uses the tridiagonal factorization with the truncation
    Dirichlet condition; method="quadrature" integrates the closed-form
    half-line kernel

        G(x, s) = exp(-sqrt(g) max(x,s)) cosh(sqrt(g) min(x,s)) / sqrt(g)

    by trapezoid sums split at the kernel kink. The two agree to
    O(h^2) + O(exp(-sqrt(gamma_eff) x_max)) away from the right boundary.
    """
    gamma_eff = gamma + kind.gamma_shift
    if gamma_eff <= 0.0:
        raise ValueError(f"effective decay gamma + shift = {gamma_eff} must be positive")
    grid = w.grid
    if method == "solve":
        v = solve_shifted(gamma_eff, w.values[:-1], grid.h)
        return Profile(grid, v)
    if method == "quadrature":
        sg = math.sqrt(gamma_eff)
        x = grid.nodes()
        grow = np.cosh(sg * x) * w.values
        decay = np.exp(-sg * x) * w.values
        prefix = _cumulative_trapezoid(grow, grid.h)
        suffix_total = _cumulative_trapezoid(decay, grid.h)
        suffix = suffix_total[-1] - suffix_total
        v = (np.exp(-sg * x) * prefix + np.cosh(sg * x) * suffix) / sg
        return Profile(grid, v)
    raise ValueError(f"unknown Green method {method!r}")


def _fd_residual(
    v: np.ndarray, u: np.ndarray, gamma: float, h: float
) -> np.ndarray:
    """Residual of (-D2 + gamma) v + v^3 - u on the solved rows 0..n-1."""
    m = len(v) - 1
    r = np.empty(m)
    r[0] = (2.0 * v[0] - 2.0 * v[1]) / h**2 + gamma * v[0] + v[0] * v[0] * v[0] - u[0]
    vi = v[1:m]
    r[1:m] = (
        (-v[0 : m - 1] + 2.0 * vi - v[2 : m + 1]) / h**2
        + gamma * vi
        + vi * vi * vi
        - u[1:m]
    )
    return r


@dataclass(frozen=True)
class InhibitorSolution:
    """Result of one nonlinear inhibitor solve v = N(u)."""

    v: Profile
    residual_max: float
    newton_iters: int
    converged: bool


def solve_inhibitor(
    u: Profile,
    gamma: float,
    tol: float = 1e-11,
    max_iters: int = 50,
    v_init: Profile | None = None,
) -> InhibitorSolution:
    """Solve v'' - gamma v - v^3 + u = 0 with Neumann at 0 and the
    truncation Dirichlet condition, by damped Newton.

    The initial iterate is the linear response (gamma - D2)^{-1} u unless a
    warm start is supplied. Each Newton step solves the tridiagonal system
    (-D2 + gamma + 3 v^2) delta = -residual and backtracks on the residual
    norm (Armijo on ||r||^2/2; the Newton direction is a descent direction
    for it at every iterate since the Jacobian is invertible), so the
    iteration is globally convergent and immune to the rounding noise that
    an energy-based test hits near the minimum. Convergence means max
    |residual| <= tol on all solved rows, where tol is widened to the
    roundoff floor of evaluating the 1/h^2 difference stencil when that
    floor exceeds it; failure is reported through the converged flag, never
    masked.
    """
    if gamma <= 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    grid = u.grid
    h = grid.h
    uu = u.values[:-1]

    if v_init is not None:
        if v_init.grid != grid:
            raise ValueError("warm start lives on a different grid")
        v = v_init.values.copy()
        v[-1] = 0.0
    else:
        v = solve_shifted(gamma, uu, h)

    eps = float(np.finfo(float).eps)

    def tol_floor(vv: np.ndarray) -> float:
        vmax = float(np.max(np.abs(vv)))
        umax = float(np.max(np.abs(uu))) if len(uu) else 0.0
        return max(tol, 8.0 * eps * (4.0 * vmax / h**2 + gamma * vmax + vmax**3 + umax))

    iters = 0
    r = _fd_residual(v, uu, gamma, h)
    res = float(np.max(np.abs(r)))
    rn2 = float(np.dot(r, r))
    converged = res <= tol_floor(v)

    while not converged and iters < max_iters:
        delta = solve_shifted(gamma + 3.0 * v[:-1] ** 2, -r, h)
        t = 1.0
        accepted = False
        for _ in range(40):
            r_try = _fd_residual(v + t * delta, uu, gamma, h)
            rn2_try = float(np.dot(r_try, r_try))
            if rn2_try <= (1.0 - 2e-4 * t) * rn2:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
        v = v + t * delta
        r, rn2 = r_try, rn2_try
        iters += 1
        res = float(np.max(np.abs(r)))
        converged = res <= tol_floor(v)

    interior_res = float(np.max(np.abs(r[1:]))) if len(r) > 1 else res
    return InhibitorSolution(
        v=Profile(grid, v),
        residual_max=interior_res,
        newton_iters=iters,
        converged=converged,
    )


def inhibitor_derivative(
    w: Profile, v: Profile, w_hat: Profile, gamma: float
) -> Profile:
    """Directional derivative of the inhibitor response at w applied to
    w_hat: solves v_hat'' - gamma v_hat - 3 v^2 v_hat = -w_hat with the same
    boundary conventions. v must be the response at w."""
    if w.grid != v.grid or w.grid != w_hat.grid:
        raise ValueError("profiles live on different grids")
    h = w.grid.h
    c = gamma + 3.0 * v.values[:-1] ** 2
    vh = solve_shifted(c, w_hat.values[:-1], h)
    return Profile(w.grid, vh)
