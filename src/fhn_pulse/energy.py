"""Reduced variational energy of a profile and its exact discrete gradient.

For a profile w with inhibitor response v = N(w), the energy is

    J(w) = int d w'^2 / 2 + w v / 2 + F(w) + v^4 / 4,

discretized with interval sums for squared slopes and trapezoid weights for
value terms. Because v minimizes the convex inhibitor objective, J is
stationary in v, so the gradient of the discrete J reduces to

    g = -d w'' - f(w) + v

exactly (mass-matrix normalized, with Neumann-consistent boundary rows).
The alternative form replaces the nonlocal integrand by
-v'^2/2 - gamma v^2/2 - v^4/4 + w v; the two totals agree up to the
inhibitor solver tolerance, and the gap is reported as a diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Profile
from .model import Params, potential_F
from .operators import (
    InhibitorError,
    InhibitorSolution,
    _gradient_values,
    solve_inhibitor,
)
from .records import Record


@dataclass(frozen=True)
class EnergyReport(Record):
    total: float
    gradient_term: float
    potential_term: float
    nonlocal_term: float
    alt_total: float
    form_gap: float


def evaluate_energy(
    w: Profile,
    params: Params,
    v_init: Profile | None = None,
    inhibitor_tol: float = 1e-11,
) -> tuple[EnergyReport, Profile, InhibitorSolution]:
    """One inhibitor solve yielding the energy report, the gradient profile,
    and the inhibitor solution (for warm starts). Raises InhibitorError when
    the inner solve does not converge."""
    sol = solve_inhibitor(w, params.gamma, tol=inhibitor_tol, v_init=v_init)
    if not sol.converged:
        raise InhibitorError(
            f"inhibitor solve failed: residual {sol.residual_max:.3e} after "
            f"{sol.newton_iters} Newton steps"
        )
    grid = w.grid
    h = grid.h
    weights = grid.weights()
    wv = w.values
    vv = sol.v.values

    dw = np.diff(wv)
    gradient_term = 0.5 * params.d * float(np.dot(dw, dw)) / h
    potential_term = float(np.dot(weights, potential_F(wv, params.beta)))
    vv2 = vv * vv
    vv4 = vv2 * vv2
    nonlocal_term = float(np.dot(weights, 0.5 * wv * vv + 0.25 * vv4))
    total = gradient_term + potential_term + nonlocal_term

    dv = np.diff(vv)
    stiff_v = float(np.dot(dv, dv)) / h
    alt_nonlocal = (
        -0.5 * stiff_v
        - float(np.dot(weights, 0.5 * params.gamma * vv2 + 0.25 * vv4))
        + float(np.dot(weights, wv * vv))
    )
    alt_total = gradient_term + potential_term + alt_nonlocal

    report = EnergyReport(
        total=total,
        gradient_term=gradient_term,
        potential_term=potential_term,
        nonlocal_term=nonlocal_term,
        alt_total=alt_total,
        form_gap=abs(total - alt_total),
    )
    grad = Profile(grid, _gradient_values(wv, vv, params.d, params.beta, h))
    return report, grad, sol

