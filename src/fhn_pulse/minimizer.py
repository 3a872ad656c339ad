"""Projected steepest descent on the reduced energy over the admissible
set, with a coupled Newton polish once no constraint is active.

Each descent iteration takes a gradient trial step, re-detects the band
crossing indices from the pre-projection iterate, projects onto the
resulting bands, and accepts by Armijo backtracking. A trial whose
inhibitor solve fails is backtracked like one that fails the test, and
either kind ends the search once the step drops below STEP_MIN. The
Armijo test allows a slack of the roundoff of the energy sum (the
approximate Armijo condition of Hager and Zhang), so a step that moves J
by single ULPs near a minimum is not a line-search failure and the
verdict does not hang on the last bits. The initial step is a
Barzilai-Borwein estimate clamped to [1e-6, 1e2]. Line-search
comparisons use the variational form of the energy (alt_total), which is
stationary in the inner inhibitor iterate and therefore robust to its
solver tolerance; the two energy forms agree to the reported form_gap.

With no constraint active, the pulse is a root of the two discrete
steady equations, so descent is only needed to find its basin. The
polish runs damped Newton on the coupled (u, v) system
(operators.solve_steady) and keeps its root only when Newton converged
to one (a stall is refused before anything else is asked of it) and the
root is admissible, leaves no constraint active, meets gtol, does not
raise J beyond roundoff and has a positive Jacobian determinant (a
negative one marks a saddle of odd index, not a minimizer). Otherwise
descent goes on from where it was.

One rule schedules the polish. With no constraint active, it is due
after accepted steps 1, 2, 4, 8, ... (and at step 0 for a supplied
start) while a step is left, until a rest state is refused, and always
at a gtol stop. A kept root ends the descent and counts as one step. The
default start (default_initial_profile: the reduced-problem composite,
or a wide ramp where no singular-limit head exists) is not polished at
step 0: it lies outside Newton's contraction region, and polished from
there Newton wanders (at n = 4096 to a saddle), while one descent step
later it converges in a few steps. A refused root (a stall short of a
root, a saddle, a root outside the bands) is usually left behind by a
few descent steps; a refused rest state (no leading excursion above
beta) lies past the fold, where no pulse is left to find. That bounds
the attempts by 2 + log2(iterations), one more from a supplied start.
SolveResult records the outcome in `polish` and the coupled Newton steps
of every attempt, refused ones included, in `polish_steps`. The outcome
is newton (a root was kept), skipped (no attempt ran), saddle (descent
stopped by gtol on a root with a negative determinant, which is then no
pulse) or fallback (any other refusal). Cold, warm-started and refined
solves that polish reach the same discrete pulse once the grid resolves
the head (at d = 1e-6 on [0, 12], from n = 8192 on); on coarser grids
different starts can keep neighbouring discrete pulses, whose head ends
sit a node or two apart (see the README).

The far-end node is pinned at zero (Dirichlet truncation); the anchor band
[beta, 1] at the origin prevents translation and collapse to the rest
state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .admissible import BAND_TOL, band_bounds, build_q0, detect_crossings, project
from .energy import EnergyReport, evaluate_energy
from .grid import Grid, Profile, crossing_location
from .model import Params, _outer_roots, head_geometry, interface_width, negative_tail_cutoff
from .operators import ARMIJO_C, BACKTRACK, LS_MAX, InhibitorError, solve_steady
from .records import Record


STEP_INIT = 1.0
STEP_MIN = 1e-6
STEP_MAX = 1e2
# Armijo slack, as a multiple of the summed energy magnitudes: a change in J
# below the roundoff of the energy sum is neither a decrease nor a rise
ENERGY_ROUNDOFF = 16.0 * float(np.finfo(float).eps)
# a bound is active where the gradient pushes past it by more than this
ACTIVE_GRADIENT_TOL = 1e-6


@dataclass(frozen=True)
class MinimizeOptions:
    """Stopping controls; both are surfaced in the CLI config. gtol must be
    positive and finite (descent would otherwise spend every iteration on a
    test only an exact zero gradient meets) and max_iters nonnegative;
    max_iters = 0 only evaluates the projected start."""

    gtol: float = 1e-8
    max_iters: int = 50_000

    def __post_init__(self) -> None:
        if not (math.isfinite(self.gtol) and self.gtol > 0.0):
            raise ValueError(f"gtol must be positive and finite, got {self.gtol}")
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be nonnegative, got {self.max_iters}")


@dataclass(frozen=True)
class SolveResult(Record):
    """Converged (or best-effort) constrained minimizer with diagnostics."""

    params: Params
    grid: Grid
    u0: Profile
    v0: Profile
    energy: EnergyReport
    iterations: int
    converged: bool
    termination: str
    final_gradient_norm: float
    el_residual_max: float
    active_constraint_count: int
    active_constraint_fraction: float
    i1: int
    i2: int | None
    x1: float
    x2: float | None
    collapse_warnings: int
    newton_iters_total: int
    init_info: dict
    # defaults keep runs written before the polish existed loadable
    polish: str = "skipped"
    polish_steps: int = 0
    energy_history: list[float] = field(repr=False, default_factory=list)

    # bulk fields: the profiles are exported as CSV, the history not at all
    _exclude = ("u0", "v0", "energy_history")

    @property
    def is_pulse(self) -> bool:
        """A standing pulse: converged with no active constraint, and not
        stopped on a saddle. A stationary point that still leans on the
        constraint bands, or whose steady Jacobian has a negative
        determinant, is not a pulse, however small its projected gradient."""
        return (
            self.converged
            and self.active_constraint_count == 0
            and self.polish != "saddle"
        )


def build_outer_profile(params: Params, grid: Grid) -> Profile:
    """Reduced-problem composite: upper-branch head over a parabolic
    inhibitor sag up to the predicted head length, tanh transition layer
    of interface width, lower-branch tail under the exponentially decaying
    inhibitor. Close to the true pulse once the layer is thin relative to
    the head, so it makes a strong descent start. Raises ValueError where
    the singular-limit head does not exist (beta >= 1/2)."""
    head = head_geometry(params)
    v_m, rate, curv, x1 = head.v_m, head.rate, head.curv, head.x1
    x = grid.nodes()
    v = np.where(
        x <= x1,
        v_m + 0.5 * curv * (x1**2 - x**2),
        v_m * np.exp(-rate * np.maximum(x - x1, 0.0)),
    )
    tail, upper = _outer_roots(v, params.beta)
    blend = 0.5 * (1.0 - np.tanh((x - x1) / max(interface_width(params), grid.h)))
    u = blend * upper + (1.0 - blend) * tail
    u[-1] = 0.0
    return Profile(grid, u)


def default_initial_profile(params: Params, grid: Grid) -> tuple[Profile, dict]:
    """The reduced-problem composite (build_outer_profile) whenever the
    singular-limit head exists and has a node above beta on the grid. It
    is returned without evaluating its energy, which minimize does anyway.
    Only where no composite is available (beta >= 1/2, or a head below the
    grid) are wide unit-scale ramps q0(a, a + 0.8) scanned, keeping the
    first with negative energy, else the lowest."""
    try:
        outer = build_outer_profile(params, grid)
    except ValueError:
        outer = None
    if outer is not None and detect_crossings(outer, params.beta)[0] is not None:
        return outer, {"source": "default_scan", "chosen": "outer"}
    tried: list[tuple[float, float, float, Profile]] = []
    for a in (1.0, 0.5, 2.0, 4.0):
        b = a + 0.8
        if a < grid.h or b > grid.x_max:
            continue
        ramp = build_q0(a, b, grid)
        j = evaluate_energy(ramp, params)[0].alt_total
        tried.append((j, a, b, ramp))
        if j < 0.0:
            break
    if not tried:
        raise ValueError("grid too short for any default start")
    j_best, a, b, ramp = min(tried, key=lambda t: t[0])
    info = {
        "source": "default_scan",
        "chosen": "q0",
        "a": a,
        "b": b,
        "init_energy": j_best,
        "init_energy_negative": j_best < 0.0,
        "scan": [{"kind": "q0", "a": a, "b": b, "energy": j} for j, a, b, _ in tried],
    }
    return ramp, info


def _band_assignment(z: Profile, beta: float) -> tuple[int | None, int | None]:
    """Crossing indices used for the band projection.

    The admissible class is a union over breakpoint indices, so the
    minimizer is free to pick the pair that projects best. The detected i2
    (first nonpositive node after the head) is moved to the tail band when
    its value is strictly negative: clamping it to the mid-band floor of
    zero would pin the zero crossing one node late, against the gradient,
    and stall the descent there. A node exactly at zero keeps the detected
    assignment.
    """
    i1, i2 = detect_crossings(z, beta)
    if (
        i1 is not None
        and i2 is not None
        and i2 > i1 + 1
        and z.values[i2] < -BAND_TOL
    ):
        i2 -= 1
    return i1, i2


def _weighted_norm(values: np.ndarray, weights: np.ndarray) -> float:
    return math.sqrt(max(float(np.dot(weights, values * values)), 0.0))


def _stationarity(
    grid: Grid, w: np.ndarray, g: np.ndarray, i1: int, i2: int | None,
    beta: float, M: float,
) -> tuple[float, int]:
    """Weighted norm of the projected gradient and the active constraint
    count. A node at a band bound has its gradient component dropped when
    the gradient pushes past the bound, and is active when it pushes by
    more than ACTIVE_GRADIENT_TOL; the pinned truncation node carries no
    multiplier."""
    lower, upper = band_bounds(grid, i1, i2, beta, M)
    at_lower = np.abs(w - lower) <= BAND_TOL
    at_upper = np.abs(w - upper) <= BAND_TOL
    pg = np.where((at_lower & (g > 0.0)) | (at_upper & (g < 0.0)), 0.0, g)
    active = (at_lower & (g > ACTIVE_GRADIENT_TOL)) | (
        at_upper & (g < -ACTIVE_GRADIENT_TOL)
    )
    active[-1] = False
    return _weighted_norm(pg, grid.weights()), int(np.count_nonzero(active))


def _energy_floor(report: EnergyReport) -> float:
    """Roundoff of the energy sum: changes of J below it are neither a
    decrease nor a rise."""
    return ENERGY_ROUNDOFF * (
        abs(report.gradient_term)
        + abs(report.potential_term)
        + abs(report.nonlocal_term)
        + abs(report.alt_total)
    )


@dataclass(frozen=True)
class PolishAttempt:
    """One coupled Newton polish: its Newton steps, the Jacobian
    determinant sign at its root and, when the root is refused, why: one of
    "singular", "stalled" (Newton stopped short of a root), "saddle"
    (negative determinant), "rest_state" (no leading excursion above beta,
    the rest state past the fold), "outside_bands" (projection moves it),
    "inhibitor" (the inhibitor solve at it fails), "not_stationary" (a
    constraint active or gtol missed) or "energy_rise".
    refusal is None for a kept root."""

    steps: int
    det_sign: int
    refusal: str | None


def _newton_polish(
    params: Params, grid: Grid, w: np.ndarray, v: Profile,
    report: EnergyReport, M: float, gtol: float,
) -> tuple[PolishAttempt, tuple | None]:
    """Coupled Newton from (w, v) and the acceptance test of its root.

    Returns the attempt and, when the root is kept, the state (w, i1, i2,
    report, g, sol, gnorm) that replaces the iterate, else None."""
    st = solve_steady(w, v.values, params.d, params.beta, params.gamma, grid.h)

    def refused(reason: str) -> tuple[PolishAttempt, None]:
        return PolishAttempt(st.steps, st.det_sign, reason), None

    if st.det_sign == 0:
        return refused("singular")
    if not st.converged:
        return refused("stalled")
    if st.det_sign < 0:
        return refused("saddle")
    root = Profile(grid, st.u)
    i1, i2 = _band_assignment(root, params.beta)
    if i1 is None:
        return refused("rest_state")
    projected = project(root, i1, i2, params.beta, M).values
    if not np.array_equal(projected, st.u):
        return refused("outside_bands")
    try:
        report_n, grad_n, sol_n = evaluate_energy(root, params, v_init=Profile(grid, st.v))
    except InhibitorError:
        return refused("inhibitor")
    g = grad_n.values.copy()
    g[-1] = 0.0
    gnorm, active = _stationarity(grid, st.u, g, i1, i2, params.beta, M)
    if active or gnorm > gtol:
        return refused("not_stationary")
    if report_n.alt_total > report.alt_total + _energy_floor(report):
        return refused("energy_rise")
    attempt = PolishAttempt(st.steps, st.det_sign, None)
    return attempt, (st.u, i1, i2, report_n, g, sol_n, gnorm)


def _interp_crossing(u: Profile, level: float, i: int) -> float:
    try:
        return crossing_location(u, level, i)
    except ValueError:
        return i * u.grid.h


def minimize(
    params: Params,
    grid: Grid,
    init: Profile | None = None,
    options: MinimizeOptions | None = None,
) -> SolveResult:
    """Run projected descent from init (default_initial_profile when None),
    with the coupled Newton polish on the module's one schedule: with no
    constraint active, after accepted steps 1, 2, 4, ... (and at step 0
    for a supplied init) while a step is left, until a rest state is
    refused, and at a gtol stop.

    Deterministic for a given config. Termination is "gtol" when the
    weighted L2 norm of the projected gradient drops to options.gtol (by
    descent or by a kept Newton root), "max_iters" or "line_search"
    otherwise (converged=False for both).
    """
    opts = options or MinimizeOptions()
    M = negative_tail_cutoff(params.beta, params.gamma)
    weights = grid.weights()

    if init is None:
        start, init_info = default_initial_profile(params, grid)
    else:
        if init.grid != grid:
            raise ValueError("initial profile lives on a different grid")
        start, init_info = init, {"source": "user"}

    i1, i2 = _band_assignment(start, params.beta)
    if i1 is None:
        raise ValueError(
            "initial profile has no leading excursion above beta; "
            "not admissible"
        )
    w = project(start, i1, i2, params.beta, M).values.copy()
    w[-1] = 0.0

    report, grad, sol = evaluate_energy(Profile(grid, w), params)
    J = report.alt_total
    init_info.setdefault("init_energy", J)
    init_info.setdefault("init_energy_negative", J < 0.0)
    g = grad.values.copy()
    g[-1] = 0.0
    newton_total = sol.newton_iters
    gnorm, active_count = _stationarity(grid, w, g, i1, i2, params.beta, M)

    history = [J]
    collapse_warnings = 0
    iterations = 0
    termination = "max_iters"
    converged = False
    step = STEP_INIT
    prev_dw: np.ndarray | None = None
    prev_g = g

    polish, polish_steps = "skipped", 0
    scheduled = True  # until a rest state is refused
    while iterations < opts.max_iters:
        stop = gnorm <= opts.gtol
        # iterations & (iterations - 1) is 0 at 0, 1, 2, 4, ...; the
        # default start, which Newton wanders from, is not polished
        due = (
            scheduled
            and iterations & (iterations - 1) == 0
            and (iterations > 0 or init is not None)
        )
        if active_count == 0 and (stop or due):
            attempt, kept = _newton_polish(
                params, grid, w, sol.v, report, M, opts.gtol
            )
            polish_steps += attempt.steps
            if kept is not None:
                # the root replaces the iterate as one more step
                w, i1, i2, report, g, sol, gnorm = kept
                newton_total += sol.newton_iters
                iterations += 1
                history.append(report.alt_total)
                converged, termination, polish, active_count = True, "gtol", "newton", 0
                break
            # descent cannot leave a stationary point, so a root refused at
            # a stop for its negative determinant is where descent stopped
            polish = "saddle" if stop and attempt.refusal == "saddle" else "fallback"
            if attempt.refusal == "rest_state":
                scheduled = False
        if stop:
            termination = "gtol"
            converged = True
            break

        if prev_dw is not None:
            dg = g - prev_g
            num = float(np.dot(weights, prev_dw * prev_dw))
            den = float(np.dot(weights, prev_dw * dg))
            if den > 0.0 and num > 0.0:
                step = num / den
        step = min(max(step, STEP_MIN), STEP_MAX)

        floor = _energy_floor(report)
        t = step
        accepted = False
        for _ in range(LS_MAX):
            z = Profile(grid, w - t * g)
            i1_t, i2_t = _band_assignment(z, params.beta)
            if i1_t is None:
                collapse_warnings += 1
                i1_t, i2_t = i1, i2
            w_try = project(z, i1_t, i2_t, params.beta, M).values.copy()
            w_try[-1] = 0.0
            # a trial whose inhibitor solve fails is refused like one that
            # misses the Armijo test
            try:
                report_t, grad_t, sol_t = evaluate_energy(
                    Profile(grid, w_try), params, v_init=sol.v
                )
            except InhibitorError:
                pass
            else:
                predicted = float(np.dot(weights, g * (w_try - w)))
                if report_t.alt_total <= J + ARMIJO_C * min(predicted, 0.0) + floor:
                    accepted = True
                    break
            t *= BACKTRACK
            if t < STEP_MIN:
                break

        if not accepted:
            termination = "line_search"
            break

        prev_dw = w_try - w
        prev_g = g
        w = w_try
        i1, i2 = i1_t, i2_t
        J = report_t.alt_total
        report = report_t
        g = grad_t.values.copy()
        g[-1] = 0.0
        sol = sol_t
        newton_total += sol_t.newton_iters
        iterations += 1
        history.append(J)
        gnorm, active_count = _stationarity(grid, w, g, i1, i2, params.beta, M)

    u0 = Profile(grid, w)
    x1 = _interp_crossing(u0, params.beta, min(i1, grid.n - 1))
    x2 = None
    if i2 is not None:
        # zero crossing sits in [i2-1, i2] when node i2 is exactly zero and
        # in [i2, i2+1] when the crossing node was assigned to the tail
        try:
            x2 = crossing_location(u0, 0.0, max(i2 - 1, 0))
        except ValueError:
            x2 = _interp_crossing(u0, 0.0, min(i2, grid.n - 1))

    return SolveResult(
        params=params,
        grid=grid,
        u0=u0,
        v0=sol.v,
        energy=report,
        iterations=iterations,
        converged=converged,
        termination=termination,
        final_gradient_norm=gnorm,
        el_residual_max=float(np.max(np.abs(g[1:-1]))),
        active_constraint_count=active_count,
        active_constraint_fraction=active_count / (grid.n + 1),
        i1=i1,
        i2=i2,
        x1=x1,
        x2=x2,
        collapse_warnings=collapse_warnings,
        newton_iters_total=newton_total,
        init_info=init_info,
        polish=polish,
        polish_steps=polish_steps,
        energy_history=history,
    )
