"""A-posteriori verification: linearization data, decay-rate fits, the
Hamiltonian identity, qualitative pulse properties, and the randomized
operator/energy inequality suite.

Every check records an explicit witness value and tolerance; strict
inequalities are tested with a stated margin. Reports serialize to JSON and
render a human-readable text summary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .admissible import build_q0, project, q0_energy_upper_bound
from .energy import energy_report, evaluate_energy
from .grid import Grid, Profile, derivative, inner_l2, norm_h1, norm_l2
from .minimizer import SolveResult
from .model import Params, compute_constants, potential_F
from .operators import GreenKind, apply_green, solve_inhibitor
from .records import Record


# ---------------------------------------------------------------------------
# Linearization at the rest state


@dataclass(frozen=True)
class LinearizationReport(Record):
    """Eigen-data of the rest-state linearization matrix
    [[beta/d, 1/d], [-1, gamma]] and the derived ordering chain."""

    d: float
    gamma: float
    beta: float
    trace: float
    det: float
    discriminant: float
    real_eigenvalues: bool
    lambda1: float
    lambda2: float
    alpha1: float
    alpha2: float
    a_vec: tuple[float, float]
    b_vec: tuple[float, float]
    l1_vec: tuple[float, float]
    l2_vec: tuple[float, float]
    sign_products: tuple[float, float]
    slow_rate: float
    fast_rate: float
    ordering_ok: bool


def linearize(params: Params) -> LinearizationReport:
    """Eigenvalues/eigenvectors of the far-field linearization.

    Uses the numerically stable quadratic path: the large root from the
    sign-matched formula, the small root from the product. When the
    discriminant is nonpositive the eigenvalues are complex (out of regime)
    and the numeric fields are NaN.
    """
    d, gamma, beta = params.d, params.gamma, params.beta
    trace = beta / d + gamma
    det = (beta * gamma + 1.0) / d
    disc = trace * trace - 4.0 * det
    if disc <= 0.0:
        nan = math.nan
        return LinearizationReport(
            d=d, gamma=gamma, beta=beta, trace=trace, det=det, discriminant=disc,
            real_eigenvalues=False, lambda1=nan, lambda2=nan, alpha1=nan,
            alpha2=nan, a_vec=(nan, nan), b_vec=(nan, nan), l1_vec=(nan, nan),
            l2_vec=(nan, nan), sign_products=(nan, nan), slow_rate=nan,
            fast_rate=nan, ordering_ok=False,
        )
    lam2 = 0.5 * (trace + math.sqrt(disc))
    lam1 = det / lam2
    alpha2 = beta / d - lam1
    alpha1 = 1.0 / (d * alpha2)
    a_vec = (-1.0, d * alpha2)
    b_vec = (-alpha2, 1.0)
    l1_vec = (1.0, alpha2)
    l2_vec = (1.0, alpha1)
    l1_dot_a = -1.0 + d * alpha2 * alpha2
    l2_dot_b = alpha1 - alpha2
    half_beta = beta / (2.0 * d)
    chain = (
        0.0 < lam1 < half_beta < 0.5 * trace < lam2 < beta / d
        and 0.0 < alpha1 < lam1
        and half_beta < alpha2 < lam2
    )
    return LinearizationReport(
        d=d, gamma=gamma, beta=beta, trace=trace, det=det, discriminant=disc,
        real_eigenvalues=True, lambda1=lam1, lambda2=lam2, alpha1=alpha1,
        alpha2=alpha2, a_vec=a_vec, b_vec=b_vec, l1_vec=l1_vec, l2_vec=l2_vec,
        sign_products=(l1_dot_a, l2_dot_b), slow_rate=math.sqrt(lam1),
        fast_rate=math.sqrt(lam2), ordering_ok=chain,
    )


# ---------------------------------------------------------------------------
# Tail decay and the Hamiltonian identity


def fit_decay(u: Profile, window: tuple[float, float]) -> float:
    """Least-squares decay rate of |u| on the window: fits log |u| against x
    and returns the negated slope. The window must contain at least three
    nodes, all strictly one-signed."""
    lo, hi = window
    x = u.grid.nodes()
    mask = (x >= lo) & (x <= hi)
    if int(mask.sum()) < 3:
        raise ValueError(f"decay window [{lo}, {hi}] holds fewer than 3 nodes")
    vals = u.values[mask]
    if np.any(vals == 0.0) or (np.min(vals) < 0.0 < np.max(vals)):
        raise ValueError(
            f"decay window [{lo}, {hi}] contains a zero or sign change"
        )
    slope = np.polyfit(x[mask], np.log(np.abs(vals)), 1)[0]
    return float(-slope)


def default_decay_window(x2: float, slow_rate: float, x_max: float) -> tuple[float, float]:
    """Two slow-decay lengths past the zero crossing up to two lengths short
    of the truncation boundary."""
    pad = 2.0 / slow_rate
    return (x2 + pad, x_max - pad)


def hamiltonian_residual(u: Profile, v: Profile, params: Params) -> Profile:
    """Pointwise residual of the first integral

        v'^2/2 - gamma v^2/2 - v^4/4 + u v - d u'^2/2 + F(u),

    which vanishes along any localized steady state. Derivatives are the
    second-order grid stencils, so the residual of a converged pulse decays
    at O(h^2)."""
    if u.grid != v.grid:
        raise ValueError("profiles live on different grids")
    du = derivative(u).values
    dv = derivative(v).values
    uu, vv = u.values, v.values
    res = (
        0.5 * dv**2
        - 0.5 * params.gamma * vv**2
        - 0.25 * vv**4
        + uu * vv
        - 0.5 * params.d * du**2
        + potential_F(uu, params.beta)
    )
    return Profile(u.grid, res)


# ---------------------------------------------------------------------------
# Qualitative pulse properties


@dataclass(frozen=True)
class PropertyCheck(Record):
    name: str
    passed: bool
    witness: float
    tolerance: float
    detail: str = ""


@dataclass(frozen=True)
class PropertyReport(Record):
    checks: tuple[PropertyCheck, ...]

    _derived = ("all_passed",)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_text(self) -> str:
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(
                f"[{status}] {c.name}: witness={c.witness:.6g} "
                f"tol={c.tolerance:.3g} {c.detail}".rstrip()
            )
        lines.append(f"overall: {'pass' if self.all_passed else 'FAIL'}")
        return "\n".join(lines)


def _hysteresis_crossings(
    values: np.ndarray, level: float, delta: float
) -> tuple[int, int]:
    """Count downward and upward crossings of `level` with hysteresis band
    +-delta; excursions that never leave the band are ignored.

    Each node is +1 above the band, -1 below it and 0 inside it (NaN
    included); with the 0s dropped, a crossing is a change of sign between
    neighbours."""
    s = values - level
    side = (s > delta).astype(np.int8) - (s < -delta)
    jumps = np.diff(side[side != 0])
    return int(np.count_nonzero(jumps < 0)), int(np.count_nonzero(jumps > 0))


# Inputs a property check may require. A check whose input is missing fails
# with a NaN witness and a detail naming that input.
NEEDS_X2 = "x2"
NEEDS_EIGEN = "real eigenvalues"


def check_pulse_properties(result: SolveResult) -> PropertyReport:
    """Verify the qualitative standing-pulse properties of a converged
    minimizer: unique level crossings with negative slope, sign bands,
    a unique negative tail minimum, inhibitor positivity and tail decrease,
    the two eigenvector-combination barriers, the slow decay rate, the
    Hamiltonian identity, and the steady-state residual.

    Refuses non-converged input. Tail windows exclude the last two slow
    decay lengths before x_max, where profile magnitudes sit at roundoff.
    """
    if not result.converged:
        raise ValueError("pulse property checks require a converged result")
    params = result.params
    u, v = result.u0, result.v0
    grid = u.grid
    h = grid.h
    x = grid.nodes()
    beta = params.beta
    lin = linearize(params)

    tol_weak = 10.0 * (h**2 + 1e-11)
    deriv_tol = 1e-6
    hyst = max(1e-7, 10.0 * h**2)
    rate_rel_tol = 0.05
    # Hamiltonian identity; the second-difference error peaks inside the
    # transition layer of width ~ sqrt(d), giving a residual constant that
    # grows like 1/d, hence the h^2/d term (coefficient measured ~7e-4)
    ham_tol = max(100.0 * h**2, 5e-3 * h**2 / params.d)
    el_tol = 1e-5
    pad = 2.0 / lin.slow_rate if lin.real_eigenvalues else 2.0
    tail_hi = grid.x_max - pad
    i1, i2 = result.i1, result.i2
    du = derivative(u).values

    # each check returns (passed, witness, detail)
    def crossing(level, i, label, at):
        # unique crossing of the level with negative slope
        down, up = _hysteresis_crossings(u.values, level, hyst)
        slope = float(du[min(i, grid.n)])
        passed = down == 1 and up == 0 and slope < -deriv_tol
        return passed, slope, f"down={down} up={up} {label}={at:.6g}"

    def sign_bands():
        # u > beta before x1, 0 < u < beta between, u < 0 after x2
        head = u.values[: i1 + 1]
        head_viol = float(beta - np.min(head)) if len(head) else math.inf
        mid = u.values[i1 + 1 : i2]
        mid_viol = (
            max(float(np.max(mid) - beta), float(-np.min(mid)))
            if len(mid)
            else 0.0
        )
        tail = u.values[(x > x[i2]) & (x <= tail_hi)]
        tail_viol = float(np.max(tail)) if len(tail) else 0.0
        worst = max(head_viol, mid_viol, tail_viol)
        return worst <= tol_weak, worst, "max violation over the three bands"

    def u_decreasing_mid():
        worst = float(np.max(du[i1 : i2 + 1]))
        return worst < deriv_tol, worst, "max u' on [x1, x2]"

    def unique_negative_min():
        # exactly one (strictly negative) local minimum on the tail, equal
        # to the global minimum beyond x1
        seg = u.values[i2 + 1 : int(np.searchsorted(x, tail_hi)) + 1]
        is_min = np.zeros(len(seg), dtype=bool)
        if len(seg) >= 3:
            is_min[1:-1] = (
                (seg[1:-1] <= seg[:-2])
                & (seg[1:-1] <= seg[2:])
                & (seg[1:-1] < -hyst)
            )
        # adjacent flagged nodes are one flat minimum, not two; the tail
        # segment is empty when x2 sits at the truncation boundary
        starts = is_min[1:] & ~is_min[:-1]
        runs = int(np.count_nonzero(starts)) + int(is_min[:1].any())
        min_val = float(np.min(seg[is_min])) if is_min.any() else math.inf
        global_min = float(np.min(u.values[i1:]))
        agree = abs(min_val - global_min) <= tol_weak if runs else False
        detail = f"local minima runs={runs}, global min={global_min:.6g}"
        return runs == 1 and min_val < -hyst and agree, min_val, detail

    def v_positive():
        # inhibitor strictly positive (up to the weak tolerance near truncation)
        body = v.values[x <= tail_hi]
        v_min = float(np.min(body)) if len(body) else 0.0
        return v_min > -tol_weak, v_min, "min v on [0, x_max - pad]"

    def v_decreasing_tail():
        slopes = derivative(v).values[(x >= x[i2]) & (x <= tail_hi)]
        worst = float(np.max(slopes)) if len(slopes) else 0.0
        return worst < deriv_tol, worst, "max v' on [x2, x_max - pad]"

    def psi_min(alpha):
        # eigenvector-combination barrier u + alpha v
        psi = float(np.min(u.values + alpha * v.values))
        return psi >= -tol_weak, psi, ""

    def slow_decay_rate():
        # slow decay rate of the activator tail
        window = default_decay_window(result.x2, lin.slow_rate, grid.x_max)
        try:
            rate = fit_decay(u, window)
        except ValueError as err:
            return False, math.nan, str(err)
        rel = abs(rate - lin.slow_rate) / lin.slow_rate
        detail = f"predicted {lin.slow_rate:.6g}, relative error {rel:.3g}"
        return rel <= rate_rel_tol, rate, detail

    def hamiltonian_identity():
        ham = hamiltonian_residual(u, v, params).values
        ham_max = float(np.max(np.abs(ham[1:-1])))
        detail = "max interior residual of the first integral"
        return ham_max <= ham_tol, ham_max, detail

    def steady_state_residual():
        # Euler-Lagrange residual
        el = result.el_residual_max
        return el <= el_tol, el, "max interior |d u'' + f(u) - v|"

    table = (
        ("level_crossing_unique", deriv_tol, (),
         lambda: crossing(beta, i1, "x1", result.x1)),
        ("zero_crossing_unique", deriv_tol, (NEEDS_X2,),
         lambda: crossing(0.0, i2, "x2", result.x2)),
        ("sign_bands", tol_weak, (NEEDS_X2,), sign_bands),
        ("u_decreasing_mid", deriv_tol, (NEEDS_X2,), u_decreasing_mid),
        ("unique_negative_min", hyst, (NEEDS_X2,), unique_negative_min),
        ("v_positive", tol_weak, (), v_positive),
        ("v_decreasing_tail", deriv_tol, (NEEDS_X2,), v_decreasing_tail),
        ("psi1_nonnegative", tol_weak, (NEEDS_EIGEN,), lambda: psi_min(lin.alpha2)),
        ("psi2_nonnegative", tol_weak, (NEEDS_EIGEN,), lambda: psi_min(lin.alpha1)),
        ("slow_decay_rate", rate_rel_tol, (NEEDS_EIGEN, NEEDS_X2), slow_decay_rate),
        ("hamiltonian_identity", ham_tol, (), hamiltonian_identity),
        ("steady_state_residual", el_tol, (), steady_state_residual),
    )
    have = {NEEDS_X2: i2 is not None, NEEDS_EIGEN: lin.real_eigenvalues}
    checks = []
    for name, tolerance, needs, check in table:
        missing = [need for need in needs if not have[need]]
        if missing:
            passed, witness = False, math.nan
            detail = "missing " + " and ".join(missing)
        else:
            passed, witness, detail = check()
        checks.append(PropertyCheck(name, passed, witness, tolerance, detail))
    return PropertyReport(checks=tuple(checks))


# ---------------------------------------------------------------------------
# Randomized inequality suite


@dataclass(frozen=True)
class SuiteCheck(Record):
    name: str
    n_pass: int
    n_total: int
    worst_margin: float
    tolerance: float
    detail: str = ""

    _derived = ("passed",)

    @property
    def passed(self) -> bool:
        """Every sample passed, and there was at least one: a check that
        saw no sample verified nothing."""
        return self.n_total > 0 and self.n_pass == self.n_total


@dataclass(frozen=True)
class InequalitySuiteReport(Record):
    beta: float
    gamma: float
    d: float
    x_max: float
    n: int
    n_samples: int
    seed: int
    checks: tuple[SuiteCheck, ...]

    _derived = ("all_passed",)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_text(self) -> str:
        lines = [
            f"inequality suite: beta={self.beta} gamma={self.gamma} d={self.d} "
            f"x_max={self.x_max} n={self.n} samples={self.n_samples} seed={self.seed}"
        ]
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(
                f"[{status}] {c.name}: {c.n_pass}/{c.n_total} "
                f"worst_margin={c.worst_margin:.3e} tol={c.tolerance:.1e} {c.detail}".rstrip()
            )
        lines.append(f"overall: {'pass' if self.all_passed else 'FAIL'}")
        return "\n".join(lines)


def random_bumps(rng: np.random.Generator, grid: Grid, span: float) -> np.ndarray:
    """Smooth random superposition of 3-6 Gaussians supported (to machine
    precision) inside [0, span]: draws the bump count, then each bump's
    center in [0, span], width and amplitude."""
    x = grid.nodes()
    out = np.zeros_like(x)
    for _ in range(int(rng.integers(3, 7))):
        c, width, amp = (
            rng.uniform(0.0, span), rng.uniform(0.3, 1.5), rng.uniform(-1.5, 1.5)
        )
        out += amp * np.exp(-((x - c) ** 2) / (2.0 * width**2))
    return out


# random_admissible_profile draws its crossing indices from ranges that are
# empty on a grid of fewer nodes
_MIN_SAMPLE_NODES = 30


def random_admissible_profile(
    rng: np.random.Generator, grid: Grid, beta: float, M: float
) -> Profile:
    """Seeded admissible sample: a smooth bump superposition plus a leading
    plateau, projected onto bands at random crossing indices i1 < i2, which
    are drawn before the bumps."""
    n = grid.n
    i1 = int(rng.integers(max(4, n // 40), n // 6))
    i2 = int(rng.integers(i1 + max(4, n // 40), n // 3))
    raw = random_bumps(rng, grid, grid.x_max / 2.0)
    raw[: i1 + 1] += 1.0  # bias the head into [beta, 1]
    return project(Profile(grid, raw), i1, i2, beta, M)


# The inequality suite's checks in report order, each as (name, held to the
# suite's tol, detail). The three single-value cross-checks are held with
# tolerance 0; a detail of None is formatted by the run.
_SUITE_CHECKS: tuple[tuple[str, bool, str | None], ...] = (
    ("response_h1_bound", True, "max{1,1/gamma} ||w||_2 - ||Nw||_H1"),
    ("response_lipschitz", True, "max{1,1/gamma} ||w2-w1||_2 - ||Nw2-Nw1||_H1"),
    ("response_monotone", True, "min (N w - N(w - bump))"),
    ("resolvent_sandwich", True, "min(Nw - L0 w, L w - Nw), w >= 0"),
    ("response_bounds", True, "-(M+1) <= Nw <= 1 on admissible w"),
    ("resolvent_self_adjoint", True, "-|<w1, L w2> - <w2, L w1>|"),
    ("nonlocal_positive", True, "<w, N w>"),
    ("nonlocal_difference_positive", True, "<w1-w2, Nw1-Nw2>"),
    ("decomposition_lower_bound", True, "<w,Nw> - [<f-g, Nf-Ng> - 4 <Lf, Lg>]"),
    ("energy_two_form_gap", True, "-|total - alt_total|"),
    ("response_energy_identity", True, "-|<w,Nw> - int(v'^2 + gamma v^2 + v^4)|"),
    ("competitor_gap_closed_form", False, None),
    ("competitor_gap_on_grid", False, None),
    ("energy_lower_bound", True, "J(w) + M1"),
    ("green_methods_order_h2", False, None),
)


def _pair_margins(
    prev: tuple[Profile, ...], cur: tuple[Profile, ...], lip_const: float
) -> tuple[float, float]:
    """response_lipschitz and nonlocal_difference_positive margins of two
    consecutive samples, each given as (w, N w, s, N s)."""
    w0, nw0, s0, ns0 = prev
    w1, nw1, s1, ns1 = cur
    grid = w1.grid
    # Lipschitz continuity between the smooth samples
    ds = Profile(grid, s1.values - s0.values)
    dns = Profile(grid, ns1.values - ns0.values)
    lipschitz = lip_const * norm_l2(ds) - norm_h1(dns)
    # nonlocal positivity, difference form, on the admissible samples
    dw = Profile(grid, w1.values - w0.values)
    dnw = Profile(grid, nw1.values - nw0.values)
    return lipschitz, inner_l2(dw, dnw)


def _sample_range(params: Params, grid: Grid, seed: int, lo: int, hi: int):
    """Margins of the suite's samples lo..hi-1 (lo even).

    Sample k draws from its own generator, seeded by child k of
    numpy.random.SeedSequence(seed): the admissible sample w, the smooth
    sample s and, for odd k, the monotonicity bump. So no sample depends
    on which range holds it, and no self-adjoint pair (k - 1, k), k odd,
    straddles an even lo. Returns the margins in sample order (the pairs
    inside the range only) and the (w, N w, s, N s) of the range's first
    and last samples, from which the pair that straddles two adjacent
    ranges is formed."""
    beta, gamma = params.beta, params.gamma
    consts = compute_constants(beta, gamma)
    M = consts.M
    weights = grid.weights()
    lip_const = max(1.0, 1.0 / gamma)
    span = grid.x_max / 2.0

    margins: dict[str, list[float]] = {name: [] for name, _, _ in _SUITE_CHECKS}
    first = prev = prev_ls = None
    for k in range(lo, hi):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))
        w = random_admissible_profile(rng, grid, beta, M)
        s = Profile(grid, random_bumps(rng, grid, span))
        bump = np.abs(random_bumps(rng, grid, span)) if k % 2 == 1 else None

        # each linear response is solved once. L(pos) and L(neg) start N(pos)
        # and N(neg); a sample with no negative node is its own positive
        # part, whose L(pos) starts N w and whose N(pos) is N w. L(s) starts
        # N s and serves the self-adjoint pair
        pos = Profile(grid, np.maximum(w.values, 0.0))
        neg = Profile(grid, np.maximum(-w.values, 0.0))
        has_neg = bool(neg.values.any())
        lf = apply_green(GreenKind.L, pos, gamma)
        lg = apply_green(GreenKind.L, neg, gamma)
        nw = solve_inhibitor(w, gamma, v_linear=None if has_neg else lf).v
        ls = apply_green(GreenKind.L, s, gamma)
        ns = solve_inhibitor(s, gamma, v_linear=ls).v

        # H1 bound of the response on smooth input
        margins["response_h1_bound"].append(lip_const * norm_l2(s) - norm_h1(ns))
        if k % 2 == 1:
            # self-adjointness of the linear resolvent on the pair (k-1, k),
            # where prev[2] is s of sample k - 1
            margins["resolvent_self_adjoint"].append(
                -abs(inner_l2(prev[2], ls) - inner_l2(s, prev_ls))
            )

        if bump is not None:
            # monotonicity: w and w minus a nonnegative bump
            n_low = solve_inhibitor(Profile(grid, w.values - bump), gamma).v
            margins["response_monotone"].append(
                float(np.min(nw.values - n_low.values))
            )

        # resolvent sandwich on nonnegative admissible input, and the
        # positive/negative-part decomposition lower bound on every
        # admissible sample; both use N of the positive part. The sandwich
        # bounds go through the quadrature kernels so it doubles as a
        # cross-method agreement test against the Newton solve (the
        # half-line kernel sits above the truncated resolvent, which only
        # widens the upper margin)
        n_pos = solve_inhibitor(pos, gamma, v_linear=lf).v if has_neg else nw
        if bump is not None:
            v = n_pos.values
            low = apply_green(GreenKind.L0, pos, gamma, method="quadrature").values
            high = apply_green(GreenKind.L, pos, gamma, method="quadrature").values
            margins["resolvent_sandwich"].append(
                min(float(np.min(v - low)), float(np.min(high - v)))
            )
        n_neg = solve_inhibitor(neg, gamma, v_linear=lg).v
        w_nw = inner_l2(w, nw)
        rhs = (
            float(
                np.dot(
                    weights,
                    (pos.values - neg.values) * (n_pos.values - n_neg.values),
                )
            )
            - 4.0 * inner_l2(lf, lg)
        )
        margins["decomposition_lower_bound"].append(w_nw - rhs)

        # pointwise response bounds on admissible input
        vv = nw.values
        margins["response_bounds"].append(
            min(float(np.min(vv + M + 1.0)), float(np.min(1.0 - vv)))
        )

        # nonlocal positivity
        margins["nonlocal_positive"].append(w_nw)

        # energy two-form identity, the energy lower bound -M1 and the
        # response-energy identity, from the sample's response: a solve
        # started from it would stop there after no Newton step
        report = energy_report(w, nw, params)
        margins["energy_two_form_gap"].append(-report.form_gap)
        margins["energy_lower_bound"].append(report.total + consts.M1)
        dv = np.diff(vv)
        vv2 = vv * vv
        rhs = float(np.dot(dv, dv)) / grid.h + float(
            np.dot(weights, gamma * vv2 + vv2 * vv2)
        )
        margins["response_energy_identity"].append(-abs(w_nw - rhs))

        cur = (w, nw, s, ns)
        if k == lo:
            first = cur
        else:
            lipschitz, difference = _pair_margins(prev, cur, lip_const)
            margins["response_lipschitz"].append(lipschitz)
            margins["nonlocal_difference_positive"].append(difference)
        prev, prev_ls = cur, ls

    return margins, first, prev


def verify_inequality_suite(
    params: Params,
    grid: Grid,
    n_samples: int = 100,
    seed: int = 0,
    tol: float = 1e-6,
) -> InequalitySuiteReport:
    """Randomized verification of the operator and energy inequalities.

    Draws n_samples seeded admissible profiles (plus smooth unconstrained
    ones) and checks: the H1 bound and Lipschitz continuity of the inhibitor
    response, its monotonicity, the resolvent sandwich for nonnegative
    input, the pointwise response bounds on admissible input, resolvent
    self-adjointness, positivity of the nonlocal quadratic form (both the
    plain and difference forms), the positive/negative-part decomposition
    lower bound, the two-form energy identity, the response-energy identity,
    the competitor gap against -M0, and the energy lower bound -M1. A
    grid-refinement order check for the two resolvent code paths runs on
    three analytic bump profiles.

    Sample k draws from its own generator, seeded by child k of
    numpy.random.SeedSequence(seed): admissible sample w, then smooth
    sample s, then (for odd k) the monotonicity bump. The ladder's three
    (center, width) pairs draw from numpy.random.default_rng(seed). So
    sample k depends on (seed, k) only, not on n_samples or on which
    process solves it. The pair checks keep only the previous sample, so
    the suite holds a fixed number of state-sized arrays whatever
    n_samples is.

    Where two CPUs are usable (os.sched_getaffinity) and n_samples >= 4,
    the suite uses two processes: a child forked for it solves the
    samples [c, n_samples), c = 2 (n_samples // 4), while this process
    solves [0, c), so each holds half of the monotonicity samples (within
    one). This process then forms the pair (c - 1, c) from the child's
    first sample. Each margin is the same arithmetic on the same samples
    either way, so the report's bytes do not depend on the CPU count.
    Spans that a tracer records in this process cover only its own
    samples.

    The competitor gap lemma is carried by competitor_gap_closed_form, the
    closed-form bound chain. competitor_gap_on_grid evaluates the same
    competitor q0(a_q0, b_q0) at d = d0 on the grid, as a cross-check that
    depends on resolution: its ramp [a_q0, b_q0] is far narrower than any
    grid spacing a run can afford (a ~ 8e-7 at the criterion-2 parameters,
    against h = 7.3e-3 at n = 4096), so on the grid q0 is a one-node spike
    whose energy scales with h, and the check fails on coarse grids (n =
    256 there) where no inequality is violated. Its detail prints [a, b]
    and h.

    solve_inhibitor's InhibitorError passes through when any inhibitor
    solve of the suite falls short of tolerance, before that response
    feeds a margin; a child's error is raised in this process, and when
    both processes fail, this process's error is raised, as in a run on
    one CPU, where its samples come first. n below 30, x_max below 4, a
    negative seed, and a tol that is not finite and nonnegative raise
    ValueError before any sample is solved or process forked.
    """
    if grid.n < _MIN_SAMPLE_NODES:
        raise ValueError(
            f"the inequality suite needs n >= {_MIN_SAMPLE_NODES}, got n = {grid.n}"
        )
    if grid.x_max < 4.0:
        raise ValueError(
            "the inequality suite needs x_max >= 4, since its refinement ladder "
            f"centres bumps in [1, x_max / 4], got x_max = {grid.x_max}"
        )
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    # every check held to tol would fail by construction
    if not (tol >= 0.0 and math.isfinite(tol)):
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")
    beta, gamma = params.beta, params.gamma
    consts = compute_constants(beta, gamma)

    from ._processes import in_two_processes, two_cpus

    if n_samples >= 4 and two_cpus():
        cut = n_samples // 4 * 2
        (margins, _, last), (upper, first) = in_two_processes(
            lambda _: _sample_range(params, grid, seed, 0, cut),
            lambda _: _sample_range(params, grid, seed, cut, n_samples)[:2],
        )
        lipschitz, difference = _pair_margins(last, first, max(1.0, 1.0 / gamma))
        margins["response_lipschitz"].append(lipschitz)
        margins["nonlocal_difference_positive"].append(difference)
        for name, values in upper.items():
            margins[name].extend(values)
    else:
        margins, _, _ = _sample_range(params, grid, seed, 0, n_samples)
    details: dict[str, str] = {}

    # closed-form competitor gap: the bound chain lands exactly on -M0
    ub = q0_energy_upper_bound(consts.d0, beta, gamma, consts.a_q0, consts.b_q0)
    margins["competitor_gap_closed_form"].append(
        -(abs(ub + consts.M0) / consts.M0) + 1e-10
    )
    details["competitor_gap_closed_form"] = (
        f"J_upper(q0)={ub:.6e} vs -M0={-consts.M0:.6e} (relative)"
    )

    # grid evaluation of the constructive competitor at d = d0: a
    # cross-check that depends on resolution, since on any affordable grid
    # q0(a_q0, b_q0) is a one-node spike (see the docstring)
    params_d0 = Params(d=consts.d0, tau=params.tau, gamma=gamma, beta=beta)
    q_tiny = build_q0(consts.a_q0, consts.b_q0, grid)
    report_tiny, _, _ = evaluate_energy(q_tiny, params_d0)
    margins["competitor_gap_on_grid"].append(-consts.M0 - report_tiny.total)
    details["competitor_gap_on_grid"] = (
        f"energy(q0(a_q0, b_q0)) at d=d0 is {report_tiny.total:.3e}; "
        f"[a, b] = [{consts.a_q0:.3e}, {consts.b_q0:.3e}], h = {grid.h:.3e}"
    )

    # two resolvent code paths agree at O(h^2): three analytic bumps on a
    # refinement ladder, compared away from the truncation boundary. The
    # ladder runs on the shifted kind so the truncation mismatch, of size
    # exp(-sqrt(gamma_eff) x_max), sits far below the h^2 differences for
    # every gamma > 0; the unshifted kind is cross-checked in the sandwich.
    rng = np.random.default_rng(seed)
    ratios = []
    base_n = max(grid.n // 4, 64)
    for _ in range(3):
        c, width = rng.uniform(1.0, grid.x_max / 4.0), rng.uniform(0.5, 1.5)
        errs = []
        for mult in (1, 2, 4):
            g_ref = Grid(grid.x_max, base_n * mult)
            xs = g_ref.nodes()
            w_ref = Profile(g_ref, np.exp(-((xs - c) ** 2) / (2.0 * width**2)))
            vq = apply_green(GreenKind.L0, w_ref, gamma, method="quadrature").values
            vs = apply_green(GreenKind.L0, w_ref, gamma, method="solve").values
            left = xs <= grid.x_max / 2.0
            errs.append(float(np.max(np.abs(vq[left] - vs[left]))))
        ratios.append(errs[0] / errs[1])
        ratios.append(errs[1] / errs[2])
    margins["green_methods_order_h2"].extend(min(r - 2.5, 6.0 - r) for r in ratios)
    details["green_methods_order_h2"] = (
        f"refinement ratios {['%.2f' % r for r in ratios]}"
    )

    checks = []
    for name, uses_tol, detail in _SUITE_CHECKS:
        m = np.asarray(margins[name], dtype=float)
        tolerance = tol if uses_tol else 0.0
        checks.append(
            SuiteCheck(
                name=name,
                n_pass=int(np.count_nonzero(m >= -tolerance)),
                n_total=len(m),
                worst_margin=float(np.min(m)) if len(m) else 0.0,
                tolerance=tolerance,
                detail=details[name] if detail is None else detail,
            )
        )

    return InequalitySuiteReport(
        beta=beta,
        gamma=gamma,
        d=params.d,
        x_max=grid.x_max,
        n=grid.n,
        n_samples=n_samples,
        seed=seed,
        checks=tuple(checks),
    )
