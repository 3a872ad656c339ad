"""Model parameters, cubic reaction terms, and closed-form constants.

The steady system on the half line is

    d u'' + f(u) - v = 0,      f(u) = u (1 - u) (u - beta),
    v'' - gamma v - v^3 + u = 0,

with Neumann conditions at x = 0. All thresholds computed here are
closed-form functions of (beta, gamma). Those taken from the cubic, the
negative-tail cutoff M and the outer branches of f(u) = v, are its roots
in Viete's trigonometric and hyperbolic forms (_outer_roots).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .records import Record

@dataclass(frozen=True)
class Params:
    """Problem parameters. tau enters the time-dependent dynamics only."""

    d: float
    tau: float
    gamma: float
    beta: float

    def __post_init__(self) -> None:
        if not (self.d > 0.0 and math.isfinite(self.d)):
            raise ValueError(f"d must be positive, got {self.d}")
        if not (self.tau > 0.0 and math.isfinite(self.tau)):
            raise ValueError(f"tau must be positive, got {self.tau}")
        if not (self.gamma > 0.0 and math.isfinite(self.gamma)):
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if not (0.0 < self.beta < 1.0):
            raise ValueError(f"beta must lie in (0, 1), got {self.beta}")


def reaction_f(u, beta: float):
    """Cubic activator nonlinearity f(u) = u (1 - u) (u - beta).

    Accepts scalars or arrays. Zeros at 0, beta, 1; negative on (0, beta),
    positive on (beta, 1).
    """
    return u * (1.0 - u) * (u - beta)


def potential_F(xi, beta: float):
    """Potential F with F' = -f: F(xi) = xi^4/4 - (1+beta) xi^3/3 + beta xi^2/2."""
    # products, not powers: numpy's array ** is ~70x slower on negative
    # entries, and the activator tail is negative
    xi2 = xi * xi
    return xi2 * xi2 / 4.0 - (1.0 + beta) * (xi2 * xi) / 3.0 + beta * xi2 / 2.0


def potential_roots(beta: float) -> tuple[float, float]:
    """Nonzero roots 0 < beta1 < beta2 of F: solutions of
    3 xi^2 - 4 (1 + beta) xi + 6 beta = 0.

    Raises ValueError when the discriminant is nonpositive (no real pair).
    """
    disc = 4.0 * (1.0 + beta) ** 2 - 18.0 * beta
    if disc <= 0.0:
        raise ValueError(f"potential has no real nonzero root pair at beta={beta}")
    s = math.sqrt(disc)
    beta1 = (2.0 * (1.0 + beta) - s) / 3.0
    beta2 = (2.0 * (1.0 + beta) + s) / 3.0
    return beta1, beta2


def negative_tail_cutoff(beta: float, gamma: float) -> float:
    """Smallest M >= 0 with f(xi) >= 1 + 1/gamma for all xi <= -M, i.e. the
    root of f(-M) = M (1 + M) (M + beta) = 1 + 1/gamma.

    The level 1 + 1/gamma lies above both knee values of f, so f(u) = v has
    one real root there and M is minus it, for every gamma > 0. Raises
    ValueError unless gamma is positive and finite.
    """
    if not (gamma > 0.0 and math.isfinite(gamma)):
        raise ValueError(f"tail cutoff requires gamma > 0 and finite, got {gamma}")
    return -float(_outer_roots(1.0 + 1.0 / gamma, beta)[0])


def gamma0(beta: float) -> float:
    """Threshold gamma0 = 3 beta^2 / (1 - 2 beta) - 1, positive exactly on
    the working window beta in (1/3, 1/2)."""
    if not (1.0 / 3.0 < beta < 0.5):
        raise ValueError(
            f"gamma0 undefined or nonpositive outside beta in (1/3, 1/2), got {beta}"
        )
    return 3.0 * beta**2 / (1.0 - 2.0 * beta) - 1.0


def gamma1_direct(beta: float) -> float:
    """Pulse-existence threshold gamma1 = min{gamma0, 2 (beta + F(beta)) - 1/2},
    with F(beta) inlined as (2 beta^3 - beta^4) / 12."""
    if not (1.0 / 3.0 < beta < 0.5):
        raise ValueError(f"gamma1 requires beta in (1/3, 1/2), got {beta}")
    g0 = 3.0 * beta**2 / (1.0 - 2.0 * beta) - 1.0
    return min(g0, 2.0 * (beta + (2.0 * beta**3 - beta**4) / 12.0) - 0.5)


def gamma1_via_potential(beta: float) -> float:
    """Same threshold computed through gamma0() and potential_F(); kept as an
    independent code path for cross-checking."""
    return min(gamma0(beta), 2.0 * (beta + potential_F(beta, beta)) - 0.5)


@dataclass(frozen=True)
class ConstantsReport(Record):
    """Closed-form constants at fixed (beta, gamma).

    The constructive quantities a_q0, b_q0, d0, M0, M2, m2, d1 are
    documentation-grade diagnostics: they certify existence but are far too
    small (or large) to steer a practical run.
    """

    beta: float
    gamma: float
    beta1: float
    beta2: float
    gamma0: float
    gamma1: float
    M: float
    c0_competitor: float
    a_q0: float
    b_q0: float
    d0: float
    M0: float
    M1: float
    M2: float
    m2: float
    d1: float


def compute_constants(beta: float, gamma: float) -> ConstantsReport:
    """Evaluate every closed-form constant at (beta, gamma).

    Requires beta in (1/3, 1/2) and gamma > 0, with gamma**2.5 > 0 in
    float64 (gamma above ~3.6e-130): M1 divides by it, and (1 + 1/gamma)**2
    overflows further down. M2 degenerates to +inf when gamma >= gamma0
    (its denominator changes sign there); m2 is implemented exactly as
    printed and is diagnostic-only.
    """
    if not (1.0 / 3.0 < beta < 0.5):
        raise ValueError(f"constants require beta in (1/3, 1/2), got {beta}")
    if not (gamma > 0.0 and math.isfinite(gamma)):
        raise ValueError(f"constants require gamma > 0, got {gamma}")
    if gamma**2.5 == 0.0:
        raise ValueError(
            f"constants require gamma**2.5 > 0 in float64, got gamma = {gamma}"
        )

    beta1, beta2 = potential_roots(beta)
    g0 = gamma0(beta)
    g1 = gamma1_direct(beta)
    M = negative_tail_cutoff(beta, gamma)

    one_minus = 1.0 - 2.0 * beta
    c0 = 11.0 / 20.0 - (1.0 + beta) / 12.0 + beta / 6.0
    shape = (1.0 + one_minus / (48.0 * c0)) ** 3
    a = (2.0 / 9.0) * (one_minus / 24.0) ** 2 / ((1.0 + 1.0 / gamma) ** 2 * shape)
    b = a * (1.0 + one_minus / (24.0 * c0))
    d0 = (b - a) ** 2
    M0 = (1.0 / 9.0) * (one_minus / 24.0) ** 3 / ((1.0 + 1.0 / gamma) ** 2 * shape)

    M1 = (
        beta**2 / (8.0 * (gamma + 1.0) ** 1.5)
        + (M + 1.0) / (2.0 * gamma**1.5)
        + 2.0 * (M + 1.0) / gamma**2.5
    )
    m2_den = -one_minus / 12.0 + beta**2 / (4.0 * (gamma + 1.0))
    M2 = M1 / m2_den if m2_den > 0.0 else math.inf
    m2 = 6.0 * M0 / one_minus
    d1 = min(d0, beta**2 / (4.0 * (1.0 + beta * gamma)))

    return ConstantsReport(
        beta=beta,
        gamma=gamma,
        beta1=beta1,
        beta2=beta2,
        gamma0=g0,
        gamma1=g1,
        M=M,
        c0_competitor=c0,
        a_q0=a,
        b_q0=b,
        d0=d0,
        M0=M0,
        M1=M1,
        M2=M2,
        m2=m2,
        d1=d1,
    )


@dataclass(frozen=True)
class RegimeReport(Record):
    """Where (beta, gamma, d) sits relative to the guaranteed-existence regime.

    beta_ok: beta in (1/3, 1/2). gamma_ok: gamma < gamma1(beta) (requires
    beta_ok). d_ok: d <= d1(beta, gamma) with the constructive d1, which is
    astronomically small; practical runs fail d_ok by design and validate
    the computed pulse a posteriori instead.
    """

    beta_ok: bool
    gamma_ok: bool
    d_ok: bool
    gamma1: float = field(default=math.nan)
    d1: float = field(default=math.nan)

    _derived = ("in_strict_regime",)

    @property
    def in_strict_regime(self) -> bool:
        return self.beta_ok and self.gamma_ok and self.d_ok


def regime_report(params: Params) -> RegimeReport:
    beta_ok = 1.0 / 3.0 < params.beta < 0.5
    if not beta_ok:
        return RegimeReport(beta_ok=False, gamma_ok=False, d_ok=False)
    consts = compute_constants(params.beta, params.gamma)
    return RegimeReport(
        beta_ok=True,
        gamma_ok=params.gamma < consts.gamma1,
        d_ok=params.d <= consts.d1,
        gamma1=consts.gamma1,
        d1=consts.d1,
    )


def _outer_roots(v, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """The lower and upper real roots of f(u) = v, elementwise in v.

    About the inflection point s = (1 + beta)/3, u = s + w turns f(u) = v
    into w^3 - p w - q = 0 with p = (1 - beta + beta^2)/3 and q = f(s) - v
    (Press et al., Numerical Recipes, section 5.6). With
    x = q / (2 (p/3)^(3/2)), three real roots exist for |x| <= 1 (v between
    the knee values): the upper one is s + 2 sqrt(p/3) cos(arccos(x)/3) and
    the lower one comes from the product of the roots, -v / (upper middle),
    which keeps its relative accuracy in the tail, where u ~ -v/beta. For
    |x| > 1 the one real root, s + 2 sign(x) sqrt(p/3) cosh(arccosh(|x|)/3),
    is returned as both.
    """
    s = (1.0 + beta) / 3.0
    r = math.sqrt((1.0 - beta + beta * beta) / 9.0)
    # f(s) inline: evolve takes its bound from M and calls no reaction_f
    x = (s * (1.0 - s) * (s - beta) - v) / (2.0 * r**3)
    three = np.abs(x) <= 1.0
    phi = np.arccos(np.clip(x, -1.0, 1.0)) / 3.0
    upper = s + 2.0 * r * np.cos(phi)
    middle = s + 2.0 * r * np.cos(phi - 2.0 * math.pi / 3.0)
    one = s + np.copysign(2.0 * r, x) * np.cosh(np.arccosh(np.maximum(np.abs(x), 1.0)) / 3.0)
    return np.where(three, -v / (upper * middle), one), np.where(three, upper, one)


def reaction_knees(beta: float) -> tuple[float, float]:
    """Critical points of f: the local minimum and maximum locations
    (roots of f' = -3u^2 + 2(1+beta)u - beta), lower first."""
    disc = math.sqrt((1.0 + beta) ** 2 - 3.0 * beta)
    return ((1.0 + beta - disc) / 3.0, (1.0 + beta + disc) / 3.0)


def nullcline_branch(v: float, beta: float, branch: str) -> float:
    """Outer solution branches of f(u) = v: the 'upper' root near 1 and the
    'lower' root near 0, in closed form (_outer_roots). Defined for finite v
    strictly between the knee values."""
    if not math.isfinite(v):
        raise ValueError(f"v must be finite, got {v}")
    knee_lo, knee_hi = reaction_knees(beta)
    if branch == "upper":
        if v >= reaction_f(knee_hi, beta):
            raise ValueError(f"v={v} is above the upper branch fold")
        return float(_outer_roots(v, beta)[1])
    if branch == "lower":
        if v <= reaction_f(knee_lo, beta):
            raise ValueError(f"v={v} is below the lower branch fold")
        return float(_outer_roots(v, beta)[0])
    raise ValueError(f"unknown branch {branch!r}")


def equal_area_level(beta: float) -> float:
    """Inhibitor level v at which a stationary interface between the two
    outer branches of f(u) = v exists: the wells of F(u) - v u are level
    (equal-area rule). The cubic is point-symmetric about its inflection
    point s = (1 + beta)/3, so the level is f(s) = (1 + beta)(2 - beta)
    (1 - 2 beta)/27, about (1 - 2 beta)/12 near beta = 1/2. Raises
    ValueError for beta >= 1/2, where it is not positive."""
    if beta >= 0.5:
        raise ValueError(f"no positive equal-area level at beta={beta}")
    return (1.0 + beta) * (2.0 - beta) * (1.0 - 2.0 * beta) / 27.0


def interface_width(params: Params) -> float:
    """Length scale of the diffusive transition layer between the outer
    branches, sqrt(2 d / (beta (1 - beta)))."""
    return math.sqrt(2.0 * params.d / (params.beta * (1.0 - params.beta)))


@dataclass(frozen=True)
class HeadGeometry:
    """Reduced (d -> 0) head from head_geometry: equal-area level v_m,
    upper-branch activator u_plus there, tail decay rate, inhibitor
    curvature under the head and head length x1."""

    v_m: float
    u_plus: float
    rate: float
    curv: float
    x1: float


def head_geometry(params: Params) -> HeadGeometry:
    """Small-d geometry of the excited head.

    In the reduced (d -> 0) problem the activator rides the upper branch
    while the inhibitor sags under the drive u - gamma v - v^3; the head
    ends where v reaches the equal-area level and hands over to the
    exponentially decaying tail. Matching v' across that point gives
    x1 = sqrt(gamma + 1/beta) * v_M / (h+(v_M) - gamma v_M - v_M^3).
    """
    v_m = equal_area_level(params.beta)
    rate = math.sqrt(params.gamma + 1.0 / params.beta)
    u_plus = float(_outer_roots(v_m, params.beta)[1])
    curv = u_plus - params.gamma * v_m - v_m**3
    return HeadGeometry(v_m=v_m, u_plus=u_plus, rate=rate, curv=curv, x1=rate * v_m / curv)


def predicted_head_length(params: Params) -> float:
    """Small-d estimate of the excited-region length x1 (head_geometry).

    A standing pulse can only exist when interface_width(params) is well
    below this length; otherwise the head cannot accommodate a transition
    layer and the minimizer collapses to a constrained boundary state.
    """
    return head_geometry(params).x1
