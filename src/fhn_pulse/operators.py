"""Inhibitor response operators and the discrete steady system on the
half-line grid.

Every linear solve of the inhibitor reduces to one discrete form,

    (-D2 + c) V = rhs   on nodes 0..n-1,   V(n) = 0,

where D2 is the second-difference operator with a ghost-node Neumann row at
x = 0 (V_{-1} = V_1) and c > 0 is a scalar or per-node coefficient. Halving
the first row makes the system symmetric positive definite and
tridiagonal. With a per-node c (a Newton step) a solve runs LAPACK dptsv
in place on the diagonal and off-diagonal. With a scalar c (a linear
response, a cold start) it runs dpttrs on the dpttrf factor of the
matrix, kept read-only in a one-entry cache keyed by (c, h, m): runs of
scalar solves on one key reuse it (750 of the 760 in a 100-sample
inequality suite at n = 4096), and dptsv is dpttrf followed by dpttrs
(Anderson et al., LAPACK Users' Guide, 1999), so the cached factor
gives the same bits. The fixed operators of
time stepping, a (-D2) + c with scalars a and c, are factored once by
factor_shifted as -D2 + c/a, with 1/a folded into the last matrix a
solve applies: away from the ghost row the L D L^T factors have a
constant pivot and multiplier, so solve_factored evaluates their two
recurrences on blocks of unknowns as small GEMMs, the carries between
blocks by the same scheme one level up (Blelloch 1990), and the ghost
row by one Sherman-Morrison correction. It reads the right-hand side
from the factor's scratch, where a caller may form it, and writes the
solution into the caller's buffer. LAPACK's dpttrs runs the same
recurrences one unknown at a time, bound by the latency of each step.

The nonlinear inhibitor solve v = N(u) is damped Newton on these
tridiagonal systems. A cold solve starts from the linear response v_L
with every node moved to the real root of w^3 + gamma w = gamma v_L, the
local balance of the cubic term that v_L leaves out. A solve allocates
its work arrays once; its Newton steps and backtracking trials allocate
no state-sized array.

steady_residual returns the coupled steady system for (u, v) in two
blocks of rows, activator and inhibitor. solve_steady runs damped Newton
on it through the Schur complement of the inhibitor block,
P = J_uu J_vv + I: an n-row, (2, 2)-banded matrix. A solve allocates one
band for P and refills it at every iterate, where dgbtrf factors it in
place; the determinant sign (det J = det P) and every right-hand side
solved by dgbtrs come from that one LU.

dptsv, dpttrf, dpttrs, dgbtrf and dgbtrs are scipy's f2py LAPACK
wrappers. The _lapack module loads the one compiled extension that holds
them, scipy.linalg._flapack, from its file instead of importing the
scipy.linalg package, which would take about half of a process's
start-up; when that file is missing or does not load, it takes them from
scipy.linalg.lapack. Both paths give the same routine objects.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from ._lapack import dgbtrf, dgbtrs, dptsv, dpttrf, dpttrs
from .grid import Grid, Profile
from .model import reaction_f


class InhibitorError(RuntimeError):
    """Raised by solve_inhibitor when its Newton iteration stops short of
    tolerance."""


class GreenKind(enum.Enum):
    """Which screened resolvent to apply: L = (gamma - D2)^{-1} or
    L0 = (gamma + 1 - D2)^{-1}."""

    L = "L"
    L0 = "L0"

    @property
    def gamma_shift(self) -> float:
        return 0.0 if self is GreenKind.L else 1.0


def _fill_shifted(diag: np.ndarray, off: np.ndarray, h: float) -> None:
    """Turn diag, holding c on m unknowns, into the diagonal of the
    symmetrized (-D2 + c) matrix, and fill off (m - 1 entries) with its
    off-diagonal. Row 0 carries the halved Neumann ghost row."""
    c0 = diag[0]
    diag += 2.0 / h**2
    diag[0] = 1.0 / h**2 + 0.5 * c0
    off.fill(-1.0 / h**2)


def _shifted_tridiagonal(
    c: np.ndarray | float, h: float, m: int
) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the symmetrized (-D2 + c) matrix on m
    unknowns, fresh arrays."""
    diag = np.array(np.broadcast_to(np.asarray(c, dtype=float), (m,)))
    off = np.empty(m - 1)
    _fill_shifted(diag, off, h)
    return diag, off


def _check_definite(routine: str, info: int) -> None:
    if info > 0:
        raise np.linalg.LinAlgError(
            f"shifted operator is not positive definite ({routine} info = {info})"
        )


def _ptsv(diag: np.ndarray, off: np.ndarray, b: np.ndarray) -> None:
    """Solve the symmetrized system with diagonal diag and off-diagonal
    off for the right-hand side b of the unsymmetrized one, in place:
    b[0] is halved as the matrix's ghost row, and dptsv overwrites all
    three arrays, b with the solution."""
    b[0] *= 0.5
    info = dptsv(diag, off, b, overwrite_d=1, overwrite_e=1, overwrite_b=1)[3]
    _check_definite("dptsv", info)


@functools.lru_cache(maxsize=1)
def _scalar_factor(c: float, h: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """dpttrf's L D L^T factor (D's diagonal, L's subdiagonal) of the
    symmetrized (-D2 + c) matrix on m unknowns for a scalar c, read-only.
    One entry: the scalar-shift solves of an inequality suite run on one
    key, and each factor of a 32768-node grid holds 512 KiB. An
    indefinite shift raises LinAlgError and is not cached."""
    diag, off = _shifted_tridiagonal(c, h, m)
    _check_definite("dpttrf", dpttrf(diag, off, overwrite_d=1, overwrite_e=1)[2])
    diag.flags.writeable = False
    off.flags.writeable = False
    return diag, off


def solve_shifted(c: np.ndarray | float, rhs: np.ndarray, h: float) -> np.ndarray:
    """Solve (-D2 + c) V = rhs with Neumann at 0 and V = 0 at the last node.

    rhs has one entry per unknown (nodes 0..n-1) and is left unmodified; the
    returned array has the Dirichlet zero appended, length n + 1. A
    per-node c is solved by dptsv in the output buffer. A scalar c is
    solved there by dpttrs from the cached dpttrf factor of the last
    (c, h, n) a scalar solve used, factored anew for any other key; the
    bits equal dptsv's. LinAlgError is raised when the matrix is not
    positive definite.
    """
    m = len(rhs)
    out = np.empty(m + 1)
    out[:m] = rhs
    out[m] = 0.0
    if np.ndim(c) == 0:
        diag, off = _scalar_factor(float(c), float(h), m)
        out[0] *= 0.5  # the ghost row, halved as the symmetrized matrix's row 0
        dpttrs(diag, off, out[:m], overwrite_b=1)
    else:
        _ptsv(*_shifted_tridiagonal(c, h, m), out[:m])
    return out


# The stationary solve behind factor_shifted works on blocks of _BLOCK
# unknowns, _ROWS blocks per matrix product: a (64 x 32) @ (32 x 32) GEMM
# stays below OpenBLAS's threading threshold, so a solve starts no BLAS
# threads. Powers of the multiplier below _FLUSH are set to 0, which keeps
# subnormals out of the products.
_BLOCK = 32
_ROWS = 64
_FLUSH = 1e-40


def _block_shape(n: int) -> tuple[int, int, int]:
    """(batches, rows, _BLOCK) array holding n values in zero-padded
    blocks, at most _ROWS blocks per batch and fewer than one padding
    block per batch."""
    blocks = -(-n // _BLOCK)
    batches = -(-blocks // _ROWS)
    return batches, -(-blocks // batches), _BLOCK


def _powers(log_r: float) -> np.ndarray:
    """r^0 .. r^_BLOCK from log r, flushed to 0 below _FLUSH."""
    p = np.ones(_BLOCK + 1)
    p[1:] = np.exp(np.arange(1, _BLOCK + 1) * log_r)
    p[p < _FLUSH] = 0.0
    return p


def _toeplitz_upper(p: np.ndarray) -> np.ndarray:
    """(_BLOCK, _BLOCK) matrix with [j, i] = p[i - j] on and above the
    diagonal, 0 below."""
    k = np.arange(_BLOCK)
    lag = k[None, :] - k[:, None]
    return np.where(lag >= 0, p[np.maximum(lag, 0)], 0.0)


class _Level:
    """One level of the blocked recurrence y_i = x_i + r y_{i-1}, y_{-1} = 0
    (Blelloch 1990: a linear recurrence as a scan), over n values laid out
    by _block_shape, zero padded at the end. Within a block y = x @ gemm,
    and x @ gemv is each block's last value with no carry-in; those last
    values obey the same recurrence with multiplier r^_BLOCK, one level
    up. gemm is scaled by `scale`, the multiplier of the level below,
    which adds y to the first entries of its blocks."""

    def __init__(self, log_r: float, n: int, scale: float):
        p = _powers(log_r)
        self.r = float(p[1])
        powers = _toeplitz_upper(p)
        self.gemv = powers[:, -1].copy()
        self.gemm = scale * powers
        self.x = np.zeros(_block_shape(n))
        self.y = np.zeros_like(self.x)
        self.n_blocks = self.x.shape[0] * self.x.shape[1]
        # the blocks holding values take carries; the rest stay 0
        self.first = self.x.reshape(-1, _BLOCK)[1 : -(-n // _BLOCK), 0]

    def link(self, up: _Level) -> None:
        """Views of the level above: its input, which takes this level's
        block ends, and its output, which holds r times the solved end of
        each block before the last."""
        self.ends = up.x.reshape(-1)[: self.n_blocks].reshape(self.x.shape[:2])
        self.carry = up.y.reshape(-1)[: self.first.size]


def _scan(levels: list[_Level], k: int = 0) -> None:
    """levels[k].y = scale times the recurrence of levels[k] over
    levels[k].x, whose first n values the caller wrote: the block ends go
    up a level, r times each one joins the next block's first entry, and
    one GEMM finishes every block."""
    lv = levels[k]
    if k + 1 < len(levels):
        np.matmul(lv.x, lv.gemv, out=lv.ends)
        _scan(levels, k + 1)
        np.add(lv.first, lv.carry, out=lv.first)
    np.matmul(lv.x, lv.gemm, out=lv.y)


class ShiftedFactor:
    """Stationary factorization of the symmetrized a (-D2) + c matrix on m
    unknowns for scalars a, c > 0, with the scratch its solves work in.
    It factors A = -D2 + c/a and folds 1/a into gemm, the last matrix a
    solve applies; the corner correction is linear in the solution, so it
    needs no rescaling.

    Every row of A but the ghost row 0 is the Toeplitz row (alpha, o) =
    (2/h^2 + c/a, -1/h^2), so A = S + (A_00 - delta) e0 e0^T, where
    S = L Delta L^T has the constant pivot delta, the root of
    delta^2 - alpha delta + o^2 = 0 above alpha/2, and the constant
    multiplier o/delta = -r with 0 < r < 1.

    S is solved by the recurrences y_i = b_i + r y_{i-1} and
    x_i = y_i/delta + r x_{i+1} on blocks of _BLOCK unknowns, zero padded
    in front. Within a block the two sweeps are one matrix, x = b @ gemm.
    What crosses block edges enters as two entries of b: r times the
    previous block's last y joins the first entry, delta r times the next
    block's first x the last. Both carries obey the recurrences with
    multiplier r^_BLOCK over the blocks (_scan, the backward one
    reversed), from each block's last y and delta times its first x with
    no carry-in, b @ edge_gemm. The corner is one Sherman-Morrison
    correction along w = S^{-1} e0 (Golub & Van Loan, section 2.1.4), kept
    on the prefix where it is not flushed to 0.

    A solve reads b from `rhs`, the m entries of the blocked scratch after
    the padding, and overwrites it; a caller may form b there. A factor is
    not safe to share between threads: its solves write its scratch
    arrays."""

    def __init__(self, c: float, h: float, m: int, a: float = 1.0):
        if not (a > 0.0 and math.isfinite(a)):
            raise ValueError(f"diffusion coefficient must be positive and finite, got {a}")
        c = c / a
        # the stored entries of _shifted_tridiagonal
        alpha = 2.0 / h**2 + c
        diag0 = 1.0 / h**2 + 0.5 * c
        o = 1.0 / h**2
        if not math.isfinite(alpha):
            raise ValueError(f"shift must be finite, got {c}")
        # alpha - 2|o| is exact when c <= 2/h^2 (Sterbenz), so delta
        # matches the stored diagonal, not the c it was formed from
        c_eff = alpha - 2.0 * o
        if not c_eff > 0.0:
            raise np.linalg.LinAlgError(
                f"shifted operator is not positive definite (effective shift {c_eff})"
            )
        root = math.sqrt(c_eff) * math.sqrt(alpha + 2.0 * o)
        delta = 0.5 * (alpha + root)
        gap = 0.5 * (c_eff + root) / delta  # 1 - r, free of cancellation
        log_r = math.log1p(-gap) if gap < 0.5 else math.log(o / delta)

        p = _powers(log_r)
        forward = _toeplitz_upper(p)  # [j, i] = r^(i - j)
        self.gemm = forward @ (forward.T / delta)
        self.edge_gemm = np.stack([forward[:, -1], delta * self.gemm[:, 0]], axis=1)
        self.start_carry = delta * self.gemm[0, 0]
        self.m = m
        shape = _block_shape(m)
        self.pad = shape[0] * shape[1] * _BLOCK - m
        self.x = np.zeros(shape)
        self.rhs = self.x.reshape(-1)[self.pad :]
        # the GEMM writes straight into the solution when the blocks tile m
        self.y = np.zeros(shape) if self.pad else None
        self.edge_values = np.zeros(shape[:2] + (2,))
        self.levels: list[_Level] = []
        n, scale = shape[0] * shape[1], float(p[1])
        while n > 1:
            log_r *= _BLOCK
            self.levels.append(_Level(log_r, n, scale))
            n, scale = self.levels[-1].n_blocks, self.levels[-1].r
        for lv, up in zip(self.levels, self.levels[1:]):
            lv.link(up)

        self.rhs[0] = 1.0
        w = np.empty(m)
        self._solve_stationary(w)
        self.gemm /= a
        w[np.abs(w) < _FLUSH * abs(w[0])] = 0.0
        self.w = w[: np.flatnonzero(w)[-1] + 1].copy()
        shift = diag0 - delta
        denom = 1.0 + shift * self.w[0]
        if not denom > 0.0:
            raise np.linalg.LinAlgError(
                f"shifted operator is not positive definite (corner pivot {denom})"
            )
        self.corner = shift / denom

    @property
    def nbytes(self) -> int:
        """Total size of the factor's arrays, scratch included."""
        arrays = [self.gemm, self.edge_gemm, self.x, self.edge_values, self.w]
        if self.y is not None:
            arrays.append(self.y)
        for lv in self.levels:
            arrays += [lv.gemm, lv.gemv, lv.x, lv.y]
        return sum(a.nbytes for a in arrays)

    def _carry_in(self) -> None:
        """Add the carries across block edges to the blocked b in x. A
        scan of the block ends gives r times the forward carries; a second
        one, over delta times each block's first x with the forward carry
        in, last block first, gives delta r times the backward ones."""
        blocks = self.x.reshape(-1, _BLOCK)
        edges = self.edge_values.reshape(-1, 2)
        np.matmul(self.x, self.edge_gemm, out=self.edge_values)
        top = self.levels[0]
        up = top.x.reshape(-1)[: edges.shape[0]]
        solved = top.y.reshape(-1)[: edges.shape[0] - 1]
        up[:] = edges[:, 0]
        _scan(self.levels)
        np.add(blocks[1:, 0], solved, out=blocks[1:, 0])
        # each block's first x with the forward carry in, last block first
        starts = up[::-1]
        np.multiply(solved, self.start_carry, out=starts[1:])
        np.add(starts[1:], edges[1:, 1], out=starts[1:])
        starts[0] = edges[0, 1]
        _scan(self.levels)
        np.add(blocks[:-1, -1], solved[::-1], out=blocks[:-1, -1])

    def _solve_stationary(self, out: np.ndarray) -> None:
        """out = S^{-1} b / a for the b in rhs (out contiguous, length m)."""
        self.x.reshape(-1)[: self.pad] = 0.0
        if self.levels:
            self._carry_in()
        if self.y is None:
            np.matmul(self.x, self.gemm, out=out.reshape(self.x.shape))
        else:
            np.matmul(self.x, self.gemm, out=self.y)
            out[:] = self.y.reshape(-1)[self.pad :]

    def solve(self, out: np.ndarray) -> None:
        """out = A^{-1} b / a for the b in rhs (out contiguous, length m)."""
        self._solve_stationary(out)
        p = self.w.size
        t = self.x.reshape(-1)[:p]
        np.multiply(self.w, self.corner * out[0], out=t)
        np.subtract(out[:p], t, out=out[:p])


def factor_shifted(c: float, h: float, m: int, a: float = 1.0) -> ShiftedFactor:
    """Factorization of the symmetrized operator a (-D2) + c on m unknowns
    for repeated solves with fixed scalar coefficients a, c > 0 (time
    stepping); see ShiftedFactor. Raises ValueError for an a that is not
    positive and finite or a non-finite c/a, and LinAlgError when the
    stored diagonal 2/h^2 + c/a does not exceed twice the off-diagonal's
    magnitude or the operator is not positive definite."""
    return ShiftedFactor(c, h, m, a)


def solve_factored(
    factor: ShiftedFactor, rhs: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Solve (a (-D2) + c) V = rhs with a factor_shifted factorization; rhs
    has one entry per unknown, the returned array has the Dirichlet zero
    appended: a fresh array by default, else `out` (contiguous float64,
    length len(rhs) + 1), which is returned. The solve reads rhs from the
    factor's scratch: rhs is copied there and left unmodified, unless it
    is factor.rhs itself, so a right-hand side formed in factor.rhs is
    solved with no copy (and overwritten). The solution is written
    straight into the output buffer."""
    m = factor.m
    if len(rhs) != m:
        raise ValueError(f"rhs has {len(rhs)} entries, the factor {m}")
    if out is None:
        out = np.empty(m + 1)
    elif not (out.shape == (m + 1,) and out.dtype == np.float64 and out.flags.c_contiguous):
        # the solution would land in a silent copy of any other buffer
        raise ValueError("out must be a contiguous float64 array of length len(rhs) + 1")
    b = factor.rhs
    if rhs is not b:
        b[:] = rhs
    b[0] *= 0.5  # the ghost row, halved as the symmetrized matrix's row 0
    factor.solve(out[:m])
    out[m] = 0.0
    return out


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
    Raises ValueError unless gamma_eff is positive and finite, by either
    method.
    """
    gamma_eff = gamma + kind.gamma_shift
    if not (gamma_eff > 0.0 and math.isfinite(gamma_eff)):
        raise ValueError(
            f"effective decay gamma + shift = {gamma_eff} must be positive and "
            f"finite, got gamma = {gamma}"
        )
    grid = w.grid
    if method == "solve":
        v = solve_shifted(gamma_eff, w.values[:-1], grid.h)
        return Profile(grid, v)
    if method == "quadrature":
        sg = math.sqrt(gamma_eff)
        x = grid.nodes()
        cosh = np.cosh(sg * x)
        exp = np.exp(-sg * x)
        prefix = _cumulative_trapezoid(cosh * w.values, grid.h)
        suffix_total = _cumulative_trapezoid(exp * w.values, grid.h)
        suffix = suffix_total[-1] - suffix_total
        v = (exp * prefix + cosh * suffix) / sg
        return Profile(grid, v)
    raise ValueError(f"unknown Green method {method!r}")


def _gradient_values(
    w: np.ndarray, v: np.ndarray, d: float, beta: float, h: float
) -> np.ndarray:
    """Activator residual d (-D2) w - f(w) + v on every node, with the
    Neumann ghost row at x = 0 and a one-sided row at x_max: the
    mass-normalized gradient of the discrete energy at w when v = N(w)."""
    g = np.empty_like(w)
    g[0] = 2.0 * d * (w[0] - w[1]) / h**2
    g[1:-1] = d * (2.0 * w[1:-1] - w[:-2] - w[2:]) / h**2
    g[-1] = 2.0 * d * (w[-1] - w[-2]) / h**2
    g -= reaction_f(w, beta)
    g += v
    return g


def _fd_residual(
    v: np.ndarray,
    u: np.ndarray,
    gamma: float,
    h: float,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Residual of (-D2 + gamma) v + v^3 - u on the solved rows 0..n-1,
    written into `out` (n entries) when given, else into a fresh array,
    which is returned; `scratch` (n - 1 entries) spares the stencil's
    temporary.

    The interior rows are written in place, term by term in the order of
    the formula ((-v_{i-1} + 2 v_i - v_{i+1}) / h^2 + gamma v_i + v_i^3 -
    u_i), so they round exactly as the formula does: 2 v_i - v_{i-1} is
    -v_{i-1} + 2 v_i, since IEEE subtraction adds the negation."""
    m = len(v) - 1
    r = np.empty(m) if out is None else out
    t = np.empty(m - 1) if scratch is None else scratch
    v0, v1 = float(v[0]), float(v[1])  # Python floats round as numpy's do
    r[0] = (2.0 * v0 - 2.0 * v1) / h**2 + gamma * v0 + v0 * v0 * v0 - float(u[0])
    vi = v[1:m]
    ri = r[1:m]
    np.multiply(2.0, vi, out=ri)
    ri -= v[0 : m - 1]
    ri -= v[2 : m + 1]
    ri /= h**2
    ri += np.multiply(gamma, vi, out=t)
    np.multiply(vi, vi, out=t)
    ri += np.multiply(t, vi, out=t)
    ri -= u[1:m]
    return r


_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


def _abs_max(x: np.ndarray) -> float:
    """max |x| with no temporary array: exact, NaN when x holds one, and
    +0.0 (not -0.0) for an all-zero x."""
    return abs(float(max(x.max(), -x.min())))


def _inhibitor_floor(vmax: float, umax: float, gamma: float, h: float) -> float:
    """Roundoff floor of _fd_residual from max |v| and max |u|: 8 ulps of
    its largest terms, led by the 1/h^2 difference stencil."""
    return 8.0 * _EPS * (4.0 * vmax / h**2 + gamma * vmax + vmax**3 + umax)


def _cubic_balance(vl: np.ndarray, gamma: float) -> np.ndarray:
    """Real root w of w^3 + gamma w = gamma vl at every node, in the
    hyperbolic form of the depressed cubic's root. It is finite for every
    finite vl and exactly 0 where vl is; Cardano's two cube roots cancel
    near 0 and overflow once |vl| passes ~1e154. The terms are formed in
    place in one fresh array, in the order of
    2 sqrt(gamma/3) sinh(arcsinh(1.5 sqrt(3/gamma) vl) / 3)."""
    w = np.multiply(1.5 * math.sqrt(3.0 / gamma), vl)
    np.arcsinh(w, out=w)
    w /= 3.0
    np.sinh(w, out=w)
    w *= 2.0 * math.sqrt(gamma / 3.0)
    return w


def _check_gamma(gamma: float) -> None:
    if not (gamma > 0.0 and math.isfinite(gamma)):
        raise ValueError(f"gamma must be positive and finite, got {gamma}")


@dataclass(frozen=True)
class InhibitorSolution:
    """Result of one nonlinear inhibitor solve v = N(u). solve_inhibitor
    returns one only when the solve met its tolerance; a miss raises
    InhibitorError instead."""

    v: Profile
    residual_max: float
    newton_iters: int


def solve_inhibitor(
    u: Profile,
    gamma: float,
    tol: float = 1e-11,
    max_iters: int = 50,
    v_init: Profile | None = None,
) -> InhibitorSolution:
    """Solve v'' - gamma v - v^3 + u = 0 with Neumann at 0 and the
    truncation Dirichlet condition, by damped Newton.

    Unless a warm start is supplied, the initial iterate is the linear
    response v_L = (gamma - D2)^{-1} u with every node moved to the real
    root w of w^3 + gamma w = gamma v_L: the local balance of the v^3 term
    that the linear response leaves out, so that it overshoots wherever |v|
    is O(1). That start saves about a third of the Newton steps of a cold
    solve. Each Newton step solves the tridiagonal system
    (-D2 + gamma + 3 v^2) delta = -residual and backtracks on the residual
    norm (Armijo on ||r||^2/2; the Newton direction is a descent direction
    for it at every iterate since the Jacobian is invertible), so the
    iteration is globally convergent and immune to the rounding noise that
    an energy-based test hits near the minimum. Convergence means max
    |residual| <= tol on all solved rows, where tol is widened to the
    roundoff floor of evaluating the 1/h^2 difference stencil when that
    floor exceeds it. A solve that stops short of it, at max_iters or when
    the backtracking finds no decrease, raises InhibitorError with the
    interior residual and the Newton step count; no response short of
    tolerance is ever returned. A gamma that is not positive and finite
    raises ValueError before any solve.
    """
    _check_gamma(gamma)
    grid = u.grid
    h = grid.h
    uu = u.values[:-1]
    m = len(uu)

    if v_init is not None:
        if v_init.grid != grid:
            raise ValueError("warm start lives on a different grid")
        v = v_init.values.copy()
        v[-1] = 0.0
    else:
        v = _cubic_balance(solve_shifted(gamma, uu, h), gamma)

    umax = _abs_max(uu)

    def tol_floor(vv: np.ndarray) -> float:
        return max(tol, _inhibitor_floor(_abs_max(vv), umax, gamma, h))

    iters = 0
    r = _fd_residual(v, uu, gamma, h)
    res = _abs_max(r)
    rn2 = float(np.dot(r, r))
    converged = res <= tol_floor(v)

    if not converged and max_iters > 0:
        # the Newton steps' work arrays, allocated once per solve that
        # takes a step: the step and the trial state have the Dirichlet
        # node n, held at 0; the trial residual and the matrix rows 0..n-1
        v_try = np.empty_like(v)
        step = np.empty_like(v)
        step[m] = 0.0
        r_try = np.empty_like(r)
        diag = np.empty_like(r)
        off = np.empty(m - 1)
        scratch = np.empty(m - 1)
    while not converged and iters < max_iters:
        # (-D2 + gamma + 3 v^2) step = -r
        np.multiply(v[:m], v[:m], out=diag)
        diag *= 3.0
        diag += gamma
        _fill_shifted(diag, off, h)
        np.negative(r, out=step[:m])
        _ptsv(diag, off, step[:m])
        t = 1.0
        accepted = False
        for _ in range(40):
            np.multiply(step, t, out=v_try)
            v_try += v
            _fd_residual(v_try, uu, gamma, h, r_try, scratch)
            rn2_try = float(np.dot(r_try, r_try))
            if rn2_try <= (1.0 - 2e-4 * t) * rn2:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
        v, v_try = v_try, v
        r, r_try = r_try, r
        rn2 = rn2_try
        iters += 1
        res = _abs_max(r)
        converged = res <= tol_floor(v)

    interior_res = _abs_max(r[1:]) if len(r) > 1 else res
    if not converged:
        raise InhibitorError(
            f"inhibitor solve failed: residual {interior_res:.3e} after "
            f"{iters} Newton steps"
        )
    return InhibitorSolution(v=Profile(grid, v), residual_max=interior_res, newton_iters=iters)


def inhibitor_derivative(
    w: Profile, v: Profile, w_hat: Profile, gamma: float
) -> Profile:
    """Directional derivative of the inhibitor response at w applied to
    w_hat: solves v_hat'' - gamma v_hat - 3 v^2 v_hat = -w_hat with the same
    boundary conventions. v must be the response at w. A gamma that is
    not positive and finite raises ValueError, as in solve_inhibitor."""
    _check_gamma(gamma)
    if w.grid != v.grid or w.grid != w_hat.grid:
        raise ValueError("profiles live on different grids")
    h = w.grid.h
    c = gamma + 3.0 * v.values[:-1] ** 2
    vh = solve_shifted(c, w_hat.values[:-1], h)
    return Profile(w.grid, vh)


def steady_residual(
    u: np.ndarray, v: np.ndarray, d: float, beta: float, gamma: float, h: float
) -> np.ndarray:
    """Residual of the discrete steady system on nodes 0..n-1, a (2, n)
    array with the activator rows in row 0 and the inhibitor rows in row 1:

        d (-D2) u - f(u) + v,      (-D2 + gamma) v + v^3 - u,

    with the Neumann ghost rows at x = 0. u and v have n + 1 entries and
    node n holds the Dirichlet zero. The activator rows are the energy
    gradient and the inhibitor rows the inhibitor residual, so a root is a
    stationary point of J with v = N(u)."""
    return np.stack(
        (_gradient_values(u, v, d, beta, h)[:-1], _fd_residual(v, u, gamma, h))
    )


#: Sub- and superdiagonal counts of the Schur complement P of the steady
#: Jacobian: it is (2, 2)-banded.
STEADY_KL = STEADY_KU = 2


def _band_lu_det_sign(lub: np.ndarray, piv: np.ndarray) -> int:
    """Sign of the determinant from a banded LU: the signs of U's diagonal
    times one flip per row interchange (piv is 0-based)."""
    swaps = np.count_nonzero(piv != np.arange(len(piv)))
    negatives = np.count_nonzero(lub[STEADY_KL + STEADY_KU] < 0.0)
    return -1 if (swaps + negatives) % 2 else 1


def _stencil_matvec(diag: np.ndarray, off: float, x: np.ndarray) -> np.ndarray:
    """T x for the tridiagonal T with diagonal `diag` and the constant
    off-diagonal `off`, doubled in row 0 (the Neumann ghost row): a block
    of the steady Jacobian."""
    y = diag * x
    up = x[1:] * off
    up[0] *= 2.0
    y[:-1] += up
    y[1:] += x[:-1] * off
    return y


def _fill_schur(
    u: np.ndarray, v: np.ndarray, d: float, beta: float, gamma: float, h: float,
    ab: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Diagonals ja = 2 d / h^2 - f'(u) of J_uu and jb = 2 / h^2 + gamma +
    3 v^2 of J_vv at (u, v); P = J_uu J_vv + I is written into ab in LAPACK
    gbsv storage (entry (i, j) at row kl + ku + i - j, kl = ku = 2). The
    blocks' off-diagonals are -a and -c, a = d / h^2 and c = 1 / h^2,
    doubled in row 0, so P's second off-diagonals are the constant a c and
    its other entries come from ja and jb alone. Every band entry outside
    the matrix is set to zero, so a fill over an old LU equals a fresh
    one; the top kl rows, the LU's fill-in, need not be set on entry to
    dgbtrf and are left as they are."""
    a, c = d / h**2, 1.0 / h**2
    uu, vv = u[:-1], v[:-1]
    ja = 2.0 * a - uu * (2.0 * (1.0 + beta) - 3.0 * uu) + beta
    jb = vv * 3.0 * vv + (2.0 * c + gamma)
    k = STEADY_KL + STEADY_KU
    ac = a * c
    # second off-diagonals: the product of the two stencils' off-diagonals,
    # doubled at (0, 2)
    ab[k - 2, :2] = 0.0
    ab[k - 2, 2:] = ac
    ab[k - 2, 2:3] *= 2.0
    ab[k + 2, :-2] = ac
    ab[k + 2, -2:] = 0.0
    # first superdiagonal, (j - 1, j): -c ja[j-1] - a jb[j], doubled at (0, 1)
    ab[k - 1, 0] = 0.0
    ab[k - 1, 1:] = -c * ja[:-1] - a * jb[1:]
    ab[k - 1, 1] *= 2.0
    # first subdiagonal, (j + 1, j): -a jb[j] - c ja[j+1]
    ab[k + 1, :-1] = -a * jb[:-1] - c * ja[1:]
    ab[k + 1, -1] = 0.0
    # diagonal: ja jb + 1 plus an a c product from each neighbour; node 1
    # meets node 0's doubled ghost coupling, the last node has no right one
    ab[k] = ja * jb + (1.0 + 2.0 * ac)
    ab[k, 1] += ac
    ab[k, -1] -= ac
    return ja, jb


def _schur_solve(
    lub: np.ndarray, piv: np.ndarray, ja: np.ndarray, jb: np.ndarray, d: float,
    h: float, r: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Solution (du, dv) of J (du, dv) = -r through the Schur complement P
    of the inhibitor block, with ja and jb as _fill_schur returns them and
    dgbtrf's LU and pivots of P: dgbtrs solves P dv = -(r_u + J_uu r_v)
    from the LU, then du = J_vv dv + r_v."""
    ru, rv = r
    rhs = -(_stencil_matvec(ja, -d / h**2, rv) + ru)
    dv = dgbtrs(lub, STEADY_KL, STEADY_KU, rhs, piv, overwrite_b=1)[0]
    return _stencil_matvec(jb, -1.0 / h**2, dv) + rv, dv


@dataclass(frozen=True)
class SteadySolution:
    """Result of one coupled Newton solve of the steady system. det_sign is
    the sign of the Jacobian determinant at (u, v), 0 when it is singular.
    converged is True when (u, v) meets both blocks' roundoff floors or
    ||R||^2 underflows there, False when Newton stalled short of a root."""

    u: np.ndarray
    v: np.ndarray
    steps: int
    det_sign: int
    converged: bool


def solve_steady(
    u: np.ndarray, v: np.ndarray, d: float, beta: float, gamma: float, h: float
) -> SteadySolution:
    """Damped Newton on steady_residual from (u, v), node n held at zero.

    The Jacobian is J = [[J_uu, I], [-I, J_vv]] in activator and inhibitor
    blocks, J_uu = d (-D2) - f'(u) and J_vv = -D2 + gamma + 3 v^2, both
    tridiagonal with the ghost row at node 0. Each step eliminates the
    inhibitor block (Golub & Van Loan, section 4.5): with b = -R split into
    its activator rows b_u and inhibitor rows b_v, it solves the n-row
    pentadiagonal system

        P dv = b_u + J_uu b_v,    P = J_uu J_vv + I,

    and sets du = J_vv dv - b_v. One band for P is allocated per call and
    refilled at every iterate from the two diagonals; LAPACK dgbtrf factors
    it in place and dgbtrs solves for the step from that LU. Since det J =
    det J_vv det(J_uu + J_vv^{-1}) = det P, the determinant sign comes from
    P's LU. With v = N(u) it equals the sign of the reduced Hessian's
    determinant, so -1 marks a saddle of odd index.

    Each step backtracks on ||R||^2 by the Armijo test of solve_inhibitor,
    and also keeps a trial at which each block of rows is at the roundoff
    floor of its 1/h^2 stencil: there the inhibitor rows' rounding, which
    sits below their floor but dominates ||R||^2, can refuse a step that
    took the activator rows below theirs. The iteration stops at the floor,
    or when no step along the Newton direction lowers ||R||^2 (a singular
    P counts as such). The solve has converged when it stops at the floor,
    or where ||R||^2 is zero or subnormal: there the floors, which scale
    with max |u| and max |v|, can sit below what the Armijo test resolves
    (the rest state).
    """
    u = np.array(u, dtype=float)
    v = np.array(v, dtype=float)
    u[-1] = 0.0
    v[-1] = 0.0
    m = len(u) - 1

    def at_floor(r: np.ndarray, u: np.ndarray, v: np.ndarray) -> bool:
        umax = _abs_max(u)
        vmax = _abs_max(v)
        f_bound = umax * (1.0 + umax) * (umax + beta)
        u_floor = 8.0 * _EPS * (4.0 * d * umax / h**2 + f_bound + vmax)
        return (
            _abs_max(r[0]) <= u_floor
            and _abs_max(r[1]) <= _inhibitor_floor(vmax, umax, gamma, h)
        )

    r = steady_residual(u, v, d, beta, gamma, h)
    rn2 = float(np.vdot(r, r))
    steps = 0
    ab = np.zeros((2 * STEADY_KL + STEADY_KU + 1, m), order="F")
    while True:
        ja, jb = _fill_schur(u, v, d, beta, gamma, h, ab)
        lub, piv, info = dgbtrf(ab, STEADY_KL, STEADY_KU, overwrite_ab=1)
        det_sign = 0 if info != 0 else _band_lu_det_sign(lub, piv)
        converged = at_floor(r, u, v)
        if converged or info != 0:
            break
        du, dv = _schur_solve(lub, piv, ja, jb, d, h, r)
        t = 1.0
        accepted = False
        for _ in range(40):
            u_try = u.copy()
            v_try = v.copy()
            u_try[:-1] += t * du
            v_try[:-1] += t * dv
            r_try = steady_residual(u_try, v_try, d, beta, gamma, h)
            rn2_try = float(np.vdot(r_try, r_try))
            # the target equals rn2 only when rn2 is zero or subnormal: a
            # root to the last representable bit, where no step can help
            target = (1.0 - 2e-4 * t) * rn2
            if rn2_try <= target < rn2 or at_floor(r_try, u_try, v_try):
                accepted = True
                break
            t *= 0.5
        if not accepted:
            converged = rn2 < _TINY
            break
        u, v, r, rn2 = u_try, v_try, r_try, rn2_try
        steps += 1
    return SteadySolution(u=u, v=v, steps=steps, det_sign=det_sign, converged=converged)
