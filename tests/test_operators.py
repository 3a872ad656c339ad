"""Screened resolvents, the nonlinear inhibitor solve, and its derivative."""

import os
import pathlib
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import solveh_banded
from scipy.linalg.lapack import dgbcon, dgbsv, dgbtrf, dgbtrs

from fhn_pulse import (
    GreenKind,
    Grid,
    MinimizeOptions,
    Params,
    Profile,
    apply_green,
    build_q0,
    compute_constants,
    default_initial_profile,
    evaluate_energy,
    minimize,
    negative_tail_cutoff,
    solve_inhibitor,
)
from fhn_pulse import operators
from fhn_pulse.analysis import random_admissible_profile, random_bumps
from fhn_pulse.minimizer import _newton_polish
from fhn_pulse.operators import (
    STEADY_KL,
    STEADY_KU,
    InhibitorError,
    _band_lu_det_sign,
    _cubic_balance,
    _fd_residual,
    _fill_schur,
    _gradient_values,
    _schur_solve,
    factor_shifted,
    inhibitor_derivative,
    solve_factored,
    solve_shifted,
    solve_steady,
    steady_residual,
)
from tests.conftest import FINE_PARAMS

GAMMA = 0.3
GRID = Grid(30.0, 2048)


def bump_profile(
    grid: Grid, seed: int, lo: float = 0.0, hi: float = 1.0, span: float | None = None
) -> Profile:
    rng = np.random.default_rng(seed)
    x = grid.nodes()
    vals = np.zeros_like(x)
    span = grid.x_max - 5.0 if span is None else span
    for _ in range(4):
        c = rng.uniform(1.0, span)
        w = rng.uniform(0.5, 3.0)
        vals += rng.uniform(0.2, 1.0) * np.exp(-(((x - c) / w) ** 2))
    vals = lo + (hi - lo) * vals / max(vals.max(), 1e-12)
    vals[-1] = 0.0
    return Profile(grid, vals)


def banded_solve(c, rhs: np.ndarray, h: float) -> np.ndarray:
    """Reference for solve_shifted: the symmetrized (-D2 + c) matrix in
    upper banded storage, solved by scipy.linalg.solveh_banded."""
    m = len(rhs)
    ab = np.zeros((2, m))
    ab[0, 1:] = -1.0 / h**2
    cc = np.broadcast_to(np.asarray(c, dtype=float), (m,)).copy()
    diag = 2.0 / h**2 + cc
    diag[0] = 1.0 / h**2 + 0.5 * cc[0]
    ab[1, :] = diag
    b = np.array(rhs, dtype=float)
    b[0] *= 0.5
    return np.append(solveh_banded(ab, b, lower=False), 0.0)


def expression_residual(v, u, gamma, h):
    """Reference for _fd_residual: its rows written as one expression."""
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


def reference_inhibitor_newton(
    u: Profile, gamma: float, tol=1e-11, max_iters=50, v_init=None
):
    """Reference for solve_inhibitor: the same damped Newton on banded
    solves and the expression residual, with the roundoff floor recomputed
    from v and u on every iteration. A cold start is the linear response
    moved node by node to the real root of w^3 + gamma w = gamma v_L.
    Returns (v, interior residual, Newton steps, converged)."""
    h = u.grid.h
    uu = u.values[:-1]
    if v_init is None:
        vl = banded_solve(gamma, uu, h)
        v = 2.0 * np.sqrt(gamma / 3.0) * np.sinh(
            np.arcsinh(1.5 * np.sqrt(3.0 / gamma) * vl) / 3.0
        )
    else:
        v = v_init.values.copy()
        v[-1] = 0.0

    def tol_floor(vv):
        vmax = float(np.max(np.abs(vv)))
        umax = float(np.max(np.abs(uu)))
        eps = float(np.finfo(float).eps)
        return max(tol, 8.0 * eps * (4.0 * vmax / h**2 + gamma * vmax + vmax**3 + umax))

    iters = 0
    r = expression_residual(v, uu, gamma, h)
    rn2 = float(np.dot(r, r))
    converged = float(np.max(np.abs(r))) <= tol_floor(v)
    while not converged and iters < max_iters:
        delta = banded_solve(gamma + 3.0 * v[:-1] ** 2, -r, h)
        t = 1.0
        accepted = False
        for _ in range(40):
            r_try = expression_residual(v + t * delta, uu, gamma, h)
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
        converged = float(np.max(np.abs(r))) <= tol_floor(v)
    return v, float(np.max(np.abs(r[1:]))), iters, converged


class TestSolveShifted:
    # a scalar shift and a per-node Newton coefficient gamma + 3 v^2
    @pytest.mark.parametrize("per_node", [False, True])
    @pytest.mark.parametrize("m", [64, 4096, 32768])
    def test_matches_banded_solve(self, m, per_node):
        h = 12.0 / m
        rng = np.random.default_rng(m)
        rhs = rng.standard_normal(m)
        c = 0.1 + 3.0 * rng.standard_normal(m) ** 2 if per_node else 0.3
        before = rhs.copy()
        v = solve_shifted(c, rhs, h)
        assert v.shape == (m + 1,)
        assert v[-1] == 0.0
        assert np.array_equal(rhs, before)
        assert np.array_equal(v, banded_solve(c, rhs, h))

    def test_indefinite_operator_rejected(self):
        with pytest.raises(np.linalg.LinAlgError):
            solve_shifted(-1e3, np.ones(16), 0.1)

    def test_scalar_shift_across_keys(self):
        # the cached factor is the one of the key asked for: repeated and
        # interleaved (c, h, m) keys, ints and numpy scalars among them,
        # solve as dptsv does, bit for bit
        rng = np.random.default_rng(5)
        keys = [(0.3, 30.0 / 4096, 4096), (1.3, 30.0 / 4096, 4096),
                (0.3, 12.0 / 512, 512), (2, 0.25, 64), (np.float64(0.3), 30.0 / 4096, 4096)]
        for k in [0, 0, 1, 0, 2, 2, 3, 1, 4, 0, 3]:
            c, h, m = keys[k]
            rhs = rng.standard_normal(m)
            before = rhs.copy()
            v = solve_shifted(c, rhs, h)
            assert np.array_equal(rhs, before)
            assert np.array_equal(v, banded_solve(c, rhs, h))

    def test_cached_factor_is_read_only(self):
        c, h, m = 0.3, 30.0 / 1024, 1024
        solve_shifted(c, np.ones(m), h)
        diag, off = operators._scalar_factor(c, h, m)
        assert not diag.flags.writeable and not off.flags.writeable
        with pytest.raises(ValueError):
            diag[0] = 1.0
        saved = diag.copy(), off.copy()
        rng = np.random.default_rng(6)
        for _ in range(3):
            solve_shifted(c, rng.standard_normal(m), h)
        assert operators._scalar_factor(c, h, m)[0] is diag
        assert np.array_equal(diag, saved[0]) and np.array_equal(off, saved[1])

    def test_indefinite_scalar_shift_raises_on_every_call(self):
        # a failed factorization is not cached: each call factors and
        # raises, and the last good factor stays in the cache
        rhs = np.ones(16)
        solve_shifted(0.5, rhs, 0.1)
        before = operators._scalar_factor.cache_info()
        for _ in range(3):
            with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
                solve_shifted(-1e3, rhs, 0.1)
        after = operators._scalar_factor.cache_info()
        assert after.misses == before.misses + 3 and after.currsize == 1
        solve_shifted(0.5, rhs, 0.1)
        assert operators._scalar_factor.cache_info().hits == after.hits + 1

    def test_matches_dense_solve(self):
        # cross-check the banded path against a dense assembly of the same
        # Neumann/Dirichlet finite-difference matrix
        n, h, c = 64, 0.25, 0.7
        rng = np.random.default_rng(3)
        rhs = rng.standard_normal(n)
        A = np.zeros((n, n))
        for i in range(n):
            A[i, i] = 2.0 / h**2 + c
            if i > 0:
                A[i, i - 1] = -1.0 / h**2
            if i < n - 1:
                A[i, i + 1] = -1.0 / h**2
        A[0, 0] = 2.0 / h**2 + c  # ghost-node Neumann row: -2 v0 + 2 v1
        A[0, 1] = -2.0 / h**2
        v_dense = np.linalg.solve(A, rhs)
        v = solve_shifted(c, rhs, h)
        assert v[-1] == 0.0
        assert np.allclose(v[:-1], v_dense, rtol=1e-10, atol=1e-12)


def longdouble_thomas(diag: np.ndarray, off: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Thomas solve of the symmetric tridiagonal (diag, off) system in
    np.longdouble, one row at a time: the reference a float64 solve of the
    same stored entries is held to."""
    ld = np.longdouble
    d = [ld(v) for v in diag]
    e = [ld(v) for v in off]
    y = [ld(v) for v in b]
    for i in range(1, len(d)):
        f = e[i - 1] / d[i - 1]
        d[i] -= f * e[i - 1]
        y[i] -= f * y[i - 1]
    x = y  # back substitution in place
    x[-1] = y[-1] / d[-1]
    for i in range(len(d) - 2, -1, -1):
        x[i] = (y[i] - e[i] * x[i + 1]) / d[i]
    return np.array(x, dtype=ld)


def assert_solves_symmetrized(v, rhs, c, h, a=1.0):
    """v solves the symmetrized a (-D2) + c system, scaled to -D2 + c/a,
    for rhs: within 1e-11 of the long double Thomas solve of the stored
    entries and with a normwise backward error of at most 4 ulps."""
    diag, off = operators._shifted_tridiagonal(c / a, h, len(rhs))
    # the ghost row halved, rhs with it
    b = rhs.astype(np.longdouble) / np.longdouble(a)
    b[0] *= 0.5
    ref = longdouble_thomas(diag, off, b)
    x = v[:-1].astype(np.longdouble)
    # a silently copied right-hand side would leave v unsolved
    assert np.max(np.abs(x - ref)) <= 1e-11 * np.max(np.abs(ref))
    # normwise backward error, the residual taken in long double
    r = b - diag * x
    r[:-1] -= off * x[1:]
    r[1:] -= off * x[:-1]
    norm_a = np.max(diag) + 2.0 * np.max(np.abs(off), initial=0.0)
    eta = np.max(np.abs(r)) / (norm_a * np.max(np.abs(x)) + np.max(np.abs(b)))
    assert eta <= 4.0 * np.finfo(float).eps


class TestSolveFactored:
    # the time-stepping coefficients 1/(dt d) and tau/dt + gamma at the
    # criterion-7 run (dt = 1e-3, d = 1e-6, gamma = 0.1), weak shifts, the
    # v operator of the dt = 1e-104 blow-up test, and sizes below, at and
    # off the 32-unknown blocks of the stationary solve. The carry scan's
    # levels run to the first whose multiplier flushes to 0: c = 1e9
    # flushes at level 0 (one multiply, no GEMM level), c = 1000.1 at
    # m = 4096 at level 1 (multiplier 0.052, then flushed), and
    # m = 131072 at c = 0.1 keeps three GEMM levels (0.9991, 0.971 and
    # 0.387)
    @pytest.mark.parametrize(
        "m, c",
        [(m, c) for m in (16, 17, 33, 64, 1000, 4096, 4097, 32768)
         for c in (1e9, 1000.1, 0.1, 1e-3, 1e104)] + [(131072, 0.1)],
    )
    def test_matches_unfactored_solve(self, m, c):
        h = 12.0 / m
        rhs = np.random.default_rng(m).standard_normal(m)
        before = rhs.copy()
        v = solve_factored(factor_shifted(c, h, m), rhs)
        assert v.shape == (m + 1,)
        assert v[-1] == 0.0
        assert np.array_equal(rhs, before)
        assert_solves_symmetrized(v, rhs, c, h)

    # a = d = 1e-6 with c = 1/dt = 1000 is the criterion-7 activator
    # operator, scaled to -D2 + 1e9
    @pytest.mark.parametrize("a", [1.0, 1e-6])
    @pytest.mark.parametrize("c", [1000.0, 0.1, 1e-3])
    @pytest.mark.parametrize("m", [16, 33, 4097, 32768])
    def test_diffusion_coefficient_matches_unfactored_solve(self, m, c, a):
        h = 12.0 / m
        rhs = np.random.default_rng(m).standard_normal(m)
        factor = factor_shifted(c, h, m, a)
        v = solve_factored(factor, rhs)
        assert v[-1] == 0.0
        assert_solves_symmetrized(v, rhs, c, h, a)
        if a == 1.0:
            assert np.array_equal(v, solve_factored(factor_shifted(c, h, m), rhs))

    @pytest.mark.parametrize("a", [1.0, 1e-6])
    @pytest.mark.parametrize("m", [17, 32768])
    def test_scratch_rhs_matches_separate_rhs(self, m, a):
        # a right-hand side formed in factor.rhs is solved there with no
        # copy, to the bits of the same values passed as their own array
        factor = factor_shifted(1000.0, 12.0 / m, m, a)
        rhs = np.random.default_rng(m).standard_normal(m)
        ref = solve_factored(factor, rhs)
        factor.rhs[:] = rhs
        out = np.full(m + 1, np.nan)
        assert solve_factored(factor, factor.rhs, out=out) is out
        assert np.array_equal(out, ref)
        factor.rhs[:] = rhs
        assert np.array_equal(solve_factored(factor, factor.rhs), ref)
        assert factor.rhs.shape == (m,)
        assert np.shares_memory(factor.rhs, factor.x)

    @pytest.mark.parametrize("m", [17, 32768])
    def test_shared_scratch_matches_own_scratch(self, m):
        # a factor built over another's blocked scratch solves to the bits
        # of one with its own, and the other factor's solves are unchanged
        h = 12.0 / m
        rhs = np.random.default_rng(m).standard_normal(m)
        own_u = factor_shifted(1000.0, h, m, 1e-6)
        own_v = factor_shifted(1000.1, h, m)
        factor_u = factor_shifted(1000.0, h, m, 1e-6)
        factor_v = operators.ShiftedFactor(1000.1, h, m, _scratch=factor_u.x)
        assert factor_v.x is factor_u.x
        for _ in range(2):
            assert np.array_equal(solve_factored(factor_u, rhs), solve_factored(own_u, rhs))
            assert np.array_equal(solve_factored(factor_v, rhs), solve_factored(own_v, rhs))
        with pytest.raises(ValueError, match="scratch of shape"):
            operators.ShiftedFactor(1000.1, h, m + 64, _scratch=factor_u.x)

    @pytest.mark.parametrize("a", [0.0, -1e-6, np.nan, np.inf])
    def test_diffusion_coefficient_validated(self, a):
        with pytest.raises(ValueError, match="diffusion coefficient must be positive"):
            factor_shifted(1.0, 0.1, 16, a)

    @pytest.mark.parametrize("c", [1e9, 1000.1])
    @pytest.mark.parametrize("m", [64, 32768])
    def test_out_buffer_matches_copying_solve(self, m, c):
        factor = factor_shifted(c, 12.0 / m, m)
        rhs = np.random.default_rng(m).standard_normal(m)
        before = rhs.copy()
        ref = solve_factored(factor, rhs)
        # the right-hand side written into the buffer, solved where it stands
        buf = np.empty(m + 1)
        buf[:-1] = rhs
        assert solve_factored(factor, buf[:-1], out=buf) is buf
        assert np.array_equal(buf, ref)
        # a separate right-hand side is read, not written
        out = np.full(m + 1, np.nan)
        assert solve_factored(factor, rhs, out=out) is out
        assert np.array_equal(out, ref)
        assert np.array_equal(rhs, before)

    @pytest.mark.parametrize(
        "out",
        [np.empty(17), np.empty(15), np.empty(16, dtype=np.float32), np.empty(32)[::2]],
        ids=["long", "short", "float32", "strided"],
    )
    def test_out_buffer_validated(self, out):
        # the solve would run in a silent copy of such a buffer
        with pytest.raises(ValueError, match="out must be"):
            solve_factored(factor_shifted(0.5, 0.1, 15), np.ones(15), out=out)

    def test_factor_layout(self):
        # the factor owns every array its solves touch; nbytes is their
        # total (the benchmark tracer's computed bytes read it), a few
        # state arrays at most, and a solve allocates none of it anew
        for m in (16, 4097, 32768):
            factor = factor_shifted(1000.1, 12.0 / m, m)
            assert factor.m == m
            arrays = [a for a in vars(factor).values() if isinstance(a, np.ndarray)]
            for level in factor.levels:
                arrays += [a for a in vars(level).values() if isinstance(a, np.ndarray)]
            # views into the scratch are not counted twice
            arrays = [a for a in arrays if a.base is None]
            assert all(a.dtype == np.float64 and a.flags.c_contiguous for a in arrays)
            assert factor.nbytes == sum(a.nbytes for a in arrays)
            assert factor.nbytes <= 3 * 8 * m + 32 * 1024
            rhs = np.random.default_rng(m).standard_normal(m)
            first = solve_factored(factor, rhs)
            assert np.array_equal(solve_factored(factor, rhs), first)
            assert factor.nbytes == sum(a.nbytes for a in arrays)

    def test_no_threaded_blas(self):
        # every BLAS call of a solve stays below OpenBLAS's threading
        # threshold. With BLAS threads unpinned, 200 solves at m = 32768
        # take no more CPU time than wall time (a threaded call's workers
        # spin) and not much more wall time than pinned to one thread (on
        # a busy host a threaded call's workers may wait instead). Idle
        # workers spin for up to ~0.1 s after their last task before they
        # sleep, hence the pause before the timed solves.
        code = (
            "import time, numpy as np\n"
            "from fhn_pulse.operators import factor_shifted, solve_factored\n"
            "m = 32768\n"
            "factor = factor_shifted(1000.1, 12.0 / m, m)\n"
            "out = np.empty(m + 1)\n"
            "rhs = np.random.default_rng(0).standard_normal(m)\n"
            "for _ in range(20): solve_factored(factor, rhs, out=out)\n"
            "time.sleep(0.3)\n"
            "wall, cpu, best = time.perf_counter(), time.process_time(), float('inf')\n"
            "for _ in range(10):\n"
            "    t = time.perf_counter()\n"
            "    for _ in range(20): solve_factored(factor, rhs, out=out)\n"
            "    best = min(best, time.perf_counter() - t)\n"
            "wall, cpu = time.perf_counter() - wall, time.process_time() - cpu\n"
            "print(cpu / wall, best)\n"
        )
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        runs = []
        # a process with threaded calls does not always show spinning
        # workers on a busy host, so three unpinned processes are checked
        for pinned in (False, False, False, True):
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (str(src), env.get("PYTHONPATH")) if p
            )
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
                env.pop(var, None)
                if pinned:
                    env[var] = "1"
            proc = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True,
                env=env, check=True,
            )
            runs.append([float(v) for v in proc.stdout.split()])
        *unpinned, (_, pinned_best) = runs
        assert all(cpu_per_wall <= 1.3 for cpu_per_wall, _ in unpinned)
        assert min(best for _, best in unpinned) <= 3.0 * pinned_best

    def test_indefinite_operator_rejected(self):
        with pytest.raises(np.linalg.LinAlgError):
            factor_shifted(-1e3, 0.1, 16)
        with pytest.raises(ValueError, match="shift must be finite"):
            factor_shifted(np.inf, 0.1, 16)
        with pytest.raises(ValueError, match="rhs has 15 entries"):
            solve_factored(factor_shifted(0.5, 0.1, 16), np.ones(15))


class TestApplyGreen:
    def test_zero_maps_to_zero(self):
        w = Profile(GRID, np.zeros(GRID.n + 1))
        for kind in GreenKind:
            for method in ("solve", "quadrature"):
                v = apply_green(kind, w, GAMMA, method=method)
                assert np.max(np.abs(v.values)) == 0.0

    @pytest.mark.parametrize("method", ["solve", "quadrature"])
    @pytest.mark.parametrize("kind", list(GreenKind))
    @pytest.mark.parametrize("gamma", [np.nan, np.inf, -np.inf])
    def test_rejects_gamma_not_positive_finite(self, gamma, kind, method):
        # both methods refuse it alike, naming gamma; an infinite gamma
        # gave zeros by the solve and a non-finite profile by quadrature
        w = bump_profile(GRID, 0)
        with pytest.raises(
            ValueError, match=r"^effective decay gamma \+ shift = \S+ must be positive"
        ):
            apply_green(kind, w, gamma, method=method)

    def test_constant_one_gives_inverse_gamma(self):
        w = Profile(GRID, np.ones(GRID.n + 1))
        v = apply_green(GreenKind.L, w, GAMMA)
        x = GRID.nodes()
        # the truncation boundary layer has amplitude
        # (1/gamma) e^{-sqrt(gamma) (x_max - x)}: about 3.8e-6 at x = 5
        assert np.max(np.abs(v.values[x < 5.0] - 1.0 / GAMMA)) < 1e-5
        assert np.max(np.abs(v.values[x < 20.0] - 1.0 / GAMMA)) < 2e-2

    def test_bounded_input_bounded_output(self):
        for seed in range(5):
            w = bump_profile(GRID, seed)
            v = apply_green(GreenKind.L, w, GAMMA)
            assert v.values.max() <= 1.0 / GAMMA + 1e-9
            assert v.values.min() >= -1e-9

    def test_kind_shift(self):
        assert GreenKind.L.gamma_shift == 0.0
        assert GreenKind.L0.gamma_shift == 1.0
        w = bump_profile(GRID, 7)
        vL = apply_green(GreenKind.L, w, GAMMA)
        vL0 = apply_green(GreenKind.L0, w, GAMMA)
        # stronger screening gives the pointwise smaller response
        assert np.all(vL0.values <= vL.values + 1e-12)

    def test_methods_agree_order_h2(self):
        # L0 keeps the truncation error below h^2 on this domain
        errs = []
        for n in (512, 1024, 2048):
            grid = Grid(30.0, n)
            x = grid.nodes()
            w = Profile(grid, np.exp(-((x - 8.0) ** 2)))
            a = apply_green(GreenKind.L0, w, GAMMA, method="solve")
            b = apply_green(GreenKind.L0, w, GAMMA, method="quadrature")
            errs.append(float(np.max(np.abs(a.values - b.values))))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.4)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.4)

    def test_unknown_method(self):
        w = bump_profile(GRID, 0)
        with pytest.raises(ValueError):
            apply_green(GreenKind.L, w, GAMMA, method="spectral")


class TestSolveInhibitor:
    def test_zero_input(self):
        w = Profile(GRID, np.zeros(GRID.n + 1))
        sol = solve_inhibitor(w, GAMMA)
        assert sol.newton_iters <= 1
        assert np.max(np.abs(sol.v.values)) == 0.0

    def test_residual_satisfied(self):
        w = bump_profile(GRID, 11)
        sol = solve_inhibitor(w, GAMMA, tol=1e-11)
        v = sol.v.values
        h = GRID.h
        res = (
            (-v[:-2] + 2.0 * v[1:-1] - v[2:]) / h**2
            + GAMMA * v[1:-1]
            + v[1:-1] ** 3
            - w.values[1:-1]
        )
        assert np.max(np.abs(res)) < 1e-9

    def test_resolvent_sandwich_on_nonnegative(self):
        # input supported far from x_max: the half-line L0 kernel sits above
        # the truncated solve by only e^{-sqrt(gamma+1) dist} there
        for seed in (1, 2, 3):
            w = bump_profile(GRID, seed, span=12.0)
            sol = solve_inhibitor(w, GAMMA)
            lo = apply_green(GreenKind.L0, w, GAMMA, method="quadrature")
            hi = apply_green(GreenKind.L, w, GAMMA, method="quadrature")
            tol = 1e-6
            assert np.all(sol.v.values >= lo.values - tol)
            assert np.all(sol.v.values <= hi.values + tol)

    def test_admissible_bounds(self):
        beta = 0.4
        M = negative_tail_cutoff(beta, GAMMA)
        w = bump_profile(GRID, 5, lo=-(M + 1.0), hi=1.0)
        sol = solve_inhibitor(w, GAMMA)
        assert np.all(sol.v.values <= 1.0 + 1e-9)
        assert np.all(sol.v.values >= -(M + 1.0) - 1e-9)

    def test_warm_start_accepted(self):
        w = bump_profile(GRID, 9)
        cold = solve_inhibitor(w, GAMMA)
        warm = solve_inhibitor(w, GAMMA, v_init=cold.v)
        assert warm.newton_iters <= 1
        assert np.allclose(warm.v.values, cold.v.values, atol=1e-9)

    def test_linear_response_start_is_the_cold_start(self, monkeypatch):
        # the caller's L u is the linear solve a cold start makes, so the
        # solve takes the same steps to the same bits, with no linear solve
        w = bump_profile(GRID, 9, lo=-1.0, hi=1.0)
        cold = solve_inhibitor(w, GAMMA)
        lw = apply_green(GreenKind.L, w, GAMMA)
        calls = []

        def counted(*args):
            calls.append(None)
            return solve_shifted(*args)

        monkeypatch.setattr(operators, "solve_shifted", counted)
        started = solve_inhibitor(w, GAMMA, v_linear=lw)
        assert calls == []
        assert started.newton_iters == cold.newton_iters > 0
        assert np.array_equal(started.v.values, cold.v.values)
        with pytest.raises(ValueError, match="not both"):
            solve_inhibitor(w, GAMMA, v_init=cold.v, v_linear=lw)
        other = Grid(GRID.x_max, 2 * GRID.n)
        with pytest.raises(ValueError, match="different grid"):
            solve_inhibitor(w, GAMMA, v_linear=Profile(other, np.zeros(other.n + 1)))

    def test_nonconvergence_reported(self):
        # a miss raises with the interior residual of the last iterate, here
        # the cold start
        w = bump_profile(GRID, 13)
        _, res, iters, converged = reference_inhibitor_newton(w, GAMMA, max_iters=0)
        assert not converged and iters == 0 and res > 0.0
        message = f"inhibitor solve failed: residual {res:.3e} after 0 Newton steps"
        with pytest.raises(InhibitorError, match=f"^{re.escape(message)}$"):
            solve_inhibitor(w, GAMMA, max_iters=0)

    def test_overflowing_warm_start_reported(self):
        # past max |v| ~ 5.6e102 the floor's v^3 overflows: it is +inf, not
        # an OverflowError, and the infinite residual there is no root, so
        # the solve raises the error minimize and the CLI catch
        grid = Grid(12.0, 2048)
        v = np.full(grid.n + 1, 6e102)
        with np.errstate(all="ignore"), pytest.raises(InhibitorError, match="residual inf"):
            solve_inhibitor(Profile(grid, np.zeros(grid.n + 1)), GAMMA, v_init=Profile(grid, v))

    def test_stall_at_roundoff_reported(self, monkeypatch):
        # with the roundoff floor dropped and tol = 0 no iterate converges:
        # Newton reaches roundoff, where none of the 40 trials of a step
        # lowers ||r||, and the solve raises there, before max_iters
        log = []

        def residual(*args):
            log.append("r")
            return fd_residual(*args)

        def traced(*args):
            log.append("S")
            return ptsv(*args)

        ptsv, fd_residual = operators._ptsv, operators._fd_residual
        monkeypatch.setattr(operators, "_ptsv", traced)
        monkeypatch.setattr(operators, "_fd_residual", residual)
        monkeypatch.setattr(operators, "_inhibitor_floor", lambda *args: 0.0)
        with pytest.raises(InhibitorError) as exc:
            solve_inhibitor(bump_profile(GRID, 13), GAMMA, tol=0.0)
        steps = int(re.search(r"after (\d+) Newton steps$", str(exc.value)).group(1))
        assert 0 < steps < 50
        assert log.count("S") == steps + 1
        assert "".join(log).endswith("S" + "r" * 40)

    def test_tolerance_floor_prevents_false_failure(self):
        # an unreachable tolerance is widened to the h^-2 roundoff floor
        # instead of reporting a spurious non-convergence
        grid = Grid(12.0, 32768)
        x = grid.nodes()
        vals = 0.9 * np.exp(-(x**2))
        vals[-1] = 0.0
        sol = solve_inhibitor(Profile(grid, vals), GAMMA, tol=1e-30)
        assert sol.residual_max > 1e-30

    def test_rejects_bad_gamma(self):
        w = bump_profile(GRID, 0)
        with pytest.raises(ValueError):
            solve_inhibitor(w, 0.0)

    @pytest.mark.parametrize("solve", ["solve_inhibitor", "inhibitor_derivative"])
    @pytest.mark.parametrize("gamma", [np.nan, np.inf, -np.inf, -1.0, 0.0])
    def test_rejects_gamma_not_positive_finite(self, gamma, solve):
        # an invalid gamma is refused before any solve, not reported as a
        # Newton miss with a NaN residual; the derivative gave zeros for an
        # infinite gamma, a non-finite profile for NaN and LinAlgError for
        # a negative one
        w = bump_profile(GRID, 0)
        with pytest.raises(ValueError, match="^gamma must be positive"):
            if solve == "solve_inhibitor":
                solve_inhibitor(w, gamma)
            else:
                inhibitor_derivative(w, w, w, gamma)

    def test_newton_step_allocates_no_state_array(self, monkeypatch):
        # a solve allocates its work arrays before its first Newton step,
        # so steps 2.. and their backtracking trials allocate no
        # state-sized array (8 (n + 1) = 256 KiB here). The peak is taken
        # from the second step's tridiagonal solve to each later one and
        # to the return, whose Profile check takes n + 1 bytes. From the
        # start v = -3, far below the response, step 6 backtracks.
        grid = Grid(12.0, 32768)
        u = bump_profile(grid, 21, lo=-1.5, hi=1.5, span=8.0)
        start = np.full(grid.n + 1, -3.0)
        start[-1] = 0.0
        v_init = Profile(grid, start)
        calls, peaks, log = [], [], []

        def traced(*args):
            calls.append(None)
            log.append("S")
            if len(calls) == 2:
                tracemalloc.reset_peak()
                calls[0] = tracemalloc.get_traced_memory()[0]
            elif len(calls) > 2:
                peaks.append(tracemalloc.get_traced_memory()[1])
            return ptsv(*args)

        def residual(*args):
            log.append("r")
            return fd_residual(*args)

        ptsv, fd_residual = operators._ptsv, operators._fd_residual
        monkeypatch.setattr(operators, "_ptsv", traced)
        monkeypatch.setattr(operators, "_fd_residual", residual)
        tracemalloc.start()
        try:
            sol = solve_inhibitor(u, GAMMA, v_init=v_init)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert sol.newton_iters == len(calls) >= 3
        # a refused trial (two residuals between solves) after step 2's solve
        trace = "".join(log)
        assert "rr" in trace[trace.index("S", trace.index("S") + 1):]
        assert max(peaks) - calls[0] <= 64 * 1024


class TestInhibitorNewtonBits:
    """solve_inhibitor reproduces the reference Newton loop bit for bit:
    its in-place residual, one max |u| per call and the dptsv solves change
    no rounding. It raises exactly where the reference reports a miss."""

    @staticmethod
    def assert_same_bits(u: Profile, gamma: float, v_init=None):
        v, res, iters, converged = reference_inhibitor_newton(u, gamma, v_init=v_init)
        assert iters >= 1  # the Newton loop ran
        if not converged:
            with pytest.raises(
                InhibitorError,
                match=re.escape(f"residual {res:.3e} after {iters} Newton steps"),
            ):
                solve_inhibitor(u, gamma, v_init=v_init)
            return
        sol = solve_inhibitor(u, gamma, v_init=v_init)
        assert np.array_equal(sol.v.values, v)
        assert sol.residual_max == res
        assert sol.newton_iters == iters

    @staticmethod
    def warm_start(u: Profile, gamma: float) -> Profile:
        # the response to a nearby input, as a descent step supplies it
        nearby = Profile(u.grid, 0.9 * u.values)
        return Profile(u.grid, reference_inhibitor_newton(nearby, gamma)[0])

    @pytest.mark.parametrize("start", ["cold", "nearby", "zero"])
    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_bump_profiles(self, seed, start, monkeypatch):
        u = bump_profile(GRID, seed, lo=-1.5, hi=1.5)
        v_init = None
        if start == "nearby":
            v_init = self.warm_start(u, GAMMA)
        elif start == "zero":
            # far from the response: the first Newton step backtracks
            v_init = Profile(GRID, np.zeros(GRID.n + 1))
        residuals = []

        def counted(*args):
            residuals.append(None)
            return fd_residual(*args)

        fd_residual = operators._fd_residual
        monkeypatch.setattr(operators, "_fd_residual", counted)
        self.assert_same_bits(u, GAMMA, v_init)
        if start == "zero":
            # one residual at the start and one per trial, a step per
            # accepted trial: the rest were refused
            iters = reference_inhibitor_newton(u, GAMMA, v_init=v_init)[2]
            assert len(residuals) - 1 > iters

    @pytest.mark.parametrize("warm", [False, True])
    def test_pulse_with_negative_tail(self, cheap_pulse, warm):
        u, gamma = cheap_pulse.u0, cheap_pulse.params.gamma
        assert u.values.min() < 0.0
        self.assert_same_bits(u, gamma, self.warm_start(u, gamma) if warm else None)

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_residual_matches_expression(self, seed):
        u = bump_profile(GRID, seed, lo=-1.5, hi=1.5).values
        v = bump_profile(GRID, seed + 10, lo=-2.0, hi=1.0).values
        assert np.array_equal(
            _fd_residual(v, u, GAMMA, GRID.h), expression_residual(v, u, GAMMA, GRID.h)
        )


class TestColdStart:
    """The cold inhibitor start: the linear response moved node by node to
    the real root of the local cubic balance."""

    @pytest.mark.parametrize("gamma", [1e-3, 0.1, 0.3, 10.0])
    def test_closed_form_solves_local_cubic(self, gamma):
        mag = np.logspace(-12, 3, 1000)
        vl = np.concatenate((-mag, mag, np.linspace(-1e3, 1e3, 2001)))
        w = _cubic_balance(vl, gamma)
        assert np.all(
            np.abs(w * w * w + gamma * w - gamma * vl) <= 1e-13 * gamma * np.abs(vl)
        )
        assert np.all(np.isfinite(_cubic_balance(np.array([-1e300, 1e300]), gamma)))
        assert _cubic_balance(np.zeros(1), gamma)[0] == 0.0

    @pytest.mark.parametrize("gamma", [0.05, 0.1, 0.3])
    def test_fewer_newton_steps_than_linear_start(self, gamma):
        # seeded admissible and smooth samples, as the inequality suite
        # draws them, solved cold and from the linear response
        grid = Grid(30.0, 1024)
        rng = np.random.default_rng(1024)
        M = compute_constants(0.4, gamma).M
        samples = [random_admissible_profile(rng, grid, 0.4, M) for _ in range(10)]
        samples += [
            Profile(grid, random_bumps(rng, grid, span=grid.x_max / 2.0))
            for _ in range(10)
        ]
        cold_steps = linear_steps = 0
        for w in samples:
            linear = Profile(grid, solve_shifted(gamma, w.values[:-1], grid.h))
            cold = solve_inhibitor(w, gamma)
            warm = solve_inhibitor(w, gamma, v_init=linear)
            assert np.max(np.abs(cold.v.values - warm.v.values)) <= 1e-8
            cold_steps += cold.newton_iters
            linear_steps += warm.newton_iters
        assert cold_steps <= 0.75 * linear_steps


class TestInhibitorDerivative:
    def test_zero_direction(self):
        w = bump_profile(GRID, 21)
        sol = solve_inhibitor(w, GAMMA)
        zero = Profile(GRID, np.zeros(GRID.n + 1))
        vh = inhibitor_derivative(w, sol.v, zero, GAMMA)
        assert np.max(np.abs(vh.values)) == 0.0

    def test_reduces_to_green_at_zero_state(self):
        zero = Profile(GRID, np.zeros(GRID.n + 1))
        what = bump_profile(GRID, 22)
        vh = inhibitor_derivative(zero, zero, what, GAMMA)
        lin = apply_green(GreenKind.L, what, GAMMA)
        assert np.allclose(vh.values, lin.values, atol=1e-11)

    def test_second_order_remainder(self):
        # |N(w + eps what) - N(w) - eps vhat| = O(eps^2): observed order >= 1.8
        w = bump_profile(GRID, 30)
        what = bump_profile(GRID, 31)
        sol = solve_inhibitor(w, GAMMA, tol=1e-12)
        vh = inhibitor_derivative(w, sol.v, what, GAMMA)
        rems = []
        for eps in (1e-3, 1e-4):
            pert = Profile(GRID, w.values + eps * what.values)
            sol_p = solve_inhibitor(pert, GAMMA, tol=1e-12, v_init=sol.v)
            rems.append(
                float(np.max(np.abs(sol_p.v.values - sol.v.values - eps * vh.values)))
            )
        order = np.log10(rems[0] / rems[1])
        assert order >= 1.8


def steady_jacobian(
    u: np.ndarray, v: np.ndarray, d: float, beta: float, gamma: float, h: float
) -> np.ndarray:
    """Jacobian of steady_residual in LAPACK general-band storage: a fresh
    Fortran-ordered (2 kl + ku + 1, 2n) array holding entry (i, j) at row
    kl + ku + i - j, with kl = ku = 2. The top kl rows are left free for
    the fill-in of the LU factorization, so dgbsv can factor in place."""
    m = len(u) - 1
    uu, vv = u[:-1], v[:-1]
    a, c = d / h**2, 1.0 / h**2
    k = STEADY_KL + STEADY_KU
    ab = np.zeros((2 * STEADY_KL + STEADY_KU + 1, 2 * m), order="F")
    # diagonal: 2 d / h^2 - f'(u) and 2 / h^2 + gamma + 3 v^2
    ab[k, 0::2] = 2.0 * a - uu * (2.0 * (1.0 + beta) - 3.0 * uu) + beta
    ab[k, 1::2] = 2.0 * c + gamma + 3.0 * vv * vv
    # the +v coupling of activator row i and the -u coupling of inhibitor row i
    ab[k - 1, 1::2] = 1.0
    ab[k + 1, 0::2] = -1.0
    # the stencil neighbours two columns away; the ghost rows double the
    # first superdiagonal pair, and no row lies below the last node
    ab[k - 2, 2::2] = -a
    ab[k - 2, 3::2] = -c
    ab[k - 2, 2:4] *= 2.0
    ab[k + 2, 0 : 2 * m - 2 : 2] = -a
    ab[k + 2, 1 : 2 * m - 2 : 2] = -c
    return ab


def interleaved(rows) -> np.ndarray:
    """The two blocks of rows (activator, inhibitor) in steady_jacobian's
    order: (u_0, v_0, u_1, v_1, ...)."""
    return np.stack(rows).T.ravel()


class TestSteadySystem:
    """Residual, banded Jacobian and coupled Newton of the steady system.
    steady_jacobian, the reference these tests hold the Schur form to,
    orders the unknowns and rows interleaved, (u_0, v_0, u_1, v_1, ...):
    the whole Jacobian is then one (2, 2)-banded matrix."""

    D, BETA, GAMMA_S, H = 0.07, 0.4, 0.1, 0.3

    def state(self, seed: int, m: int = 12):
        rng = np.random.default_rng(seed)
        u = rng.normal(size=m + 1)
        v = rng.normal(size=m + 1)
        u[-1] = v[-1] = 0.0
        return u, v

    def dense(self, u, v, d=D):
        ab = steady_jacobian(u, v, d, self.BETA, self.GAMMA_S, self.H)
        size = ab.shape[1]
        a = np.zeros((size, size))
        for j in range(size):
            for i in range(max(0, j - STEADY_KU), min(size, j + STEADY_KL + 1)):
                a[i, j] = ab[STEADY_KL + STEADY_KU + i - j, j]
        return ab, a

    def residual(self, x):
        u = np.append(x[0::2], 0.0)
        v = np.append(x[1::2], 0.0)
        r = steady_residual(u, v, self.D, self.BETA, self.GAMMA_S, self.H)
        return interleaved(r)

    def test_residual_rows_are_the_two_stencils(self):
        u, v = self.state(0)
        r = steady_residual(u, v, self.D, self.BETA, self.GAMMA_S, self.H)
        assert r.shape == (2, len(u) - 1) and r.flags.c_contiguous
        g = _gradient_values(u, v, self.D, self.BETA, self.H)
        assert np.array_equal(r[0], g[:-1])
        assert np.array_equal(r[1], _fd_residual(v, u, self.GAMMA_S, self.H))

    @pytest.mark.parametrize("seed", range(3))
    def test_jacobian_matches_central_differences(self, seed):
        u, v = self.state(seed)
        ab, a = self.dense(u, v)
        assert ab.shape == (2 * STEADY_KL + STEADY_KU + 1, 2 * (len(u) - 1))
        assert ab.flags.f_contiguous
        assert not ab[:STEADY_KL].any()  # LU fill-in rows start empty
        x = np.empty(a.shape[0])
        x[0::2], x[1::2] = u[:-1], v[:-1]
        fd = np.empty_like(a)
        for j in range(len(x)):
            e = np.zeros_like(x)
            e[j] = 1e-6
            fd[:, j] = (self.residual(x + e) - self.residual(x - e)) / 2e-6
        assert np.max(np.abs(fd - a)) <= 1e-7 * np.max(np.abs(a))

    def test_det_sign_matches_dense_determinant(self):
        # with weak diffusion, f'(u) > 2 d / h^2 on the middle branch makes
        # diagonal entries negative, so both signs occur
        signs = set()
        for seed in range(20):
            u, v = self.state(seed, m=10)
            u[:-1] = np.random.default_rng(seed).uniform(0.2, 0.8, size=10)
            ab, a = self.dense(u, v, d=1e-3)
            lub, piv, _, info = dgbsv(STEADY_KL, STEADY_KU, ab, np.ones(len(a)))
            assert info == 0
            sign = int(np.linalg.slogdet(a)[0])
            assert _band_lu_det_sign(lub, piv) == sign
            signs.add(sign)
        assert signs == {-1, 1}

    def test_newton_reaches_the_pulse_root(self, cheap_pulse):
        res = cheap_pulse
        p = res.params
        h = res.grid.h
        st = solve_steady(res.u0.values, res.v0.values, p.d, p.beta, p.gamma, h)
        r = steady_residual(st.u, st.v, p.d, p.beta, p.gamma, h)
        assert st.det_sign == 1
        assert np.max(np.abs(r[0])) < 1e-12
        assert np.max(np.abs(r[1])) < 1e-9
        assert st.u[-1] == 0.0 and st.v[-1] == 0.0
        assert np.max(np.abs(st.u - res.u0.values)) < 1e-9

    @pytest.mark.parametrize("case", ["pulse", "rest_state", "stall"])
    def test_converged_flag(self, case, cheap_pulse):
        # a solve has converged at both blocks' roundoff floors (the pulse)
        # or with ||R||^2 underflowed (the rest state past the fold, whose
        # floors shrink with the state), not where it stalls short of a root
        if case == "pulse":
            res = cheap_pulse
        elif case == "rest_state":
            params = Params(d=0.005, tau=1.0, gamma=0.1, beta=0.4)
            grid = Grid(20.0, 1024)
            start = default_initial_profile(params, grid)[0]
            res = minimize(params, grid, init=start, options=MinimizeOptions(max_iters=0))
        else:
            # one descent step from this ramp, Newton stalls
            grid = Grid(12.0, 4096)
            init = build_q0(0.03, 0.06, grid)
            res = minimize(FINE_PARAMS, grid, init=init, options=MinimizeOptions(max_iters=1))
        p, h = res.params, res.grid.h
        st = solve_steady(res.u0.values, res.v0.values, p.d, p.beta, p.gamma, h)
        r = steady_residual(st.u, st.v, p.d, p.beta, p.gamma, h)
        assert st.converged == (case != "stall")
        if case == "rest_state":
            assert np.max(np.abs(st.u)) < 1e-150
            assert float(np.vdot(r, r)) < np.finfo(float).tiny
        if case == "stall":
            assert np.max(np.abs(r[0])) > 1e-6

    def test_stops_at_underflowed_residual(self, monkeypatch):
        # past the fold Newton runs into the rest state: the first iterate
        # whose ||R||^2 underflows ends the solve, with no line search
        # after it
        params = Params(d=0.005, tau=1.0, gamma=0.1, beta=0.4)
        grid = Grid(20.0, 1024)
        start = default_initial_profile(params, grid)[0]
        res = minimize(params, grid, init=start, options=MinimizeOptions(max_iters=0))
        rn2 = []

        def counted(*args):
            r = steady_residual(*args)
            rn2.append(float(np.vdot(r, r)))
            return r

        monkeypatch.setattr(operators, "steady_residual", counted)
        p = res.params
        st = solve_steady(res.u0.values, res.v0.values, p.d, p.beta, p.gamma, grid.h)
        tiny = np.finfo(float).tiny
        assert st.converged and st.steps > 0
        assert [x < tiny for x in rn2] == [False] * (len(rn2) - 1) + [True]

    def column_pattern_band(self, u, v):
        """Oracle for steady_jacobian's strided row fill: the band built
        column by column, each column one contiguous 7-vector and the
        columns of u_i and v_i repeating one pattern each (the stencil
        neighbours two columns away, the +v and -u couplings), then edited
        at the edges, with the diagonal written last."""
        m = len(u) - 1
        uu, vv = u[:-1], v[:-1]
        beta, gamma = self.BETA, self.GAMMA_S
        a, c = self.D / self.H**2, 1.0 / self.H**2
        k = STEADY_KL + STEADY_KU
        ab = np.zeros((2 * STEADY_KL + STEADY_KU + 1, 2 * m), order="F")
        cols = ab.T.reshape(m, 2, ab.shape[0])
        cols[...] = ((0.0, 0.0, -a, 0.0, 0.0, -1.0, -a), (0.0, 0.0, -c, 1.0, 0.0, 0.0, -c))
        cols[0, :, k - 2] = 0.0
        cols[1:2, :, k - 2] *= 2.0
        cols[-1, :, k + 2] = 0.0
        ab[k, 0::2] = 2.0 * a - uu * (2.0 * (1.0 + beta) - 3.0 * uu) + beta
        ab[k, 1::2] = 2.0 * c + gamma + 3.0 * vv * vv
        return ab

    @pytest.mark.parametrize("m", [2, 3, 64, 4096])
    def test_refilled_band_bit_equal(self, m):
        # the reference band the Schur step is held to, against a second,
        # column-wise fill of the same entries
        u, v = self.state(m, m)
        fresh = steady_jacobian(u, v, self.D, self.BETA, self.GAMMA_S, self.H)
        assert np.array_equal(fresh, self.column_pattern_band(u, v))

    def test_factor_then_solve_matches_dgbsv(self):
        # dgbtrf then dgbtrs, as solve_steady factors P and solves from its
        # LU, give dgbsv's factors, pivots and solution bit for bit on P's
        # band; weak diffusion on the middle branch makes the LU pivot
        # (364 row interchanges here)
        m = 512
        u, v = self.state(7, m)
        u[:-1] = np.random.default_rng(7).uniform(0.2, 0.8, size=m)
        ab = np.zeros((2 * STEADY_KL + STEADY_KU + 1, m), order="F")
        _fill_schur(u, v, 1e-3, self.BETA, self.GAMMA_S, self.H, ab)
        b = np.random.default_rng(8).normal(size=m)
        lub, piv, x, info = dgbsv(STEADY_KL, STEADY_KU, ab, b)
        lu, ipiv, info_f = dgbtrf(ab, STEADY_KL, STEADY_KU)
        y, info_s = dgbtrs(lu, STEADY_KL, STEADY_KU, b, ipiv)
        assert info == info_f == info_s == 0
        assert np.count_nonzero(piv != np.arange(m)) == 364
        assert np.array_equal(lu, lub) and np.array_equal(ipiv, piv)
        assert np.array_equal(y, x)

    @staticmethod
    def schur_lu(u, v, d, beta, gamma, h):
        """LU of the Schur complement P at (u, v), as solve_steady factors
        it at every iterate."""
        ab = np.empty((2 * STEADY_KL + STEADY_KU + 1, len(u) - 1), order="F")
        _fill_schur(u, v, d, beta, gamma, h, ab)
        return dgbtrf(ab, STEADY_KL, STEADY_KU)

    @pytest.mark.parametrize("m", [2, 3, 12])
    def test_schur_band_is_block_product(self, m):
        # P's band holds J_uu J_vv + I, the blocks taken from the dense
        # interleaved Jacobian, edges and ghost rows included; filled over a
        # NaN band or over an old LU, every row below the fill-in equals a
        # fresh fill, entries outside the matrix included
        u, v = self.state(m, m)
        _, a = self.dense(u, v)
        p_dense = a[0::2, 0::2] @ a[1::2, 1::2] + np.eye(m)
        k = STEADY_KL + STEADY_KU
        args = (u, v, self.D, self.BETA, self.GAMMA_S, self.H)
        ab = np.full((2 * STEADY_KL + STEADY_KU + 1, m), np.nan, order="F")
        ja, jb = _fill_schur(*args, ab)
        assert np.array_equal(ja, np.diag(a[0::2, 0::2]))
        assert np.array_equal(jb, np.diag(a[1::2, 1::2]))
        band = np.zeros((m, m))
        for j in range(m):
            for i in range(max(0, j - STEADY_KU), min(m, j + STEADY_KL + 1)):
                band[i, j] = ab[k + i - j, j]
        assert np.all(np.isfinite(ab[STEADY_KL:]))
        assert np.allclose(band, p_dense, rtol=0.0, atol=1e-13 * np.max(np.abs(p_dense)))
        fresh = np.zeros_like(ab)
        _fill_schur(*args, fresh)
        assert np.array_equal(ab[STEADY_KL:], fresh[STEADY_KL:])
        lu = dgbtrf(fresh, STEADY_KL, STEADY_KU, overwrite_ab=1)[0]
        assert lu is fresh
        _fill_schur(*args, lu)
        assert np.array_equal(ab[STEADY_KL:], lu[STEADY_KL:])

    def test_schur_det_sign_matches_dense_determinant(self):
        # det J = det P: the sign from P's n-row LU is that of the dense
        # interleaved Jacobian, on states where both signs occur
        signs = set()
        for seed in range(20):
            u, v = self.state(seed, m=10)
            u[:-1] = np.random.default_rng(seed).uniform(0.2, 0.8, size=10)
            _, a = self.dense(u, v, d=1e-3)
            lu, ipiv, info = self.schur_lu(u, v, 1e-3, self.BETA, self.GAMMA_S, self.H)
            assert info == 0
            sign = int(np.linalg.slogdet(a)[0])
            assert _band_lu_det_sign(lu, ipiv) == sign
            signs.add(sign)
        assert signs == {-1, 1}

    @staticmethod
    def band_matvec(ab, x):
        """y = A x for A in general-band storage with kl = ku = 2."""
        k = STEADY_KL + STEADY_KU
        y = ab[k] * x
        for off in (1, 2):
            y[:-off] += ab[k - off, off:] * x[off:]
            y[off:] += ab[k + off, :-off] * x[:-off]
        return y

    @pytest.mark.parametrize("scale", [0.0, 1e-3])
    def test_schur_step_solves_the_interleaved_system(self, fine_pulse, scale):
        # the step from P, (du, dv) and the residual's two blocks of rows
        # interleaved, against steady_jacobian's band and its LU's step:
        # both within one ulp of normwise backward error (Rigal-Gaches;
        # measured <= 3.3e-17 and 1.7e-18). Then step - ref = J^-1 (e_step
        # - e_ref) for the residuals e = J x + r, each at most
        # eps (||J|| ||x|| + ||r||) in the inf-norm, and ||J^-1|| =
        # 1 / (rcond ||J||) with dgbcon's estimate of rcond (kappa ~ 2e10):
        # the bound the forward check takes (measured 1e-3 of it)
        p = FINE_PARAMS
        eps = np.finfo(float).eps
        h = fine_pulse.grid.h
        u = fine_pulse.u0.values.copy()
        v = fine_pulse.v0.values
        u[:-1] *= 1.0 + scale
        m = len(u) - 1
        r = steady_residual(u, v, p.d, p.beta, p.gamma, h)
        ab = np.empty((2 * STEADY_KL + STEADY_KU + 1, m), order="F")
        ja, jb = _fill_schur(u, v, p.d, p.beta, p.gamma, h, ab)
        lub, piv, info = dgbtrf(ab, STEADY_KL, STEADY_KU, overwrite_ab=1)
        assert info == 0 and lub is ab
        du, dv = _schur_solve(lub, piv, ja, jb, p.d, h, r)
        step, r = interleaved((du, dv)), interleaved(r)
        jac = steady_jacobian(u, v, p.d, p.beta, p.gamma, h)
        lu, ipiv, ref, info = dgbsv(STEADY_KL, STEADY_KU, jac, -r)
        assert info == 0
        norm_j = np.max(self.band_matvec(np.abs(jac), np.ones(2 * m)))
        norm_r = np.max(np.abs(r))
        for x in (step, ref):
            backward = np.max(np.abs(self.band_matvec(jac, x) + r)) / (
                norm_j * np.max(np.abs(x)) + norm_r
            )
            assert backward <= eps
        rcond, info = dgbcon(STEADY_KL, STEADY_KU, lu, ipiv, norm_j, norm="I")
        assert info == 0 and rcond > 0.0
        bound = eps * (np.max(np.abs(step)) + np.max(np.abs(ref)) + 2.0 * norm_r / norm_j) / rcond
        assert np.max(np.abs(step - ref)) <= bound

    def test_factor_only_sign_on_saddle_and_pulse(self, fine_chain):
        # the n = 4096 odd-index saddle and the pulse: the sign from P's LU,
        # which solve_steady reports at a root, is the interleaved band's
        p = FINE_PARAMS
        res = fine_chain[4096]
        h = res.grid.h
        start, _ = default_initial_profile(p, res.grid)
        _, _, sol = evaluate_energy(start, p)
        saddle = solve_steady(start.values, sol.v.values, p.d, p.beta, p.gamma, h)
        for u, v, sign in ((saddle.u, saddle.v, -1), (res.u0.values, res.v0.values, 1)):
            ab = steady_jacobian(u, v, p.d, p.beta, p.gamma, h)
            lub, piv, _, info = dgbsv(STEADY_KL, STEADY_KU, ab, np.ones(ab.shape[1]))
            assert info == 0 and _band_lu_det_sign(lub, piv) == sign
            lu, ipiv, info = self.schur_lu(u, v, p.d, p.beta, p.gamma, h)
            assert info == 0 and _band_lu_det_sign(lu, ipiv) == sign
        assert saddle.det_sign == -1
        assert solve_steady(res.u0.values, res.v0.values, p.d, p.beta, p.gamma, h).det_sign == 1

    def test_one_band_per_solve(self, cheap_pulse, monkeypatch):
        # one n-column band is allocated per call and refilled at every
        # iterate, which keeps the peak memory of a solve flat; dgbtrf
        # factors it once per iterate and dgbtrs solves each step from that
        # LU, with no solve at the root
        calls, bands = [], []
        for name in ("dgbtrf", "dgbtrs"):
            def counted(*args, _name=name, _fn=getattr(operators, name), **kwargs):
                calls.append(_name)
                bands.append(args[0])
                return _fn(*args, **kwargs)
            monkeypatch.setattr(operators, name, counted)
        res = cheap_pulse
        p = res.params
        u = res.u0.values.copy()
        u[:-1] *= 1.0 + 1e-6
        st = solve_steady(u, res.v0.values, p.d, p.beta, p.gamma, res.grid.h)
        assert st.steps >= 2 and st.det_sign == 1
        assert calls == ["dgbtrf", "dgbtrs"] * st.steps + ["dgbtrf"]
        assert all(band is bands[0] for band in bands)
        assert bands[0].shape == (2 * STEADY_KL + STEADY_KU + 1, res.grid.n)

    def test_singular_schur_complement(self, cheap_pulse, fine_chain, monkeypatch):
        # with dgbtrf reporting P singular, det_sign is 0: off the floor the
        # solve stops before its first step, short of a root; a fine-chain
        # root meets the floor and has converged, and the polish refuses it
        factor = operators.dgbtrf
        monkeypatch.setattr(
            operators, "dgbtrf", lambda *args, **kwargs: factor(*args, **kwargs)[:2] + (1,)
        )
        res = cheap_pulse
        p = res.params
        u = res.u0.values.copy()
        u[:-1] *= 1.0 + 1e-6
        st = solve_steady(u, res.v0.values, p.d, p.beta, p.gamma, res.grid.h)
        assert st.steps == 0 and st.det_sign == 0 and st.converged is False
        res = fine_chain[4096]
        p, grid = res.params, res.grid
        st = solve_steady(res.u0.values, res.v0.values, p.d, p.beta, p.gamma, grid.h)
        assert st.steps == 0 and st.det_sign == 0 and st.converged is True
        M = negative_tail_cutoff(p.beta, p.gamma)
        attempt, kept = _newton_polish(p, grid, res.u0.values, res.v0, res.energy, M, 1e-8)
        assert kept is None and attempt.refusal == "singular" and attempt.det_sign == 0

    def test_floor_trial_kept(self, fine_chain, monkeypatch):
        # from a fine-chain root with u scaled by 1 + 1e-4, a full step takes
        # the activator rows below their floor while the inhibitor rows'
        # rounding, below theirs, keeps ||R||^2 from falling: such a trial
        # is kept, so Newton ends in 3 steps, each on its first trial (on
        # the Armijo test alone it takes 9 steps and 78 residuals)
        evals = []
        monkeypatch.setattr(
            operators, "steady_residual",
            lambda *args: evals.append(1) or steady_residual(*args),
        )
        res = fine_chain[8192]
        p = res.params
        u = res.u0.values.copy()
        u[:-1] *= 1.0 + 1e-4
        st = solve_steady(u, res.v0.values, p.d, p.beta, p.gamma, res.grid.h)
        assert st.steps <= 3 and len(evals) == st.steps + 1
        assert st.det_sign == 1
        assert np.max(np.abs(st.u - res.u0.values)) <= 1e-12

    def test_overflowing_state_not_converged(self):
        # v = f(u) = 6e102 meets the activator rows' floor, while v^3
        # overflows: the inhibitor rows' infinite residual meets no floor,
        # not even the infinite one of that max |v|
        u = np.full(33, -1.82e34)
        u[-1] = 0.0
        v = u * (1.0 - u) * (u - self.BETA)
        with np.errstate(all="ignore"):
            r = steady_residual(u, v, self.D, self.BETA, self.GAMMA_S, self.H)
            st = solve_steady(u, v, self.D, self.BETA, self.GAMMA_S, self.H)
        assert np.max(np.abs(r[0])) < 1e-12 * np.max(v) and np.isinf(r[1]).all()
        assert not st.converged and st.steps == 0
        # a finite residual whose ||R||^2 overflows: no step can lower it
        z = np.zeros(33)
        v = np.full(33, 1e100)
        v[-1] = 0.0
        with np.errstate(all="ignore"):
            r = steady_residual(z, v, self.D, self.BETA, self.GAMMA_S, self.H)
            st = solve_steady(z, v, self.D, self.BETA, self.GAMMA_S, self.H)
        assert np.isfinite(r).all() and np.vdot(r, r) == np.inf
        assert not st.converged and st.steps == 0

    def test_exact_root_stops_at_once(self):
        # the rest state is an exact root: no step can lower ||R||^2 = 0
        z = np.zeros(33)
        st = solve_steady(z, z, self.D, self.BETA, self.GAMMA_S, self.H)
        assert st.steps == 0 and st.det_sign == 1
        assert not st.u.any() and not st.v.any()


def test_cli_import_skips_scipy_integrate():
    # start-up loads scipy's LAPACK extension alone: the quadrature path is
    # numpy, and scipy.integrate would drag in scipy.special, scipy.optimize
    # and scipy.sparse; none of the other heavy subpackages is needed either
    heavy = (
        "scipy.integrate", "scipy.sparse", "scipy.special", "scipy.optimize",
        "scipy.fft", "scipy.signal", "scipy.interpolate",
    )
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )
    code = (
        "import sys, fhn_pulse.cli; "
        f"print(' '.join(m for m in {heavy!r} if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        check=True,
    )
    assert proc.stdout.strip() == ""


def run_fresh(code: str) -> str:
    """Standard output of `code` run by a fresh interpreter on this
    checkout's src/."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        check=True,
    )
    return proc.stdout


def test_cli_import_loads_only_the_lapack_extension():
    # scipy.linalg's package __init__ is about half of a process's start-up;
    # only the f2py extension holding the LAPACK routines is loaded
    out = run_fresh(
        "import sys, fhn_pulse.cli; "
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('scipy'))))"
    )
    assert set(out.split()) == {"scipy.linalg._flapack"}


@pytest.mark.parametrize(
    "first, second",
    [("fhn_pulse.operators", "scipy.linalg.lapack"),
     ("scipy.linalg.lapack", "fhn_pulse.operators")],
    ids=["fhn_pulse_first", "scipy_linalg_first"],
)
def test_one_extension_module_in_either_import_order(first, second):
    out = run_fresh(
        f"import sys, {first}, {second}\n"
        "from fhn_pulse import _lapack, operators\n"
        "from scipy.linalg import lapack\n"
        "flapack = sys.modules['scipy.linalg._flapack']\n"
        "names = ('dgbtrf', 'dgbtrs', 'dptsv', 'dpttrf', 'dpttrs')\n"
        "print(all(getattr(operators, n) is getattr(lapack, n) for n in names),"
        " _lapack._module is flapack, lapack._flapack is flapack)"
    )
    assert out.split() == ["True", "True", "True"]


# Each prefix runs before fhn_pulse is imported. The first leaves the direct
# load alone; the second hides the extension's file from the loader (the
# import system keeps its own copy of the suffixes, so scipy.linalg still
# imports); the third makes the direct load raise ImportError.
LOAD_PATHS = {
    "direct": "",
    "file_hidden": "import importlib.machinery\n"
                   "importlib.machinery.EXTENSION_SUFFIXES.clear()\n",
    "load_fails": "import importlib.util\n"
                  "def refuse(spec): raise ImportError(spec.name)\n"
                  "importlib.util.module_from_spec = refuse\n",
}
SOLVE_DIGEST = (
    "import hashlib, sys\n"
    "import numpy as np\n"
    "from fhn_pulse import MinimizeOptions, _lapack, minimize\n"
    "from fhn_pulse.operators import solve_shifted\n"
    "from tests.conftest import CHEAP_GRID, CHEAP_PARAMS\n"
    "rng = np.random.default_rng(3)\n"
    "v = solve_shifted(rng.uniform(0.1, 2.0, 512), rng.standard_normal(512), 0.01)\n"
    "res = minimize(CHEAP_PARAMS, CHEAP_GRID, options=MinimizeOptions(gtol=1e-8))\n"
    "h = hashlib.sha256(v.tobytes() + res.u0.values.tobytes() + res.v0.values.tobytes())\n"
    "print('scipy.linalg' in sys.modules, _lapack._module.__name__,"
    " res.polish, res.polish_steps, h.hexdigest())\n"
)


def test_fallback_to_public_lapack_gives_the_same_bits():
    root = pathlib.Path(__file__).resolve().parent.parent
    runs = {
        path: run_fresh(f"import sys; sys.path.insert(0, {str(root)!r})\n"
                        + prefix + SOLVE_DIGEST).split()
        for path, prefix in LOAD_PATHS.items()
    }
    direct = runs.pop("direct")
    assert direct[:2] == ["False", "scipy.linalg._flapack"]
    # the polish ran, so dgbtrf and dgbtrs were called as well as dptsv
    assert direct[2] == "newton" and int(direct[3]) > 0
    for path, run in runs.items():
        assert run[:2] == ["True", "scipy.linalg.lapack"], path
        assert run[2:] == direct[2:], path
