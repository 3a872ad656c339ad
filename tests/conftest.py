"""Shared fixtures.

Two converged pulses are computed once per session:

* cheap_pulse: d = 1e-5 on a 4096-node grid, about 0.03 s (one descent
  step from the default start, then the coupled Newton polish goes to the
  pulse in 6 Newton steps). Its energy is slightly positive (the d
  threshold for a negative minimum sits near 3.4e-6 at these (beta,
  gamma)), but every qualitative pulse property holds, so it backs the
  fast unit tests.
* fine_chain / fine_pulse: d = 1e-6 solved on n = 4096..32768 by warm-started
  refinement, about 0.08 s total (2-vCPU Xeon; the first chain of a fresh
  process took 0.07-0.10 s against 0.06-0.09 s warm). At n = 4096 the default
  start is first polished after one descent step, which keeps the pulse in
  8 Newton steps (polished at entry, Newton from the start lands on an
  odd-index saddle). Each finer level is one Newton polish of its warm
  start, in 9, 4 and 3 steps. The finest level has J < 0 and zero active
  constraints; the chain levels feed the h-halving order checks.
"""

import numpy as np
import pytest

from fhn_pulse import Grid, MinimizeOptions, Params, Profile, minimize

BETA = 0.4
GAMMA = 0.1

CHEAP_PARAMS = Params(d=1e-5, tau=1.0, gamma=GAMMA, beta=BETA)
CHEAP_GRID = Grid(12.0, 4096)

FINE_PARAMS = Params(d=1e-6, tau=1.0, gamma=GAMMA, beta=BETA)
FINE_LEVELS = (4096, 8192, 16384, 32768)


def refine_onto(result, grid: Grid) -> Profile:
    """Linear interpolation of a solved activator onto a finer grid."""
    return Profile(
        grid, np.interp(grid.nodes(), result.grid.nodes(), result.u0.values)
    )


@pytest.fixture(scope="session")
def cheap_pulse():
    res = minimize(CHEAP_PARAMS, CHEAP_GRID, options=MinimizeOptions(gtol=1e-8))
    assert res.converged, f"cheap fixture solve failed: {res.termination}"
    return res


@pytest.fixture(scope="session")
def fine_chain():
    chain = {}
    prev = None
    for n in FINE_LEVELS:
        grid = Grid(12.0, n)
        init = None if prev is None else refine_onto(prev, grid)
        res = minimize(FINE_PARAMS, grid, init=init, options=MinimizeOptions(gtol=1e-8))
        assert res.converged, f"fine chain solve failed at n={n}: {res.termination}"
        chain[n] = res
        prev = res
    return chain


@pytest.fixture(scope="session")
def fine_pulse(fine_chain):
    return fine_chain[FINE_LEVELS[-1]]


# One line per acceptance criterion, echoed after the test summary so the
# verdicts stay visible without -s.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
