"""Every function the benchmark's tracer wraps still exists in the
package, and its kernel size hooks read the right arguments, so a rename
or a signature change fails here rather than skewing a traced benchmark
run."""

import importlib
import importlib.util
import pathlib

import numpy as np

from fhn_pulse import dynamics
from fhn_pulse.grid import Grid, Profile
from fhn_pulse.model import Params, potential_F
from fhn_pulse.operators import factor_shifted, solve_factored, solve_shifted

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    targets = _tracing().TARGETS
    assert targets
    for name, module_name, attr in targets:
        owner = importlib.import_module(module_name)
        if "." in attr:
            # the tracer patches the method in the class's own namespace
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(owner, cls_name)), name
        else:
            assert callable(getattr(owner, attr, None)), name


def test_kernel_size_hooks_on_real_calls():
    # computed bytes per call (perfbench/NOTES.md): every input array read
    # once plus the output written once, float64, a scalar counting 8 B
    sizes = _tracing()._KERNEL_SIZES
    m, h = 256, 0.05
    rhs = np.random.default_rng(0).standard_normal(m)
    factor = factor_shifted(1.0, h, m)
    cases = [
        # the factor counts its own arrays, scratch included
        ("operators.solve_factored", solve_factored, (factor, rhs),
         m, factor.nbytes + 8 * (m + (m + 1))),
        ("operators.solve_shifted", solve_shifted, (0.3, rhs, h),
         m, 8 * (1 + m + (m + 1))),
        ("operators.solve_shifted", solve_shifted, (np.full(m, 0.3), rhs, h),
         m, 8 * (m + m + (m + 1))),
        ("model.potential_F", potential_F, (rhs, 0.4), m, 8 * (m + m)),
    ]
    assert set(sizes) == {name for name, *_ in cases}
    for name, fn, args, elems, nbytes in cases:
        result = fn(*args)
        assert sizes[name](args, {}, result) == (elems, nbytes), name


def test_evolve_calls_traced_kernels_through_its_bindings():
    # the tracer counts solve_factored calls on relax by replacing
    # fhn_pulse.dynamics' binding; an evolve that bound it elsewhere, or
    # stopped calling it per step, would drop those counts. The step
    # forms its right-hand sides without reaction_f, so relax traces no
    # reaction_f call.
    tracer = _tracing().Tracer()
    g = Grid(10.0, 64)
    u0 = Profile(g, 0.8 * np.exp(-((g.nodes() - 2.0) ** 2)))
    z = Profile(g, np.zeros(65))
    try:
        tracer.install()
        traj = dynamics.evolve(Params(d=0.01, tau=1.0, gamma=0.3, beta=0.4), u0, z, 0.1, 0.5)
    finally:
        tracer.uninstall()
    assert "fhn_pulse.dynamics.solve_factored" in tracer.bindings["operators.solve_factored"]
    assert traj.n_steps == 5
    names = [span[0] for span in tracer.spans]
    assert names.count("operators.solve_factored") == 10
    assert names.count("model.reaction_f") == 0
