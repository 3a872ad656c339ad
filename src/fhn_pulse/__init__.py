"""Standing-pulse solver and verification suite for a FitzHugh-Nagumo
system with a cubic inhibitor on the half-line.

The steady problem is solved by projected gradient descent of a nonlocal
constrained energy; the surrounding modules verify the operator
inequalities, qualitative pulse properties, decay asymptotics, and
dynamical stability that characterize the minimizer.
"""

__version__ = "0.1.0"

from .admissible import (
    band_bounds,
    build_q0,
    detect_crossings,
    is_admissible,
    project,
)
from .analysis import (
    InequalitySuiteReport,
    LinearizationReport,
    PropertyCheck,
    PropertyReport,
    check_pulse_properties,
    fit_decay,
    hamiltonian_residual,
    linearize,
    verify_inequality_suite,
)
from .dynamics import BlowUpError, Trajectory, evolve, export_trajectory
from .energy import EnergyReport, evaluate_energy
from .grid import Grid, Profile, mirror, profile_from_csv, profile_to_csv
from .minimizer import (
    MinimizeOptions,
    SolveResult,
    build_outer_profile,
    default_initial_profile,
    minimize,
)
from .model import (
    ConstantsReport,
    Params,
    RegimeReport,
    compute_constants,
    equal_area_level,
    gamma0,
    gamma1_direct,
    gamma1_via_potential,
    interface_width,
    negative_tail_cutoff,
    nullcline_branch,
    potential_F,
    predicted_head_length,
    reaction_f,
    reaction_knees,
    regime_report,
)
from .operators import (
    GreenKind,
    InhibitorError,
    InhibitorSolution,
    apply_green,
    solve_inhibitor,
)

__all__ = [
    "BlowUpError",
    "ConstantsReport",
    "EnergyReport",
    "GreenKind",
    "Grid",
    "InequalitySuiteReport",
    "InhibitorError",
    "InhibitorSolution",
    "LinearizationReport",
    "MinimizeOptions",
    "Params",
    "Profile",
    "PropertyCheck",
    "PropertyReport",
    "RegimeReport",
    "SolveResult",
    "Trajectory",
    "__version__",
    "apply_green",
    "band_bounds",
    "build_outer_profile",
    "build_q0",
    "check_pulse_properties",
    "compute_constants",
    "default_initial_profile",
    "detect_crossings",
    "equal_area_level",
    "evaluate_energy",
    "evolve",
    "export_trajectory",
    "fit_decay",
    "gamma0",
    "gamma1_direct",
    "gamma1_via_potential",
    "hamiltonian_residual",
    "interface_width",
    "is_admissible",
    "linearize",
    "minimize",
    "mirror",
    "negative_tail_cutoff",
    "nullcline_branch",
    "potential_F",
    "predicted_head_length",
    "profile_from_csv",
    "profile_to_csv",
    "project",
    "reaction_f",
    "reaction_knees",
    "regime_report",
    "solve_inhibitor",
    "verify_inequality_suite",
]
