"""Phase-fitted finite differences for the 1D Helmholtz equation.

Solves u'' + k^2 u = f on (0, L) with impedance boundary conditions
u'(0) - ik u(0) = g0, u'(L) + ik u(L) = gL, using a Bernoulli phase-fitted
(BPF) scheme that is exact on plane waves, plus classical and
dispersion-corrected three-point baselines, a complex tridiagonal solver, and a
verification layer for the scheme's identities, bounds and convergence
behavior.
"""

from .analysis import (
    ConvergenceTable,
    ErrorReport,
    boundary_multiplier,
    consistency_residuals,
    convergence_study,
    error_report,
    interior_multiplier,
    stability_bound_check,
)
from .errors import (
    InvalidGrid,
    NearNyquist,
    NonFiniteSample,
    NumericalGuardError,
    ResonantSource,
    SingularParameter,
    SingularSystem,
    SolveQualityWarning,
)
from .grid import (
    GridFunction,
    UniformGrid,
    forward_diff,
    make_grid,
    norm_l2h,
    restrict,
    sample,
    seminorm_h1h,
)
from .numerics import (
    bernoulli,
    envelope_derivative,
    nyquist_guard,
    phase_factor_m,
    shifted_wavenumber,
    stability_constant_a0,
    theta,
)
from .reference import (
    ExactSolution,
    box_source_problem,
    fine_grid_reference,
    make_benchmark,
    plane_wave_problem,
    sine_squared_problem,
    smooth_manufactured_problem,
)
from .schemes import (
    HelmholtzProblem,
    SchemeKind,
    apply_one_way_minus,
    apply_one_way_plus,
    assemble,
    solve_scheme,
)
from .trisolve import Stencil, TridiagonalSystem, residual, residual_inf_norm, solve_tridiagonal

__version__ = "0.1.0"
