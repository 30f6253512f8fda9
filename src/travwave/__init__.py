"""travwave: stabilized fixed-point solvers for traveling-wave computation.

Solves homogeneous systems L u = N(u) by the stabilized iteration
L u_{n+1} = s(u_n) N(u_n) with a family of stabilizing factors, on Fourier
collocation discretizations of Schrodinger ground states, soliton profiles,
and 2D Benjamin/KP lumps, and mechanizes the linearized convergence theory
(iteration-matrix spectra, symmetry generators, orbital convergence).
"""

from .continuation import ContinuationResult, HomotopyPath, StageResult, continue_solve
from .diagnostics import (
    OrbitFit,
    SpectrumReport,
    fit_phase_line,
    iteration_matrix_action,
    iteration_matrix_spectrum,
    jacobian_spectrum,
    orbit_match,
    spectrum_shift_check,
    symmetry_generators,
    top_eigenvalues,
)
from .factors import (
    StabilizingFactor,
    from_descriptor,
    inner_factor,
    norm_factor,
    optimal_gamma,
    petviashvili_factor,
)
from .iterate import (
    IterationConfig,
    IterationTrace,
    SolveResult,
    newton_solve,
    solve,
)
from .problems import (
    ProblemModel,
    SolitonParameters,
    benjamin_lump,
    double_well_potential,
    exact_soliton_profile,
    gaussian_seed,
    nls_ground_state,
    nls_soliton,
    sech2_potential,
)
from .spectral import Field, Grid1D, Grid2D, derivative, diff_matrix

__version__ = "0.1.0"

__all__ = [
    "ContinuationResult", "HomotopyPath", "StageResult", "continue_solve",
    "OrbitFit", "SpectrumReport", "fit_phase_line",
    "iteration_matrix_action", "iteration_matrix_spectrum",
    "jacobian_spectrum", "orbit_match", "spectrum_shift_check",
    "symmetry_generators", "top_eigenvalues",
    "StabilizingFactor", "from_descriptor", "inner_factor",
    "norm_factor", "optimal_gamma", "petviashvili_factor",
    "IterationConfig", "IterationTrace", "SolveResult",
    "newton_solve", "solve",
    "ProblemModel", "SolitonParameters", "benjamin_lump", "double_well_potential",
    "exact_soliton_profile", "gaussian_seed", "nls_ground_state", "nls_soliton",
    "sech2_potential",
    "Field", "Grid1D", "Grid2D", "derivative", "diff_matrix",
]
