"""Toolkit for designing and verifying Rydberg-atom analog simulators of
spin-truncated compact Abelian Higgs chains."""

__version__ = "0.1.0"

from .numerics import (
    ContractViolationError,
    SparseHermitian,
    Spectrum,
    StateVector,
    eig_hermitian,
)
from .target_models import (
    SPIN1,
    OneSpinSpectrum,
    SpinTruncation,
    TargetCouplings,
    analytic_one_spin,
    build_chain_h,
    build_h1t,
    build_h2t,
    perturbative_one_spin,
)
from .rydberg_models import (
    AtomGeometry,
    RydbergParams,
    SimulatorSystem,
    SpinAtomMap,
    build_rydberg_h,
    ladder_geometry,
    ladder_system,
    pair_interaction,
)
from .matching import (
    MatchReport,
    MatchingError,
    NewtonProblem,
    SingularDenominatorError,
    approx_three_atom_match,
    degenerate_matrix_m,
    fit_time_rescale,
    match_four_atom,
    match_six_atom,
    match_two_atom,
    solve_three_atom_newton,
    three_atom_low_sector,
    three_atom_residuals,
)
from .evolution import (
    EvolutionTrace,
    TraceComparison,
    compare,
    spin_finals,
    trace,
)
from .trotter import (
    Circuit,
    Gate,
    apply_circuit,
    sample_shots,
    trotter_step,
)
