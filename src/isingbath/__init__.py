"""Dephasing and entanglement of qubits in a mean-field transverse-Ising bath.

Closed-form coherence and concurrence dynamics below the bath's ordering
transition, an exact small-bath brute-force simulator to validate them,
and a CLI for parameter sweeps and figure reproduction.
"""

from .dephasing import (
    MODE_ASYMPTOTIC,
    MODE_FINITE,
    SystemParams,
    coherence_factor_finite,
    coherence_magnitude_asymptotic,
    coherence_time,
    dephasing_coeffs,
)
from .entanglement import ConcurrenceValue, concurrence, concurrences
from .errors import (
    ConfigTooLarge,
    InvalidParams,
    InvalidState,
    IsingBathError,
    NoConvergence,
    NotADensityMatrix,
)
from .mean_field import (
    PHASE_DISORDERED,
    PHASE_ORDERED,
    BathParams,
    OrderSolution,
    critical_temperature,
    is_ordered,
    solve_order,
    solve_order_grid,
)
from .oracle import (
    MAX_BATH_SIZE,
    OracleConfig,
    extract_products,
    reconstruct_reduced,
    simulate_exact,
    single_qubit_coherence_exact,
)
from .su2 import TracelessXZ, exp_imag, single_spin_gibbs, trace_triple
from .two_qubit import PureState2Q, case_state, evolve_reduced, multiplier, validate_density

__version__ = "0.1.0"
