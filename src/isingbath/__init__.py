"""Dephasing and entanglement of qubits in a mean-field transverse-Ising bath.

Closed-form coherence and concurrence dynamics below the bath's ordering
transition, an exact small-bath brute-force simulator to validate them,
and a CLI for parameter sweeps and figure reproduction.  Import each name
from its module.
"""

from . import dephasing, entanglement, errors, mean_field, oracle, su2, two_qubit

# bench/tests/test_bench.py reads these two as isingbath.BathParams and isingbath.SystemParams
from .dephasing import SystemParams
from .mean_field import BathParams

__version__ = "0.1.0"
