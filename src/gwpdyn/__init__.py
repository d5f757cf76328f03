"""Semiclassical Gaussian wave packet dynamics in scalar and vector potentials.

The package propagates the parameters (q, p, A, B) of a complex Gaussian
wave packet with classical, width-transport, and order-hbar corrected
equations of motion, evaluates packet expectation values by quadrature,
and estimates exact quantum expectations by Monte-Carlo transport of the
packet's Wigner density for validation.
"""

from .dynamics import (ClassicalPhasePoint, Trajectory, bracket_rhs,
                       classical_hamiltonian, classical_rhs, rk4_integrate,
                       rk4_step, semiclassical_hamiltonian, semiclassical_rhs,
                       simulate, time_grid)
from .egorov import (EgorovEstimate, PhaseEnsemble, phase_error,
                     propagate_ensemble, propagate_ensembles, wigner_sample)
from .expectations import (asymptotic_expectation, full_hamiltonian,
                           gaussian_expectation, gaussian_nodes)
from .observables import (classical_angular_momentum, diamond, loglog_fit,
                          semiclassical_angular_momentum)
from .packet import (PacketState, WavePacketFull, evaluate_packet,
                     make_packet_state, normalization_delta, normalized_packet)
from .potentials import (DerivedSquares, FieldModel, cosine_1d,
                         fd_cross_check, free_model, model_by_name,
                         quadratic_linear, quartic_rotational_2d,
                         rotational_symmetry_check)

__version__ = "0.1.0"

__all__ = [
    "ClassicalPhasePoint", "Trajectory", "bracket_rhs",
    "classical_hamiltonian", "classical_rhs",
    "rk4_integrate", "rk4_step", "semiclassical_hamiltonian",
    "semiclassical_rhs", "simulate", "time_grid",
    "EgorovEstimate", "PhaseEnsemble", "phase_error", "propagate_ensemble",
    "propagate_ensembles", "wigner_sample",
    "asymptotic_expectation", "full_hamiltonian", "gaussian_expectation",
    "gaussian_nodes",
    "classical_angular_momentum", "diamond",
    "loglog_fit", "semiclassical_angular_momentum",
    "PacketState", "WavePacketFull", "evaluate_packet",
    "make_packet_state", "normalization_delta", "normalized_packet",
    "DerivedSquares", "FieldModel", "cosine_1d", "fd_cross_check",
    "free_model", "model_by_name", "quadratic_linear",
    "quartic_rotational_2d", "rotational_symmetry_check",
    "__version__",
]
