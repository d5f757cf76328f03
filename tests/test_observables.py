import numpy as np
import pytest

from gwpdyn.checks import random_state
from gwpdyn.dynamics import ClassicalPhasePoint
from gwpdyn.egorov import propagate_ensemble, wigner_sample
from gwpdyn.observables import (classical_angular_momentum, diamond,
                                loglog_fit, semiclassical_angular_momentum)
from gwpdyn.packet import make_packet_state


def test_diamond_entries():
    q = np.array([1.0, 2.0, 3.0])
    p = np.array([-1.0, 0.5, 2.0])
    D = diamond(q, p)
    assert np.max(np.abs(D + D.T)) == 0.0
    for i in range(3):
        for j in range(3):
            assert D[i, j] == p[i] * q[j] - q[i] * p[j]


def test_angular_momentum_matrix_antisymmetric():
    rng = np.random.default_rng(5)
    for d in (2, 3):
        st = random_state(rng, d)
        J = semiclassical_angular_momentum(st, 0.3)
        assert np.max(np.abs(J + J.T)) < 1e-13


def test_benchmark_width_commutator_and_invariant():
    st = make_packet_state([1.0, 0.0], [0.0, 1.0],
                           [[-3.0, -6.0], [-6.0, -6.0]],
                           [[1.0, 0.5], [0.5, 1.0]])
    comm = (np.linalg.inv(st.B_mat) @ st.A_mat
            - st.A_mat @ np.linalg.inv(st.B_mat))
    assert np.allclose(comm, [[0.0, 2.0], [-2.0, 0.0]], atol=1e-14)
    for hbar in (0.5, 0.1, 0.01):
        J = semiclassical_angular_momentum(st, hbar)
        # hbar-dependent offset on top of the classical q1 p2 - q2 p1 = 1
        assert J[0, 1] == pytest.approx(-1.0 - hbar, rel=1e-14)


def test_width_correction_vanishes_when_matrices_commute():
    st = make_packet_state([1.0, 0.0], [0.0, 1.0],
                           [[0.4, 0.0], [0.0, 0.4]],
                           [[1.0, 0.0], [0.0, 1.0]])
    J = semiclassical_angular_momentum(st, 0.7)
    assert J[0, 1] == pytest.approx(-1.0, rel=1e-14)


def test_classical_angular_momentum_by_dimension():
    z2 = ClassicalPhasePoint(q=np.array([1.0, 2.0]), p=np.array([3.0, 4.0]))
    assert classical_angular_momentum(z2) == pytest.approx(1 * 4 - 2 * 3)
    z3 = ClassicalPhasePoint(q=np.array([1.0, 0.0, 0.0]),
                             p=np.array([0.0, 1.0, 0.0]))
    assert np.allclose(classical_angular_momentum(z3), [0.0, 0.0, 1.0])
    z1 = ClassicalPhasePoint(q=np.array([1.0]), p=np.array([2.0]))
    with pytest.raises(ValueError):
        classical_angular_momentum(z1)


def test_mean_angular_momentum_identity(quartic_model, bench_state_2d):
    # ensemble average of q1 p2 - q2 p1 over the packet's phase-space
    # density equals minus the (1,2) entry of the corrected matrix
    hbar = 0.1
    ens = wigner_sample(bench_state_2d, hbar, seed=31, N=150_000)
    est = propagate_ensemble(ens, quartic_model, dt=0.01, t_final=0.0,
                             observables=("q", "p", "Lz"))
    ref = -semiclassical_angular_momentum(bench_state_2d, hbar)[0, 1]
    z = (est.means["Lz"][0] - ref) / est.ses["Lz"][0]
    assert ref == pytest.approx(1.0 + hbar, rel=1e-14)
    assert abs(z) < 5.0


def test_loglog_fit_recovers_power_law():
    hbars = np.array([0.5, 0.2, 0.1, 0.05])
    errors = 3.7 * hbars ** 1.83
    intercept, exponent = loglog_fit(hbars, errors)
    assert exponent == pytest.approx(1.83, abs=1e-12)
    assert intercept == pytest.approx(np.log(3.7), abs=1e-12)


def test_loglog_fit_validation():
    with pytest.raises(ValueError):
        loglog_fit([0.1], [0.2])
    with pytest.raises(ValueError, match="two distinct hbars"):
        loglog_fit([0.1, 0.1], [0.2, 0.3])
    with pytest.raises(ValueError):
        loglog_fit([0.1, 0.2], [0.0, 0.1])
    with pytest.raises(ValueError):
        loglog_fit([-0.1, 0.2], [0.1, 0.1])
