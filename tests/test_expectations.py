import numpy as np
import pytest

from gwpdyn.checks import random_state
from gwpdyn.dynamics import semiclassical_hamiltonian
from gwpdyn.expectations import (QuadratureRule, asymptotic_expectation,
                                 full_hamiltonian, gaussian_expectation,
                                 polynomial_moment)
from gwpdyn.packet import make_packet_state
from gwpdyn.potentials import cosine_1d, quadratic_linear


def test_rule_validation():
    with pytest.raises(ValueError):
        QuadratureRule(0, d=1)
    with pytest.raises(ValueError):
        QuadratureRule(5, d=0)
    rule = QuadratureRule(7, d=2)
    pts, w = rule.points_and_weights([0.0, 0.0], np.eye(2), 0.1)
    assert pts.shape == (49, 2) and w.shape == (49,)
    assert w.sum() == pytest.approx(1.0, rel=1e-13)


def test_expectation_of_one_is_one():
    rng = np.random.default_rng(0)
    for d in (1, 2, 3):
        st = random_state(rng, d)
        val = gaussian_expectation(lambda X: np.ones(X.shape[0]),
                                   st.q, st.B_mat, 0.23,
                                   rule=QuadratureRule(6, d=d))
        assert val == pytest.approx(1.0, rel=1e-14)


def test_polynomial_exactness_against_isserlis():
    # quadrature must integrate monomials of degree <= 4 exactly even with
    # few nodes; reference values from the closed-form moment table
    rng = np.random.default_rng(4)
    d = 2
    st = random_state(rng, d)
    hbar = 0.37
    rule = QuadratureRule(5, d=d)
    for alpha in ([0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2],
                  [3, 0], [2, 1], [4, 0], [2, 2], [1, 3], [0, 4], [3, 1]):
        def U(X, a=alpha):
            dx = X - st.q
            return dx[:, 0] ** a[0] * dx[:, 1] ** a[1]
        quad = gaussian_expectation(U, st.q, st.B_mat, hbar, rule=rule)
        closed = polynomial_moment(alpha, st.q, st.B_mat, hbar)
        assert quad == pytest.approx(closed, abs=1e-12), alpha


def test_polynomial_moment_validation():
    with pytest.raises(ValueError):
        polynomial_moment([3, 2], [0.0, 0.0], np.eye(2), 0.1)
    with pytest.raises(ValueError):
        polynomial_moment([-1, 0], [0.0, 0.0], np.eye(2), 0.1)
    assert polynomial_moment([1, 2], [0.0, 0.0], np.eye(2), 0.1) == 0.0
    assert polynomial_moment([0, 0], [0.0, 0.0], np.eye(2), 0.1) == 1.0


def test_cosine_expectation_closed_form():
    # <cos(x)> = exp(-hbar/(4 b)) cos(q) for a 1D packet
    rng = np.random.default_rng(6)
    for _ in range(8):
        q = float(rng.uniform(-2, 2))
        b = float(rng.uniform(0.3, 3.0))
        hbar = float(rng.uniform(0.02, 0.8))
        val = gaussian_expectation(lambda X: np.cos(X[:, 0]),
                                   np.array([q]), np.array([[b]]), hbar)
        assert val == pytest.approx(np.exp(-hbar / (4 * b)) * np.cos(q),
                                    rel=1e-12)


def test_plane_wave_expectation_closed_form_2d():
    # <cos(c.x)> = cos(c.q) exp(-(hbar/4) c.B^-1 c)
    rng = np.random.default_rng(7)
    st = random_state(rng, 2)
    hbar = 0.31
    c = np.array([1.3, -0.4])
    val = gaussian_expectation(lambda X: np.cos(X @ c), st.q, st.B_mat, hbar)
    damp = np.exp(-0.25 * hbar * c @ np.linalg.solve(st.B_mat, c))
    assert val == pytest.approx(np.cos(c @ st.q) * damp, rel=1e-11)


def test_asymptotic_expectation_remainder_is_second_order():
    # <U> - [U(q) + (hbar/4) tr(B^-1 U'')] should shrink like hbar^2
    q, b = 0.4, 1.2
    def remainder(hbar):
        exact = gaussian_expectation(lambda X: np.cos(X[:, 0]),
                                     np.array([q]), np.array([[b]]), hbar)
        lead = asymptotic_expectation(np.cos(q), -np.cos(q),
                                      np.array([[b]]), hbar)
        return abs(exact - lead)
    r1, r2, r3 = remainder(0.4), remainder(0.2), remainder(0.1)
    assert 3.2 < r1 / r2 < 4.8
    assert 3.2 < r2 / r3 < 4.8


def test_asymptotic_exact_for_quadratic():
    rng = np.random.default_rng(9)
    st = random_state(rng, 2)
    hbar = 0.4
    H = rng.standard_normal((2, 2))
    H = H @ H.T
    g = rng.standard_normal(2)

    def U(X):
        dx = X - st.q
        return 0.5 * np.einsum("ni,ij,nj->n", dx, H, dx) + dx @ g + 2.0

    quad = gaussian_expectation(U, st.q, st.B_mat, hbar, rule=QuadratureRule(4, d=2))
    closed = asymptotic_expectation(2.0, H, st.B_mat, hbar)
    assert quad == pytest.approx(closed, rel=1e-13)


def test_full_hamiltonian_closed_form_cosine():
    # every Gaussian average in <H> has a closed form for the cosine model
    model = cosine_1d()
    rng = np.random.default_rng(12)
    for _ in range(6):
        q = float(rng.uniform(-2, 2))
        p = float(rng.uniform(-2, 2))
        a = float(rng.uniform(-1, 1))
        b = float(rng.uniform(0.4, 2.0))
        hbar = float(rng.uniform(0.05, 0.6))
        st = make_packet_state([q], [p], [[a]], [[b]])
        e1 = np.exp(-hbar / (4 * b))      # <cos x> damping
        e2 = np.exp(-hbar / b)            # <cos 2x> damping
        expected = (
            0.5 * p * p
            + hbar / 4 * (a * a + b * b) / b
            - p * e1 * np.cos(q)
            + 0.5 * hbar * (a / b) * e1 * np.sin(q)
            + 0.25 * (1 + e2 * np.cos(2 * q))
            + 1 - 0.25 * (1 + e2 * np.cos(2 * q)))
        assert full_hamiltonian(st, model, hbar) == pytest.approx(
            expected, rel=1e-12)


def test_full_hamiltonian_matches_effective_energy_in_exact_regime():
    rng = np.random.default_rng(21)
    for d in (1, 2):
        K = rng.standard_normal((d, d))
        K = K @ K.T + np.eye(d)
        model = quadratic_linear(K, rng.standard_normal(d), 0.3,
                                 rng.standard_normal((d, d)),
                                 rng.standard_normal(d),
                                 mass=float(rng.uniform(0.5, 2.0)))
        for _ in range(5):
            st = random_state(rng, d)
            hbar = float(rng.uniform(0.05, 0.7))
            assert full_hamiltonian(st, model, hbar) == pytest.approx(
                semiclassical_hamiltonian(st, model, hbar), abs=1e-12)


def test_gaussian_expectation_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        gaussian_expectation(lambda X: X, np.array([0.0]),
                             np.array([[1.0]]), 0.1)
