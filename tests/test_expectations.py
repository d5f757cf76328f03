import dataclasses

import numpy as np
import pytest

from conftest import cubic_gauge_2d, plane_wave_gauge_2d
from gwpdyn.checks import random_state
from gwpdyn.dynamics import _fields, semiclassical_hamiltonian
from gwpdyn.expectations import (asymptotic_expectation, full_hamiltonian,
                                 gaussian_expectation, gaussian_nodes)
from gwpdyn.packet import PacketState, make_packet_state
from gwpdyn.potentials import cosine_1d, quadratic_linear, quartic_rotational_2d


def polynomial_moment(alpha, q, B_mat, hbar) -> float:
    """Central moment E[prod_i (x_i - q_i)^alpha_i] for |alpha| <= 4.

    Isserlis' theorem with covariance Sigma = (hbar/2) B^-1: odd orders
    vanish; order 2 is Sigma_ij; order 4 sums the three pairings.
    """
    alpha = np.asarray(alpha, dtype=int)
    if np.any(alpha < 0):
        raise ValueError("alpha entries must be nonnegative")
    total = int(alpha.sum())
    if total > 4:
        raise ValueError(f"moment order {total} not supported (max 4)")
    if total % 2 == 1:
        return 0.0
    if total == 0:
        return 1.0
    B = np.atleast_2d(np.asarray(B_mat, dtype=float))
    Sigma = 0.5 * hbar * np.linalg.inv(B)
    idx = [i for i, a in enumerate(alpha) for _ in range(a)]
    if total == 2:
        return float(Sigma[idx[0], idx[1]])
    i, j, k, l = idx
    return float(Sigma[i, j] * Sigma[k, l]
                 + Sigma[i, k] * Sigma[j, l]
                 + Sigma[i, l] * Sigma[j, k])


def test_gaussian_nodes_validation():
    with pytest.raises(ValueError, match="nodes"):
        gaussian_nodes([0.0], np.eye(1), 0.1, nodes=0)
    with pytest.raises(ValueError, match="shape"):
        gaussian_nodes([0.0, 0.0], np.eye(3), 0.1)
    with pytest.raises(ValueError, match="shape"):
        gaussian_nodes(np.zeros((4, 2)), np.broadcast_to(np.eye(2), (3, 2, 2)), 0.1)
    pts, w = gaussian_nodes([0.0, 0.0], np.eye(2), 0.1, nodes=7)
    assert pts.shape == (49, 2) and w.shape == (49,)
    assert w.sum() == pytest.approx(1.0, rel=1e-13)
    pts, w = gaussian_nodes(np.zeros((4, 3, 2)), np.broadcast_to(np.eye(2), (4, 3, 2, 2)),
                            np.full((4, 3), 0.1), nodes=7)
    assert pts.shape == (4, 3, 49, 2) and w.shape == (49,)


def test_expectation_of_one_is_one():
    rng = np.random.default_rng(0)
    for d in (1, 2, 3):
        st = random_state(rng, d)
        val = gaussian_expectation(lambda X: np.ones(X.shape[0]),
                                   st.q, st.B_mat, 0.23,
                                   nodes=6)
        assert val == pytest.approx(1.0, rel=1e-14)


def test_polynomial_exactness_against_isserlis():
    # quadrature must integrate monomials of degree <= 4 exactly even with
    # few nodes; reference values from the closed-form moment table
    rng = np.random.default_rng(4)
    d = 2
    st = random_state(rng, d)
    hbar = 0.37
    for alpha in ([0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2],
                  [3, 0], [2, 1], [4, 0], [2, 2], [1, 3], [0, 4], [3, 1]):
        def U(X, a=alpha):
            dx = X - st.q
            return dx[:, 0] ** a[0] * dx[:, 1] ** a[1]
        quad = gaussian_expectation(U, st.q, st.B_mat, hbar, nodes=5)
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

    quad = gaussian_expectation(U, st.q, st.B_mat, hbar, nodes=4)
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


def _test_models():
    K = np.array([[2.0, 0.3, -0.1], [0.3, 1.0, 0.2], [-0.1, 0.2, 1.5]])
    quadratic3d = quadratic_linear(K, [0.1, -0.2, 0.3], 0.5,
                                   [[0.2, -0.7, 0.1], [0.4, 0.1, -0.3], [0.0, 0.5, 0.2]],
                                   [0.3, 0.0, -0.1], mass=1.7)
    return [cosine_1d(), quartic_rotational_2d(), plane_wave_gauge_2d(),
            cubic_gauge_2d(), quadratic3d]


def _stack(states):
    return PacketState(*(np.stack(ys) for ys in zip(*map(_fields, states))))


@pytest.mark.parametrize("model", _test_models(), ids=lambda m: f"{m.name}{m.dim}d")
def test_stacked_calls_equal_single_calls(model):
    # one hbar per packet; every member gets the bits of its single call
    rng = np.random.default_rng(31)
    states = [random_state(rng, model.dim) for _ in range(7)]
    hbars = rng.uniform(0.05, 0.8, size=7)
    stack = _stack(states)
    U = lambda X: np.cos(X.sum(axis=-1)) + X[..., 0] ** 3
    stacked_h = full_hamiltonian(stack, model, hbars)
    stacked_u = gaussian_expectation(U, stack.q, stack.B_mat, hbars)
    assert stacked_h.shape == stacked_u.shape == (7,)
    for i, (st, hbar) in enumerate(zip(states, hbars)):
        assert stacked_h[i] == full_hamiltonian(st, model, hbar)
        assert stacked_u[i] == gaussian_expectation(U, st.q, st.B_mat, hbar)
    # a stack with two leading axes
    grid = PacketState(*(y.reshape((7, 1) + y.shape[1:]) for y in _fields(stack)))
    assert np.array_equal(full_hamiltonian(grid, model, hbars[:, None])[:, 0], stacked_h)


def test_full_hamiltonian_reads_only_energy_fields():
    def unread(*args):
        raise AssertionError("full_hamiltonian reads only energy_fields")

    rng = np.random.default_rng(32)
    for model in _test_models():
        energy_only = dataclasses.replace(
            model, flow_fields=unread, hessV=unread, hessA=unread,
            grad_hess_trace_V=unread, grad_hess_trace_A=unread)
        st = random_state(rng, model.dim)
        assert full_hamiltonian(st, energy_only, 0.3) == full_hamiltonian(st, model, 0.3)


def expanded_hamiltonian(state, model, hbar):
    """<H> with |p - A|^2 expanded and the cross term <A_w(x - q).A> put
    in the form Stein's identity gives it, from both field sets:

        |p|^2/2m + (hbar/4m) Tr(B^-1 (A_w^2 + B^2)) - <A.p>/m
        - (hbar/2m) <Tr(DA^T A_w B^-1)> + <|A|^2>/2m + <V>.
    """
    m, p, Aw, B = model.mass, state.p, state.A_mat, state.B_mat
    Binv = np.linalg.inv(B)
    avg = lambda f: gaussian_expectation(f, state.q, B, hbar)
    a = lambda X: model.flow_fields(X)[0]
    return (p @ p / (2 * m)
            + hbar / (4 * m) * np.trace(Binv @ (Aw @ Aw + B @ B))
            - avg(lambda X: a(X) @ p) / m
            - hbar / (2 * m) * avg(lambda X: np.einsum(
                "...ij,ij->...", model.flow_fields(X)[1], Aw @ Binv))
            + avg(lambda X: np.einsum("...k,...k->...", a(X), a(X))) / (2 * m)
            + avg(model.V))


@pytest.mark.parametrize("model", _test_models(), ids=lambda m: f"{m.name}{m.dim}d")
def test_kinetic_form_matches_the_expanded_energy(model):
    # the Weyl average in the kinetic momentum against the |p - A|^2
    # expansion it replaced, on random states
    rng = np.random.default_rng(33)
    for _ in range(20):
        st = random_state(rng, model.dim)
        hbar = float(rng.uniform(0.05, 0.8))
        ref = expanded_hamiltonian(st, model, hbar)
        assert abs(full_hamiltonian(st, model, hbar) - ref) <= 1e-14 * max(1.0, abs(ref))
