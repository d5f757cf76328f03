import numpy as np
import pytest

from gwpdyn.packet import (PacketState, WavePacketFull,
                           evaluate_packet, make_packet_state,
                           normalization_delta, normalized_packet)


def packet_norm_squared(B_mat: np.ndarray, delta: float, hbar: float) -> float:
    """Squared L2 norm sqrt((pi*hbar)^d / det B) * exp(-2*delta/hbar)."""
    B = np.atleast_2d(np.asarray(B_mat, dtype=float))
    d = B.shape[0]
    det = float(np.linalg.det(B))
    if det <= 0.0:
        raise ValueError(f"det B must be positive, got {det}")
    return float(np.sqrt((np.pi * hbar) ** d / det) * np.exp(-2.0 * delta / hbar))


def test_make_packet_state_accepts_scalars():
    st = make_packet_state(0.5, -1.0, 0.0, 1.0)
    assert st.d == 1
    assert st.q.shape == (1,) and st.A_mat.shape == (1, 1)


def test_make_packet_state_symmetrizes_roundoff():
    A = np.array([[0.3, 0.1 + 3e-13], [0.1, -0.2]])
    B = np.array([[1.0, 0.2], [0.2 + 1e-13, 1.5]])
    st = make_packet_state([0.0, 0.0], [0.0, 0.0], A, B)
    assert np.array_equal(st.A_mat, st.A_mat.T)
    assert np.array_equal(st.B_mat, st.B_mat.T)


def test_make_packet_state_rejects_asymmetric():
    A = np.array([[0.3, 0.2], [0.1, -0.2]])
    with pytest.raises(ValueError, match="symmetric"):
        make_packet_state([0.0, 0.0], [0.0, 0.0], A, np.eye(2))


def test_make_packet_state_rejects_indefinite_B():
    B = np.array([[1.0, 0.0], [0.0, -0.5]])
    with pytest.raises(ValueError, match="positive definite") as exc:
        make_packet_state([0.0, 0.0], [0.0, 0.0], np.zeros((2, 2)), B)
    # diagnostic carries the offending eigenvalue
    assert "-5" in str(exc.value) or "-0.5" in str(exc.value)


def test_make_packet_state_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        make_packet_state([0.0, 0.0], [0.0], np.eye(2), np.eye(2))
    with pytest.raises(ValueError):
        make_packet_state([0.0, 0.0], [0.0, 0.0], np.eye(3), np.eye(2))


def test_norm_squared_matches_grid_integration_1d():
    # independent oracle: trapezoid integration of |chi|^2 on a wide grid
    rng = np.random.default_rng(5)
    for _ in range(5):
        b = float(rng.uniform(0.3, 2.5))
        a = float(rng.uniform(-1.0, 1.0))
        delta = float(rng.uniform(-0.2, 0.2))
        phi = float(rng.uniform(-1.0, 1.0))
        hbar = float(rng.uniform(0.05, 0.6))
        st = make_packet_state([0.3], [0.7], [[a]], [[b]])
        wp = WavePacketFull(state=st, phi=phi, delta=delta)
        sigma = np.sqrt(hbar / (2 * b))
        x = np.linspace(0.3 - 12 * sigma, 0.3 + 12 * sigma, 20001)[:, None]
        vals = np.abs(evaluate_packet(wp, hbar, x)) ** 2
        integral = np.trapezoid(vals, x[:, 0])
        assert packet_norm_squared(st.B_mat, delta, hbar) == pytest.approx(
            integral, rel=1e-8)


def test_norm_squared_matches_grid_integration_2d():
    st = make_packet_state([0.2, -0.1], [0.0, 0.4],
                           [[0.5, -0.3], [-0.3, 0.2]], [[1.0, 0.4], [0.4, 2.0]])
    hbar, delta = 0.3, 0.05
    wp = WavePacketFull(state=st, phi=0.3, delta=delta)
    lo, hi, n = -4.0, 4.0, 801
    xs = np.linspace(lo, hi, n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel()], axis=-1)
    vals = (np.abs(evaluate_packet(wp, hbar, pts)) ** 2).reshape(n, n)
    integral = np.trapezoid(np.trapezoid(vals, xs, axis=1), xs)
    assert packet_norm_squared(st.B_mat, delta, hbar) == pytest.approx(
        integral, rel=1e-6)


def test_normalization_delta_gives_unit_norm():
    rng = np.random.default_rng(11)
    for d in (1, 2, 3):
        W = rng.standard_normal((d, d))
        B = W @ W.T + np.eye(d)
        hbar = float(rng.uniform(0.05, 0.8))
        delta = normalization_delta(B, hbar)
        assert packet_norm_squared(B, delta, hbar) == pytest.approx(1.0, rel=1e-13)


def test_normalized_packet_helper():
    st = make_packet_state([0.5], [-1.0], [[0.0]], [[1.0]])
    wp = normalized_packet(st, hbar=0.1, phi=0.7)
    assert wp.phi == 0.7
    assert packet_norm_squared(st.B_mat, wp.delta, 0.1) == pytest.approx(1.0)


def test_evaluate_packet_center_value_and_batch():
    st = make_packet_state([0.5], [-1.0], [[0.2]], [[1.0]])
    wp = WavePacketFull(state=st, phi=0.3, delta=0.1)
    hbar = 0.2
    # at x = q the quadratic and linear terms vanish
    expected = np.exp((1j / hbar) * (0.3 + 0.1j))
    assert evaluate_packet(wp, hbar, [0.5]) == pytest.approx(expected)
    batch = evaluate_packet(wp, hbar, np.array([[0.5], [0.6], [0.7]]))
    assert batch.shape == (3,)
    assert batch[0] == pytest.approx(expected)


def test_evaluate_packet_rejects_wrong_dimension():
    st = make_packet_state([0.5, 0.0], [0.0, 0.0], np.zeros((2, 2)), np.eye(2))
    wp = WavePacketFull(state=st)
    with pytest.raises(ValueError):
        evaluate_packet(wp, 0.1, [0.1, 0.2, 0.3])


def test_position_covariance_matches_density_moments():
    st = make_packet_state([0.2], [0.0], [[0.4]], [[1.7]])
    hbar = 0.3
    wp = normalized_packet(st, hbar)
    sigma = np.sqrt(hbar / (2 * 1.7))
    x = np.linspace(0.2 - 12 * sigma, 0.2 + 12 * sigma, 40001)[:, None]
    dens = np.abs(evaluate_packet(wp, hbar, x)) ** 2
    second = np.trapezoid((x[:, 0] - 0.2) ** 2 * dens, x[:, 0])
    # the covariance (hbar/2) B^-1
    assert second == pytest.approx(hbar / (2 * 1.7), rel=1e-8)


def test_packet_state_is_plain_container():
    # derivative-like objects (non-symmetric, indefinite) must be allowed
    st = PacketState(q=np.zeros(2), p=np.zeros(2),
                     A_mat=np.array([[0.0, 1.0], [0.0, 0.0]]),
                     B_mat=-np.eye(2))
    assert st.d == 2


def test_norm_rejects_nonpositive_det():
    with pytest.raises(ValueError):
        packet_norm_squared(np.array([[0.0]]), 0.0, 0.1)
    with pytest.raises(ValueError):
        normalization_delta(np.array([[-1.0]]), 0.1)
