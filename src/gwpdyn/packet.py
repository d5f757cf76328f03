"""State types and pointwise evaluation for complex Gaussian wave packets.

A packet in d dimensions is parametrized by a phase-space center (q, p)
and a complex symmetric width matrix A + iB, with A, B real symmetric and
B positive definite.  The amplitude at a point x is

    chi(x) = exp((i/hbar) * (0.5 (x-q).(A+iB)(x-q) + p.(x-q) + phi + i*delta))

with a real action phase phi and a real log-amplitude offset delta.  The
squared L2 norm depends only on B and delta,

    |chi|_2^2 = sqrt((pi*hbar)^d / det B) * exp(-2*delta/hbar),

so a packet is normalized exactly when

    delta = (hbar/4) * log((pi*hbar)^d / det B).

The integrators in this package evolve only (q, p, A, B); phi and delta
ride along analytically and are reconstructed where needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PacketState",
    "WavePacketFull",
    "make_packet_state",
    "normalized_packet",
    "normalization_delta",
    "evaluate_packet",
]

# Componentwise asymmetry above this is treated as a caller error rather
# than roundoff and rejected instead of silently symmetrized.
SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class PacketState:
    """Center and width data (q, p, A, B) of a Gaussian packet.

    Plain container: no validation happens here, so that derivative-like
    or perturbed objects can be built freely.  Use ``make_packet_state``
    for validated construction from user data.
    """

    q: np.ndarray
    p: np.ndarray
    A_mat: np.ndarray
    B_mat: np.ndarray

    @property
    def d(self) -> int:
        return self.q.shape[-1]


@dataclass(frozen=True)
class WavePacketFull:
    """A PacketState together with the scalar phase data (phi, delta)."""

    state: PacketState
    phi: float = 0.0
    delta: float = 0.0


def _as_vector(v, name: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(v, dtype=float))
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a vector, got shape {arr.shape}")
    return arr


def _as_matrix(m, d: int, name: str) -> np.ndarray:
    arr = np.asarray(m, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    if arr.shape != (d, d):
        raise ValueError(f"{name} must have shape ({d}, {d}), got {arr.shape}")
    return arr


def make_packet_state(q, p, A_mat, B_mat) -> PacketState:
    """Validated constructor for PacketState.

    Accepts scalars or array-likes; rejects non-finite entries;
    symmetrizes A and B when the componentwise asymmetry is below 1e-12
    and rejects otherwise; requires B positive definite (checked by
    Cholesky, with the failing leading minor reported via an eigenvalue
    diagnostic).
    """
    q = _as_vector(q, "q")
    p = _as_vector(p, "p")
    d = q.shape[0]
    if p.shape != (d,):
        raise ValueError(f"p must have shape ({d},), got {p.shape}")
    A = _as_matrix(A_mat, d, "A_mat")
    B = _as_matrix(B_mat, d, "B_mat")
    for name, v in (("q", q), ("p", p), ("A_mat", A), ("B_mat", B)):
        if not np.isfinite(v).all():
            raise ValueError(f"{name} must be finite, got {v.tolist()}")
    for name, M in (("A_mat", A), ("B_mat", B)):
        skew = np.max(np.abs(M - M.T)) if d > 1 else 0.0
        if skew > SYMMETRY_TOL:
            raise ValueError(
                f"{name} is not symmetric: max |M - M^T| = {skew:.3e} "
                f"exceeds {SYMMETRY_TOL:.0e}"
            )
    A = 0.5 * (A + A.T)
    B = 0.5 * (B + B.T)
    try:
        np.linalg.cholesky(B)
    except np.linalg.LinAlgError:
        lam = float(np.linalg.eigvalsh(B)[0])
        raise ValueError(
            f"B_mat must be positive definite; smallest eigenvalue is {lam:.6e}"
        ) from None
    return PacketState(q=q, p=p, A_mat=A, B_mat=B)


def normalization_delta(B_mat: np.ndarray, hbar: float) -> float:
    """The delta that makes the packet unit-norm for the given B."""
    B = np.atleast_2d(np.asarray(B_mat, dtype=float))
    d = B.shape[0]
    det = float(np.linalg.det(B))
    if det <= 0.0:
        raise ValueError(f"det B must be positive, got {det}")
    return float(0.25 * hbar * np.log((np.pi * hbar) ** d / det))


def normalized_packet(state: PacketState, hbar: float, phi: float = 0.0) -> WavePacketFull:
    """Wrap a state with phi and the delta solving |chi|_2 = 1."""
    return WavePacketFull(state=state, phi=phi, delta=normalization_delta(state.B_mat, hbar))


def evaluate_packet(packet: WavePacketFull, hbar: float, x) -> np.ndarray:
    """Evaluate chi at one point (shape (d,)) or a batch (shape (n, d)).

    Returns a complex scalar array matching the leading batch shape.
    """
    st = packet.state
    x = np.asarray(x, dtype=float)
    scalar_input = x.ndim <= 1
    pts = np.atleast_2d(x)
    if pts.shape[-1] != st.d:
        raise ValueError(f"x must have trailing dimension {st.d}, got shape {x.shape}")
    dx = pts - st.q
    W = st.A_mat + 1j * st.B_mat
    quad = 0.5 * np.einsum("ni,ij,nj->n", dx, W, dx)
    lin = dx @ st.p
    exponent = (1j / hbar) * (quad + lin + packet.phi + 1j * packet.delta)
    vals = np.exp(exponent)
    return vals[0] if scalar_input else vals

