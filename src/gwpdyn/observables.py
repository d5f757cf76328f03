"""Conserved observables and convergence-rate fitting utilities."""

from __future__ import annotations

import numpy as np

__all__ = [
    "diamond",
    "semiclassical_angular_momentum",
    "classical_angular_momentum",
    "loglog_fit",
]


def diamond(q, p) -> np.ndarray:
    """Antisymmetric matrix (q <> p)_{ij} = q_j p_i - q_i p_j; q and p may
    carry leading batch axes (..., d)."""
    q = np.atleast_1d(np.asarray(q, dtype=float))
    p = np.atleast_1d(np.asarray(p, dtype=float))
    if q.shape != p.shape:
        raise ValueError(f"q and p must have matching shapes, got {q.shape}, {p.shape}")
    return p[..., :, None] * q[..., None, :] - q[..., :, None] * p[..., None, :]


def semiclassical_angular_momentum(state, hbar: float) -> np.ndarray:
    """Width-corrected angular momentum matrix

        J = q <> p - (hbar/2) [B^-1, A].

    For rotation-equivariant fields this matrix is conserved by the
    order-hbar packet flow, entry by entry; the classical q <> p alone
    is not.  Antisymmetric by construction (commutator of symmetric
    matrices is antisymmetric).  Batched over leading axes of the
    state's fields.
    """
    Binv = np.linalg.inv(state.B_mat)
    A = state.A_mat
    comm = Binv @ A - A @ Binv
    return diamond(state.q, state.p) - 0.5 * hbar * comm


def classical_angular_momentum(z) -> float | np.ndarray:
    """q1 p2 - q2 p1 in 2D, the usual cross product in 3D; q and p may
    carry leading batch axes (..., d)."""
    q = np.atleast_1d(np.asarray(z.q, dtype=float))
    p = np.atleast_1d(np.asarray(z.p, dtype=float))
    d = q.shape[-1]
    if d == 2:
        return q[..., 0] * p[..., 1] - q[..., 1] * p[..., 0]
    if d == 3:
        return np.cross(q, p)
    raise ValueError(f"angular momentum undefined for d={d}")


def loglog_fit(hbars, errors) -> tuple[float, float]:
    """OLS fit of log(error) = intercept + exponent * log(hbar).

    Returns (intercept, exponent).  Requires at least two distinct hbars
    and strictly positive inputs on both axes.
    """
    h = np.asarray(hbars, dtype=float)
    e = np.asarray(errors, dtype=float)
    if h.shape != e.shape or h.ndim != 1:
        raise ValueError("hbars and errors must be 1-D arrays of equal length")
    if np.unique(h).size < 2:
        raise ValueError("need at least two distinct hbars for a rate fit")
    if np.any(h <= 0.0) or np.any(e <= 0.0):
        raise ValueError("loglog_fit requires strictly positive values")
    slope, intercept = np.polyfit(np.log(h), np.log(e), 1)
    return float(intercept), float(slope)
