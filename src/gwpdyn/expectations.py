"""Gaussian expectation values against a wave packet density.

For a packet with center q and width matrix B, |chi|^2 is (up to
normalization) the Gaussian N(q, (hbar/2) B^-1).  Expectations of smooth
observables are computed by tensorized Gauss-Hermite quadrature after the
whitening substitution

    x = q + sqrt(hbar) L^-T u,        B = L L^T (Cholesky),

which turns the density weight into exp(-|u|^2) exactly, so that a rule
with n nodes per axis integrates polynomials of degree <= 2n-1 exactly.
Every function is batched over leading axes of q (..., d) and B
(..., d, d), with hbar a float or one per packet, and each member of a
stack gets the bits of its single call.  The order-hbar Laplace expansion

    <U> = U(q) + (hbar/4) Tr(B^-1 D^2 U(q)) + O(hbar^2)

is provided for convergence studies; it is exact for quadratic U.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .packet import PacketState
from .potentials import FieldModel

__all__ = [
    "gaussian_nodes",
    "gaussian_expectation",
    "asymptotic_expectation",
    "full_hamiltonian",
]

DEFAULT_NODES = 20


def gaussian_nodes(q, B_mat, hbar, nodes: int = DEFAULT_NODES):
    """Tensor Gauss-Hermite nodes for the densities N(q, (hbar/2) B^-1).

    Returns points of shape (..., nodes^d, d) and weights of shape
    (nodes^d,) summing to 1.  The displacement sqrt(hbar) L^-T u is
    formed one component at a time from elementwise products, so a
    stacked call gives each member the bits of its single call.
    """
    if nodes < 1:
        raise ValueError(f"nodes must be >= 1, got {nodes}")
    q = np.atleast_1d(np.asarray(q, dtype=float))
    B = np.asarray(B_mat, dtype=float)
    d = q.shape[-1]
    if B.shape != q.shape + (d,):
        raise ValueError(f"q of shape {q.shape} and B of shape {B.shape} "
                         "do not describe the same packets")
    # the tensor grids of nodes and of weights, one row per node: (n^d, d)
    u, w = (np.stack(np.meshgrid(*([v] * d), indexing="ij"), axis=-1).reshape(-1, d)
            for v in hermgauss(nodes))
    Linv = np.linalg.inv(np.linalg.cholesky(B))[..., None, :, :]
    scale = np.sqrt(np.asarray(hbar, dtype=float))[..., None]
    pts = np.empty(q.shape[:-1] + u.shape)
    for k in range(d):
        dx = u[:, 0] * Linv[..., 0, k]
        for j in range(1, d):
            dx = dx + u[:, j] * Linv[..., j, k]
        pts[..., k] = q[..., None, k] + scale * dx
    return pts, np.prod(w, axis=-1) / np.pi ** (d / 2.0)


def gaussian_expectation(U, q, B_mat, hbar, nodes: int = DEFAULT_NODES):
    """<U> against each packet density; U takes points batched as
    (..., n, d) and returns (..., n)."""
    pts, w = gaussian_nodes(q, B_mat, hbar, nodes)
    vals = np.asarray(U(pts), dtype=float)
    if vals.shape != pts.shape[:-1]:
        raise ValueError(f"observable returned shape {vals.shape}, "
                         f"expected {pts.shape[:-1]}")
    return (vals * w).sum(axis=-1)


def asymptotic_expectation(U_q, hessU_q, B_mat, hbar) -> float:
    """Laplace value U(q) + (hbar/4) Tr(B^-1 hessU(q))."""
    B = np.atleast_2d(np.asarray(B_mat, dtype=float))
    H = np.atleast_2d(np.asarray(hessU_q, dtype=float))
    return float(U_q + 0.25 * hbar * np.trace(np.linalg.solve(B, H)))


def full_hamiltonian(state: PacketState, model: FieldModel, hbar,
                     nodes: int = DEFAULT_NODES):
    """Exact expectation of the magnetic Schroedinger operator in the packet.

    The Weyl symbol of the operator is |xi - A(x)|^2/2m + V(x), and the
    packet's Wigner density is N(q, (hbar/2) B^-1) in x and, given x,
    N(p + A_w (x - q), (hbar/2) B) in xi (A_w the real part of the width
    matrix).  Averaging over xi first,

        <H> = <|p + A_w (x - q) - A(x)|^2> / 2m + (hbar/4m) Tr B + <V>,

    with the brackets Gaussian averages over the position density
    (gaussian_expectation of the kinetic-plus-V integrand).  Only
    model.energy_fields is read.  The kinetic momentum is formed one
    component at a time, so a stacked state gives each member the bits
    of its single call.
    """
    q, p, Aw, B = state.q, state.p, state.A_mat, state.B_mat
    m = model.mass

    def integrand(pts):
        a, v = model.energy_fields(pts)
        a = np.asarray(a, dtype=float)
        dx = pts - q[..., None, :]
        vsq = 0.0
        for k in range(state.d):
            vk = p[..., None, k] - a[..., k]
            for j in range(state.d):
                vk = vk + Aw[..., None, k, j] * dx[..., j]
            vsq = vsq + vk * vk
        return vsq / (2.0 * m) + np.asarray(v, dtype=float)

    avg = gaussian_expectation(integrand, q, B, hbar, nodes)
    return avg + 0.25 * np.asarray(hbar, dtype=float) * np.trace(B, axis1=-2, axis2=-1) / m
