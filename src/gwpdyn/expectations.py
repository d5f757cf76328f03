"""Gaussian expectation values against a wave packet density.

For a packet with center q and width matrix B, |chi|^2 is (up to
normalization) the Gaussian N(q, (hbar/2) B^-1).  Expectations of smooth
observables are computed by tensorized Gauss-Hermite quadrature after the
whitening substitution

    x = q + sqrt(hbar) L^-T u,        B = L L^T (Cholesky),

which turns the density weight into exp(-|u|^2) exactly, so that a rule
with n nodes per axis integrates polynomials of degree <= 2n-1 exactly.
The order-hbar Laplace expansion

    <U> = U(q) + (hbar/4) Tr(B^-1 D^2 U(q)) + O(hbar^2)

is provided for convergence studies; it is exact for quadratic U.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .packet import PacketState
from .potentials import FieldModel

__all__ = [
    "QuadratureRule",
    "gaussian_expectation",
    "asymptotic_expectation",
    "full_hamiltonian",
]

DEFAULT_NODES = 20


@dataclass(frozen=True)
class QuadratureRule:
    """Tensorized Gauss-Hermite rule for d-dimensional Gaussian averages."""

    nodes_per_dim: int = DEFAULT_NODES
    d: int = 1
    nodes: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.nodes_per_dim < 1:
            raise ValueError(f"nodes_per_dim must be >= 1, got {self.nodes_per_dim}")
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        x, w = hermgauss(self.nodes_per_dim)
        object.__setattr__(self, "nodes", x)
        object.__setattr__(self, "weights", w)

    def points_and_weights(self, q, B_mat, hbar):
        """Mapped tensor grid for the density N(q, (hbar/2) B^-1).

        Returns points of shape (n^d, d) and weights summing to 1.
        """
        q = np.atleast_1d(np.asarray(q, dtype=float))
        B = np.atleast_2d(np.asarray(B_mat, dtype=float))
        d = self.d
        if q.shape != (d,) or B.shape != (d, d):
            raise ValueError("q/B shapes inconsistent with rule dimension")
        L = np.linalg.cholesky(B)
        grids = np.meshgrid(*([self.nodes] * d), indexing="ij")
        u = np.stack([g.reshape(-1) for g in grids], axis=-1)      # (n^d, d)
        wgrids = np.meshgrid(*([self.weights] * d), indexing="ij")
        w = np.prod(np.stack([g.reshape(-1) for g in wgrids], axis=-1), axis=-1)
        # x = q + sqrt(hbar) L^-T u  (row form: u @ L^-1)
        pts = q + np.sqrt(hbar) * (u @ np.linalg.inv(L))
        return pts, w / np.pi ** (d / 2.0)


def gaussian_expectation(U, q, B_mat, hbar, rule: QuadratureRule | None = None) -> float:
    """<U> against the packet density; U takes points batched as (n, d)."""
    q = np.atleast_1d(np.asarray(q, dtype=float))
    if rule is None:
        rule = QuadratureRule(DEFAULT_NODES, d=q.shape[0])
    pts, w = rule.points_and_weights(q, B_mat, hbar)
    vals = np.asarray(U(pts), dtype=float)
    if vals.shape != w.shape:
        raise ValueError(f"observable returned shape {vals.shape}, "
                         f"expected {w.shape}")
    return float(w @ vals)


def asymptotic_expectation(U_q, hessU_q, B_mat, hbar) -> float:
    """Laplace value U(q) + (hbar/4) Tr(B^-1 hessU(q))."""
    B = np.atleast_2d(np.asarray(B_mat, dtype=float))
    H = np.atleast_2d(np.asarray(hessU_q, dtype=float))
    return float(U_q + 0.25 * hbar * np.trace(np.linalg.solve(B, H)))


def full_hamiltonian(state: PacketState, model: FieldModel, hbar: float,
                     rule: QuadratureRule | None = None) -> float:
    """Exact expectation of the magnetic Schroedinger operator in the packet.

    <H> = |p|^2/2m + (hbar/4m) Tr(B^-1 (A_w^2 + B^2))
          - (1/m) <A.p> - (hbar/2m) <Tr(DA^T A_w B^-1)>
          + (1/2m) <|A|^2> + <V>

    where A_w is the real part of the width matrix and the brackets are
    Gaussian averages over the position density.  Field averages use the
    supplied quadrature rule (default 20 nodes per axis).
    """
    m = model.mass
    p = state.p
    Aw = state.A_mat
    B = state.B_mat
    Binv = np.linalg.inv(B)
    if rule is None:
        rule = QuadratureRule(DEFAULT_NODES, d=state.d)
    pts, w = rule.points_and_weights(state.q, B, hbar)

    a_vals, ja_vals, _ = model.flow_fields(pts)
    a_vals = np.asarray(a_vals, dtype=float)                       # (n, d)
    ja_vals = np.asarray(ja_vals, dtype=float)                     # (n, d, d)
    v_vals = np.asarray(model.energy_fields(pts)[1], dtype=float)  # (n,)

    kinetic = float(p @ p) / (2.0 * m)
    width = hbar / (4.0 * m) * float(np.trace(Binv @ (Aw @ Aw + B @ B)))
    a_dot_p = float(w @ (a_vals @ p))
    # Tr(DA^T A_w B^-1) pointwise: sum_ij DA[i, j] (A_w B^-1)[i, j]
    G = Aw @ Binv
    tr_da = float(w @ np.einsum("nij,ij->n", ja_vals, G))
    asq = float(w @ np.einsum("nk,nk->n", a_vals, a_vals))
    v_avg = float(w @ v_vals)

    return (kinetic + width
            - a_dot_p / m
            - 0.5 * hbar * tr_da / m
            + 0.5 * asq / m
            + v_avg)
