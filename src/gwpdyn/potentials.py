"""Scalar/vector potential models and their analytic derivatives.

A FieldModel bundles the data of a charged-particle Hamiltonian
(1/2m)|p - A(x)|^2 + V(x): the mass, the fields the classical flow and
its energy read, as two sets

    flow_fields(x) = (A(x), jacA(x), gradV(x)),    energy_fields(x) = (A(x), V(x)),

the Hessians of V and A, and the gradients of the Hessian traces

    x -> grad Tr(M hessV(x)),    x -> grad Tr(M hessA_k(x))

for a symmetric weight matrix M (these show up wherever an hbar-order
Laplace correction is differentiated with respect to the center).  A
model evaluates each set in one call, so its entries may reuse each
other's work (cosine_1d's flow fields take one cos x and one sin x);
the A of both sets must have the same bits, which fd_cross_check
checks.  V, gradV, A and jacA are read-only methods that return one
entry of a set (model.A(x) is model.flow_fields(x)[0]).  Conventions:

  * jacA(x)[i, j] = dA_i/dx_j
  * hessA(x)[k, i, j] = d^2 A_k / dx_i dx_j
  * grad_hess_trace_A(x, M)[k, i] = d/dx_i Tr(M hessA_k(x))

Every callback is batched: x has shape (..., d), M has shape
(..., d, d) with the same leading axes, and the result carries those
leading axes in front of the shapes above.  A single point is the case
of no leading axes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

__all__ = [
    "FieldModel",
    "DerivedSquares",
    "FdReport",
    "cosine_1d",
    "quartic_rotational_2d",
    "quadratic_linear",
    "free_model",
    "model_by_name",
    "fd_cross_check",
    "rotational_symmetry_check",
]


@dataclass(frozen=True)
class FieldModel:
    name: str
    dim: int
    mass: float
    flow_fields: Callable        # x -> (A(x), jacA(x), gradV(x))
    energy_fields: Callable      # x -> (A(x), V(x))
    hessV: Callable              # x -> (..., d, d)
    hessA: Callable              # x -> (..., d, d, d)
    grad_hess_trace_V: Callable  # (x, M) -> (..., d)
    grad_hess_trace_A: Callable  # (x, M) -> (..., d, d)

    # one entry of a set each, so there is no second implementation of
    # a field; to change a field, replace the set
    def V(self, x):
        return self.energy_fields(x)[1]

    def gradV(self, x):
        return self.flow_fields(x)[2]

    def A(self, x):
        return self.flow_fields(x)[0]

    def jacA(self, x):
        return self.flow_fields(x)[1]


# ---------------------------------------------------------------------------
# concrete models


def cosine_1d() -> FieldModel:
    """1D benchmark: V(x) = 1 - cos(x)^2 / 2, A(x) = cos(x), unit mass.

    All derivatives are closed-form trigonometric expressions, which makes
    this the standard smooth-but-nonlinear test case.  The flow's fields
    come from one cos x and one sin x (gradV = sin x cos x), the energy's
    from one cos x.
    """

    def flow_fields(x):
        x = np.asarray(x, dtype=float)[..., 0]
        c, s = np.cos(x), np.sin(x)
        return c[..., None], (-s)[..., None, None], (s * c)[..., None]

    def energy_fields(x):
        x = np.asarray(x, dtype=float)[..., 0]
        c = np.cos(x)
        return c[..., None], 1.0 - 0.5 * (c * c)

    def hessV(x):
        x = np.asarray(x, dtype=float)[..., 0]
        return np.asarray(np.cos(2.0 * x))[..., None, None]

    def hessA(x):
        x = np.asarray(x, dtype=float)[..., 0]
        return (-np.cos(x))[..., None, None, None]

    def ghtV(x, M):
        # d/dx (M00 * V''(x)) with V'' = cos(2x)
        x = np.asarray(x, dtype=float)[..., 0]
        M = np.asarray(M, dtype=float)
        return (M[..., 0, 0] * (-2.0 * np.sin(2.0 * x)))[..., None]

    def ghtA(x, M):
        x = np.asarray(x, dtype=float)[..., 0]
        M = np.asarray(M, dtype=float)
        return (M[..., 0, 0] * np.sin(x))[..., None, None]

    return FieldModel(
        name="cosine1d", dim=1, mass=1.0,
        flow_fields=flow_fields, energy_fields=energy_fields,
        hessV=hessV, hessA=hessA,
        grad_hess_trace_V=ghtV, grad_hess_trace_A=ghtA,
    )


def quartic_rotational_2d() -> FieldModel:
    """2D benchmark: V = |x|^2/2 + |x|^4/4 with the rotational gauge
    A(x) = (-x2, x1).  A is linear, so hessA vanishes identically and the
    model is rotation-equivariant (see rotational_symmetry_check)."""

    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    eye = np.eye(2)

    def V(x):
        x = np.asarray(x, dtype=float)
        r2 = np.einsum("...i,...i->...", x, x)
        return 0.5 * r2 + 0.25 * (r2 * r2)

    def gradV(x):
        x = np.asarray(x, dtype=float)
        r2 = np.einsum("...i,...i->...", x, x)
        return x * (1.0 + r2)[..., None]

    def hessV(x):
        x = np.asarray(x, dtype=float)
        r2 = np.einsum("...i,...i->...", x, x)
        return (1.0 + r2)[..., None, None] * eye + 2.0 * x[..., :, None] * x[..., None, :]

    def A(x):
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape)
        np.negative(x[..., 1], out=out[..., 0])
        out[..., 1] = x[..., 0]
        return out

    def jacA(x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(J, x.shape[:-1] + (2, 2))

    def hessA(x):
        return np.zeros(np.shape(x)[:-1] + (2, 2, 2))

    def ghtV(x, M):
        # Tr(M hessV) = (1+|x|^2) Tr M + 2 x.Mx, so the gradient is
        # 2 Tr(M) x + 4 M x.
        x = np.asarray(x, dtype=float)
        M = np.asarray(M, dtype=float)
        tr = np.trace(M, axis1=-2, axis2=-1)[..., None]
        return 2.0 * tr * x + 4.0 * (M @ x[..., None])[..., 0]

    def ghtA(x, M):
        return np.zeros(np.shape(x)[:-1] + (2, 2))

    return FieldModel(
        name="quartic2d", dim=2, mass=1.0,
        flow_fields=lambda x: (A(x), jacA(x), gradV(x)),
        energy_fields=lambda x: (A(x), V(x)),
        hessV=hessV, hessA=hessA,
        grad_hess_trace_V=ghtV, grad_hess_trace_A=ghtA,
    )


def quadratic_linear(K, b, c, M0, a0, mass: float = 1.0) -> FieldModel:
    """Exactly-solvable family: V quadratic, A affine.

    V(x) = x.Kx/2 + b.x + c with K symmetric, A(x) = M0 x + a0 (M0 need
    not be symmetric).  All third derivatives vanish, so the order-hbar
    Laplace corrections are exact and the three propagation flavors that
    treat them differently agree on this family.
    """
    K = np.atleast_2d(np.asarray(K, dtype=float))
    d = K.shape[0]
    if K.shape != (d, d):
        raise ValueError(f"K must be square, got shape {K.shape}")
    if np.max(np.abs(K - K.T)) > 1e-12:
        raise ValueError("K must be symmetric")
    K = 0.5 * (K + K.T)
    b = np.atleast_1d(np.asarray(b, dtype=float))
    M0 = np.atleast_2d(np.asarray(M0, dtype=float))
    a0 = np.atleast_1d(np.asarray(a0, dtype=float))
    if b.shape != (d,) or M0.shape != (d, d) or a0.shape != (d,):
        raise ValueError("K, b, M0, a0 have inconsistent shapes")
    c = float(c)
    if not mass > 0.0:
        raise ValueError(f"mass must be positive, got {mass}")

    def V(x):
        x = np.asarray(x, dtype=float)
        return (0.5 * np.einsum("...i,ij,...j->...", x, K, x)
                + np.einsum("...j,j->...", x, b) + c)

    def gradV(x):
        x = np.asarray(x, dtype=float)
        return np.einsum("...j,ij->...i", x, K) + b

    def hessV(x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(K, x.shape[:-1] + (d, d))

    def A(x):
        x = np.asarray(x, dtype=float)
        return np.einsum("...j,ij->...i", x, M0) + a0

    def jacA(x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(M0, x.shape[:-1] + (d, d))

    def hessA(x):
        return np.zeros(np.shape(x)[:-1] + (d, d, d))

    def ghtV(x, M):
        return np.zeros(np.shape(x)[:-1] + (d,))

    def ghtA(x, M):
        return np.zeros(np.shape(x)[:-1] + (d, d))

    return FieldModel(
        name="quadratic", dim=d, mass=mass,
        flow_fields=lambda x: (A(x), jacA(x), gradV(x)),
        energy_fields=lambda x: (A(x), V(x)),
        hessV=hessV, hessA=hessA,
        grad_hess_trace_V=ghtV, grad_hess_trace_A=ghtA,
    )


def free_model(d: int = 1, mass: float = 1.0) -> FieldModel:
    """V = 0, A = 0 in d dimensions."""
    zK = np.zeros((d, d))
    # same callbacks, distinct name for the CLI registry
    return replace(quadratic_linear(zK, np.zeros(d), 0.0, zK, np.zeros(d), mass=mass),
                   name="free")


def model_by_name(name: str, d: int = 1, params: dict | None = None) -> FieldModel:
    """Registry used by the CLI.  `params` feeds quadratic_linear."""
    if name == "cosine1d":
        return cosine_1d()
    if name == "quartic2d":
        return quartic_rotational_2d()
    if name == "free":
        return free_model(d=d)
    if name == "quadratic":
        p = dict(params or {})
        missing = [k for k in ("K", "b", "c", "M0", "a0") if k not in p]
        if missing:
            raise ValueError(f"quadratic model requires config keys {missing}")
        return quadratic_linear(
            p["K"], p["b"], p["c"], p["M0"], p["a0"], mass=p.get("mass", 1.0)
        )
    raise ValueError(f"unknown model name {name!r}; "
                     "choose from cosine1d, quartic2d, quadratic, free")


# ---------------------------------------------------------------------------
# width coupling of the kinetic momentum


class DerivedSquares:
    """The width coupling K = W^T W - sum_k v_k hessA_k of the kinetic
    momentum v = p - A(q) and W = A_w - DA(q) (A_w the real width
    matrix), through which the packet flow and its energy read A.

    The methods take v, W and what the FieldModel callbacks returned at q
    (ja = jacA(q), ha = hessA(q), ght_a = grad_hess_trace_A(q, M)), so a
    right-hand side evaluates each callback once.  Both are batched over
    leading axes, each member with the bits of its single-point call; the
    class holds no state.  A caller that knows hessA (or
    grad_hess_trace_A) to vanish at every point passes ha (or ght_a) as
    None, and the products with it are skipped: the same bits as from
    zeros, but for the sign of an exact zero.
    """

    def coupling(self, v, W, ha):
        """K = W^T W - sum_k v_k hessA_k."""
        K = np.swapaxes(W, -1, -2) @ W
        if ha is not None:
            for k in range(v.shape[-1]):
                K = K - v[..., k, None, None] * ha[..., k, :, :]
        return K

    def coupling_gradients(self, M, v, W, ja, ha, ght_a):
        """The p- and q-gradients of Tr(M K) for symmetric M (ght_a
        evaluated with the same M), each of shape (..., d):

            d/dp_k Tr(M K) = -Tr(M hessA_k),
            d/dq   Tr(M K) = DA^T t - 2 sum_kl (W M)_kl hessA_k[l, .]
                             - sum_k v_k grad_hess_trace_A_k,

        with t_k = Tr(M hessA_k).  A gradient with no term left, because
        ha (and ght_a) is None, is the float 0.0.
        """
        grad_p = grad_q = 0.0
        if ha is not None:
            t = (M[..., None, :, :] * ha).sum(axis=(-2, -1))
            grad_p = -t
            grad_q = (np.einsum("...ki,...k->...i", ja, t)
                      - 2.0 * np.einsum("...kl,...kli->...i", W @ M, ha))
        if ght_a is not None:
            for k in range(v.shape[-1]):
                grad_q = grad_q - v[..., k, None] * ght_a[..., k, :]
        return grad_p, grad_q


# ---------------------------------------------------------------------------
# consistency checks


@dataclass(frozen=True)
class FdReport:
    """Outcome of fd_cross_check: worst relative deviation per callback."""

    deviations: dict = field(default_factory=dict)
    failed: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.failed


def _rel_dev(fd, analytic) -> float:
    fd = np.asarray(fd, dtype=float)
    an = np.asarray(analytic, dtype=float)
    scale = max(1.0, float(np.max(np.abs(an))) if an.size else 0.0)
    return float(np.max(np.abs(fd - an)) / scale) if an.size else 0.0


def fd_cross_check(model: FieldModel, x, tol: float = 1e-6, M=None) -> FdReport:
    """Check every analytic derivative callback by central differences.

    Each level is differenced against the level below it (gradV against V,
    hessV against gradV, and so on), which keeps all checks first-order
    central and well conditioned.  Deviations are maximum-entry errors
    relative to max(1, |analytic|).  "field_sets" compares the A of
    flow_fields with the A of energy_fields at x and at the points
    differenced around it; it fails unless they give the same bits.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = model.dim
    if x.shape != (d,):
        raise ValueError(f"x must have shape ({d},), got {x.shape}")
    if M is None:
        # deterministic symmetric weight with distinct entries so that
        # off-diagonal Hessian terms are exercised
        M = np.array([[1.0 / (1.0 + i + j) for j in range(d)] for i in range(d)])
    M = 0.5 * (np.asarray(M, dtype=float) + np.asarray(M, dtype=float).T)

    h = np.finfo(float).eps ** (1.0 / 3.0) * (1.0 + np.abs(x))

    steps = [h[j] * np.eye(d)[j] for j in range(d)]

    def central(f, out_shape):
        cols = [(np.asarray(f(x + e), dtype=float) - np.asarray(f(x - e), dtype=float))
                / (2.0 * e[j]) for j, e in enumerate(steps)]
        return np.stack(cols, axis=-1).reshape(out_shape)

    devs = {}
    devs["gradV"] = _rel_dev(central(model.V, (d,)), model.gradV(x))
    devs["hessV"] = _rel_dev(central(model.gradV, (d, d)), model.hessV(x))
    devs["jacA"] = _rel_dev(central(model.A, (d, d)), model.jacA(x))
    # hessA and grad_hess_trace_A are judged one component k at a time
    fd_ha = central(model.jacA, (d, d, d))
    ha = np.asarray(model.hessA(x), dtype=float)
    devs["hessA"] = max(_rel_dev(fd_ha[k], ha[k]) for k in range(d))
    fd_ght_a = central(lambda y: np.sum(M * np.asarray(model.hessA(y)), axis=(-2, -1)),
                       (d, d))
    ght_a = np.asarray(model.grad_hess_trace_A(x, M), dtype=float)
    devs["grad_hess_trace_A"] = max(_rel_dev(fd_ght_a[k], ght_a[k]) for k in range(d))
    fd_gv = central(lambda y: np.sum(M * np.asarray(model.hessV(y))), (d,))
    devs["grad_hess_trace_V"] = _rel_dev(fd_gv, model.grad_hess_trace_V(x, M))

    pairs = [(np.asarray(model.flow_fields(y)[0], dtype=float),
              np.asarray(model.energy_fields(y)[0], dtype=float))
             for y in [x] + [y for e in steps for y in (x + e, x - e)]]
    devs["field_sets"] = max(_rel_dev(a, b) if a.shape == b.shape else np.inf
                             for a, b in pairs)
    same_bits = all(a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in pairs)

    failed = tuple(name for name, dev in devs.items()
                   if not dev <= tol or (name == "field_sets" and not same_bits))
    return FdReport(deviations=devs, failed=failed)


def rotational_symmetry_check(model: FieldModel, R, x, tol: float = 1e-10) -> bool:
    """True when V(Rx)=V(x), A(Rx)=R A(x) and DA(Rx)=R DA(x) R^T at x."""
    R = np.atleast_2d(np.asarray(R, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    Rx = R @ x
    if abs(float(model.V(Rx)) - float(model.V(x))) > tol:
        return False
    if np.max(np.abs(np.asarray(model.A(Rx)) - R @ np.asarray(model.A(x)))) > tol:
        return False
    ja = np.asarray(model.jacA(x))
    if np.max(np.abs(np.asarray(model.jacA(Rx)) - R @ ja @ R.T)) > tol:
        return False
    return True
