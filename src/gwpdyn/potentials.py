"""Scalar/vector potential models and their analytic derivatives.

A FieldModel bundles the data of a charged-particle Hamiltonian
(1/2m)|p - A(x)|^2 + V(x): the mass, the scalar potential V with its
gradient and Hessian, the vector potential A with its Jacobian and
Hessian, and the gradients of the Hessian traces

    x -> grad Tr(M hessV(x)),    x -> grad Tr(M hessA_k(x))

for a symmetric weight matrix M (these show up wherever an hbar-order
Laplace correction is differentiated with respect to the center).
Conventions:

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
    V: Callable
    gradV: Callable
    hessV: Callable
    A: Callable
    jacA: Callable
    hessA: Callable              # x -> (..., d, d, d)
    grad_hess_trace_V: Callable  # (x, M) -> (..., d)
    grad_hess_trace_A: Callable  # (x, M) -> (..., d, d)


# ---------------------------------------------------------------------------
# concrete models


def cosine_1d() -> FieldModel:
    """1D benchmark: V(x) = 1 - cos(x)^2 / 2, A(x) = cos(x), unit mass.

    All derivatives are closed-form trigonometric expressions, which makes
    this the standard smooth-but-nonlinear test case.
    """

    def V(x):
        x = np.asarray(x, dtype=float)[..., 0]
        c = np.cos(x)
        return 1.0 - 0.5 * (c * c)

    def gradV(x):
        x = np.asarray(x, dtype=float)[..., 0]
        return (0.5 * np.sin(2.0 * x))[..., None]

    def hessV(x):
        x = np.asarray(x, dtype=float)[..., 0]
        return np.asarray(np.cos(2.0 * x))[..., None, None]

    def A(x):
        x = np.asarray(x, dtype=float)[..., 0]
        return np.cos(x)[..., None]

    def jacA(x):
        x = np.asarray(x, dtype=float)[..., 0]
        return (-np.sin(x))[..., None, None]

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
        V=V, gradV=gradV, hessV=hessV,
        A=A, jacA=jacA, hessA=hessA,
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
        return np.stack([-x[..., 1], x[..., 0]], axis=-1)

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
        V=V, gradV=gradV, hessV=hessV,
        A=A, jacA=jacA, hessA=hessA,
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
        V=V, gradV=gradV, hessV=hessV,
        A=A, jacA=jacA, hessA=hessA,
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
# derived |A|^2 calculus


class DerivedSquares:
    """Derivatives of |A(x)|^2 assembled from the field values at x.

    The packet flow and its energy consume |A|^2 only through these two
    combinations, so deriving them in one place (by the product rule)
    keeps the individual models free of redundant, error-prone code.
    The methods take what the FieldModel callbacks returned at x
    (a = A(x), ja = jacA(x), ha = hessA(x), ght_a = grad_hess_trace_A(x, M))
    instead of x, so that a right-hand side evaluates each callback once
    and shares the values with its other terms.  Both are batched over
    the leading axes of those values, as the callbacks are.  It holds no
    state.
    """

    def hess_asq(self, a, ja, ha):
        # hess |A|^2 = 2 [ (DA)^T DA + sum_k A_k hessA_k ]   (batched)
        out = np.swapaxes(ja, -1, -2) @ ja
        for k in range(a.shape[-1]):
            out = out + a[..., k, None, None] * ha[..., k, :, :]
        return 2.0 * out

    def grad_hess_trace_asq(self, M, a, ja, ha, ght_a):
        """Gradient of x -> Tr(M hess|A|^2(x)) for symmetric M (ght_a
        evaluated with the same M), batched over leading axes like
        hess_asq.  Each member gets the bits of its single-point call."""
        # the three terms of each k, computed for all k at once, are added
        # in the order k = 0, 1, ...; column k of M DA^T pairs with hessA_k
        MJt = M @ ja.swapaxes(-1, -2)
        t1 = 2.0 * (ha @ MJt.swapaxes(-1, -2)[..., None])[..., 0]
        t2 = (M[..., None, :, :] * ha).sum(axis=(-2, -1))[..., None] * ja
        t3 = a[..., None] * ght_a
        out = np.zeros(a.shape)
        for k in range(a.shape[-1]):
            out += t1[..., k, :]
            out += t2[..., k, :]
            out += t3[..., k, :]
        return 2.0 * out


# ---------------------------------------------------------------------------
# consistency checks


@dataclass(frozen=True)
class FdReport:
    """Outcome of fd_cross_check: worst relative deviation per callback."""

    deviations: dict = field(default_factory=dict)
    failed: tuple = ()
    tol: float = 1e-6

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
    relative to max(1, |analytic|).
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

    def central(f, out_shape):
        cols = []
        for j in range(d):
            e = np.zeros(d)
            e[j] = h[j]
            cols.append((np.asarray(f(x + e), dtype=float)
                         - np.asarray(f(x - e), dtype=float)) / (2.0 * h[j]))
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

    failed = tuple(name for name, dev in devs.items() if not dev <= tol)
    return FdReport(deviations=devs, failed=failed, tol=tol)


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
