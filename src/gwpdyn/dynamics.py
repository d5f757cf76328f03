"""Equations of motion for packet centers and width matrices.

Three right-hand-side families act on the packet parameters
(q, p, A, B):

  * classical_rhs: the magnetic Hamiltonian flow of
    H0 = |p - A(q)|^2 / 2m + V(q) on (q, p) alone.

  * zhou_rhs: classical motion of (q, p) coupled to Riccati-type width
    dynamics for A + iB along the trajectory.

  * semiclassical_rhs: the order-hbar corrected flow generated by the
    effective Hamiltonian

        H_hbar = |p - A(q)|^2 / 2m
               + (hbar/4m) Tr(B^-1 (A_w^2 + B^2 - DA^T A_w - A_w DA
                                     - sum_k p_k hessA_k + hess|A|^2 / 2))
               + V(q) + (hbar/4) Tr(B^-1 hessV(q))

    through the bracket

        dq = dH/dp,                dp = -dH/dq,
        dA_w = -(4/hbar) dH/dB^-1, d(B^-1) = +(4/hbar) dH/dA_w,

    (A_w denotes the real width matrix, to distinguish it from the
    vector potential).  All three conserve their respective energies,
    and the semiclassical flow also conserves the width-corrected
    angular momentum matrix when the fields are rotation-equivariant.

classical_rhs, classical_hamiltonian and (in observables)
classical_angular_momentum accept q and p with leading batch axes
(..., d), so the same code moves one packet center and a whole Egorov
ensemble of Wigner samples.

bracket_rhs evaluates the bracket by central finite differences of an
arbitrary scalar function of the state and is the arbiter used to
validate the hand-derived field.  rk4_step is one classic Runge-Kutta
step over a tuple of arrays; rk4_integrate drives it on a packed state
with positive-definiteness and finiteness guards.  time_grid is the one
place that turns (dt, t_final) into grid times and rejects step sizes
that do not divide the horizon.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .observables import classical_angular_momentum, semiclassical_angular_momentum
from .packet import PacketState
from .potentials import DerivedSquares, FieldModel

__all__ = [
    "ClassicalPhasePoint",
    "Trajectory",
    "classical_hamiltonian",
    "semiclassical_hamiltonian",
    "corrected_potentials",
    "classical_rhs",
    "zhou_rhs",
    "semiclassical_rhs",
    "bracket_rhs",
    "time_grid",
    "rk4_step",
    "rk4_integrate",
    "standard_monitors",
    "simulate",
]

FLAVORS = ("classical", "zhou", "semiclassical")
# Longest grid time_grid accepts: its times alone take 800 MB, and a
# packet trajectory on it several GB.
MAX_STEPS = 10 ** 8


@dataclass(frozen=True)
class ClassicalPhasePoint:
    q: np.ndarray
    p: np.ndarray

    @property
    def d(self) -> int:
        return self.q.shape[0]


# ---------------------------------------------------------------------------
# energies


def classical_hamiltonian(z, model: FieldModel):
    """H0 = |p - A(q)|^2 / 2m + V(q) at phase points (packet or classical);
    q and p may carry leading batch axes (..., d)."""
    v = z.p - np.asarray(model.A(z.q), dtype=float)
    return 0.5 * np.einsum("...k,...k->...", v, v) / model.mass \
        + np.asarray(model.V(z.q), dtype=float)


def _width_coupling(state: PacketState, model: FieldModel) -> np.ndarray:
    """The matrix A_w^2 + B^2 - DA^T A_w - A_w DA - sum_k p_k hessA_k
    + hess|A|^2 / 2 entering the order-hbar energy."""
    q, p, Aw, B = state.q, state.p, state.A_mat, state.B_mat
    ja = np.asarray(model.jacA(q), dtype=float)
    ds = DerivedSquares(model)
    C = Aw @ Aw + B @ B - ja.T @ Aw - Aw @ ja + 0.5 * ds.hess_asq(q)
    for k in range(state.d):
        C = C - p[k] * np.asarray(model.hessA(q, k), dtype=float)
    return C


def semiclassical_hamiltonian(state: PacketState, model: FieldModel, hbar: float) -> float:
    """Order-hbar effective energy H_hbar (see module docstring)."""
    q, B = state.q, state.B_mat
    Binv = np.linalg.inv(B)
    h0 = float(classical_hamiltonian(state, model))
    tr_width = float(np.trace(Binv @ _width_coupling(state, model)))
    tr_v = float(np.trace(Binv @ np.asarray(model.hessV(q), dtype=float)))
    return h0 + 0.25 * hbar * (tr_width / model.mass + tr_v)


def corrected_potentials(state: PacketState, model: FieldModel, hbar: float):
    """Laplace-corrected field values at the center, (V_h, A_h, |A|^2_h).

    Each is the plain value plus (hbar/4) Tr(B^-1 Hess); the corrected
    vector potential is what the center velocity couples to:
    dq/dt = (p - A_h(q)) / m.
    """
    q, B = state.q, state.B_mat
    Binv = np.linalg.inv(B)
    ds = DerivedSquares(model)
    v_h = float(model.V(q)) + 0.25 * hbar * float(
        np.trace(Binv @ np.asarray(model.hessV(q), dtype=float)))
    a_h = np.asarray(model.A(q), dtype=float).copy()
    for k in range(state.d):
        a_h[k] += 0.25 * hbar * float(np.trace(Binv @ np.asarray(model.hessA(q, k))))
    asq_h = float(ds.asq(q)) + 0.25 * hbar * float(np.trace(Binv @ ds.hess_asq(q)))
    return v_h, a_h, asq_h


# ---------------------------------------------------------------------------
# right-hand sides


def classical_rhs(z, model: FieldModel):
    """Magnetic Hamiltonian flow: returns (dq, dp), batched over leading
    axes of z.q and z.p.

    Both outputs keep the memory layout of z.p, so a component-major
    block passed as its transposed (..., d) view stays component-major
    through an RK4 step.  p - A(q) is taken one component at a time,
    because a batched A callback may return the other layout (np.stack
    on the last axis does), and numpy subtracts mixed layouts row by
    row.  DA^T v is accumulated from zero in the order of an einsum over
    j, so a single point gets the same bits either way.
    """
    m = model.mass
    d = z.p.shape[-1]
    v = np.empty_like(z.p, dtype=float)
    a = np.asarray(model.A(z.q), dtype=float)
    for j in range(d):
        np.subtract(z.p[..., j], a[..., j], out=v[..., j])
    # freed before the next allocations: held to the end, it makes glibc
    # trim and refault the heap on every step of a 2D transport block
    del a
    ja = np.asarray(model.jacA(z.q), dtype=float)
    dp = np.zeros_like(v)
    for i in range(d):
        for j in range(d):
            dp[..., i] += ja[..., j, i] * v[..., j]
    dp /= m
    dp -= np.asarray(model.gradV(z.q), dtype=float)
    v /= m
    return v, dp


def _width_rhs(state: PacketState, model: FieldModel):
    """Shared Riccati lines for dA_w and dB (returns symmetric matrices)."""
    q, p, Aw, B = state.q, state.p, state.A_mat, state.B_mat
    m = model.mass
    ja = np.asarray(model.jacA(q), dtype=float)
    ds = DerivedSquares(model)
    drive = ja.T @ Aw + Aw @ ja - 0.5 * ds.hess_asq(q)
    for k in range(state.d):
        drive = drive + p[k] * np.asarray(model.hessA(q, k), dtype=float)
    dA = (B @ B - Aw @ Aw + drive) / m - np.asarray(model.hessV(q), dtype=float)
    dB = (ja.T @ B + B @ ja - Aw @ B - B @ Aw) / m
    return dA, dB


def zhou_rhs(state: PacketState, model: FieldModel):
    """Classical center motion with width transport: (dq, dp, dA, dB)."""
    dq, dp = classical_rhs(state, model)
    dA, dB = _width_rhs(state, model)
    return dq, dp, dA, dB


def semiclassical_rhs(state: PacketState, model: FieldModel, hbar: float):
    """Order-hbar corrected flow of (q, p, A, B): returns (dq, dp, dA, dB).

    The center feels the Laplace-corrected potentials; the momentum
    equation carries, besides the gradients of V_h and |A|^2_h and the
    corrected magnetic coupling, the q-derivative of the width-coupling
    trace -(hbar/4m) Tr(B^-1 (DA^T A_w + A_w DA)), which contributes
    (hbar/2m) sum_k (A_w B^-1 hessA_k)_{k,.} whenever the vector
    potential has curvature.
    """
    q, p, Aw, B = state.q, state.p, state.A_mat, state.B_mat
    m, d = model.mass, state.d
    Binv = np.linalg.inv(B)
    ds = DerivedSquares(model)
    a = np.asarray(model.A(q), dtype=float)
    ja = np.asarray(model.jacA(q), dtype=float)
    hess_a = [np.asarray(model.hessA(q, k), dtype=float) for k in range(d)]

    corr = np.array([np.trace(Binv @ hess_a[k]) for k in range(d)])
    dq = (p - a - 0.25 * hbar * corr) / m

    grad_asq = np.asarray(ds.grad_asq(q), dtype=float)
    ght_asq = ds.grad_hess_trace_asq(q, Binv)
    ght_ap = np.zeros(d)
    for k in range(d):
        ght_ap += p[k] * np.asarray(model.grad_hess_trace_A(q, Binv, k), dtype=float)
    dp = (-(grad_asq + 0.25 * hbar * ght_asq - 2.0 * ja.T @ p - 0.5 * hbar * ght_ap)
          / (2.0 * m)
          - np.asarray(model.gradV(q), dtype=float)
          - 0.25 * hbar * np.asarray(model.grad_hess_trace_V(q, Binv), dtype=float))
    if any(np.any(h) for h in hess_a):
        G = Aw @ Binv
        dp = dp + 0.5 * hbar / m * np.einsum(
            "kl,kli->i", G, np.stack(hess_a, axis=0))

    dA, dB = _width_rhs(state, model)
    return dq, dp, dA, dB


def bracket_rhs(H_fn: Callable[[PacketState], float], state: PacketState,
                hbar: float, fd_step: float = 1e-5):
    """Numerical bracket flow of an arbitrary scalar H(q, p, A, B).

    Central differences in each scalar coordinate, treating all d^2
    entries of A_w and of B^-1 as independent before symmetrizing:

        dq = dH/dp, dp = -dH/dq,
        dA_w = -(4/hbar) dH/dB^-1 (sym),
        dB = -B d(B^-1)/dt B with d(B^-1) = +(4/hbar) dH/dA_w (sym).

    This is the reference against which hand-derived fields are checked;
    it is two to three orders of magnitude slower than semiclassical_rhs.
    """
    if not hbar > 0.0:
        raise ValueError(f"hbar must be positive, got {hbar}")
    if not fd_step > 0.0:
        raise ValueError(f"fd_step must be positive, got {fd_step}")
    q, p, Aw, B = state.q, state.p, state.A_mat, state.B_mat
    d = state.d
    h = fd_step
    Binv = np.linalg.inv(B)

    def H_at(q2=None, p2=None, A2=None, Binv2=None):
        B2 = B if Binv2 is None else np.linalg.inv(Binv2)
        s = PacketState(q=q if q2 is None else q2,
                        p=p if p2 is None else p2,
                        A_mat=Aw if A2 is None else A2,
                        B_mat=B2)
        return float(H_fn(s))

    dq = np.zeros(d)
    dp = np.zeros(d)
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        dq[i] = (H_at(p2=p + e) - H_at(p2=p - e)) / (2.0 * h)
        dp[i] = -(H_at(q2=q + e) - H_at(q2=q - e)) / (2.0 * h)

    dH_dBinv = np.zeros((d, d))
    dH_dA = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            E = np.zeros((d, d))
            E[i, j] = h
            dH_dBinv[i, j] = (H_at(Binv2=Binv + E) - H_at(Binv2=Binv - E)) / (2.0 * h)
            dH_dA[i, j] = (H_at(A2=Aw + E) - H_at(A2=Aw - E)) / (2.0 * h)
    dH_dBinv = 0.5 * (dH_dBinv + dH_dBinv.T)
    dH_dA = 0.5 * (dH_dA + dH_dA.T)

    dA = -(4.0 / hbar) * dH_dBinv
    dBinv = (4.0 / hbar) * dH_dA
    dB = -B @ dBinv @ B
    return dq, dp, dA, 0.5 * (dB + dB.T)


# ---------------------------------------------------------------------------
# integration


@dataclass
class Trajectory:
    """Uniform-grid trajectory with per-step scalar monitors.

    ys stacks the flattened state per row; use positions/momenta or
    state_at for typed access.  completed is False when the integrator
    aborted (non-finite state or loss of positive definiteness), in
    which case abort_step is the 1-based index of the failed step and
    the arrays hold the surviving prefix.
    """

    times: np.ndarray
    ys: np.ndarray
    kind: str  # "packet" or "classical"
    d: int
    monitors: dict = field(default_factory=dict)
    completed: bool = True
    abort_reason: str | None = None
    abort_step: int | None = None

    def __len__(self) -> int:
        return self.times.shape[0]

    @property
    def positions(self) -> np.ndarray:
        return self.ys[:, :self.d]

    @property
    def momenta(self) -> np.ndarray:
        return self.ys[:, self.d:2 * self.d]

    @property
    def a_matrices(self) -> np.ndarray:
        if self.kind != "packet":
            raise AttributeError("classical trajectory has no width matrices")
        d = self.d
        return self.ys[:, 2 * d:2 * d + d * d].reshape(-1, d, d)

    @property
    def b_matrices(self) -> np.ndarray:
        if self.kind != "packet":
            raise AttributeError("classical trajectory has no width matrices")
        d = self.d
        return self.ys[:, 2 * d + d * d:].reshape(-1, d, d)

    def state_at(self, i: int):
        d = self.d
        y = self.ys[i]
        if self.kind == "packet":
            return PacketState(q=y[:d].copy(), p=y[d:2 * d].copy(),
                               A_mat=y[2 * d:2 * d + d * d].reshape(d, d).copy(),
                               B_mat=y[2 * d + d * d:].reshape(d, d).copy())
        return ClassicalPhasePoint(q=y[:d].copy(), p=y[d:2 * d].copy())


def _pack(state) -> np.ndarray:
    if isinstance(state, PacketState):
        return np.concatenate([state.q, state.p,
                               state.A_mat.ravel(), state.B_mat.ravel()])
    return np.concatenate([state.q, state.p])


def _unpack(y: np.ndarray, kind: str, d: int):
    if kind == "packet":
        return PacketState(q=y[:d], p=y[d:2 * d],
                           A_mat=y[2 * d:2 * d + d * d].reshape(d, d),
                           B_mat=y[2 * d + d * d:].reshape(d, d))
    return ClassicalPhasePoint(q=y[:d], p=y[d:2 * d])


def _state_ok(y: np.ndarray, kind: str, d: int) -> str | None:
    if not np.all(np.isfinite(y)):
        return "non-finite state"
    if kind == "packet":
        Bm = y[2 * d + d * d:].reshape(d, d)
        try:
            np.linalg.cholesky(0.5 * (Bm + Bm.T))
        except np.linalg.LinAlgError:
            return "width matrix B lost positive definiteness"
    return None


def time_grid(dt: float, t_final: float) -> np.ndarray:
    """Uniform grid times 0, dt, ..., t_final.

    dt must be positive, t_final nonnegative, both finite, and t_final
    a whole number of steps (to a relative tolerance of 1e-9), so that a
    run never silently ends short of or past the requested horizon.  At
    most MAX_STEPS steps are allowed, so a grid too long to store is
    refused before anything is allocated.
    """
    if not (np.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not (np.isfinite(t_final) and t_final >= 0.0):
        raise ValueError(f"t_final must be nonnegative and finite, got {t_final}")
    if not t_final / dt <= MAX_STEPS:
        raise ValueError(f"t_final/dt = {t_final / dt:.6g} steps exceeds the "
                         f"limit of {MAX_STEPS} steps")
    n_steps = round(t_final / dt)
    if abs(t_final / dt - n_steps) > 1e-9 * max(1, n_steps):
        raise ValueError(f"t_final={t_final} is not a whole number of steps "
                         f"of dt={dt} (t_final/dt = {t_final / dt:.12g})")
    return np.arange(n_steps + 1) * dt


def rk4_step(rhs, ys: tuple, dt: float) -> tuple:
    """One classic Runge-Kutta step of dy/dt = rhs(y) for a tuple of arrays.

    rhs maps the tuple to a tuple of derivatives of the same shapes;
    every array may carry leading batch axes.
    """
    def shifted(ks, h):
        return tuple(y + h * k for y, k in zip(ys, ks))

    k1 = rhs(ys)
    k2 = rhs(shifted(k1, 0.5 * dt))
    k3 = rhs(shifted(k2, 0.5 * dt))
    k4 = rhs(shifted(k3, dt))
    return tuple(y + dt / 6.0 * (a + 2.0 * b + 2.0 * c + d)
                 for y, a, b, c, d in zip(ys, k1, k2, k3, k4))


def rk4_integrate(rhs, initial, dt: float, t_final: float,
                  monitors: dict | None = None) -> Trajectory:
    """Fixed-step classic Runge-Kutta over t in [0, t_final].

    Parameters
    ----------
    rhs : callable state -> tuple of derivative arrays (matching the
        state fields in order).
    initial : PacketState or ClassicalPhasePoint.
    monitors : optional dict name -> callable(state) -> float, evaluated
        at every accepted grid point including t = 0.

    The grid comes from time_grid(dt, t_final).  After each step the new
    state must be finite and (for packets) keep B positive definite;
    otherwise integration stops and the trajectory holds the surviving
    prefix with completed=False.
    """
    times = time_grid(dt, t_final)
    n_steps = times.shape[0] - 1
    kind = "packet" if isinstance(initial, PacketState) else "classical"
    d = initial.d
    monitors = monitors or {}

    y = _pack(initial).astype(float)
    bad = _state_ok(y, kind, d)
    if bad is not None:
        raise ValueError(f"initial state rejected: {bad}")

    ys = np.empty((n_steps + 1, y.shape[0]))
    mon = {name: np.empty(n_steps + 1) for name in monitors}

    def f(packed):
        return (np.concatenate([np.asarray(part, dtype=float).ravel()
                                for part in rhs(_unpack(packed[0], kind, d))]),)

    def record(i, yv):
        ys[i] = yv
        if monitors:
            s = _unpack(yv, kind, d)
            for name, fn in monitors.items():
                mon[name][i] = float(fn(s))

    record(0, y)
    for i in range(n_steps):
        (y_next,) = rk4_step(f, (y,), dt)
        bad = _state_ok(y_next, kind, d)
        if bad is not None:
            return Trajectory(
                times=times[:i + 1], ys=ys[:i + 1], kind=kind, d=d,
                monitors={n: v[:i + 1] for n, v in mon.items()},
                completed=False, abort_reason=bad, abort_step=i + 1)
        y = y_next
        record(i + 1, y)

    return Trajectory(times=times, ys=ys, kind=kind, d=d, monitors=mon)


def standard_monitors(model: FieldModel, hbar: float, kind: str, d: int) -> dict:
    """Default monitor set: energies, J12 / Lz_classical in 2D, minEigB."""
    mons: dict = {}
    if kind == "packet":
        mons["H0"] = lambda s: classical_hamiltonian(s, model)
        mons["Hhbar"] = lambda s: semiclassical_hamiltonian(s, model, hbar)
        if d == 2:
            mons["J12"] = lambda s: float(
                semiclassical_angular_momentum(s, hbar)[0, 1])
        mons["minEigB"] = lambda s: float(np.linalg.eigvalsh(s.B_mat)[0])
    else:
        mons["H0"] = lambda s: classical_hamiltonian(s, model)
        if d == 2:
            mons["Lz_classical"] = lambda s: float(classical_angular_momentum(s))
    return mons


def simulate(model: FieldModel, flavor: str, state0: PacketState, hbar: float,
             dt: float, t_final: float) -> Trajectory:
    """Propagate a packet state with the chosen flavor and standard monitors.

    flavor "classical" integrates only the center (widths are dropped);
    "zhou" and "semiclassical" integrate the full packet parameters.
    """
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}; choose from {FLAVORS}")
    if not hbar > 0.0:
        raise ValueError(f"hbar must be positive, got {hbar}")
    if state0.d != model.dim:
        raise ValueError(f"state has dimension {state0.d} but model "
                         f"{model.name!r} is {model.dim}-dimensional")
    if flavor == "classical":
        initial = ClassicalPhasePoint(q=state0.q, p=state0.p)
        rhs = lambda s: classical_rhs(s, model)
        kind = "classical"
    elif flavor == "zhou":
        initial = state0
        rhs = lambda s: zhou_rhs(s, model)
        kind = "packet"
    else:
        initial = state0
        rhs = lambda s: semiclassical_rhs(s, model, hbar)
        kind = "packet"
    mons = standard_monitors(model, hbar, kind, state0.d)
    return rk4_integrate(rhs, initial, dt, t_final, monitors=mons)
