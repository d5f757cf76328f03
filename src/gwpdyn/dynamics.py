"""Equations of motion for packet centers and width matrices.

Two right-hand sides act on the packet parameters (q, p, A, B):

  * classical_rhs: the magnetic Hamiltonian flow of
    H0 = |p - A(q)|^2 / 2m + V(q) on (q, p) alone.

  * semiclassical_rhs: the order-hbar corrected flow generated by the
    effective Hamiltonian, in the kinetic momentum v = p - A(q) and
    W = A_w - DA(q) (A_w the real width matrix, not the vector potential),

        H_hbar = |v|^2 / 2m + V(q) + (hbar/4m) Tr(B^-1 (B^2 + K))
               + (hbar/4) Tr(B^-1 hessV(q)),    K = W^T W - sum_k v_k hessA_k,

    through the bracket

        dq = dH/dp,                dp = -dH/dq,
        dA_w = -(4/hbar) dH/dB^-1, d(B^-1) = +(4/hbar) dH/dA_w.

    The width lines do not depend on hbar: they are the Riccati equation
    d(A_w + iB) = -(W + iB)^T (W + iB) / m + sum_k v_k hessA_k / m - hessV,
    i.e. dA_w = (B^2 - K)/m - hessV and dB = -(W^T B + B W)/m.  The
    center lines at hbar = 0 are the classical ones, so Zhou's flow
    (classical center motion with Riccati transport of A + iB) is this
    flow at hbar = 0; simulate's "zhou" flavor runs it that way.  Both
    flows conserve their respective energies, and the semiclassical flow
    also conserves the width-corrected angular momentum matrix when the
    fields are rotation-equivariant.

Both flows are batched.  classical_rhs, classical_hamiltonian and (in
observables) classical_angular_momentum accept q and p with leading
batch axes (..., d), so the same code moves one packet center and a
whole Egorov ensemble of Wigner samples.  semiclassical_rhs takes a
stack of packets (A_mat, B_mat of shape (..., d, d)) and hbar as a
float or one value per packet, so converge integrates all its hbars'
packets in one run; each packet gets the bits of its single-point
call.  semiclassical_hamiltonian and the other monitors are batched the
same way, so a trajectory's monitors are computed once from its stacked
states.  semiclassical_rhs reads each field set of the model once per
call (flow_fields and curvature_fields, and at hbar != 0
trace_gradients) and hands the values to the width coupling of
DerivedSquares.  Where hessA, or grad_hess_trace_A, vanishes at every
packet of a call (a linear A, as in a uniform magnetic field), the flow
skips the terms it multiplies instead of forming them from zeros, which
leaves every bit of the result; the energy, evaluated once per
trajectory, forms them.
The width matrices' lines are symmetric bit for bit, so a symmetric
A_w and B stay exactly symmetric along a run.

bracket_rhs evaluates the bracket by central finite differences of an
arbitrary scalar function of the state and is the arbiter used to
validate the hand-derived field.  rk4_step is one classic Runge-Kutta
step over a tuple of arrays; rk4_integrate steps a state's own fields
with it, under positive-definiteness and finiteness guards, and returns
the accepted states stacked along a leading time axis; an aborted run
names its step, its reason and the first member of a stack that failed.
time_grid is the one place that turns (dt, t_final) into grid times and
rejects step sizes that do not divide the horizon.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
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
    "classical_rhs",
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
# States per monitor call in rk4_integrate: a batched monitor's
# temporaries are several times the size of the states it reads, so a
# long run is evaluated slice by slice.
MONITOR_BLOCK = 4096


@dataclass(frozen=True)
class ClassicalPhasePoint:
    q: np.ndarray
    p: np.ndarray

    @property
    def d(self) -> int:
        return self.q.shape[-1]


# ---------------------------------------------------------------------------
# energies


def _h0(p, a, v, m):
    """|p - a|^2 / 2m + v from the field values a = A(q), v = V(q)."""
    w = p - np.asarray(a, dtype=float)
    return 0.5 * np.einsum("...k,...k->...", w, w) / m + np.asarray(v, dtype=float)


def _unless_zero(field_values):
    """The values of a curvature entry, or None when they vanish at
    every point: terms with a vanishing hessA or grad_hess_trace_A are
    skipped, since adding a zero leaves a value unchanged."""
    return field_values if field_values.any() else None


def classical_hamiltonian(z, model: FieldModel):
    """H0 = |p - A(q)|^2 / 2m + V(q) at phase points (packet or classical);
    q and p may carry leading batch axes (..., d)."""
    return _h0(z.p, *model.energy_fields(z.q), model.mass)


def semiclassical_hamiltonian(state: PacketState, model: FieldModel, hbar: float):
    """Order-hbar effective energy H_hbar (see module docstring).

    Batched: q, p carry leading axes (..., d) and A_mat, B_mat
    (..., d, d); one value per state is returned.  Each of flow_fields,
    curvature_fields and energy_fields is read once.
    """
    q, p, Aw, B = state.q, state.p, state.A_mat, state.B_mat
    a, ja, _ = model.flow_fields(q)
    hv, ha = (np.asarray(f, dtype=float) for f in model.curvature_fields(q))
    a = np.asarray(a, dtype=float)
    W = Aw - np.asarray(ja, dtype=float)
    K = DerivedSquares().coupling(p - a, W, ha)
    Binv = np.linalg.inv(B)
    tr_width = np.trace(Binv @ (B @ B + K), axis1=-2, axis2=-1)
    tr_v = np.trace(Binv @ hv, axis1=-2, axis2=-1)
    h0 = _h0(p, a, model.energy_fields(q)[1], model.mass)
    return h0 + 0.25 * hbar * (tr_width / model.mass + tr_v)


# ---------------------------------------------------------------------------
# right-hand sides


def classical_rhs(z, model: FieldModel):
    """Magnetic Hamiltonian flow: returns (dq, dp), batched over leading
    axes of z.q and z.p.

    Both outputs keep the memory layout of z.p, so a component-major
    block passed as its transposed (..., d) view stays component-major
    through an RK4 step.  p - A(q) is taken one component at a time,
    because a batched A callback may return the other layout, and numpy
    subtracts mixed layouts row by row.  DA^T v is accumulated from zero
    in the order of an einsum over j, so a single point gets the same
    bits either way.  The fields come from one model.flow_fields call;
    v and dp are allocated before it, and A(q) is freed before the sums:
    in other orders glibc trims and refaults the heap on many steps of a
    2D transport block.  At unit mass the two divisions by m are skipped,
    which leaves every bit.
    """
    v = np.empty_like(z.p, dtype=float)
    dp = np.zeros_like(v)
    a, ja, grad_v = model.flow_fields(z.q)
    a, ja = np.asarray(a, dtype=float), np.asarray(ja, dtype=float)
    d = z.p.shape[-1]
    for j in range(d):
        np.subtract(z.p[..., j], a[..., j], out=v[..., j])
    del a
    for i in range(d):
        for j in range(d):
            dp[..., i] += ja[..., j, i] * v[..., j]
    if model.mass != 1.0:       # x / 1.0 is x, NaN and inf included
        dp /= model.mass
        v /= model.mass
    dp -= grad_v
    return v, dp


def semiclassical_rhs(state: PacketState, model: FieldModel, hbar):
    """Order-hbar corrected flow of (q, p, A, B): returns (dq, dp, dA, dB).

    Batched like classical_rhs: q, p carry leading axes (..., d) and
    A_mat, B_mat (..., d, d), and hbar is a float or an array of the
    batch shape (one hbar per member).  Each member gets the bits of its
    single-point call.

    The hbar^0 part is Zhou's flow: the classical center lines and the
    Riccati width lines, which do not depend on hbar.  When every hbar is
    0 it is returned alone, so Zhou's flow costs no B^-1 and does not
    read trace_gradients, and its center lines equal classical_rhs
    bitwise.  The order-hbar terms are minus the gradients of the
    Laplace corrections (hbar/4m) Tr(B^-1 K) and (hbar/4) Tr(B^-1 hessV):
    the center velocity gains -(hbar/4m) Tr(B^-1 hessA_k), and the
    momentum equation the q-gradients of both traces.  Each field set
    is read at most once.

    When hessA vanishes at every member (a linear A, as in the paper's
    uniform magnetic field), DerivedSquares skips its products: v_k
    hessA_k in K and every hessA term of the trace gradients.  When
    grad_hess_trace_A vanishes at every member, the v.ght_a term is
    skipped.  The two are decided apart, since hessA can vanish where its
    gradient does not (A = x^3 at x = 0).  Adding a zero leaves a value
    unchanged, so the result has the bits of the full sums (but for the
    sign of an exact zero), and a stack that mixes curved and flat
    members still gives each its single-point bits.
    """
    ds = DerivedSquares()
    q, p, Aw, B = state.q, state.p, state.A_mat, state.B_mat
    m = model.mass
    a, ja, grad_v = model.flow_fields(q)
    a, ja = np.asarray(a, dtype=float), np.asarray(ja, dtype=float)
    hv, ha = (np.asarray(f, dtype=float) for f in model.curvature_fields(q))
    ha = _unless_zero(ha)

    # hbar^0: classical center lines and Riccati width lines
    v = p - a
    W = Aw - ja
    dq = v / m
    dp = np.einsum("...ji,...j->...i", ja, v) / m - grad_v
    dA = (B @ B - ds.coupling(v, W, ha)) / m - hv
    dB = -(np.swapaxes(W, -1, -2) @ B + B @ W) / m
    if not np.count_nonzero(hbar):
        return dq, dp, dA, dB
    # one hbar per packet scales the (..., d) terms; a scalar hbar stays a
    # scalar, so a single packet does no array arithmetic on it
    h = np.asarray(hbar, dtype=float)[..., None] if np.ndim(hbar) else hbar

    # order hbar: minus the gradients of (hbar/4m) Tr(B^-1 K) and of
    # (hbar/4) Tr(B^-1 hessV)
    Binv = np.linalg.inv(B)
    ght_v, ght_a = (np.asarray(f, dtype=float) for f in model.trace_gradients(q, Binv))
    ght_a = _unless_zero(ght_a)
    grad_p, grad_q = ds.coupling_gradients(Binv, v, W, ja, ha, ght_a)
    dq = dq + 0.25 * h / m * grad_p
    dp = dp - 0.25 * h * (grad_q / m + ght_v)
    return dq, dp, dA, dB


def bracket_rhs(H_fn: Callable[[PacketState], float], state: PacketState, hbar: float):
    """Numerical bracket flow of an arbitrary scalar H(q, p, A, B).

    Central differences of step 1e-5 in each scalar coordinate, treating
    all d^2 entries of A_w and of B^-1 as independent before symmetrizing:

        dq = dH/dp, dp = -dH/dq,
        dA_w = -(4/hbar) dH/dB^-1 (sym),
        dB = -B d(B^-1)/dt B with d(B^-1) = +(4/hbar) dH/dA_w (sym).

    This is the reference against which hand-derived fields are checked;
    it is two to three orders of magnitude slower than semiclassical_rhs.
    """
    if not hbar > 0.0:
        raise ValueError(f"hbar must be positive, got {hbar}")
    q, p, Aw, B = state.q, state.p, state.A_mat, state.B_mat
    d = state.d
    h = 1e-5
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

    states holds the accepted states stacked along a leading time axis:
    a PacketState or ClassicalPhasePoint whose fields have shapes (n, d)
    and (n, d, d).  abort_step is None, and completed True, unless the
    integrator aborted (non-finite state or loss of positive
    definiteness); then abort_step is the 1-based index of the failed
    step, abort_member the index of a stack's first failing member (()
    for a single state), and times, states and monitors hold the
    surviving prefix.
    """

    times: np.ndarray
    states: PacketState | ClassicalPhasePoint
    monitors: dict = field(default_factory=dict)
    abort_reason: str | None = None
    abort_step: int | None = None
    abort_member: tuple | None = None

    @property
    def completed(self) -> bool:
        return self.abort_step is None

    def __len__(self) -> int:
        return self.times.shape[0]


def _fields(state) -> tuple:
    """The arrays of a state in field order, the order its class takes them."""
    return tuple(getattr(state, f.name) for f in fields(state))


def _state_ok(state) -> tuple | None:
    """None, or the reason and the index over the leading axes of the first
    member (in C order) that is non-finite or has B not positive definite.

    A whole stack is checked at once, with one isfinite per field and one
    batched Cholesky; only a failing stack is searched member by member.
    """
    if all(np.isfinite(y).all() for y in _fields(state)):
        if not isinstance(state, PacketState):
            return None
        B = state.B_mat
        try:
            np.linalg.cholesky(0.5 * (B + np.swapaxes(B, -1, -2)))
            return None
        except np.linalg.LinAlgError:
            pass
    for i in np.ndindex(state.q.shape[:-1]):
        if not all(np.all(np.isfinite(y[i])) for y in _fields(state)):
            return "non-finite state", i
        if isinstance(state, PacketState):
            try:
                np.linalg.cholesky(0.5 * (state.B_mat[i] + state.B_mat[i].T))
            except np.linalg.LinAlgError:
                return "width matrix B lost positive definiteness", i
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
    every array may carry leading batch axes.  The result has the bits
    of the textbook y + dt/6 (k1 + 2 k2 + 2 k3 + k4) with shifted states
    y + h k (IEEE + and * commute), from fewer live arrays: the shifted
    states h k + y and the result (dt/6) S + y are each built in place,
    and S = 2 k2 + k1 + 2 k3 + k4 is summed as the stages arrive.  ys
    and what rhs returns (its own inputs, or read-only views) are never
    written, and each output keeps the memory layout of the rhs output.
    """
    def shifted(ks, h):
        zs = [h * k for k in ks]
        for i, y in enumerate(ys):
            zs[i] += y      # item assignment, so a 0-d k's scalar is kept
        return tuple(zs)

    k1 = rhs(ys)
    k2 = rhs(shifted(k1, 0.5 * dt))
    acc = [2.0 * b for b in k2]
    for i, a in enumerate(k1):
        acc[i] += a
    del k1
    k3 = rhs(shifted(k2, 0.5 * dt))
    del k2
    for i, c in enumerate(k3):
        acc[i] += 2.0 * c
    k4 = rhs(shifted(k3, dt))
    del k3
    for i, (d, y) in enumerate(zip(k4, ys)):
        acc[i] += d
        acc[i] *= dt / 6.0
        acc[i] += y
    return tuple(acc)


def _monitor_values(name, fn, states) -> np.ndarray:
    """One monitor over the stacked states, MONITOR_BLOCK states per call."""
    n = states.q.shape[0]
    out = np.empty(n)
    for lo in range(0, n, MONITOR_BLOCK):
        block = type(states)(*(y[lo:lo + MONITOR_BLOCK] for y in _fields(states)))
        values = np.asarray(fn(block), dtype=float)
        m = block.q.shape[0]
        if values.shape != (m,):
            raise ValueError(f"monitor {name!r} returned shape {values.shape}; "
                             f"expected one value per state, ({m},)")
        out[lo:lo + m] = values
    return out


def rk4_integrate(rhs, initial, dt: float, t_final: float,
                  monitors: dict | None = None) -> Trajectory:
    """Fixed-step classic Runge-Kutta over t in [0, t_final].

    Parameters
    ----------
    rhs : callable state -> tuple of derivative arrays (matching the
        state fields in order and in shape).
    initial : PacketState or ClassicalPhasePoint.  Its fields are
        stepped as a tuple by rk4_step, each stored in its own stack, and
        the trajectory's states are the same class with a leading time
        axis on every field.
    monitors : optional dict name -> callable(states) -> array.  Each is
        called after integration on the accepted states (t = 0
        included), i.e. on a slice of the trajectory's states, and
        returns one value per state.  Runs of up to MONITOR_BLOCK states
        make one call; longer runs call it on consecutive slices of that
        many states, so the monitors' temporaries stay bounded.

    The grid comes from time_grid(dt, t_final).  After each step the new
    state must be finite and (for packets) keep B positive definite,
    every member of a stacked state included; otherwise integration
    stops and the trajectory (monitors included) holds the surviving
    prefix with its abort_step and first failing member.  Steps
    and monitors run with numpy's overflow and invalid warnings off.
    """
    times = time_grid(dt, t_final)
    n_steps = times.shape[0] - 1
    cls = type(initial)
    monitors = monitors or {}

    ys = tuple(np.asarray(y, dtype=float) for y in _fields(initial))
    bad = _state_ok(cls(*ys))
    if bad is not None:
        raise ValueError(f"initial state rejected: {bad[0]}")

    stacks = tuple(np.empty((n_steps + 1,) + y.shape) for y in ys)
    for stack, y in zip(stacks, ys):
        stack[0] = y
    f = lambda y: rhs(cls(*y))
    n = n_steps + 1
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            ys_next = rk4_step(f, ys, dt)
            bad = _state_ok(cls(*ys_next))
            if bad is not None:
                n = i + 1
                break
            ys = ys_next
            for stack, y in zip(stacks, ys):
                stack[i + 1] = y

        states = cls(*(stack[:n] for stack in stacks))
        mon = {name: _monitor_values(name, fn, states) for name, fn in monitors.items()}
    reason, member = bad or (None, None)
    return Trajectory(times=times[:n], states=states, monitors=mon, abort_reason=reason,
                      abort_step=None if bad is None else n, abort_member=member)


def standard_monitors(model: FieldModel, hbar: float, state) -> dict:
    """Default monitor set for states like state (a PacketState or a
    ClassicalPhasePoint, single or stacked): energies, J12 /
    Lz_classical in 2D, minEigB.

    Every monitor takes states stacked along leading axes and returns
    one value per state (see rk4_integrate).
    """
    mons: dict = {"H0": lambda s: classical_hamiltonian(s, model)}
    if isinstance(state, PacketState):
        mons["Hhbar"] = lambda s: semiclassical_hamiltonian(s, model, hbar)
        if state.d == 2:
            mons["J12"] = lambda s: semiclassical_angular_momentum(s, hbar)[..., 0, 1]
        mons["minEigB"] = lambda s: np.linalg.eigvalsh(s.B_mat)[..., 0]
    elif state.d == 2:
        mons["Lz_classical"] = lambda s: classical_angular_momentum(s)
    return mons


def simulate(model: FieldModel, flavor: str, state0: PacketState, hbar: float,
             dt: float, t_final: float) -> Trajectory:
    """Propagate a packet state with the chosen flavor and standard monitors.

    flavor "classical" integrates only the center (widths are dropped);
    "zhou" and "semiclassical" integrate the full packet parameters, the
    first with semiclassical_rhs at hbar = 0 (hbar still sets the
    monitors).
    """
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}; choose from {FLAVORS}")
    if not (np.isfinite(hbar) and hbar > 0.0):
        raise ValueError(f"hbar must be positive and finite, got {hbar}")
    if state0.d != model.dim:
        raise ValueError(f"state has dimension {state0.d} but model "
                         f"{model.name!r} is {model.dim}-dimensional")
    if flavor == "classical":
        initial = ClassicalPhasePoint(q=state0.q, p=state0.p)
        rhs = lambda s: classical_rhs(s, model)
    else:
        initial = state0
        h = 0.0 if flavor == "zhou" else hbar
        rhs = lambda s: semiclassical_rhs(s, model, h)
    mons = standard_monitors(model, hbar, initial)
    return rk4_integrate(rhs, initial, dt, t_final, monitors=mons)
