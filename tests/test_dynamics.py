import collections
import dataclasses

import numpy as np
import pytest

from conftest import cubic_gauge_2d, gauged, plane_wave_gauge_2d, tilted
from gwpdyn import dynamics
from gwpdyn.checks import random_state, rel_field_dev
from gwpdyn.dynamics import (ClassicalPhasePoint, bracket_rhs,
                             classical_hamiltonian, classical_rhs,
                             rk4_integrate, rk4_step,
                             semiclassical_hamiltonian, semiclassical_rhs,
                             simulate, standard_monitors, time_grid)
from gwpdyn.expectations import full_hamiltonian
from gwpdyn.observables import (classical_angular_momentum, loglog_fit,
                                semiclassical_angular_momentum)
from gwpdyn.packet import PacketState, make_packet_state
from gwpdyn.potentials import (cosine_1d, fd_cross_check, quadratic_linear,
                               quartic_rotational_2d)


# ---------------------------------------------------------------------------
# hand-computed reference values at the 1D benchmark state


def test_classical_hamiltonian_value(cos_model, bench_state_1d):
    expected = 0.5 * (-1 - np.cos(0.5)) ** 2 + 1 - 0.5 * np.cos(0.5) ** 2
    assert classical_hamiltonian(bench_state_1d, cos_model) == pytest.approx(
        expected, rel=1e-15)


def test_classical_rhs_value(cos_model, bench_state_1d):
    dq, dp = classical_rhs(bench_state_1d, cos_model)
    assert dq[0] == pytest.approx(-1 - np.cos(0.5), rel=1e-15)
    # A'(q)(p - A)/m - V'(q) collapses to -p sin q = sin(0.5)
    assert dp[0] == pytest.approx(np.sin(0.5), rel=1e-14)


def test_zhou_width_lines_value(cos_model, bench_state_1d):
    # Zhou's flow is the semiclassical flow at hbar = 0
    dq, dp, dA, dB = semiclassical_rhs(bench_state_1d, cos_model, 0.0)
    assert dA[0, 0] == pytest.approx(1 + np.cos(0.5), rel=1e-14)
    assert dB[0, 0] == pytest.approx(-2 * np.sin(0.5), rel=1e-14)
    # center lines are exactly classical
    dqc, dpc = classical_rhs(bench_state_1d, cos_model)
    assert np.array_equal(dq, dqc) and np.array_equal(dp, dpc)


def test_semiclassical_center_velocity(cos_model, bench_state_1d):
    dq, _, _, _ = semiclassical_rhs(bench_state_1d, cos_model, 0.5)
    assert dq[0] == pytest.approx(-1 - 0.875 * np.cos(0.5), rel=1e-14)


def test_effective_energy_2d_initial_value(quartic_model, bench_state_2d):
    # H_hbar(0) grows linearly in hbar on the 2D benchmark data
    h0 = semiclassical_hamiltonian(bench_state_2d, quartic_model, 1e-12)
    slope = (semiclassical_hamiltonian(bench_state_2d, quartic_model, 0.1)
             - h0) / 0.1
    assert h0 == pytest.approx(0.75, abs=1e-9)
    assert slope == pytest.approx(139 / 6, rel=1e-9)


def test_center_velocity_couples_to_corrected_potential(cos_model):
    # dq = (p - A_h(q)) / m with A_h = A + (hbar/4) Tr(B^-1 hessA) =
    # cos q (1 - hbar/4b) on cosine1d
    st = make_packet_state([0.7], [0.2], [[0.4]], [[1.5]])
    q, p, b, hbar = 0.7, 0.2, 1.5, 0.3
    dq, _, _, _ = semiclassical_rhs(st, cos_model, hbar)
    assert dq[0] == pytest.approx((p - np.cos(q) * (1 - hbar / (4 * b)))
                                  / cos_model.mass, rel=1e-13)


# ---------------------------------------------------------------------------
# structural properties of the flows


def test_width_derivatives_symmetric(curved_gauge_model):
    rng = np.random.default_rng(3)
    for _ in range(10):
        st = random_state(rng, 2)
        for rhs in (semiclassical_rhs(st, curved_gauge_model, 0.0),
                    semiclassical_rhs(st, curved_gauge_model, 0.2)):
            _, _, dA, dB = rhs
            assert np.max(np.abs(dA - dA.T)) < 1e-13
            assert np.max(np.abs(dB - dB.T)) < 1e-13


def test_semiclassical_equals_zhou_on_quadratic_models():
    rng = np.random.default_rng(14)
    for _ in range(10):
        d = int(rng.integers(1, 4))
        K = rng.standard_normal((d, d))
        K = K @ K.T + 0.5 * np.eye(d)
        model = quadratic_linear(K, rng.standard_normal(d),
                                 float(rng.standard_normal()),
                                 rng.standard_normal((d, d)),
                                 rng.standard_normal(d),
                                 mass=float(rng.uniform(0.5, 2.0)))
        st = random_state(rng, d)
        hbar = float(rng.uniform(0.05, 0.8))
        assert rel_field_dev(semiclassical_rhs(st, model, hbar),
                             semiclassical_rhs(st, model, 0.0)) < 1e-12


@pytest.mark.parametrize("model_ix", [0, 1, 2])
def test_semiclassical_field_matches_bracket_field(model_ix, cos_model,
                                                   quartic_model,
                                                   curved_gauge_model):
    # the hand-derived equations must agree with numerical differentiation
    # of the effective energy under the packet bracket
    model = (cos_model, quartic_model, curved_gauge_model)[model_ix]
    rng = np.random.default_rng(100 + model_ix)
    for _ in range(20):
        st = random_state(rng, model.dim)
        hbar = float(rng.uniform(0.05, 0.5))
        field = semiclassical_rhs(st, model, hbar)
        ref = bracket_rhs(
            lambda s: semiclassical_hamiltonian(s, model, hbar), st, hbar)
        assert rel_field_dev(field, ref) < 1e-5


def _at_origin(state):
    return dataclasses.replace(state, q=np.zeros_like(state.q))


def test_field_matches_bracket_where_only_the_curvature_gradient_survives():
    # at the origin the cubic model's hessA vanishes but grad_hess_trace_A
    # and A do not: the flow skips the hessA terms and must keep p.ght_a
    # and the A.ght_a part of the |A|^2 trace gradient
    model = cubic_gauge_2d()
    rng = np.random.default_rng(31)
    for _ in range(10):
        st = _at_origin(random_state(rng, 2))
        hbar = float(rng.uniform(0.05, 0.5))
        assert not model.hessA(st.q).any()
        assert model.grad_hess_trace_A(st.q, np.linalg.inv(st.B_mat)).any()
        field = semiclassical_rhs(st, model, hbar)
        ref = bracket_rhs(
            lambda s: semiclassical_hamiltonian(s, model, hbar), st, hbar)
        assert rel_field_dev(field, ref) < 1e-5


def test_bracket_rhs_validation(cos_model, bench_state_1d):
    H = lambda s: semiclassical_hamiltonian(s, cos_model, 0.1)
    with pytest.raises(ValueError):
        bracket_rhs(H, bench_state_1d, 0.0)


# ---------------------------------------------------------------------------
# conservation laws


def test_energy_conserved_1d(cos_model, bench_state_1d):
    traj = simulate(cos_model, "semiclassical", bench_state_1d,
                    hbar=0.1, dt=0.01, t_final=3.0)
    h = traj.monitors["Hhbar"]
    assert traj.completed
    assert np.max(np.abs(h - h[0])) / abs(h[0]) < 1e-7


def test_energy_and_angular_momentum_conserved_2d(quartic_model):
    st = make_packet_state([0.5, 0.0], [0.0, 0.5],
                           [[0.3, -0.2], [-0.2, 0.1]],
                           [[1.0, 0.2], [0.2, 1.0]])
    traj = simulate(quartic_model, "semiclassical", st,
                    hbar=0.1, dt=0.01, t_final=10.0)
    assert traj.completed
    h = traj.monitors["Hhbar"]
    j = traj.monitors["J12"]
    assert np.max(np.abs(h - h[0])) / abs(h[0]) < 1e-7
    assert np.max(np.abs(j - j[0])) < 1e-7


def test_angular_momentum_not_conserved_without_symmetry(quartic_model):
    # control: adding a linear tilt to V breaks the rotation symmetry and
    # must visibly destroy the invariant
    st = make_packet_state([0.5, 0.0], [0.0, 0.5],
                           [[0.3, -0.2], [-0.2, 0.1]],
                           [[1.0, 0.2], [0.2, 1.0]])
    traj = simulate(tilted(quartic_model), "semiclassical", st, hbar=0.1, dt=0.01,
                    t_final=10.0)
    j = traj.monitors["J12"]
    assert np.max(np.abs(j - j[0])) > 1e-3


def test_classical_angular_momentum_drift(quartic_model):
    st = make_packet_state([0.5, 0.0], [0.0, 0.5],
                           [[0.3, -0.2], [-0.2, 0.1]],
                           [[1.0, 0.2], [0.2, 1.0]])
    traj = simulate(quartic_model, "classical", st, hbar=0.1, dt=0.01,
                    t_final=10.0)
    lz = traj.monitors["Lz_classical"]
    assert np.max(np.abs(lz - lz[0])) < 1e-8


def test_angular_momentum_matrix_equivariance(quartic_model):
    rng = np.random.default_rng(23)
    st = random_state(rng, 2)
    hbar = 0.17
    th = 1.1
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    rotated = PacketState(q=R @ st.q, p=R @ st.p,
                          A_mat=R @ st.A_mat @ R.T, B_mat=R @ st.B_mat @ R.T)
    J = semiclassical_angular_momentum(st, hbar)
    Jr = semiclassical_angular_momentum(rotated, hbar)
    assert np.max(np.abs(Jr - R @ J @ R.T)) < 1e-12


# ---------------------------------------------------------------------------
# integrator mechanics


def test_rk4_zero_time_single_row(cos_model, bench_state_1d):
    traj = simulate(cos_model, "semiclassical", bench_state_1d,
                    hbar=0.1, dt=0.01, t_final=0.0)
    assert len(traj) == 1 and traj.times[0] == 0.0
    assert np.allclose(traj.states.q[0], [0.5])


def test_rk4_grid_is_uniform(cos_model, bench_state_1d):
    traj = simulate(cos_model, "semiclassical", bench_state_1d,
                    hbar=0.1, dt=0.25, t_final=1.0)
    assert np.allclose(np.diff(traj.times), 0.25)
    assert len(traj) == 5


def test_rk4_aborts_on_pd_loss(cos_model, bench_state_1d):
    # dB/dt = -1 drives B through zero at t = 1
    rhs = lambda s: (np.zeros(1), np.zeros(1), np.zeros((1, 1)),
                     -np.ones((1, 1)))
    calls = []

    def b11(states):
        calls.append(states.B_mat.shape)
        return states.B_mat[..., 0, 0]

    monitors = dict(standard_monitors(cos_model, 0.1, bench_state_1d), B11=b11)
    traj = rk4_integrate(rhs, bench_state_1d, dt=0.1, t_final=2.0,
                         monitors=monitors)
    assert not traj.completed
    assert "positive definiteness" in traj.abort_reason
    assert traj.abort_step is not None and traj.abort_member == ()
    assert len(traj) == traj.abort_step
    assert traj.times[-1] < 1.05
    # monitors run once, on the surviving prefix
    assert calls == [(len(traj), 1, 1)]
    assert set(traj.monitors) == set(monitors)
    for values in traj.monitors.values():
        assert values.shape == (len(traj),)
    assert np.array_equal(traj.monitors["B11"], traj.states.B_mat[:, 0, 0])


@pytest.mark.parametrize("monitor", [lambda s: 1.0, lambda s: s.B_mat[0, 0], lambda s: s.q],
                         ids=["scalar", "one-state", "per-coordinate"])
def test_rk4_rejects_monitor_of_wrong_shape(monitor, bench_state_1d):
    # a monitor written for one state, not for the stacked states, must
    # not be stored out of line with the times
    rhs = lambda s: (np.zeros(1), np.zeros(1), np.zeros((1, 1)), np.zeros((1, 1)))
    with pytest.raises(ValueError, match="monitor 'bad' returned shape"):
        rk4_integrate(rhs, bench_state_1d, dt=0.1, t_final=1.0, monitors={"bad": monitor})


def test_monitors_are_evaluated_in_blocks(quartic_model, bench_state_2d, monkeypatch):
    # a long run evaluates the monitors over bounded slices of the states,
    # with the same values as one call on all of them
    rhs = lambda s: semiclassical_rhs(s, quartic_model, 0.1)
    sizes = []

    def size(states):
        sizes.append(states.q.shape[0])
        return np.ones(states.q.shape[0])

    def run():
        sizes.clear()
        monitors = dict(standard_monitors(quartic_model, 0.1, bench_state_2d), size=size)
        return rk4_integrate(rhs, bench_state_2d, dt=5e-4, t_final=0.05, monitors=monitors)

    whole = run()
    assert sizes == [101]
    monkeypatch.setattr(dynamics, "MONITOR_BLOCK", 7)
    blocked = run()
    assert sizes == [7] * 14 + [3]
    for name, values in whole.monitors.items():
        assert np.array_equal(blocked.monitors[name], values), name


def test_rk4_aborts_on_nonfinite(bench_state_1d):
    rhs = lambda s: (np.array([np.nan]), np.zeros(1), np.zeros((1, 1)),
                     np.zeros((1, 1)))
    traj = rk4_integrate(rhs, bench_state_1d, dt=0.1, t_final=1.0)
    assert not traj.completed and "non-finite" in traj.abort_reason
    assert traj.abort_member == ()


def test_rk4_rejects_bad_arguments(cos_model, bench_state_1d):
    rhs = lambda s: semiclassical_rhs(s, cos_model, 0.0)
    with pytest.raises(ValueError):
        rk4_integrate(rhs, bench_state_1d, dt=0.0, t_final=1.0)
    with pytest.raises(ValueError):
        rk4_integrate(rhs, bench_state_1d, dt=0.1, t_final=-1.0)


def test_time_grid_whole_steps():
    assert np.array_equal(time_grid(0.25, 1.0), [0.0, 0.25, 0.5, 0.75, 1.0])
    assert np.array_equal(time_grid(0.01, 0.0), [0.0])
    # t_final/dt = 6.999999999999999 in floating point: still 7 steps
    times = time_grid(0.1, 0.7)
    assert len(times) == 8 and times[-1] == pytest.approx(0.7, rel=1e-15)


@pytest.mark.parametrize("dt, t_final, match", [
    (0.0, 1.0, "dt"), (-0.01, 1.0, "dt"), (np.nan, 1.0, "dt"),
    (np.inf, 1.0, "dt"), (0.01, -1.0, "t_final"), (0.01, np.inf, "t_final"),
    (0.01, np.nan, "t_final"), (0.3, 1.0, "whole number"),
    (0.01, 1.0 + 1e-6, "whole number"),
    (1e-12, 1000.0, r"1e\+15 steps exceeds"), (5e-324, 1.0, "inf steps exceeds"),
])
def test_time_grid_rejects_bad_arguments(dt, t_final, match):
    with pytest.raises(ValueError, match=match):
        time_grid(dt, t_final)


def test_simulate_validates_scalar_arguments(cos_model, bench_state_1d):
    traj = simulate(cos_model, "semiclassical", bench_state_1d, 0.1, 0.01, 1.0)
    assert traj.completed and len(traj) == 101
    for hbar in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="hbar must be positive and finite"):
            simulate(cos_model, "semiclassical", bench_state_1d, hbar, 0.01, 1.0)
    with pytest.raises(ValueError, match="dt"):
        simulate(cos_model, "semiclassical", bench_state_1d, 0.1, -0.01, 1.0)
    with pytest.raises(ValueError, match="t_final"):
        simulate(cos_model, "semiclassical", bench_state_1d, 0.1, 0.01, -1.0)
    empty = PacketState(q=np.zeros(0), p=np.zeros(0), A_mat=np.zeros((0, 0)),
                        B_mat=np.zeros((0, 0)))
    with pytest.raises(ValueError, match="dimension"):
        simulate(cos_model, "semiclassical", empty, 0.1, 0.01, 1.0)


@pytest.mark.parametrize("model", [
    quadratic_linear([[1.5]], [0.2], 0.0, [[0.7]], [-0.3], mass=1.7),
    quadratic_linear([[2.0, 0.3], [0.3, 1.0]], [0.2, -0.1], 0.0,
                     [[0.4, -1.1], [0.9, 0.2]], [0.1, 0.5], mass=0.8),
    quadratic_linear(np.diag([1.0, 2.0, 3.0]), [0.1, 0.2, 0.3], 0.0,
                     [[0.3, -0.8, 0.1], [0.5, 0.2, -0.4], [-0.6, 0.7, 0.9]],
                     [0.0, 0.4, -0.2], mass=1.3),
    plane_wave_gauge_2d()], ids=["quadratic1d", "quadratic2d", "quadratic3d",
                                 "planewave2d"])
def test_classical_rhs_matches_einsum_form_in_either_layout(model):
    # DA^T v is summed by an explicit component loop; it must give the
    # bits of the einsum form, for a single point and for row-major and
    # component-major batches, and hand back the layout it was given
    d = model.dim
    rng = np.random.default_rng(5 + d)
    q = rng.uniform(-1.5, 1.5, size=(9, d))
    p = rng.uniform(-1.5, 1.5, size=(9, d))
    for qs, ps in ((q[0], p[0]), (q, p),
                   (np.ascontiguousarray(q.T).T, np.ascontiguousarray(p.T).T)):
        v = ps - model.A(qs)
        ref_dp = (np.einsum("...ji,...j->...i", model.jacA(qs), v) / model.mass
                  - model.gradV(qs))
        dq, dp = classical_rhs(ClassicalPhasePoint(q=qs, p=ps), model)
        assert np.array_equal(dq, v / model.mass)
        assert np.array_equal(dp, ref_dp)
        for out in (dq, dp):
            assert out.strides == ps.strides


def test_rk4_step_on_linear_flow():
    # y' = -y on a tuple of two arrays, one batched: one step multiplies
    # by the degree-4 Taylor polynomial of exp(-dt)
    dt = 0.1
    ys = (np.array([1.0, 2.0]), np.array([[3.0], [-1.0]]))
    out = rk4_step(lambda y: tuple(-v for v in y), ys, dt)
    factor = 1 - dt + dt ** 2 / 2 - dt ** 3 / 6 + dt ** 4 / 24
    for y, o in zip(ys, out):
        assert o.shape == y.shape
        assert np.allclose(o, factor * y, rtol=0, atol=1e-15)


def test_classical_flavor_drops_widths(cos_model, bench_state_1d):
    traj = simulate(cos_model, "classical", bench_state_1d,
                    hbar=0.1, dt=0.01, t_final=0.5)
    assert isinstance(traj.states, ClassicalPhasePoint)
    assert traj.states.q.shape == traj.states.p.shape == (len(traj), 1)


def test_zhou_centers_match_classical_exactly(cos_model, quartic_model,
                                             bench_state_1d, bench_state_2d):
    # the zhou flavor is semiclassical_rhs at hbar = 0, whose center lines
    # are classical_rhs's arithmetic: its centers are the classical
    # trajectory bit for bit
    for model, state in ((cos_model, bench_state_1d), (quartic_model, bench_state_2d)):
        tz = simulate(model, "zhou", state, hbar=0.1, dt=5e-4, t_final=1.0)
        tc = simulate(model, "classical", state, hbar=0.1, dt=5e-4, t_final=1.0)
        assert tz.completed and tc.completed
        assert np.array_equal(tz.states.q, tc.states.q), model.name
        assert np.array_equal(tz.states.p, tc.states.p), model.name


def _row(states, i):
    """Grid point i of stacked states, as a single state of the same class."""
    return type(states)(*(getattr(states, f.name)[i] for f in dataclasses.fields(states)))


def _single_point_monitors(traj, model, hbar):
    """The monitors of a trajectory recomputed one grid point at a time."""
    rows = {}
    for i in range(len(traj)):
        s = _row(traj.states, i)
        row = {"H0": classical_hamiltonian(s, model)}
        if isinstance(s, PacketState):
            row["Hhbar"] = semiclassical_hamiltonian(s, model, hbar)
            if s.d == 2:
                row["J12"] = semiclassical_angular_momentum(s, hbar)[0, 1]
            row["minEigB"] = np.linalg.eigvalsh(s.B_mat)[0]
        elif s.d == 2:
            row["Lz_classical"] = classical_angular_momentum(s)
        for name, v in row.items():
            rows.setdefault(name, []).append(float(v))
    return {name: np.array(v) for name, v in rows.items()}


@pytest.mark.parametrize("case", ["packet-2d", "cosine1d", "planewave2d"])
@pytest.mark.parametrize("flavor", ["classical", "zhou", "semiclassical"])
def test_monitors_equal_single_point_values(case, flavor, bench_state_1d,
                                            bench_state_2d):
    # packet-2d is the benchmark's packet run, cut to 200 steps
    model, state, dt, t_final = {
        "packet-2d": (quartic_rotational_2d(), bench_state_2d, 5e-4, 0.1),
        "cosine1d": (cosine_1d(), bench_state_1d, 0.01, 2.0),
        "planewave2d": (plane_wave_gauge_2d(),
                        random_state(np.random.default_rng(12), 2), 0.01, 1.0),
    }[case]
    hbar = 0.1
    traj = simulate(model, flavor, state, hbar, dt, t_final)
    assert traj.completed
    expected = _single_point_monitors(traj, model, hbar)
    assert set(traj.monitors) == set(expected)
    for name, values in traj.monitors.items():
        assert values.shape == (len(traj),)
        if case == "packet-2d":
            assert np.array_equal(values, expected[name]), name
        else:
            np.testing.assert_allclose(values, expected[name], rtol=1e-14, atol=0,
                                       err_msg=name)


def _stack(states):
    """Single states stacked along a new leading axis, as one state."""
    return type(states[0])(*(np.stack([getattr(s, f.name) for s in states])
                             for f in dataclasses.fields(states[0])))


def _quadratic_3d():
    rng = np.random.default_rng(4)
    K = rng.standard_normal((3, 3))
    return quadratic_linear(K @ K.T, rng.standard_normal(3), 0.3,
                            rng.standard_normal((3, 3)), rng.standard_normal(3))


@pytest.mark.parametrize("builder", [cosine_1d, quartic_rotational_2d, plane_wave_gauge_2d,
                                     _quadratic_3d, cubic_gauge_2d],
                         ids=["cosine1d", "quartic2d", "planewave2d", "quadratic3d",
                              "cubic2d"])
@pytest.mark.parametrize("zero", [False, True], ids=["hbar", "hbar0"])
def test_semiclassical_rhs_batches_bitwise(builder, zero):
    # a stacked state with one hbar per member gives each member the bits
    # of its single-point call, at hbar = 0 (Zhou's flow) too.  The last
    # member sits at the origin, where the hessA of planewave2d and
    # cubic2d vanishes: their stacks mix members whose curvature terms a
    # single-point call skips with members where it keeps them
    model = builder()
    rng = np.random.default_rng(21)
    states = [random_state(rng, model.dim) for _ in range(7)]
    hbars = np.zeros(7) if zero else rng.uniform(0.01, 0.6, size=7)
    states.append(_at_origin(states[0]))
    hbars = np.append(hbars, hbars[0])
    flat = [not model.hessA(s.q).any() for s in states]
    mixed = builder in (plane_wave_gauge_2d, cubic_gauge_2d)
    assert (any(flat) and not all(flat)) == mixed
    batched = semiclassical_rhs(_stack(states), model, hbars)
    for i, (state, h) in enumerate(zip(states, hbars)):
        single = semiclassical_rhs(state, model, float(h))
        for b, s in zip(batched, single):
            assert b[i].shape == s.shape and b[i].tobytes() == s.tobytes(), (i, h)


def test_stacked_packets_integrate_like_single_packets(quartic_model, bench_state_2d):
    # B positive definiteness is checked member by member on a stack
    rng = np.random.default_rng(8)
    states = [bench_state_2d] + [random_state(rng, 2) for _ in range(3)]
    hbars = np.array([0.5, 0.1, 0.05, 0.01])
    traj = rk4_integrate(lambda z: semiclassical_rhs(z, quartic_model, hbars),
                         _stack(states), dt=0.01, t_final=0.5)
    assert traj.completed and traj.states.B_mat.shape == (51, 4, 2, 2)
    assert traj.abort_member is None
    for i, (state, h) in enumerate(zip(states, hbars)):
        one = rk4_integrate(lambda z: semiclassical_rhs(z, quartic_model, h),
                            state, dt=0.01, t_final=0.5)
        for f in dataclasses.fields(one.states):
            assert np.array_equal(getattr(traj.states, f.name)[:, i],
                                  getattr(one.states, f.name)), (i, f.name)


def test_one_non_positive_definite_member_aborts_the_stack(bench_state_2d):
    states = [bench_state_2d] * 3
    # the last member's B shrinks by 0.3 a step: it reaches 0.1 at
    # step 3 and loses positive definiteness at step 4
    rate = np.array([0.0, 0.0, 30.0])[:, None, None]
    rhs = lambda z: (np.zeros_like(z.q), np.zeros_like(z.p), np.zeros_like(z.A_mat),
                     -rate * np.eye(2))
    start = dataclasses.replace(_stack(states), B_mat=np.stack([np.eye(2)] * 3))
    traj = rk4_integrate(rhs, start, dt=0.01, t_final=1.0)
    assert not traj.completed and traj.abort_step == 4 and len(traj) == 4
    assert "positive definiteness" in traj.abort_reason and traj.abort_member == (2,)
    bad = dataclasses.replace(start, B_mat=start.B_mat * np.array([1.0, -1.0, 1.0])[:, None, None])
    with pytest.raises(ValueError, match="initial state rejected: width matrix B"):
        rk4_integrate(rhs, bad, dt=0.01, t_final=1.0)


def test_the_earliest_failing_member_names_the_abort(bench_state_2d):
    # member 0's B loses positive definiteness at step 4, as above, but
    # member 2's q grows about 1e200-fold a step and overflows at step 2:
    # the stack stops there, naming member 2 and its own reason
    shrink = np.array([30.0, 0.0, 0.0])[:, None, None]
    growth = np.array([0.0, 0.0, 7e52])[:, None]
    rhs = lambda z: (growth * z.q, np.zeros_like(z.p), np.zeros_like(z.A_mat),
                     -shrink * np.eye(2))
    start = dataclasses.replace(_stack([bench_state_2d] * 3),
                                B_mat=np.stack([np.eye(2)] * 3))
    traj = rk4_integrate(rhs, start, dt=0.01, t_final=1.0)
    assert not traj.completed and traj.abort_step == 2 and len(traj) == 2
    assert traj.abort_reason == "non-finite state" and traj.abort_member == (2,)
    assert np.isfinite(traj.states.q).all()


def _member_by_member(state):
    """The reference for dynamics._state_ok: each member in C order."""
    for i in np.ndindex(state.q.shape[:-1]):
        if not all(np.isfinite(y[i]).all() for y in
                   (state.q, state.p, state.A_mat, state.B_mat)):
            return "non-finite state", i
        try:
            np.linalg.cholesky(0.5 * (state.B_mat[i] + state.B_mat[i].T))
        except np.linalg.LinAlgError:
            return "width matrix B lost positive definiteness", i
    return None


@pytest.mark.parametrize("shape, nan_at, indefinite_at, expected", [
    ((4,), (3,), (1,), ("width matrix B lost positive definiteness", (1,))),
    ((4,), (1,), (3,), ("non-finite state", (1,))),
    ((2, 3), (1, 0), (0, 2), ("width matrix B lost positive definiteness", (0, 2))),
    ((2, 3), (0, 1), (1, 1), ("non-finite state", (0, 1))),
    ((4,), None, None, None),
], ids=["indefinite-first", "non-finite-first", "2x3-indefinite-first",
        "2x3-non-finite-first", "healthy"])
def test_stack_check_names_the_member_the_loop_names(shape, nan_at, indefinite_at,
                                                      expected, bench_state_2d):
    # the batched check of a whole stack falls back to the member loop on
    # failure, so it reports the same first member and reason
    stack = PacketState(*(np.broadcast_to(y, shape + y.shape).copy() for y in
                          (bench_state_2d.q, bench_state_2d.p,
                           bench_state_2d.A_mat, bench_state_2d.B_mat)))
    if nan_at is not None:
        stack.B_mat[nan_at][0, 1] = np.nan
    if indefinite_at is not None:
        stack.B_mat[indefinite_at] = [[1.0, 2.0], [2.0, 1.0]]
    assert dynamics._state_ok(stack) == _member_by_member(stack) == expected


def _counting(model):
    """The model with every callback wrapped by a call counter."""
    counts = collections.Counter()

    def counted(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)
        return call

    return dataclasses.replace(model, **{
        f.name: counted(f.name, getattr(model, f.name))
        for f in dataclasses.fields(model) if callable(getattr(model, f.name))}), counts


@pytest.mark.parametrize("builder, origin", [
    (quartic_rotational_2d, False), (cosine_1d, False), (plane_wave_gauge_2d, False),
    (cubic_gauge_2d, False), (cubic_gauge_2d, True),
], ids=["quartic2d", "cosine1d", "planewave2d", "cubic2d", "cubic2d-origin"])
@pytest.mark.parametrize("flow", ["classical_rhs", "zhou", "semiclassical_rhs",
                                  "semiclassical_hamiltonian"])
def test_each_callback_evaluated_at_most_once_per_call(builder, origin, flow):
    # cubic2d-origin is where hessA vanishes and grad_hess_trace_A does not
    model, counts = _counting(builder())
    state = random_state(np.random.default_rng(5), model.dim)
    if origin:
        state = _at_origin(state)
    {"classical_rhs": lambda: classical_rhs(state, model),
     "zhou": lambda: semiclassical_rhs(state, model, 0.0),
     "semiclassical_rhs": lambda: semiclassical_rhs(state, model, 0.1),
     "semiclassical_hamiltonian": lambda: semiclassical_hamiltonian(state, model, 0.1),
     }[flow]()
    assert counts and max(counts.values()) == 1, dict(counts)


@pytest.mark.parametrize("case, curved", [("quartic2d", 0), ("planewave2d", 1),
                                          ("cubic2d-origin", 1)])
def test_vanishing_curvature_skips_the_trace_gradient_of_asq(case, curved, monkeypatch):
    # where hessA and grad_hess_trace_A vanish over the whole stack (a
    # linear A), the flow forms no gradient of the width coupling's
    # curvature terms: both gradients are the float 0.0.  The benchmark's
    # packet run depends on this shortcut
    model = {"quartic2d": quartic_rotational_2d(), "planewave2d": plane_wave_gauge_2d(),
             "cubic2d-origin": cubic_gauge_2d()}[case]
    rng = np.random.default_rng(6)
    states = [random_state(rng, 2) for _ in range(3)]
    if case == "cubic2d-origin":
        states = [_at_origin(s) for s in states]
    seen = []
    original = dynamics.DerivedSquares.coupling_gradients

    def spied(self, *args):
        seen.append(original(self, *args))
        return seen[-1]

    monkeypatch.setattr(dynamics.DerivedSquares, "coupling_gradients", spied)
    semiclassical_rhs(states[0], model, 0.1)
    semiclassical_rhs(_stack(states), model, np.array([0.1, 0.2, 0.3]))
    assert len(seen) == 2
    for grad_p, grad_q in seen:
        if curved:
            assert isinstance(grad_q, np.ndarray)
        else:
            assert type(grad_p) is type(grad_q) is float and grad_p == grad_q == 0.0


@pytest.mark.parametrize("case", ["quartic2d", "quadratic2d", "cubic2d-origin",
                                  "planewave2d-origin"])
def test_skipping_vanishing_curvature_terms_keeps_every_bit(case, monkeypatch):
    # the flow and its energy with every hessA and grad_hess_trace_A term
    # formed from zeros, as if nothing were skipped, give the same bits as
    # the skipping code, on single states and on a stack
    rng = np.random.default_rng(9)
    model = {"quartic2d": quartic_rotational_2d(),
             "quadratic2d": quadratic_linear([[2.0, 0.3], [0.3, 1.0]], [0.1, -0.2], 0.5,
                                             [[0.2, -0.7], [0.4, 0.1]], [0.3, 0.0],
                                             mass=1.5),
             "cubic2d-origin": cubic_gauge_2d(),
             "planewave2d-origin": plane_wave_gauge_2d()}[case]
    states = [random_state(rng, 2) for _ in range(5)]
    if case.endswith("origin"):
        states = [_at_origin(s) for s in states]
    hbars = rng.uniform(0.01, 0.6, size=5)

    def outputs():
        out = []
        for z in states + [_stack(states)]:
            h = hbars if z.q.ndim > 1 else float(hbars[0])
            out += [*semiclassical_rhs(z, model, h), *semiclassical_rhs(z, model, 0.0),
                    semiclassical_hamiltonian(z, model, h)]
        return [np.asarray(y).tobytes() for y in out]

    skipping = outputs()
    monkeypatch.setattr(dynamics, "_unless_zero", lambda values: values)
    assert outputs() == skipping


@pytest.mark.parametrize("case, t_final", [("quartic2d", 2.0), ("planewave2d", 1.0),
                                           ("cubic2d", 1.0)],
                         ids=["quartic2d", "planewave2d", "cubic2d"])
@pytest.mark.parametrize("flavor", ["zhou", "semiclassical"])
def test_width_matrices_stay_exactly_symmetric(case, t_final, flavor, bench_state_2d):
    # the width lines are symmetric bit for bit, so every stored A_w and B
    # equals its transpose; a line that sums its terms in another order on
    # either side of the diagonal lets the two halves drift apart
    model, state = {"quartic2d": (quartic_rotational_2d(), bench_state_2d),
                    "planewave2d": (plane_wave_gauge_2d(), None),
                    "cubic2d": (cubic_gauge_2d(), None)}[case]
    state = state or random_state(np.random.default_rng(0), 2)
    traj = simulate(model, flavor, state, hbar=0.1, dt=0.01, t_final=t_final)
    assert traj.completed
    for name in ("A_mat", "B_mat"):
        stack = getattr(traj.states, name)
        assert np.array_equal(stack, np.swapaxes(stack, -1, -2)), name


def test_simulate_rejects_unknown_flavor(cos_model, bench_state_1d):
    with pytest.raises(ValueError, match="flavor"):
        simulate(cos_model, "quantum", bench_state_1d, 0.1, 0.01, 1.0)


def test_trajectory_state_roundtrip(quartic_model, bench_state_2d):
    traj = simulate(quartic_model, "semiclassical", bench_state_2d,
                    hbar=0.1, dt=0.001, t_final=0.05)
    st = _row(traj.states, 0)
    assert np.array_equal(st.q, bench_state_2d.q)
    assert np.array_equal(st.A_mat, bench_state_2d.A_mat)
    assert traj.states.A_mat.shape == (len(traj), 2, 2)
    assert traj.monitors["minEigB"][0] == pytest.approx(0.5)


@pytest.mark.parametrize("flavor", ["classical", "zhou", "semiclassical"])
def test_trajectory_states_are_batched_states(flavor, cos_model, quartic_model,
                                              bench_state_1d, bench_state_2d):
    # a stacked state reports the model's dimension, not its length, and
    # the standard monitors built from it reproduce the recorded ones
    for model, state in ((cos_model, bench_state_1d), (quartic_model, bench_state_2d)):
        traj = simulate(model, flavor, state, hbar=0.1, dt=0.001, t_final=0.05)
        assert len(traj) == 51 and traj.states.d == model.dim
        monitors = standard_monitors(model, 0.1, traj.states)
        assert list(monitors) == list(traj.monitors)
        for name, fn in monitors.items():
            assert np.array_equal(fn(traj.states), traj.monitors[name]), name


# ---------------------------------------------------------------------------
# energy: Zhou's flow against the order-hbar flow, without Monte Carlo


@pytest.mark.parametrize("model, state, dt, t_star", [
    (cosine_1d(), "bench_state_1d", 0.01, 1.6),
    (quartic_rotational_2d(), "bench_state_2d", 0.005, 2.0),
], ids=["cosine1d", "quartic2d"])
def test_energy_defect_separates_zhou_from_the_order_hbar_flow(model, state, dt,
                                                               t_star, request):
    # the quantum energy <H> of the packet is conserved by the Schroedinger
    # flow; Zhou's flow keeps it to O(hbar), the order-hbar flow to O(hbar^2)
    state = request.getfixturevalue(state)
    hbars = [0.1, 0.05, 0.03, 0.01]
    rates = {}
    for flavor in ("zhou", "semiclassical"):
        defects = []
        for hbar in hbars:
            traj = simulate(model, flavor, state, hbar, dt, t_star)
            assert traj.completed
            end = PacketState(*(y[-1] for y in (traj.states.q, traj.states.p,
                                                 traj.states.A_mat, traj.states.B_mat)))
            defects.append(abs(full_hamiltonian(end, model, hbar)
                               - full_hamiltonian(state, model, hbar)))
        rates[flavor] = loglog_fit(hbars, defects)[1]
    assert rates["semiclassical"] >= 1.8, rates
    assert rates["zhou"] <= 1.2, rates


# ---------------------------------------------------------------------------
# gauge covariance, without Monte Carlo


@pytest.mark.parametrize("flavor", dynamics.FLAVORS)
def test_quadratic_gauge_change_is_exact(flavor, quartic_model, bench_state_2d):
    # chi = x1 x2 takes quartic2d's symmetric gauge A = (-x2, x1) to the
    # Landau gauge A' = (0, 2 x1), with the same magnetic field.  A
    # quadratic chi maps Gaussians to Gaussians, so from p' = p + grad chi(q)
    # and A_w' = A_w + hess chi every flavor makes the same run, to
    # round-off: 1.1e-15 in q, 3.4e-15 in p and 1.4e-12 in widths of up to
    # 49 at t = 2
    H = np.array([[0.0, 1.0], [1.0, 0.0]])
    landau = gauged(quartic_model, H)
    x = np.random.default_rng(8).uniform(-1.5, 1.5, (5, 2))
    assert np.array_equal(landau.A(x), np.stack([np.zeros(5), 2.0 * x[:, 0]], axis=-1))
    for point in x:
        assert not fd_cross_check(landau, point, tol=1e-6).failed
    st = bench_state_2d
    moved = make_packet_state(st.q, st.p + H @ st.q, st.A_mat + H, st.B_mat)
    a = simulate(quartic_model, flavor, st, 0.1, 0.01, 2.0)
    b = simulate(landau, flavor, moved, 0.1, 0.01, 2.0)
    assert a.completed and b.completed
    assert np.max(np.abs(b.states.q - a.states.q)) <= 1e-14
    assert np.max(np.abs(b.states.p - b.states.q @ H - a.states.p)) <= 1e-14
    if flavor != "classical":
        assert np.max(np.abs(b.states.A_mat - H - a.states.A_mat)) <= 1e-11
        assert np.max(np.abs(b.states.B_mat - a.states.B_mat)) <= 1e-11
