import dataclasses

import numpy as np
import pytest

from conftest import cubic_gauge_2d, plane_wave_gauge_2d, tilted
from gwpdyn.dynamics import (ClassicalPhasePoint, classical_hamiltonian, classical_rhs,
                             semiclassical_hamiltonian, semiclassical_rhs)
from gwpdyn.egorov import propagate_ensemble, wigner_sample
from gwpdyn.packet import PacketState, make_packet_state
from gwpdyn.potentials import (DerivedSquares, cosine_1d, fd_cross_check,
                               free_model, model_by_name, quadratic_linear,
                               quartic_rotational_2d, rotational_symmetry_check)


# ---------------------------------------------------------------------------
# finite-difference cross checks of every analytic callback


@pytest.mark.parametrize("builder", [cosine_1d, quartic_rotational_2d,
                                     plane_wave_gauge_2d, cubic_gauge_2d])
def test_fd_cross_check_100_random_points(builder):
    model = builder()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        x = rng.uniform(-2.0, 2.0, size=model.dim)
        report = fd_cross_check(model, x, tol=1e-5)
        assert report.ok, (x, report.deviations)
        worst = max(worst, max(report.deviations.values()))
    assert worst < 1e-6


def test_fd_cross_check_flags_wrong_derivative(cos_model):
    def flow_fields(x):
        a, ja, grad_v = cos_model.flow_fields(x)
        return a, ja, 1.1 * grad_v

    broken = dataclasses.replace(cos_model, flow_fields=flow_fields)
    report = fd_cross_check(broken, np.array([0.7]))
    assert not report.ok
    assert "gradV" in report.failed


def test_fd_cross_check_flags_shared_fields_that_disagree(cos_model):
    # an energy set whose A is off in the last bits: every value is right,
    # so only the comparison of the A the two sets share can notice
    def energy_fields(x):
        a, v = cos_model.energy_fields(x)
        return a * (1.0 + 4.0 * np.finfo(float).eps), v

    broken = dataclasses.replace(cos_model, energy_fields=energy_fields)
    report = fd_cross_check(broken, np.array([0.7]))
    assert report.failed == ("field_sets",)
    assert 0.0 < report.deviations["field_sets"] < 1e-12
    assert fd_cross_check(cos_model, np.array([0.7])).deviations["field_sets"] == 0.0


def test_replaced_callback_is_what_the_flow_and_energy_call(cos_model):
    # every consumer reads whole sets, each exactly once per call
    sets = ("flow_fields", "energy_fields", "curvature_fields", "trace_gradients")
    assert [f.name for f in dataclasses.fields(cos_model)] == ["name", "dim", "mass", *sets]
    calls = []

    def counted(name, fn):
        def call(x, *M):
            calls.append((name, np.shape(x)))
            return fn(x, *M)
        return call

    def read(*names, shape):
        assert sorted(calls) == sorted((name, shape) for name in names)
        calls.clear()

    model = dataclasses.replace(cos_model, **{name: counted(name, getattr(cos_model, name))
                                              for name in sets})
    z = ClassicalPhasePoint(np.array([[0.3], [-1.2]]), np.array([[1.0], [0.5]]))
    assert np.array_equal(classical_rhs(z, model)[1], classical_rhs(z, cos_model)[1])
    read("flow_fields", shape=(2, 1))
    assert np.array_equal(classical_hamiltonian(z, model),
                          classical_hamiltonian(z, cos_model))
    read("energy_fields", shape=(2, 1))
    single = make_packet_state([0.3], [1.0], [[0.2]], [[1.5]])
    stack = PacketState(np.array([[0.3], [-0.4]]), np.array([[1.0], [0.2]]),
                        np.array([[[0.2]], [[-0.1]]]), np.array([[[1.5]], [[0.7]]]))
    for st, hbar in ((single, 0.1), (stack, np.array([0.1, 0.05]))):
        shape = st.q.shape
        for h in (0.0 * hbar, hbar):
            assert all(np.array_equal(a, b) for a, b in zip(
                semiclassical_rhs(st, model, h), semiclassical_rhs(st, cos_model, h)))
            if np.any(h):
                read("flow_fields", "curvature_fields", "trace_gradients", shape=shape)
            else:
                # Zhou's flow reads no trace gradients
                read("flow_fields", "curvature_fields", shape=shape)
        assert np.array_equal(semiclassical_hamiltonian(st, model, 0.1),
                              semiclassical_hamiltonian(st, cos_model, 0.1))
        read("flow_fields", "curvature_fields", "energy_fields", shape=shape)
    # the single-field methods read the sets; they are not fields to replace
    for name in ("V", "gradV", "A", "jacA", "hessV", "hessA", "grad_hess_trace_V",
                 "grad_hess_trace_A"):
        with pytest.raises(TypeError):
            dataclasses.replace(cos_model, **{name: lambda x: x})


def test_one_cosine1d_block_counts_its_sin_and_cos_calls(cos_model, monkeypatch):
    # one 50-step, 4000-row block reducing q, p and H0: two passes per
    # classical_rhs (cos x, sin x), four per RK4 step, and one (cos x) per
    # H0 observation at each of the 51 reduced times
    calls = {"sin": 0, "cos": 0}

    def counted(name):
        ufunc = getattr(np, name)

        def f(*args, **kwargs):
            calls[name] += 1
            return ufunc(*args, **kwargs)
        return f

    ens = wigner_sample(make_packet_state([0.5], [-1.0], [[0.0]], [[1.0]]), 0.1,
                        seed=1, N=4000)
    # the same model with every callable field wrapped, as a tracer or a
    # call counter wraps it, must make the same calls
    wrapped = dataclasses.replace(cos_model, **{
        f.name: (lambda fn: lambda *args: fn(*args))(getattr(cos_model, f.name))
        for f in dataclasses.fields(cos_model) if callable(getattr(cos_model, f.name))})
    for name in calls:
        monkeypatch.setattr(np, name, counted(name))
    for model in (cos_model, wrapped):
        calls.update(sin=0, cos=0)
        propagate_ensemble(ens, model, dt=0.01, t_final=0.5, observables=("q", "p", "H0"))
        assert calls == {"sin": 200, "cos": 251}, model is wrapped


def test_fd_cross_check_random_weight_matrix(curved_gauge_model):
    rng = np.random.default_rng(3)
    M = rng.standard_normal((2, 2))
    M = 0.5 * (M + M.T)
    report = fd_cross_check(curved_gauge_model, np.array([0.4, -0.9]), M=M)
    assert report.ok, report.deviations


# ---------------------------------------------------------------------------
# concrete models


def test_cosine_model_values(cos_model):
    x = np.array([0.5])
    assert float(cos_model.V(x)) == pytest.approx(1 - 0.5 * np.cos(0.5) ** 2)
    assert float(cos_model.A(x)[0]) == pytest.approx(np.cos(0.5))
    assert float(cos_model.jacA(x)[0, 0]) == pytest.approx(-np.sin(0.5))
    assert cos_model.hessA(x).shape == (1, 1, 1)
    assert float(cos_model.hessA(x)[0, 0, 0]) == pytest.approx(-np.cos(0.5))


def test_cosine_model_batched_shapes(cos_model):
    pts = np.linspace(-1, 1, 7)[:, None]
    assert cos_model.V(pts).shape == (7,)
    assert cos_model.gradV(pts).shape == (7, 1)
    assert cos_model.A(pts).shape == (7, 1)
    assert cos_model.jacA(pts).shape == (7, 1, 1)


def test_quartic_model_values(quartic_model):
    x = np.array([1.0, 0.0])
    assert float(quartic_model.V(x)) == pytest.approx(0.75)
    assert np.allclose(quartic_model.A(x), [0.0, 1.0])
    assert np.allclose(quartic_model.jacA(x), [[0.0, -1.0], [1.0, 0.0]])
    assert np.allclose(quartic_model.hessA(x), 0.0)
    assert np.allclose(quartic_model.hessV(x),
                       [[2.0 + 2.0, 0.0], [0.0, 2.0]])


def test_quartic_model_batched_shapes(quartic_model):
    pts = np.random.default_rng(0).standard_normal((9, 2))
    assert quartic_model.V(pts).shape == (9,)
    assert quartic_model.gradV(pts).shape == (9, 2)
    assert quartic_model.A(pts).shape == (9, 2)
    assert quartic_model.jacA(pts).shape == (9, 2, 2)


@pytest.mark.parametrize("builder, jac", [
    (quartic_rotational_2d, [[0.0, -1.0], [1.0, 0.0]]),
    (lambda: quadratic_linear(np.eye(3), np.zeros(3), 0.0,
                              [[0.3, -0.8, 0.1], [0.5, 0.2, -0.4], [-0.6, 0.7, 0.9]],
                              np.zeros(3)),
     [[0.3, -0.8, 0.1], [0.5, 0.2, -0.4], [-0.6, 0.7, 0.9]])],
    ids=["quartic2d", "quadratic3d"])
def test_constant_jacobian_is_one_read_only_view_per_leading_shape(builder, jac):
    model = builder()
    d = model.dim
    rng = np.random.default_rng(3)
    for lead in [(), (5,), (3, 4)]:
        ja = model.jacA(rng.standard_normal(lead + (d,)))
        assert ja.shape == lead + (d, d)
        assert not ja.flags.writeable
        assert np.array_equal(ja, np.broadcast_to(jac, lead + (d, d)))
        assert model.jacA(rng.standard_normal(lead + (d,))) is ja
        assert model.flow_fields(np.zeros(lead + (d,)))[1] is ja
    assert fd_cross_check(model, rng.uniform(-2.0, 2.0, size=d)).ok


def test_quadratic_linear_matches_manual_formulas():
    rng = np.random.default_rng(8)
    d = 3
    K = rng.standard_normal((d, d))
    K = K @ K.T
    b = rng.standard_normal(d)
    c = 0.7
    M0 = rng.standard_normal((d, d))
    a0 = rng.standard_normal(d)
    model = quadratic_linear(K, b, c, M0, a0, mass=2.5)
    assert model.mass == 2.5 and model.dim == d
    x = rng.standard_normal(d)
    assert float(model.V(x)) == pytest.approx(0.5 * x @ K @ x + b @ x + c)
    assert np.allclose(model.gradV(x), K @ x + b)
    assert np.allclose(model.hessV(x), K)
    assert np.allclose(model.A(x), M0 @ x + a0)
    assert np.allclose(model.jacA(x), M0)
    assert np.allclose(model.hessA(x), 0.0)
    assert np.allclose(model.grad_hess_trace_V(x, np.eye(d)), 0.0)
    # batched evaluation agrees with per-point loops
    pts = rng.standard_normal((6, d))
    assert np.allclose(model.A(pts), np.array([M0 @ y + a0 for y in pts]))
    assert np.allclose(model.V(pts),
                       [0.5 * y @ K @ y + b @ y + c for y in pts])


def test_quadratic_linear_rejects_asymmetric_K():
    with pytest.raises(ValueError, match="symmetric"):
        quadratic_linear([[1.0, 0.5], [0.0, 1.0]], [0, 0], 0.0,
                         np.zeros((2, 2)), [0, 0])


def test_quadratic_linear_rejects_bad_mass():
    with pytest.raises(ValueError, match="mass"):
        quadratic_linear([[1.0]], [0.0], 0.0, [[0.0]], [0.0], mass=0.0)


def test_free_model_zero_fields():
    model = free_model(d=2)
    pts = np.random.default_rng(1).standard_normal((4, 2))
    assert np.allclose(model.V(pts), 0.0)
    assert np.allclose(model.A(pts), 0.0)
    assert np.allclose(model.gradV(pts), 0.0)
    assert model.name == "free"


def test_model_by_name():
    assert model_by_name("cosine1d").name == "cosine1d"
    assert model_by_name("quartic2d").dim == 2
    assert model_by_name("free", d=3).dim == 3
    q = model_by_name("quadratic", params=dict(
        K=[[1.0]], b=[0.0], c=0.0, M0=[[0.0]], a0=[0.0]))
    assert q.dim == 1
    with pytest.raises(ValueError, match="cosine1d"):
        model_by_name("nonsense")
    with pytest.raises(ValueError, match="requires config keys"):
        model_by_name("quadratic", params={"K": [[1.0]]})


# ---------------------------------------------------------------------------
# width coupling of the kinetic momentum: identities against finite
# differences


def _coupling_at(model):
    """The width coupling K and the gradients of Tr(M K), as functions of
    the center (q, p) and the real width matrix Aw."""
    ds, m = DerivedSquares(), model

    def kinetic(q, p, Aw):
        return p - m.A(q), Aw - m.jacA(q)

    return (lambda q, p, Aw: ds.coupling(*kinetic(q, p, Aw), m.hessA(q)),
            lambda q, p, Aw, M: ds.coupling_gradients(M, *kinetic(q, p, Aw), m.jacA(q),
                                                      m.hessA(q),
                                                      m.grad_hess_trace_A(q, M)))


@pytest.mark.parametrize("builder", [cosine_1d, plane_wave_gauge_2d, cubic_gauge_2d])
def test_derived_squares_against_fd(builder):
    model = builder()
    coupling, gradients = _coupling_at(model)
    rng = np.random.default_rng(17)
    d = model.dim
    h = np.finfo(float).eps ** (1 / 3)
    for _ in range(20):
        q, p = rng.uniform(-1.5, 1.5, size=(2, d))
        Aw, M = rng.standard_normal((2, d, d))
        Aw, M = 0.5 * (Aw + Aw.T), 0.5 * (M + M.T)

        def central(f, x):
            cols = []
            for j in range(d):
                e = np.zeros(d)
                e[j] = h * (1 + abs(x[j]))
                cols.append((np.asarray(f(x + e), dtype=float)
                             - np.asarray(f(x - e), dtype=float)) / (2 * e[j]))
            return np.stack(cols, axis=-1)

        # K - W^T W + DA^T DA is the q-Hessian of |p - A(q)|^2 / 2, whose
        # gradient is -DA^T (p - A(q))
        W, ja = Aw - model.jacA(q), model.jacA(q)
        grad_kinetic = lambda y: -model.jacA(y).T @ (p - model.A(y))
        assert np.allclose(central(grad_kinetic, q),
                           coupling(q, p, Aw) - W.T @ W + ja.T @ ja, atol=1e-7)
        grad_p, grad_q = gradients(q, p, Aw, M)
        assert np.allclose(central(lambda y: np.trace(M @ coupling(q, y, Aw)), p),
                           grad_p, atol=1e-7)
        assert np.allclose(central(lambda y: np.trace(M @ coupling(y, p, Aw)), q),
                           grad_q, atol=1e-6)


def test_coupling_symmetric(curved_gauge_model):
    coupling = _coupling_at(curved_gauge_model)[0]
    rng = np.random.default_rng(2)
    for _ in range(10):
        q, p = rng.uniform(-2, 2, size=(2, 2))
        Aw = rng.standard_normal((2, 2))
        H = coupling(q, p, Aw + Aw.T)
        assert np.max(np.abs(H - H.T)) < 1e-13


def _random_quadratic():
    rng = np.random.default_rng(4)
    K = rng.standard_normal((3, 3))
    return quadratic_linear(K @ K.T, rng.standard_normal(3), 0.3,
                            rng.standard_normal((3, 3)), rng.standard_normal(3))


@pytest.mark.parametrize("builder", [cosine_1d, quartic_rotational_2d,
                                     _random_quadratic, lambda: free_model(d=2),
                                     plane_wave_gauge_2d],
                         ids=["cosine1d", "quartic2d", "quadratic3d", "free2d",
                              "planewave2d"])
def test_batched_callbacks_equal_stacked_single_points(builder):
    model = builder()
    d = model.dim
    # 256 points: a single-point V that squares by pow differs from the
    # batched one in the last bit on about one state in a thousand
    n = 256
    rng = np.random.default_rng(6)
    xs = rng.uniform(-2.0, 2.0, size=(n, d))
    Ms = rng.standard_normal((n, d, d))
    Ms = Ms + np.swapaxes(Ms, -1, -2)
    calls = {"V": lambda x, M: model.V(x),
             "gradV": lambda x, M: model.gradV(x),
             "hessV": lambda x, M: model.hessV(x),
             "A": lambda x, M: model.A(x),
             "jacA": lambda x, M: model.jacA(x),
             "hessA": lambda x, M: model.hessA(x),
             "grad_hess_trace_V": model.grad_hess_trace_V,
             "grad_hess_trace_A": model.grad_hess_trace_A,
             # the center (x, x) and the width matrix M
             "coupling": lambda x, M: _coupling_at(model)[0](x, x, M)}
    shapes = {"V": (), "gradV": (d,), "hessV": (d, d), "A": (d,), "jacA": (d, d),
              "hessA": (d, d, d), "grad_hess_trace_V": (d,),
              "grad_hess_trace_A": (d, d), "coupling": (d, d)}
    for name, f in calls.items():
        batched = np.asarray(f(xs, Ms))
        single = np.stack([np.asarray(f(x, M)) for x, M in zip(xs, Ms)])
        assert batched.shape == (n,) + shapes[name], name
        assert np.array_equal(batched, single), name
    # both field sets' A have the same bits, on single points and on stacks
    for pts in [xs] + list(xs):
        a_flow = np.asarray(model.flow_fields(pts)[0])
        a_energy = np.asarray(model.energy_fields(pts)[0])
        assert a_flow.shape == a_energy.shape and a_flow.tobytes() == a_energy.tobytes()


# ---------------------------------------------------------------------------
# rotational symmetry


def test_quartic_is_rotation_equivariant(quartic_model):
    rng = np.random.default_rng(9)
    for _ in range(10):
        th = rng.uniform(0, 2 * np.pi)
        R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        x = rng.uniform(-1.5, 1.5, size=2)
        assert rotational_symmetry_check(quartic_model, R, x)


def test_symmetry_check_catches_broken_potential(quartic_model):
    R = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert not rotational_symmetry_check(tilted(quartic_model), R, np.array([0.7, 0.1]))
