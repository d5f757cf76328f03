import dataclasses

import numpy as np
import pytest

from conftest import plane_wave_gauge_2d
from gwpdyn.checks import random_state
from gwpdyn.dynamics import (ClassicalPhasePoint, classical_hamiltonian,
                             classical_rhs, rk4_integrate, simulate)
from gwpdyn.egorov import (EgorovEstimate, _classical_flow_step, _observe,
                           phase_error, propagate_ensemble, wigner_sample)
from gwpdyn.expectations import full_hamiltonian
from gwpdyn.observables import classical_angular_momentum
from gwpdyn.packet import evaluate_packet, make_packet_state, normalized_packet
from gwpdyn.potentials import quadratic_linear, quartic_rotational_2d


def _harmonic_1d():
    return quadratic_linear([[1.0]], [0.0], 0.0, [[0.0]], [0.0])


def _wigner_closed_form(state, hbar, x, xi):
    m = x - state.q
    r = xi - state.p - state.A_mat @ m
    expo = -(m @ state.B_mat @ m
             + r @ np.linalg.solve(state.B_mat, r)) / hbar
    return (np.pi * hbar) ** (-state.d) * np.exp(expo)


def _wigner_by_quadrature(state, hbar, x, xi, phi, n=80):
    """Brute-force W(x, xi) = (2 pi hbar)^-d int conj(psi)(x + y/2)
    psi(x - y/2) exp(i xi.y / hbar) dy by Gauss-Hermite in y."""
    d = state.d
    pkt = normalized_packet(state, hbar, phi=phi)
    nodes, w1 = np.polynomial.hermite.hermgauss(n)
    U = np.stack([g.ravel() for g in
                  np.meshgrid(*([nodes] * d), indexing="ij")], axis=-1)
    wg = np.ones(n ** d)
    for g in np.meshgrid(*([w1] * d), indexing="ij"):
        wg = wg * g.ravel()
    L = np.linalg.cholesky(state.B_mat)
    # y = 2 sqrt(hbar) L^-T u absorbs the Gaussian decay of the product
    # of packet values into the Hermite weight exactly
    Y = 2.0 * np.sqrt(hbar) * (U @ np.linalg.inv(L))
    jac = (2.0 * np.sqrt(hbar)) ** d / np.sqrt(np.linalg.det(state.B_mat))
    vals = (np.conj(evaluate_packet(pkt, hbar, x + 0.5 * Y))
            * evaluate_packet(pkt, hbar, x - 0.5 * Y)
            * np.exp(1j * (Y @ xi) / hbar)
            * np.exp(np.sum(U * U, axis=1)))
    return jac * np.sum(wg * vals) / (2.0 * np.pi * hbar) ** d


@pytest.mark.parametrize("d", [1, 2])
def test_sampling_density_is_the_wigner_transform(d):
    # gate for the whole sampler: the Gaussian density the sampler
    # factorizes must equal the packet's Wigner transform pointwise
    rng = np.random.default_rng(40 + d)
    state = random_state(rng, d)
    hbar = float(rng.uniform(0.25, 0.6))
    phi = float(rng.standard_normal())
    sig_x = np.linalg.cholesky(0.5 * hbar * np.linalg.inv(state.B_mat))
    sig_e = np.linalg.cholesky(0.5 * hbar * state.B_mat)
    for _ in range(12):
        dx = 0.5 * (sig_x @ rng.standard_normal(d))
        x = state.q + dx
        xi = state.p + state.A_mat @ dx + 0.5 * (sig_e @ rng.standard_normal(d))
        ref = _wigner_closed_form(state, hbar, x, xi)
        num = _wigner_by_quadrature(state, hbar, x, xi, phi)
        assert abs(num.imag) < 1e-9 * ref
        assert num.real == pytest.approx(ref, rel=1e-6)


def test_sample_moments_match_density():
    rng = np.random.default_rng(7)
    state = make_packet_state([0.4, -0.2], [1.0, 0.3],
                              [[0.6, -0.3], [-0.3, 0.2]],
                              [[1.3, 0.4], [0.4, 0.9]])
    hbar = 0.3
    N = 400_000
    ens = wigner_sample(state, hbar, seed=11, N=N)
    Binv = np.linalg.inv(state.B_mat)
    cov = 0.5 * hbar * np.block(
        [[Binv, Binv @ state.A_mat],
         [state.A_mat @ Binv, state.B_mat + state.A_mat @ Binv @ state.A_mat]])
    z = np.hstack([ens.x, ens.xi])
    mean_err = z.mean(axis=0) - np.concatenate([state.q, state.p])
    assert np.all(np.abs(mean_err) < 6 * np.sqrt(np.diag(cov) / N))
    c_hat = np.cov(z.T)
    spread = np.sqrt(np.outer(np.diag(cov), np.diag(cov)) + cov * cov)
    assert np.all(np.abs(c_hat - cov) < 6 * spread / np.sqrt(N))


def test_sampling_is_deterministic_and_seed_sensitive():
    state = make_packet_state([0.5], [-1.0], [[0.2]], [[1.4]])
    a = wigner_sample(state, 0.1, seed=3, N=5000)
    b = wigner_sample(state, 0.1, seed=3, N=5000)
    c = wigner_sample(state, 0.1, seed=4, N=5000)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.xi, b.xi)
    assert not np.array_equal(a.x, c.x)


@pytest.mark.parametrize("d", [1, 2])
def test_samples_independent_of_chunking(d):
    rng = np.random.default_rng(60 + d)
    state = random_state(rng, d)
    whole = wigner_sample(state, 0.2, seed=9, N=10001, chunk_size=10001)
    split = wigner_sample(state, 0.2, seed=9, N=10001, chunk_size=777)
    assert np.array_equal(whole.x, split.x)
    assert np.array_equal(whole.xi, split.xi)
    # a longer run starts with exactly the same draws
    longer = wigner_sample(state, 0.2, seed=9, N=12000)
    assert np.array_equal(longer.x[:10001], whole.x)


def test_wigner_sample_validation():
    state = make_packet_state([0.0], [0.0], [[0.0]], [[1.0]])
    with pytest.raises(ValueError):
        wigner_sample(state, 0.1, seed=0, N=0)
    with pytest.raises(ValueError):
        wigner_sample(state, 0.0, seed=0, N=10)
    for hbar in (np.inf, np.nan):
        with pytest.raises(ValueError, match="hbar must be positive and finite"):
            wigner_sample(state, hbar, seed=0, N=10)


# ---------------------------------------------------------------------------
# transport


def test_harmonic_means_follow_the_exact_flow():
    model = _harmonic_1d()
    state = make_packet_state([1.0], [0.0], [[0.0]], [[1.0]])
    ens = wigner_sample(state, 0.1, seed=21, N=100_000)
    est = propagate_ensemble(ens, model, dt=0.01, t_final=3.0)
    keep = slice(None, None, 25)
    t = est.times[keep]
    zq = (est.means["q"][keep, 0] - np.cos(t)) / est.ses["q"][keep, 0]
    zp = (est.means["p"][keep, 0] + np.sin(t)) / est.ses["p"][keep, 0]
    assert np.max(np.abs(zq)) < 4.0
    assert np.max(np.abs(zp)) < 4.0
    assert est.excluded == 0


def test_initial_energy_matches_packet_expectation(cos_model, bench_state_1d):
    hbar = 0.1
    ens = wigner_sample(bench_state_1d, hbar, seed=17, N=200_000)
    est = propagate_ensemble(ens, cos_model, dt=0.01, t_final=0.0)
    ref = full_hamiltonian(bench_state_1d, cos_model, hbar)
    z = (est.means["H0"][0] - ref) / est.ses["H0"][0]
    assert abs(z) < 5.0


def test_per_sample_energy_is_transported_exactly(cos_model, bench_state_1d):
    ens = wigner_sample(bench_state_1d, 0.1, seed=2, N=5000)
    est = propagate_ensemble(ens, cos_model, dt=0.01, t_final=2.0)
    drift = np.max(np.abs(est.means["H0"] - est.means["H0"][0]))
    assert drift < 1e-8


def test_standard_error_scales_as_inverse_sqrt_n():
    model = _harmonic_1d()
    state = make_packet_state([1.0], [0.0], [[0.0]], [[1.0]])
    ses = []
    for n in (20_000, 80_000):
        ens = wigner_sample(state, 0.1, seed=33, N=n)
        est = propagate_ensemble(ens, model, dt=0.01, t_final=1.0)
        ses.append(est.ses["q"][-1, 0])
    ratio = ses[0] / ses[1]
    assert 2.0 * 0.85 < ratio < 2.0 * 1.15


def test_statistics_independent_of_chunking(cos_model, bench_state_1d):
    ens = wigner_sample(bench_state_1d, 0.1, seed=8, N=4000)
    a = propagate_ensemble(ens, cos_model, dt=0.01, t_final=0.5)
    b = propagate_ensemble(ens, cos_model, dt=0.01, t_final=0.5, chunk_size=619)
    for name in ("q", "p", "H0"):
        np.testing.assert_allclose(a.means[name], b.means[name],
                                   rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(a.ses[name], b.ses[name],
                                   rtol=1e-10, atol=1e-16)


def test_corrupt_rows_are_excluded_from_statistics(cos_model, bench_state_1d):
    clean = wigner_sample(bench_state_1d, 0.1, seed=13, N=3000)
    x = clean.x.copy()
    x[-7:] = np.nan
    dirty = dataclasses.replace(clean, x=x)
    est_dirty = propagate_ensemble(dirty, cos_model, dt=0.01, t_final=0.3)
    prefix = dataclasses.replace(clean, x=clean.x[:-7], xi=clean.xi[:-7],
                                 n=clean.n - 7)
    est_clean = propagate_ensemble(prefix, cos_model, dt=0.01, t_final=0.3)
    assert est_dirty.excluded == 7
    assert est_dirty.n_samples == 3000
    for name in ("q", "p", "H0"):
        np.testing.assert_allclose(est_dirty.means[name],
                                   est_clean.means[name],
                                   rtol=1e-12, atol=1e-14)


def test_runaway_samples_are_excluded_mid_flight():
    # inverted oscillator: each sample overflows at a time set by its own
    # unstable-mode amplitude, so the alive mask must shrink gradually
    model = quadratic_linear([[-900.0]], [0.0], 0.0, [[0.0]], [0.0])
    state = make_packet_state([0.0], [0.0], [[0.0]], [[1.0]])
    ens = wigner_sample(state, 0.5, seed=5, N=2000)
    with np.errstate(over="ignore", invalid="ignore"):
        est = propagate_ensemble(ens, model, dt=0.01, t_final=23.43,
                                 observables=("q",))
        short = propagate_ensemble(ens, model, dt=0.01, t_final=23.40,
                                   observables=("q",))
        chunked = propagate_ensemble(ens, model, dt=0.01, t_final=23.43,
                                     observables=("q",), chunk_size=311)
    assert 0 < est.excluded < 2000
    assert short.excluded < est.excluded
    assert chunked.excluded == est.excluded
    assert np.isfinite(est.means["q"][0]).all()


@pytest.mark.parametrize("model, component_major", [
    pytest.param(model, cm, id=model.name + ("-component-major" if cm else ""))
    for cm in (False, True)
    for model in (quartic_rotational_2d(), plane_wave_gauge_2d())])
def test_ensemble_moves_by_the_packet_classical_flow(model, component_major):
    # one flow: a transport step of a stack of rows is, row by row and
    # bitwise, one RK4 step of the single-point classical flavor, whether
    # the rows are stored row-major or, as propagate_ensemble keeps its
    # blocks, as transposed views of (d, n) arrays
    rng = np.random.default_rng(8)
    x = rng.uniform(-1.5, 1.5, size=(7, 2))
    xi = rng.uniform(-1.5, 1.5, size=(7, 2))
    if component_major:
        x, xi = np.ascontiguousarray(x.T).T, np.ascontiguousarray(xi.T).T
        assert x.flags.f_contiguous and not x.flags.c_contiguous
    dt = 0.05
    xs, xis = _classical_flow_step(x, xi, model, dt)
    # the step keeps the storage order it was given
    assert xs.flags.f_contiguous == xis.flags.f_contiguous == component_major
    for i in range(x.shape[0]):
        traj = rk4_integrate(lambda s: classical_rhs(s, model),
                             ClassicalPhasePoint(q=x[i], p=xi[i]), dt, dt)
        assert np.array_equal(traj.states.q[1], xs[i])
        assert np.array_equal(traj.states.p[1], xis[i])
    # and the recorded energies and angular momenta are the single-point ones
    h0 = _observe("H0", x, xi, model)
    lz = _observe("Lz", x, xi, model)
    assert h0.shape == lz.shape == (x.shape[0],)
    for i in range(x.shape[0]):
        z = ClassicalPhasePoint(q=x[i], p=xi[i])
        assert h0[i] == classical_hamiltonian(z, model)
        assert lz[i] == classical_angular_momentum(z)


def test_final_only_is_the_last_row_of_the_series():
    # reducing at t_final alone changes nothing but the rows kept, also
    # when samples die in mid-flight and intermediate times go unrecorded
    model = quadratic_linear([[-900.0]], [0.0], 0.0, [[0.0]], [0.0])
    state = make_packet_state([0.0], [0.0], [[0.0]], [[1.0]])
    ens = wigner_sample(state, 0.5, seed=5, N=2000)
    with np.errstate(over="ignore", invalid="ignore"):
        full = propagate_ensemble(ens, model, dt=0.01, t_final=23.43,
                                  observables=("q", "p", "H0"), chunk_size=700)
        last = propagate_ensemble(ens, model, dt=0.01, t_final=23.43,
                                  observables=("q", "p", "H0"), chunk_size=700,
                                  final_only=True)
    assert 0 < full.excluded < 2000
    assert last.excluded == full.excluded
    assert last.n_samples == full.n_samples
    assert np.array_equal(last.times, full.times[-1:])
    assert np.isfinite(last.means["q"]).all()
    # the survivors' squares overflow, so some standard errors are NaN in
    # both runs alike
    for name in ("q", "p", "H0"):
        assert last.means[name].shape == full.means[name][-1:].shape
        assert np.array_equal(last.means[name], full.means[name][-1:],
                              equal_nan=True)
        assert np.array_equal(last.ses[name], full.ses[name][-1:],
                              equal_nan=True)


def test_final_only_feeds_phase_error(quartic_model, bench_state_2d):
    ens = wigner_sample(bench_state_2d, 0.1, seed=4, N=3000)
    full = propagate_ensemble(ens, quartic_model, dt=0.01, t_final=0.5,
                              observables=("q", "p"))
    last = propagate_ensemble(ens, quartic_model, dt=0.01, t_final=0.5,
                              observables=("q", "p"), final_only=True)
    traj = simulate(quartic_model, "classical", bench_state_2d, 0.1, 0.01, 0.5)
    assert phase_error(traj, last, 0.5) == phase_error(traj, full, 0.5)
    with pytest.raises(ValueError, match="time grid"):
        phase_error(traj, last, 0.2)


def test_too_few_survivors_is_an_error(cos_model, bench_state_1d):
    ens = wigner_sample(bench_state_1d, 0.1, seed=1, N=3)
    x = ens.x.copy()
    x[:2] = np.inf
    bad = dataclasses.replace(ens, x=x)
    with pytest.raises(RuntimeError, match="surviving"):
        propagate_ensemble(bad, cos_model, dt=0.01, t_final=0.1)


def test_observable_validation(cos_model, quartic_model, bench_state_1d,
                               bench_state_2d):
    ens1 = wigner_sample(bench_state_1d, 0.1, seed=0, N=10)
    with pytest.raises(ValueError, match="Lz"):
        propagate_ensemble(ens1, cos_model, dt=0.01, t_final=0.1,
                           observables=("q", "Lz"))
    with pytest.raises(ValueError, match="unknown observable"):
        propagate_ensemble(ens1, cos_model, dt=0.01, t_final=0.1,
                           observables=("spin",))
    ens2 = wigner_sample(bench_state_2d, 0.1, seed=0, N=50)
    est = propagate_ensemble(ens2, quartic_model, dt=0.01, t_final=0.1,
                             observables=("q", "p", "H0", "Lz"))
    assert est.means["Lz"].shape == est.times.shape


def test_propagate_grid_validation(cos_model, bench_state_1d):
    ens = wigner_sample(bench_state_1d, 0.1, seed=0, N=10)
    with pytest.raises(ValueError):
        propagate_ensemble(ens, cos_model, dt=0.0, t_final=1.0)
    with pytest.raises(ValueError):
        propagate_ensemble(ens, cos_model, dt=0.01, t_final=-1.0)


# ---------------------------------------------------------------------------
# phase error


def _manual_estimate():
    times = np.array([0.0, 0.5, 1.0])
    means = {"q": np.array([[0.0, 0.0], [0.3, 0.1], [0.5, 0.2]]),
             "p": np.array([[1.0, 0.0], [0.9, -0.1], [0.7, -0.3]])}
    ses = {k: np.zeros_like(v) for k, v in means.items()}
    return EgorovEstimate(times=times, means=means, ses=ses,
                          n_samples=10, excluded=0)


class _FakeTraj:
    times = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    states = ClassicalPhasePoint(
        q=np.array([[0.0, 0.0], [0.1, 0.0], [0.3, 0.4], [0.4, 0.1], [0.5, 0.2]]),
        p=np.array([[1.0, 0.0], [1.0, 0.0], [0.5, -0.1], [0.8, -0.2], [0.7, -0.3]]))


def test_phase_error_value_and_grid_checks():
    est = _manual_estimate()
    err = phase_error(_FakeTraj(), est, 0.5)
    assert err == pytest.approx(np.sqrt(0.3 ** 2 + 0.4 ** 2), rel=1e-12)
    assert phase_error(_FakeTraj(), est, 1.0) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError, match="time grid"):
        phase_error(_FakeTraj(), est, 0.25)  # not on the ensemble grid
    with pytest.raises(ValueError, match="time grid"):
        phase_error(_FakeTraj(), est, 0.3)


def test_phase_error_requires_center_observables():
    est = _manual_estimate()
    bad = EgorovEstimate(times=est.times, means={"H0": np.zeros(3)},
                         ses={"H0": np.zeros(3)}, n_samples=10, excluded=0)
    with pytest.raises(ValueError, match="q/p"):
        phase_error(_FakeTraj(), bad, 0.5)
