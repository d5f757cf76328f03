import dataclasses
import multiprocessing
import multiprocessing.context
import os
import platform
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import qmc

from conftest import plane_wave_gauge_2d, stored_rows
from gwpdyn import cli, egorov
from gwpdyn.checks import random_state
from gwpdyn.dynamics import (ClassicalPhasePoint, classical_hamiltonian,
                             classical_rhs, rk4_integrate, simulate)
from gwpdyn.egorov import (EgorovEstimate, _classical_flow_step, _observe,
                           phase_error, propagate_ensemble, wigner_sample)
from gwpdyn.expectations import full_hamiltonian
from gwpdyn.observables import classical_angular_momentum
from gwpdyn.packet import evaluate_packet, make_packet_state, normalized_packet
from gwpdyn.potentials import cosine_1d, quadratic_linear, quartic_rotational_2d


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
    z = np.vstack(ens.rows(0, N)).T
    mean_err = z.mean(axis=0) - np.concatenate([state.q, state.p])
    assert np.all(np.abs(mean_err) < 6 * np.sqrt(np.diag(cov) / N))
    c_hat = np.cov(z.T)
    spread = np.sqrt(np.outer(np.diag(cov), np.diag(cov)) + cov * cov)
    assert np.all(np.abs(c_hat - cov) < 6 * spread / np.sqrt(N))


def test_sampling_is_deterministic_and_seed_sensitive():
    state = make_packet_state([0.5], [-1.0], [[0.2]], [[1.4]])
    a, b, c = (wigner_sample(state, 0.1, seed=seed, N=5000).rows(0, 5000)
               for seed in (3, 3, 4))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert not np.array_equal(a[0], c[0])


def _rows_in_blocks(ens, size):
    """ens's rows read block by block, as transport reads them."""
    blocks = [ens.rows(i0, min(i0 + size, ens.n)) for i0 in range(0, ens.n, size)]
    return np.hstack([x for x, _ in blocks]), np.hstack([xi for _, xi in blocks])


@pytest.mark.parametrize("d", [1, 2])
def test_samples_independent_of_chunking(d):
    # a row is the same bits whatever block draws it
    rng = np.random.default_rng(60 + d)
    state = random_state(rng, d)
    ens = wigner_sample(state, 0.2, seed=9, N=10001)
    whole = ens.rows(0, ens.n)
    assert whole[0].shape == whole[1].shape == (d, 10001)
    split = _rows_in_blocks(ens, 777)
    assert np.array_equal(whole[0], split[0])
    assert np.array_equal(whole[1], split[1])
    # a longer ensemble starts with exactly the same draws
    longer = wigner_sample(state, 0.2, seed=9, N=12000)
    assert np.array_equal(longer.rows(0, 10001)[0], whole[0])


def test_wigner_sample_validation():
    state = make_packet_state([0.0], [0.0], [[0.0]], [[1.0]])
    with pytest.raises(ValueError):
        wigner_sample(state, 0.1, seed=0, N=0)
    with pytest.raises(ValueError):
        wigner_sample(state, 0.0, seed=0, N=10)
    for hbar in (np.inf, np.nan):
        with pytest.raises(ValueError, match="hbar must be positive and finite"):
            wigner_sample(state, hbar, seed=0, N=10)
    # nothing is drawn up front, so no allocation refuses a huge count;
    # the limit does, and the largest count allowed costs nothing to make
    assert wigner_sample(state, 0.1, seed=0, N=egorov.MAX_SAMPLES).n == egorov.MAX_SAMPLES
    over = egorov.MAX_SAMPLES + egorov.REPLICATES
    for sobol in (False, True):
        with pytest.raises(ValueError, match=f"^sample count {over} exceeds the "
                                             f"limit of {egorov.MAX_SAMPLES} samples$"):
            wigner_sample(state, 0.1, seed=0, N=over, sobol=sobol)


def test_inverse_normal_cdf_is_cephes_ndtri():
    # the numpy port against scipy's Cephes ndtri on about 10^6 points:
    # uniform draws at the sampler's 2^-53 resolution, log-uniform points
    # down to the 1e-300 clamp and up to 1 - 2^-53, and each branch edge
    e2, e32 = egorov._EXP_M2, np.exp(-32.0)
    rng = np.random.default_rng(2024)
    edges = [1e-300, 2.0 ** -53, 0.5, 1 - 2.0 ** -52, 1 - 2.0 ** -53]
    for edge in (e2, 1 - e2, e32, 1 - e32):
        edges += [np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)]
    u = np.concatenate([
        rng.random(800_000),
        np.exp(-rng.uniform(0.0, -np.log(1e-300), 100_000)),
        1.0 - np.floor(np.exp(rng.uniform(0.0, 45.0 * np.log(2.0), 100_000))) * 2.0 ** -53,
        edges])
    u = np.unique(np.clip(u, 1e-300, None))     # sorted
    x, ref = egorov._ndtri(u), ndtri(u)
    central = (u > e2) & (u <= 1 - e2)
    assert np.array_equal(x[central], ref[central])
    ulps = np.abs(x - ref) / np.spacing(np.abs(ref))
    assert np.all(ulps[~central] <= 4.0)
    assert egorov._ndtri(np.array([0.5]))[0] == 0.0
    # nondecreasing within each branch; at e^-2 Cephes itself, and so
    # scipy, steps back one ulp where the branch switches
    for branch in (u <= e2, central, u > 1 - e2):
        assert np.all(np.diff(x[branch]) >= 0.0)
    # any shape and memory layout, entry by entry
    grid = u[:60_000].reshape(-1, 4)
    for view in (np.asfortranarray(grid), grid[:, ::2], grid.T):
        assert np.array_equal(egorov._ndtri(view), egorov._ndtri(view.copy()))
        assert np.array_equal(egorov._ndtri(view).ravel(), egorov._ndtri(view.ravel()))


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


@pytest.mark.parametrize("d", [1, 2])
def test_sobol_means_follow_the_classical_center_on_a_quadratic_flow(d):
    # a quadratic Hamiltonian's flow, and each RK4 step of it, is affine,
    # so the mean of the rows moves as the classical packet center does;
    # the 2D model has a uniform magnetic field and a non-unit mass
    if d == 1:
        model = _harmonic_1d()
        state = make_packet_state([1.0], [0.0], [[0.0]], [[1.0]])
    else:
        model = quadratic_linear([[2.0, 0.3], [0.3, 1.0]], [0.1, -0.2], 0.5,
                                 [[0.2, -0.7], [0.4, 0.1]], [0.3, 0.0], mass=1.5)
        state = make_packet_state([0.4, -0.3], [0.2, 0.6], [[0.5, 0.1], [0.1, -0.2]],
                                  [[1.2, 0.3], [0.3, 0.8]])
    ens = wigner_sample(state, 0.1, seed=23, N=4000, sobol=True)
    est = propagate_ensemble(ens, model, dt=0.01, t_final=3.0, observables=("q", "p"))
    center = simulate(model, "classical", state, 0.1, 0.01, 3.0)
    assert np.array_equal(est.times, center.times)
    for t in (0, 75, 150, 225, 300):
        for name, c in (("q", center.states.q[t]), ("p", center.states.p[t])):
            se = est.ses[name][t]
            assert np.all(se > 0)
            assert np.all(np.abs(est.means[name][t] - c) < 4.0 * se), (name, t)
    # the center moves by far more than the standard errors
    assert np.linalg.norm(center.states.q[300] - center.states.q[0]) > 0.1


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


def test_statistics_independent_of_chunking(cos_model, bench_state_1d,
                                            monkeypatch):
    ens = wigner_sample(bench_state_1d, 0.1, seed=8, N=4000)
    a = propagate_ensemble(ens, cos_model, dt=0.01, t_final=0.5)
    monkeypatch.setattr(egorov, "DEFAULT_CHUNK", 619)
    b = propagate_ensemble(ens, cos_model, dt=0.01, t_final=0.5)
    for name in ("q", "p", "H0"):
        np.testing.assert_allclose(a.means[name], b.means[name],
                                   rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(a.ses[name], b.ses[name],
                                   rtol=1e-10, atol=1e-16)


def test_corrupt_rows_are_excluded_from_statistics(cos_model, bench_state_1d):
    clean = stored_rows(wigner_sample(bench_state_1d, 0.1, seed=13, N=3000))
    x = clean.x.copy()
    x[-7:] = np.nan
    dirty = dataclasses.replace(clean, x=x)
    est_dirty = propagate_ensemble(dirty, cos_model, dt=0.01, t_final=0.3)
    prefix = dataclasses.replace(clean, x=clean.x[:-7], xi=clean.xi[:-7])
    est_clean = propagate_ensemble(prefix, cos_model, dt=0.01, t_final=0.3)
    assert est_dirty.excluded == 7
    assert est_dirty.n_samples == 3000
    for name in ("q", "p", "H0"):
        np.testing.assert_allclose(est_dirty.means[name],
                                   est_clean.means[name],
                                   rtol=1e-12, atol=1e-14)


# the ids date from the antithetic-pair reference: "paired" is the sobol draw
@pytest.mark.parametrize("sobol", [False, True], ids=["unpaired", "paired"])
def test_exclusion_follows_the_state_not_the_fields(sobol, bench_state_1d):
    # fields read at nan_to_num(x) stay finite where x is not, so only the
    # state can tell that a row is dead: RK4 keeps a non-finite entry
    # non-finite, and the row is excluded at every reduced time; a mean is
    # the live rows' sum over their count, or for replicates the mean of
    # the replicates' live means
    base = cosine_1d()
    model = dataclasses.replace(base, **{
        name: (lambda f: lambda x: f(np.nan_to_num(x)))(getattr(base, name))
        for name in ("flow_fields", "energy_fields")})
    ens = stored_rows(wigner_sample(bench_state_1d, 0.1, seed=21, N=1000,
                                    sobol=sobol))
    x, xi = ens.x.copy(), ens.xi.copy()
    x[5] = np.inf
    xi[12] = np.nan
    dead = [5, 12]
    dirty = dataclasses.replace(ens, x=x, xi=xi)
    live = np.ones(ens.n, dtype=bool)
    live[dead] = False
    kept = dataclasses.replace(ens, x=ens.x[live], xi=ens.xi[live], sobol=False)
    runs = [dict(t_final=0.3)] + [dict(t_final=t, final_only=True)
                                  for t in (0.0, 0.1, 0.3)]
    for run in runs:
        est = propagate_ensemble(dirty, model, dt=0.01, **run)
        ref = _replicate_reference(ens, model, live, dt=0.01, **run)[0] if sobol \
            else propagate_ensemble(kept, model, dt=0.01, **run).means
        assert est.excluded == len(dead) and est.n_samples == ens.n
        for name in ("q", "p", "H0"):
            np.testing.assert_allclose(est.means[name], ref[name],
                                       rtol=1e-12, atol=1e-14)


def test_ensemble_size_is_its_row_count(cos_model, bench_state_1d):
    # an ensemble of n independent rows is transported as the first n rows
    # of a longer one with the same seed, and counts n samples (a sobol
    # ensemble's replicates depend on n, so its rows do too)
    full = stored_rows(wigner_sample(bench_state_1d, 0.1, seed=3, N=1000))
    head = wigner_sample(bench_state_1d, 0.1, seed=3, N=600)
    est = propagate_ensemble(head, cos_model, dt=0.01, t_final=0.1)
    ref = propagate_ensemble(
        dataclasses.replace(full, x=full.x[:600], xi=full.xi[:600]),
        cos_model, dt=0.01, t_final=0.1)
    assert head.n == 600 and est.n_samples == 600 and est.excluded == 0
    for name in ("q", "p", "H0"):
        assert _same_bits(est.means[name], ref.means[name])
        assert _same_bits(est.ses[name], ref.ses[name])


def test_runaway_samples_are_excluded_mid_flight(monkeypatch):
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
        monkeypatch.setattr(egorov, "DEFAULT_CHUNK", 311)
        chunked = propagate_ensemble(ens, model, dt=0.01, t_final=23.43,
                                     observables=("q",))
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


def test_overflowed_statistics_raise_no_warning():
    # the survivors' squares overflow long before t = 23.43, and so do the
    # block totals; pytest turns numpy warnings into errors, and no
    # np.errstate encloses the call
    model = quadratic_linear([[-900.0]], [0.0], 0.0, [[0.0]], [0.0])
    state = make_packet_state([0.0], [0.0], [[0.0]], [[1.0]])
    ens = wigner_sample(state, 0.5, seed=5, N=2000)
    est = propagate_ensemble(ens, model, dt=0.01, t_final=23.43)
    assert 0 < est.excluded < 2000
    assert np.isfinite(est.means["q"]).all()
    assert not np.isfinite(est.ses["q"][-1]).any()


def test_final_only_is_the_last_row_of_the_series(monkeypatch):
    # reducing at t_final alone changes nothing but the rows kept, also
    # when samples die in mid-flight and intermediate times go unrecorded
    model = quadratic_linear([[-900.0]], [0.0], 0.0, [[0.0]], [0.0])
    state = make_packet_state([0.0], [0.0], [[0.0]], [[1.0]])
    ens = wigner_sample(state, 0.5, seed=5, N=2000)
    monkeypatch.setattr(egorov, "DEFAULT_CHUNK", 700)
    with np.errstate(over="ignore", invalid="ignore"):
        full = propagate_ensemble(ens, model, dt=0.01, t_final=23.43,
                                  observables=("q", "p", "H0"))
        last = propagate_ensemble(ens, model, dt=0.01, t_final=23.43,
                                  observables=("q", "p", "H0"), final_only=True)
    assert 0 < full.excluded < 2000
    assert last.excluded == full.excluded
    assert last.n_samples == full.n_samples
    assert np.array_equal(last.times, full.times[-1:])
    assert np.isfinite(last.means["q"]).all()
    # the survivors' squares overflow, so some standard errors are not
    # finite, in both runs alike
    for name in ("q", "p", "H0"):
        assert last.means[name].shape == full.means[name][-1:].shape
        assert np.array_equal(last.means[name], full.means[name][-1:],
                              equal_nan=True)
        assert np.array_equal(last.ses[name], full.ses[name][-1:],
                              equal_nan=True)


def _same_bits(a, b):
    """Bitwise equal arrays, NaN (of any payload) where both are NaN."""
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64)))


def _forbid_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")
    monkeypatch.setattr(multiprocessing.context.BaseContext, "Pool", no_pool)


@pytest.mark.parametrize("final_only", [False, True], ids=["series", "final-only"])
@pytest.mark.parametrize("kind, chunk_size", [
    ("runaway", 311), ("runaway", 700), ("quartic2d", 1024)])
def test_worker_count_does_not_change_the_output(kind, chunk_size, final_only,
                                                 monkeypatch, bench_state_2d):
    # blocks finish in any order on the pool, but their partial sums are
    # added in block order, so one worker and the default agree bitwise,
    # NaN standard errors and mid-flight deaths included
    if kind == "runaway":
        model = quadratic_linear([[-900.0]], [0.0], 0.0, [[0.0]], [0.0])
        state = make_packet_state([0.0], [0.0], [[0.0]], [[1.0]])
        ens = wigner_sample(state, 0.5, seed=5, N=2000)
        obs, t_final = ("q", "p", "H0"), 23.43
    else:
        # 2 * 1024 + 97 samples: three blocks, the last one short
        model = quartic_rotational_2d()
        ens = wigner_sample(bench_state_2d, 0.1, seed=6, N=2145)
        obs, t_final = ("q", "p", "H0", "Lz"), 0.3
    monkeypatch.setattr(egorov, "DEFAULT_CHUNK", chunk_size)
    pools = []
    real_pool = multiprocessing.context.BaseContext.Pool

    def counting_pool(self, *args, **kwargs):
        pools.append(args)
        return real_pool(self, *args, **kwargs)

    def run():
        with np.errstate(over="ignore", invalid="ignore"):
            return propagate_ensemble(ens, model, dt=0.01, t_final=t_final,
                                      observables=obs, final_only=final_only)

    with monkeypatch.context() as m:
        m.setattr(multiprocessing.context.BaseContext, "Pool", counting_pool)
        pooled = run()
    if egorov._usable_cpus() > 1 and "fork" in multiprocessing.get_all_start_methods():
        assert len(pools) == 1
    monkeypatch.setattr(egorov, "MAX_WORKERS", 1)
    _forbid_pool(monkeypatch)
    serial = run()
    if kind == "runaway":
        assert 0 < serial.excluded < 2000
    assert pooled.excluded == serial.excluded
    assert np.array_equal(pooled.times, serial.times)
    for name in obs:
        assert _same_bits(pooled.means[name], serial.means[name])
        assert _same_bits(pooled.ses[name], serial.ses[name])


def test_single_block_starts_no_process(monkeypatch, cos_model, bench_state_1d):
    _forbid_pool(monkeypatch)
    ens = wigner_sample(bench_state_1d, 0.1, seed=3, N=500)
    est = propagate_ensemble(ens, cos_model, dt=0.01, t_final=0.1)
    assert est.n_samples == 500 and est.excluded == 0


@pytest.mark.parametrize("chunk_size, counts", [
    (None, [800, 800, 800]), (1000, [800, 2008, 4000])],
    ids=["one-block-each", "mixed-block-counts"])
def test_rate_sweep_forks_at_most_once_and_keeps_its_bits(chunk_size, counts,
                                                          monkeypatch, quartic_model,
                                                          bench_state_2d):
    # every hbar's blocks share one pool, largest first (1000-row blocks of
    # all three, then the 800- and 8-row ones), and each hbar's partial
    # sums are still added in its block order: one worker and the default
    # give the same bits
    if chunk_size:
        monkeypatch.setattr(egorov, "DEFAULT_CHUNK", chunk_size)
    pools = []
    real_pool = multiprocessing.context.BaseContext.Pool

    def counting_pool(self, *args, **kwargs):
        pools.append(args)
        return real_pool(self, *args, **kwargs)

    def sweep():
        return egorov.rate_sweep(quartic_model, bench_state_2d, [0.5, 0.1, 0.05],
                                 counts, 0.01, 0.05, seed=3)

    with monkeypatch.context() as m:
        m.setattr(multiprocessing.context.BaseContext, "Pool", counting_pool)
        pooled = sweep()
    assert len(pools) <= 1
    if egorov._usable_cpus() > 1 and "fork" in multiprocessing.get_all_start_methods():
        assert len(pools) == 1
    monkeypatch.setattr(egorov, "MAX_WORKERS", 1)
    _forbid_pool(monkeypatch)
    serial = sweep()
    for a, b in zip(pooled, serial):
        assert _same_bits(np.array(a), np.array(b))


def test_block_order_is_largest_first_and_stable(monkeypatch, bench_state_1d):
    # full blocks of every ensemble in ensemble and block order, then the
    # short last blocks by size
    monkeypatch.setattr(egorov, "MAX_WORKERS", 1)
    monkeypatch.setattr(egorov, "DEFAULT_CHUNK", 700)
    order = []
    monkeypatch.setattr(egorov, "_transport_block",
                        lambda plan, j, i0: order.append((plan.ensembles[j].n, i0)))
    plan = egorov._Transport(tuple(wigner_sample(bench_state_1d, 0.1, seed=1, N=n)
                                   for n in (1500, 300, 2100, 650)),
                             cosine_1d(), 0.01, 2, 0, ("q",))
    assert [j for j, _ in egorov._block_results(plan)] == [0, 0, 2, 2, 2, 3, 1, 0]
    assert order == [(1500, 0), (1500, 700), (2100, 0), (2100, 700), (2100, 1400),
                     (650, 0), (300, 0), (1500, 1400)]


def _three_block_means(ens):
    est = propagate_ensemble(ens, cosine_1d(), dt=0.01, t_final=0.1)
    return est.means["q"], est.ses["q"]


def test_transport_inside_a_pool_worker_runs_in_process(bench_state_1d,
                                                         monkeypatch):
    # a daemonic pool worker may not fork workers of its own; the worker
    # is forked after the patch, so it too cuts 2000 samples into three
    # blocks
    monkeypatch.setattr(egorov, "DEFAULT_CHUNK", 700)
    ens = wigner_sample(bench_state_1d, 0.1, seed=3, N=2000)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        nested = pool.apply(_three_block_means, (ens,))
    here = _three_block_means(ens)
    assert _same_bits(nested[0], here[0]) and _same_bits(nested[1], here[1])


def _failing_cosine(bad_x: float):
    """cosine1d whose flow fields raise on the sample at bad_x."""
    base = cosine_1d()

    def flow_fields(x):
        if np.any(np.asarray(x)[..., 0] == bad_x):
            raise ValueError(f"field undefined at x = {bad_x!r}")
        return base.flow_fields(x)

    return dataclasses.replace(base, flow_fields=flow_fields)


def test_worker_failure_propagates_and_leaves_no_process(bench_state_1d,
                                                         monkeypatch):
    ens = wigner_sample(bench_state_1d, 0.1, seed=12, N=2000)
    bad_x = float(ens.rows(1017, 1018)[0][0, 0])    # in the third of four blocks
    monkeypatch.setattr(egorov, "DEFAULT_CHUNK", 500)
    with pytest.raises(ValueError, match="field undefined at x = "):
        propagate_ensemble(ens, _failing_cosine(bad_x), dt=0.01, t_final=0.1)
    assert multiprocessing.active_children() == []


def test_worker_failure_in_cli_egorov_exits_2(monkeypatch, tmp_path, capsys,
                                              bench_state_1d):
    n = 2 * egorov.DEFAULT_CHUNK + 104
    ens = wigner_sample(bench_state_1d, 0.1, seed=4, N=n, sobol=True)
    # row 2 * DEFAULT_CHUNK + 3, in the third block
    bad_x = float(ens.rows(2 * egorov.DEFAULT_CHUNK + 3,
                           2 * egorov.DEFAULT_CHUNK + 4)[0][0, 0])
    monkeypatch.setattr(cli, "model_by_name",
                        lambda *args, **kwargs: _failing_cosine(bad_x))
    out = tmp_path / "e.csv"
    rc = cli.main(["egorov", "--potential", "cosine1d", "--q", "0.5",
                   "--p=-1", "--A", "0", "--B", "1", "--hbar", "0.1",
                   "--t-final", "0.05", "--dt", "0.01", "--samples", str(n),
                   "--seed", "4", "--out", str(out)])
    assert rc == 2
    assert "field undefined" in capsys.readouterr().err
    assert multiprocessing.active_children() == []


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
    ens = stored_rows(wigner_sample(bench_state_1d, 0.1, seed=1, N=3))
    x = ens.x.copy()
    x[:2] = np.inf
    bad = dataclasses.replace(ens, x=x)
    with pytest.raises(ValueError, match="surviving"):
        propagate_ensemble(bad, cos_model, dt=0.01, t_final=0.1)


# ---------------------------------------------------------------------------
# scrambled Sobol replicates


@pytest.mark.parametrize("d", [1, 2, 3, egorov.SOBOL_MAX_D])
@pytest.mark.parametrize("i0, n", [(0, 1024), (0, 1000), (1, 777), (12345, 3001)])
def test_unscrambled_sobol_points_match_scipy(i0, n, d):
    # with no scramble and no shift the generator gives scipy's 52-bit
    # Sobol points bitwise, from the start and from odd mid-sequence starts
    # (scipy continues a sequence from where its last draw stopped), in
    # every dimension of the direction-number table
    sobol = qmc.Sobol(2 * d, scramble=False, bits=egorov.SOBOL_BITS)
    with warnings.catch_warnings():
        # counts that are not powers of 2 lose balance, which scipy warns of
        warnings.simplefilter("ignore", UserWarning)
        if i0:
            sobol.random(i0)
        ref = sobol.random(n)
    digits = egorov._sobol_points(egorov._SOBOL_V[:2 * d],
                                  np.zeros(2 * d, dtype=np.uint64), i0, i0 + n)
    assert np.array_equal(digits * 2.0 ** -egorov.SOBOL_BITS, ref)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("chunk_size", [777, 1000, 1001])
def test_sobol_rows_are_independent_of_chunking(chunk_size, d):
    # replicate r holds rows r m .. (r + 1) m, points 0 .. m of its own
    # scrambled sequence; a row is the same bits whatever block draws it,
    # blocks across replicates included (4000 rows leave a short last
    # block at every size here)
    state = random_state(np.random.default_rng(70 + d), d)
    ens = wigner_sample(state, 0.2, seed=9, N=4000, sobol=True)
    x, xi = _rows_in_blocks(ens, chunk_size)
    assert ens.sobol and ens.n == 4000 and x.shape == (d, 4000)
    whole = ens.rows(0, 4000)
    assert np.array_equal(x, whole[0]) and np.array_equal(xi, whole[1])
    V, shift = ens._scrambles
    m = ens.n // egorov.REPLICATES
    for r in range(egorov.REPLICATES):
        points = egorov._sobol_points(V[r], shift[r], 0, m)
        assert np.array_equal(ens._uniforms(r * m, (r + 1) * m),
                              points * 2.0 ** -egorov.SOBOL_BITS)
    # every replicate has a scramble of its own
    assert len({V[r].tobytes() for r in range(egorov.REPLICATES)}) == egorov.REPLICATES


@pytest.mark.parametrize("N", [0, 2, 3, 1001])
def test_sobol_counts_must_be_whole_replicates(N, bench_state_1d):
    with pytest.raises(ValueError, match=f"^sample counts must be positive multiples "
                                         f"of 8 .scrambled Sobol replicates., got {N}$"):
        wigner_sample(bench_state_1d, 0.1, seed=0, N=N, sobol=True)


def test_sobol_draws_take_packets_up_to_the_table_dimension(bench_state_1d):
    # a d-dimensional packet needs 2d Sobol dimensions; independent draws
    # take any d
    d = egorov.SOBOL_MAX_D
    model = quadratic_linear(np.eye(d), np.zeros(d), 0.0, np.zeros((d, d)),
                             np.zeros(d))
    state = make_packet_state(np.full(d, 0.5), np.zeros(d), np.zeros((d, d)),
                              np.eye(d))
    est = propagate_ensemble(wigner_sample(state, 0.1, seed=1, N=64, sobol=True),
                             model, dt=0.01, t_final=0.05)
    assert np.isfinite(est.ses["q"]).all() and est.excluded == 0
    big = make_packet_state(np.zeros(d + 1), np.zeros(d + 1),
                            np.zeros((d + 1, d + 1)), np.eye(d + 1))
    wigner_sample(big, 0.1, seed=1, N=64)
    message = (f"^scrambled Sobol replicates take packets of at most {d} "
               f"dimensions, got {d + 1}$")
    with pytest.raises(ValueError, match=message):
        wigner_sample(big, 0.1, seed=1, N=64, sobol=True)
    with pytest.raises(ValueError, match=message):
        egorov.rate_sweep(quadratic_linear(np.eye(d + 1), np.zeros(d + 1), 0.0,
                                           np.zeros((d + 1, d + 1)), np.zeros(d + 1)),
                          big, [0.1, 0.05], [64, 64], 0.01, 0.05, seed=0)


@pytest.mark.parametrize("chunk_size", [777, 1000])
def test_rate_sweep_draws_a_sobol_reference_per_hbar(chunk_size, monkeypatch,
                                                     quartic_model, bench_state_2d):
    # hbar i's reference is the sobol draw with seed seed + i, bitwise,
    # whatever the transport block size; one propagate_ensembles call
    # transports them all
    hbars, counts, seed = [0.5, 0.1], [2008, 1600], 4
    refs = [wigner_sample(bench_state_2d, h, seed=seed + i, N=n, sobol=True).rows(0, n)
            for i, (h, n) in enumerate(zip(hbars, counts))]
    monkeypatch.setattr(egorov, "DEFAULT_CHUNK", chunk_size)
    calls = []
    real = egorov.propagate_ensembles

    def recording(ensembles, *args, **kwargs):
        calls.append(list(ensembles))
        return real(ensembles, *args, **kwargs)

    monkeypatch.setattr(egorov, "propagate_ensembles", recording)
    egorov.rate_sweep(quartic_model, bench_state_2d, hbars, counts, 0.01, 0.05, seed)
    assert len(calls) == 1
    drawn = calls[0]
    assert [(ens.sobol, ens.seed, ens.n) for ens in drawn] == [
        (True, seed, counts[0]), (True, seed + 1, counts[1])]
    for ens, (rx, rxi) in zip(drawn, refs):
        x, xi = _rows_in_blocks(ens, chunk_size)
        assert np.array_equal(x, rx) and np.array_equal(xi, rxi)


@pytest.mark.parametrize("counts", [[400, 400, 400, 6], [400, 400]],
                         ids=["extra-count", "missing-count"])
def test_rate_sweep_needs_one_count_per_hbar(counts, monkeypatch, cos_model,
                                             bench_state_1d):
    # an extra count used to be ignored, and a missing one to raise an
    # IndexError after the packet runs and two transports
    def no_run(*args, **kwargs):
        raise AssertionError("a run was started")

    monkeypatch.setattr(egorov.dynamics, "simulate", no_run)
    monkeypatch.setattr(egorov, "wigner_sample", no_run)
    with pytest.raises(ValueError, match=f"{len(counts)} sample counts for 3 hbars"):
        egorov.rate_sweep(cos_model, bench_state_1d, [0.5, 0.3, 0.1], counts,
                          0.01, 0.1, 0)


@pytest.mark.parametrize("hbars, counts, seed, message", [
    ([0.5, 0.3, -0.1], [400] * 3, 0, "hbar must be positive and finite, got -0.1"),
    ([0.5, 0.3, np.nan], [400] * 3, 0, "hbar must be positive and finite, got nan"),
    ([0.5, 0.3, 0.1], [400, egorov.MAX_SAMPLES + 8, 400], 0,
     f"sample count {egorov.MAX_SAMPLES + 8} exceeds the limit"),
    ([0.5, 0.3, 0.1], [400] * 3, 2 ** 128 - 2,
     re.escape("seed must be nonnegative and below 2**128 - 2 (a draw takes key "
               f"seed + 2), got {2 ** 128 - 2}") + "$"),
], ids=["negative-hbar", "nan-hbar", "count-over-limit", "seed-over-key-range"])
def test_rate_sweep_refuses_bad_draws_before_any_run(hbars, counts, seed, message,
                                                     monkeypatch, cos_model,
                                                     bench_state_1d):
    # a bad third hbar used to be refused only after the classical run, the
    # packet stack and two transports (-0.1), or to abort the stack (nan);
    # a third seed + 2 of 2**128 after them, in Philox's message
    def no_run(*args, **kwargs):
        raise AssertionError("a run was started")

    for name in ("simulate", "rk4_integrate"):
        monkeypatch.setattr(egorov.dynamics, name, no_run)
    monkeypatch.setattr(egorov, "wigner_sample", no_run)
    with pytest.raises(ValueError, match=message):
        egorov.rate_sweep(cos_model, bench_state_1d, hbars, counts, 0.01, 0.1, seed)




def test_transport_memory_does_not_grow_with_the_sample_count(
        monkeypatch, quartic_model, bench_state_2d):
    # each block draws its own rows, so no N-row array is alive at any
    # time; stored (x, xi) rows would add 61 MiB at N = 2 * 10^6
    monkeypatch.setattr(egorov, "MAX_WORKERS", 1)

    def peak(n):
        tracemalloc.start()
        try:
            ens = wigner_sample(bench_state_2d, 0.1, seed=3, N=n, sobol=True)
            propagate_ensemble(ens, quartic_model, dt=0.01, t_final=0.01,
                               observables=("q", "p"), final_only=True)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(20_000), peak(2_000_000)
    assert large <= small + 256 * 1024, (small, large)




@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="primes glibc's malloc thresholds")
def test_transport_does_not_fault_the_heap_in_at_every_step():
    # in a fresh interpreter, where glibc's malloc keeps its start-up
    # thresholds, four 1D blocks of 50 steps took 620 minor page faults
    # with the heap primed (egorov._HEAP_PRIMER) and 7 900 without
    script = ("import resource\n"
              "from gwpdyn import egorov\n"
              "from gwpdyn.packet import make_packet_state\n"
              "from gwpdyn.potentials import cosine_1d\n"
              "egorov.MAX_WORKERS = 1\n"
              "st = make_packet_state([0.5], [-1.0], [[0.0]], [[1.0]])\n"
              "ens = egorov.wigner_sample(st, 0.1, seed=1, N=4 * egorov.DEFAULT_CHUNK,"
              " sobol=True)\n"
              "f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
              "egorov.propagate_ensemble(ens, cosine_1d(), 0.01, 0.5)\n"
              "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)\n")
    src = os.path.dirname(os.path.dirname(egorov.__file__))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 2000


def test_replicate_standard_error_matches_the_spread_over_seeds(cos_model,
                                                               bench_state_1d):
    # the standard error from replicate means describes how the mean
    # varies from seed to seed, and it is far below the standard error of
    # as many independent draws
    seeds, n = 40, 2000
    means, ses, ses_independent = [], [], []
    for seed in range(seeds):
        runs = [propagate_ensemble(
            wigner_sample(bench_state_1d, 0.1, seed=100 + seed, N=n, sobol=sobol),
            cos_model, dt=0.01, t_final=1.0, observables=("q", "p"),
            final_only=True) for sobol in (True, False)]
        means.append(np.concatenate([runs[0].means["q"][-1], runs[0].means["p"][-1]]))
        ses.append(np.concatenate([runs[0].ses["q"][-1], runs[0].ses["p"][-1]]))
        ses_independent.append(np.concatenate([runs[1].ses["q"][-1],
                                               runs[1].ses["p"][-1]]))
    spread = np.std(means, axis=0, ddof=1)
    reported = np.sqrt(np.mean(np.square(ses), axis=0))
    # 40 seeds give the spread to about 11% (one sigma)
    assert np.all(np.abs(spread / reported - 1.0) < 0.35), spread / reported
    assert np.all(np.median(ses_independent, axis=0) > 10.0 * np.median(ses, axis=0))


@pytest.mark.parametrize("kind", ["runaway", "quartic2d"])
def test_paired_output_is_independent_of_workers_and_chunk_rounding(
        kind, monkeypatch, bench_state_2d):
    # the name dates from the antithetic-pair reference, whose blocks
    # were rounded to even rows;
    # each replicate's partial sums are added in block order, so pooled and
    # serial runs agree bitwise, NaN means and inf standard errors
    # included; another block cut adds them in other groups, which moves
    # only the last digits
    if kind == "runaway":
        model = quadratic_linear([[-900.0]], [0.0], 0.0, [[0.0]], [0.0])
        state = make_packet_state([0.0], [0.0], [[0.0]], [[1.0]])
        ens = wigner_sample(state, 0.5, seed=5, N=2000, sobol=True)
        obs, t_final = ("q", "p", "H0"), 23.43
    else:
        # 268 rows per replicate: blocks of 700 and 619 cut across them
        model, state = quartic_rotational_2d(), bench_state_2d
        ens = wigner_sample(state, 0.1, seed=6, N=2144, sobol=True)
        obs, t_final = ("q", "p", "H0", "Lz"), 0.3

    def run(chunk_size, workers):
        with monkeypatch.context() as m:
            m.setattr(egorov, "DEFAULT_CHUNK", chunk_size)
            m.setattr(egorov, "MAX_WORKERS", workers)
            with np.errstate(over="ignore", invalid="ignore"):
                return propagate_ensemble(ens, model, dt=0.01, t_final=t_final,
                                          observables=obs)

    reference = run(700, 1)
    if kind == "runaway":
        assert 0 < reference.excluded < 2000
    pooled, recut = run(700, 4), run(619, 1)
    assert pooled.excluded == recut.excluded == reference.excluded
    for name in obs:
        assert _same_bits(pooled.means[name], reference.means[name])
        assert _same_bits(pooled.ses[name], reference.ses[name])
        np.testing.assert_allclose(recut.means[name], reference.means[name],
                                   rtol=1e-12, atol=1e-14)
        # an SE about 1e-4 of its mean shows the sums' round-off 1e4-fold
        np.testing.assert_allclose(recut.ses[name], reference.ses[name], rtol=1e-10)


def _replicate_reference(ens, model, live, **run):
    """Mean and standard error of a stored sobol ensemble from its live
    rows: those of the replicate means, each from a transport of the
    replicate's own rows."""
    m = ens.n // egorov.REPLICATES
    parts = [propagate_ensemble(dataclasses.replace(
        ens, x=ens.x[r * m:(r + 1) * m][keep], xi=ens.xi[r * m:(r + 1) * m][keep],
        sobol=False), model, **run).means
        for r, keep in enumerate(live.reshape(egorov.REPLICATES, m))]
    return ({name: np.mean([p[name] for p in parts], axis=0) for name in parts[0]},
            {name: np.std([p[name] for p in parts], axis=0, ddof=1)
             / np.sqrt(egorov.REPLICATES) for name in parts[0]})


def test_a_dead_sample_leaves_its_replicate_alive(cos_model, bench_state_1d):
    ens = stored_rows(wigner_sample(bench_state_1d, 0.1, seed=13, N=3000,
                                    sobol=True))
    m = ens.n // egorov.REPLICATES
    x = ens.x.copy()
    x[7] = np.nan       # two samples of replicate 0
    x[20] = np.inf
    x[m + 2:2 * m] = np.inf     # all of replicate 1 but two samples
    live = np.isfinite(x[:, 0])
    est = propagate_ensemble(dataclasses.replace(ens, x=x), cos_model,
                             dt=0.01, t_final=0.3)
    means, ses = _replicate_reference(ens, cos_model, live, dt=0.01, t_final=0.3)
    assert est.excluded == m and est.n_samples == 3000
    for name in ("q", "p", "H0"):
        np.testing.assert_allclose(est.means[name], means[name],
                                   rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(est.ses[name], ses[name], rtol=1e-10)
    x[m:] = np.nan      # one live replicate is too few
    with pytest.raises(ValueError, match="fewer than two surviving replicates"):
        propagate_ensemble(dataclasses.replace(ens, x=x), cos_model,
                           dt=0.01, t_final=0.3)


def test_overflowed_replicate_statistics_raise_no_warning():
    # a survivor's H0 = |p|^2 / 2 - 450 q^2 is inf - inf = nan once both
    # terms overflow, so replicate means are not finite: the standard
    # error reads inf, not nan; pytest turns numpy warnings into errors,
    # and no np.errstate encloses the call
    model = quadratic_linear([[-900.0]], [0.0], 0.0, [[0.0]], [0.0])
    state = make_packet_state([0.0], [0.0], [[0.0]], [[1.0]])
    ens = wigner_sample(state, 0.5, seed=5, N=2000, sobol=True)
    est = propagate_ensemble(ens, model, dt=0.01, t_final=23.43)
    assert 0 < est.excluded < 2000
    assert np.isfinite(est.means["q"]).all()
    for name in ("q", "p", "H0"):
        assert np.isposinf(est.ses[name][-1]).all(), name


def test_observables_get_their_own_columns(monkeypatch, quartic_model,
                                           bench_state_2d):
    # the statistics of all observables are one stacked array; in any
    # order, each name must get its own columns, checked here against a
    # direct reduction over the same rows moved by the same flow step
    ens = stored_rows(wigner_sample(bench_state_2d, 0.1, seed=9, N=1000,
                                    sobol=True))
    x = ens.x.copy()
    x[301] = np.inf     # in replicate 2, rows 250-375, which two blocks share
    ens = dataclasses.replace(ens, x=x)
    monkeypatch.setattr(egorov, "DEFAULT_CHUNK", 300)
    obs = ("Lz", "p", "H0", "q")
    est = propagate_ensemble(ens, quartic_model, dt=0.01, t_final=0.2,
                             observables=obs)
    assert est.excluded == 1

    live = np.ones(ens.n, dtype=bool)
    live[301] = False
    replicate = (np.arange(ens.n) // (ens.n // egorov.REPLICATES))[live]
    xs, xis = ens.x, ens.xi
    for t in range(est.times.size):
        if t > 0:
            with np.errstate(over="ignore", invalid="ignore"):
                xs, xis = _classical_flow_step(xs, xis, quartic_model, 0.01)
        q, p = xs[live], xis[live]
        direct = {"q": q, "p": p,
                  "H0": classical_hamiltonian(ClassicalPhasePoint(q, p), quartic_model),
                  "Lz": q[:, 0] * p[:, 1] - q[:, 1] * p[:, 0]}
        for name in obs:
            v = direct[name]
            u = np.array([v[replicate == r].mean(axis=0)
                          for r in range(egorov.REPLICATES)])
            np.testing.assert_allclose(est.means[name][t], u.mean(axis=0), rtol=1e-12)
            np.testing.assert_allclose(
                est.ses[name][t], u.std(axis=0, ddof=1) / np.sqrt(u.shape[0]),
                rtol=1e-10)


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


def test_propagate_refuses_bad_arguments_by_name(cos_model, bench_state_2d):
    # a 2D ensemble under a 1D model used to end in numpy's IndexError, and
    # no observables in its "need at least one array to concatenate"
    ens = wigner_sample(bench_state_2d, 0.1, seed=0, N=50)
    with pytest.raises(ValueError, match="^state has dimension 2 but model "
                                         "'cosine1d' is 1-dimensional$"):
        propagate_ensemble(ens, cos_model, dt=0.01, t_final=0.1)
    with pytest.raises(ValueError, match=r"^no observables; choose from "
                                         r"\('q', 'p', 'H0', 'Lz'\)$"):
        propagate_ensemble(ens, quartic_rotational_2d(), dt=0.01, t_final=0.1,
                           observables=())


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
