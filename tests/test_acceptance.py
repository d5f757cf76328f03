"""End-to-end acceptance gate.

Each test prints one ACCEPTANCE line (PASS/FAIL) before asserting; the
verdicts are repeated in the pytest terminal summary so they are visible
without -s.  All randomness is seeded; every tolerance is a module
constant.
"""

import time

import numpy as np

from conftest import record_verdict
from gwpdyn.checks import random_state, rel_field_dev
from gwpdyn.dynamics import (bracket_rhs, classical_hamiltonian,
                             semiclassical_hamiltonian, semiclassical_rhs,
                             simulate)
from gwpdyn.egorov import propagate_ensemble, rate_sweep, wigner_sample
from gwpdyn.expectations import (asymptotic_expectation, full_hamiltonian,
                                 gaussian_expectation)
from gwpdyn.observables import loglog_fit, semiclassical_angular_momentum
from gwpdyn.packet import make_packet_state
from gwpdyn.potentials import cosine_1d, quadratic_linear, quartic_rotational_2d

EXACT_TOL = 1e-12
BRACKET_TOL = 1e-5
DRIFT_TOL = 1e-7
RATIO_BAND = (3.2, 4.8)
MEAN_Z, ENERGY_Z, GAP_Z = 4.0, 5.0, 3.0
SE_RATIO_BAND = (1.7, 2.3)
RATE_1D_SEMI, RATE_1D_CLASSICAL = (1.5, 2.2), (0.7, 1.1)
RATE_2D_SEMI, RATE_2D_CLASSICAL = (1.0, 1.7), (0.55, 0.95)
SWEEP_HBARS = (0.5, 0.3, 0.1, 0.05, 0.03, 0.01)
SWEEP_COUNTS = (100_000, 100_000, 100_000, 100_000, 1_000_000, 1_000_000)
BUDGET_1D, BUDGET_2D = 600.0, 1200.0
# every point of a rate sweep must resolve its semiclassical error by at
# least this many reference standard errors
POWER_Z = 5.0


def _verdict(num: int, label: str, ok: bool) -> bool:
    line = f"ACCEPTANCE {num} {label}: {'PASS' if ok else 'FAIL'}"
    print(line)
    record_verdict(line)
    return ok


def test_acceptance_1_quadratic_fields_are_exact():
    # on quadratic V and affine A the order-hbar flow must coincide with
    # plain width transport and the full packet energy with its
    # asymptotic form, both to round-off
    rng = np.random.default_rng(410)
    worst_rhs = worst_h = 0.0
    for _ in range(10):
        d = int(rng.integers(1, 4))
        K = rng.standard_normal((d, d))
        model = quadratic_linear(K @ K.T + 0.5 * np.eye(d),
                                 rng.standard_normal(d),
                                 float(rng.standard_normal()),
                                 rng.standard_normal((d, d)),
                                 rng.standard_normal(d),
                                 mass=float(rng.uniform(0.5, 2.0)))
        for _ in range(10):
            st = random_state(rng, d)
            hbar = float(rng.uniform(0.05, 0.8))
            worst_rhs = max(worst_rhs, rel_field_dev(
                semiclassical_rhs(st, model, hbar), semiclassical_rhs(st, model, 0.0)))
            hs = semiclassical_hamiltonian(st, model, hbar)
            hf = full_hamiltonian(st, model, hbar, nodes=20)
            worst_h = max(worst_h, abs(hf - hs) / max(1.0, abs(hs)))
    ok = worst_rhs <= EXACT_TOL and worst_h <= EXACT_TOL
    assert _verdict(1, "exact flow and energy on quadratic fields", ok), \
        f"rhs dev {worst_rhs:.2e}, energy dev {worst_h:.2e}"


def test_acceptance_2_flow_matches_energy_bracket():
    # the hand-derived equations of motion against central finite
    # differences of the effective energy under the packet bracket
    worst = 0.0
    for seed, model in ((420, cosine_1d()), (421, quartic_rotational_2d())):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            st = random_state(rng, model.dim)
            hbar = float(rng.uniform(0.05, 0.5))
            field = semiclassical_rhs(st, model, hbar)
            ref = bracket_rhs(
                lambda s: semiclassical_hamiltonian(s, model, hbar), st, hbar)
            worst = max(worst, rel_field_dev(field, ref))
    ok = worst <= BRACKET_TOL
    assert _verdict(2, "derived flow matches numerical bracket", ok), \
        f"worst relative deviation {worst:.2e}"


def test_acceptance_3_invariants_conserved_along_flow(bench_state_1d,
                                                     bench_state_2d):
    drifts = []
    for hbar in (0.5, 0.1, 0.01):
        traj = simulate(cosine_1d(), "semiclassical", bench_state_1d,
                        hbar, 0.01, 3.0)
        h = traj.monitors["Hhbar"]
        drifts.append(traj.completed
                      and np.max(np.abs(h - h[0])) / abs(h[0]) < DRIFT_TOL)
    j_ok = all(abs(semiclassical_angular_momentum(bench_state_2d, hb)[0, 1]
                   + 1.0 + hb) <= 1e-12 * (1.0 + hb) for hb in (0.5, 0.1, 0.01))
    traj2 = simulate(quartic_rotational_2d(), "semiclassical", bench_state_2d,
                     0.1, 5e-4, 10.0)
    h2 = traj2.monitors["Hhbar"]
    j2 = traj2.monitors["J12"]
    ok2 = (traj2.completed
           and np.max(np.abs(h2 - h2[0])) / abs(h2[0]) < DRIFT_TOL
           and np.max(np.abs(j2 - j2[0])) < DRIFT_TOL)
    ok = all(drifts) and j_ok and ok2
    assert _verdict(3, "energy and angular momentum conserved", ok), \
        (drifts, j_ok, ok2)


def test_acceptance_4_laplace_correction_has_quadratic_remainder():
    # halving hbar must quarter the gap between the exact Gaussian
    # average of cos and its order-hbar approximation
    st = make_packet_state([0.7], [0.0], [[0.0]], [[0.9]])
    obs = lambda pts: np.cos(pts[:, 0])
    rems = []
    for hbar in (0.4, 0.2, 0.1, 0.05):
        exact = gaussian_expectation(obs, st.q, st.B_mat, hbar)
        approx = asymptotic_expectation(np.cos(st.q[0]),
                                        [[-np.cos(st.q[0])]],
                                        st.B_mat, hbar)
        rems.append(abs(exact - approx))
    ratios = [rems[i] / rems[i + 1] for i in range(len(rems) - 1)]
    ok = all(RATIO_BAND[0] < r < RATIO_BAND[1] for r in ratios)
    assert _verdict(4, "asymptotic remainder shrinks at second order", ok), \
        f"ratios {ratios}"


def test_acceptance_5_monte_carlo_reference_validates_on_harmonic():
    model = quadratic_linear([[1.0]], [0.0], 0.0, [[0.0]], [0.0])
    st = make_packet_state([1.0], [0.0], [[0.0]], [[1.0]])
    hbar = 0.1
    ens = wigner_sample(st, hbar, seed=21, N=100_000)
    est = propagate_ensemble(ens, model, 0.01, 3.0,
                             observables=("q", "p", "H0"))
    sub = slice(None, None, 25)
    t = est.times[sub]
    zq = np.max(np.abs((est.means["q"][sub, 0] - np.cos(t))
                       / est.ses["q"][sub, 0]))
    zp = np.max(np.abs((est.means["p"][sub, 0] + np.sin(t))
                       / est.ses["p"][sub, 0]))
    ze = abs(est.means["H0"][0] - full_hamiltonian(st, model, hbar)) \
        / est.ses["H0"][0]
    ratios = []
    for n in (20_000, 80_000):
        e = wigner_sample(st, hbar, seed=33, N=n)
        r = propagate_ensemble(e, model, 0.01, 1.0)
        ratios.append(r.ses["q"][-1, 0])
    se_ratio = ratios[0] / ratios[1]
    ok = (zq < MEAN_Z and zp < MEAN_Z and ze < ENERGY_Z
          and SE_RATIO_BAND[0] < se_ratio < SE_RATIO_BAND[1]
          and est.excluded == 0)
    assert _verdict(5, "Monte-Carlo reference exact on the harmonic case",
                    ok), f"zq={zq:.2f} zp={zp:.2f} ze={ze:.2f} ratio={se_ratio:.2f}"


def _rate_gate(model, state, t_star, seed, semi_band, classical_band, budget):
    # the paper's rate sweep as `converge` runs it, at dt = 0.01; the
    # verdict and its detail
    t0 = time.time()
    err_c, err_s, se = map(np.array, rate_sweep(
        model, state, SWEEP_HBARS, SWEEP_COUNTS, 0.01, t_star, seed))
    elapsed = time.time() - t0
    rate_c = loglog_fit(SWEEP_HBARS, err_c)[1]
    rate_s = loglog_fit(SWEEP_HBARS, err_s)[1]
    z = err_s / se
    ok = (semi_band[0] <= rate_s <= semi_band[1]
          and classical_band[0] <= rate_c <= classical_band[1]
          and np.all(err_s < err_c)
          and np.all(z >= POWER_Z)
          and elapsed < budget)
    return ok, (f"rates classical {rate_c:.3f} / semiclassical {rate_s:.3f}, "
                f"errors {err_s} vs {err_c}, smallest err_s/se {z.min():.1f} "
                f"at hbar {SWEEP_HBARS[z.argmin()]}, {elapsed:.0f}s")


def test_acceptance_6_order_hbar_convergence_1d(bench_state_1d):
    ok, detail = _rate_gate(cosine_1d(), bench_state_1d, 1.6, 1000,
                            RATE_1D_SEMI, RATE_1D_CLASSICAL, BUDGET_1D)
    assert _verdict(6, "error decays at higher order in 1D", ok), detail


def test_acceptance_7_order_hbar_convergence_2d(bench_state_2d):
    ok, detail = _rate_gate(quartic_rotational_2d(), bench_state_2d, 2.0, 2000,
                            RATE_2D_SEMI, RATE_2D_CLASSICAL, BUDGET_2D)
    assert _verdict(7, "error decays at higher order in 2D", ok), detail


def test_acceptance_8_initial_energy_discrimination(bench_state_1d,
                                                   bench_state_2d):
    # at t=0 the sampled quantum energy must sit on the width-corrected
    # level, measurably away from the classical center energy
    ok = True
    detail = []
    for model, st in ((cosine_1d(), bench_state_1d),
                      (quartic_rotational_2d(), bench_state_2d)):
        for j, hbar in enumerate((0.5, 0.1, 0.05)):
            ens = wigner_sample(st, hbar, seed=500 + j, N=1_000_000)
            est = propagate_ensemble(ens, model, 0.01, 0.0,
                                     observables=("H0",))
            e0, se = est.means["H0"][0], est.ses["H0"][0]
            d_cl = abs(e0 - classical_hamiltonian(st, model))
            d_sc = abs(e0 - semiclassical_hamiltonian(st, model, hbar))
            ok = ok and d_sc < d_cl and (d_cl - d_sc) > GAP_Z * se
            detail.append(f"{model.name} h={hbar}: {d_sc:.2e} vs {d_cl:.2e} "
                          f"(se {se:.1e})")
    assert _verdict(8, "sampled energy sits on the corrected level", ok), \
        "; ".join(detail)


def test_acceptance_9_angular_momentum_tracking_2d(bench_state_2d):
    # the conserved entry of the width-corrected matrix must track the
    # ensemble angular momentum, which the classical value misses by the
    # order-hbar offset
    model = quartic_rotational_2d()
    hbar = 0.1
    ens = wigner_sample(bench_state_2d, hbar, seed=77, N=100_000)
    est = propagate_ensemble(ens, model, 0.01, 5.0,
                             observables=("q", "p", "Lz"))
    ts = simulate(model, "semiclassical", bench_state_2d, hbar, 0.002, 5.0)
    tc = simulate(model, "classical", bench_state_2d, hbar, 0.01, 5.0)
    idx = np.arange(est.times.shape[0]) * 5
    assert np.max(np.abs(ts.times[idx] - est.times)) < 1e-12
    errs_semi = np.abs(est.means["Lz"] + ts.monitors["J12"][idx])
    errs_cl = np.abs(est.means["Lz"] - tc.monitors["Lz_classical"])
    z = np.max(errs_semi / est.ses["Lz"])
    ok = (z < 6.0
          and np.max(errs_semi) < 0.5 * np.min(errs_cl)
          and ts.completed and tc.completed and est.excluded == 0)
    assert _verdict(9, "corrected angular momentum tracks the ensemble",
                    ok), f"max z {z:.2f}, semi {np.max(errs_semi):.2e} vs " \
                         f"classical {np.min(errs_cl):.2e}"
