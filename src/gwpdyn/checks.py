"""Built-in consistency suite used by the `check` CLI command.

Fast end-to-end sanity layer: analytic derivatives against finite
differences, the hand-derived flow against the numerical bracket flow,
exactness on the quadratic/affine family, conservation of energy and of
the width-corrected angular momentum, field symmetry, and the first two
moments of the Wigner sampler at reduced sample count.  Each check
returns a CheckResult; the suite passes only if every check does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dynamics, egorov
from .expectations import full_hamiltonian
from .packet import PacketState, make_packet_state
from .potentials import (_rel_dev, cosine_1d, fd_cross_check, quadratic_linear,
                         quartic_rotational_2d, rotational_symmetry_check)

__all__ = ["CheckResult", "run_check_suite", "random_state", "rel_field_dev"]

# Fewest sampler draws the suite accepts: enough for wigner_moments to
# detect a sampler whose x covariance is twice too large.  Such a
# sampler's variance estimates sit one target variance c off, against a
# scale of 2 c / sqrt(N), so it scores z = sqrt(N) / 2, whose own spread
# is sqrt(2); z >= 12, the limit 6 plus four of those spreads, needs
# N >= 576.
MIN_SAMPLES = 576


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def random_state(rng, d: int) -> PacketState:
    """Random admissible packet state with a well-conditioned B.

    Draws q, p, A, then W (B = W W^T + I) from rng in that order; the
    seeded tests rely on this order.
    """
    q = 0.8 * rng.standard_normal(d)
    p = 0.8 * rng.standard_normal(d)
    A = 0.8 * rng.standard_normal((d, d))
    A = 0.5 * (A + A.T)
    W = rng.standard_normal((d, d))
    B = W @ W.T + np.eye(d)
    return make_packet_state(q, p, A, B)


def rel_field_dev(lhs, rhs) -> float:
    """Worst entry deviation between two tuples of arrays, each relative
    to max(1, max |rhs entry|)."""
    dev = 0.0
    for a, b in zip(lhs, rhs):
        dev = max(dev, _rel_dev(a, b))
    return dev


def _check(name, passed, detail) -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def run_check_suite(egorov_samples: int = 20_000, seed: int = 0) -> list[CheckResult]:
    """Run all consistency checks.  Fewer than MIN_SAMPLES egorov_samples,
    a seed whose sampler key seed + 1 is no Philox key, or a count that
    wigner_sample refuses, is a ValueError before any check."""
    if egorov_samples < MIN_SAMPLES:
        raise ValueError(f"samples must be >= {MIN_SAMPLES} (fewer cannot detect a "
                         f"sampler whose x covariance is twice too large), "
                         f"got {egorov_samples}")
    egorov._check_seed(seed, offset=1)
    # the sampler check's ensemble is a recipe, made first so that a bad
    # seed or count is refused before any check runs
    stw = make_packet_state([0.3, -0.2], [0.4, 1.0],
                            [[0.5, -0.3], [-0.3, 0.2]], [[1.0, 0.4], [0.4, 2.0]])
    ens = egorov.wigner_sample(stw, 0.2, seed=seed + 1, N=egorov_samples)
    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []
    models = {"cosine1d": cosine_1d(), "quartic2d": quartic_rotational_2d()}

    # --- analytic derivatives vs finite differences
    for name, model in models.items():
        worst = 0.0
        failed: list[str] = []
        for _ in range(5):
            x = rng.uniform(-1.5, 1.5, size=model.dim)
            rep = fd_cross_check(model, x, tol=1e-6)
            worst = max(worst, max(rep.deviations.values()))
            failed.extend(rep.failed)
        results.append(_check(
            f"fd_cross_check[{name}]", not failed,
            f"max relative deviation {worst:.2e} (tol 1e-6)"
            + (f"; failed: {', '.join(dict.fromkeys(failed))}" if failed else "")))

    # --- hand-derived flow vs numerical bracket flow
    for name, model in models.items():
        worst = 0.0
        for _ in range(5):
            st = random_state(rng, model.dim)
            hbar = float(rng.uniform(0.05, 0.5))
            field = dynamics.semiclassical_rhs(st, model, hbar)
            ref = dynamics.bracket_rhs(
                lambda s: dynamics.semiclassical_hamiltonian(s, model, hbar),
                st, hbar)
            worst = max(worst, rel_field_dev(field, ref))
        results.append(_check(
            f"bracket_consistency[{name}]", worst <= 1e-5,
            f"max relative deviation {worst:.2e} (tol 1e-5)"))

    # --- exactness on the quadratic/affine family
    d = 2
    K = rng.standard_normal((d, d))
    K = K @ K.T + np.eye(d)
    model_q = quadratic_linear(K, rng.standard_normal(d), float(rng.standard_normal()),
                               rng.standard_normal((d, d)), rng.standard_normal(d))
    worst_rhs = 0.0
    states, hbars = [], []
    for _ in range(5):
        st = random_state(rng, d)
        hbar = float(rng.uniform(0.05, 0.5))
        semi = dynamics.semiclassical_rhs(st, model_q, hbar)
        zhou = dynamics.semiclassical_rhs(st, model_q, 0.0)
        worst_rhs = max(worst_rhs, rel_field_dev(semi, zhou))
        states.append(st)
        hbars.append(hbar)
    # the five energies in one stacked call each
    stack = PacketState(*(np.stack(ys) for ys in zip(*map(dynamics._fields, states))))
    hbars = np.array(hbars)
    worst_h = float(np.max(np.abs(full_hamiltonian(stack, model_q, hbars)
                                  - dynamics.semiclassical_hamiltonian(stack, model_q, hbars))))
    results.append(_check(
        "exact_regime[quadratic]", worst_rhs <= 1e-12 and worst_h <= 1e-12,
        f"rhs deviation {worst_rhs:.2e}, energy deviation {worst_h:.2e} (tol 1e-12)"))

    # --- energy conservation, 1D benchmark
    st1 = make_packet_state([0.5], [-1.0], [[0.0]], [[1.0]])
    traj = dynamics.simulate(models["cosine1d"], "semiclassical", st1,
                             hbar=0.1, dt=0.01, t_final=3.0)
    h = traj.monitors["Hhbar"]
    drift = float(np.max(np.abs(h - h[0])) / max(1.0, abs(h[0])))
    results.append(_check(
        "energy_conservation[cosine1d]", traj.completed and drift < 1e-7,
        f"relative Hhbar drift {drift:.2e} over [0, 3] at dt=0.01 (tol 1e-7)"))

    # --- rotational symmetry and angular-momentum conservation, 2D
    th = 0.7
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    sym_ok = all(rotational_symmetry_check(models["quartic2d"], R, rng.uniform(-1.0, 1.0, 2))
                 for _ in range(3))
    st2 = make_packet_state([0.5, 0.0], [0.0, 0.5],
                            [[0.3, -0.2], [-0.2, 0.1]], [[1.0, 0.2], [0.2, 1.0]])
    traj2 = dynamics.simulate(models["quartic2d"], "semiclassical", st2,
                              hbar=0.1, dt=0.01, t_final=10.0)
    j = traj2.monitors["J12"]
    h2 = traj2.monitors["Hhbar"]
    jdrift = float(np.max(np.abs(j - j[0])))
    hdrift = float(np.max(np.abs(h2 - h2[0])) / max(1.0, abs(h2[0])))
    results.append(_check(
        "noether_drift[2d]",
        traj2.completed and sym_ok and jdrift < 1e-7 and hdrift < 1e-7,
        f"J12 drift {jdrift:.2e}, relative Hhbar drift {hdrift:.2e} over "
        f"[0, 10] at dt=0.01 (tol 1e-7), symmetry {'ok' if sym_ok else 'BROKEN'}"))

    # --- Wigner sampler moments at reduced N
    hbar = ens.hbar
    x, xi = ens.rows(0, ens.n)
    Binv = np.linalg.inv(stw.B_mat)
    cov_x = 0.5 * hbar * Binv
    cov_xi = 0.5 * hbar * (stw.B_mat + stw.A_mat @ Binv @ stw.A_mat)
    worst_z = 0.0
    for data, target_mean, target_cov in ((x.T, stw.q, cov_x), (xi.T, stw.p, cov_xi)):
        se = np.sqrt(np.diag(target_cov) / ens.n)
        worst_z = max(worst_z, float(np.max(np.abs(data.mean(axis=0) - target_mean) / se)))
        emp = np.cov(data.T)
        # covariance entries fluctuate at O(cov/sqrt(n)); allow 6 sigma
        cov_se = (np.sqrt(np.outer(np.diag(target_cov), np.diag(target_cov)))
                  + np.abs(target_cov)) / np.sqrt(ens.n)
        worst_z = max(worst_z, float(np.max(np.abs(emp - target_cov) / cov_se)))
    results.append(_check(
        "wigner_moments", worst_z < 6.0,
        f"worst moment z-score {worst_z:.2f} at N={ens.n} (limit 6)"))

    return results
