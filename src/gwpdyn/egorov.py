"""Monte-Carlo quantum expectations via classical transport.

The Wigner transform of a normalized Gaussian packet is the phase-space
Gaussian

    W(x, xi) = (pi hbar)^-d exp(-(1/hbar) [ (x-q).B(x-q)
               + (xi - p - A_w(x-q)).B^-1 (xi - p - A_w(x-q)) ]),

so expectations of an observable O at time t can be estimated by drawing
(x, xi) ~ W, flowing each draw with the *classical* equations of motion,
and averaging O along the way.  Up to O(hbar^2) this reproduces the
quantum evolution and is used here as the reference the packet
propagators are measured against.

The ensemble owns no equations of its own: it is moved by
dynamics.rk4_step applied to the batched dynamics.classical_rhs, on the
grid of dynamics.time_grid, and H0 and Lz are the batched
dynamics.classical_hamiltonian and observables.classical_angular_momentum,
so a sample row follows exactly the classical packet-center trajectory.

Sampling is counter-based: sample i consumes exactly 2d fixed slots of
the Philox stream, so ensembles are reproducible bit-for-bit regardless
of generation chunking, and uniforms are mapped through the exact
inverse normal CDF.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .dynamics import (ClassicalPhasePoint, classical_hamiltonian,
                       classical_rhs, rk4_step, time_grid)
from .observables import classical_angular_momentum
from .packet import PacketState
from .potentials import FieldModel

__all__ = [
    "PhaseEnsemble",
    "EgorovEstimate",
    "wigner_sample",
    "propagate_ensemble",
    "phase_error",
]

OBSERVABLES = ("q", "p", "H0", "Lz")
DEFAULT_CHUNK = 250_000


@dataclass(frozen=True)
class PhaseEnsemble:
    """Phase-space draws (x, xi) from the Wigner density of a packet."""

    x: np.ndarray       # (n, d)
    xi: np.ndarray      # (n, d)
    seed: int
    n: int
    hbar: float

    @property
    def d(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class EgorovEstimate:
    """Time series of ensemble means and standard errors per observable.

    means/ses map "q" and "p" to (T, d) arrays and scalar observables
    ("H0", "Lz") to (T,) arrays.  excluded counts samples that became
    non-finite during transport and were dropped from that time onward.
    """

    times: np.ndarray
    means: dict
    ses: dict
    n_samples: int
    excluded: int


def wigner_sample(state0: PacketState, hbar: float, seed: int, N: int,
                  chunk_size: int = DEFAULT_CHUNK) -> PhaseEnsemble:
    """Draw N phase-space points from the Wigner density of state0.

    Uses the factorization x ~ N(q, (hbar/2) B^-1) and
    xi = p + A_w (x - q) + eta with eta ~ N(0, (hbar/2) B), which
    reproduces W exactly.  Sample i is a pure function of (seed, i): it
    reads a fixed stride of the Philox(key=seed) stream, block-aligned
    so that results are bitwise independent of chunk_size.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if not hbar > 0.0:
        raise ValueError(f"hbar must be positive, got {hbar}")
    d = state0.d
    L = np.linalg.cholesky(state0.B_mat)
    Linv = np.linalg.inv(L)
    scale = np.sqrt(0.5 * hbar)
    # Philox.advance counts 128-bit blocks (4 uint64 draws); pad the
    # per-sample draw count up to a whole number of blocks so every
    # chunk start can be reached exactly.
    stride = -(-2 * d // 4) * 4

    x = np.empty((N, d))
    xi = np.empty((N, d))
    for i0 in range(0, N, chunk_size):
        i1 = min(i0 + chunk_size, N)
        bg = np.random.Philox(key=seed)
        bg.advance(stride // 4 * i0)
        u = np.random.Generator(bg).random((i1 - i0, stride))[:, :2 * d]
        # ndtri(0) is -inf; clamp the (measure-zero) exact zeros
        e = ndtri(np.clip(u, 1e-300, None))
        dx = scale * (e[:, :d] @ Linv)
        eta = scale * (e[:, d:] @ L.T)
        x[i0:i1] = state0.q + dx
        xi[i0:i1] = state0.p + dx @ state0.A_mat.T + eta
    return PhaseEnsemble(x=x, xi=xi, seed=seed, n=N, hbar=hbar)


def _classical_flow_step(x, xi, model: FieldModel, dt: float):
    """One RK4 step of the magnetic Hamiltonian flow, vectorized over rows."""
    return rk4_step(lambda ys: classical_rhs(ClassicalPhasePoint(*ys), model),
                    (x, xi), dt)


def _observe(name: str, x, xi, model: FieldModel):
    if name == "q":
        return x
    if name == "p":
        return xi
    if name == "H0":
        return classical_hamiltonian(ClassicalPhasePoint(x, xi), model)
    if name == "Lz":
        return classical_angular_momentum(ClassicalPhasePoint(x, xi))
    raise ValueError(f"unknown observable {name!r}; choose from {OBSERVABLES}")


def propagate_ensemble(ensemble: PhaseEnsemble, model: FieldModel, dt: float,
                       t_final: float, observables=("q", "p", "H0"),
                       chunk_size: int = DEFAULT_CHUNK) -> EgorovEstimate:
    """Transport the ensemble classically, recording observable statistics.

    Means and standard errors (stddev / sqrt(n_alive)) are accumulated
    at every grid time in fixed chunk order, so results for a given
    (ensemble, dt, t_final, chunk_size) are bitwise reproducible.
    Samples that blow up are zeroed, masked out from their failure time
    onward, and counted in `excluded`.
    """
    times = time_grid(dt, t_final)
    T = times.shape[0]
    d = ensemble.d
    observables = tuple(observables)
    for name in observables:
        if name not in OBSERVABLES:
            raise ValueError(f"unknown observable {name!r}; choose from {OBSERVABLES}")
        if name == "Lz" and d != 2:
            raise ValueError("observable Lz requires d = 2")

    def width(name):
        return (T, d) if name in ("q", "p") else (T,)

    sums = {name: np.zeros(width(name)) for name in observables}
    sqs = {name: np.zeros(width(name)) for name in observables}
    counts = np.zeros(T, dtype=np.int64)

    for i0 in range(0, ensemble.n, chunk_size):
        i1 = min(i0 + chunk_size, ensemble.n)
        x = ensemble.x[i0:i1].copy()
        xi = ensemble.xi[i0:i1].copy()
        # rows that arrive non-finite are excluded from the start
        alive = np.isfinite(x).all(axis=1) & np.isfinite(xi).all(axis=1)
        x[~alive] = 0.0
        xi[~alive] = 0.0
        for t in range(T):
            counts[t] += int(alive.sum())
            for name in observables:
                vals = _observe(name, x, xi, model)
                if vals.ndim == 1:
                    vals = np.where(alive, vals, 0.0)
                else:
                    vals = vals * alive[:, None]
                sums[name][t] += vals.sum(axis=0)
                sqs[name][t] += (vals * vals).sum(axis=0)
            if t < T - 1:
                x, xi = _classical_flow_step(x, xi, model, dt)
                ok = np.isfinite(x).all(axis=1) & np.isfinite(xi).all(axis=1)
                died = alive & ~ok
                if died.any():
                    x[died] = 0.0
                    xi[died] = 0.0
                    alive &= ok

    if np.any(counts < 2):
        raise RuntimeError("fewer than two surviving samples; cannot form errors")
    means = {}
    ses = {}
    for name in observables:
        c = counts if sums[name].ndim == 1 else counts[:, None]
        mean = sums[name] / c
        var = np.maximum(sqs[name] - c * mean * mean, 0.0) / (c - 1)
        means[name] = mean
        ses[name] = np.sqrt(var / c)
    return EgorovEstimate(times=times, means=means, ses=ses,
                          n_samples=ensemble.n,
                          excluded=int(ensemble.n - counts[-1]))


def phase_error(model_traj, egorov_estimate: EgorovEstimate, t_star: float) -> float:
    """Euclidean distance in (q, p) between a trajectory and the ensemble
    mean at time t_star, which must lie on both time grids."""
    def locate(times, label):
        idx = np.nonzero(np.abs(times - t_star) <= 1e-9)[0]
        if idx.size == 0:
            raise ValueError(f"t_star={t_star} is not on the {label} time grid")
        return int(idx[0])

    it = locate(model_traj.times, "trajectory")
    ie = locate(egorov_estimate.times, "ensemble")
    if "q" not in egorov_estimate.means or "p" not in egorov_estimate.means:
        raise ValueError("ensemble estimate lacks q/p means")
    dq = egorov_estimate.means["q"][ie] - model_traj.positions[it]
    dp = egorov_estimate.means["p"][ie] - model_traj.momenta[it]
    return float(np.sqrt(dq @ dq + dp @ dp))
