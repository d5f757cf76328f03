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
For speed the ensemble is moved in cache-sized blocks stored
component-major, (d, b); the flow sees their (b, d) transposed views,
which the batched classical_rhs keeps in the same memory layout.

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
# Samples per transport block.  A block's state and RK4 stage arrays
# then take about 2 MiB in d = 2, the size of the L2 cache; on the 2D
# rate sweep 4096 and 16384 both measured slower, from call overhead
# and from cache misses respectively.
DEFAULT_CHUNK = 8192


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
    ("H0", "Lz") to (T,) arrays, one row per entry of times (every grid
    time, or t_final alone for a final_only run).  excluded counts
    samples that became non-finite during transport and were dropped
    from that time onward.
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
    if not (np.isfinite(hbar) and hbar > 0.0):
        raise ValueError(f"hbar must be positive and finite, got {hbar}")
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
                       chunk_size: int = DEFAULT_CHUNK,
                       final_only: bool = False) -> EgorovEstimate:
    """Transport the ensemble classically, recording observable statistics.

    Each block of chunk_size samples is stored component-major, (d, b),
    and carried through every step before the next block starts; the
    flow and the observables see its (b, d) transposed views.  Means and
    standard errors (stddev / sqrt(n_alive)) are accumulated block by
    block in a fixed order, so results for a given (ensemble, dt,
    t_final, chunk_size) are bitwise reproducible.  With final_only the
    statistics are reduced at t_final alone and `times` holds only
    t_final; that row is bitwise the last row of the full series.
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

    first = T - 1 if final_only else 0   # first grid time reduced
    R = T - first

    def width(name):
        return (R, d) if name in ("q", "p") else (R,)

    sums = {name: np.zeros(width(name)) for name in observables}
    sqs = {name: np.zeros(width(name)) for name in observables}
    counts = np.zeros(R, dtype=np.int64)

    for i0 in range(0, ensemble.n, chunk_size):
        i1 = min(i0 + chunk_size, ensemble.n)
        x = ensemble.x[i0:i1].T.copy()     # component-major (d, b)
        xi = ensemble.xi[i0:i1].T.copy()
        # alive is None while every row of the block is finite; rows that
        # arrive non-finite are excluded from the start
        alive = None
        for t in range(T):
            if t > 0:
                xs, xis = _classical_flow_step(x.T, xi.T, model, dt)
                x, xi = xs.T, xis.T
            # one pass over the block; the per-sample mask only on failure
            if not (np.isfinite(x).all() and np.isfinite(xi).all()):
                ok = np.isfinite(x).all(axis=0) & np.isfinite(xi).all(axis=0)
                x[:, ~ok] = 0.0
                xi[:, ~ok] = 0.0
                alive = ok if alive is None else alive & ok
            if t < first:
                continue
            r = t - first
            counts[r] += x.shape[1] if alive is None else int(alive.sum())
            for name in observables:
                vals = _observe(name, x.T, xi.T, model).T
                if alive is not None:
                    vals = np.where(alive, vals, 0.0)
                sums[name][r] += vals.sum(axis=-1)
                sqs[name][r] += (vals * vals).sum(axis=-1)

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
    return EgorovEstimate(times=times[first:], means=means, ses=ses,
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
