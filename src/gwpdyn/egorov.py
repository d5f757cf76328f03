"""Monte-Carlo quantum expectations via classical transport.

The Wigner transform of a normalized Gaussian packet is the phase-space
Gaussian

    W(x, xi) = (pi hbar)^-d exp(-(1/hbar) [ (x-q).B(x-q)
               + (xi - p - A_w(x-q)).B^-1 (xi - p - A_w(x-q)) ]),

so expectations of an observable O at time t can be estimated by drawing
(x, xi) ~ W, flowing each draw with the *classical* equations of motion,
and averaging O along the way.  Up to O(hbar^2) this reproduces the
quantum evolution and is used here as the reference the packet
propagators are measured against; rate_sweep measures both packet
flows' errors at one time over a list of hbars, the paper's rate sweep.

rate_sweep and the egorov command draw their references as antithetic
pairs (wigner_sample with paired=True): each draw is followed by its
mirror through the packet center, which has the same Gaussian
distribution.  The odd part of the flow's response cancels within a
pair, so the mean of N paired rows has about 9 times less variance than
that of N independent draws on the 2D rate sweep, and about 67 times
less on the 1D cosine series, at the same transport cost.  A paired
ensemble's standard errors come from its pair means, and a pair with a
non-finite member is dropped whole.

The ensemble owns no equations of its own: it is moved by
dynamics.rk4_step applied to the batched dynamics.classical_rhs, on the
grid of dynamics.time_grid, and H0 and Lz are the batched
dynamics.classical_hamiltonian and observables.classical_angular_momentum,
so a sample row follows exactly the classical packet-center trajectory.
An ensemble is a recipe, never an N-row array: for speed it is moved in
cache-sized blocks, each of which draws its own rows (PhaseEnsemble.rows)
stored component-major, (d, b); the flow sees their (b, d) transposed
views, which the batched classical_rhs keeps in the same memory layout.

Blocks are independent, so propagate_ensemble hands them to a pool of
W = min(MAX_WORKERS, usable CPUs, number of blocks) worker processes
started with "fork": the model and the ensemble reach the workers
through the fork itself (a FieldModel holds closures, which cannot be
pickled), and only block starts and per-block partial sums cross the
pipes.  The partial sums are added into the totals in block order,
exactly as a serial loop adds them, so results are bitwise independent
of W.  With one block, one usable CPU, no "fork" start method or a
calling process that is itself a daemonic worker, the same block
function runs in-process through a plain map.  A fork copies only the
calling thread, so a caller whose other threads may hold locks should
transport from a process of its own.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.special import ndtri

from . import dynamics
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
    "rate_sweep",
]

OBSERVABLES = ("q", "p", "H0", "Lz")
# Samples per transport block.  A block's state and RK4 stage arrays
# then take about 2 MiB in d = 2, the size of the L2 cache; on the 2D
# rate sweep 4096 and 16384 both measured slower, from call overhead
# and from cache misses respectively.
DEFAULT_CHUNK = 8192
# Most transport worker processes one propagate_ensemble call forks; the
# usable CPUs and the number of blocks cap it further.
MAX_WORKERS = 4
# Largest ensemble wigner_sample accepts.  Rows are drawn block by block,
# so no allocation refuses a huge count; at this limit one transport step
# already takes hours, so a larger count is refused before any run.
MAX_SAMPLES = 10 ** 12


@dataclass(frozen=True)
class PhaseEnsemble:
    """The recipe of n draws from the Wigner density of state0 (see
    wigner_sample).  A paired ensemble holds antithetic pairs in rows 2j
    and 2j + 1; its statistics treat each pair as one unit.
    """

    state0: PacketState
    hbar: float
    seed: int
    n: int
    paired: bool = False

    @property
    def d(self) -> int:
        return self.state0.d

    def rows(self, i0: int, i1: int):
        """Rows i0..i1 (both even if paired) as component-major (d, b) arrays
        x and xi, from x ~ N(q, (hbar/2) B^-1) and xi = p + A_w (x - q) + eta
        with eta ~ N(0, (hbar/2) B), which reproduces W exactly.  Draw j
        maps its own stride of the Philox(key=seed) stream, reached by
        Philox.advance, through the exact inverse normal CDF, so a row is
        bitwise the same however rows are cut into calls.
        """
        st, d, k = self.state0, self.d, 2 if self.paired else 1
        L = np.linalg.cholesky(st.B_mat)
        scale = np.sqrt(0.5 * self.hbar)
        # Philox.advance counts 128-bit blocks (4 uint64 draws); a draw's
        # stride is padded to whole blocks, so every draw can be reached.
        stride = -(-2 * d // 4) * 4
        bg = np.random.Philox(key=self.seed)
        bg.advance(stride // 4 * (i0 // k))
        u = np.random.Generator(bg).random(((i1 - i0) // k, stride))
        # ndtri(0) is -inf; clamp the (measure-zero) exact zeros
        e = np.clip(u[:, :2 * d], 1e-300, None)
        ndtri(e, out=e)
        dx = e[:, :d] @ np.linalg.inv(L)
        dx *= scale
        eta = e[:, d:] @ L.T
        eta *= scale
        x, xi = np.empty((d, i1 - i0)), np.empty((d, i1 - i0))
        np.add(st.q, dx, out=x.T[::k])
        np.add(st.p, dx @ st.A_mat.T, out=xi.T[::k])
        xi.T[::k] += eta
        if self.paired:
            np.subtract(2.0 * st.q, x.T[::2], out=x.T[1::2])
            np.subtract(2.0 * st.p, xi.T[::2], out=xi.T[1::2])
        return x, xi


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


def _check_draw(hbar: float, n: int, paired: bool, seed: int) -> None:
    """ValueError unless hbar > 0 is finite, n rows make an ensemble (1 to
    MAX_SAMPLES rows, and if paired an even number of at least 4) and seed
    is a Philox key, in [0, 2**128)."""
    if paired and (n < 4 or n % 2):
        raise ValueError(f"sample counts must be even and at least 4 "
                         f"(antithetic pairs), got {n}")
    if n < 1:
        raise ValueError(f"N must be >= 1, got {n}")
    if n > MAX_SAMPLES:
        raise ValueError(f"sample count {n} exceeds the limit of "
                         f"{MAX_SAMPLES} samples")
    if not (np.isfinite(hbar) and hbar > 0.0):
        raise ValueError(f"hbar must be positive and finite, got {hbar}")
    if not 0 <= seed < 2 ** 128:
        raise ValueError(f"seed must be nonnegative and below 2**128, got {seed}")


def wigner_sample(state0: PacketState, hbar: float, seed: int,
                  N: int, paired: bool = False) -> PhaseEnsemble:
    """The ensemble of N draws from the Wigner density of state0, as a
    recipe whose rows are drawn block by block, inside transport.  seed
    is the key of the Philox stream, an integer in [0, 2**128).  With
    paired, N must be even and at least 4, and the ensemble holds N / 2
    draws as antithetic pairs: row 2j is bitwise draw j of
    wigner_sample(..., N // 2) and row 2j + 1 its mirror through state0's
    center.  The Wigner density is a Gaussian centred at (q, p), so every
    row keeps its distribution; only the rows within a pair are dependent.
    """
    _check_draw(hbar, N, paired, seed)
    return PhaseEnsemble(state0, hbar, seed, N, paired)


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


@dataclass(frozen=True)
class _Transport:
    """What every block of one propagate_ensemble call shares."""

    ensemble: PhaseEnsemble
    model: FieldModel
    dt: float
    steps: int           # grid times, t = 0 included
    first: int           # first grid time reduced
    observables: tuple
    chunk_size: int      # a whole number of statistical units


def _transport_block(job: _Transport, i0: int):
    """Draw the block of samples starting at i0, carry it through every
    step and return its (R, C) sums and M2 and its (R,) live sample
    counts, one row per reduced grid time, the C columns stacking the
    observables in order (d for q or p, one for H0 or Lz).  M2 sums
    squared deviations of unit means from the block's own mean, taken in
    a second pass.  A unit with a non-finite member at a reduced time is
    dropped whole.  No mask is kept between steps: RK4's y + h k leaves a
    non-finite entry non-finite.
    """
    model, k = job.model, 2 if job.ensemble.paired else 1   # samples per unit
    sums, m2, counts = [], [], []
    x, xi = job.ensemble.rows(i0, min(i0 + job.chunk_size, job.ensemble.n))
    # runaway samples overflow; they are masked out, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(job.steps):
            if t > 0:
                xs, xis = _classical_flow_step(x.T, xi.T, model, job.dt)
                x, xi = xs.T, xis.T
            if t < job.first:
                continue
            # one pass over the block; the per-unit mask only on failure
            live = None
            if not (np.isfinite(x).all() and np.isfinite(xi).all()):
                ok = np.isfinite(x).all(axis=0) & np.isfinite(xi).all(axis=0)
                live = ok.reshape(-1, k).all(axis=1)
            counts.append(x.shape[1] if live is None else k * int(live.sum()))
            vals = np.vstack([_observe(name, x.T, xi.T, model).T
                              for name in job.observables])
            if live is not None:
                vals = np.where(live.repeat(k), vals, 0.0)
            sums.append(vals.sum(axis=1))
            if k > 1:   # pair means; a reshaped mean over 2 is slower
                vals = (vals[:, 0::2] + vals[:, 1::2]) / 2
            dev = vals - (sums[-1] / counts[-1])[:, None]
            if live is not None:
                dev = np.where(live, dev, 0.0)
            m2.append((dev * dev).sum(axis=1))
    return np.array(sums), np.array(m2), np.array(counts)


# The job a forked pool worker serves; set only in the worker, by the
# pool initializer, never in the calling process.
_worker_job = None


def _serve(job: _Transport) -> None:
    global _worker_job
    _worker_job = job


def _pooled_block(i0: int):
    return _transport_block(_worker_job, i0)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _block_results(job: _Transport, starts: range):
    """Yield _transport_block(job, i0) for every i0 of starts, in order.

    The blocks run in a forked pool (see the module docstring) when that
    can use more than one worker, and in this process otherwise.
    """
    workers = min(MAX_WORKERS, _usable_cpus(), len(starts))
    if workers > 1:
        import multiprocessing
        # a daemonic process, such as a pool worker, may not have children
        if ("fork" in multiprocessing.get_all_start_methods()
                and not multiprocessing.current_process().daemon):
            ctx = multiprocessing.get_context("fork")
            with ctx.Pool(workers, initializer=_serve, initargs=(job,)) as pool:
                yield from pool.imap(_pooled_block, starts)
            return
    yield from map(partial(_transport_block, job), starts)


def propagate_ensemble(ensemble: PhaseEnsemble, model: FieldModel, dt: float,
                       t_final: float, observables=("q", "p", "H0"),
                       final_only: bool = False) -> EgorovEstimate:
    """Transport the ensemble classically, recording observable statistics.

    Each block of DEFAULT_CHUNK samples draws its rows (ensemble.rows),
    stored component-major, (d, b), and is carried through every step on
    its own; the flow and the observables see its (b, d) transposed
    views.  Blocks run on up to MAX_WORKERS forked processes, and their
    partial sums are added into the totals in block order, so means and
    standard errors for a given (ensemble, dt, t_final) are bitwise
    reproducible whatever the number of workers.  With final_only the
    statistics are reduced at t_final alone and `times` holds only
    t_final; that row is bitwise the last row of the full series.  A
    sample that turns non-finite stays so, and is masked out of every
    later reduction and counted in `excluded`.

    Statistics are taken over units of k samples, k = 2 for a paired
    ensemble (its blocks then start on even rows) and 1 otherwise.  A
    mean is the sum over live samples over their count.  Its standard
    error is sqrt(M2 / ((P - 1) P)), with P the number of live units and
    M2 the sum of squared deviations of the live units' means from their
    mean; at k = 1 that is stddev / sqrt(n_alive).  Each block forms its
    own M2 in two passes, and the blocks' M2 are merged in block order by
    the pairwise update of Chan, Golub & LeVeque, so a standard error far
    below its mean keeps its digits.  All observables are reduced as the
    columns of one array; means and ses hold views of each one's columns.
    A unit with a non-finite member is dropped whole, all its samples
    counted in `excluded`.  Fewer than two live units at a reduced time
    is a ValueError.
    """
    times = time_grid(dt, t_final)
    T = times.shape[0]
    d = ensemble.d
    if d != model.dim:
        raise ValueError(f"state has dimension {d} but model {model.name!r} "
                         f"is {model.dim}-dimensional")
    observables = tuple(observables)
    if not observables:
        raise ValueError(f"no observables; choose from {OBSERVABLES}")
    columns, C = {}, 0     # each observable's columns of the statistics
    for name in observables:
        if name not in OBSERVABLES:
            raise ValueError(f"unknown observable {name!r}; choose from {OBSERVABLES}")
        if name == "Lz" and d != 2:
            raise ValueError("observable Lz requires d = 2")
        columns[name] = slice(C, C + d) if name in ("q", "p") else C
        C += d if name in ("q", "p") else 1

    first = T - 1 if final_only else 0
    k = 2 if ensemble.paired else 1
    job = _Transport(ensemble, model, dt, T, first, observables,
                     -(-DEFAULT_CHUNK // k) * k)
    sums, m2 = np.zeros((T - first, C)), np.zeros((T - first, C))
    counts = np.zeros(T - first, dtype=np.int64)
    # overflowed survivors make inf and nan statistics, not warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for part_sums, part_m2, part_counts in _block_results(
                job, range(0, ensemble.n, job.chunk_size)):
            # Chan et al.: M2 += M2_b + delta^2 P_a P_b / (P_a + P_b)
            pa, pb = counts // k, part_counts // k
            weight = (pa * pb / np.maximum(pa + pb, 1))[:, None]
            delta = np.where(weight > 0, part_sums / part_counts[:, None]
                             - sums / counts[:, None], 0.0)
            m2 += part_m2 + delta * delta * weight
            sums += part_sums
            counts += part_counts

        if np.any(counts < 2 * k):
            raise ValueError(f"fewer than two surviving {'pairs' if k > 1 else 'samples'}"
                             "; cannot form errors")
        units = counts[:, None] // k
        mean = sums / counts[:, None]
        se = np.sqrt(m2 / (units - 1) / units)
    return EgorovEstimate(times=times[first:],
                          means={name: mean[:, j] for name, j in columns.items()},
                          ses={name: se[:, j] for name, j in columns.items()},
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
    dq = egorov_estimate.means["q"][ie] - model_traj.states.q[it]
    dp = egorov_estimate.means["p"][ie] - model_traj.states.p[it]
    return float(np.sqrt(dq @ dq + dp @ dp))


def rate_sweep(model: FieldModel, state: PacketState, hbars, counts, dt: float,
               t_star: float, seed: int) -> tuple:
    """Lists of the classical and semiclassical centers' (q, p) errors at
    t_star and of the reference's standard errors, one entry per hbar.

    hbars and counts must have the same length, every hbar and count must
    make a paired draw and every seed + i must be a Philox key (see
    wigner_sample); otherwise ValueError, before any run.  One
    classical run serves every hbar (the flow does not read hbar), and
    all hbars' packets are integrated as one stack.  If either run
    aborts, ValueError names its step and hbar: hbars[0] for the
    classical run, and for the stack the packet that failed first (on a
    tie, the earlier in hbars).  Only then does hbar i's reference draw
    counts[i] rows as antithetic pairs with seed seed + i (wigner_sample
    with paired=True) and transport them to t_star alone.
    """
    if len(counts) != len(hbars):
        raise ValueError(f"{len(counts)} sample counts for {len(hbars)} hbars")
    for i, (hbar, n) in enumerate(zip(hbars, counts)):
        _check_draw(hbar, n, paired=True, seed=seed + i)

    def ensure_completed(traj, label):
        if not traj.completed:
            i = traj.abort_member[0] if traj.abort_member else 0
            raise ValueError(f"{label} run at hbar={hbars[i]} aborted at step "
                             f"{traj.abort_step}: {traj.abort_reason}")

    tc = dynamics.simulate(model, "classical", state, hbars[0], dt, t_star)
    ensure_completed(tc, "classical")
    h = np.array(hbars)
    ts = dynamics.rk4_integrate(
        lambda z: dynamics.semiclassical_rhs(z, model, h),
        PacketState(*(np.stack([y] * len(hbars)) for y in
                      (state.q, state.p, state.A_mat, state.B_mat))), dt, t_star)
    ensure_completed(ts, "semiclassical")

    err_c, err_s, ses = [], [], []
    for i, hbar in enumerate(hbars):
        est = propagate_ensemble(
            wigner_sample(state, hbar, seed=seed + i, N=counts[i], paired=True),
            model, dt, t_star, observables=("q", "p"), final_only=True)
        member = dynamics.Trajectory(ts.times, ClassicalPhasePoint(
            q=ts.states.q[:, i], p=ts.states.p[:, i]))
        err_c.append(phase_error(tc, est, t_star))
        err_s.append(phase_error(member, est, t_star))
        ses.append(float(np.sqrt(np.sum(est.ses["q"][-1] ** 2)
                                 + np.sum(est.ses["p"][-1] ** 2))))
    return err_c, err_s, ses
