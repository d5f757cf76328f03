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

rate_sweep and the egorov command draw their references by randomized
quasi-Monte Carlo (wigner_sample with sobol=True): REPLICATES
independently scrambled Sobol sequences (Owen 1997, "Scrambled net
variance for integrals of smooth functions"), generated here from Joe &
Kuo's direction numbers of 20 dimensions, so packets of up to
SOBOL_MAX_D = 10 dimensions, mapped to the Wigner density as
independent draws are: each uniform goes through the inverse normal
CDF, a numpy port of Cephes' ndtri (the rational approximations that
scipy.special.ndtri evaluates, in its order of operations), so the
package imports numpy alone.  The integrand is smooth and only
2d-dimensional, so over three seeds the mean had 152 to 277 times less
variance than that of antithetic pairs (each draw followed by its
mirror through the packet center) at the same transport cost at the
smallest hbar of the benchmark's 2D rate sweep (30 000 rows), and 283
to 1225 times less on its 1D cosine series (260 000 rows).  Its mean is
the mean of the replicate means, and its standard error their spread.

The ensemble owns no equations of its own: it is moved by
dynamics.rk4_step applied to the batched dynamics.classical_rhs, on the
grid of dynamics.time_grid, and H0 and Lz are the batched
dynamics.classical_hamiltonian and observables.classical_angular_momentum,
so a sample row follows exactly the classical packet-center trajectory.
An ensemble is a recipe, never an N-row array: for speed it is moved in
cache-sized blocks, each of which draws its own rows (PhaseEnsemble.rows)
stored component-major, (d, b); the flow sees their (b, d) transposed
views, which the batched classical_rhs keeps in the same memory layout.

Blocks are independent, so one propagate_ensembles call schedules the
blocks of all its ensembles together: rate_sweep hands it every hbar's
reference at once.  The call makes one transport plan (its ensembles,
model, step, grid and observables), and a block is an (ensemble index,
first row) pair, DEFAULT_CHUNK rows long or up to the ensemble's end.
The blocks are ordered by size, largest first (a stable sort, so each
ensemble's full blocks keep block order and its short last block
follows them), and handed to one pool of
W = min(MAX_WORKERS, usable CPUs, number of blocks) worker processes
started with "fork", so no worker idles while another finishes a long
tail, and small ensembles fill the gaps that large ones leave.  The
plan reaches the workers through the fork itself (a FieldModel holds
closures, which cannot be pickled), and only block pairs and per-block
partial sums cross the pipes.

Statistics are kept per unit, the rows whose mean is one observation:
a replicate of a sobol ensemble, or all rows of independent draws.
Every block returns one record, its units' sums and live counts and,
for independent draws only, its samples' M2; the totals add them unit
by unit, and only the final estimate picks the estimator.  Each
ensemble's partial sums are added into its totals in its block order
as they arrive, exactly as a serial loop adds them, so results are
bitwise independent of W and of the other ensembles of the call.  With
one block in all, one usable CPU, no "fork" start method or a calling
process that is itself a daemonic worker, the same block function runs
in-process, in the same order.  A fork copies only the calling thread,
so a caller whose other threads may hold locks should transport from a
process of its own.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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
    "propagate_ensembles",
    "phase_error",
    "rate_sweep",
]

OBSERVABLES = ("q", "p", "H0", "Lz")
# Samples per transport block.  A block's state and RK4 stage arrays
# then take about 2 MiB in d = 2, the size of the L2 cache; on the 2D
# rate sweep 4096 and 16384 both measured slower, from call overhead
# and from cache misses respectively.
DEFAULT_CHUNK = 8192
# Most transport worker processes one propagate_ensembles call forks, in
# its one pool for the blocks of all its ensembles; the usable CPUs and
# the number of blocks cap it further.
MAX_WORKERS = 4
# Bytes of one array that transport frees before its first block.
# glibc's malloc serves a request above its mmap threshold (128 KiB at
# start-up) by mmap, and freeing such a block raises the threshold to
# its size and the heap's trim threshold to twice that.  Below them a
# block's temporaries (64-256 KiB each) grow and trim the heap at every
# RK4 stage and fault its pages in again: series-1d took about 45 000
# minor faults per run, against 7 000 once this block is freed (the
# import of scipy.special used to free such blocks).  Other allocators
# are unaffected.
_HEAP_PRIMER = 4 << 20
# Largest ensemble wigner_sample accepts.  Rows are drawn block by block,
# so no allocation refuses a huge count; at this limit one transport step
# already takes hours, so a larger count is refused before any run.
MAX_SAMPLES = 10 ** 12
# Independently scrambled Sobol replicates of a sobol ensemble; its
# standard errors come from the spread of their means.
REPLICATES = 8
# Digits of a Sobol point: a uint64 holds them, and a float64 holds the
# point exactly.
SOBOL_BITS = 52
# Joe & Kuo's primitive polynomials (degree s, coefficients a, initial
# direction integers m) of Sobol dimensions 2 to 20, as scipy.stats.qmc
# tabulates them; dimension 1 is van der Corput's sequence.  A
# d-dimensional packet needs 2d dimensions.
_JOE_KUO = (
    (1, 0, (1,)), (2, 1, (1, 3)), (3, 1, (1, 3, 1)), (3, 2, (1, 1, 1)),
    (4, 1, (1, 1, 3, 3)), (4, 4, (1, 3, 5, 13)), (5, 2, (1, 1, 5, 5, 17)),
    (5, 4, (1, 1, 5, 5, 5)), (5, 7, (1, 1, 7, 11, 19)), (5, 11, (1, 1, 5, 1, 1)),
    (5, 13, (1, 1, 1, 3, 11)), (5, 14, (1, 3, 5, 5, 31)),
    (6, 1, (1, 3, 3, 9, 7, 49)), (6, 13, (1, 1, 1, 15, 21, 21)),
    (6, 16, (1, 3, 1, 13, 27, 49)), (6, 19, (1, 1, 1, 15, 7, 5)),
    (6, 22, (1, 3, 1, 15, 13, 25)), (6, 25, (1, 1, 5, 5, 19, 61)),
    (7, 1, (1, 3, 7, 11, 23, 15, 103)))
# Largest packet dimension a sobol ensemble takes.
SOBOL_MAX_D = (len(_JOE_KUO) + 1) // 2


def _sobol_directions():
    """(2 SOBOL_MAX_D, SOBOL_BITS) uint64 direction numbers, V[j, k] that
    of bit k of the Gray code in dimension j, by Joe & Kuo's recurrence."""
    V = [[1 << (SOBOL_BITS - 1 - k) for k in range(SOBOL_BITS)]]
    for s, a, m in _JOE_KUO:
        v = [mk << (SOBOL_BITS - 1 - k) for k, mk in enumerate(m)]
        for k in range(s, SOBOL_BITS):
            vk = v[k - s] ^ (v[k - s] >> s)
            for i in range(1, s):
                if (a >> (s - 1 - i)) & 1:
                    vk ^= v[k - i]
            v.append(vk)
        V.append(v)
    return np.array(V, dtype=np.uint64)


_SOBOL_V = _sobol_directions()


def _sobol_points(V, shift, j0: int, j1: int):
    """Points j0..j1 of the digital sequence with direction numbers V
    (D, SOBOL_BITS) and digital shift (D,), as (j1 - j0, D) uint64 digits.
    Point j0 comes from its Gray code directly; each next point j flips
    V[:, ctz(j)] of the one before it."""
    steps = np.empty((j1 - j0, V.shape[0]), dtype=np.uint64)
    gray = int(j0) ^ (int(j0) >> 1)     # a numpy integer has no bit_length
    steps[0] = shift ^ np.bitwise_xor.reduce(
        V[:, [k for k in range(gray.bit_length()) if gray >> k & 1]], axis=1)
    # j ^ (j - 1) = 2^(ctz(j) + 1) - 1 is exact in a float64, whose
    # exponent is then ctz(j) + 1
    j = np.arange(j0 + 1, j1, dtype=np.uint64)
    steps[1:] = V.T[np.frexp((j ^ (j - np.uint64(1))).astype(float))[1] - 1]
    return np.bitwise_xor.accumulate(steps, axis=0, out=steps)


def _parity(x):
    """The parity of the set bits of each uint64 entry of x, 0 or 1."""
    for k in (32, 16, 8, 4, 2, 1):
        x = x ^ (x >> np.uint64(k))
    return x & np.uint64(1)


# Cephes' ndtri (Moshier, "Methods and Programs for Mathematical
# Functions", 1989), the inverse normal CDF that scipy.special.ndtri
# wraps.  On the central branch e^-2 < u <= 1 - e^-2, with y = u - 1/2,
# it is sqrt(2 pi) (y + y y2 P0(y2) / Q0(y2)); on the tails, with
# s = sqrt(-2 log min(u, 1 - u)) and z = 1/s, it is
# +-(s - log(s)/s - z P(z) / Q(z)), with (P1, Q1) below s = 8
# (u > e^-32) and (P2, Q2) from there on.  Coefficients run from the
# highest power down, and each Q's leading coefficient, 1, is left out.
_EXP_M2 = 0.13533528323661269189
_S2PI = 2.50662827463100050242
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _ratio(x, P, Q):
    """x P(x) / Q(x), Q monic, each polynomial by Horner's rule in place
    and in Cephes' order (polevl, p1evl), so each entry has the bits of
    Cephes' scalar code."""
    num = x * P[0]
    num += P[1]
    for c in P[2:]:
        num *= x
        num += c
    den = x + Q[0]
    for c in Q[1:]:
        den *= x
        den += c
    num *= x
    num /= den
    return num


def _ndtri(u):
    """Cephes' inverse normal CDF of each entry of u, 0 < u < 1.  The
    central formula is evaluated on every entry (its denominator has no
    zero for 0 <= y2 <= 1/4) and the tails' on their entries alone.  The
    result has scipy.special.ndtri's bits on the central branch; on the
    tails numpy's log stands for libm's, within 4 ulp of scipy's."""
    y = u - 0.5
    y2 = y * y
    x = _ratio(y2, _P0, _Q0)
    x *= y
    x += y
    x *= _S2PI
    u = u.ravel()
    tail = np.flatnonzero((u <= _EXP_M2) | (u > 1.0 - _EXP_M2))
    u = u[tail]
    upper = u > 1.0 - _EXP_M2
    s = np.log(np.where(upper, 1.0 - u, u))
    s *= -2.0
    np.sqrt(s, out=s)
    z = 1.0 / s
    xt = np.log(s)
    xt /= s
    np.subtract(s, xt, out=xt)
    # each tail formula on its own entries; s >= 8 (u < e^-32) is rare
    far = s >= 8.0
    for rows, P, Q in ((~far, _P1, _Q1), (far, _P2, _Q2)):
        if rows.all():
            xt -= _ratio(z, P, Q)
        elif rows.any():
            xt[rows] -= _ratio(z[rows], P, Q)
    np.negative(xt, out=xt, where=~upper)
    np.put(x, tail, xt)
    return x


def _replicate_cuts(n: int, i0: int, i1: int):
    """Rows i0..i1 of an n-row sobol ensemble cut where replicates meet,
    as (replicate, first row, end row) triples."""
    m = n // REPLICATES
    return [(r, max(i0, r * m), min(i1, (r + 1) * m))
            for r in range(i0 // m, (i1 - 1) // m + 1)]


@dataclass(frozen=True)
class PhaseEnsemble:
    """The recipe of n draws from the Wigner density of state0 (see
    wigner_sample).  A sobol ensemble holds REPLICATES scrambled Sobol
    replicates of n / REPLICATES rows each, replicate r in rows
    r n / REPLICATES onward; its statistics treat each replicate as one
    unit.
    """

    state0: PacketState
    hbar: float
    seed: int
    n: int
    sobol: bool = False

    @property
    def d(self) -> int:
        return self.state0.d

    @cached_property
    def _scrambles(self):
        """Each replicate's scrambled direction numbers (R, 2d, SOBOL_BITS)
        and digital shifts (R, 2d), drawn from Philox(key=seed) as
        scipy.stats.qmc.Sobol scrambles: a random lower-triangular binary
        matrix with unit diagonal, digits most significant first, applied
        to the direction numbers, and a random digital shift."""
        D, bits = 2 * self.d, SOBOL_BITS
        rng = np.random.Generator(np.random.Philox(key=self.seed))
        # the bit of digit p, and row p of each matrix as a mask of digits:
        # random digits before p, then digit p itself
        bit = np.uint64(1) << np.arange(bits - 1, -1, -1, dtype=np.uint64)
        rows = rng.integers(0, 2 ** bits, size=(REPLICATES, D, bits), dtype=np.uint64)
        rows = rows & ~(2 * bit - np.uint64(1)) | bit
        shift = rng.integers(0, 2 ** bits, size=(REPLICATES, D), dtype=np.uint64)
        V = np.zeros((REPLICATES, D, bits), dtype=np.uint64)
        for p in range(bits):    # digit p of every scrambled number, over GF(2)
            V |= _parity(rows[:, :, p, None] & _SOBOL_V[:D]) * bit[p]
        return V, shift

    def _uniforms(self, i0: int, i1: int):
        """Rows i0..i1 of the ensemble's (n, 2d) uniform draws."""
        if self.sobol:
            V, shift = self._scrambles
            m = self.n // REPLICATES
            u = np.empty((i1 - i0, 2 * self.d))
            for r, a, b in _replicate_cuts(self.n, i0, i1):
                u[a - i0:b - i0] = _sobol_points(V[r], shift[r], a - r * m, b - r * m)
            u *= 2.0 ** -SOBOL_BITS     # exact: the digits fit a float64
            return u
        # Philox.advance counts 128-bit blocks (4 uint64 draws); a draw's
        # stride is padded to whole blocks, so every draw can be reached.
        stride = -(-2 * self.d // 4) * 4
        bg = np.random.Philox(key=self.seed)
        bg.advance(stride // 4 * i0)
        return np.random.Generator(bg).random((i1 - i0, stride))[:, :2 * self.d]

    def rows(self, i0: int, i1: int):
        """Rows i0..i1 as component-major (d, b) arrays x and xi, from
        x ~ N(q, (hbar/2) B^-1) and xi = p + A_w (x - q) + eta with
        eta ~ N(0, (hbar/2) B), which reproduces W exactly.  Each row maps
        2d uniforms through _ndtri, a numpy port of Cephes' inverse normal
        CDF (scipy.special.ndtri's bits on the central branch, within 4
        ulp on the tails): those of draw j from its own stride of the
        Philox(key=seed) stream, reached by Philox.advance, or for a sobol
        ensemble those of its point of its replicate's scrambled Sobol
        sequence.  So a row is bitwise the same however rows are cut
        into calls.
        """
        st, d = self.state0, self.d
        L = np.linalg.cholesky(st.B_mat)
        scale = np.sqrt(0.5 * self.hbar)
        # _ndtri takes 0 < u; clamp the (measure-zero) exact zeros
        e = _ndtri(np.clip(self._uniforms(i0, i1), 1e-300, None))
        dx = e[:, :d] @ np.linalg.inv(L)
        dx *= scale
        eta = e[:, d:] @ L.T
        eta *= scale
        x, xi = np.empty((d, i1 - i0)), np.empty((d, i1 - i0))
        np.add(st.q, dx, out=x.T)
        np.add(st.p, dx @ st.A_mat.T, out=xi.T)
        xi.T[...] += eta
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


def _check_seed(seed: int, offset: int = 0) -> None:
    """ValueError unless seed >= 0 and seed + offset is a Philox key, in
    [0, 2**128).  The message names seed, the value the caller gave, and
    the offset of the key that overflows."""
    if not 0 <= seed < 2 ** 128 - offset:
        limit = f"2**128 - {offset} (a draw takes key seed + {offset})" if offset else "2**128"
        raise ValueError(f"seed must be nonnegative and below {limit}, got {seed}")


def _check_draw(hbar: float, n: int, sobol: bool, seed: int, d: int,
                offset: int = 0) -> None:
    """ValueError unless hbar > 0 is finite, n rows of a d-dimensional
    packet make an ensemble (1 to MAX_SAMPLES rows, and if sobol a
    positive multiple of REPLICATES and d at most SOBOL_MAX_D) and
    seed + offset is a Philox key (see _check_seed)."""
    if sobol and (n < REPLICATES or n % REPLICATES):
        raise ValueError(f"sample counts must be positive multiples of {REPLICATES} "
                         f"(scrambled Sobol replicates), got {n}")
    if sobol and d > SOBOL_MAX_D:
        raise ValueError(f"scrambled Sobol replicates take packets of at most "
                         f"{SOBOL_MAX_D} dimensions, got {d}")
    if n < 1:
        raise ValueError(f"N must be >= 1, got {n}")
    if n > MAX_SAMPLES:
        raise ValueError(f"sample count {n} exceeds the limit of "
                         f"{MAX_SAMPLES} samples")
    if not (np.isfinite(hbar) and hbar > 0.0):
        raise ValueError(f"hbar must be positive and finite, got {hbar}")
    _check_seed(seed, offset)


def wigner_sample(state0: PacketState, hbar: float, seed: int,
                  N: int, sobol: bool = False) -> PhaseEnsemble:
    """The ensemble of N draws from the Wigner density of state0, as a
    recipe whose rows are drawn block by block, inside transport.  seed
    is the key of the Philox stream, an integer in [0, 2**128).  Rows are
    independent draws, or with sobol, for which N must be a positive
    multiple of REPLICATES and state0.d at most SOBOL_MAX_D, REPLICATES
    independently scrambled Sobol sequences of N / REPLICATES points
    each, mapped to the Wigner density alike: every row keeps its
    distribution, rows of one replicate are dependent and the replicates
    are independent.
    """
    _check_draw(hbar, N, sobol, seed, state0.d)
    return PhaseEnsemble(state0, hbar, seed, N, sobol)


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
    """What every block of one propagate_ensembles call shares."""

    ensembles: tuple
    model: FieldModel
    dt: float
    steps: int           # grid times, t = 0 included
    first: int           # first grid time reduced
    observables: tuple


def _moments(vals, live):
    """Sums, live counts and M2 of vals over its last axis, M2 summing
    the squared deviations of the live entries from their mean in a
    second pass.  live (broadcast against vals; None when all are live)
    marks the live entries; the others must be zero in vals."""
    n = vals.shape[-1] if live is None else live.sum(axis=-1)
    sums = vals.sum(axis=-1)
    dev = vals - (sums / n)[..., None]
    if live is not None:
        dev = np.where(live, dev, 0.0)
    return sums, n, (dev * dev).sum(axis=-1)


def _transport_block(plan: _Transport, j: int, i0: int):
    """Draw rows i0..min(i0 + DEFAULT_CHUNK, n) of ensemble j, carry them
    through every step and return their partial statistics at the T
    reduced grid times, the C columns stacking the observables in order
    (d for q or p, one for H0 or Lz), for the P units the block meets:
    (first unit, (T, C, P) sums, (T, P) live counts, M2), M2 being the
    (T, C, 1) squared deviations from the block's own mean for
    independent draws and None for a sobol ensemble.  A sample with a
    non-finite entry at a reduced time is left out of them.  No mask is
    kept between steps: RK4's y + h k leaves a non-finite entry non-finite.
    """
    ens, model = plan.ensembles[j], plan.model
    i1 = min(i0 + DEFAULT_CHUNK, ens.n)
    units = _replicate_cuts(ens.n, i0, i1) if ens.sobol else [(0, i0, i1)]
    sums, counts, m2 = [], [], []
    x, xi = ens.rows(i0, i1)
    # runaway samples overflow; they are masked out, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(plan.steps):
            if t > 0:
                xs, xis = _classical_flow_step(x.T, xi.T, model, plan.dt)
                x, xi = xs.T, xis.T
            if t < plan.first:
                continue
            # one pass over the block; the per-sample mask only on failure
            live = None
            if not (np.isfinite(x).all() and np.isfinite(xi).all()):
                live = np.isfinite(x).all(axis=0) & np.isfinite(xi).all(axis=0)
            vals = np.vstack([_observe(name, x.T, xi.T, model).T
                              for name in plan.observables])
            if live is not None:
                vals = np.where(live, vals, 0.0)
            if ens.sobol:
                sums.append(np.stack([vals[:, a - i0:b - i0].sum(axis=1)
                                      for _, a, b in units], axis=1))
                counts.append([b - a if live is None else int(live[a - i0:b - i0].sum())
                               for _, a, b in units])
                continue
            s, n, dev2 = _moments(vals, live)
            sums.append(s[:, None])
            counts.append([n])
            m2.append(dev2[:, None])
    return units[0][0], np.array(sums), np.array(counts), np.array(m2) if m2 else None


class _Totals:
    """One ensemble's statistics at the T reduced times and C columns for
    each of its units, summed over the partial statistics of its blocks,
    which must be added in block order (see propagate_ensembles)."""

    def __init__(self, units: int, T: int, C: int):
        self.sums, self.m2 = np.zeros((T, C, units)), np.zeros((T, C, units))
        self.counts = np.zeros((T, units), dtype=np.int64)

    def add(self, part) -> None:
        """Add the partial statistics of the next block (_transport_block)."""
        u0, part_sums, part_counts, part_m2 = part
        units = slice(u0, u0 + part_counts.shape[1])
        sums, counts = self.sums[:, :, units], self.counts[:, units]
        if part_m2 is not None:
            # Chan et al.: M2 += M2_b + delta^2 n_a n_b / (n_a + n_b)
            weight = (counts * part_counts
                      / np.maximum(counts + part_counts, 1))[:, None]
            delta = np.where(weight > 0, part_sums / part_counts[:, None]
                             - sums / counts[:, None], 0.0)
            self.m2[:, :, units] += part_m2 + delta * delta * weight
        sums += part_sums
        counts += part_counts

    def estimate(self):
        """The (T, C) means and standard errors and the live sample count
        at the last reduced time, from the merged M2 of one unit's samples
        (independent draws) or else from the spread of the live units' means."""
        counts = self.counts
        one = counts.shape[1] == 1
        if one:
            sums, units, m2 = self.sums[..., 0], counts, self.m2[..., 0]
        else:
            live = (counts > 0)[:, None, :]
            means = np.where(live, self.sums / np.maximum(counts, 1)[:, None, :], 0.0)
            sums, units, m2 = _moments(means, live)
            # a replicate mean that overflowed leaves the spread unbounded:
            # inf, not the nan of inf - inf
            m2[~np.isfinite(means).all(axis=2)] = np.inf
        if np.any(units < 2):
            raise ValueError(f"fewer than two surviving {'samples' if one else 'replicates'}"
                             "; cannot form errors")
        return sums / units, np.sqrt(m2 / (units - 1) / units), int(counts[-1].sum())


# The plan a forked pool worker serves; set only in the worker, by the
# pool initializer, never in the calling process.
_worker_plan = None


def _serve(plan: _Transport) -> None:
    global _worker_plan
    _worker_plan = plan


def _pooled_block(block):
    return _transport_block(_worker_plan, *block)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _block_results(plan: _Transport):
    """Yield (j, _transport_block(plan, j, i0)) for every block (j, i0),
    largest first and, among blocks of one size, in ensemble and block
    order, so each ensemble's blocks come in block order.

    The blocks run in one forked pool (see the module docstring) when that
    can use more than one worker, and in this process otherwise.
    """
    np.empty(_HEAP_PRIMER, dtype=np.uint8)     # freed at once; see _HEAP_PRIMER
    ns = [ens.n for ens in plan.ensembles]
    blocks = sorted(((j, i0) for j, n in enumerate(ns) for i0 in range(0, n, DEFAULT_CHUNK)),
                    key=lambda block: -min(DEFAULT_CHUNK, ns[block[0]] - block[1]))
    workers = min(MAX_WORKERS, _usable_cpus(), len(blocks))
    if workers > 1:
        import multiprocessing
        # a daemonic process, such as a pool worker, may not have children
        if ("fork" in multiprocessing.get_all_start_methods()
                and not multiprocessing.current_process().daemon):
            ctx = multiprocessing.get_context("fork")
            with ctx.Pool(workers, initializer=_serve, initargs=(plan,)) as pool:
                for (j, _), part in zip(blocks, pool.imap(_pooled_block, blocks)):
                    yield j, part
            return
    for j, i0 in blocks:
        yield j, _transport_block(plan, j, i0)


def propagate_ensembles(ensembles, model: FieldModel, dt: float, t_final: float,
                        observables=("q", "p", "H0"),
                        final_only: bool = False) -> list:
    """Transport each ensemble classically, recording observable
    statistics; one EgorovEstimate per ensemble, in order.

    Every ensemble, the grid and the observables are checked before any
    transport.  Each block of DEFAULT_CHUNK samples draws its rows
    (ensemble.rows), stored component-major, (d, b), and is carried
    through every step on its own; the flow and the observables see its
    (b, d) transposed views.  The blocks of all ensembles run together on
    up to MAX_WORKERS forked processes, the largest first, and each
    ensemble's partial sums are added into its totals in block order, so
    means and standard errors for a given (ensemble, dt, t_final) are
    bitwise reproducible whatever the number of workers and whatever
    other ensembles share the call.  With final_only the statistics are
    reduced at t_final alone and `times` holds only t_final; that row is
    bitwise the last row of the full series.  A sample that turns
    non-finite stays so, and is masked out of every later reduction and
    counted in `excluded`.

    For independent draws a mean is the sum over live samples over their
    count, and its standard error is stddev / sqrt(n_alive), from M2, the
    sum of squared deviations of the live samples from their mean: each
    block forms its own M2 in two passes, and the blocks' M2 are merged in
    block order by the pairwise update of Chan, Golub & LeVeque, so a
    standard error far below its mean keeps its digits.  For a sobol
    ensemble a mean is the mean of the P live replicates' means, each
    replicate's sums and counts added over its blocks in block order, and
    its standard error is their standard deviation over sqrt(P); a
    non-finite sample is dropped from its replicate (which weighs the same
    while any of its samples lives), and a replicate mean that overflowed
    makes the standard error inf.  All observables are reduced as the
    columns of one array; means and ses hold views of each one's columns.
    Fewer than two live samples (replicates, for a sobol ensemble) at a
    reduced time is a ValueError, raised once every block has run.
    """
    times = time_grid(dt, t_final)
    T = times.shape[0]
    ensembles = tuple(ensembles)
    for ensemble in ensembles:
        if ensemble.d != model.dim:
            raise ValueError(f"state has dimension {ensemble.d} but model "
                             f"{model.name!r} is {model.dim}-dimensional")
    d = model.dim
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
    plan = _Transport(ensembles, model, dt, T, first, observables)
    totals = [_Totals(REPLICATES if ensemble.sobol else 1, T - first, C)
              for ensemble in ensembles]
    # overflowed survivors make inf and nan statistics, not warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for j, part in _block_results(plan):
            totals[j].add(part)
        stats = [t.estimate() for t in totals]
    return [EgorovEstimate(times=times[first:],
                           means={name: mean[:, j] for name, j in columns.items()},
                           ses={name: se[:, j] for name, j in columns.items()},
                           n_samples=ensemble.n, excluded=ensemble.n - alive)
            for ensemble, (mean, se, alive) in zip(ensembles, stats)]


def propagate_ensemble(ensemble: PhaseEnsemble, model: FieldModel, dt: float,
                       t_final: float, observables=("q", "p", "H0"),
                       final_only: bool = False) -> EgorovEstimate:
    """Transport one ensemble classically, recording observable
    statistics: propagate_ensembles of [ensemble], which see."""
    return propagate_ensembles([ensemble], model, dt, t_final, observables,
                               final_only)[0]


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
    make a sobol draw and every seed + i must be a Philox key (see
    wigner_sample); otherwise ValueError, before any run.  One
    classical run serves every hbar (the flow does not read hbar), and
    all hbars' packets are integrated as one stack.  If either run
    aborts, ValueError names its step and hbar: hbars[0] for the
    classical run, and for the stack the packet that failed first (on a
    tie, the earlier in hbars).  Only then does hbar i's reference draw
    counts[i] rows as scrambled Sobol replicates with seed seed + i
    (wigner_sample with sobol=True); one propagate_ensembles call
    transports every hbar's reference to t_star alone.
    """
    if len(counts) != len(hbars):
        raise ValueError(f"{len(counts)} sample counts for {len(hbars)} hbars")
    for hbar, n in zip(hbars, counts):
        # the last hbar's key, seed + len(hbars) - 1, bounds the seed
        _check_draw(hbar, n, sobol=True, seed=seed, d=state.d, offset=len(hbars) - 1)

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

    ests = propagate_ensembles(
        [wigner_sample(state, hbar, seed=seed + i, N=counts[i], sobol=True)
         for i, hbar in enumerate(hbars)],
        model, dt, t_star, observables=("q", "p"), final_only=True)
    err_c, err_s, ses = [], [], []
    for i, est in enumerate(ests):
        member = dynamics.Trajectory(ts.times, ClassicalPhasePoint(
            q=ts.states.q[:, i], p=ts.states.p[:, i]))
        err_c.append(phase_error(tc, est, t_star))
        err_s.append(phase_error(member, est, t_star))
        ses.append(float(np.sqrt(np.sum(est.ses["q"][-1] ** 2)
                                 + np.sum(est.ses["p"][-1] ** 2))))
    return err_c, err_s, ses
