import dataclasses

import numpy as np
import pytest

from gwpdyn.packet import make_packet_state
from gwpdyn.potentials import FieldModel, cosine_1d, quartic_rotational_2d

ACCEPTANCE_LINES: list[str] = []


def record_verdict(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    # captured stdout is hidden for passing tests; repeat the acceptance
    # verdicts where they are always visible
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@dataclasses.dataclass(frozen=True)
class StoredRows:
    """An ensemble held as stored (n, d) rows, for tests that corrupt or
    drop rows; propagate_ensemble reads only n, d, sobol and rows.  With
    sobol, n must stay a multiple of egorov.REPLICATES, and rows
    r n / REPLICATES onward form replicate r."""

    x: np.ndarray
    xi: np.ndarray
    sobol: bool = False

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]

    def rows(self, i0: int, i1: int):
        return self.x[i0:i1].T.copy(), self.xi[i0:i1].T.copy()


def stored_rows(ens) -> StoredRows:
    """The rows of an ensemble, drawn once and stored as (n, d) arrays."""
    x, xi = ens.rows(0, ens.n)
    return StoredRows(x.T.copy(), xi.T.copy(), ens.sobol)


@pytest.fixture
def cos_model():
    return cosine_1d()


@pytest.fixture
def quartic_model():
    return quartic_rotational_2d()


@pytest.fixture
def bench_state_1d():
    # standard 1D initial data: q=0.5, p=-1, A=0, B=1
    return make_packet_state([0.5], [-1.0], [[0.0]], [[1.0]])


@pytest.fixture
def bench_state_2d():
    return make_packet_state([1.0, 0.0], [0.0, 1.0],
                             [[-3.0, -6.0], [-6.0, -6.0]],
                             [[1.0, 0.5], [0.5, 1.0]])


def tilted(model: FieldModel) -> FieldModel:
    """The model with V + x1 (and gradV + e1): a linear tilt that breaks
    any rotation symmetry."""
    e1 = np.eye(model.dim)[0]

    def flow_fields(x):
        a, ja, grad_v = model.flow_fields(x)
        return a, ja, grad_v + e1

    def energy_fields(x):
        a, v = model.energy_fields(x)
        return a, v + np.asarray(x)[..., 0]

    return dataclasses.replace(model, flow_fields=flow_fields, energy_fields=energy_fields)


def gauged(model: FieldModel, H) -> FieldModel:
    """The model in the gauge A' = A + grad chi of the quadratic
    chi(x) = x.Hx/2, H symmetric: the same magnetic field, with
    grad chi = Hx and jacA' = jacA + H.  chi's third derivatives vanish,
    so hessA and grad_hess_trace_A are unchanged."""
    H = np.asarray(H, dtype=float)

    def flow_fields(x):
        a, ja, grad_v = model.flow_fields(x)
        return a + np.asarray(x) @ H, ja + H, grad_v

    def energy_fields(x):
        a, v = model.energy_fields(x)
        return a + np.asarray(x) @ H, v

    return dataclasses.replace(model, name=f"{model.name}-gauged",
                               flow_fields=flow_fields, energy_fields=energy_fields)


def plane_wave_gauge_2d(mass: float = 1.3) -> FieldModel:
    """Synthetic 2D model with genuinely curved vector potential.

    A_k(x) = sin(c_k . x), V = cos(x1) cos(x2).  Unlike the bundled
    benchmark models this has nonzero hessA and a non-unit mass, so it
    exercises every term of the order-hbar momentum equation.
    """
    c = (np.array([1.0, 2.0]), np.array([-1.0, 1.0]))

    def V(x):
        x = np.asarray(x, dtype=float)
        return np.cos(x[..., 0]) * np.cos(x[..., 1])

    def gradV(x):
        x = np.asarray(x, dtype=float)
        x1, x2 = x[..., 0], x[..., 1]
        return np.stack([-np.sin(x1) * np.cos(x2),
                         -np.cos(x1) * np.sin(x2)], axis=-1)

    def hessV(x):
        x = np.asarray(x, dtype=float)
        x1, x2 = x[..., 0], x[..., 1]
        vv = np.cos(x1) * np.cos(x2)
        ss = np.sin(x1) * np.sin(x2)
        return np.stack([np.stack([-vv, ss], axis=-1),
                         np.stack([ss, -vv], axis=-1)], axis=-2)

    def A(x):
        x = np.asarray(x, dtype=float)
        return np.stack([np.sin(x @ ck) for ck in c], axis=-1)

    def jacA(x):
        x = np.asarray(x, dtype=float)
        return np.stack([np.cos(x @ ck)[..., None] * ck for ck in c], axis=-2)

    def hessA(x):
        x = np.asarray(x, dtype=float)
        return np.stack([-np.sin(x @ ck)[..., None, None] * np.outer(ck, ck)
                         for ck in c], axis=-3)

    def ghtV(x, M):
        x = np.asarray(x, dtype=float)
        M = np.asarray(M, dtype=float)
        x1, x2 = x[..., 0], x[..., 1]
        tr = M[..., 0, 0] + M[..., 1, 1]
        off = 2.0 * M[..., 0, 1]
        return np.stack([tr * np.sin(x1) * np.cos(x2) + off * np.cos(x1) * np.sin(x2),
                         tr * np.cos(x1) * np.sin(x2) + off * np.sin(x1) * np.cos(x2)],
                        axis=-1)

    def ghtA(x, M):
        x = np.asarray(x, dtype=float)
        M = np.asarray(M, dtype=float)
        return np.stack([(-np.cos(x @ ck) * (ck @ M @ ck))[..., None] * ck for ck in c],
                        axis=-2)

    return FieldModel(
        name="planewave2d", dim=2, mass=mass,
        flow_fields=lambda x: (A(x), jacA(x), gradV(x)),
        energy_fields=lambda x: (A(x), V(x)),
        hessV=hessV, hessA=hessA,
        grad_hess_trace_V=ghtV, grad_hess_trace_A=ghtA,
    )


def cubic_gauge_2d(mass: float = 0.7) -> FieldModel:
    """Synthetic 2D model whose vector potential has a cubic term.

    A = (x1 x2^2 / 2 - x2 / 2 + 1/4, x1 / 2), V = |x|^2 / 2, so
    B_z = 1 - x1 x2.  hessA_1 = [[0, x2], [x2, x1]] vanishes at the
    origin, where neither A nor the gradient of
    Tr(M hessA_1) = 2 M12 x2 + M22 x1, (M22, 2 M12), does: the case where
    the flow may skip the hessA terms but must keep the grad_hess_trace_A
    ones, p.ght_a and A.ght_a alike.
    """

    def V(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * np.einsum("...i,...i->...", x, x)

    def gradV(x):
        return np.array(x, dtype=float)

    def hessV(x):
        return np.broadcast_to(np.eye(2), np.shape(x)[:-1] + (2, 2))

    def A(x):
        x = np.asarray(x, dtype=float)
        x1, x2 = x[..., 0], x[..., 1]
        return np.stack([0.5 * x1 * x2 * x2 - 0.5 * x2 + 0.25, 0.5 * x1], axis=-1)

    def jacA(x):
        x = np.asarray(x, dtype=float)
        x1, x2 = x[..., 0], x[..., 1]
        half = np.full_like(x1, 0.5)
        return np.stack([np.stack([0.5 * x2 * x2, x1 * x2 - 0.5], axis=-1),
                         np.stack([half, np.zeros_like(x1)], axis=-1)], axis=-2)

    def hessA(x):
        x = np.asarray(x, dtype=float)
        x1, x2 = x[..., 0], x[..., 1]
        out = np.zeros(x.shape[:-1] + (2, 2, 2))
        out[..., 0, 0, 1] = out[..., 0, 1, 0] = x2
        out[..., 0, 1, 1] = x1
        return out

    def ghtV(x, M):
        return np.zeros(np.shape(x))

    def ghtA(x, M):
        M = np.asarray(M, dtype=float)
        out = np.zeros(M.shape[:-2] + (2, 2))
        out[..., 0, 0] = M[..., 1, 1]
        out[..., 0, 1] = 2.0 * M[..., 0, 1]
        return out

    return FieldModel(
        name="cubic2d", dim=2, mass=mass,
        flow_fields=lambda x: (A(x), jacA(x), gradV(x)),
        energy_fields=lambda x: (A(x), V(x)),
        hessV=hessV, hessA=hessA,
        grad_hess_trace_V=ghtV, grad_hess_trace_A=ghtA,
    )


@pytest.fixture
def curved_gauge_model():
    return plane_wave_gauge_2d()
