"""The benchmark's workloads: CLI arguments, output checks, accuracy.

Every workload uses the paper's initial states (those of
tests/test_acceptance.py, which are also the README's examples) and
writes its output as ``out.csv`` in the child's working directory, so the
gnuplot script that references it is byte-identical from run to run.
The benchmark seed feeds only the Egorov sampling (``--seed``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Copied from tests/test_acceptance.py so that a test change cannot
# silently change the benchmark's checks; bench/tests asserts they agree.
RATE_2D_SEMI, RATE_2D_CLASSICAL = (1.0, 1.7), (0.55, 0.95)
DRIFT_TOL = 1e-7
SWEEP_HBARS = (0.5, 0.3, 0.1, 0.05, 0.03, 0.01)

# mean_H0 of the Egorov ensemble is conserved sample by sample by the
# classical flow; RK4 at dt = 0.01 keeps it to ~1e-10 relative here.
H0_REL_TOL = 1e-8

STATE_2D = ["--q", "1,0", "--p", "0,1", "--A=-3,-6,-6,-6", "--B", "1,0.5,0.5,1"]
STATE_1D = ["--q", "0.5", "--p=-1", "--A", "0", "--B", "1"]


def egorov_seed(seed: int) -> int:
    # converge uses Philox keys seed .. seed+5; spacing benchmark seeds by 8
    # keeps the streams of different benchmark seeds disjoint
    return 8 * seed


class CheckFailed(Exception):
    pass


def read_csv(path: Path) -> tuple[list[str], list[list[float]], list[str]]:
    """Header, numeric rows and `#` footer lines of a gwpdyn CSV."""
    lines = path.read_text().splitlines()
    if not lines:
        raise CheckFailed(f"{path.name} is empty")
    header = lines[0].split(",")
    rows, footer = [], []
    for line in lines[1:]:
        if line.startswith("#"):
            footer.append(line)
        else:
            rows.append([float(v) for v in line.split(",")])
    if any(len(r) != len(header) for r in rows):
        raise CheckFailed(f"{path.name}: row width differs from header")
    return header, rows, footer


def column(header, rows, name) -> list[float]:
    if name not in header:
        raise CheckFailed(f"column {name!r} missing")
    i = header.index(name)
    return [r[i] for r in rows]


def footer_values(footer, key) -> list[str]:
    for line in footer:
        parts = line[1:].strip().split(",")
        if parts[0] == key:
            return parts[1:]
    raise CheckFailed(f"footer line {key!r} missing")


def max_drift(values) -> float:
    return max(abs(v - values[0]) for v in values)


# -- sweep-2d -----------------------------------------------------------------


def sweep_argv(seed: int) -> list[str]:
    small, large = 3000, 30000  # the paper's 10:1 ratio, scaled down 33x
    counts = [large if h <= 0.03 else small for h in SWEEP_HBARS]
    return ["converge", "--potential", "quartic2d", *STATE_2D,
            "--t-star", "2", "--dt", "0.01",
            "--hbars", ",".join(str(h) for h in SWEEP_HBARS),
            "--samples", ",".join(str(n) for n in counts),
            "--seed", str(egorov_seed(seed)), "--out", "out.csv"]


def sweep_check(out: Path) -> None:
    header, rows, footer = read_csv(out / "out.csv")
    hbars = column(header, rows, "hbar")
    if len(hbars) != len(SWEEP_HBARS):
        raise CheckFailed(f"{len(hbars)} sweep points, expected {len(SWEEP_HBARS)}")
    err_c = column(header, rows, "classical_error")
    err_s = column(header, rows, "semiclassical_error")
    for h, ec, es in zip(hbars, err_c, err_s):
        if not es < ec:
            raise CheckFailed(f"hbar={h}: semiclassical error {es} >= classical {ec}")
    for key, (lo, hi) in (("fit_classical", RATE_2D_CLASSICAL),
                          ("fit_semiclassical", RATE_2D_SEMI)):
        rate = float(footer_values(footer, key)[1])
        if not lo <= rate <= hi:
            raise CheckFailed(f"{key} rate {rate} outside [{lo}, {hi}]")
    if not (out / "out.gp").is_file():
        raise CheckFailed("gnuplot script missing")


def sweep_error(out: Path) -> float:
    # Monte-Carlo standard error of the final (q, p) mean at the smallest hbar
    header, rows, _ = read_csv(out / "out.csv")
    hbars = column(header, rows, "hbar")
    return column(header, rows, "egorov_se")[hbars.index(min(hbars))]


# -- series-1d ----------------------------------------------------------------


def series_argv(seed: int) -> list[str]:
    # 260 000 samples exceed egorov.DEFAULT_CHUNK (250 000): two chunks
    return ["egorov", "--potential", "cosine1d", *STATE_1D, "--hbar", "0.1",
            "--t-final", "0.5", "--dt", "0.01", "--samples", "260000",
            "--seed", str(egorov_seed(seed)), "--out", "out.csv"]


def series_check(out: Path) -> None:
    header, rows, footer = read_csv(out / "out.csv")
    excluded = int(footer_values(footer, "excluded_samples")[0])
    if excluded != 0:
        raise CheckFailed(f"{excluded} samples excluded")
    h0 = column(header, rows, "mean_H0")
    drift = max_drift(h0) / abs(h0[0])
    if not drift <= H0_REL_TOL:
        raise CheckFailed(f"mean_H0 relative drift {drift:.3g} > {H0_REL_TOL}")


def series_error(out: Path) -> float:
    header, rows, _ = read_csv(out / "out.csv")
    return math.hypot(column(header, rows, "se_q1")[-1],
                      column(header, rows, "se_p1")[-1])


# -- packet-2d ----------------------------------------------------------------


def packet_argv(seed: int) -> list[str]:
    return ["simulate", "--model", "semiclassical", "--potential", "quartic2d",
            *STATE_2D, "--hbar", "0.1", "--dt", "0.0005", "--t-final", "1",
            "--out", "out.csv"]


def packet_check(out: Path) -> None:
    header, rows, footer = read_csv(out / "out.csv")
    if any("aborted" in line for line in footer):
        raise CheckFailed(f"integration aborted: {footer}")
    hh = column(header, rows, "Hhbar")
    # the acceptance definitions: relative for Hhbar, absolute for J12
    dh, dj = max_drift(hh) / abs(hh[0]), max_drift(column(header, rows, "J12"))
    if not (dh < DRIFT_TOL and dj < DRIFT_TOL):
        raise CheckFailed(f"drift Hhbar {dh:.3g}, J12 {dj:.3g} (tol {DRIFT_TOL})")
    if not (out / "out.gp").is_file():
        raise CheckFailed("gnuplot script missing")


@dataclass(frozen=True)
class Workload:
    """`error` is the Monte-Carlo standard error of a run's final (q, p)
    mean: time_to_tol_s = wall_s * (error / target) ** 2, the time the same
    method would need at its measured cost to bring it to `target`.  A
    workload without Monte-Carlo error has neither; its time_to_tol_s is
    its wall_s."""

    name: str
    argv: Callable[[int], list]
    check: Callable[[Path], None]
    error: Callable[[Path], float] | None = None
    target: float | None = None


WORKLOADS = {w.name: w for w in (
    Workload("sweep-2d", sweep_argv, sweep_check, sweep_error, target=5e-4),
    Workload("series-1d", series_argv, series_check, series_error, target=1e-4),
    Workload("packet-2d", packet_argv, packet_check),
)}
