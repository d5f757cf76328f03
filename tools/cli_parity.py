"""Byte-for-byte comparison of the gwpdyn command line between two trees.

    python3 tools/cli_parity.py OLD_TREE NEW_TREE

Each case runs `python -m gwpdyn ARGS` twice, once with OLD_TREE/src and
once with NEW_TREE/src on PYTHONPATH, each in a fresh empty directory
(holding only the case's config file, if it has one).  The exit code,
stdout, stderr and every file the run wrote must be the same bytes.
One line is printed per case; the exit code is 1 if any case differs.
For stdout and each .csv file that differs, the line also says how many
of its numeric cells differ and their largest difference relative to
max(1, |old|, |new|), so a move of the last bits reads apart from a
changed result, also for a cell near zero.

The cases cover `simulate` with every flavor on every bundled model, a
run longer than one monitor slice, an aborted run, `egorov` and
`converge` in 1D and 2D (one `converge` whose hbars each span several
transport blocks), `check`, and the argvs of the benchmark's three
workloads (read from NEW_TREE/bench).
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import subprocess
import sys
import tempfile
from pathlib import Path

STATE_1D = ["--q", "0.5", "--p=-1", "--A", "0", "--B", "1"]
STATE_2D = ["--q", "1,0", "--p", "0,1", "--A=-3,-6,-6,-6", "--B", "1,0.5,0.5,1"]
# a 2D quadratic model with a non-symmetric M0, so its field is not uniform
# in the packet's frame, and a non-unit mass
QUADRATIC_2D = ("potential = quadratic\nK = 2,0.3,0.3,1\nb = 0.1,-0.2\nc = 0.5\n"
                "M0 = 0.2,-0.7,0.4,0.1\na0 = 0.3,0\nmass = 1.5\n"
                "q = 0.4,-0.3\np = 0.2,0.6\nA = 0.5,0.1,0.1,-0.2\nB = 1.2,0.3,0.3,0.8\n")
FLAVORS = ("classical", "zhou", "semiclassical")


def cases(new_tree: Path) -> list[tuple[str, list[str], dict]]:
    """(name, argv, files to place in the run directory) for every case."""
    out = []
    models = {
        "cosine1d": (["--potential", "cosine1d", *STATE_1D], "0.01", "3", {}),
        "quartic2d": (["--potential", "quartic2d", *STATE_2D], "0.005", "2", {}),
        "free2d": (["--potential", "free", "--q", "0.2,-1", "--p", "1,0.5"],
                   "0.01", "2", {}),
        "quadratic2d": (["--config", "run.cfg"], "0.01", "2",
                        {"run.cfg": QUADRATIC_2D}),
    }
    for name, (args, dt, t_final, files) in models.items():
        for flavor in FLAVORS:
            out.append((f"simulate-{name}-{flavor}",
                        ["simulate", "--model", flavor, *args, "--hbar", "0.1",
                         "--dt", dt, "--t-final", t_final, "--out", "run.csv"], files))
    out += [
        ("simulate-cosine1d-stdout",
         ["simulate", "--potential", "cosine1d", *STATE_1D, "--hbar", "0.3",
          "--dt", "0.02", "--t-final", "1"], {}),
        # 5001 states, more than dynamics.MONITOR_BLOCK = 4096: the monitors
        # are evaluated in slices
        ("simulate-cosine1d-long",
         ["simulate", "--model", "semiclassical", "--potential", "cosine1d", *STATE_1D,
          "--hbar", "0.1", "--dt", "0.001", "--t-final", "5", "--out", "run.csv"], {}),
        # the order-hbar flow breaks down near t = 3.86 at hbar = 0.5: exit 3
        ("simulate-cosine1d-aborted",
         ["simulate", "--potential", "cosine1d", *STATE_1D, "--hbar", "0.5",
          "--dt", "0.01", "--t-final", "5", "--out", "run.csv"], {}),
        ("egorov-cosine1d",
         ["egorov", "--potential", "cosine1d", *STATE_1D, "--hbar", "0.1",
          "--dt", "0.01", "--t-final", "1", "--samples", "4000", "--seed", "5",
          "--out", "run.csv"], {}),
        ("egorov-quartic2d",
         ["egorov", "--potential", "quartic2d", *STATE_2D, "--hbar", "0.1",
          "--dt", "0.01", "--t-final", "1", "--samples", "4000", "--seed", "6",
          "--out", "run.csv"], {}),
        ("converge-cosine1d",
         ["converge", "--potential", "cosine1d", *STATE_1D, "--t-star", "1.6",
          "--dt", "0.01", "--hbars", "0.5,0.1,0.03,0.01", "--samples", "4000",
          "--seed", "7", "--out", "run.csv"], {}),
        ("converge-quartic2d",
         ["converge", "--potential", "quartic2d", *STATE_2D, "--t-star", "2",
          "--dt", "0.01", "--hbars", "0.3,0.1,0.03", "--samples", "800,800,8000",
          "--seed", "8", "--out", "run.csv"], {}),
        # every hbar spans several transport blocks (DEFAULT_CHUNK = 8192)
        ("converge-quartic2d-multiblock",
         ["converge", "--potential", "quartic2d", *STATE_2D, "--t-star", "1",
          "--dt", "0.01", "--hbars", "0.3,0.1,0.03", "--samples", "20000,24000,40000",
          "--seed", "9", "--out", "run.csv"], {}),
        ("check", ["check", "--samples", "2000", "--seed", "3"], {}),
    ]
    spec = importlib.util.spec_from_file_location("workloads",
                                                  new_tree / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules["workloads"] = workloads
    spec.loader.exec_module(workloads)
    for name, workload in workloads.WORKLOADS.items():
        out.append((f"bench-{name}", workload.argv(1), {}))
    return out


def run(tree: Path, argv: list[str], files: dict) -> tuple:
    """Exit code, stdout, stderr and {path: bytes} of one run in a fresh
    directory; the case's own input files are not counted as output."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, text in files.items():
            (work / name).write_text(text)
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-m", "gwpdyn", *argv], cwd=work,
                              env=env, capture_output=True, timeout=600)
        written = {str(f.relative_to(work)): f.read_bytes()
                   for f in sorted(work.rglob("*")) if f.is_file()
                   and str(f.relative_to(work)) not in files}
    return proc.returncode, proc.stdout, proc.stderr, written


def cell_diff(x: bytes, y: bytes) -> str:
    """How many numeric cells of two comma-separated texts differ, and
    their largest relative difference |a - b| / max(1, |a|, |b|); or why
    the texts cannot be compared cell by cell.  The 1 keeps round-off on
    a cell near zero from reading as a large relative move."""
    rows_x = [line.split(",") for line in x.decode().splitlines()]
    rows_y = [line.split(",") for line in y.decode().splitlines()]
    if [len(r) for r in rows_x] != [len(r) for r in rows_y]:
        return "other rows or columns"
    numeric = differing = other = 0
    worst = 0.0
    for row_x, row_y in zip(rows_x, rows_y):
        for cx, cy in zip(row_x, row_y):
            try:
                a, b = float(cx), float(cy)
            except ValueError:
                other += cx != cy
                continue
            numeric += 1
            if cx != cy:
                differing += 1
                rel = abs(a - b) / max(1.0, abs(a), abs(b))
                worst = max(worst, rel if rel == rel else float("inf"))
    text = f"{differing}/{numeric} numeric cells, max rel {worst:.2g}"
    return text + (f", {other} other cells" if other else "")


def compare(old: Path, new: Path, case) -> tuple[str, list[str]]:
    name, argv, files = case
    a, b = run(old, argv, files), run(new, argv, files)
    diffs = [part for part, x, y in zip(("exit code", "stdout", "stderr"), a, b) if x != y]
    if "stdout" in diffs:
        diffs[diffs.index("stdout")] = f"stdout ({cell_diff(a[1], b[1])})"
    for path in sorted(set(a[3]) | set(b[3])):
        x, y = a[3].get(path), b[3].get(path)
        if x == y:
            continue
        if path.endswith(".csv") and x is not None and y is not None:
            path += f" ({cell_diff(x, y)})"
        diffs.append(path)
    return name, [f"exit {a[0]}, {len(a[3])} files"] + diffs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args()
    old, new = args.old.resolve(), args.new.resolve()
    results = [compare(old, new, case) for case in cases(new)]
    n_diff = 0
    for name, (summary, *diffs) in results:
        n_diff += bool(diffs)
        verdict = "DIFFERS in " + ", ".join(diffs) if diffs else "identical"
        print(f"{name:<34} {summary:<18} {verdict}")
    print(f"{len(results) - n_diff}/{len(results)} cases identical")
    return 1 if n_diff else 0


if __name__ == "__main__":
    sys.exit(main())
