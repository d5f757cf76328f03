"""The benchmark's measuring process: one fresh interpreter per use.

    python3 bench/child.py MODE WORKLOAD SECONDS RESULT_JSON CLI_ARG...

calls ``gwpdyn.cli.main(CLI_ARG...)`` in-process from the checkout's
``src/`` (the ``gwpdyn`` console script need not be installed), with the
working directory as the output directory, and writes RESULT_JSON.  MODE
is one of

* ``probe``: stop at the first library call, which measures set-up alone,
  then time the calibration loop (`calibrate`) and record the versions of
  the interpreter and libraries;
* ``run``:   a closed loop with one caller: invoke, check the output, and
  invoke again until the next invocation would end past SECONDS (at least
  two invocations, so that their output digests can be compared);
* ``trace``: as ``run``, with every layer boundary timed (see
  `install_tracing`) and per-layer figures for each invocation.

The first library call is stamped with ``time.monotonic()``, the
system-wide CLOCK_MONOTONIC on Linux, so the parent can subtract its own
spawn time.  Exit code 3 means the program could not be imported.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed, read_csv  # noqa: E402

EXIT_NO_PROGRAM = 3

# metric prefix -> boundaries it is computed from; a metric whose boundary
# the program no longer has is left out, never reported as zero
NEEDS = {
    "potentials.": ("cli.model_by_name", "dynamics.DerivedSquares"),
    "dynamics.aborted": ("dynamics.simulate",),
    "dynamics.": ("dynamics.simulate", "dynamics.rk4_integrate"),
    "egorov.sample_ns_per_sample": ("egorov.wigner_sample",),
    "egorov.transport_ns_per_sample_step": ("egorov._classical_flow_step",),
    "egorov.reduce_ns_per_sample_step": ("egorov.propagate_ensemble",
                                         "egorov._classical_flow_step"),
    "egorov.excluded": ("egorov.wigner_sample", "egorov.propagate_ensemble"),
    "egorov.samples_drawn": ("egorov.wigner_sample",),
    "egorov.reduced_steps": ("egorov.propagate_ensemble",),
    "egorov.self_s": ("egorov.wigner_sample", "egorov.propagate_ensemble",
                      "egorov._classical_flow_step"),
}


class SetupDone(Exception):
    """Raised by the probe at the first library call (not a ValueError,
    so the CLI's error handler lets it through)."""


class RowsRead(np.ndarray):
    """Array view that records which rows (grid times) are indexed."""

    rows = None

    def __getitem__(self, idx):
        if self.rows is not None:
            first = idx[0] if isinstance(idx, tuple) else idx
            self.rows.update(np.arange(self.shape[0])[first].ravel().tolist())
        return self.view(np.ndarray)[idx]


def install_tracing(tracer: Tracer, cli, dynamics, egorov) -> tuple[list, callable]:
    """Replace the module attributes the program looks up at call time
    with timed stand-ins.  Returns the boundaries that were not found and
    a function that folds an invocation's end counters into the tracer."""
    missing = []
    rows_read = []

    def patch(module, attr, make):
        if hasattr(module, attr):
            setattr(module, attr, make(getattr(module, attr)))
        else:
            missing.append(f"{module.__name__.split('.')[-1]}.{attr}")

    # potentials: every FieldModel callback and the |A|^2 calculus
    def model_by_name(factory):
        def traced_factory(*args, **kwargs):
            model = factory(*args, **kwargs)
            return dataclasses.replace(model, **{
                f.name: tracer.wrap(f"potentials.{f.name}", getattr(model, f.name))
                for f in dataclasses.fields(model)
                if callable(getattr(model, f.name))})
        return traced_factory

    def derived_squares(cls):
        return type(cls.__name__, (cls,), {
            name: tracer.wrap(f"potentials.DerivedSquares.{name}", fn)
            for name, fn in vars(cls).items()
            if callable(fn) and not name.startswith("_")})

    patch(cli, "model_by_name", model_by_name)
    patch(dynamics, "DerivedSquares", derived_squares)

    # dynamics: one span per trajectory, per-call stats for the right-hand
    # side and the monitors handed to the RK4 driver
    def simulate(fn):
        def after(args, kwargs, traj):
            tracer.count("dynamics.aborted", not traj.completed)
        return tracer.wrap("dynamics.simulate", fn, span=True, after=after)

    def rk4_integrate(fn):
        def after(args, kwargs, traj):
            tracer.count("dynamics.rk4_steps", len(traj.times) - 1)
        timed = tracer.wrap("dynamics.rk4_integrate", fn, span=True, after=after)

        def entry(rhs, *args, monitors=None, **kwargs):
            if monitors:
                monitors = {name: tracer.wrap("dynamics.monitor", m)
                            for name, m in monitors.items()}
            return timed(tracer.wrap("dynamics.rhs", rhs), *args,
                         monitors=monitors, **kwargs)
        return entry

    patch(dynamics, "simulate", simulate)
    patch(dynamics, "rk4_integrate", rk4_integrate)

    # egorov: sampling and ensemble transport as spans; transport steps and
    # per-step observables (no public boundary) as per-call stats
    def wigner_sample(fn):
        def after(args, kwargs, ens):
            tracer.count("egorov.samples_drawn", ens.n)
        return tracer.wrap("egorov.wigner_sample", fn, span=True, after=after)

    def propagate_ensemble(fn):
        def after(args, kwargs, est):
            grid = est.times.shape[0]
            tracer.count("egorov.reduced_steps", grid)
            tracer.count("egorov.sample_steps_reduced", est.n_samples * grid)
            tracer.count("egorov.excluded", est.excluded)
            rows = set()
            rows_read.append(rows)

            def watch(arrays):
                out = {}
                for name, a in arrays.items():
                    out[name] = a.view(RowsRead)
                    out[name].rows = rows
                return out
            return dataclasses.replace(est, means=watch(est.means),
                                       ses=watch(est.ses))
        return tracer.wrap("egorov.propagate_ensemble", fn, span=True, after=after)

    def flow_step(fn):
        def after(args, kwargs, result):
            tracer.count("egorov.sample_steps_transported", args[0].shape[0])
        return tracer.wrap("egorov.transport", fn, after=after)

    patch(egorov, "wigner_sample", wigner_sample)
    patch(egorov, "propagate_ensemble", propagate_ensemble)
    patch(egorov, "_classical_flow_step", flow_step)
    patch(egorov, "_observe", lambda fn: tracer.wrap("egorov.observe", fn))
    patch(egorov, "phase_error", lambda fn: tracer.wrap("egorov.phase_error", fn))

    def finish():
        tracer.counters["egorov.reduced_steps_used"] = sum(len(r) for r in rows_read)
        rows_read.clear()

    return missing, finish


def layer_metrics(trace: dict, wall_s: float, out: Path, missing=()) -> dict:
    """Per-layer figures of one traced invocation."""
    st, ct = trace["stats"], trace["counters"]

    def s(name, key):
        return st.get(name, {}).get(key, 0)

    def ratio(num, den, scale):
        return num / den * scale if den else 0.0

    layers = {}
    for name, v in st.items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + v["self_s"]
    pot_calls = sum(v["calls"] for n, v in st.items() if n.startswith("potentials."))
    _, rows, _ = read_csv(out / "out.csv")
    transport = s("egorov.transport", "incl_s")
    samples = ct.get("egorov.samples_drawn", 0)
    m = {
        "traced_wall_s": wall_s,
        "unattributed_s": wall_s - sum(layers.values()),
        "potentials.calls": pot_calls,
        "potentials.busy_s": layers.get("potentials", 0.0),
        "potentials.us_per_call": ratio(layers.get("potentials", 0.0), pot_calls, 1e6),
        "dynamics.self_s": layers.get("dynamics", 0.0),
        "dynamics.rhs_calls": s("dynamics.rhs", "calls"),
        "dynamics.rhs_us_per_call": ratio(s("dynamics.rhs", "incl_s"),
                                          s("dynamics.rhs", "calls"), 1e6),
        "dynamics.rk4_steps": ct.get("dynamics.rk4_steps", 0),
        "dynamics.rk4_self_s": s("dynamics.rk4_integrate", "self_s"),
        "dynamics.monitor_busy_s": s("dynamics.monitor", "incl_s"),
        "dynamics.aborted": ct.get("dynamics.aborted", 0),
        "egorov.self_s": layers.get("egorov", 0.0),
        "egorov.samples_drawn": samples,
        "egorov.excluded": ct.get("egorov.excluded", 0),
        "egorov.excluded_frac": ratio(ct.get("egorov.excluded", 0), samples, 1.0),
        "egorov.sample_ns_per_sample": ratio(s("egorov.wigner_sample", "incl_s"),
                                             samples, 1e9),
        "egorov.transport_ns_per_sample_step": ratio(
            transport, ct.get("egorov.sample_steps_transported", 0), 1e9),
        "egorov.reduce_ns_per_sample_step": ratio(
            s("egorov.propagate_ensemble", "incl_s") - transport,
            ct.get("egorov.sample_steps_reduced", 0), 1e9),
        "egorov.reduced_steps": ct.get("egorov.reduced_steps", 0),
        "egorov.reduced_steps_used": ct.get("egorov.reduced_steps_used", 0),
        "egorov.reduced_steps_used_frac": ratio(
            ct.get("egorov.reduced_steps_used", 0),
            ct.get("egorov.reduced_steps", 0), 1.0),
        "cli.self_s": s("cli.main", "self_s"),
        "cli.rows_written": len(rows),
        "cli.bytes_written": sum(f.stat().st_size for f in out.iterdir()),
    }
    for metric in list(m):
        needs = next((b for prefix, b in NEEDS.items() if metric.startswith(prefix)), ())
        if set(missing).intersection(needs):
            del m[metric]
    return m


def digest(out: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(out.iterdir()):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def judge(rc: int, workload, out: Path) -> tuple[str | None, float | None]:
    """(problem, accuracy): problem is None if the invocation succeeded
    and its output passes the workload's checks."""
    if rc != 0:
        return f"exit code {rc}", None
    try:
        workload.check(out)
        return None, workload.error(out) if workload.error else None
    except (CheckFailed, OSError, ValueError, IndexError) as e:
        return f"check failed: {e}", None


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import ctypes
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def calibrate() -> float:
    """The machine's current speed: seconds a fixed pure-Python loop takes
    now (best of three)."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i
        best = min(best, time.perf_counter() - t0)
    return best


def closed_loop(run_cli, cli_argv, workload, seconds, tracer, finish, result):
    """Invoke, check, repeat; one record per invocation in `result`.  Each
    invocation is bracketed by calibrations; `cal_s` is their mean."""
    out = Path.cwd()
    start = time.perf_counter()
    cal_before = calibrate()
    while True:
        for f in out.iterdir():
            f.unlink()
        if tracer is not None:
            tracer.reset()
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            rc = run_cli(cli_argv)
            wall = time.perf_counter() - t0
        cal_after = calibrate()
        problem, error = judge(rc, workload, out)
        inv = {"wall_s": wall, "cal_s": 0.5 * (cal_before + cal_after),
               "problem": problem, "error": error,
               "digest": digest(out) if problem is None else None}
        cal_before = cal_after
        if tracer is not None and problem is None:
            finish()
            trace = tracer.dump()
            inv["layers"] = layer_metrics(trace, wall, out, result["missing"])
            inv["trace"] = trace
        result["invocations"].append(inv)
        n, elapsed = len(result["invocations"]), time.perf_counter() - start
        if n >= 2 and elapsed * (n + 1) / n > seconds:
            return


def main(argv: list[str]) -> int:
    mode, workload, seconds = argv[0], WORKLOADS[argv[1]], float(argv[2])
    result_path, cli_argv = Path(argv[3]), argv[4:]
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from gwpdyn import cli, dynamics, egorov
    except ImportError as e:
        print(f"cannot import gwpdyn from {ROOT / 'src'}: {e}", file=sys.stderr)
        return EXIT_NO_PROGRAM

    result: dict = {"first_call": None, "invocations": []}
    tracer = Tracer() if mode == "trace" else None
    run_cli, finish = cli.main, None
    if tracer is not None:
        result["missing"], finish = install_tracing(tracer, cli, dynamics, egorov)
        run_cli = tracer.wrap("cli.main", cli.main, span=True)

    def mark_first_call(fn):
        def first_call(*args, **kwargs):
            if result["first_call"] is None:
                result["first_call"] = time.monotonic()
                if mode == "probe":
                    raise SetupDone
            return fn(*args, **kwargs)
        return first_call

    for module, attr in ((dynamics, "simulate"), (egorov, "wigner_sample")):
        if hasattr(module, attr):
            setattr(module, attr, mark_first_call(getattr(module, attr)))

    if mode == "probe":
        import scipy
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                run_cli(cli_argv)
            except SetupDone:
                pass
        result["cal_s"] = calibrate()
        result["meta"] = {"python": sys.version.split()[0],
                          "numpy": np.__version__, "scipy": scipy.__version__,
                          "blas_threads": _blas_threads()}
    else:
        closed_loop(run_cli, cli_argv, workload, seconds, tracer, finish, result)
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
