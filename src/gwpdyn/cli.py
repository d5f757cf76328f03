"""Command-line front end: simulate / egorov / converge / check.

All numeric output is CSV (comma separated, '.' decimal point, 17
significant digits) so that repeated runs with identical configs are
byte-identical.  Plot output is a generated gnuplot script referencing
the CSV, never a rendered image.  Every flag can also be given in a
config file as `key = value` lines (flags override the file; unknown
keys are errors).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from dataclasses import dataclass, field

import numpy as np

from . import checks, dynamics, egorov
from .observables import loglog_fit
from .packet import make_packet_state
from .potentials import model_by_name

PAPER_HBARS = (0.5, 0.3, 0.1, 0.05, 0.03, 0.01)
QUAD_KEYS = ("K", "b", "c", "M0", "a0", "mass")

ALLOWED_KEYS = {
    "simulate": {"model", "potential", "q", "p", "A", "B", "hbar", "dt",
                 "t_final", "out", *QUAD_KEYS},
    "egorov": {"potential", "q", "p", "A", "B", "hbar", "dt", "t_final",
               "samples", "seed", "out", *QUAD_KEYS},
    "converge": {"potential", "q", "p", "A", "B", "hbars", "dt", "t_star",
                 "samples", "seed", "out", *QUAD_KEYS},
    "check": {"samples", "seed"},
}


class CliError(Exception):
    pass


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


# ---------------------------------------------------------------------------
# configuration


def load_config_file(path: str) -> dict:
    kv = {}
    try:
        with open(path) as f:
            lines = f.readlines()
    except OSError as e:
        raise CliError(f"cannot read config file {path}: {e}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected `key = value`, got {line!r}")
        key, _, value = line.partition("=")
        kv[key.strip().replace("-", "_")] = value.strip()
    return kv


def resolve_settings(args: argparse.Namespace, command: str) -> dict:
    """Merge config-file entries with explicit flags (flags win)."""
    allowed = ALLOWED_KEYS[command]
    cfg: dict = {}
    if getattr(args, "config", None):
        for key, value in load_config_file(args.config).items():
            if key not in allowed:
                raise CliError(
                    f"unknown config key {key!r} for command {command!r}; "
                    f"allowed: {', '.join(sorted(allowed))}")
            cfg[key] = value
    for key in allowed:
        v = getattr(args, key, None)
        if v is not None:
            cfg[key] = v
    return cfg


def _parse_vector(s, key: str) -> np.ndarray:
    try:
        return np.array([float(t) for t in str(s).split(",")])
    except ValueError:
        raise CliError(f"{key}: expected comma-separated numbers, got {s!r}") from None


def _parse_matrix(s, d: int, key: str) -> np.ndarray:
    vals = _parse_vector(s, key)
    if vals.size != d * d:
        raise CliError(f"{key}: expected {d * d} entries (row-major {d}x{d}), "
                       f"got {vals.size}")
    return vals.reshape(d, d)


def _to_float(value, key: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise CliError(f"{key}: expected a number, got {value!r}") from None


def _to_int(value, key: str) -> int:
    v = _to_float(value, key)
    if v != int(v):
        raise CliError(f"{key}: expected an integer, got {value!r}")
    return int(v)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved settings for one command invocation.

    Initial-state and quadratic-model entries stay raw in `extra` until
    the dimension is known (it is inferred from q).
    """

    command: str
    model: str = "semiclassical"
    potential: str | None = None
    hbar: float | None = None
    hbars: tuple = ()
    dt: float = 0.01
    t_final: float | None = None
    t_star: float | None = None
    samples: tuple = ()
    seed: int = 0
    out: str = "-"
    extra: dict = field(default_factory=dict)

    def require(self, *keys) -> "RunConfig":
        for key in keys:
            val = getattr(self, key)
            if val is None or (isinstance(val, tuple) and not val):
                raise CliError(f"missing required setting {key!r}")
        return self


def make_run_config(command: str, cfg: dict) -> RunConfig:
    hbars = ()
    if "hbars" in cfg:
        hbars = tuple(float(h) for h in _parse_vector(cfg["hbars"], "hbars"))
    samples = ()
    if "samples" in cfg:
        samples = tuple(_to_int(t, "samples") for t in str(cfg["samples"]).split(","))
    rc = RunConfig(
        command=command,
        model=cfg.get("model", "semiclassical"),
        potential=cfg.get("potential"),
        hbar=_to_float(cfg["hbar"], "hbar") if "hbar" in cfg else None,
        hbars=hbars,
        dt=_to_float(cfg.get("dt", 0.01), "dt"),
        t_final=_to_float(cfg["t_final"], "t_final") if "t_final" in cfg else None,
        t_star=_to_float(cfg["t_star"], "t_star") if "t_star" in cfg else None,
        samples=samples,
        seed=_to_int(cfg.get("seed", 0), "seed"),
        out=cfg.get("out", "-"),
        extra={k: cfg[k] for k in ("q", "p", "A", "B", *QUAD_KEYS) if k in cfg},
    )
    for h in rc.hbars + ((rc.hbar,) if rc.hbar is not None else ()):
        if not (np.isfinite(h) and h > 0.0):
            raise CliError(f"hbar must be positive and finite, got {h}")
    if any(n < 2 for n in rc.samples):
        raise CliError("samples must be >= 2 (a standard error needs two samples)")
    return rc


def build_model_and_state(rc: RunConfig):
    """FieldModel plus validated packet state from resolved settings."""
    rc.require("potential")
    ex = rc.extra
    if "q" not in ex or "p" not in ex:
        raise CliError("missing required settings 'q' and/or 'p'")
    q = _parse_vector(ex["q"], "q")
    p = _parse_vector(ex["p"], "p")
    d = q.size
    if p.size != d:
        raise CliError(f"q and p disagree on dimension ({d} vs {p.size})")
    params = None
    if rc.potential == "quadratic":
        params = {}
        for key in QUAD_KEYS:
            if key not in ex:
                continue
            if key in ("K", "M0"):
                params[key] = _parse_matrix(ex[key], d, key)
            elif key in ("b", "a0"):
                params[key] = _parse_vector(ex[key], key)
            else:
                params[key] = _to_float(ex[key], key)
    try:
        model = model_by_name(rc.potential, d=d, params=params)
    except ValueError as e:
        raise CliError(str(e)) from None
    if model.dim != d:
        raise CliError(f"potential {model.name!r} is {model.dim}-dimensional "
                       f"but q has {d} components")
    A = _parse_matrix(ex["A"], d, "A") if "A" in ex else np.zeros((d, d))
    B = _parse_matrix(ex["B"], d, "B") if "B" in ex else np.eye(d)
    try:
        state = make_packet_state(q, p, A, B)
    except ValueError as e:
        raise CliError(str(e)) from None
    return model, state


@contextlib.contextmanager
def _out_stream(path):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", newline="") as f:
            yield f


def _plot_script_path(out: str) -> str:
    stem = out.rsplit(".", 1)[0] if "." in out.rsplit("/", 1)[-1] else out
    return stem + ".gp"


# ---------------------------------------------------------------------------
# commands


def cmd_simulate(cfg: dict) -> int:
    rc = make_run_config("simulate", cfg).require("hbar", "t_final")
    model, state = build_model_and_state(rc)
    if rc.model not in dynamics.FLAVORS:
        raise CliError(f"unknown model {rc.model!r}; choose from "
                       f"{', '.join(dynamics.FLAVORS)}")
    d = state.d
    traj = dynamics.simulate(model, rc.model, state, rc.hbar, rc.dt, rc.t_final)

    cols = ["t"]
    cols += [f"q{i + 1}" for i in range(d)] + [f"p{i + 1}" for i in range(d)]
    if traj.kind == "packet":
        cols += [f"A{i + 1}{j + 1}" for i in range(d) for j in range(d)]
        cols += [f"B{i + 1}{j + 1}" for i in range(d) for j in range(d)]
        mon_names = ["H0", "Hhbar"] + (["J12"] if d == 2 else []) + ["minEigB"]
    else:
        mon_names = ["H0"] + (["Lz_classical"] if d == 2 else [])
    cols += mon_names

    with _out_stream(rc.out) as f:
        f.write(",".join(cols) + "\n")
        for i in range(len(traj)):
            row = [traj.times[i], *traj.ys[i]]
            row += [traj.monitors[name][i] for name in mon_names]
            f.write(",".join(_fmt(v) for v in row) + "\n")
        if not traj.completed:
            f.write(f"# aborted,step={traj.abort_step},reason={traj.abort_reason}\n")

    if rc.out not in (None, "-"):
        xl, yl = ("q", "p") if d == 1 else ("q1", "q2")
        with open(_plot_script_path(rc.out), "w") as f:
            f.write("set datafile separator ','\n"
                    f"set xlabel '{xl}'\nset ylabel '{yl}'\n"
                    f"plot '{rc.out}' using 2:3 with lines "
                    f"title '{rc.model} ({model.name})'\n")

    if not traj.completed:
        print(f"warning: integration aborted at step {traj.abort_step}: "
              f"{traj.abort_reason}", file=sys.stderr)
        return 3
    return 0


def cmd_egorov(cfg: dict) -> int:
    rc = make_run_config("egorov", cfg).require("hbar", "t_final")
    model, state = build_model_and_state(rc)
    d = state.d
    n = rc.samples[0] if rc.samples else 10 ** 6
    dynamics.time_grid(rc.dt, rc.t_final)  # reject a bad horizon before sampling

    obs = ("q", "p", "H0") + (("Lz",) if d == 2 else ())
    ens = egorov.wigner_sample(state, rc.hbar, seed=rc.seed, N=n)
    est = egorov.propagate_ensemble(ens, model, rc.dt, rc.t_final,
                                    observables=obs)

    cols = ["t"]
    cols += [f"mean_q{i + 1}" for i in range(d)] + [f"mean_p{i + 1}" for i in range(d)]
    cols += [f"se_q{i + 1}" for i in range(d)] + [f"se_p{i + 1}" for i in range(d)]
    cols += ["mean_H0", "se_H0"] + (["mean_Lz", "se_Lz"] if d == 2 else [])
    with _out_stream(rc.out) as f:
        f.write(",".join(cols) + "\n")
        for i in range(est.times.shape[0]):
            row = [est.times[i], *est.means["q"][i], *est.means["p"][i],
                   *est.ses["q"][i], *est.ses["p"][i],
                   est.means["H0"][i], est.ses["H0"][i]]
            if d == 2:
                row += [est.means["Lz"][i], est.ses["Lz"][i]]
            f.write(",".join(_fmt(v) for v in row) + "\n")
        f.write(f"# excluded_samples,{est.excluded}\n")
    return 0


def cmd_converge(cfg: dict) -> int:
    rc = make_run_config("converge", cfg).require("t_star")
    model, state = build_model_and_state(rc)
    hbars = list(rc.hbars) if rc.hbars else list(PAPER_HBARS)
    if len(hbars) < 2:
        raise CliError("converge needs at least two hbar values")
    if len(set(hbars)) < len(hbars):
        raise CliError(f"hbar values must be distinct, got {','.join(map(str, hbars))}")
    if rc.samples:
        counts = list(rc.samples) * len(hbars) if len(rc.samples) == 1 \
            else list(rc.samples)
        if len(counts) != len(hbars):
            raise CliError(f"samples: expected 1 or {len(hbars)} counts, "
                           f"got {len(rc.samples)}")
    else:
        counts = [10 ** 7 if h <= 0.01 else 10 ** 6 for h in hbars]

    err_c, err_s, ses = [], [], []
    for i, h in enumerate(hbars):
        tc = dynamics.simulate(model, "classical", state, h, rc.dt, rc.t_star)
        ts = dynamics.simulate(model, "semiclassical", state, h, rc.dt, rc.t_star)
        for traj, label in ((tc, "classical"), (ts, "semiclassical")):
            if not traj.completed:
                raise CliError(f"{label} run at hbar={h} aborted at step "
                               f"{traj.abort_step}: {traj.abort_reason}")
        ens = egorov.wigner_sample(state, h, seed=rc.seed + i, N=counts[i])
        est = egorov.propagate_ensemble(ens, model, rc.dt, rc.t_star,
                                        observables=("q", "p"),
                                        final_only=True)
        err_c.append(egorov.phase_error(tc, est, rc.t_star))
        err_s.append(egorov.phase_error(ts, est, rc.t_star))
        ses.append(float(np.sqrt(np.sum(est.ses["q"][-1] ** 2)
                                 + np.sum(est.ses["p"][-1] ** 2))))

    fit_c = loglog_fit(hbars, err_c)
    fit_s = loglog_fit(hbars, err_s)

    with _out_stream(rc.out) as f:
        f.write("hbar,classical_error,semiclassical_error,egorov_se\n")
        for h, ec, es, se in zip(hbars, err_c, err_s, ses):
            f.write(",".join(_fmt(v) for v in (h, ec, es, se)) + "\n")
        f.write(f"# fit_classical,{_fmt(fit_c[0])},{_fmt(fit_c[1])}\n")
        f.write(f"# fit_semiclassical,{_fmt(fit_s[0])},{_fmt(fit_s[1])}\n")
    print(f"classical:      error ~ exp({fit_c[0]:.4f}) * hbar^{fit_c[1]:.4f}")
    print(f"semiclassical:  error ~ exp({fit_s[0]:.4f}) * hbar^{fit_s[1]:.4f}")

    if rc.out not in (None, "-"):
        with open(_plot_script_path(rc.out), "w") as f:
            f.write(
                "set datafile separator ','\n"
                "set logscale xy\n"
                "set xlabel 'hbar'\n"
                f"set ylabel 'phase-space error at t*={_fmt(rc.t_star)}'\n"
                "set key left top\n"
                f"plot '{rc.out}' using 1:2 with points pt 7 title 'classical', \\\n"
                f"     '{rc.out}' using 1:3 with points pt 5 title 'semiclassical', \\\n"
                f"     exp({_fmt(fit_c[0])})*x**{_fmt(fit_c[1])} with lines dashtype 2 "
                f"title 'slope {fit_c[1]:.3f}', \\\n"
                f"     exp({_fmt(fit_s[0])})*x**{_fmt(fit_s[1])} with lines dashtype 3 "
                f"title 'slope {fit_s[1]:.3f}'\n")
    return 0


def cmd_check(cfg: dict) -> int:
    rc = make_run_config("check", cfg)
    n = rc.samples[0] if rc.samples else 20_000
    results = checks.run_check_suite(egorov_samples=n, seed=rc.seed)
    width = max(len(r.name) for r in results)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name:<{width}}  {r.detail}")
    n_fail = sum(not r.passed for r in results)
    print(f"{len(results) - n_fail}/{len(results)} checks passed")
    return 0 if n_fail == 0 else 1


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(sub, *names):
    flags = {
        "model": dict(help="propagation flavor: classical, zhou, semiclassical"),
        "potential": dict(help="field model: cosine1d, quartic2d, quadratic, free"),
        "q": dict(help="initial position, comma-separated"),
        "p": dict(help="initial momentum, comma-separated"),
        "A": dict(help="initial width matrix A, row-major (default zeros)"),
        "B": dict(help="initial width matrix B, row-major (default identity)"),
        "hbar": dict(help="semiclassical parameter"),
        "hbars": dict(help="comma-separated hbar list (converge)"),
        "dt": dict(help="time step (default 0.01)"),
        "t-final": dict(help="final time"),
        "t-star": dict(help="comparison time for convergence errors"),
        "samples": dict(help="Monte-Carlo sample count (or per-hbar list)"),
        "seed": dict(help="RNG seed (default 0)"),
        "out": dict(help="output CSV path, '-' for stdout"),
    }
    for name in names:
        sub.add_argument(f"--{name}", **flags[name])
    sub.add_argument("--config", help="config file with `key = value` lines")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gwpdyn",
        description="Gaussian wave packet propagation in scalar and vector "
                    "potentials, with a Monte-Carlo quantum reference.")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("simulate", help="integrate one trajectory to CSV")
    _add_common(s, "model", "potential", "q", "p", "A", "B", "hbar", "dt",
                "t-final", "out")

    s = subs.add_parser("egorov", help="Monte-Carlo expectation time series")
    _add_common(s, "potential", "q", "p", "A", "B", "hbar", "dt", "t-final",
                "samples", "seed", "out")

    s = subs.add_parser("converge", help="error-vs-hbar sweep with rate fits")
    _add_common(s, "potential", "q", "p", "A", "B", "hbars", "dt", "t-star",
                "samples", "seed", "out")

    s = subs.add_parser("check", help="run the built-in consistency suite")
    _add_common(s, "samples", "seed")

    return parser


COMMANDS = {
    "simulate": cmd_simulate,
    "egorov": cmd_egorov,
    "converge": cmd_converge,
    "check": cmd_check,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_settings(args, args.command)
        return COMMANDS[args.command](cfg)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
