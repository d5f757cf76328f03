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
import errno
import os
import stat
import sys

import numpy as np

from . import checks, dynamics, egorov
from .observables import loglog_fit
from .packet import PacketState, make_packet_state
from .potentials import model_by_name

PAPER_HBARS = (0.5, 0.3, 0.1, 0.05, 0.03, 0.01)
QUAD_KEYS = ("K", "b", "c", "M0", "a0", "mass")
# converge names every hbar whose semiclassical error is below this many
# reference standard errors: its fitted rate is then Monte-Carlo noise
RESOLVE_Z = 5.0


class CliError(ValueError):
    pass


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


# ---------------------------------------------------------------------------
# setting values: each parser takes the raw value and the setting's key


def _text(value, key: str) -> str:
    return value


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
    # an integer literal exactly, beyond 2**53 too; other forms, such as
    # 1e3, through float
    with contextlib.suppress(ValueError):
        return int(value)
    v = _to_float(value, key)
    if not (np.isfinite(v) and v == int(v)):
        raise CliError(f"{key}: expected an integer, got {value!r}")
    return int(v)


def _seed(value, key: str) -> int:
    v = _to_int(value, key)
    if v < 0:
        raise CliError(f"{key}: expected a nonnegative integer, got {value!r}")
    return v


def _hbar(value, key: str) -> float:
    h = _to_float(value, key)
    if not (np.isfinite(h) and h > 0.0):
        raise CliError(f"hbar must be positive and finite, got {h}")
    return h


def _hbars(value, key: str) -> tuple:
    return tuple(_hbar(h, key) for h in _parse_vector(value, key))


def _counts(value, key: str) -> tuple:
    return tuple(_to_int(t, key) for t in str(value).split(","))


# flag -> (help, parser of its value, default).  A flag's config-file key
# is its name with "_" for "-".
FLAGS = {
    "model": ("propagation flavor: classical, zhou, semiclassical", _text,
              "semiclassical"),
    "potential": ("field model: cosine1d, quartic2d, quadratic, free", _text, None),
    "q": ("initial position, comma-separated", _parse_vector, None),
    "p": ("initial momentum, comma-separated", _parse_vector, None),
    "A": ("initial width matrix A, row-major (default zeros)", _text, None),
    "B": ("initial width matrix B, row-major (default identity)", _text, None),
    "hbar": ("semiclassical parameter", _hbar, None),
    "hbars": ("comma-separated hbar list (converge)", _hbars, PAPER_HBARS),
    "dt": ("time step (default 0.01)", _to_float, 0.01),
    "t-final": ("final time", _to_float, None),
    "t-star": ("comparison time for convergence errors", _to_float, None),
    "samples": ("Monte-Carlo sample count (or per-hbar list); egorov and "
                f"converge take positive multiples of {egorov.REPLICATES}, "
                f"check at least {checks.MIN_SAMPLES}",
                _counts, None),
    "seed": ("RNG seed (default 0)", _seed, 0),
    "out": ("output CSV path, '-' for stdout", _text, "-"),
}


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


def config_keys(command: str) -> list:
    """The config-file keys `command` accepts: those of its flags, and the
    quadratic model's coefficients if it takes a potential."""
    keys = [flag.replace("-", "_") for flag in COMMANDS[command][2]]
    return keys + list(QUAD_KEYS) if "potential" in keys else keys


def resolve_settings(args: argparse.Namespace) -> argparse.Namespace:
    """Every setting of the command, parsed: its flag if given, else its
    config-file entry, else its default (None for a quadratic-model key)."""
    keys = config_keys(args.command)
    given = {}
    if args.config:
        for key, value in load_config_file(args.config).items():
            if key not in keys:
                raise CliError(
                    f"unknown config key {key!r} for command {args.command!r}; "
                    f"allowed: {', '.join(sorted(keys))}")
            given[key] = value
    settings = argparse.Namespace()
    for key in keys:
        if getattr(args, key, None) is not None:
            given[key] = getattr(args, key)
        _, parse, default = FLAGS.get(key.replace("_", "-"), (None, _text, None))
        setattr(settings, key, parse(given[key], key) if key in given else default)
    return settings


def _require(s: argparse.Namespace, *keys) -> None:
    for key in keys:
        if getattr(s, key) is None:
            raise CliError(f"missing required setting {key!r}")


def _one_count(samples, default: int) -> int:
    """The single sample count of egorov and check, or default."""
    if samples is None:
        return default
    if len(samples) != 1:
        raise CliError(f"samples: expected one count, got {len(samples)}")
    return samples[0]


def build_model_and_state(s: argparse.Namespace):
    """FieldModel plus validated packet state from resolved settings."""
    _require(s, "potential")
    if s.q is None or s.p is None:
        raise CliError("missing required settings 'q' and/or 'p'")
    d = s.q.size
    if s.p.size != d:
        raise CliError(f"q and p disagree on dimension ({d} vs {s.p.size})")
    params = None
    if s.potential == "quadratic":
        params = {}
        for key in QUAD_KEYS:
            value = getattr(s, key)
            if value is None:
                continue
            if key in ("K", "M0"):
                params[key] = _parse_matrix(value, d, key)
            elif key in ("b", "a0"):
                params[key] = _parse_vector(value, key)
            else:
                params[key] = _to_float(value, key)
    model = model_by_name(s.potential, d=d, params=params)
    if model.dim != d:
        raise CliError(f"potential {model.name!r} is {model.dim}-dimensional "
                       f"but q has {d} components")
    A = _parse_matrix(s.A, d, "A") if s.A is not None else np.zeros((d, d))
    B = _parse_matrix(s.B, d, "B") if s.B is not None else np.eye(d)
    return model, make_packet_state(s.q, s.p, A, B)


# ---------------------------------------------------------------------------
# output


def _check_out(path: str) -> None:
    """Refuse, before any computation, an output path that open() would
    refuse for its place: one in a missing directory, or a directory.
    The message is open()'s; nothing is created or truncated."""
    if path == "-":
        return
    try:
        if not stat.S_ISDIR(os.stat(os.path.dirname(path) or ".").st_mode):
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR))
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
    except OSError as e:
        raise CliError(f"cannot write {path}: {e.strerror}") from None


@contextlib.contextmanager
def _output(path: str):
    """The file at path opened for writing, or stdout for '-'.  A file
    that cannot be written is bad input; a closed stdout passes through."""
    if path == "-":
        yield sys.stdout
        return
    try:
        with open(path, "w", newline="") as f:
            yield f
    except OSError as e:
        raise CliError(f"cannot write {path}: {e.strerror or e}") from None


def _write_csv(path: str, cols, table, footer: str) -> None:
    """The header, one line per row of table, then the footer's `#`
    lines, to the file at path or, for '-', to stdout."""
    with _output(path) as f:
        f.write(",".join(cols) + "\n")
        for row in table:
            f.write(",".join(_fmt(v) for v in row) + "\n")
        f.write(footer)


def _write_plot_script(out: str, script: str) -> None:
    """Write the gnuplot script for the CSV at out, as out with its
    extension, if any, replaced by .gp; nothing for stdout."""
    if out == "-":
        return
    stem = out.rsplit(".", 1)[0] if "." in out.rsplit("/", 1)[-1] else out
    with _output(stem + ".gp") as f:
        f.write("set datafile separator ','\n" + script)


# ---------------------------------------------------------------------------
# commands


def cmd_simulate(s: argparse.Namespace) -> int:
    _require(s, "hbar", "t_final")
    model, state = build_model_and_state(s)
    if s.model not in dynamics.FLAVORS:
        raise CliError(f"unknown model {s.model!r}; choose from "
                       f"{', '.join(dynamics.FLAVORS)}")
    d = state.d
    _check_out(s.out)
    traj = dynamics.simulate(model, s.model, state, s.hbar, s.dt, s.t_final)

    # the CSV row: t, q, p, then A and B row-major for packets, then the
    # monitors in the order simulate records them
    states, n = traj.states, len(traj)
    cols = ["t"]
    cols += [f"q{i + 1}" for i in range(d)] + [f"p{i + 1}" for i in range(d)]
    parts = [traj.times, states.q, states.p]
    if isinstance(states, PacketState):
        cols += [f"A{i + 1}{j + 1}" for i in range(d) for j in range(d)]
        cols += [f"B{i + 1}{j + 1}" for i in range(d) for j in range(d)]
        parts += [states.A_mat.reshape(n, d * d), states.B_mat.reshape(n, d * d)]
    cols += list(traj.monitors)
    footer = "" if traj.completed else \
        f"# aborted,step={traj.abort_step},reason={traj.abort_reason}\n"
    _write_csv(s.out, cols, np.column_stack(parts + list(traj.monitors.values())),
               footer)
    xl, yl = ("q", "p") if d == 1 else ("q1", "q2")
    _write_plot_script(s.out, f"set xlabel '{xl}'\nset ylabel '{yl}'\n"
                              f"plot '{s.out}' using 2:3 with lines "
                              f"title '{s.model} ({model.name})'\n")

    if not traj.completed:
        print(f"warning: integration aborted at step {traj.abort_step}: "
              f"{traj.abort_reason}", file=sys.stderr)
        return 3
    return 0


def cmd_egorov(s: argparse.Namespace) -> int:
    _require(s, "hbar", "t_final")
    model, state = build_model_and_state(s)
    d = state.d
    n = _one_count(s.samples, 10 ** 6)

    obs = ("q", "p", "H0") + (("Lz",) if d == 2 else ())
    _check_out(s.out)
    ens = egorov.wigner_sample(state, s.hbar, seed=s.seed, N=n, sobol=True)
    est = egorov.propagate_ensemble(ens, model, s.dt, s.t_final, observables=obs)

    cols = ["t"] + [f"{stat}_{v}{i + 1}" for stat in ("mean", "se")
                    for v in ("q", "p") for i in range(d)]
    parts = [est.times, est.means["q"], est.means["p"], est.ses["q"], est.ses["p"]]
    for name in obs[2:]:
        cols += [f"mean_{name}", f"se_{name}"]
        parts += [est.means[name], est.ses[name]]
    _write_csv(s.out, cols, np.column_stack(parts),
               f"# excluded_samples,{est.excluded}\n")
    for name in obs:
        bad = ~np.isfinite(est.means[name].reshape(len(est.times), -1)).all(axis=1)
        if bad.any():
            print(f"warning: the mean of {name} is not finite at {bad.sum()} of "
                  f"{len(est.times)} times, first at t = {est.times[bad][0]:.6g}: "
                  "surviving samples overflowed", file=sys.stderr)
    return 0


def cmd_converge(s: argparse.Namespace) -> int:
    _require(s, "t_star")
    model, state = build_model_and_state(s)
    hbars = list(s.hbars)
    if len(hbars) < 2:
        raise CliError("converge needs at least two hbar values")
    if len(set(hbars)) < len(hbars):
        raise CliError(f"hbar values must be distinct, got {','.join(map(str, hbars))}")
    if s.samples:
        counts = list(s.samples) * len(hbars) if len(s.samples) == 1 \
            else list(s.samples)
        if len(counts) != len(hbars):
            raise CliError(f"samples: expected 1 or {len(hbars)} counts, "
                           f"got {len(s.samples)}")
    else:
        counts = [10 ** 7 if h <= 0.01 else 10 ** 6 for h in hbars]
    _check_out(s.out)

    err_c, err_s, ses = egorov.rate_sweep(model, state, hbars, counts, s.dt,
                                          s.t_star, s.seed)
    fit_c = loglog_fit(hbars, err_c)
    fit_s = loglog_fit(hbars, err_s)

    _write_csv(s.out, ["hbar", "classical_error", "semiclassical_error", "egorov_se"],
               np.column_stack([hbars, err_c, err_s, ses]),
               f"# fit_classical,{_fmt(fit_c[0])},{_fmt(fit_c[1])}\n"
               f"# fit_semiclassical,{_fmt(fit_s[0])},{_fmt(fit_s[1])}\n")
    print(f"classical:      error ~ exp({fit_c[0]:.4f}) * hbar^{fit_c[1]:.4f}")
    print(f"semiclassical:  error ~ exp({fit_s[0]:.4f}) * hbar^{fit_s[1]:.4f}")
    unresolved = [str(h) for h, e, se in zip(hbars, err_s, ses) if e < RESOLVE_Z * se]
    if unresolved:
        print(f"warning: semiclassical error below {RESOLVE_Z:g} reference standard "
              f"errors at hbar {', '.join(unresolved)}; the fitted rate is not "
              "resolved there", file=sys.stderr)
    _write_plot_script(
        s.out,
        "set logscale xy\n"
        "set xlabel 'hbar'\n"
        f"set ylabel 'phase-space error at t*={_fmt(s.t_star)}'\n"
        "set key left top\n"
        f"plot '{s.out}' using 1:2 with points pt 7 title 'classical', \\\n"
        f"     '{s.out}' using 1:3 with points pt 5 title 'semiclassical', \\\n"
        f"     exp({_fmt(fit_c[0])})*x**{_fmt(fit_c[1])} with lines dashtype 2 "
        f"title 'slope {fit_c[1]:.3f}', \\\n"
        f"     exp({_fmt(fit_s[0])})*x**{_fmt(fit_s[1])} with lines dashtype 3 "
        f"title 'slope {fit_s[1]:.3f}'\n")
    return 0


def cmd_check(s: argparse.Namespace) -> int:
    n = _one_count(s.samples, 20_000)
    results = checks.run_check_suite(egorov_samples=n, seed=s.seed)
    width = max(len(r.name) for r in results)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name:<{width}}  {r.detail}")
    n_fail = sum(not r.passed for r in results)
    print(f"{len(results) - n_fail}/{len(results)} checks passed")
    return 0 if n_fail == 0 else 1


# ---------------------------------------------------------------------------
# argument parsing


# command -> (function, help, flags)
COMMANDS = {
    "simulate": (cmd_simulate, "integrate one trajectory to CSV",
                 ("model", "potential", "q", "p", "A", "B", "hbar", "dt",
                  "t-final", "out")),
    "egorov": (cmd_egorov, "Monte-Carlo expectation time series",
               ("potential", "q", "p", "A", "B", "hbar", "dt", "t-final",
                "samples", "seed", "out")),
    "converge": (cmd_converge, "error-vs-hbar sweep with rate fits",
                 ("potential", "q", "p", "A", "B", "hbars", "dt", "t-star",
                  "samples", "seed", "out")),
    "check": (cmd_check, "run the built-in consistency suite", ("samples", "seed")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gwpdyn",
        description="Gaussian wave packet propagation in scalar and vector "
                    "potentials, with a Monte-Carlo quantum reference.")
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_, flags) in COMMANDS.items():
        sub = subs.add_parser(command, help=help_)
        for flag in flags:
            sub.add_argument(f"--{flag}", help=FLAGS[flag][0])
        sub.add_argument("--config", help="config file with `key = value` lines")
    return parser


def main(argv=None) -> int:
    """Run one command; its exit code.  A reader that closes stdout early,
    as `| head` does, ends the run with exit code 1 and no message."""
    args = build_parser().parse_args(argv)
    try:
        code = COMMANDS[args.command][0](resolve_settings(args))
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout now goes nowhere, so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
