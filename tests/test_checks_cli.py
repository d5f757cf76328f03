import argparse
import dataclasses
import os
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest

import gwpdyn
import gwpdyn.dynamics
from gwpdyn import cli, egorov
from gwpdyn.checks import run_check_suite
from gwpdyn.dynamics import semiclassical_rhs, simulate
from gwpdyn.packet import make_packet_state
from gwpdyn.potentials import cosine_1d


def _read_csv(path):
    header = None
    rows = []
    footers = []
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("#"):
                footers.append(line)
            elif header is None:
                header = line.split(",")
            else:
                rows.append([float(v) for v in line.split(",")])
    return header, np.array(rows), footers


# ---------------------------------------------------------------------------
# consistency suite


def test_check_suite_passes():
    results = run_check_suite(egorov_samples=20_000)
    assert len(results) == 8
    for r in results:
        assert r.passed, f"{r.name}: {r.detail}"


def test_check_suite_catches_wrong_flow(monkeypatch):
    # drop every hbar correction from the flow: the numerical bracket of
    # the effective energy must notice.  The fake calls the function
    # imported above; through the module attribute it would call itself.
    fake = lambda state, model, hbar: semiclassical_rhs(state, model, 0.0)
    monkeypatch.setattr(gwpdyn.dynamics, "semiclassical_rhs", fake)
    results = {r.name: r for r in run_check_suite(egorov_samples=5_000)}
    assert not results["bracket_consistency[cosine1d]"].passed
    assert not results["bracket_consistency[quartic2d]"].passed


def test_check_suite_catches_broken_symmetry(quartic_model):
    tilted = dataclasses.replace(
        quartic_model,
        V=lambda x: quartic_model.V(x) + np.asarray(x)[..., 0],
        gradV=lambda x: quartic_model.gradV(x) + np.array([1.0, 0.0]))
    results = {r.name: r for r in
               run_check_suite(noether_model=tilted, egorov_samples=5_000)}
    assert not results["noether_drift[2d]"].passed
    assert "BROKEN" in results["noether_drift[2d]"].detail
    assert results["energy_conservation[cosine1d]"].passed


# ---------------------------------------------------------------------------
# CLI: simulate


SIM_1D = ["simulate", "--potential", "cosine1d", "--q", "0.5", "--p=-1",
          "--hbar", "0.1", "--t-final", "3"]


def test_simulate_csv_shape_and_determinism(tmp_path):
    out = tmp_path / "run.csv"
    assert cli.main(SIM_1D + ["--out", str(out)]) == 0
    first = out.read_bytes()
    header, rows, footers = _read_csv(out)
    assert header == ["t", "q1", "p1", "A11", "B11", "H0", "Hhbar", "minEigB"]
    assert rows.shape == (301, 8)
    assert rows[0, 0] == 0.0 and rows[0, 1] == 0.5 and rows[0, 2] == -1.0
    assert not footers
    assert cli.main(SIM_1D + ["--out", str(out)]) == 0
    assert out.read_bytes() == first


def test_simulate_csv_roundtrips_exact_values(tmp_path):
    out = tmp_path / "run.csv"
    cli.main(SIM_1D + ["--out", str(out)])
    _, rows, _ = _read_csv(out)
    state = make_packet_state([0.5], [-1.0], [[0.0]], [[1.0]])
    traj = simulate(cosine_1d(), "semiclassical", state, 0.1, 0.01, 3.0)
    # 17 significant digits reproduce every double exactly
    assert np.array_equal(rows[:, 1], traj.states.q[:, 0])
    assert np.array_equal(rows[:, 2], traj.states.p[:, 0])
    assert np.array_equal(rows[:, 6], traj.monitors["Hhbar"])


def test_simulate_writes_plot_script(tmp_path):
    out = tmp_path / "run.csv"
    cli.main(SIM_1D + ["--out", str(out)])
    script = (tmp_path / "run.gp").read_text()
    assert "using 2:3" in script and "run.csv" in script


def test_simulate_2d_header_and_negative_matrix_flag(tmp_path):
    out = tmp_path / "run2d.csv"
    code = cli.main(["simulate", "--potential", "quartic2d", "--q", "1,0",
                     "--p", "0,1", "--A=-3,-6,-6,-6", "--B", "1,0.5,0.5,1",
                     "--hbar", "0.1", "--dt", "0.001", "--t-final", "0.01",
                     "--out", str(out)])
    assert code == 0
    header, rows, _ = _read_csv(out)
    assert header[:5] == ["t", "q1", "q2", "p1", "p2"]
    assert "J12" in header and "Hhbar" in header
    assert rows.shape[0] == 11
    j12 = rows[:, header.index("J12")]
    assert j12[0] == pytest.approx(-1.1, rel=1e-14)


def test_simulate_classical_flavor_columns(tmp_path):
    out = tmp_path / "cl.csv"
    cli.main(["simulate", "--model", "classical", "--potential", "quartic2d",
              "--q", "1,0", "--p", "0,1", "--hbar", "0.1", "--t-final", "0.1",
              "--out", str(out)])
    header, rows, _ = _read_csv(out)
    assert header == ["t", "q1", "q2", "p1", "p2", "H0", "Lz_classical"]
    assert np.allclose(rows[:, -1], 1.0, atol=1e-10)


def test_zhou_centers_match_classical_through_cli(tmp_path):
    outs = {}
    for flavor in ("zhou", "classical"):
        out = tmp_path / f"{flavor}.csv"
        cli.main(["simulate", "--model", flavor, "--potential", "cosine1d",
                  "--q", "0.5", "--p=-1", "--hbar", "0.1", "--t-final", "2",
                  "--out", str(out)])
        _, rows, _ = _read_csv(out)
        outs[flavor] = rows
    assert np.max(np.abs(outs["zhou"][:, 1:3] - outs["classical"][:, 1:3])) < 1e-12


def test_simulate_zero_time(tmp_path, capsys):
    assert cli.main(SIM_1D[:-1] + ["0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2  # header + t=0 row


def test_simulate_abort_exit_code(tmp_path, capsys):
    out = tmp_path / "bad.csv"
    code = cli.main(["simulate", "--potential", "cosine1d", "--q", "0.5",
                     "--p=-1", "--hbar", "0.1", "--dt", "10", "--t-final",
                     "50", "--out", str(out)])
    assert code == 3
    assert "aborted" in capsys.readouterr().err
    _, rows, footers = _read_csv(out)
    assert footers and footers[0].startswith("# aborted,step=1,")
    assert rows.shape[0] == 1


# ---------------------------------------------------------------------------
# CLI: configuration


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\n"
                   "potential = cosine1d\n"
                   "q = 0.5\n"
                   "p = -1\n"
                   "hbar = 0.1\n"
                   "t-final = 1.0\n")
    out = tmp_path / "a.csv"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    _, rows, _ = _read_csv(out)
    assert rows.shape[0] == 101
    out2 = tmp_path / "b.csv"
    assert cli.main(["simulate", "--config", str(cfg), "--t-final", "0.5",
                     "--out", str(out2)]) == 0
    _, rows2, _ = _read_csv(out2)
    assert rows2.shape[0] == 51  # flag wins over the file


def test_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("potential = cosine1d\ntfinal = 1.0\n")
    assert cli.main(["simulate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "unknown config key 'tfinal'" in err and "t_final" in err


def test_config_rejects_malformed_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("potential cosine1d\n")
    assert cli.main(["simulate", "--config", str(cfg)]) == 2
    assert "key = value" in capsys.readouterr().err


def test_quadratic_model_from_config(tmp_path):
    # 1D harmonic oscillator through the generic quadratic model
    cfg = tmp_path / "harm.cfg"
    cfg.write_text("potential = quadratic\nK = 1\nb = 0\nc = 0\n"
                   "M0 = 0\na0 = 0\nq = 1\np = 0\nhbar = 0.1\n")
    out = tmp_path / "harm.csv"
    assert cli.main(["simulate", "--model", "classical", "--config", str(cfg),
                     "--t-final", "3", "--out", str(out)]) == 0
    _, rows, _ = _read_csv(out)
    assert np.max(np.abs(rows[:, 1] - np.cos(rows[:, 0]))) < 1e-8


def test_missing_required_setting(capsys):
    assert cli.main(["simulate", "--potential", "cosine1d", "--q", "0.5",
                     "--p=-1", "--t-final", "1"]) == 2
    assert "hbar" in capsys.readouterr().err


def test_unknown_potential_lists_options(capsys):
    assert cli.main(["simulate", "--potential", "morse", "--q", "0.5",
                     "--p=-1", "--hbar", "0.1", "--t-final", "1"]) == 2
    err = capsys.readouterr().err
    assert "cosine1d" in err and "quartic2d" in err


def test_dimension_mismatch_rejected(capsys):
    assert cli.main(["simulate", "--potential", "quartic2d", "--q", "0.5",
                     "--p=-1", "--hbar", "0.1", "--t-final", "1"]) == 2
    assert "dimension" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# CLI: egorov and converge


def test_egorov_csv_and_footer(tmp_path):
    out = tmp_path / "eg.csv"
    code = cli.main(["egorov", "--potential", "cosine1d", "--q", "0.5",
                     "--p=-1", "--hbar", "0.1", "--t-final", "0.2",
                     "--samples", "500", "--out", str(out)])
    assert code == 0
    header, rows, footers = _read_csv(out)
    assert header == ["t", "mean_q1", "mean_p1", "se_q1", "se_p1",
                      "mean_H0", "se_H0"]
    assert rows.shape == (21, 7)
    assert footers == ["# excluded_samples,0"]
    assert abs(rows[0, 1] - 0.5) < 5 * rows[0, 3]


def test_egorov_2d_includes_angular_momentum(tmp_path):
    out = tmp_path / "eg2.csv"
    cli.main(["egorov", "--potential", "quartic2d", "--q", "1,0", "--p", "0,1",
              "--A=-3,-6,-6,-6", "--B", "1,0.5,0.5,1", "--hbar", "0.1",
              "--t-final", "0.1", "--samples", "2000", "--out", str(out)])
    header, rows, _ = _read_csv(out)
    assert header[-2:] == ["mean_Lz", "se_Lz"]
    lz = rows[:, header.index("mean_Lz")]
    se = rows[:, header.index("se_Lz")]
    assert np.all(np.abs(lz - 1.1) < 6 * se)


def test_converge_outputs_and_fits(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    code = cli.main(["converge", "--potential", "cosine1d", "--q", "0.5",
                     "--p=-1", "--hbars", "0.5,0.3,0.1", "--t-star", "1.0",
                     "--samples", "20000", "--seed", "7", "--out", str(out)])
    assert code == 0
    console = capsys.readouterr().out
    assert "classical:" in console and "semiclassical:" in console
    header, rows, footers = _read_csv(out)
    assert header == ["hbar", "classical_error", "semiclassical_error",
                      "egorov_se"]
    assert rows.shape == (3, 4)
    fits = {}
    for line in footers:
        tag, intercept, exponent = line.lstrip("# ").split(",")
        fits[tag] = (float(intercept), float(exponent))
    assert set(fits) == {"fit_classical", "fit_semiclassical"}
    # the corrected flow must track the reference better at every hbar
    assert np.all(rows[:, 2] < rows[:, 1])
    assert fits["fit_semiclassical"][1] > fits["fit_classical"][1]
    script = (tmp_path / "conv.gp").read_text()
    assert "logscale" in script and "conv.csv" in script


def test_converge_needs_two_hbars(capsys):
    assert cli.main(["converge", "--potential", "cosine1d", "--q", "0.5",
                     "--p=-1", "--hbars", "0.5", "--t-star", "1.0",
                     "--samples", "100"]) == 2
    assert "two hbar" in capsys.readouterr().err


def test_converge_rejects_repeated_hbars(capsys):
    # a repeated hbar used to give a rank-deficient fit and exit 0
    assert cli.main(["converge", "--potential", "cosine1d", "--q", "0.5",
                     "--p=-1", "--hbars", "0.1,0.1", "--t-star", "0.1",
                     "--samples", "100"]) == 2
    assert "hbar values must be distinct" in capsys.readouterr().err


def test_converge_samples_count_mismatch(capsys):
    assert cli.main(["converge", "--potential", "cosine1d", "--q", "0.5",
                     "--p=-1", "--hbars", "0.5,0.3,0.1", "--t-star", "1.0",
                     "--samples", "100,200"]) == 2
    assert "samples" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["converge", "--potential", "cosine1d", "--q", "0.5", "--p=-1",
     "--hbars", "0.5,0.3,0.1,0.05", "--t-star", "1.0", "--samples", "3000",
     "--seed", "4"],
    ["converge", "--potential", "quartic2d", "--q", "1,0", "--p", "0,1",
     "--A=-3,-6,-6,-6", "--B", "1,0.5,0.5,1", "--hbars", "0.5,0.1,0.03",
     "--t-star", "0.5", "--samples", "2000,2000,4000", "--seed", "9"],
], ids=["cosine1d", "quartic2d"])
def test_converge_errors_equal_per_hbar_runs(argv, tmp_path, capsys):
    # converge integrates one classical run and one stacked semiclassical
    # run; its errors must be those of a classical and a semiclassical
    # simulate per hbar, bit for bit
    out = tmp_path / "conv.csv"
    assert cli.main(argv + ["--out", str(out)]) == 0
    _, rows, _ = _read_csv(out)
    s = cli.resolve_settings(cli.build_parser().parse_args(argv))
    model, state = cli.build_model_and_state(s)
    counts = list(s.samples) * len(s.hbars) if len(s.samples) == 1 else s.samples
    for i, h in enumerate(s.hbars):
        est = egorov.propagate_ensemble(
            egorov.wigner_sample(state, h, seed=s.seed + i, N=counts[i]), model,
            s.dt, s.t_star, observables=("q", "p"), final_only=True)
        for col, flavor in ((1, "classical"), (2, "semiclassical")):
            traj = simulate(model, flavor, state, h, s.dt, s.t_star)
            assert rows[i, col] == egorov.phase_error(traj, est, s.t_star), (h, flavor)


STEEP_1D = "potential = quadratic\nK = 10000\nb = 0\nc = 0\nM0 = 0\na0 = 0\nq = 1\np = 0\n"


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_converge_classical_abort(tmp_path, capsys):
    # RK4 at omega dt = 10 grows the harmonic orbit about 400-fold a step
    cfg = tmp_path / "steep.cfg"
    cfg.write_text(STEEP_1D)
    out = tmp_path / "conv.csv"
    assert cli.main(["converge", "--config", str(cfg), "--hbars", "0.5,0.1",
                     "--t-star", "20", "--dt", "0.1", "--samples", "100",
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error: classical run at hbar=0.5 aborted at step " in err
    assert "non-finite state" in err
    assert not out.exists() and not (tmp_path / "conv.gp").exists()


def test_converge_semiclassical_abort(tmp_path, capsys, monkeypatch):
    # the packet of hbar = 0.1 alone has its B driven through zero at
    # step 4; the message names that hbar and step, and no Monte-Carlo
    # transport runs first
    real_rhs = gwpdyn.dynamics.semiclassical_rhs

    def rhs(state, model, hbar):
        dq, dp, dA, dB = real_rhs(state, model, hbar)
        doomed = np.equal(hbar, 0.1)[..., None, None]
        return dq, dp, dA, np.where(doomed, -30.0 * np.ones_like(dB), dB)

    transports = []
    monkeypatch.setattr(gwpdyn.dynamics, "semiclassical_rhs", rhs)
    monkeypatch.setattr(egorov, "propagate_ensemble",
                        lambda *args, **kwargs: transports.append(1))
    out = tmp_path / "conv.csv"
    assert cli.main(["converge", "--potential", "cosine1d", "--q", "0.5", "--p=-1",
                     "--hbars", "0.5,0.3,0.1,0.05", "--t-star", "1", "--samples", "100",
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: semiclassical run at hbar=0.1 aborted at step 4: "
        "width matrix B lost positive definiteness\n")
    assert transports == []
    assert not out.exists() and not (tmp_path / "conv.gp").exists()


EG_1D = ["egorov", "--potential", "cosine1d", "--q", "0.5", "--p=-1",
         "--hbar", "0.1", "--samples", "500"]
CONV_1D = ["converge", "--potential", "cosine1d", "--q", "0.5", "--p=-1",
           "--hbars", "0.5,0.3", "--t-star", "0.1"]


@pytest.mark.parametrize("base", [SIM_1D[:-2], EG_1D], ids=["simulate", "egorov"])
def test_t_final_must_be_whole_number_of_steps(base, tmp_path, capsys):
    # 1 / 0.3 steps used to end silently at t = 0.9
    out = tmp_path / "short.csv"
    assert cli.main(base + ["--t-final", "1", "--dt", "0.3",
                            "--out", str(out)]) == 2
    assert "whole number of steps" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("base", [SIM_1D[:-2], EG_1D], ids=["simulate", "egorov"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_t_final_must_be_finite(base, value, tmp_path, capsys):
    out = tmp_path / "inf.csv"
    assert cli.main(base + ["--t-final", value, "--out", str(out)]) == 2
    assert "t_final must be nonnegative and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("base", [SIM_1D[:-2], EG_1D], ids=["simulate", "egorov"])
def test_step_count_must_be_storable(base, tmp_path, capsys):
    # 10^15 steps used to end in a numpy allocation traceback with exit 1
    out = tmp_path / "long.csv"
    assert cli.main(base + ["--dt", "1e-12", "--t-final", "1000",
                            "--out", str(out)]) == 2
    assert "t_final/dt = 1e+15 steps exceeds the limit" in capsys.readouterr().err
    assert not out.exists()


ONE_1D = ["--potential", "cosine1d", "--q", "0.5", "--p=-1"]


@pytest.mark.parametrize("argv, hbar", [
    (["simulate", *ONE_1D, "--t-final", "0.1", "--hbar"], "{}"),
    (["egorov", *ONE_1D, "--t-final", "0.1", "--samples", "500", "--hbar"], "{}"),
    (["converge", *ONE_1D, "--t-star", "0.1", "--samples", "500", "--hbars"], "0.1,{}"),
], ids=["simulate", "egorov", "converge"])
@pytest.mark.parametrize("value", ["inf", "nan", "0"])
def test_hbar_must_be_positive_and_finite(argv, hbar, value, tmp_path, capsys):
    # hbar = inf used to end in a traceback (egorov), in an aborted run
    # with Hhbar = inf (simulate) or in a blamed aborted run (converge)
    out = tmp_path / "h.csv"
    assert cli.main(argv + [hbar.format(value), "--out", str(out)]) == 2
    assert "hbar must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (EG_1D[:-1] + ["1", "--t-final", "0.1"], "samples must be >= 2"),
    (CONV_1D + ["--samples", "1"], "samples must be >= 2"),
    (CONV_1D + ["--samples", "100,1"], "samples must be >= 2"),
    # egorov and check take one count; a list used to run with its first
    (EG_1D[:-1] + ["100,200", "--t-final", "0.1"], "samples: expected one count, got 2"),
    (["check", "--samples", "100,5"], "samples: expected one count, got 2"),
], ids=["egorov", "converge", "converge-list", "egorov-list", "check-list"])
def test_samples_below_two_rejected(argv, message, capsys):
    assert cli.main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["check", "--samples", "inf"], "samples: expected an integer, got 'inf'"),
    (["check", "--samples", "2.5"], "samples: expected an integer, got '2.5'"),
    (EG_1D + ["--t-final", "0.1", "--seed", "inf"], "seed: expected an integer, got 'inf'"),
    (EG_1D + ["--t-final", "0.1", "--seed", "nan"], "seed: expected an integer, got 'nan'"),
], ids=["samples-inf", "samples-fraction", "seed-inf", "seed-nan"])
def test_integer_settings_rejected(argv, message, capsys):
    # inf used to end in an OverflowError traceback, and nan in numpy's
    # bare message; egorov writes its CSV to stdout here
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("state, message", [
    (["--q", "nan", "--p=-1"], "q must be finite"),
    (["--q", "0.5", "--p", "inf"], "p must be finite"),
    (["--q", "0.5", "--p=-1", "--A", "nan"], "A_mat must be finite"),
], ids=["q", "p", "A"])
def test_egorov_rejects_non_finite_state(state, message, tmp_path, capsys):
    # used to end in a "fewer than two surviving samples" traceback
    out = tmp_path / "e.csv"
    assert cli.main(["egorov", "--potential", "cosine1d", *state, "--hbar", "0.1",
                     "--t-final", "0.1", "--samples", "100", "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


EXPECTED_FLAGS = {
    "simulate": "model potential q p A B hbar dt t_final out",
    "egorov": "potential q p A B hbar dt t_final samples seed out",
    "converge": "potential q p A B hbars dt t_star samples seed out",
    "check": "samples seed",
}


@pytest.mark.parametrize("command", sorted(EXPECTED_FLAGS))
def test_flags_are_the_config_keys(command, tmp_path, capsys):
    # a command's flags, other than --config, are its config-file keys,
    # with the quadratic model's coefficients added where it takes a
    # potential; the keys accepted are read off the unknown-key error
    subs = next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    flags = {a.option_strings[0][2:].replace("-", "_")
             for a in subs.choices[command]._actions
             if a.option_strings and a.dest not in ("help", "config")}
    assert flags == set(EXPECTED_FLAGS[command].split())
    cfg = tmp_path / "run.cfg"
    cfg.write_text("no_such_key = 1\n")
    assert cli.main([command, "--config", str(cfg)]) == 2
    keys = capsys.readouterr().err.rstrip("\n").split("allowed: ")[1].split(", ")
    assert set(keys) == flags | (set(cli.QUAD_KEYS) if "potential" in flags else set())


@pytest.mark.parametrize("command", ["simulate", "egorov", "converge", "check"])
def test_gh_nodes_is_not_an_option(command, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--gh-nodes", "20"])
    assert exc.value.code == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text("gh_nodes = 20\n")
    assert cli.main([command, "--config", str(cfg)]) == 2
    assert "unknown config key 'gh_nodes'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# CLI: check


def test_check_command_reports_all_pass(capsys):
    assert cli.main(["check", "--samples", "5000"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 8
    assert all(l.startswith("PASS") for l in lines)
    assert "8/8 checks passed" in out


def test_check_command_fails_on_broken_flow(monkeypatch, capsys):
    fake = lambda state, model, hbar: semiclassical_rhs(state, model, 0.0)
    monkeypatch.setattr(gwpdyn.dynamics, "semiclassical_rhs", fake)
    assert cli.main(["check", "--samples", "5000"]) == 1
    assert "FAIL" in capsys.readouterr().out


def _env_with_this_src():
    """The environment with this checkout's `src` first on PYTHONPATH, so
    an installed copy of the package cannot answer for it."""
    src = Path(gwpdyn.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def test_console_entry_point_installed(tmp_path):
    # Build the launcher an installer would write for the `gwpdyn` entry of
    # [project.scripts] and run it; the suite itself runs from `src` without
    # installing the package, so the ambient PATH cannot be relied on.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    ep = EntryPoint(name="gwpdyn", value=scripts["gwpdyn"],
                    group="console_scripts")
    assert callable(ep.load()), f"{ep.value} is not callable"

    bindir = tmp_path / "bin"
    bindir.mkdir()
    launcher = bindir / "gwpdyn"
    launcher.write_text(f"#!{sys.executable}\n"
                        "import sys\n"
                        f"from {ep.module} import {ep.attr}\n"
                        "if __name__ == '__main__':\n"
                        f"    sys.exit({ep.attr}())\n")
    launcher.chmod(0o755)
    exe = shutil.which("gwpdyn", path=str(bindir))
    assert exe, "gwpdyn launcher not found"

    proc = subprocess.run([exe, "check", "--samples", "2000"],
                          env=_env_with_this_src(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "checks passed" in proc.stdout


def test_python_m_gwpdyn(tmp_path):
    # `python -m gwpdyn` runs the same CLI as the console script
    proc = subprocess.run([sys.executable, "-m", "gwpdyn", "check",
                           "--samples", "2000"], env=_env_with_this_src(),
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "checks passed" in proc.stdout
