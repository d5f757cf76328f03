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

from conftest import tilted
import gwpdyn
import gwpdyn.checks
import gwpdyn.dynamics
from gwpdyn import cli, egorov
from gwpdyn.checks import run_check_suite
from gwpdyn.dynamics import semiclassical_rhs, simulate
from gwpdyn.packet import make_packet_state
from gwpdyn.potentials import cosine_1d, fd_cross_check, quartic_rotational_2d


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


def test_check_suite_catches_broken_symmetry(monkeypatch):
    monkeypatch.setattr(gwpdyn.checks, "quartic_rotational_2d",
                        lambda: tilted(quartic_rotational_2d()))
    results = {r.name: r for r in run_check_suite(egorov_samples=5_000)}
    assert not results["noether_drift[2d]"].passed
    assert "BROKEN" in results["noether_drift[2d]"].detail
    assert results["energy_conservation[cosine1d]"].passed


# ---------------------------------------------------------------------------
# CLI: simulate


SIM_1D = ["simulate", "--potential", "cosine1d", "--q", "0.5", "--p=-1",
          "--hbar", "0.1", "--t-final", "3"]


STEEP_1D = "potential = quadratic\nK = 10000\nb = 0\nc = 0\nM0 = 0\na0 = 0\nq = 1\np = 0\n"


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
    # a step past B's positive definiteness, and a steep well whose orbit
    # overflows with no numpy warning on the way
    cfg = tmp_path / "steep.cfg"
    cfg.write_text(STEEP_1D)
    for argv, step in (
            (["--potential", "cosine1d", "--q", "0.5", "--p=-1", "--hbar", "0.1",
              "--dt", "10", "--t-final", "50"], 1),
            (["--config", str(cfg), "--hbar", "0.5", "--dt", "0.1",
              "--t-final", "20"], 3)):
        out = tmp_path / "bad.csv"
        assert cli.main(["simulate", *argv, "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith(
            f"warning: integration aborted at step {step}: ")
        _, rows, footers = _read_csv(out)
        assert footers and footers[0].startswith(f"# aborted,step={step},")
        assert rows.shape[0] == step


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


BASE_1D = ["simulate", "--potential", "cosine1d", "--hbar", "0.1", "--t-final", "1"]


@pytest.mark.parametrize("argv, message", [
    (BASE_1D + ["--q", "half", "--p=-1"], "q: expected comma-separated numbers"),
    (BASE_1D + ["--q", "0.5", "--p=-1", "--B", "1,0"], "B: expected 1 entries"),
    (SIM_1D[:-2] + ["--t-final", "soon"], "t_final: expected a number, got 'soon'"),
    (["simulate", "--config", "{tmp}/absent.cfg"], "cannot read config file"),
    (BASE_1D + ["--q", "0.5"], "'q' and/or 'p'"),
    (BASE_1D + ["--q", "0.5", "--p", "1,0"], "q and p disagree on dimension (1 vs 2)"),
    (BASE_1D + ["--q", "0.5", "--p=-1", "--model", "quantum"], "unknown model 'quantum'"),
    (BASE_1D + ["--q", "0.5", "--p=-1", "--out", "{tmp}/absent/run.csv"],
     "cannot write {tmp}/absent/run.csv: No such file or directory"),
    (BASE_1D + ["--q", "0.5", "--p=-1", "--out", "{tmp}"],
     "cannot write {tmp}: Is a directory"),
], ids=["q-not-numeric", "B-entry-count", "t-final-not-numeric", "config-unreadable",
        "p-missing", "q-p-dimensions", "model-unknown", "out-dir-missing",
        "out-is-directory"])
def test_bad_input_exits_2_with_one_error_line(argv, message, tmp_path, capsys):
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    message = message.replace("{tmp}", str(tmp_path))
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err and "Traceback" not in err


OUT_CHECKED = {
    "simulate": BASE_1D + ["--q", "0.5", "--p=-1"],
    "egorov": ["egorov", "--potential", "cosine1d", "--q", "0.5", "--p=-1",
               "--hbar", "0.1", "--t-final", "1", "--samples", "64"],
    "converge": ["converge", "--potential", "cosine1d", "--q", "0.5", "--p=-1",
                 "--hbars", "0.5,0.1", "--t-star", "1", "--samples", "64"],
}


@pytest.mark.parametrize("command", list(OUT_CHECKED))
def test_out_is_checked_before_the_run(command, tmp_path, capsys, monkeypatch):
    # an --out that cannot be written is refused before any computation,
    # with the message open() would give at the end
    def computed(*args, **kwargs):
        raise AssertionError("computation started before --out was checked")

    monkeypatch.setattr(gwpdyn.dynamics, "simulate", computed)
    for name in ("rate_sweep", "wigner_sample", "propagate_ensemble"):
        monkeypatch.setattr(egorov, name, computed)
    for out, reason in ((tmp_path / "absent" / "run.csv", "No such file or directory"),
                        (tmp_path, "Is a directory")):
        assert cli.main(OUT_CHECKED[command] + ["--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: cannot write {out}: {reason}\n")
    assert list(tmp_path.iterdir()) == []


def test_a_refused_run_leaves_an_existing_out_file_alone(tmp_path):
    # the --out check creates and truncates nothing
    out = tmp_path / "run.csv"
    out.write_text("kept\n")
    assert cli.main(BASE_1D + ["--q", "0.5", "--p=-1", "--dt=-1", "--out", str(out)]) == 2
    assert out.read_text() == "kept\n"


# ---------------------------------------------------------------------------
# CLI: egorov and converge


def test_egorov_csv_and_footer(tmp_path):
    out = tmp_path / "eg.csv"
    code = cli.main(["egorov", "--potential", "cosine1d", "--q", "0.5",
                     "--p=-1", "--hbar", "0.1", "--t-final", "0.2",
                     "--samples", "512", "--out", str(out)])
    assert code == 0
    header, rows, footers = _read_csv(out)
    assert header == ["t", "mean_q1", "mean_p1", "se_q1", "se_p1",
                      "mean_H0", "se_H0"]
    assert rows.shape == (21, 7)
    assert footers == ["# excluded_samples,0"]
    # scrambled Sobol replicates: at t = 0 the mean is the packet center
    # within its SE, which is far below the 1.4e-2 of as many
    # independent draws, sqrt(hbar / 2 / 512)
    assert abs(rows[0, 1] - 0.5) < 5 * rows[0, 3] and rows[0, 3] < 1e-3


def test_egorov_csv_is_the_sobol_estimate(tmp_path):
    # the CSV is propagate_ensemble's estimate of the sobol draw, bit for bit
    argv = ["egorov", "--potential", "quartic2d", "--q", "1,0", "--p", "0,1",
            "--A=-3,-6,-6,-6", "--B", "1,0.5,0.5,1", "--hbar", "0.1",
            "--t-final", "0.1", "--samples", "3000", "--seed", "5"]
    out = tmp_path / "eg.csv"
    assert cli.main(argv + ["--out", str(out)]) == 0
    _, rows, footers = _read_csv(out)
    s = cli.resolve_settings(cli.build_parser().parse_args(argv))
    model, state = cli.build_model_and_state(s)
    ens = egorov.wigner_sample(state, 0.1, seed=5, N=3000, sobol=True)
    est = egorov.propagate_ensemble(ens, model, s.dt, s.t_final,
                                    observables=("q", "p", "H0", "Lz"))
    assert np.array_equal(rows, np.column_stack(
        [est.times, est.means["q"], est.means["p"], est.ses["q"], est.ses["p"],
         est.means["H0"], est.ses["H0"], est.means["Lz"], est.ses["Lz"]]))
    assert footers == [f"# excluded_samples,{est.excluded}"]


@pytest.mark.parametrize("samples", ["2", "3", "501"])
def test_egorov_counts_must_be_even_pairs(samples, tmp_path, capsys):
    # the name dates from the antithetic-pair rule; the same counts now
    # break the replicate rule
    out = tmp_path / "e.csv"
    assert cli.main(["egorov", "--potential", "cosine1d", "--q", "0.5", "--p=-1",
                     "--hbar", "0.1", "--t-final", "0.1", "--samples", samples,
                     "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", (
        f"error: sample counts must be positive multiples of 8 (scrambled Sobol "
        f"replicates), got {samples}\n"))
    assert not out.exists()


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


def test_sobol_commands_take_packets_up_to_the_table_dimension(tmp_path, capsys):
    # free and quadratic take their dimension from --q; a 3D packet needs
    # 6 Sobol dimensions, and a packet beyond the table is refused by name
    out = tmp_path / "eg3.csv"
    zeros = ",".join(["0"] * 3)
    assert cli.main(["egorov", "--potential", "free", "--q", zeros, "--p", zeros,
                     "--hbar", "0.1", "--t-final", "0.05", "--samples", "64",
                     "--out", str(out)]) == 0
    header, rows, footers = _read_csv(out)
    assert header[1:4] == ["mean_q1", "mean_q2", "mean_q3"]
    assert rows.shape == (6, 15) and footers == ["# excluded_samples,0"]
    d = egorov.SOBOL_MAX_D + 1
    big = ["--potential", "free", "--q", ",".join(["0"] * d),
           "--p", ",".join(["0"] * d), "--samples", "64", "--out", str(out)]
    for argv in (["egorov", "--hbar", "0.1", "--t-final", "0.05"],
                 ["converge", "--hbars", "0.1,0.05", "--t-star", "0.05"]):
        out.unlink(missing_ok=True)
        assert cli.main(argv + big) == 2
        assert capsys.readouterr().err == (
            f"error: scrambled Sobol replicates take packets of at most "
            f"{d - 1} dimensions, got {d}\n")
        assert not out.exists()


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


@pytest.mark.parametrize("argv, unresolved", [
    (["--hbars", "0.2,0.1", "--t-star", "0", "--samples", "16"], "0.2, 0.1"),
    (["--hbars", "0.5,0.3", "--t-star", "1", "--samples", "400", "--seed", "7"], "0.3"),
    (["--hbars", "0.5,0.3", "--t-star", "1", "--samples", "4000", "--seed", "7"], None),
], ids=["t-star-0", "one-unresolved", "all-resolved"])
def test_converge_warns_on_unresolved_points(argv, unresolved, capsys):
    # a point whose semiclassical error is below 5 reference SEs is named
    # on stderr; the CSV, stdout and exit code are those of a quiet run
    assert cli.main(["converge", "--potential", "cosine1d", "--q", "0.5", "--p=-1",
                     "--dt", "0.01", *argv]) == 0
    out, err = capsys.readouterr()
    rows = np.array([[float(v) for v in line.split(",")]
                     for line in out.splitlines()[1:] if line[0].isdigit()])
    below = [h for h, _, e, se in rows if e < 5.0 * se]
    if unresolved is None:
        assert err == "" and below == []
    else:
        assert err == ("warning: semiclassical error below 5 reference standard "
                       f"errors at hbar {unresolved}; the fitted rate is not "
                       "resolved there\n")
        assert ", ".join(map(str, below)) == unresolved


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
    # simulate per hbar against that hbar's replicate reference, bit for bit
    out = tmp_path / "conv.csv"
    assert cli.main(argv + ["--out", str(out)]) == 0
    _, rows, _ = _read_csv(out)
    s = cli.resolve_settings(cli.build_parser().parse_args(argv))
    model, state = cli.build_model_and_state(s)
    counts = list(s.samples) * len(s.hbars) if len(s.samples) == 1 else s.samples
    for i, h in enumerate(s.hbars):
        ens = egorov.wigner_sample(state, h, seed=s.seed + i, N=counts[i],
                                   sobol=True)
        est = egorov.propagate_ensemble(ens, model, s.dt, s.t_star,
                                        observables=("q", "p"), final_only=True)
        for col, flavor in ((1, "classical"), (2, "semiclassical")):
            traj = simulate(model, flavor, state, h, s.dt, s.t_star)
            assert rows[i, col] == egorov.phase_error(traj, est, s.t_star), (h, flavor)
    # the library's sweep returns the CSV's values
    sweep = egorov.rate_sweep(model, state, s.hbars, counts, s.dt, s.t_star, s.seed)
    assert list(sweep) == rows[:, 1:].T.tolist()


@pytest.mark.parametrize("samples, bad", [("2", 2), ("101", 101), ("100,100,3", 100)],
                         ids=["2", "101", "100,100,3"])
def test_converge_counts_must_be_even_pairs(samples, bad, tmp_path, capsys):
    # the reference draws scrambled Sobol replicates of equal size; the
    # first count that breaks the rule is named (the name dates from the
    # antithetic-pair rule, which the same counts broke)
    out = tmp_path / "conv.csv"
    assert cli.main(["converge", "--potential", "cosine1d", "--q", "0.5", "--p=-1",
                     "--hbars", "0.5,0.3,0.1", "--t-star", "0.1",
                     "--samples", samples, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: sample counts must be positive multiples of 8 (scrambled Sobol "
        f"replicates), got {bad}\n")
    assert not out.exists()


def test_egorov_with_no_survivors_exits_2_without_warnings(tmp_path, capsys):
    # every sample overflows (RK4 at omega dt = 10); the overflow is no
    # numpy warning (pytest makes warnings errors) and no traceback
    cfg = tmp_path / "steep.cfg"
    cfg.write_text(STEEP_1D)
    out = tmp_path / "e.csv"
    assert cli.main(["egorov", "--config", str(cfg), "--hbar", "0.5", "--dt", "0.1",
                     "--t-final", "20", "--samples", "96", "--out", str(out)]) == 2
    assert capsys.readouterr() == (
        "", "error: fewer than two surviving replicates; cannot form errors\n")
    assert not out.exists()


def test_egorov_names_a_mean_that_is_not_finite(tmp_path, capsys):
    # an inverted oscillator: once a survivor's |p| passes about 1e154 its
    # H0 = p^2/2 - 450 q^2 is inf - inf, so the H0 mean is NaN at half the
    # grid while the q and p means stay finite.  The CSV keeps the NaNs and
    # the exit code stays 0; stderr names the mean, how often and from when
    cfg = tmp_path / "inverted.cfg"
    cfg.write_text("potential = quadratic\nK = -900\nb = 0\nc = 0\nM0 = 0\na0 = 0\n")
    out = tmp_path / "e.csv"
    assert cli.main(["egorov", "--config", str(cfg), "--q", "0", "--p", "0", "--A", "0",
                     "--B", "1", "--hbar", "0.5", "--dt", "0.01", "--t-final", "23.43",
                     "--samples", "2048", "--seed", "5", "--out", str(out)]) == 0
    assert capsys.readouterr() == ("", (
        "warning: the mean of H0 is not finite at 1172 of 2344 times, first at "
        "t = 11.72: surviving samples overflowed\n"))
    header, rows, _ = _read_csv(out)
    h0 = rows[:, header.index("mean_H0")]
    assert np.isnan(h0).sum() == 1172 and np.isnan(h0[-1])
    assert np.isfinite(rows[:, 1:3]).all()


def test_converge_classical_abort(tmp_path, capsys):
    # RK4 at omega dt = 10 grows the harmonic orbit about 400-fold a step
    cfg = tmp_path / "steep.cfg"
    cfg.write_text(STEEP_1D)
    out = tmp_path / "conv.csv"
    assert cli.main(["converge", "--config", str(cfg), "--hbars", "0.5,0.1",
                     "--t-star", "20", "--dt", "0.1", "--samples", "96",
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
    monkeypatch.setattr(egorov, "propagate_ensembles",
                        lambda *args, **kwargs: transports.append(1))
    out = tmp_path / "conv.csv"
    assert cli.main(["converge", "--potential", "cosine1d", "--q", "0.5", "--p=-1",
                     "--hbars", "0.5,0.3,0.1,0.05", "--t-star", "1", "--samples", "96",
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: semiclassical run at hbar=0.1 aborted at step 4: "
        "width matrix B lost positive definiteness\n")
    assert transports == []
    assert not out.exists() and not (tmp_path / "conv.gp").exists()


def test_converge_names_the_earliest_abort(tmp_path, capsys):
    # hbar = 0.5's packet overflows at step 387, before hbar = 0.3's loses
    # positive definiteness at step 429: the message names hbar = 0.5,
    # though 0.3 comes first in the list
    out = tmp_path / "conv.csv"
    assert cli.main(["converge", "--potential", "cosine1d", "--q", "0.5", "--p=-1",
                     "--hbars", "0.3,0.5", "--t-star", "5", "--samples", "96",
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: semiclassical run at hbar=0.5 aborted at step 387: non-finite state\n")
    assert not out.exists()


EG_1D = ["egorov", "--potential", "cosine1d", "--q", "0.5", "--p=-1",
         "--hbar", "0.1", "--samples", "512"]
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


@pytest.mark.parametrize("argv", [
    ["egorov", *ONE_1D, "--hbar", "0.1", "--t-final", "0.02"],
    ["converge", *ONE_1D, "--hbars", "0.5,0.3", "--t-star", "0.02"],
], ids=["egorov", "converge"])
def test_unallocatable_sample_count_exits_2(argv, tmp_path, capsys):
    # 10^16 rows would take 71 PiB, and drawn block by block about
    # 1.2 * 10^12 blocks; the count is refused before any run.  It used
    # to end in a numpy _ArrayMemoryError traceback
    out = tmp_path / "big.csv"
    assert cli.main(argv + ["--samples", "10000000000000000", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0] == (
        f"error: sample count 10000000000000000 exceeds the limit of "
        f"{egorov.MAX_SAMPLES} samples")
    assert not out.exists() and not (tmp_path / "big.gp").exists()


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


REPLICATES = "sample counts must be positive multiples of 8 (scrambled Sobol replicates), got 1"


@pytest.mark.parametrize("argv, message", [
    # egorov and converge draw scrambled Sobol replicates; check needs
    # enough samples to detect a sampler fault
    (EG_1D[:-1] + ["1", "--t-final", "0.1"], REPLICATES),
    (CONV_1D + ["--samples", "1"], REPLICATES),
    (CONV_1D + ["--samples", "104,1"], REPLICATES),
    (["check", "--samples", "1"], "samples must be >= 576 (fewer cannot detect a sampler "
     "whose x covariance is twice too large), got 1"),
    # egorov and check take one count; a list used to run with its first
    (EG_1D[:-1] + ["100,200", "--t-final", "0.1"], "samples: expected one count, got 2"),
    (["check", "--samples", "100,5"], "samples: expected one count, got 2"),
], ids=["egorov", "converge", "converge-list", "check", "egorov-list", "check-list"])
def test_samples_below_two_rejected(argv, message, capsys):
    assert cli.main(argv) == 2
    assert message in capsys.readouterr().err


NEGATIVE_SEED = "seed: expected a nonnegative integer, got '-1'"
KEY_LIMIT = f"seed must be nonnegative and below 2**128, got {2 ** 128}"
# named by the seed given, not by the key seed + 1 that overflows
KEY_LIMIT_PLUS_1 = ("seed must be nonnegative and below 2**128 - 1 (a draw takes key "
                    f"seed + 1), got {2 ** 128 - 1}")


@pytest.mark.parametrize("argv, message", [
    (["check", "--samples", "inf"], "samples: expected an integer, got 'inf'"),
    (["check", "--samples", "2.5"], "samples: expected an integer, got '2.5'"),
    (EG_1D + ["--t-final", "0.1", "--seed", "inf"], "seed: expected an integer, got 'inf'"),
    (EG_1D + ["--t-final", "0.1", "--seed", "nan"], "seed: expected an integer, got 'nan'"),
    (EG_1D + ["--t-final", "0.1", "--seed=-1"], NEGATIVE_SEED),
    (CONV_1D + ["--seed=-1"], NEGATIVE_SEED),
    (["check", "--seed=-1"], NEGATIVE_SEED),
    # converge draws its second hbar, and check its sampler, with key seed + 1
    (EG_1D + ["--t-final", "0.1", "--seed", str(2 ** 128)], KEY_LIMIT),
    (CONV_1D + ["--seed", str(2 ** 128 - 1)], KEY_LIMIT_PLUS_1),
    (["check", "--seed", str(2 ** 128 - 1)], KEY_LIMIT_PLUS_1),
], ids=["samples-inf", "samples-fraction", "seed-inf", "seed-nan",
        "seed-negative-egorov", "seed-negative-converge", "seed-negative-check",
        "seed-key-egorov", "seed-key-converge", "seed-key-check"])
def test_integer_settings_rejected(argv, message, capsys):
    # inf used to end in an OverflowError traceback, and nan in numpy's
    # bare message; a negative seed or one of 2**128 and more in Philox's
    # or numpy's message, which named no setting, and in converge only
    # after its packet runs.  egorov writes its CSV to stdout here
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_integer_settings_resolve_exactly():
    # integers above 2**53 used to be rounded through float: seed
    # 2**53 + 1 resolved to 2**53, another stream
    s = cli.resolve_settings(cli.build_parser().parse_args(
        ["check", "--seed", str(2 ** 53 + 1), "--samples", "1e3"]))
    assert (s.seed, s.samples) == (2 ** 53 + 1, (1000,))


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


def _with_energy_A_off_in_the_last_bits():
    """cosine1d whose energy set's A is off by a few ulps: every value is
    right to 1e-15, so only the comparison of the two sets' A can notice."""
    model = cosine_1d()

    def energy_fields(x):
        a, v = model.energy_fields(x)
        return a * (1.0 + 4.0 * np.finfo(float).eps), v

    return dataclasses.replace(model, energy_fields=energy_fields)


def test_check_command_names_shared_fields_that_disagree(monkeypatch, capsys):
    # A is shared by the flow and energy sets; `gwpdyn check` fails by name
    # when the two disagree in any bit
    monkeypatch.setattr(gwpdyn.checks, "cosine_1d", _with_energy_A_off_in_the_last_bits)
    assert cli.main(["check", "--samples", "2000"]) == 1
    lines = capsys.readouterr().out.splitlines()
    fd = next(line for line in lines if "fd_cross_check[cosine1d]" in line)
    assert fd.startswith("FAIL") and fd.endswith("failed: field_sets")
    assert next(line for line in lines if "fd_cross_check[quartic2d]" in line).startswith("PASS")


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


def test_closed_stdout_ends_the_run_without_a_traceback(tmp_path):
    # a reader that stops after two lines, as `| head -2` does, closes the
    # pipe while simulate still has most of its 3001 rows to write
    proc = subprocess.Popen([sys.executable, "-m", "gwpdyn", "simulate",
                             "--potential", "cosine1d", "--q", "0.5", "--p=-1",
                             "--A", "0", "--B", "1", "--hbar", "0.3", "--dt", "0.001",
                             "--t-final", "3", "--out", "-"],
                            env=_env_with_this_src(), cwd=tmp_path,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = [proc.stdout.readline() for _ in range(2)]
    proc.stdout.close()
    try:
        assert proc.wait(timeout=300) != 0
    finally:
        proc.kill()
        err = proc.stderr.read()
        proc.stderr.close()
    assert head[0].startswith(b"t,q1,p1,") and head[1].startswith(b"0,")
    assert b"Traceback" not in err
    assert err == b""


def test_commands_import_no_scipy(tmp_path):
    # the package runs on numpy alone: importing scipy.special (for ndtri)
    # added about 27 MiB of peak memory and 0.2 s to every command, and
    # scipy.stats (for Sobol points) about 45 MiB and half a second
    script = ("import sys\n"
              "from gwpdyn import cli\n"
              "argv = ['--potential', 'cosine1d', '--q', '0.5', '--p=-1']\n"
              "assert cli.main(['simulate', *argv, '--hbar', '0.1', '--t-final', '0.02',"
              " '--out', 's.csv']) == 0\n"
              "assert cli.main(['egorov', *argv, '--hbar', '0.1', '--t-final', '0.02',"
              " '--samples', '64', '--out', 'e.csv']) == 0\n"
              "assert cli.main(['converge', *argv, '--hbars', '0.5,0.3', '--t-star',"
              " '0.02', '--samples', '64', '--out', 'c.csv']) == 0\n"
              "assert cli.main(['check', '--samples', '1000']) == 0\n"
              "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    proc = subprocess.run([sys.executable, "-c", script], env=_env_with_this_src(),
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
