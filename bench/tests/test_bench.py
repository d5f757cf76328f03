"""Tests of the benchmark itself (not part of the tier-1 suite):

    python3 -m pytest bench/tests -q

Each workload runs at a tiny size, traced, through the same child process,
checks and per-layer arithmetic as a benchmark run.  With a zero-second
window the closed loop makes exactly two invocations.
"""

import ast
import json
import shutil
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import child  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

TINY = {
    "sweep-2d": {"--samples": "1000,1000,1000,1000,10000,10000"},
    "series-1d": {"--samples": "3000", "--t-final": "0.2"},
    "packet-2d": {"--t-final": "0.05"},
}


def shrink(argv, sizes):
    argv = list(argv)
    for flag, value in sizes.items():
        argv[argv.index(flag) + 1] = value
    return argv


def tiny_run(tmp: Path, name: str, seed: int, mode: str = "trace"):
    work = tmp / f"{name}-{seed}-{mode}"
    argv = shrink(wl.WORKLOADS[name].argv(seed), TINY[name])
    res = run.spawn(mode, name, argv, 0.0, work, time.monotonic() + 120)
    return res, work / "out"


def new_tally():
    return {"attempted": 0, "failed": 0, "problems": [], "setup": []}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bench")
    return {name: tiny_run(tmp, name, seed=1) for name in wl.WORKLOADS}


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_tiny_run_passes_checks_and_reports_every_layer_metric(traced, name):
    res, _ = traced[name]
    tally = new_tally()
    good = run.tally_process(res, tally)
    assert (tally["attempted"], tally["failed"], len(good)) == (2, 0, 2), tally
    assert res["missing"] == [] and res["setup_s"] > 0
    expected = {m["name"] for m in run.BENCH["per_layer"]} - {"trace_overhead_s"}
    for inv in good:
        assert set(inv["layers"]) == expected
        assert inv["layers"]["cli.rows_written"] > 0


def test_layer_counts_follow_the_workload(traced):
    sweep = traced["sweep-2d"][0]["invocations"][0]["layers"]
    assert sweep["egorov.reduced_steps"] == 6 * 201
    assert sweep["egorov.reduced_steps_used"] == 6
    assert sweep["dynamics.rk4_steps"] == 12 * 200
    series = traced["series-1d"][0]["invocations"][0]["layers"]
    assert series["egorov.reduced_steps_used_frac"] == 1.0
    assert series["egorov.samples_drawn"] == 3000
    assert series["dynamics.rhs_calls"] == 0
    packet = traced["packet-2d"][0]["invocations"][0]["layers"]
    assert packet["dynamics.rk4_steps"] == 100
    assert packet["dynamics.rhs_calls"] == 400
    assert packet["egorov.samples_drawn"] == 0


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_traced_spans_nest_inside_their_parents(traced, name):
    for inv in traced[name][0]["invocations"]:
        spans = inv["trace"]["spans"]
        assert spans[0]["name"] == "cli.main" and spans[0]["parent"] is None
        assert len(spans) > 1
        for s in spans[1:]:
            parent = spans[s["parent"]]
            assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_self_times_add_up_to_the_traced_wall_time(traced, name):
    for inv in traced[name][0]["invocations"]:
        stats = inv["trace"]["stats"]
        total_self = sum(v["self_s"] for v in stats.values())
        assert total_self == pytest.approx(stats["cli.main"]["incl_s"], rel=1e-9)
        layers = inv["layers"]
        parts = ("potentials.busy_s", "dynamics.self_s", "egorov.self_s",
                 "cli.self_s", "unattributed_s")
        assert sum(layers[p] for p in parts) == pytest.approx(layers["traced_wall_s"])
        assert 0 <= layers["unattributed_s"] < 0.01 * layers["traced_wall_s"]


def test_missing_boundary_is_reported_missing_not_zero(traced):
    res, out = traced["sweep-2d"]
    inv = res["invocations"][-1]
    layers = child.layer_metrics(inv["trace"], inv["wall_s"], out,
                                 missing=["egorov._classical_flow_step"])
    assert "egorov.transport_ns_per_sample_step" not in layers
    assert "egorov.reduce_ns_per_sample_step" not in layers
    assert layers["egorov.sample_ns_per_sample"] > 0


def _edit_csv(path: Path, column: str, row: int, fn):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    data = [i for i, line in enumerate(lines) if i and not line.startswith("#")]
    cells = lines[data[row]].split(",")
    j = header.index(column)
    cells[j] = repr(fn(float(cells[j])))
    lines[data[row]] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _replace(path: Path, old: str, new: str):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new))


def _set_fit(path: Path, key: str, rate: float):
    lines = [f"# {key},0,{rate}" if line.startswith(f"# {key},") else line
             for line in path.read_text().splitlines()]
    path.write_text("\n".join(lines) + "\n")


PERTURB = {
    "sweep-2d": {
        "semiclassical error above classical": lambda d: _edit_csv(
            d / "out.csv", "semiclassical_error", 5, lambda v: 1.0),
        "semiclassical rate out of band": lambda d: _set_fit(
            d / "out.csv", "fit_semiclassical", 1.9),
        "classical rate out of band": lambda d: _set_fit(
            d / "out.csv", "fit_classical", 0.5),
        "sweep point lost": lambda d: _replace(d / "out.csv", "\n0.5,", "\n#0.5,"),
        "plot script lost": lambda d: (d / "out.gp").unlink(),
    },
    "series-1d": {
        "excluded samples": lambda d: _replace(
            d / "out.csv", "# excluded_samples,0", "# excluded_samples,3"),
        "mean_H0 drifts": lambda d: _edit_csv(
            d / "out.csv", "mean_H0", -1, lambda v: v * (1 + 1e-6)),
    },
    "packet-2d": {
        "Hhbar drifts": lambda d: _edit_csv(
            d / "out.csv", "Hhbar", -1, lambda v: v * (1 + 1e-6)),
        "J12 drifts": lambda d: _edit_csv(d / "out.csv", "J12", 3, lambda v: v + 1e-6),
        "aborted": lambda d: (d / "out.csv").write_text(
            (d / "out.csv").read_text() + "# aborted,step=7,reason=x\n"),
        "plot script lost": lambda d: (d / "out.gp").unlink(),
    },
}


@pytest.mark.parametrize("name,case", [(n, c) for n, cases in PERTURB.items()
                                       for c in cases])
def test_check_rejects_perturbed_output(traced, tmp_path, name, case):
    out = tmp_path / "out"
    shutil.copytree(traced[name][1], out)
    workload = wl.WORKLOADS[name]
    assert child.judge(0, workload, out)[0] is None
    before = child.digest(out)
    PERTURB[name][case](out)
    assert child.digest(out) != before
    problem, _ = child.judge(0, workload, out)
    assert problem is not None and problem.startswith("check failed")


def test_failures_are_counted(traced):
    res, out = traced["packet-2d"]
    assert child.judge(3, wl.WORKLOADS["packet-2d"], out)[0] == "exit code 3"
    inv = res["invocations"][0]
    tally = new_tally()
    run.tally_process(dict(res, invocations=[inv, dict(inv, digest="other")]), tally)
    assert (tally["attempted"], tally["failed"]) == (2, 1)
    tally = new_tally()
    run.tally_process({"rc": 1, "stderr": "Traceback", "invocations": []}, tally)
    assert (tally["attempted"], tally["failed"]) == (1, 1)


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_seed_changes_only_the_egorov_seed(name):
    a, b = wl.WORKLOADS[name].argv(1), wl.WORKLOADS[name].argv(2)
    differing = [i for i, (x, y) in enumerate(zip(a, b)) if x != y]
    assert len(a) == len(b)
    if "--seed" in a:
        assert differing == [a.index("--seed") + 1]
    else:
        assert differing == []


def test_seed_changes_the_egorov_output_and_nothing_else(traced, tmp_path):
    _, out1 = traced["series-1d"]
    res2, out2 = tiny_run(tmp_path, "series-1d", seed=2, mode="run")
    assert res2["rc"] == 0
    h1, rows1, f1 = wl.read_csv(out1 / "out.csv")
    h2, rows2, f2 = wl.read_csv(out2 / "out.csv")
    assert (h1, f1, [r[0] for r in rows1]) == (h2, f2, [r[0] for r in rows2])
    assert rows1 != rows2


def test_untraced_run_writes_the_traced_output(traced, tmp_path):
    res, _ = tiny_run(tmp_path, "packet-2d", seed=5, mode="run")
    assert res["rc"] == 0
    assert all("trace" not in inv for inv in res["invocations"])
    digests = {inv["digest"] for inv in res["invocations"]}
    digests |= {inv["digest"] for inv in traced["packet-2d"][0]["invocations"]}
    assert len(digests) == 1


def test_probe_stops_at_the_first_library_call(tmp_path):
    res, out = tiny_run(tmp_path, "sweep-2d", seed=1, mode="probe")
    assert res["rc"] == 0 and 0 < res["setup_s"] < 30
    assert res["invocations"] == [] and list(out.iterdir()) == []
    assert res["meta"]["numpy"] and res["cal_s"] > 0


def test_only_monte_carlo_workloads_report_an_error(traced):
    for name, (res, out) in traced.items():
        problem, error = child.judge(0, wl.WORKLOADS[name], out)
        assert problem is None
        assert (error is None) == (name == "packet-2d"), name
        assert all(inv["error"] == error for inv in res["invocations"])


def test_checks_use_the_acceptance_constants():
    tree = ast.parse((BENCH.parent / "tests" / "test_acceptance.py").read_text())
    consts = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                value = ast.literal_eval(node.value)
                if isinstance(target, ast.Tuple):
                    consts.update({e.id: v for e, v in zip(target.elts, value)})
                elif isinstance(target, ast.Name):
                    consts[target.id] = value
    for key in ("RATE_2D_SEMI", "RATE_2D_CLASSICAL", "DRIFT_TOL", "SWEEP_HBARS"):
        assert getattr(wl, key) == consts[key], key


def test_tracer_nests_calls_and_spans():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("b.inner", lambda: None)
    outer = tracer.wrap("a.outer", lambda: [inner(), inner()], span=True)
    outer()
    dump = json.loads(json.dumps(tracer.dump()))
    assert dump["stats"]["b.inner"] == {"calls": 2, "incl_s": 2.0, "self_s": 2.0}
    assert dump["stats"]["a.outer"] == {"calls": 1, "incl_s": 5.0, "self_s": 3.0}
    assert dump["spans"] == [{"id": 0, "name": "a.outer", "start": 0.0,
                              "end": 5.0, "parent": None}]
    tracer.reset()
    assert tracer.dump()["stats"]["a.outer"]["calls"] == 0
    assert tracer.dump()["spans"] == []
