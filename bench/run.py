"""gwpdyn benchmark driver.

    python3 bench/run.py [--workload NAME ...] [--seed N] [--seconds S]
                         [--trace 0|1]

For each workload, one workload at a time:

1. Eleven set-up probes: fresh interpreters (bench/child.py) that stop at
   the first library call and then time the calibration loop.  setup_s is
   the median over the probes of the time from spawn to that call, each
   scaled to the reference speed by its own probe's calibration.
2. One fresh measuring process that runs the workload as a closed loop
   with one caller for S seconds: invoke the CLI in-process, check the
   output, invoke again.  wall_s is the median invocation time scaled
   to the reference speed (see `ref_wall`), peak_rss_mib the process's
   peak RSS from wait4.
3. With --trace 1, a second measuring process does the same with every
   layer boundary traced; its per-layer medians replace the end-to-end
   figures in the final JSON line.

The last line of standard output is that JSON object; the lines above it
are the same figures for people.  Exit code 2 means the program could not
be run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from child import EXIT_NO_PROGRAM  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PROBES = 11
# child.calibrate() on the reference machine (see README.md); wall times
# are reported as if every invocation had run at that speed
REFERENCE_CAL_S = 0.02
CHILD_LIMIT_S = 160.0
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}


class NoProgram(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    # one BLAS thread: figures steady on a shared machine
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def spawn(mode: str, workload: str, argv: list, seconds: float, work: Path,
          deadline: float) -> dict:
    """Run one child process to completion and return its result with the
    parent's measurements added.  Raises NoProgram if gwpdyn cannot be
    imported."""
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    result_path = work / "child.json"
    result_path.unlink(missing_ok=True)
    with open(work / "child.err", "w+") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), mode, workload, str(seconds),
             str(result_path), *argv],
            cwd=out, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err)
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                deadline = float("inf")
            time.sleep(0.005)
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    if proc.returncode == EXIT_NO_PROGRAM:
        raise NoProgram(stderr.strip())
    res = {"invocations": []}
    if proc.returncode == 0 and result_path.exists():
        res = json.loads(result_path.read_text())
    res.update(rc=proc.returncode, stderr=stderr[-2000:],
               peak_rss_mib=usage.ru_maxrss / 1024.0)
    if res.get("first_call") is not None:
        res["setup_s"] = res["first_call"] - t0
    return res


def ref_wall(invocations: list[dict]) -> float:
    """Median invocation time at the reference speed: each wall time is
    scaled by REFERENCE_CAL_S over the calibration time around it."""
    return statistics.median(r["wall_s"] * REFERENCE_CAL_S / r["cal_s"]
                             for r in invocations)


def median_of(samples: list[dict]) -> dict:
    out = {}
    for k in sorted({k for s in samples for k in s}):
        values = [s[k] for s in samples if k in s]
        counts = all(isinstance(v, int) for v in values)
        out[k] = (statistics.median_low if counts else statistics.median)(values)
    return out


def tally_process(res: dict, tally: dict) -> list[dict]:
    """Count one measuring process's invocations; returns the good ones."""
    if res["rc"] != 0:
        tally["attempted"] += 1
        tally["failed"] += 1
        tally["problems"].append(f"process exit {res['rc']}: {res['stderr'][-500:]}")
        return []
    good = []
    for inv in res["invocations"]:
        tally["attempted"] += 1
        problem = inv["problem"]
        if problem is None:
            tally.setdefault("digest", inv["digest"])
            if inv["digest"] != tally["digest"]:
                problem = "output differs from the first invocation with this seed"
        if problem is None:
            good.append(inv)
        else:
            tally["failed"] += 1
            tally["problems"].append(problem)
    return good


def measure(workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    deadline = time.monotonic() + CHILD_LIMIT_S
    argv = workload.argv(seed)
    tally = {"attempted": 0, "failed": 0, "problems": [], "setup": [],
             "setup_raw": []}
    for _ in range(PROBES):
        res = spawn("probe", workload.name, argv, seconds, work, deadline)
        tally["attempted"] += 1
        if res["rc"] != 0 or res.get("setup_s") is None:
            tally["failed"] += 1
            tally["problems"].append(f"probe: exit {res['rc']} {res['stderr'][-300:]}")
        else:
            tally["setup"].append(res["setup_s"] * REFERENCE_CAL_S / res["cal_s"])
            tally["setup_raw"].append(res["setup_s"])
            tally.setdefault("meta", res.get("meta"))

    res = spawn("run", workload.name, argv, seconds, work, deadline)
    runs = tally_process(res, tally)
    e2e, raw = {}, {}
    if runs:
        wall = to_tol = ref_wall(runs)
        if workload.error:
            err = statistics.median(r["error"] for r in runs)
            to_tol = wall * (err / workload.target) ** 2
        e2e = {
            "wall_s": wall,
            "setup_s": statistics.median(tally["setup"]),
            "peak_rss_mib": res["peak_rss_mib"],
            "time_to_tol_s": to_tol,
        }
        raw = {"wall_s": statistics.median(r["wall_s"] for r in runs),
               "cal_s": statistics.median(r["cal_s"] for r in runs),
               "setup_s": statistics.median(tally["setup_raw"])}
    layers, missing = {}, []
    if trace:
        res = spawn("trace", workload.name, argv, seconds, work, deadline)
        traced = tally_process(res, tally)
        if traced:
            layers = median_of([r["layers"] for r in traced])
            missing = res.get("missing", [])
            if "wall_s" in e2e:
                layers["trace_overhead_s"] = ref_wall(traced) - e2e["wall_s"]
    return {"e2e": e2e, "raw": raw, "layers": layers, "missing": missing,
            "iterations": len(runs), **tally}


def machine_meta(seed: int, meta: dict | None) -> dict:
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            path = ROOT / ".git" / ref[5:]
            commit = path.read_text().strip() if path.exists() else ref[5:]
    return {"nproc": len(os.sched_getaffinity(0)), "caches": caches,
            "commit": commit, "seed": seed, **(meta or {})}


def fmt(v) -> str:
    return str(v) if isinstance(v, int) else f"{v:.6g}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", nargs="+", choices=list(WORKLOADS),
                    default=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not (ROOT / "src" / "gwpdyn" / "__init__.py").is_file():
        print(f"error: no gwpdyn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / str(os.getpid())
    results = {}
    try:
        for name in args.workload:
            results[name] = measure(WORKLOADS[name], args.seed, args.seconds,
                                    bool(args.trace), work)
    except NoProgram as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    meta = machine_meta(args.seed, next((r.get("meta") for r in results.values()
                                         if r.get("meta")), None))
    print("meta " + json.dumps(meta))
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    metrics = {}
    for name, r in results.items():
        print(f"[{name}] {r['iterations']} timed runs, {len(r['setup'])} set-ups, "
              f"failed_frac {r['failed']}/{r['attempted']}")
        for problem in r["problems"][:5]:
            print(f"[{name}]   FAILED: {problem}")
        for label, values in (("end-to-end", r["e2e"]), ("raw", r["raw"]),
                              ("per-layer", r["layers"])):
            for k in sorted(values):
                unit = "s" if label == "raw" else UNITS.get(k, "")
                print(f"[{name}]   {label:10s} {k:38s} {fmt(values[k]):>14s} {unit}")
        for b in r["missing"]:
            print(f"[{name}]   missing boundary {b}: its metrics are not reported")
        chosen = r["layers"] if args.trace else r["e2e"]
        for k, v in sorted(chosen.items()):
            key = k if len(results) == 1 else f"{name}.{k}"
            metrics[key] = {"value": v, "unit": UNITS.get(k, "")}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
