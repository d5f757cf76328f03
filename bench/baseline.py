"""Record the benchmark's baseline on this machine.

    python3 bench/baseline.py [--out FILE]

Runs bench/run.py once per (seed, workload) for every workload in
BENCHMARK.json, seeds 1..SEEDS, interleaving the workloads, then
TRACED_SEEDS traced runs per workload.  Writes, per
workload and metric, the median, quartiles and sample count, and prints
each end-to-end metric's spread (quartile distance over median) against a
third of its bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
SEEDS = 10
TRACED_SEEDS = 1


def one_run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(BENCH["run_seconds"]),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                          timeout=300, check=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed} failed its checks:\n{proc.stdout}")
    meta = next(json.loads(line[5:]) for line in lines if line.startswith("meta "))
    for line in lines:
        # "[workload]   raw        wall_s   3.25 s": the uncalibrated figures
        parts = line.split()
        if trace == 0 and len(parts) == 5 and parts[1] == "raw":
            result["metrics"][f"raw.{parts[2]}"] = {"value": float(parts[3]),
                                                    "unit": parts[4]}
    return result, meta


def summarize(values: list[float]) -> dict:
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=Path, default=HERE / "BASELINE.json")
    args = ap.parse_args()

    samples = {w: {} for w in WORKLOADS}
    meta = None
    for trace, seeds in ((0, SEEDS), (1, TRACED_SEEDS)):
        for seed in range(1, seeds + 1):
            for w in WORKLOADS:
                result, meta = one_run(w, seed, trace)
                for k, v in result["metrics"].items():
                    samples[w].setdefault(k, []).append(v["value"])
                print(f"{w} seed {seed} trace {trace}: " + ", ".join(
                    f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                    if trace == 0), flush=True)

    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    report = {"meta": {k: v for k, v in meta.items() if k != "seed"},
              "seeds": SEEDS, "traced_seeds": TRACED_SEEDS,
              "run_seconds": BENCH["run_seconds"], "workloads": {}}
    steady = True
    for w, metrics in samples.items():
        report["workloads"][w] = {k: summarize(v) for k, v in sorted(metrics.items())}
        for k, bound in bounds.items():
            s = report["workloads"][w][k]
            ok = s["spread"] < bound / 3
            steady &= ok
            print(f"{w:10s} {k:14s} median {s['median']:10.4g}  spread "
                  f"{s['spread']:7.2%}  bound/3 {bound / 3:6.2%}  "
                  f"{'ok' if ok else 'WIDE'}")
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
