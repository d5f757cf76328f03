"""Time one Egorov transport block of each benchmark shape in two trees.

    python3 tools/transport_block.py OLD_TREE NEW_TREE [--reps N]

A block is one call of gwpdyn.egorov._transport_block on the tree's
DEFAULT_CHUNK (8192) scrambled-Sobol rows, in two shapes:

  sweep-2d   quartic2d, hbar 0.01, dt 0.01, 200 steps, q and p reduced
             at the final time only (a block of `converge`'s rate sweep);
  series-1d  cosine1d, hbar 0.1, dt 0.01, 50 steps, q, p and H0 reduced
             at every step (a block of the `egorov` series).

Each block runs in a fresh process, with OLD_TREE/src or NEW_TREE/src on
PYTHONPATH, alternating the trees (which goes first alternates too),
N processes per tree and shape.  Before the block the process frees one
egorov._HEAP_PRIMER-sized array, as the transport pool does, so glibc's
malloc sets its thresholds the same way.  Per tree and shape the tool
prints the median and quartiles of nanoseconds per sample-step (block
wall time over rows times steps, the draw of the rows included) and the
median and range of the minor page faults of one block
(resource.getrusage), which show whether the heap is trimmed and
faulted in again from step to step, and in how many of the N pairs of
processes (one per tree, run back to back) NEW_TREE was the faster.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

STATE_1D = ([0.5], [-1.0], [[0.0]], [[1.0]])
STATE_2D = ([1.0, 0.0], [0.0, 1.0], [[-3.0, -6.0], [-6.0, -6.0]], [[1.0, 0.5], [0.5, 1.0]])
# shape: (model, state, hbar, dt, steps, final time only, observables)
SHAPES = {
    "sweep-2d": ("quartic2d", STATE_2D, 0.01, 0.01, 200, True, ("q", "p")),
    "series-1d": ("cosine1d", STATE_1D, 0.1, 0.01, 50, False, ("q", "p", "H0")),
}
SEED = 11


def run_block(shape: str) -> dict:
    """Transport one block of the shape in this process; its ns per
    sample-step and minor faults."""
    import numpy as np
    from gwpdyn import egorov
    from gwpdyn.packet import make_packet_state
    from gwpdyn.potentials import model_by_name

    name, state, hbar, dt, steps, final_only, observables = SHAPES[shape]
    model = model_by_name(name)
    rows = egorov.DEFAULT_CHUNK
    ens = egorov.wigner_sample(make_packet_state(*state), hbar, seed=SEED, N=rows,
                               sobol=True)
    plan = egorov._Transport((ens,), model, dt, steps + 1, steps if final_only else 0,
                             observables)
    np.empty(egorov._HEAP_PRIMER, dtype=np.uint8)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    egorov._transport_block(plan, 0, 0)
    elapsed = time.perf_counter() - t0
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return {"ns": elapsed / (rows * steps) * 1e9, "faults": faults}


def spawn(tree: Path, shape: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, __file__, "--block", shape], env=env,
                          capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, nargs="?")
    parser.add_argument("new", type=Path, nargs="?")
    parser.add_argument("--reps", type=int, default=6,
                        help="processes per tree and shape (default 6)")
    parser.add_argument("--block", choices=SHAPES,
                        help="run one block of this shape here and print its record")
    args = parser.parse_args()
    if args.block:
        print(json.dumps(run_block(args.block)))
        return 0
    if args.old is None or args.new is None:
        parser.error("OLD_TREE and NEW_TREE are required")
    trees = {"old": args.old.resolve(), "new": args.new.resolve()}
    for shape in SHAPES:
        records = {side: [] for side in trees}
        for rep in range(args.reps):
            order = ("old", "new") if rep % 2 == 0 else ("new", "old")
            for side in order:
                records[side].append(spawn(trees[side], shape))
        for side, recs in records.items():
            ns = [r["ns"] for r in recs]
            faults = [r["faults"] for r in recs]
            q1, med, q3 = statistics.quantiles(ns, n=4, method="inclusive")
            print(f"{shape:<10} {side:<4} {med:7.1f} ns per sample-step "
                  f"(quartiles {q1:.1f}-{q3:.1f}), minor faults per block "
                  f"{statistics.median(faults):.0f} ({min(faults)}-{max(faults)}), "
                  f"{len(recs)} processes")
        wins = sum(b["ns"] < a["ns"] for a, b in zip(records["old"], records["new"]))
        print(f"{shape:<10} new faster in {wins}/{args.reps} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
