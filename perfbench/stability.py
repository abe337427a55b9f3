"""Stability mode: two sets of ten runs over fresh seeds, tested against the BENCHMARK.json bounds.

    python3 perfbench/stability.py --workload solvers --first-seed 1001

Each run is a separate ``run.py`` process with its own seed, the seeds
counting up from ``--first-seed``; runs go one at a time so they do not
compete for cores.  For every end-to-end metric the tool prints the median,
the quartiles and the spread (interquartile distance over the median) of
each set.  A metric is steady when the spread of each set stays within its
bound and the two sets' medians differ by no more than the bound, in either
direction.  The share of failed operations must be identical in every run.
Exits 1 when any test fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS, RUNS = 2, 10


def one_run(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"seed {seed}: checks failed:\n{proc.stdout}")
    return result


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    seconds = spec["run_seconds"]
    ok = True
    seed = args.first_seed
    for workload in args.workload:
        sets = []
        for s in range(SETS):
            results = []
            for _ in range(RUNS):
                results.append(one_run(workload, seed, seconds))
                print(f"{workload} set {s + 1} seed {seed}: "
                      + "  ".join(f"{k}={v['value']:.5g}" for k, v in sorted(results[-1]["metrics"].items())),
                      flush=True)
                seed += 1
            sets.append(results)
        shares = {r["failed"] / r["attempted"] for results in sets for r in results}
        print(f"\n{workload}: failed share {sorted(shares)}"
              + ("" if len(shares) == 1 else "  NOT CONSTANT"))
        ok &= len(shares) == 1
        for entry in spec["end_to_end"]:
            name, bound = entry["name"], entry["bound"]
            medians = []
            for s, results in enumerate(sets):
                q1, med, q3 = quartiles([r["metrics"][name]["value"] for r in results])
                spread = (q3 - q1) / med
                steady = spread <= bound
                ok &= steady
                medians.append(med)
                print(f"  {name:<14} set {s + 1}: median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                      f"spread {spread:.3f} (bound {bound}, a third {bound / 3:.3f})"
                      + ("" if steady else "  TOO WIDE"))
            change = (medians[1] - medians[0]) / medians[0]
            agree = abs(change) <= bound
            ok &= agree
            print(f"  {name:<14} median change {change:+.3f} ({'agrees' if agree else 'OUTSIDE THE BOUND'})")
    print("\nSTEADY" if ok else "\nNOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
