"""genage benchmark: one command for the solvers and predict-bulk workloads.

    python3 perfbench/run.py --workload solvers --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy.  ``--trace 0`` times the
end-to-end metrics with no wrappers installed.  ``--trace 1`` runs a fixed
number of rounds twice on the same inputs, first untraced and then with
every layer function wrapped, and reports the per-layer figures and the
tracing overhead.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads, so timings do not depend on the
# number of cores or on other processes competing for them
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_program():
    src = ROOT / "src"
    if not (src / "genage" / "__init__.py").is_file():
        sys.exit(f"run.py: no genage sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    import genage

    if Path(genage.__file__).resolve().parent != (src / "genage").resolve():
        sys.exit(f"run.py: imported genage from {genage.__file__}, not from {src}")


def _benchmark_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup(workload, seed, workdir):
    start = time.perf_counter()
    state = workload.setup(seed, workdir)
    return state, time.perf_counter() - start


def _round(workload, state, rounds, tracer=None):
    """Run one round, check it outside its timed spans, append it; returns its timed seconds."""
    r = workload.run_round(state, len(rounds))
    if tracer is not None:
        tracer.remove()
    workload.check_round(state, len(rounds), r)
    if tracer is not None:
        tracer.install()
    r.outputs = {}
    rounds.append(r)
    return r.seconds


def measure(workload, seed, seconds, workdir):
    """The timed run: rounds until ``seconds`` of timed work.

    The set-up is timed ``setup_repeats`` times at even steps of the timed
    work, from the start of the run to its end; each time the state is
    rebuilt from the same seed, so the rounds see the same inputs.  A shared
    host can run slower and faster in phases of several seconds, and set-ups
    made back to back would all fall in one phase.
    """
    repeats = workload.setup_repeats
    setup_times, rounds, timed, state = [], [], 0.0, None
    while True:
        due = repeats if timed >= seconds else 1 + int(timed * (repeats - 1) / seconds)
        while len(setup_times) < due:
            state = None  # release the previous inputs before building new ones
            state, spent = _setup(workload, seed, workdir)
            setup_times.append(spent)
        if timed >= seconds:
            break
        timed += _round(workload, state, rounds)
    rss = peak_rss_mb()
    summary, notes = workload.finish(state, rounds)
    metrics = {
        "setup_s": ("s", statistics.median(setup_times)),
        "peak_rss_mb": ("MB", rss),
        "round_s": ("s", statistics.median(r.seconds for r in rounds)),
    }
    return metrics, summary, notes, rounds


def traced(workload, seed, workdir):
    """Untraced then traced: one set-up and ``trace_rounds`` rounds each, same inputs."""
    from tracer import Tracer

    totals = []
    for tracer in (None, Tracer()):
        if tracer is not None:
            tracer.install()
        try:
            state, spent = _setup(workload, seed, workdir)
            rounds = []
            for _ in range(workload.trace_rounds):
                spent += _round(workload, state, rounds, tracer)
        finally:
            if tracer is not None:
                tracer.remove()
        totals.append(spent)
    summary, notes = workload.finish(state, rounds)
    layers = tracer.metrics()
    layers["trace.rounds"] = len(rounds)
    layers["trace.untraced_s"] = totals[0]
    layers["trace.traced_s"] = totals[1]
    layers["trace.overhead_s"] = totals[1] - totals[0]
    return layers, summary, notes, rounds


def run_workload(workload, args, spec, workdir):
    from checks import CheckFailed

    correct, problems = True, []
    try:
        if args.trace:
            values, summary, notes, rounds = traced(workload, args.seed, workdir)
            wanted = spec["per_layer"]
        else:
            values, summary, notes, rounds = measure(workload, args.seed, args.seconds, workdir)
            wanted = spec["end_to_end"]
    except CheckFailed as exc:
        correct, problems = False, [str(exc)]
        values, summary, notes, rounds, wanted = {}, {}, [], [], []
    attempted, failed = sum(r.attempted for r in rounds), sum(r.failed for r in rounds)

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  rounds {len(rounds)}  "
          f"attempted {attempted}  failed {failed}  correct {str(correct).lower()}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    for message in sorted({m for r in rounds for m in r.failures}):
        count = sum(m == message for r in rounds for m in r.failures)
        print(f"  FAILED x{count}: {message}")
    for name, (unit, value) in summary.items():
        print(f"  {name:<28} {value:.6g} {unit}")
    if not args.trace:
        for name, (unit, value) in values.items():
            print(f"  {name:<28} {value:.6g} {unit}")
    for note in notes:
        print(f"  note: {note}")
    print("  round seconds: " + " ".join(f"{r.seconds:.3f}" for r in rounds))

    metrics = {}
    for entry in wanted:
        value = values[entry["name"]]
        value = value[1] if isinstance(value, tuple) else value
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    if args.trace:
        for name, item in metrics.items():
            print(f"  {name:<40} {item['value']:.6g} {item['unit']}")
    return {"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    _import_program()
    spec = _benchmark_spec()
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; expected 'all' or one of {', '.join(WORKLOADS)}")

    # exit through the finally below on SIGTERM, so the scratch directory goes too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="genage-", dir=build)
    try:
        results = [run_workload(WORKLOADS[name], args, spec, workdir) for name in names]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for result in results:
        print(json.dumps(result, sort_keys=True), flush=True)
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
