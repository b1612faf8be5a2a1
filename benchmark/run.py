"""Benchmark of the wave4d verification suites.

    python3 benchmark/run.py --workload projection --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from ``src``, so
nothing is built.  One process drives the load, with BLAS and OpenMP
threads capped at the CPUs this process may use.  After the set-up, whole
rounds of the workload's operations run until ``--seconds`` have passed
(at least one round); every result is checked.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` runs the set-up once and one round under
the layer tracer and prints the per-layer metrics.  The last line of
standard output is the JSON result.
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
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 3
# import time of a fresh interpreter; sys.argv[1:] are the path entries
_IMPORT = ("import sys, time; sys.path[:0] = sys.argv[1:]; "
           "t = time.perf_counter(); import workloads; "
           "print(time.perf_counter() - t)")
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("projection", "dynamics", "laws"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_round(ops, tracer=None) -> tuple:
    """One pass over the operations; returns (failed, broken checks)."""
    done, failed, broken = {}, 0, []
    for op in ops:
        t0 = time.perf_counter()
        try:
            with (tracer.span("op." + op.name) if tracer else nullcontext()):
                result = op.run(done)
        except Exception:
            failed += 1
            print(f"  {op.name}: FAILED after {time.perf_counter() - t0:.2f} s",
                  flush=True)
            traceback.print_exc(file=sys.stderr)
            continue
        done[op.name] = result
        problems = op.check(result)
        broken += [f"{op.name}: {p}" for p in problems]
        print(f"  {op.name}: {time.perf_counter() - t0:.2f} s "
              f"{'ok' if not problems else 'WRONG ' + '; '.join(problems)}",
              flush=True)
    return failed, broken


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wave4d" / "__init__.py").is_file():
        print(f"wave4d sources not found under {SRC}", file=sys.stderr)
        return 2
    threads = str(len(os.sched_getaffinity(0)))
    for var in _THREAD_VARS:
        os.environ[var] = threads
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    import workloads  # numpy, scipy and every wave4d module
    import_s = time.perf_counter() - t0
    setup = workloads.SETUPS[args.workload]

    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        ops = setup(args.seed)
        t0 = time.perf_counter()
        failed, broken = run_round(ops, tracer)
        tracer.wall_s = time.perf_counter() - t0
        tracer.uninstall()
        metrics = tracer.metrics()
        tracer.dump(HERE / "out" / f"trace-{args.workload}-{args.seed}.json",
                    dict(workload=args.workload, seed=args.seed,
                         metrics=metrics))
        units = {m["name"]: m["unit"] for m in _declared("per_layer")}
        attempted = len(ops)
    else:
        # imports dominate set-up and vary most from run to run: take the
        # median of this process's import and two in fresh interpreters
        import_times = [import_s] + [_import_seconds() for _ in range(2)]
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            ops = setup(args.seed)
            setup_times.append(time.perf_counter() - t0)
        print("imports " + ", ".join(f"{s:.3f} s" for s in import_times) +
              "; set-up " + ", ".join(f"{s:.3f} s" for s in setup_times),
              flush=True)
        rounds, failed, broken = [], 0, []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            t0 = time.perf_counter()
            f, b = run_round(ops)
            rounds.append(time.perf_counter() - t0)
            failed, broken = failed + f, broken + b
        print(f"{len(rounds)} round(s): " +
              ", ".join(f"{r:.3f} s" for r in rounds), flush=True)
        metrics = dict(
            wall_s=statistics.median(rounds),
            setup_s=statistics.median(import_times)
            + statistics.median(setup_times),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0)
        units = {m["name"]: m["unit"] for m in _declared("end_to_end")}
        attempted = len(ops) * len(rounds)

    for msg in broken:
        print("WRONG " + msg, file=sys.stderr)
    print(json.dumps(dict(
        correct=not broken, attempted=attempted, failed=failed,
        metrics={k: dict(value=v, unit=units[k]) for k, v in metrics.items()})))
    return 0


def _import_seconds() -> float:
    out = subprocess.run([sys.executable, "-c", _IMPORT, str(SRC), str(HERE)],
                         capture_output=True, text=True, check=True,
                         timeout=120)
    return float(out.stdout)


def _declared(kind: str) -> list:
    with open(HERE.parent / "BENCHMARK.json") as fh:
        return json.load(fh)[kind]


if __name__ == "__main__":
    sys.exit(main())
