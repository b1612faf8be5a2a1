#!/usr/bin/env python3
"""Run the benchmark's three workloads and the suites, and write the next
BENCH_<n>.json.

    python3 scripts/bench_snapshot.py [--checkout DIR]

Each workload runs through the checkout's ``benchmark/run.py`` (default
checkout: this repository), at seed 1 for the benchmark's 15 s: five times
with ``--trace 0`` for the end-to-end metrics, then three times with
``--trace 1`` for the per-layer ones.  A single run is one sample at
whatever load it met, so the snapshot keeps each metric's values, their
median and their quartiles.  Every snapshot runs the same way, so any two
compare.
Then the checkout's ``scripts/run_all_suites.py`` runs once into a temporary
directory; the snapshot keeps each suite's wall time, the exit status and a
sha256 of each ``<suite>_results.json``, so equal digests in two snapshots
show that no result moved.  The snapshot goes to the root of this
repository as BENCH_<n>.json, n one past the largest there, and records the
checkout's git sha, whether its tree had uncommitted changes, a digest of
its ``src/wave4d`` sources and the core count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("projection", "dynamics", "laws")
SEED = 1
SECONDS = 15.0
END_TO_END_RUNS = 5
TRACED_RUNS = 3


def _git(checkout: Path, *args) -> str:
    out = subprocess.run(["git", "-C", str(checkout), *args],
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def _source_digest(checkout: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((checkout / "src" / "wave4d").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _run(checkout: Path, workload: str, trace: int) -> dict:
    """The JSON result line of one benchmark run."""
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", str(SECONDS),
           "--trace", str(trace)]
    print("$ " + " ".join(cmd[1:]), flush=True)
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} (trace {trace}) exited "
                           f"{out.returncode}:\n{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    print(f"  correct {result['correct']}, failed {result['failed']} of "
          f"{result['attempted']}", flush=True)
    return result


def _runs(checkout: Path, workload: str, trace: int, count: int) -> dict:
    """The verdicts of count runs, and per metric its values, their median
    and their quartiles."""
    runs = [_run(checkout, workload, trace) for _ in range(count)]
    metrics = {}
    for name, m in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        metrics[name] = dict(values=values, median=statistics.median(values),
                             quartiles=[q1, q3], unit=m["unit"])
    return dict(runs=[{k: r[k] for k in ("correct", "attempted", "failed")}
                      for r in runs], metrics=metrics)


def _suites(checkout: Path) -> dict:
    """Wall times, exit status and result digests of one run of the
    checkout's scripts/run_all_suites.py."""
    print("$ scripts/run_all_suites.py", flush=True)
    with tempfile.TemporaryDirectory() as out:
        run = subprocess.run(
            [sys.executable, "scripts/run_all_suites.py", out], cwd=checkout,
            env=dict(os.environ, PYTHONPATH=str(checkout / "src")),
            capture_output=True, text=True)
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in sorted(Path(out).glob("*_results.json"))}
    wall_s = {m[1]: float(m[2]) for m in re.finditer(
        r"^== wall: (\S+) (\S+) s$", run.stdout, re.MULTILINE)}
    print(f"  exit status {run.returncode}", flush=True)
    return dict(exit_status=run.returncode, wall_s=wall_s,
                results_sha256=digests)


def next_path(root: Path) -> Path:
    taken = [int(m.group(1)) for p in root.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    return root / f"BENCH_{max(taken, default=0) + 1}.json"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--checkout", type=Path, default=ROOT)
    args = p.parse_args(argv)
    checkout = args.checkout.resolve()

    snapshot = dict(
        sha=_git(checkout, "rev-parse", "HEAD"),
        uncommitted_changes=bool(_git(checkout, "status", "--porcelain",
                                      "--untracked-files=no")),
        source_sha256=_source_digest(checkout),
        cores=len(os.sched_getaffinity(0)),
        load_average=os.getloadavg(),
        date=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        seed=SEED, seconds=SECONDS, workloads={})
    for workload in WORKLOADS:
        snapshot["workloads"][workload] = dict(
            end_to_end=_runs(checkout, workload, 0, END_TO_END_RUNS),
            per_layer=_runs(checkout, workload, 1, TRACED_RUNS))
    snapshot["suites"] = _suites(checkout)

    path = next_path(ROOT)
    path.write_text(json.dumps(snapshot, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
