#!/usr/bin/env python3
"""Run every verification suite into one artifact directory, print each
suite's wall time, and render the combined report.
Usage: python scripts/run_all_suites.py [outdir]."""

import sys
import time

from wave4d.cli import main

OUT = sys.argv[1] if len(sys.argv) > 1 else "wave4d_out"

SUITES = [
    ["states"],
    ["spectrum"],
    ["interactions"],
    ["modulate"],
    ["energy"],
    ["evolve"],
    ["shoot"],
]

status = 0
for args in SUITES:
    print(f"== suite: {args[0]}")
    start = time.perf_counter()
    rc = main(["--out", OUT] + args)
    print(f"== wall: {args[0]} {time.perf_counter() - start:.2f} s")
    status = max(status, rc)
print("== combined report")
rc = main(["--out", OUT, "report"])
sys.exit(max(status, rc))
