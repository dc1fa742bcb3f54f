#!/usr/bin/env python3
"""Golden determinism check for the fig14 sweep (ctest: fig14_golden).

Runs the fixed-seed fig14 mini-grid once per worker count and asserts
the emitted JSON reports are identical apart from the recorded "jobs"
field. The hot path carries bit-exactness fast paths (L0 MRU filter,
fused batch translation); either of them leaking into modeled results
— or any cross-thread nondeterminism in the sweep runner — shows up
here as a report mismatch.

Usage: run_fig14_golden.py <fig14_mix_vs_split binary> [jobs...]
"""

import json
import os
import subprocess
import sys
import tempfile

MINI_GRID = [
    "--refs", "4000",
    "--footprint-mb", "192",
    "--footprint-4k-mb", "96",
    "--no-timing",
]


def fail(message: str) -> None:
    print(f"fig14_golden: FAIL: {message}")
    sys.exit(1)


def main() -> None:
    if len(sys.argv) < 2:
        fail("usage: run_fig14_golden.py <binary> [jobs...]")
    binary = sys.argv[1]
    jobs = sys.argv[2:] or ["1", "8"]

    reports = {}
    with tempfile.TemporaryDirectory() as tmpdir:
        for n in jobs:
            path = os.path.join(tmpdir, f"fig14_j{n}.json")
            cmd = [binary, *MINI_GRID, "--jobs", n, "--json", path]
            result = subprocess.run(
                cmd, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True
            )
            if result.returncode != 0:
                fail(
                    f"--jobs {n} exited {result.returncode}:\n"
                    f"{result.stderr}"
                )
            with open(path, encoding="utf-8") as handle:
                report = json.load(handle)
            report.pop("jobs", None)
            reports[n] = json.dumps(report, sort_keys=True)

    golden = reports[jobs[0]]
    for n in jobs[1:]:
        if reports[n] != golden:
            fail(
                f"report with --jobs {n} differs from --jobs {jobs[0]} "
                "(beyond the 'jobs' field)"
            )
    print(
        f"fig14_golden: OK: {len(jobs)} worker counts "
        f"({', '.join(jobs)}) produced identical reports"
    )


if __name__ == "__main__":
    main()
