#!/usr/bin/env python3
"""Acceptance test for tools/mixcheck.

Runs the analyzer over the fake repos in tests/mixcheck_fixtures/ and
asserts the exact (file, line, rule) finding set and exit code for
each, plus suppression semantics, baseline round-trip, and version
pinning. Every rule the analyzer implements must fire at a known
location, so a checker that silently stops matching (e.g. a regex that
no longer survives comment stripping) fails here, not in the field.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
MIXCHECK = REPO / "tools" / "mixcheck"
FIXTURES = REPO / "tests" / "mixcheck_fixtures"

TREE_EXPECTED = {
    ("src/common/cyc_b.hh", 1, "layering"),
    ("src/detbad/det.cc", 17, "determinism"),   # pointer-keyed std::map
    ("src/detbad/det.cc", 21, "determinism"),   # unordered range-for -> addScalar
    ("src/detbad/det.cc", 28, "determinism"),   # time()
    ("src/detbad/det.cc", 33, "determinism"),   # std::random_device
    ("src/hotbad/hot.cc", 13, "hot-path-alloc"),  # push_back on std::vector
    ("src/hotbad/hot.cc", 14, "hot-path-alloc"),  # new
    ("src/legbad/guard.hh", 1, "include-guard"),
    ("src/legbad/leg.cc", 1, "raw-assert"),     # #include <cassert>
    ("src/legbad/leg.cc", 7, "raw-assert"),     # assert(
    ("src/legbad/leg.cc", 8, "banned-random"),  # rand()
    ("src/os/lifecycle.cc", 28, "stat-drift"),  # renamed demotion stat
    ("src/shiftbad/shift.cc", 11, "shift-width"),  # 1 << 22 int literal
    ("src/shiftbad/shift.cc", 17, "shift-width"),  # unproven amount
    ("src/simdbad/vec.cc", 1, "simd"),    # #include <immintrin.h>
    ("src/simdbad/vec.cc", 9, "simd"),    # raw _mm_loadu_si128
    ("src/simdbad/vec.cc", 10, "simd"),   # raw _mm_movemask_epi8
    ("src/simdbad/vec.cc", 16, "simd"),   # raw NEON vld1q_u64
    ("src/stats/reg.cc", 25, "stat-drift"),     # .scalar("renamed_metric")
    ("src/tlb/layer.hh", 4, "layering"),        # tlb/ includes workload/
    ("tools/check_perf.py", 9, "stat-drift"),   # ghost metrics key
    ("tools/check_soak.py", 9, "stat-drift"),   # ghost lifecycle key
}

SUPPRESS_EXPECTED = {
    ("src/sup.cc", 16, "suppression"),   # allow() with no reason
    ("src/sup.cc", 17, "shift-width"),   # the finding it failed to cover
}
SUPPRESS_SUPPRESSED = {
    ("src/sup.cc", 10, "shift-width"),   # reasoned allow() one line above
    ("src/sup.cc", 24, "simd"),          # reasoned allow() one line above
}

ALL_RULES = {"shift-width", "determinism", "hot-path-alloc",
             "layering", "stat-drift", "raw-assert", "include-guard",
             "banned-random", "suppression", "simd"}

failures = []


def fail(msg):
    failures.append(msg)
    print(f"FAIL: {msg}")


def run(*extra, root=None):
    cmd = [sys.executable, str(MIXCHECK)]
    if root is not None:
        cmd += ["--root", str(root)]
    cmd += list(extra)
    return subprocess.run(cmd, capture_output=True, text=True)


def run_json(root, *extra):
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        out = Path(tmp.name)
    try:
        proc = run("--json", str(out), *extra, root=root)
        payload = json.loads(out.read_text(encoding="utf-8"))
    finally:
        out.unlink(missing_ok=True)
    return proc, payload


def triples(entries):
    return {(e["file"], e["line"], e["rule"]) for e in entries}


def check_fixture(name, expected, expected_suppressed, expected_exit):
    proc, payload = run_json(FIXTURES / name)
    got = triples(payload["findings"])
    if got != expected:
        for extra in sorted(got - expected):
            fail(f"{name}: unexpected finding {extra}")
        for missing in sorted(expected - got):
            fail(f"{name}: missing finding {missing}")
    got_supp = triples(payload["suppressed"])
    if got_supp != expected_suppressed:
        fail(f"{name}: suppressed set {sorted(got_supp)} != "
             f"{sorted(expected_suppressed)}")
    if proc.returncode != expected_exit:
        fail(f"{name}: exit {proc.returncode}, expected {expected_exit}\n"
             f"{proc.stdout}{proc.stderr}")
    if len(payload["findings"]) != len(expected):
        fail(f"{name}: {len(payload['findings'])} finding entries for "
             f"{len(expected)} distinct (file, line, rule) triples")


def check_baseline_roundtrip():
    """--write-baseline then --baseline must accept all known findings."""
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        base = Path(tmp.name)
    try:
        proc = run("--write-baseline", str(base), root=FIXTURES / "tree")
        if proc.returncode != 0:
            fail(f"--write-baseline exited {proc.returncode}")
        written = json.loads(base.read_text(encoding="utf-8"))
        if triples(written["findings"]) != TREE_EXPECTED:
            fail("--write-baseline payload does not match the tree "
                 "finding set")
        proc, payload = run_json(FIXTURES / "tree", "--baseline", str(base))
        if proc.returncode != 0:
            fail(f"--baseline run exited {proc.returncode}, expected 0")
        if payload["findings"]:
            fail(f"--baseline run still reports "
                 f"{len(payload['findings'])} finding(s)")
        if payload["baselined"] != len(TREE_EXPECTED):
            fail(f"--baseline run baselined {payload['baselined']}, "
                 f"expected {len(TREE_EXPECTED)}")
    finally:
        base.unlink(missing_ok=True)


def check_version_pinning():
    proc = run("--version", root=FIXTURES / "clean")
    version = proc.stdout.strip()
    if proc.returncode != 0 or not version:
        fail("--version did not print a version")
    proc = run("--require-version", "0.0.0-never", root=FIXTURES / "clean")
    if proc.returncode != 2:
        fail(f"--require-version mismatch exited {proc.returncode}, "
             "expected 2")
    proc = run("--require-version", version, root=FIXTURES / "clean")
    if proc.returncode != 0:
        fail(f"--require-version {version} exited {proc.returncode}, "
             "expected 0")


def main():
    check_fixture("tree", TREE_EXPECTED, set(), 1)
    check_fixture("suppress", SUPPRESS_EXPECTED, SUPPRESS_SUPPRESSED, 1)
    check_fixture("clean", set(), set(), 0)
    check_baseline_roundtrip()
    check_version_pinning()

    covered = {rule for _, _, rule in TREE_EXPECTED | SUPPRESS_EXPECTED}
    if covered != ALL_RULES:
        fail(f"rules without fixture coverage: "
             f"{sorted(ALL_RULES - covered)}")

    if failures:
        print(f"\n{len(failures)} failure(s)")
        return 1
    print("mixcheck fixtures: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
