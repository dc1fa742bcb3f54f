#!/usr/bin/env python3
"""Validate perf-smoke benchmark reports (CI's perf-smoke job).

These are structural checks, not throughput gates: perfbench/run.py is
the throughput record. Dispatches on the report's kind:

`multiprog` (bench_multiprog --json): the multiprogrammed sweep pairing
full-flush and ASID-tagged context-switch policies over identical
reference streams. Checks:

  complete     every headline design is present, every point "ok"
  paired       each full-flush record has an ASID-tagged twin with the
               same design/procs/quantum/mix and the same seed
  attributed   every record carries per-process miss rates matching
               num_procs, and nonzero context switches
  policy       full-flush records flush, ASID-tagged records never do
  wins         per design, the mean ASID-tagged L1 miss rate across
               the grid is strictly below the mean full-flush rate
  timed        any timing block carries positive wall_seconds and
               refs_per_sec

`google-benchmark` (micro_tlb_ops --benchmark_out=...): the raw JSON
google-benchmark emits (detected by its "context"/"benchmarks" keys
rather than a "benchmark" field). Checks every benchmark ran (no
error_occurred, positive real/cpu time) and none were skipped.

Usage: tools/check_perf.py <report.json>
       (exit 0 clean, 1 otherwise)
"""

import json
import sys

EXPECTED_DESIGNS = ["split", "mix", "mix+colt", "hash-rehash", "skew"]


def fail(message: str) -> None:
    print(f"check_perf: FAIL: {message}")
    sys.exit(1)


def pair_key(config: dict) -> tuple:
    return (
        config.get("design"),
        config.get("num_procs"),
        config.get("quantum"),
        config.get("mix"),
    )


def check_multiprog(report: dict) -> None:
    results = report.get("results", [])
    if not results:
        fail("report has no results")
    if report.get("failures"):
        fail(f"{len(report['failures'])} quarantined points")

    flush, asid = {}, {}
    for record in results:
        label = record.get("label", "<unlabelled>")
        if record.get("status") != "ok":
            fail(f"{label}: status is {record.get('status')!r}")
        config = record.get("config", {})
        policy = config.get("policy")
        if policy == "full-flush":
            flush[pair_key(config)] = record
        elif policy == "asid":
            asid[pair_key(config)] = record
        else:
            fail(f"{label}: unknown policy {policy!r}")

        multi = record.get("multi")
        if multi is None:
            fail(f"{label}: missing multi block")
        rates = multi.get("proc_l1_miss_rates", [])
        if len(rates) != config.get("num_procs"):
            fail(
                f"{label}: {len(rates)} per-process miss rates for "
                f"{config.get('num_procs')} processes"
            )
        if multi.get("context_switches", 0) <= 0:
            fail(f"{label}: no context switches recorded")
        flushes = multi.get("full_flushes", 0)
        if policy == "full-flush" and flushes <= 0:
            fail(f"{label}: full-flush policy never flushed")
        if policy == "asid" and flushes != 0:
            fail(f"{label}: ASID-tagged policy flushed {flushes} times")

        timing = record.get("timing")
        if timing is not None:
            for key in ("wall_seconds", "refs_per_sec"):
                if timing.get(key, 0) <= 0:
                    fail(f"{label}: timing {key} is {timing.get(key)!r}")

    if set(flush) != set(asid):
        fail("full-flush and asid points do not pair up")
    seen = {key[0] for key in flush}
    missing = [d for d in EXPECTED_DESIGNS if d not in seen]
    if missing:
        fail(f"missing designs: {', '.join(missing)}")

    for key, flush_record in flush.items():
        asid_config = asid[key].get("config", {})
        if flush_record.get("config", {}).get("seed") != asid_config.get(
            "seed"
        ):
            fail(f"{key}: paired policies ran with different seeds")

    for design in EXPECTED_DESIGNS:
        keys = [k for k in flush if k[0] == design]
        flush_mean = sum(
            flush[k]["metrics"]["l1_miss_rate"] for k in keys
        ) / len(keys)
        asid_mean = sum(
            asid[k]["metrics"]["l1_miss_rate"] for k in keys
        ) / len(keys)
        if not asid_mean < flush_mean:
            fail(
                f"{design}: mean ASID-tagged L1 miss rate "
                f"({asid_mean:.6f}) not below full-flush "
                f"({flush_mean:.6f})"
            )
        print(
            f"check_perf: {design}: mean L1 miss "
            f"{flush_mean:.4%} (flush) -> {asid_mean:.4%} (asid)"
        )

    print(
        f"check_perf: OK: {len(results)} multiprog points, "
        f"{len(flush)} policy pairs across "
        f"{len(EXPECTED_DESIGNS)} designs"
    )


def check_google_benchmark(report: dict) -> None:
    benchmarks = report.get("benchmarks", [])
    if not benchmarks:
        fail("google-benchmark report has no benchmarks")
    for bench in benchmarks:
        name = bench.get("name", "<unnamed>")
        if bench.get("error_occurred"):
            fail(f"{name}: {bench.get('error_message', 'error')}")
        if bench.get("skipped"):
            fail(f"{name}: skipped ({bench.get('skip_message', '')})")
        for key in ("real_time", "cpu_time"):
            if bench.get(key, 0) <= 0:
                fail(f"{name}: {key} is {bench.get(key)!r}")
    print(
        f"check_perf: OK: {len(benchmarks)} microbenchmarks measured"
    )


def report_kind(report: dict) -> str:
    if "benchmarks" in report and "context" in report:
        return "google-benchmark"
    return report.get("benchmark", "")


def main() -> None:
    argv = sys.argv[1:]
    if len(argv) != 1:
        fail("usage: check_perf.py <report.json>")
    with open(argv[0], encoding="utf-8") as handle:
        report = json.load(handle)

    kind = report_kind(report)
    if kind == "multiprog":
        check_multiprog(report)
    elif kind == "google-benchmark":
        check_google_benchmark(report)
    else:
        fail(f"unknown benchmark kind {kind!r}")


if __name__ == "__main__":
    main()
