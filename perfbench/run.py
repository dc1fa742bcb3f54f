#!/usr/bin/env python3
"""The mixtlb benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record [--workload NAME]

Run from the repository root. The first call builds perfbench (the
program in perfbench/src, linked against the mixtlb libraries built from
this checkout's sources) into .bench_build/. Then it runs the workload
for S seconds of repeated, identical units of work, checks every
configuration's modeled values against perfbench/expected/, and prints
each metric by name and unit. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics (BENCHMARK.json "end_to_end");
--trace 1 runs untraced and traced units in turn and reports the
per-layer metrics ("per_layer"). The full result, with the host
fingerprint, goes to .bench_build/results/; traced spans go to
.bench_build/spans/.

--record re-runs one unit per recorded seed and rewrites
perfbench/expected/<workload>.json. Only do that when a change is meant
to move modeled results, and say so where the change is described.

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench", "perfbench")
EXPECTED = os.path.join(HERE, "expected")

WORKLOADS = ("resident", "walk-heavy", "multiprog", "fig14-sweep")
# The seed development runs used, and a held-out seed for confirming a
# later claim on data it was not tuned on. Both, plus 0..31 so common
# seeds need no extra check unit, have recorded modeled values.
PRIMARY_SEED = 1
HELD_OUT_SEED = 9001
RECORDED_SEEDS = list(range(0, 32)) + [HELD_OUT_SEED]
# Modeled values recorded per configuration (others are still reported).
CHECKED = ("refs", "translation_cycles", "walks", "l1_hits", "l2_hits",
           "l1d_misses", "l2_misses", "llc_misses", "total_cycles",
           "faults", "thp_fallbacks", "context_switches", "full_flushes")
# fig14-sweep's sweep workers: fixed at 3 unless the host has fewer
# CPUs, so wall_s compares across hosts with at least 3. The native
# units run on one thread. Fewer threads than CPUs keep the measured
# work from contending with itself (README.md, "Host noise").
SWEEP_JOBS = min(3, os.cpu_count() or 1)
# The native units' host times are scaled to a host running the LRU
# probe kernel (src/probe.hh) at this rate, in Mops/s (about its median
# on the development host), by the probes taken before each of their
# configurations: their time tracks that kernel's across the host's
# slow and fast phases. fig14-sweep's, spent mostly building machines and
# first-touching their memory on 3 threads, does not, so it is reported
# as measured (README.md, "Host noise").
REFERENCE_LRU_MOPS = 50.0
SCALED = ("resident", "walk-heavy", "multiprog")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

DESIGNS = ("split", "mix", "mix_colt", "hash_rehash", "skew")

END_TO_END = {
    "refs_per_s": "1/s",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "xlat_cycles_per_ref": "cycles",
    "cycles_per_ref": "cycles",
    "ok_frac": "ratio",
}


def per_layer_units():
    """Every per-layer metric name and its unit, in report order."""
    units = {}
    units["workload.gen_ns_per_ref"] = "ns"
    for base, unit in (
        ("tlb.self_ns_per_ref", "ns"),
        ("tlb.l1_hit_rate", "ratio"),
        ("tlb.l2_hit_rate", "ratio"),
        ("tlb.fills_per_kref", "count/kref"),
    ):
        units[base] = unit
        for design in DESIGNS:
            units[f"{base}.{design}"] = unit
    units["tlb.invalidations_per_kref"] = "count/kref"
    units["pt.walk_ns"] = "ns"
    units["pt.walks_per_kref"] = "count/kref"
    for design in DESIGNS:
        units[f"pt.walks_per_kref.{design}"] = "count/kref"
    units["pt.accesses_per_walk"] = "count"
    units["cache.data_ns_per_ref"] = "ns"
    units["cache.llc_hit_rate"] = "ratio"
    units["cache.walk_accesses_per_kref"] = "count/kref"
    units["os.fault_ns"] = "ns"
    units["os.faults"] = "count"
    units["os.thp_fallbacks"] = "count"
    units["sim.construct_s"] = "s"
    units["sim.warmup_s"] = "s"
    units["sim.loop_ns_per_ref"] = "ns"
    units["sim.switches_per_kref"] = "count/kref"
    units["sim.full_flushes"] = "count"
    units["virt.setup_s"] = "s"
    units["virt.walks_per_kref"] = "count/kref"
    units["virt.accesses_per_walk"] = "count"
    units["gpu.run_s"] = "s"
    units["sweep.point_s_p50"] = "s"
    units["sweep.point_s_max"] = "s"
    units["sweep.busy_frac"] = "ratio"
    units["trace.overhead_frac"] = "ratio"
    units["trace.covered_frac"] = "ratio"
    return units


PER_LAYER = per_layer_units()


def log(message):
    print(message, file=sys.stderr, flush=True)


# --- build -----------------------------------------------------------


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("perfbench: no mixtlb sources next to perfbench/; "
            "run from a full checkout")
        sys.exit(2)
    tree = os.path.join(BUILD, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(tree, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", tree,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", tree, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            log(f"perfbench: build step failed: {' '.join(step)}")
            sys.exit(1)


def run_binary(workload, seed, seconds, trace, units=0, check_seed=None):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--jobs", str(SWEEP_JOBS)]
    if units:
        cmd += ["--units", str(units)]
    if check_seed is not None:
        cmd += ["--check-seed", str(check_seed)]
    if trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans",
                os.path.join(spans, f"{workload}-seed{seed}.jsonl")]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S, check=False)
    if done.returncode != 0:
        log(f"perfbench: {' '.join(cmd)} exited {done.returncode}")
        sys.exit(1)
    return json.loads(done.stdout.strip().splitlines()[-1])


# --- modeled-value checks --------------------------------------------


def load_expected(workload):
    """{seed: {"<config>.<field>": value}} from perfbench/expected/."""
    path = os.path.join(EXPECTED, f"{workload}.json")
    if not os.path.isfile(path):
        return {}
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    return {seed: dict(zip(doc["keys"], values))
            for seed, values in doc["seeds"].items()}


def flatten(configs):
    return {f"{config}.{field}": value
            for config, values in configs.items()
            for field, value in values.items() if field in CHECKED}


def same(a, b):
    return a == b or abs(a - b) <= 1e-12 * max(abs(a), abs(b))


class Checker:
    """Counts configuration runs and the ones that failed."""

    def __init__(self, workload, expected):
        self.workload = workload
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def fail(self, reason):
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(reason)
        log(f"perfbench: FAILED {self.workload}: {reason}")

    def unit(self, unit, seed, what):
        """Check one unit; returns True when every configuration held."""
        before = self.failed
        if "error" in unit:
            self.attempted += 1
            self.fail(f"{what} seed {seed}: {unit['error']}")
            return False
        for point in unit.get("points", []):
            if not point["ok"]:
                self.attempted += 1
                self.fail(f"{what} seed {seed}: point {point['label']} "
                          f"quarantined ({point.get('error', '')})")
        got = flatten(unit["configs"])
        want = self.expected.get(str(seed))
        for label in unit["dumps"]:
            self.attempted += 1
            if want is None:
                continue
            mine = lambda key: key.startswith(label + "/") or \
                key.startswith(label + ".")  # noqa: E731
            moved = [f"{key}: recorded {want.get(key)} now {got.get(key)}"
                     for key in sorted({k for k in got if mine(k)}
                                       | {k for k in want if mine(k)})
                     if key not in got or key not in want
                     or not same(got[key], want[key])]
            if moved:
                self.fail(f"{what} seed {seed}: modeled value moved: "
                          + "; ".join(moved[:4]))
        return self.failed == before

    def repeatable(self, units, seed):
        """Every unit of a run models the same thing: compare them."""
        good = [flatten(u["configs"]) for u in units if "error" not in u]
        for i, flat in enumerate(good[1:], start=2):
            self.attempted += 1
            if flat != good[0]:
                self.fail(f"seed {seed}: unit {i} of the run modeled "
                          "different values than unit 1")

    def same_program(self, plain, traced, seed):
        """The traced unit's stat dumps must equal the untraced ones."""
        if "dumps" not in plain or "dumps" not in traced:
            return
        for label, digest in plain["dumps"].items():
            self.attempted += 1
            if traced["dumps"].get(label) != digest:
                self.fail(f"seed {seed}: traced stat dump of {label} "
                          "differs from the untraced one")


# --- metrics -----------------------------------------------------------


def base_label(key, dumps):
    return key if key in dumps else key.rsplit("/", 1)[0]


def design_of(label):
    return label.rsplit("/", 1)[-1].replace("+", "_").replace("-", "_")


def modeled_totals(unit, keep=lambda label: True):
    """Sum the modeled counters of the unit's configurations."""
    tot = {}
    for key, values in unit["configs"].items():
        label = base_label(key, unit["dumps"])
        if not keep(label):
            continue
        for name, value in values.items():
            tot[name] = tot.get(name, 0.0) + value
    return tot


def ratio(num, den):
    return num / den if den else 0.0


def unit_timings(unit, scaled):
    """A unit's host timings, scaled to the reference host speed by the
    probes taken before its configurations when `scaled` (README.md,
    "Host noise")."""
    t = unit["timing"]
    speed = t["lru_mops"] / REFERENCE_LRU_MOPS if scaled else 1.0
    return {"rate": t["refs"] / t["measure_s"] / speed,
            "wall": t["wall_s"] * speed, "setup": t["setup_s"] * speed}


def end_to_end(units, peak_rss_kb, ok_frac, scaled):
    """The end-to-end metrics; host times are medians over the units."""
    good = [unit_timings(u, scaled) for u in units if "error" not in u]
    if not good:
        return None
    first = next(u for u in units if "error" not in u)
    tot = modeled_totals(first)
    return {
        "refs_per_s": statistics.median(u["rate"] for u in good),
        "wall_s": statistics.median(u["wall"] for u in good),
        "setup_s": statistics.median(u["setup"] for u in good),
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "xlat_cycles_per_ref": ratio(tot["translation_cycles"],
                                     tot["refs"]),
        "cycles_per_ref": ratio(tot["total_cycles"], tot["refs"]),
        "ok_frac": ok_frac,
    }


def layer_metrics(pair, jobs):
    """Per-layer metrics of one untraced/traced pair."""
    plain, traced, rows = pair["plain"], pair["traced"], pair["layers"]
    dumps = traced["dumps"]
    refs = {}
    for key, values in traced["configs"].items():
        if "refs" in values:
            label = base_label(key, dumps)
            refs[label] = refs.get(label, 0.0) + values["refs"]

    def rows_where(layer=None, name=None, phase=None, design=None):
        for r in rows:
            if layer and r["name"].split(".")[0] != layer:
                continue
            if name and r["name"] != name:
                continue
            if phase and r["phase"] != phase:
                continue
            if design and design_of(r["config"]) != design:
                continue
            yield r

    def sum_of(it, field):
        return sum(r[field] for r in it)

    def per_ref(it, field):
        """Summed `field` per reference of the rows' configurations."""
        it = list(it)
        configs = {r["config"] for r in it}
        return ratio(sum_of(it, field),
                     sum(refs.get(c, 0.0) for c in configs))

    m = {name: 0.0 for name in PER_LAYER}
    m["workload.gen_ns_per_ref"] = per_ref(
        rows_where("workload", phase="measure"), "self_ns")
    m["tlb.self_ns_per_ref"] = per_ref(rows_where("tlb", phase="measure"),
                                       "self_ns")
    walk = list(rows_where(name="pt.walk", phase="measure"))
    m["pt.walk_ns"] = ratio(sum_of(walk, "busy_ns"), sum_of(walk, "calls"))
    m["cache.data_ns_per_ref"] = per_ref(
        rows_where(name="cache.access", phase="measure"), "busy_ns")
    fault = list(rows_where(name="os.fault"))
    m["os.fault_ns"] = ratio(sum_of(fault, "busy_ns"),
                             sum_of(fault, "calls"))
    m["sim.construct_s"] = sum_of(rows_where(name="sim.construct"),
                                  "busy_ns") / 1e9
    m["sim.warmup_s"] = sum_of(rows_where(name="sim.warmup"),
                               "busy_ns") / 1e9
    m["sim.loop_ns_per_ref"] = per_ref(
        rows_where(name="sim.run", phase="measure"), "self_ns")
    m["virt.setup_s"] = (
        sum_of(rows_where(name="virt.construct"), "busy_ns")
        + sum_of(rows_where(name="virt.warmup"), "busy_ns")) / 1e9
    m["gpu.run_s"] = sum_of(rows_where(name="gpu.run"), "busy_ns") / 1e9

    def counters(keep):
        return modeled_totals(traced, keep)

    def tlb_rates(suffix, tot):
        m["tlb.l1_hit_rate" + suffix] = ratio(tot.get("l1_hits", 0),
                                              tot.get("refs", 0))
        m["tlb.l2_hit_rate" + suffix] = ratio(
            tot.get("l2_hits", 0), tot.get("refs", 0) - tot.get("l1_hits", 0))
        m["tlb.fills_per_kref" + suffix] = 1000 * ratio(
            tot.get("l1_fills", 0) + tot.get("l2_fills", 0),
            tot.get("refs", 0))

    is_virt = lambda label: label.startswith("virt/")  # noqa: E731
    every = counters(lambda label: True)
    tlb_rates("", every)
    native = counters(lambda label: not is_virt(label))
    for design in DESIGNS:
        tot = counters(lambda label, d=design: design_of(label) == d
                       and not is_virt(label))
        if tot.get("refs"):
            tlb_rates("." + design, tot)
            m["pt.walks_per_kref." + design] = 1000 * ratio(
                tot["walks"], tot["refs"])
            m["tlb.self_ns_per_ref." + design] = per_ref(
                rows_where("tlb", phase="measure", design=design),
                "self_ns")
    m["tlb.invalidations_per_kref"] = 1000 * ratio(
        every.get("invalidations", 0), every.get("refs", 0))
    m["pt.walks_per_kref"] = 1000 * ratio(native.get("walks", 0),
                                          native.get("refs", 0))
    m["pt.accesses_per_walk"] = ratio(native.get("walk_accesses", 0),
                                      native.get("walks", 0))
    m["cache.llc_hit_rate"] = ratio(
        every.get("llc_hits", 0),
        every.get("llc_hits", 0) + every.get("llc_misses", 0))
    m["cache.walk_accesses_per_kref"] = 1000 * ratio(
        every.get("walk_accesses", 0), every.get("refs", 0))
    m["os.faults"] = every.get("faults", 0)
    m["os.thp_fallbacks"] = every.get("thp_fallbacks", 0)
    m["sim.switches_per_kref"] = 1000 * ratio(
        every.get("context_switches", 0), every.get("refs", 0))
    m["sim.full_flushes"] = every.get("full_flushes", 0)
    virt = counters(is_virt)
    m["virt.walks_per_kref"] = 1000 * ratio(virt.get("walks", 0),
                                            virt.get("refs", 0))
    m["virt.accesses_per_walk"] = ratio(virt.get("walk_accesses", 0),
                                        virt.get("walks", 0))

    threads = 1
    points = [p["wall_s"] for p in traced.get("points", []) if p["ok"]]
    if points:
        threads = jobs
        m["sweep.point_s_p50"] = statistics.median(points)
        m["sweep.point_s_max"] = max(points)
    traced_wall = traced["timing"]["wall_s"]
    if points:
        m["sweep.busy_frac"] = sum(points) / (jobs * traced_wall)
    m["trace.overhead_frac"] = traced_wall / plain["timing"]["wall_s"] - 1.0
    m["trace.covered_frac"] = (sum_of(rows, "self_ns") / 1e9
                               / (threads * traced_wall))
    return m


# --- host fingerprint ---------------------------------------------------


def fingerprint(report):
    def read(path):
        try:
            with open(path, encoding="utf-8") as f:
                return f.read().strip()
        except OSError:
            return "unknown"

    # Medians of the fixed host-speed kernels (src/probe.hh), in Mops/s.
    probed = [u["host_probe"] for u in report.get("units", [])]
    probe = {kernel: statistics.median(p[kernel] for p in probed)
             for kernel in ("alu", "rmw", "lru")} if probed else None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False).stdout.strip()
    except OSError:
        commit = ""
    return {
        "cpu_model": report.get("cpu_model", "unknown"),
        "nproc": os.cpu_count(),
        "compiler": report["compiler"],
        "flags": report["flags"],
        "build_type": report["build_type"],
        "simd_kernel": report["kernel"],
        "thp_mode": read("/sys/kernel/mm/transparent_hugepage/enabled"),
        "git_commit": commit or "unknown (not a git checkout)",
        "host_probe": probe,
    }


# --- entry points -------------------------------------------------------


def record(workloads):
    for workload in workloads:
        flat = {}
        for seed in RECORDED_SEEDS:
            report = run_binary(workload, seed, 1, 0, units=1)
            unit = report["units"][0]
            if "error" in unit or any(
                    not p["ok"] for p in unit.get("points", [])):
                log(f"perfbench: cannot record {workload} seed {seed}")
                sys.exit(1)
            flat[seed] = flatten(unit["configs"])
            log(f"recorded {workload} seed {seed}")
        keys = sorted(flat[PRIMARY_SEED])
        os.makedirs(EXPECTED, exist_ok=True)
        path = os.path.join(EXPECTED, f"{workload}.json")
        with open(path, "w", encoding="utf-8") as f:
            # One line per seed keeps a re-recording's diff readable.
            f.write("{\n")
            for key, value in (("workload", workload),
                               ("primary_seed", PRIMARY_SEED),
                               ("held_out_seed", HELD_OUT_SEED),
                               ("keys", keys)):
                f.write(f" {json.dumps(key)}: {json.dumps(value)},\n")
            f.write(' "seeds": {\n')
            lines = [f"  {json.dumps(str(seed))}: "
                     f"{json.dumps([flat[seed][k] for k in keys])}"
                     for seed in RECORDED_SEEDS]
            f.write(",\n".join(lines))
            f.write("\n }\n}\n")


def measure(args):
    expected = load_expected(args.workload)
    if not expected:
        log(f"perfbench: no recorded values for {args.workload}")
        sys.exit(1)
    check_seed = None if str(args.seed) in expected else PRIMARY_SEED
    start = time.monotonic()
    report = run_binary(args.workload, args.seed, args.seconds, args.trace,
                        check_seed=check_seed)
    checker = Checker(args.workload, expected)

    if args.trace:
        plain_units = [p["plain"] for p in report["pairs"]]
        traced_units = [p["traced"] for p in report["pairs"]]
        ok = [checker.unit(p["plain"], args.seed, "untraced unit")
              & checker.unit(p["traced"], args.seed, "traced unit")
              for p in report["pairs"]]
        for pair in report["pairs"]:
            checker.same_program(pair["plain"], pair["traced"], args.seed)
        checker.repeatable(plain_units + traced_units, args.seed)
    else:
        plain_units = report["units"]
        traced_units = []
        for unit in plain_units:
            checker.unit(unit, args.seed, "unit")
        checker.repeatable(plain_units, args.seed)
    if check_seed is not None:
        checker.unit(report["check"], check_seed, "check unit")
    ok_frac = 1.0 - ratio(checker.failed, checker.attempted)

    if args.trace:
        per_pair = [layer_metrics(p, SWEEP_JOBS)
                    for p, good in zip(report["pairs"], ok) if good]
        metrics = ({name: statistics.median(m[name] for m in per_pair)
                    for name in PER_LAYER} if per_pair else None)
        units = PER_LAYER
        raw = None
    else:
        scaled = args.workload in SCALED
        metrics = end_to_end(plain_units, report["peak_rss_kb"], ok_frac,
                             scaled)
        raw = end_to_end(plain_units, report["peak_rss_kb"], ok_frac,
                         False)
        units = END_TO_END
    correct = checker.failed == 0 and metrics is not None
    if metrics is None:
        metrics = {name: 0.0 for name in units}

    host = fingerprint(report)
    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(plain_units)} untraced and {len(traced_units)} traced "
          f"units in {time.monotonic() - start:.1f} s")
    print("host: " + json.dumps(host, sort_keys=True))
    if args.trace:
        print("trace: " + report["trace_note"])
    elif scaled:
        lru = statistics.median(u["timing"]["lru_mops"]
                                for u in plain_units if "timing" in u)
        print("host times below are scaled to a host running the LRU "
              f"probe at {REFERENCE_LRU_MOPS:g} Mops/s (this run's median: "
              f"{lru:.1f}); as measured in brackets")
    for name, unit in units.items():
        line = f"  {name:34s} {metrics[name]:16.6g} {unit}"
        if raw and raw[name] != metrics[name]:
            line += f"  [{raw[name]:.6g}]"
        print(line)
    if checker.reasons:
        print("failures: " + "; ".join(checker.reasons))

    result = {
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    detail = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, seconds=args.seconds, host=host,
                  measured=raw, failures=checker.reasons, report=report)
    path = os.path.join(
        results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(detail, f)
    print(json.dumps(result))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="re-record perfbench/expected/ (see above)")
    args = parser.parse_args()
    if args.record:
        build()
        record([args.workload] if args.workload else WORKLOADS)
        return
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    build()
    measure(args)


if __name__ == "__main__":
    main()
