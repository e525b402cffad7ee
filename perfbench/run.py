#!/usr/bin/env python3
"""Repo benchmark: builds the simulator and the harness, runs one workload,
checks it and prints every metric.

    python3 perfbench/run.py --workload prim_suite|nw_fine|kv_zipf \
        --seed N --seconds S --trace 0|1 [--env KEY=VALUE ...]

Run from the repository root. The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. The lines
before it print every metric by name with its unit and whether it is host
or simulated time, plus the run manifest. Any failed check prints a
message naming the workload and item on stderr and exits 1.

Metric definitions and the reason for each workload: perfbench/METRICS.md.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD_DIR, "perfbench_harness")
WORKLOADS = ("prim_suite", "nw_fine", "kv_zipf")

# Host threads for every measured run, capped at the CPUs available.
PINNED_THREADS = 2
# Knobs that change what the program does; measured runs unset them.
UNSET_ENV = ("VPIM_DEPTH", "VPIM_NO_AVX2", "VPIM_NO_AVX512",
             "VPIM_COST_PERTURB", "VPIM_THREADS")
# Largest untimed share of run_s the host-time closure tolerates.
CLOSURE_RESIDUAL = 0.01
# Simulated values are medians over the first SIM_PASSES measured passes.
# Their seeds follow from --seed alone, so a seed gives the same simulated
# metrics however many passes the machine gets through in --seconds.
SIM_PASSES = 5

# name -> (unit, kind). kind says what the number is: host time, simulated
# time, a program counter, or memory. Host values are medians over the
# run's measured passes, simulated values and counters medians over the
# first SIM_PASSES of them; the traced-pass layers and peak memory are
# single readings.
END_TO_END = {
    "run_s": ("s", "host"),
    "setup_s": ("s", "host"),
    "wall_s": ("s", "host"),
    "peak_rss_mb": ("MB", "memory"),
    "sim_s": ("sim_s", "simulated"),
    "vpim_overhead": ("ratio", "simulated"),
    "goodput_per_s": ("1/sim_s", "simulated"),
    "p50_ms": ("sim_ms", "simulated"),
    "p99_ms": ("sim_ms", "simulated"),
    "ok_ratio": ("ratio", "counter"),
}
HOST_LAYER = [
    "device.launch_host_s", "device.load_host_s", "device.write_host_s",
    "device.read_host_s", "device.broadcast_host_s", "device.symbol_host_s",
    "vpim.stack_host_s", "prim.self_host_s", "manager.alloc_host_s",
    "manager.release_host_s", "setup.host_build_s", "setup.vm_boot_s",
    "teardown.host_s", "kv.execute_host_s", "kv.loadgen_s", "kv.preload_s",
    "bench.scaffold_s",
]
COUNT_LAYER = [
    "device.launch_calls", "device.load_calls", "device.write_calls",
    "device.read_calls", "device.broadcast_calls", "device.symbol_calls",
    "manager.alloc_calls", "manager.allocations", "manager.resets",
    "frontend.vmexits", "frontend.messages", "virtio.doorbells",
    "kv.cycles", "kv.rebalances", "kv.device_errors",
]
RATIO_LAYER = [
    "frontend.prefetch_hit_ratio", "frontend.batch_absorb_ratio",
    "virtio.vmexits_per_message", "kv.cache_hit_ratio", "kv.ops_per_cycle",
]
TRACED_LAYERS = ("frontend", "wire", "virtio", "backend", "driver", "rank",
                 "kv")


def per_layer_spec():
    spec = {}
    for name in HOST_LAYER:
        spec[name] = ("s", "host")
    spec["kv.host_us_per_op"] = ("us", "host")
    for name in ("device.write_mb", "device.read_mb"):
        spec[name] = ("MB", "counter")
    for name in COUNT_LAYER:
        spec[name] = ("count", "counter")
    for name in RATIO_LAYER:
        spec[name] = ("ratio", "counter")
    for layer in TRACED_LAYERS:
        spec[layer + ".sim_self_s"] = ("sim_s", "simulated")
        spec[layer + ".spans"] = ("count", "counter")
    spec["obs.trace_overhead_ratio"] = ("ratio", "host")
    return spec


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources not found under %s/src; run from the "
             "repository root" % ROOT, 2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "perfbench_harness"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))


def source_digest():
    """Content hash of src/ (the checkout need not be a git repository)."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() or "none"


def run_harness(args, env):
    cmd = [HARNESS, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--min-passes", str(args.min_passes)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        fail("%s: harness did not finish within 170 s" % args.workload)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        fail("%s: harness exited with code %d" % (args.workload,
                                                   proc.returncode))
    records = [json.loads(line) for line in proc.stdout.splitlines()
               if line.startswith("{")]
    manifest = next(r for r in records if r["type"] == "manifest")
    passes = [r for r in records if r["type"] == "pass"]
    end = next(r for r in records if r["type"] == "end")
    return manifest, passes, end


def check(workload, passes):
    """Every correctness and closure check; returns failure messages."""
    problems = []
    for p in passes:
        tag = "%s seed %s%s" % (workload, p["seed"],
                                " (traced)" if p["traced"] else
                                " (warm-up)" if p["warmup"] else "")
        problems += ["%s: %s" % (tag, e) for e in p["errors"]]
        if p["failed"] and not p["errors"]:
            problems.append("%s: %d failed items" % (tag, p["failed"]))
        h, s = p["host"], p["sim"]
        if not p["traced"]:
            # The timed segments of the run region must fill run_s.
            residual = abs(h["bench.residual_s"])
            if residual > CLOSURE_RESIDUAL * h["run_s"]:
                problems.append(
                    "%s: host closure residual %.4f s exceeds %.0f%% of "
                    "run_s %.4f s" % (tag, residual, 100 * CLOSURE_RESIDUAL,
                                      h["run_s"]))
            # Inside the app segment, prim.self_host_s is the remainder of
            # the device and manager layers; a negative remainder means a
            # decorator counted one interval twice. vpim.stack_host_s is a
            # difference of two measurements and may legitimately be < 0.
            for name in HOST_LAYER:
                if h[name] < 0 and name != "vpim.stack_host_s":
                    problems.append("%s: %s is negative (%.6f s): layers "
                                    "double count" % (tag, name, h[name]))
        if s["bench.matched_items"] != s["bench.vpim_items"]:
            problems.append("%s: only %d of %d vPIM items have a native "
                            "twin" % (tag, s["bench.matched_items"],
                                      s["bench.vpim_items"]))
        if "layers" in p and p["layers"]["obs.self_minus_root_ns"] != 0:
            problems.append(
                "%s: layer self times miss the root-span total by %d ns" %
                (tag, p["layers"]["obs.self_minus_root_ns"]))
    # Passes of one seed (warm-up, first measured, traced) must agree on
    # every simulated result and counter.
    by_seed = {}
    for p in passes:
        by_seed.setdefault(p["seed"], []).append(p)
    for seed, group in by_seed.items():
        first = group[0]["sim"]
        for p in group[1:]:
            diff = sorted(k for k in set(first) | set(p["sim"])
                          if first.get(k) != p["sim"].get(k))
            if diff:
                problems.append(
                    "%s seed %s: simulated results differ between repeated "
                    "%s passes in %s" % (
                        workload, seed,
                        "traced and untraced" if p["traced"] else "untraced",
                        ", ".join(diff)))
    return problems


def aggregate(passes, end):
    """Medians over the measured passes, plus the traced pass's layers."""
    measured = [p for p in passes if not p["traced"] and not p["warmup"]]
    traced = [p for p in passes if p["traced"]]
    values = {}
    for source, group in (("host", measured), ("sim", measured[:SIM_PASSES])):
        for name, v in group[0][source].items():
            if isinstance(v, (int, float)):
                values[name] = statistics.median(p[source][name]
                                                 for p in group)
    attempted = sum(int(p["attempted"]) for p in passes)
    failed = sum(int(p["failed"]) for p in passes)
    values["ok_ratio"] = (attempted - failed) / attempted
    values["peak_rss_mb"] = end["peak_rss_mb"]
    if traced:
        values.update(traced[0]["layers"])
        values["obs.trace_overhead_ratio"] = (traced[0]["host"]["run_s"] /
                                              values["run_s"])
    return values, attempted, failed, len(measured)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--min-passes", type=int, default=SIM_PASSES)
    ap.add_argument("--env", action="append", default=[],
                    metavar="KEY=VALUE",
                    help="set a program knob for this run (teeth checks)")
    args = ap.parse_args()

    build()
    env = {k: v for k, v in os.environ.items() if k not in UNSET_ENV}
    nproc = len(os.sched_getaffinity(0))
    env["VPIM_THREADS"] = str(min(PINNED_THREADS, nproc))
    for kv in args.env:
        key, _, value = kv.partition("=")
        env[key] = value

    manifest, passes, end = run_harness(args, env)
    values, attempted, failed, measured = aggregate(passes, end)
    manifest.update({
        "git_sha": git_sha(),
        "src_digest": source_digest(),
        "vpim_threads": env["VPIM_THREADS"],
        "env": sorted(args.env),
        "passes": measured,
    })
    print("manifest " + json.dumps(manifest, sort_keys=True))
    print("values " + json.dumps(values, sort_keys=True))

    spec = END_TO_END if args.trace == 0 else per_layer_spec()
    metrics = {}
    print("%-30s %18s %-8s %s" % ("metric", "value", "unit", "kind"))
    for name, (unit, kind) in spec.items():
        metrics[name] = {"value": values[name], "unit": unit}
        print("%-30s %18.6f %-8s %s" % (name, values[name], unit, kind))
    if args.trace == 1:
        print("closure: untimed run region %.6f s of run_s %.4f s; layer sim "
              "self times sum to the root total %.6f sim_s" % (
                  values["bench.residual_s"], values["run_s"],
                  values["obs.root_total_s"]))

    problems = check(args.workload, passes)
    for msg in problems:
        print("perfbench: FAIL " + msg, file=sys.stderr)
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
