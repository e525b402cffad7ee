#!/usr/bin/env python3
"""Teeth check: shows the benchmark measures the program, using only the
program's existing knobs.

    python3 perfbench/teeth.py [--seed N]

Predictions checked (see perfbench/METRICS.md, "Teeth check"):
  cost     VPIM_COST_PERTURB=1.01 moves sim_s on every workload (same
           seed, so the simulated numbers are exact on both sides), and
           on each workload at least one end-to-end metric moves beyond
           its BENCHMARK.json bound.
  threads  VPIM_THREADS=1 against the pinned count moves run_s on
           prim_suite and kv_zipf in opposite directions, beyond the run_s
           bound, and device.launch_host_s / kv.execute_host_s carry the
           largest share of each difference of any host layer.
  avx2     VPIM_NO_AVX2=1 moves device.write_host_s + device.read_host_s
           up on prim_suite and leaves every kv_zipf end-to-end metric
           within its bound.
Host-time checks alternate baseline and knob runs in PAIRS pairs of
run_seconds each (from BENCHMARK.json) and compare medians. Exits 1 when
any prediction fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Baseline/knob run pairs behind each host-time check.
PAIRS = 3
# Smallest change of sim_s that counts as moved by a 1% cost perturbation.
COST_MIN_MOVE = 0.005
# Smallest rise of the bulk-transfer host time that counts as moved.
AVX2_MIN_RISE = 0.05
# The host layers that partition run_s (see METRICS.md, closure).
RUN_LAYERS = ("device.launch_host_s", "device.load_host_s",
              "device.write_host_s", "device.read_host_s",
              "device.broadcast_host_s", "device.symbol_host_s",
              "manager.alloc_host_s", "manager.release_host_s",
              "prim.self_host_s", "kv.execute_host_s", "bench.scaffold_s")


def run_once(workload, seed, seconds, env=(), min_passes=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    if min_passes is not None:
        cmd += ["--min-passes", str(min_passes)]
    for e in env:
        cmd += ["--env", e]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-3000:])
        sys.exit("teeth: run failed: " + " ".join(cmd))
    for line in proc.stdout.splitlines():
        if line.startswith("values "):
            return json.loads(line[len("values "):])
    sys.exit("teeth: no values line from " + " ".join(cmd))


def paired(workload, seed, seconds, env):
    """Alternates baseline and knob runs; returns per-metric medians."""
    base, knob = [], []
    for i in range(PAIRS):
        order = [(base, ()), (knob, env)]
        if i % 2:
            order.reverse()
        for sink, e in order:
            sink.append(run_once(workload, seed + i, seconds, e))
    return tuple({k: statistics.median(r[k] for r in runs) for k in runs[0]}
                 for runs in (base, knob))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    ok = True

    def verdict(passed, text):
        nonlocal ok
        ok = ok and passed
        print("%s  %s" % ("PASS" if passed else "FAIL", text), flush=True)

    for w in ("prim_suite", "nw_fine", "kv_zipf"):
        base = run_once(w, args.seed, 0, min_passes=1)
        pert = run_once(w, args.seed, 0, ("VPIM_COST_PERTURB=1.01",),
                        min_passes=1)
        change = pert["sim_s"] / base["sim_s"] - 1
        # The simulated end-to-end metrics the perturbation moves beyond
        # their bounds; a cost check no bound notices does not pass.
        beyond = []
        for name in ("sim_s", "p50_ms", "p99_ms", "goodput_per_s"):
            m = bounds[name]
            moved = pert[name] / base[name] - 1
            worse = moved if m["better"] == "lower" else -moved
            if worse > m["bound"]:
                beyond.append("%s %+.2f%%" % (name, 100 * moved))
        verdict(change >= COST_MIN_MOVE and bool(beyond),
                "cost/%s: sim_s %.6f -> %.6f (%+.3f%%, needs >= %.1f%%); "
                "beyond their bounds: %s" % (
                    w, base["sim_s"], pert["sim_s"], 100 * change,
                    100 * COST_MIN_MOVE, ", ".join(beyond) or "none"))

    b = bounds["run_s"]["bound"]
    for w, layer, sign in (("prim_suite", "device.launch_host_s", 1),
                           ("kv_zipf", "kv.execute_host_s", -1)):
        base, t1 = paired(w, args.seed, seconds, ("VPIM_THREADS=1",))
        d_run = t1["run_s"] - base["run_s"]
        shares = {k: (t1[k] - base[k]) / d_run if d_run else 0.0
                  for k in RUN_LAYERS}
        top = max(shares, key=shares.get)
        verdict(sign * d_run > b * base["run_s"] and top == layer,
                "threads/%s: run_s %.3f -> %.3f s at VPIM_THREADS=1 "
                "(%+.1f%%, predicted %s beyond %.0f%%); %s carries "
                "%.0f%% of it, largest share: %s" % (
                    w, base["run_s"], t1["run_s"],
                    100 * d_run / base["run_s"],
                    "up" if sign > 0 else "down", 100 * b, layer,
                    100 * shares[layer], top))

    base, scalar = paired("prim_suite", args.seed, seconds,
                          ("VPIM_NO_AVX2=1",))

    def bulk(v):
        return v["device.write_host_s"] + v["device.read_host_s"]

    rise = bulk(scalar) / bulk(base) - 1
    verdict(rise > AVX2_MIN_RISE,
            "avx2/prim_suite: device write+read host %.3f -> %.3f s "
            "with VPIM_NO_AVX2=1 (%+.1f%%, needs > %.0f%%)" % (
                bulk(base), bulk(scalar), 100 * rise,
                100 * AVX2_MIN_RISE))
    base, scalar = paired("kv_zipf", args.seed, seconds,
                          ("VPIM_NO_AVX2=1",))
    for name, m in bounds.items():
        change = scalar[name] / base[name] - 1 if base[name] else 0.0
        worse = change if m["better"] == "lower" else -change
        verdict(worse <= m["bound"],
                "avx2/kv_zipf: %s %.6g -> %.6g (%+.2f%%, bound %.1f%%)"
                % (name, base[name], scalar[name], 100 * change,
                   100 * m["bound"]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
