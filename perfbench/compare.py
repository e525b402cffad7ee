#!/usr/bin/env python3
"""Compares two sets of saved benchmark outputs.

    python3 perfbench/compare.py --base a1.txt a2.txt ... --head b1.txt ...

Each file is the standard output of one perfbench/run.py run. For every
workload and metric the script prints the median of each side, the change
and, for end-to-end metrics, whether the change is within the bound fixed
in BENCHMARK.json.

Host metrics are compared only between like runs: when any manifest field
that describes the machine or the build (CPU model, nproc, VPIM_THREADS,
interleave tier, build type, compiler, dataset sizes, program knobs)
differs, host metrics are refused and the script exits 3. Simulated
metrics do not depend on the machine and are always compared.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (metric names, units and kinds)

LIKE_RUN_KEYS = ("cpu_model", "nproc", "vpim_threads", "threads",
                 "interleave_tier", "build_type", "compiler", "prim_scale",
                 "nw_scale", "kv_ops", "env")


def load(path):
    manifest = values = None
    with open(path) as f:
        for line in f:
            if line.startswith("manifest "):
                manifest = json.loads(line[len("manifest "):])
            elif line.startswith("values "):
                values = json.loads(line[len("values "):])
    if manifest is None or values is None:
        sys.exit("compare: %s is not a perfbench/run.py output" % path)
    return manifest, values


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--head", nargs="+", required=True)
    args = ap.parse_args()

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bounds = {m["name"]: m for m in json.load(f)["end_to_end"]}
    kinds = dict(run.END_TO_END)
    kinds.update(run.per_layer_spec())

    sides = {"base": [load(p) for p in args.base],
             "head": [load(p) for p in args.head]}
    like = {tuple(str(m.get(k)) for k in LIKE_RUN_KEYS)
            for runs in sides.values() for m, _ in runs}
    host_ok = len(like) == 1
    if not host_ok:
        print("manifests differ in machine or build fields %s: host "
              "metrics refused" % (LIKE_RUN_KEYS,))

    status = 0
    workloads = sorted({m["workload"] for runs in sides.values()
                        for m, _ in runs})
    for workload in workloads:
        print("\n== %s (base %d runs, head %d runs)" % (
            workload,
            sum(m["workload"] == workload for m, _ in sides["base"]),
            sum(m["workload"] == workload for m, _ in sides["head"])))
        print("%-28s %14s %14s %9s  %s" % ("metric", "base", "head",
                                           "change", "verdict"))
        for name, (unit, kind) in kinds.items():
            med = {}
            for side, runs in sides.items():
                vs = [v[name] for m, v in runs
                      if m["workload"] == workload and name in v]
                med[side] = statistics.median(vs) if vs else None
            if med["base"] is None or med["head"] is None:
                continue
            if kind in ("host", "memory") and not host_ok:
                print("%-28s %14s %14s %9s  refused (unlike runs)" % (
                    name, "-", "-", "-"))
                status = 3
                continue
            change = ((med["head"] - med["base"]) / med["base"]
                      if med["base"] else 0.0)
            verdict = ""
            if name in bounds:
                b = bounds[name]
                worse = change if b["better"] == "lower" else -change
                verdict = ("WORSE beyond bound %.3f" % b["bound"]
                           if worse > b["bound"] else "within bound")
                if worse > b["bound"] and status == 0:
                    status = 1
            print("%-28s %14.6g %14.6g %+8.2f%%  %s" % (
                name, med["base"], med["head"], 100 * change, verdict))
    return status


if __name__ == "__main__":
    sys.exit(main())
