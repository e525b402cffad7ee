#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/selftest.py

1. The harness's layer attribution on hand-built span trees
   (perfbench_harness --selftest).
2. Each workload once with --trace 1 and one measured pass: every
   correctness check, the host-time closure (the timed segments of the
   run region fill run_s within run.CLOSURE_RESIDUAL, and no layer is
   negative), the simulated closure (layer self times = root-span total),
   native/vPIM matching and traced vs untraced determinism must all pass;
   run.py exits nonzero otherwise.
3. A directory holding only BENCHMARK.json and perfbench/ must make the
   benchmark fail fast without printing a result.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402


def main():
    failures = 0

    def report(ok, what):
        nonlocal failures
        failures += not ok
        print("%s  %s" % ("ok  " if ok else "FAIL", what), flush=True)

    run.build()
    proc = subprocess.run([run.HARNESS, "--selftest"],
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    report(proc.returncode == 0, "layer attribution: " + proc.stdout.strip())

    for workload in run.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", "7", "--seconds", "0", "--trace", "1",
             "--min-passes", "1"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        closure = [l for l in proc.stdout.splitlines()
                   if l.startswith("closure:")]
        report(proc.returncode == 0,
               "%s: checks and closure%s%s" % (
                   workload, (" -- " + closure[0]) if closure else "",
                   ("\n" + proc.stderr.strip()) if proc.returncode else ""))

    bare = os.path.join(ROOT, ".bench_build", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kv_zipf",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    report(proc.returncode != 0 and not proc.stdout.strip(),
           "bare directory fails without a result (exit %d: %s)" % (
               proc.returncode, proc.stderr.strip()))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
