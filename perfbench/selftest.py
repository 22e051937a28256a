#!/usr/bin/env python3
"""Self-test of the benchmark; every gate must be able to fail.

    python3 perfbench/selftest.py

For each workload in BENCHMARK.json it runs a smoke-size untraced and
traced run and checks that every named metric is reported, finite, and
in its declared unit; then it runs once against a deliberately corrupted
reference Ω and checks that the correctness check fails the run.
Exits nonzero on the first failed expectation.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.getcwd()
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--smoke", *extra]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return p.returncode, result, p.stderr


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        sys.exit(1)


def main():
    for w in (w["name"] for w in SPEC["workloads"]):
        for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            code, result, err = run(w, trace)
            check(code == 0 and result is not None and result["correct"],
                  f"{w} trace={trace}: smoke run passes its correctness check {err[-500:]}")
            metrics = result["metrics"]
            check(set(metrics) == {m["name"] for m in declared},
                  f"{w} trace={trace}: reports exactly the declared metrics")
            for m in declared:
                got = metrics[m["name"]]
                check(math.isfinite(got["value"]) and got["unit"] == m["unit"],
                      f"{w} trace={trace}: {m['name']} finite, in {m['unit']}")
        code, result, _ = run(w, 0, "--corrupt-reference")
        check(code != 0 and result is not None and not result["correct"]
              and result["failed"] > 0,
              f"{w}: a corrupted reference Ω fails the run")
    print("selftest passed")


if __name__ == "__main__":
    main()
