"""Short-mode self-check of the benchmark.

    python3 perfbench/selfcheck.py

Runs every workload for one short run untraced and one traced, with the
correctness gate active, and prints every metric with its unit.  It fails
unless each run prints, as its last line, a result with every metric that
``BENCHMARK.json`` names, with the same unit, ``correct`` true and at least
one attempted operation.  It then runs the benchmark from a directory that
holds only ``BENCHMARK.json`` and ``perfbench/``, where it must exit non-zero
without a result.  The file name keeps it out of pytest's collection.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd, workload, trace, seconds="1"):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", seconds, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    from cases import WORKLOADS  # fft-cascade too, which BENCHMARK.json leaves out

    problems = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: result keys {sorted(result)}")
            if result["correct"] is not True or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} attempted={result['attempted']}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(want.items()) ^ set(got.items()))}")
            print(f"ok  {label}: {result['attempted']} ops, {result['failed']} failed")
            for name, m in result["metrics"].items():
                print(f"      {name:36s} {m['value']:.6g} {m['unit']}")

    bare = os.path.join(HERE, "out", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = run(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        problems.append("bare directory: the benchmark did not fail without the package")
    else:
        print(f"ok  bare directory: exit {proc.returncode}")

    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
