"""photon-slh benchmark: one closed-loop caller, seeded workloads, checked outputs.

    python3 perfbench/run.py --workload fft-cascade --seed 1 --seconds 35 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs each operation both untraced and traced, and prints the
per-layer metrics from the traced calls.  The package runs in a worker
process (``worker.py``); this process makes the inputs, computes the
references between operations and checks every output.  Each operation
starts only after the previous one has returned and been checked.  The
last line of stdout is the result as JSON; details, including failures by
cause and the environment, go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
# setup_s is the median over fresh interpreters: one before the first cycle,
# then more after each cycle while they have taken less than SETUP_SHARE of
# the run's time so far.  Spread over the run, the samples average out the
# machine's slow spells of a few seconds, which skew samples taken back to back.
SETUP_SHARE = 0.1
DEADLINE_S = 170  # a run that is not done by then is aborted
# One BLAS thread: on 2 CPUs a second OpenBLAS thread used ~1.8x the CPU
# time for no wall-time gain, and it competes with the checking process.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class Worker:
    """A worker process; requests and replies are pickled over its stdin/stdout."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), ROOT],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT,
            env={**os.environ, **WORKER_ENV},
        )

    def call(self, **req):
        try:
            pickle.dump(req, self.proc.stdin, protocol=pickle.HIGHEST_PROTOCOL)
            self.proc.stdin.flush()
            return pickle.load(self.proc.stdout)
        except (BrokenPipeError, EOFError) as exc:
            raise RuntimeError(f"worker exited with code {self.proc.poll()}") from exc

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                pickle.dump({"cmd": "exit"}, self.proc.stdin)
                self.proc.stdin.close()
            except BrokenPipeError:
                pass
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def start_worker(warm_spec):
    """Start a worker and run the warm-up op; return it and the time that took."""
    t0 = time.perf_counter()
    worker = Worker()
    try:
        result = worker.call(cmd="op", spec=warm_spec)["result"]
        if "exc" in result or result.get("code", 0) != 0:
            raise RuntimeError(f"warm-up op failed: {result.get('exc') or result['stderr']}")
    except BaseException:
        worker.close()
        raise
    return worker, time.perf_counter() - t0


def measure(workload, seed, seconds, traced, workdir, cases, checks):
    """Run whole cycles for ``seconds``; return per-op records and worker figures."""
    # The warm-up op's input files live apart from the cycles', which are
    # deleted as the run goes.
    warm = cases.cycle(workload, seed, 0, os.path.join(workdir, "warm"))[0]["spec"]
    worker, first = start_worker(warm)
    setup = [first]
    try:
        env = worker.call(cmd="env")
        records = []
        start = time.perf_counter()
        index = 0
        while True:
            for case in cases.cycle(workload, seed, index, workdir):
                reply = worker.call(cmd="op", spec=case["spec"], traced=traced)
                cause, err = checks.check(case, reply["result"])
                records.append({
                    "cycle": index, "slot": case["slot"], "latency_s": reply["latency_s"],
                    "untraced_s": reply.get("untraced_s"), "cause": cause, "l2": err,
                })
            cases.cleanup(workdir, index)
            index += 1
            if time.perf_counter() - start >= seconds:
                break
            while not traced and sum(setup[1:]) < SETUP_SHARE * (time.perf_counter() - start):
                spare, took = start_worker(warm)
                spare.close()
                setup.append(took)
        spans_path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.jsonl") if traced else None
        tail = worker.call(cmd="finish", spans_path=spans_path)
        return {"setup": setup, "env": env, "records": records, "cycles": index,
                "loop_s": time.perf_counter() - start, **tail}
    finally:
        worker.close()


def end_to_end(run) -> dict:
    recs = run["records"]
    ok = [r["latency_s"] * 1e3 for r in recs if r["cause"] is None]
    busy = sum(r["latency_s"] for r in recs)
    p50, p90 = np.percentile(ok, [50, 90]) if ok else (0.0, 0.0)
    return {
        "setup_s": statistics.median(run["setup"]),
        "ops_per_s": len(ok) / busy,
        "latency_p50_ms": float(p50),
        "latency_p90_ms": float(p90),
        "error_rate": (len(recs) - len(ok)) / len(recs),
        "peak_rss_mb": run["peak_rss_mb"],
    }


def per_layer(run) -> dict:
    recs = run["records"]
    errs = [r["l2"] for r in recs if r["cause"] is None and r["l2"] is not None]
    traced = sum(r["latency_s"] for r in recs)
    untraced = sum(r["untraced_s"] for r in recs)
    return {
        **run["layers"],
        "accuracy.l2_err_max": max(errs, default=0.0),
        "trace.overhead_pct": 100.0 * (traced / untraced - 1.0),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "photon_slh", "__init__.py")):
        print(f"error: no photon_slh package under {ROOT}/src", file=sys.stderr)
        return 2
    os.environ.update(WORKER_ENV)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import cases
    import checks

    if args.workload not in cases.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {cases.WORKLOADS}",
              file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    def on_deadline(signum, frame):
        raise TimeoutError(f"run not finished after {DEADLINE_S} s")

    signal.signal(signal.SIGALRM, on_deadline)
    signal.alarm(DEADLINE_S)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir, cases, checks)
    except (RuntimeError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        shutil.rmtree(workdir, ignore_errors=True)

    values = per_layer(run) if args.trace else end_to_end(run)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    recs = run["records"]
    causes = Counter(r["cause"] for r in recs if r["cause"] is not None)
    unknown = sorted(c for c in causes if c not in checks.KNOWN_CAUSES)
    failed_slots = sorted({(r["slot"], r["cause"]) for r in recs if r["cause"] is not None})
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": run["env"], "cycles": run["cycles"],
        "loop_s": run["loop_s"], "setup_samples_s": run["setup"],
        "failures_by_cause": causes, "unexpected_causes": unknown,
        "failed_slots": failed_slots, "records": recs, "metrics": metrics,
    }
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    print("# env " + json.dumps(run["env"]))
    print("# failures by cause " + json.dumps(causes) + (f"; UNEXPECTED {unknown}" if unknown else ""))
    print("# details " + os.path.relpath(path, ROOT))
    print(json.dumps({
        "correct": not unknown,
        "attempted": len(recs),
        "failed": sum(causes.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
