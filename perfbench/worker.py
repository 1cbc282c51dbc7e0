"""Benchmark worker: imports photon_slh and runs one operation per request.

Started by ``run.py`` as ``python3 perfbench/worker.py ROOT``.  Requests and
replies are pickled dicts on stdin/stdout (both ends are this benchmark).
Only the call into the package is timed; building the reply is not.  Run
alone, it has nothing to do.
"""

from __future__ import annotations

import contextlib
import io
import os
import pickle
import platform
import re
import resource
import sys
import time
import traceback

ROOT = os.path.abspath(sys.argv[1]) if len(sys.argv) > 1 else ""
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import photon_slh  # noqa: E402
from photon_slh import cli, model, operators, pulses, transfer  # noqa: E402


def _lib_op(spec):
    """Library pipeline: model -> from_model -> cascade -> pulse -> shaping."""
    m = model.SLHModel.factored(
        spec["S"], spec["theta"], operators.sigma_minus(),
        (spec["omega_c"] / 2.0) * operators.sigma_z(),
    )
    filt = transfer.from_model(m)
    if spec["stages"] > 1:
        filt = transfer.PhotonTransfer(stages=filt.stages * spec["stages"])
    grid = pulses.TimeGrid(*spec["grid"])
    kind, params, channel = spec["pulse"]
    pulse = pulses.PulseSpec(kind, params).materialize(grid, channels=m.channels, channel=channel)
    out = {"fft": pulses.shape_fft(pulse, filt).samples}
    if spec["ode"]:
        out["ode"] = pulses.shape_ode(pulse, filt).samples
    return out


def _cli_op(spec):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(list(spec["argv"]))
    return {"code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


def run_op(spec) -> tuple:
    """Execute one operation; return ``(latency_s, result)``.

    An exception is part of the result: the benchmark counts it as a failed
    operation, with the innermost frame that raised it as its cause.
    """
    fn = _cli_op if spec["kind"] == "cli" else _lib_op
    t0 = time.perf_counter()
    try:
        result = fn(spec)
    except Exception as exc:  # noqa: BLE001 - every failure is reported, none is fatal
        t1 = time.perf_counter()
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        result = {"exc": {"type": type(exc).__name__, "msg": str(exc)[:300], "where": frame.name}}
    else:
        t1 = time.perf_counter()
    return t1 - t0, result


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted(set(re.findall(r"\S*openblas\S*\.so\S*", fh.read())))
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            found = re.search(r"^model name\s*:\s*(.+)$", fh.read(), re.M)
            cpu = found.group(1) if found else cpu
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "photon_slh": photon_slh.__version__,
    }


def main() -> int:
    if not ROOT or not os.path.abspath(photon_slh.__file__).startswith(os.path.join(ROOT, "src")):
        print("worker: photon_slh was not imported from ROOT/src", file=sys.stderr)
        return 2
    chan_in = sys.stdin.buffer
    chan_out = sys.stdout.buffer
    sys.stdout = sys.stderr  # nothing but replies may reach the reply pipe
    tracer = None  # built on the first traced op, so untraced workers never import it
    ops = {}
    while True:
        try:
            req = pickle.load(chan_in)
        except EOFError:  # the benchmark process is gone
            return 1
        cmd = req["cmd"]
        if cmd == "exit":
            return 0
        if cmd == "op":
            spec = req["spec"]
            reply = {}
            if req.get("traced"):
                if tracer is None:
                    from tracing import Tracer

                    tracer = Tracer(photon_slh)
                # The same op untraced and traced, back to back, for the
                # overhead figure; the order alternates because a repeat
                # runs on warmer caches.
                tracer.op = len(ops)
                if tracer.op % 2:
                    reply["untraced_s"], _ = run_op(spec)
                tracer.install()
                try:
                    lat, result = run_op(spec)
                finally:
                    tracer.uninstall()
                if not tracer.op % 2:
                    reply["untraced_s"], _ = run_op(spec)
                ok = "exc" not in result and result.get("code", 0) == 0
                ops[tracer.op] = (spec["op_kind"], ok)
            else:
                lat, result = run_op(spec)
            reply.update(latency_s=lat, result=result)
        elif cmd == "env":
            reply = environment()
        elif cmd == "finish":
            reply = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
            if tracer is not None:
                from tracing import layer_metrics

                tracer.dump(req["spans_path"])
                reply["layers"] = layer_metrics(tracer.spans, ops)
        else:
            reply = {"error": f"unknown command {cmd!r}"}
        pickle.dump(reply, chan_out, protocol=pickle.HIGHEST_PROTOCOL)
        chan_out.flush()


if __name__ == "__main__":
    sys.exit(main())
