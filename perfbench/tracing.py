"""Layer-boundary spans for the traced benchmark run.

Only the traced run installs these wrappers; the untraced run executes the
package untouched.  Each wrapper replaces one public function (or method)
of a ``photon_slh`` module in every package namespace that refers to it, so
cross-module calls such as ``cli.validate_model`` or
``transfer.validate_model`` are seen too.  Spans stay in memory, each with
the index of its parent span, and are written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import time

import numpy as np

LAYERS = ("operators", "model", "transfer", "pulses", "oracles", "cli")


def _points(self, omegas, *args, **kwargs):
    return int(np.size(omegas)) * self.channels**2 * len(self.stages)


def _steps(p, f, *args, **kwargs):
    return (p.grid.n - 1) * len(f.stages)


def _size(path):
    return os.path.getsize(path) if os.path.exists(path) else 0


def _kernel_points(n, p, t, *args, **kwargs):
    return int(np.size(t))


# Work counts recorded beside the span: name -> f(args) -> count.
COUNTERS = {
    "transfer.response_matrix": _points,
    "pulses.shape_ode": _steps,
    "pulses.write_pulse_csv": lambda p, path, *args, **kwargs: _size(path),
    "pulses.read_pulse_csv": lambda path, *args, **kwargs: _size(path),
    "oracles.memory_kernel": _kernel_points,
}

# Methods have no module-level name to patch; they are patched on the class.
METHODS = (
    ("transfer", "PhotonTransfer", "response_matrix"),
    ("transfer", "FilterStage", "_self_test"),
    ("pulses", "PulseSpec", "materialize"),
)


class Tracer:
    """In-memory span recorder: ``(op, parent, name, layer, t0, t1, error, count)``.

    The wrappers are built once; :meth:`install` and :meth:`uninstall` swap
    them in and out around each traced operation.
    """

    def __init__(self, package):
        self.spans = []
        self.op = -1
        self._stack = []
        self._patches = []  # (owner, attribute, original, wrapper)
        namespaces = [package] + [getattr(package, layer) for layer in LAYERS]
        for layer in LAYERS:
            module = getattr(package, layer)
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                if not callable(fn) or isinstance(fn, type):
                    continue
                if getattr(fn, "__module__", None) != module.__name__:
                    continue
                wrapped = self._wrap(layer, f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for key, value in vars(ns).items():
                        if value is fn:
                            self._patches.append((ns, key, fn, wrapped))
        cli = package.cli
        self._patches.append((cli, "main", cli.main, self._wrap("cli", "cli.main", cli.main)))
        for layer, cls_name, meth in METHODS:
            cls = getattr(getattr(package, layer), cls_name)
            original = cls.__dict__[meth]
            self._patches.append((cls, meth, original, self._wrap(layer, f"{layer}.{meth}", original)))

    def _wrap(self, layer, name, fn):
        tracer = self
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(idx)
            error = None
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                count = counter(*args, **kwargs) if counter else None
                tracer.spans[idx] = (tracer.op, parent, name, layer, t0, t1, error, count)

        return wrapper

    def install(self) -> None:
        for owner, key, _, wrapped in self._patches:
            setattr(owner, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original, _ in self._patches:
            setattr(owner, key, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (op, parent, name, layer, t0, t1, err, count) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "op": op, "parent": parent, "name": name, "layer": layer,
                    "t0": t0, "t1": t1, "error": err, "count": count,
                }) + "\n")


def layer_metrics(spans, ops) -> dict:
    """Per-op layer figures from the spans of ``ops`` traced operations.

    ``ops`` maps op index -> ``(kind, completed)``.  Self time is a span's
    duration minus the durations of its direct children; busy time counts
    only the outermost span of each nested run of one layer.
    """
    n_ops = max(len(ops), 1)
    child_time = [0.0] * len(spans)
    for _, parent, _, _, t0, t1, _, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    acc = {f"{layer}.{k}": 0.0 for layer in LAYERS for k in ("calls", "busy_ms", "self_ms", "failed")}
    by_name: dict = {}
    refusals = 0
    validate_calls = 0
    for i, (op, parent, name, layer, t0, t1, err, count) in enumerate(spans):
        dur = t1 - t0
        outer = parent < 0 or spans[parent][3] != layer
        acc[f"{layer}.calls"] += 1
        acc[f"{layer}.self_ms"] += 1e3 * (dur - child_time[i])
        if outer:
            acc[f"{layer}.busy_ms"] += 1e3 * dur
            if err is not None:
                acc[f"{layer}.failed"] += 1
                if err == "GridSpanError" and layer == "pulses":
                    refusals += 1
        entry = by_name.setdefault(name, {"ms": 0.0, "self_ms": 0.0, "count": 0, "failed": 0})
        entry["ms"] += 1e3 * dur
        entry["self_ms"] += 1e3 * (dur - child_time[i])
        entry["count"] += count or 0
        entry["failed"] += err is not None
        if name == "model.validate_model":
            kind, completed = ops.get(op, ("", False))
            if kind in ("shape", "sweep") and completed:
                validate_calls += 1

    def named(name, key):
        return by_name.get(name, {}).get(key, 0)

    completed_pipeline = sum(1 for kind, ok in ops.values() if kind in ("shape", "sweep") and ok)
    out = {name: value / n_ops for name, value in acc.items()}
    out.update({
        "transfer.response_matrix.ms": named("transfer.response_matrix", "ms") / n_ops,
        "transfer.response_matrix.points": named("transfer.response_matrix", "count") / n_ops,
        "pulses.shape_fft.ms": named("pulses.shape_fft", "self_ms") / n_ops,
        "pulses.shape_ode.ms": named("pulses.shape_ode", "ms") / n_ops,
        "pulses.shape_ode.steps": named("pulses.shape_ode", "count") / n_ops,
        "pulses.write_pulse_csv.ms": named("pulses.write_pulse_csv", "ms") / n_ops,
        "pulses.write_pulse_csv.bytes": named("pulses.write_pulse_csv", "count") / n_ops,
        "pulses.read_pulse_csv.ms": named("pulses.read_pulse_csv", "ms") / n_ops,
        "pulses.read_pulse_csv.bytes": named("pulses.read_pulse_csv", "count") / n_ops,
        "model.validate_model.calls_per_op": validate_calls / max(completed_pipeline, 1),
        "model.validate_model.ms": named("model.validate_model", "ms") / n_ops,
        "transfer.from_model.ms": named("transfer.from_model", "ms") / n_ops,
        "transfer.from_model.failed": named("transfer.from_model", "failed") / n_ops,
        "oracles.memory_kernel.ms": named("oracles.memory_kernel", "ms") / n_ops,
        "oracles.memory_kernel.points": named("oracles.memory_kernel", "count") / n_ops,
        "pulses.grid_refusals": refusals / n_ops,
    })
    return out
