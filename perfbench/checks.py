"""Correctness gate: each operation against a reference built outside the timed call.

References come from the closed forms in :mod:`photon_slh.oracles` (the
two-level and two-channel transfer functions, the feedback loop response)
and from independent numpy code: shaping by FFT on an 8x wider grid with the
same time step, pulses from their defining formulas, and the memory kernel
from its terminating series.  Tolerances are the release tolerances pinned
in ``tests/test_acceptance.py``.

``check`` returns ``(cause, l2)``: ``cause`` is None for a correct result,
otherwise the reason the operation counts as failed.  ``KNOWN_CAUSES`` are
the defects and refusals the package is known to have; any other cause
makes the run's ``correct`` false.
"""

from __future__ import annotations

import json
import math

import numpy as np

from photon_slh.oracles import TwoLevelParams, feedback_g, two_channel_g, two_level_g

L2_TOL = 1e-4  # FFT vs ODE, and the memory kernel
FLUX_TOL = 1e-12  # column flux of a two-channel response
ALL_PASS_TOL = 1e-14  # modulus of a single-channel response
CLOSED_FORM_TOL = 1e-10  # pipeline vs closed-form response
PARAM_TOL = 1e-12  # extracted pole vs closed form, relative to |a|
PAD = 8  # reference grid is this many times wider
# An output that misses the wide-grid reference but matches circular
# convolution on its own grid has wrapped around: the aliasing defect.
CIRCULAR_TOL = 1e-9

KNOWN_CAUSES = {
    "self_test_crash": "RuntimeError from FilterStage._self_test on a stage with Q >= ~1e4",
    "silent_alias": "output wrapped around the grid: off the 8x-wide reference, equal to circular convolution",
    "grid_refused": "GridSpanError / exit 3: the grid is too short for the kernel",
    "ode_step_refused": "shape_ode refused a step with |a| dt > 0.1",
}


def l2(dt: float, diff: np.ndarray) -> float:
    return float(np.sqrt(np.sum(np.abs(diff) ** 2) * dt))


def pulse_samples(grid, channels: int, kind: str, params: dict, channel: int) -> np.ndarray:
    """Analytic pulse on ``grid``; jumps on a sample take the mean of both sides."""
    t_start, dt, n = grid
    t = t_start + dt * np.arange(n)

    def step(edge):
        s = np.where(t > edge, 1.0, 0.0)
        s[np.abs(t - edge) <= 1e-9 * dt] = 0.5
        return s

    if kind == "gaussian":
        t0, sigma = params["t0"], params["sigma"]
        col = (2.0 * np.pi * sigma**2) ** -0.25 * np.exp(-((t - t0) ** 2) / (4.0 * sigma**2))
    elif kind == "square":
        t0, t1 = params["t0"], params["t1"]
        col = (step(t0) - step(t1)) / np.sqrt(t1 - t0)
    else:
        kappa, wc = params["kappa"], params["omega_c"]
        col = -np.sqrt(kappa) * np.exp((0.5 * kappa - 1j * wc) * t) * (1.0 - step(0.0))
    out = np.zeros((n, channels), dtype=complex)
    out[:, channel] = col
    return out


def _stage_factors(m: dict, w: np.ndarray):
    """Closed-form ``M(w)`` with ``G(iw) = M(w) S`` for one stage, as its entries.

    K = 1: ``(m00,)`` from ``two_level_g``; K = 2: ``(m00, m01, m10, m11)`` from
    ``two_channel_g`` with the coupling phases restored.
    """
    theta, wc = m["theta"], m["omega_c"]
    kap = np.abs(theta) ** 2
    if len(theta) == 1:
        return (two_level_g(TwoLevelParams(kap[0], wc), w),)
    g1, g2 = two_channel_g(kap[0], kap[1], wc, w)
    g1b, _ = two_channel_g(kap[1], kap[0], wc, w)
    phase = np.exp(1j * (np.angle(theta[0]) - np.angle(theta[1])))
    return g1, -g2 * phase, -g2 * np.conj(phase), g1b


def _response(m: dict, w: np.ndarray) -> np.ndarray:
    """Closed-form ``G(iw)`` of a two-level model, shape ``(len(w), K, K)``."""
    k = len(m["theta"])
    M = np.stack(_stage_factors(m, w), axis=-1).reshape(-1, k, k)
    return M @ m["S"]


def shaped(x: np.ndarray, dt: float, m: dict, stages: int, pad: int) -> np.ndarray:
    """``x`` through ``stages`` copies of the model's filter, by FFT on a ``pad``-times grid.

    Stages are applied entry by entry, blockwise in frequency: on 2^21-point
    grids this is about twice as fast as stacked 2x2 matrix products.
    """
    n, k = x.shape
    size = n * pad
    spec = np.fft.fft(x.T, n=size, axis=1)
    w = 2.0 * np.pi * np.fft.fftfreq(size, d=dt)
    S = m["S"]
    block = 1 << 16
    for lo in range(0, size, block):
        f = _stage_factors(m, w[lo:lo + block])
        if k == 1:
            spec[0, lo:lo + block] *= (S[0, 0] * f[0]) ** stages
            continue
        a0, a1 = spec[0, lo:lo + block], spec[1, lo:lo + block]
        for _ in range(stages):
            b0 = S[0, 0] * a0 + S[0, 1] * a1
            b1 = S[1, 0] * a0 + S[1, 1] * a1
            a0, a1 = f[0] * b0 + f[1] * b1, f[2] * b0 + f[3] * b1
        spec[0, lo:lo + block], spec[1, lo:lo + block] = a0, a1
    return np.fft.ifft(spec, axis=1)[:, :n].T


def _shape_cause(out, x, dt, m, stages):
    err = l2(dt, out - shaped(x, dt, m, stages, PAD))
    if err <= L2_TOL:
        return None, err
    if l2(dt, out - shaped(x, dt, m, stages, 1)) <= CIRCULAR_TOL:
        return "silent_alias", err
    return "wrong_output", err


def _error_cause(case, res):
    exc = res.get("exc")
    if exc is not None:
        if exc["type"] == "RuntimeError" and exc["where"] == "_self_test":
            return "self_test_crash"
        if exc["type"] == "GridSpanError":
            return "grid_refused"
        if exc["type"] == "ValueError" and exc["where"] == "shape_ode":
            return "ode_step_refused"
        return f"unexpected_{exc['type']}"
    code = res.get("code")
    if code is not None and code != case["expect"]:
        return "grid_refused" if code == 3 else f"unexpected_exit_{code}"
    return None


def _read_pulse(path):
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    k = int(data[:, 1].max()) + 1
    return (data[:, 2] + 1j * data[:, 3]).reshape(-1, k)


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _matrix(pairs):
    return np.array([[complex(*c) for c in row] for row in pairs])


def _check_lib(case, res):
    spec, m = case["spec"], case["model"]
    dt = spec["grid"][1]
    kind, params, channel = spec["pulse"]
    x = pulse_samples(spec["grid"], len(m["theta"]), kind, params, channel)
    cause, err = _shape_cause(res["fft"], x, dt, m, spec["stages"])
    if cause is None and "ode" in res:
        err = max(err, l2(dt, res["ode"] - res["fft"]))
        cause = None if err <= L2_TOL else "wrong_output"
    return cause, err


def _check_shape(case, res):
    grid = _load(case["out"] + ".json")["grid"]
    grid = (grid["t_start"], grid["dt"], grid["n"])
    m = case["model"]
    if case["csv_in"]:
        x = _read_pulse(case["csv_in"])
    else:
        kind, params = case["pulse"]
        x = pulse_samples(grid, len(m["theta"]), kind, params, case["channel"])
    out = _read_pulse(case["out"])
    if out.shape != x.shape:
        return "wrong_output", None
    return _shape_cause(out, x, grid[1], m, case["stages"])


def _check_validate(case, res):
    report = json.loads(res["stdout"])
    m = case["model"]
    a = complex(-0.5 * np.sum(np.abs(m["theta"]) ** 2), -m["omega_c"])
    got = complex(*report["params"]["a"]) if report.get("params") else None
    if not report["passed"] or got is None or abs(got - a) > PARAM_TOL * max(1.0, abs(a)):
        return "wrong_output", None
    return None, None


def _check_validate_chain(case, res):
    report = json.loads(res["stdout"])
    if report["passed"] or report["conditions"]["commutator_proportional"]["holds"]:
        return "wrong_output", None
    return None, None


def _check_sweep(case, res):
    data = np.loadtxt(case["out"], delimiter=",", skiprows=1, ndmin=2)
    m = case["model"]
    k = len(m["theta"])
    w = data[::k * k, 0]
    got = (data[:, 3] + 1j * data[:, 4]).reshape(-1, k, k)
    if np.max(np.abs(got - _response(m, w))) > CLOSED_FORM_TOL:
        return "wrong_output", None
    if k == 1:
        defect, tol = np.max(np.abs(np.abs(got[:, 0, 0]) - 1.0)), ALL_PASS_TOL
    else:
        defect, tol = np.max(np.abs(np.sum(np.abs(got) ** 2, axis=1) - 1.0)), FLUX_TOL
    return (None if defect <= tol else "wrong_output"), None


def _check_series(case, res):
    doc = _load(case["out"])
    (first, second) = case["sites"]
    L1 = first["theta"][0] * first["L0"]
    L2 = second["theta"][0] * second["L0"]
    s2 = second["S"][0, 0]
    cross = s2 * (L2.conj().T @ L1)
    H = first["H0"] + second["H0"] + (cross - cross.conj().T) / 2j
    L = L2 + s2 * L1
    got_L = complex(*doc["theta"][0]) * _matrix(doc["L0"])
    ok = (
        abs(_matrix(doc["S"])[0, 0] - s2 * first["S"][0, 0]) <= PARAM_TOL
        and np.max(np.abs(got_L - L)) <= PARAM_TOL * max(1.0, np.max(np.abs(L)))
        and np.max(np.abs(_matrix(doc["H0"]) - H)) <= PARAM_TOL * max(1.0, np.max(np.abs(H)))
    )
    return (None if ok else "wrong_output"), None


def _check_feedback(case, res):
    doc = _load(case["out"])
    m = case["model"]
    k1, k2 = np.abs(m["theta"]) ** 2
    S = m["S"]
    # Reduced single-channel model from its own fields: pole from the
    # ground-state relations of L0 and H0, response S (1 + h |theta|^2 / (iw - a)).
    L0, H0 = _matrix(doc["L0"]), _matrix(doc["H0"])
    s_red = _matrix(doc["S"])[0, 0]
    theta2 = abs(complex(*doc["theta"][0])) ** 2
    row = L0[0]
    beta = complex(np.vdot(row, (L0 @ H0 - H0 @ L0)[0]) / np.vdot(row, row))
    h = (L0.conj().T @ L0 - L0 @ L0.conj().T)[0, 0].real
    a = -1j * beta + 0.5 * theta2 * h
    w = np.linspace(-30.0, 30.0, 257)
    pipeline = s_red * (1.0 + h * theta2 / (1j * w - a))
    closed = feedback_g(S, k1, k2, m["omega_c"], w)
    wg = S[0, 1] / (1.0 - S[1, 1])
    delta = (np.sqrt(k1 * k2) * wg + k2 * S[1, 1] / (1.0 - S[1, 1])).imag
    ok = (
        np.max(np.abs(pipeline - closed)) <= CLOSED_FORM_TOL
        and abs(doc["feedback"]["delta"] - delta) <= PARAM_TOL * max(1.0, abs(delta))
    )
    return (None if ok else "wrong_output"), None


def _check_kernel(case, res):
    data = np.loadtxt(case["out"], delimiter=",", skiprows=1, ndmin=2)
    n, kappa, wc = case["n"], case["kappa"], case["omega_c"]
    t = np.linspace(0.0, case["t_end"], case["points"])
    # 1F1(1-n; 2; x) as its terminating series.
    x = kappa * t
    poly = sum((-1) ** j * math.comb(n - 1, j) * x**j / math.factorial(j + 1) for j in range(n))
    ref = -kappa * n * np.exp(-0.5 * x) * poly * np.exp(-1j * wc * t)
    got = data[:, 1] + 1j * data[:, 2]
    if got.shape != ref.shape:
        return "wrong_output", None
    err = l2(t[1] - t[0], got - ref)
    return (None if err <= L2_TOL else "wrong_output"), err


_CHECKS = {
    "lib": _check_lib,
    "cli_shape": _check_shape,
    "cli_validate": _check_validate,
    "cli_validate_chain": _check_validate_chain,
    "cli_sweep": _check_sweep,
    "cli_series": _check_series,
    "cli_feedback": _check_feedback,
    "cli_kernel": _check_kernel,
}


def check(case, res) -> tuple:
    """Classify one operation: ``(None, l2)`` when correct, else ``(cause, l2)``."""
    cause = _error_cause(case, res)
    if cause is not None:
        return cause, None
    try:
        return _CHECKS[case["check"]](case, res)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable_output_{type(exc).__name__}", None
