"""Command-line front end: validate | shape | compose | sweep | oracle.

JSON models in, CSV/JSON out; no plotting.  Exit codes are a stable
contract: 0 success, 1 I/O or parse error, 2 condition-check failure,
3 insufficient time grid (a suggested span is printed), 4 singular
feedback loop.  The environment variable ``PHOTON_SLH_TOL`` overrides the
default 1e-10 condition tolerance; a ``--tol`` flag wins over both.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .model import (
    ModelValidationError,
    SingularLoopError,
    feedback_reduce,
    feedback_shift,
    load_model,
    model_to_dict,
    series_product,
    validate_model,
)
from .operators import DEFAULT_TOL
from .oracles import (
    TwoLevelParams,
    feedback_g,
    memory_g,
    memory_kernel,
    two_channel_g,
    two_level_g,
)
from .pulses import (
    GridSpanError,
    PulseSpec,
    TimeGrid,
    parse_pulse_spec,
    pulse_table,
    read_pulse_csv,
    rising_exp_pulse,
    shape_fft,
    shape_ode,
    write_pulse_csv,
    write_table,
)
from .transfer import PhotonTransfer, from_model


class CLIError(ValueError):
    """A usage or input error; ``main`` reports it like any ValueError (exit 1)."""


class _Parser(argparse.ArgumentParser):
    # Route argparse usage errors through the exit-code contract (1).
    def error(self, message):
        raise CLIError(message)


def _condition_tol(args) -> float:
    if getattr(args, "tol", None) is not None:
        return args.tol
    env = os.environ.get("PHOTON_SLH_TOL")
    if env is not None:
        try:
            return float(env)
        except ValueError as exc:
            raise CLIError(f"PHOTON_SLH_TOL is not a number: {env!r}") from exc
    return DEFAULT_TOL


def _parse_range(text: str, name: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise CLIError(f"--{name} must look like start:stop:count, got {text!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise CLIError(f"--{name} must look like start:stop:count, got {text!r}") from exc
    if count < 1:
        raise CLIError(f"--{name} needs at least one point")
    if not (np.isfinite(start) and np.isfinite(stop)):
        raise CLIError(f"--{name} range must be finite")
    return np.linspace(start, stop, count)


def _abs2(z: np.ndarray) -> np.ndarray:
    # Same rounding as the per-element ``abs(z) ** 2`` (libm hypot, then pow);
    # np.abs(z) ** 2 uses a SIMD modulus and x*x, which can differ in the last bit.
    return np.float_power(np.hypot(z.real, z.imag), 2)


def _load_model_checked(path):
    try:
        return load_model(path)
    except json.JSONDecodeError as exc:
        raise CLIError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except OSError as exc:
        raise CLIError(f"{path}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise CLIError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def _cmd_validate(args) -> int:
    m = _load_model_checked(args.model)
    report = validate_model(m, tol=_condition_tol(args))
    print(json.dumps(report.to_dict(), indent=2))
    return 0 if report.passed else 2


# ---------------------------------------------------------------------------
# shape
# ---------------------------------------------------------------------------


def _grid_size(args) -> int:
    if not 8 <= args.log2_n <= 22:
        raise CLIError(f"--log2-n must be in [8, 22], got {args.log2_n}")
    return 2**args.log2_n


def _grid_from_args(args, pole) -> TimeGrid:
    n = _grid_size(args)
    if args.dt is not None:
        if args.dt <= 0:
            raise CLIError("--dt must be positive")
        dt = args.dt
        t_start = args.t_start if args.t_start is not None else -0.5 * n * dt
        return TimeGrid(t_start=t_start, dt=dt, n=n)
    # Settling-based default: span comfortably beyond the kernel tail bound.
    span = 24.0 / abs(pole.real)
    dt = span / n
    t_start = args.t_start if args.t_start is not None else -0.5 * span
    return TimeGrid(t_start=t_start, dt=dt, n=n)


def _default_pulse_params(kind: str, grid: TimeGrid, pole) -> dict:
    span = grid.span
    if kind == "gaussian":
        return {"t0": grid.t_start + 0.25 * span, "sigma": span / 32.0}
    if kind == "square":
        return {"t0": grid.t_start + 0.125 * span, "t1": grid.t_start + 0.25 * span}
    if kind == "rising_exp":
        return {"kappa": 2.0 * abs(pole.real), "omega_c": -pole.imag}
    if kind == "decaying_exp":
        return {"kappa": 2.0 * abs(pole.real), "t_on": 0.0}
    return {}


def _cmd_shape(args) -> int:
    tol = _condition_tol(args)
    m = _load_model_checked(args.model)
    filt = from_model(m, tol=tol)
    if args.cascade < 1:
        raise CLIError("--cascade must be at least 1")
    filt = PhotonTransfer(stages=filt.stages * args.cascade)
    pole = filt.stages[0].a

    if args.pulse.startswith("csv:"):
        pulse = read_pulse_csv(args.pulse[4:])
        if pulse.channels != m.channels:
            raise CLIError(
                f"pulse CSV has {pulse.channels} channels, model has {m.channels}"
            )
        grid = pulse.grid
    else:
        grid = _grid_from_args(args, pole)
        spec = parse_pulse_spec(args.pulse)
        params = dict(_default_pulse_params(spec.kind, grid, pole))
        params.update(spec.params)
        spec = PulseSpec(kind=spec.kind, params=params)
        pulse = spec.materialize(grid, channels=m.channels, channel=args.channel)

    outputs = {}
    if args.method in ("fft", "both"):
        outputs["fft"] = shape_fft(pulse, filt)
    if args.method in ("ode", "both"):
        outputs["ode"] = shape_ode(pulse, filt)
    primary = outputs.get("fft", outputs.get("ode"))

    write_pulse_csv(primary, args.output)
    sidecar = {
        "model": str(args.model),
        "method": args.method,
        "cascade": args.cascade,
        "grid": {"t_start": grid.t_start, "dt": grid.dt, "n": grid.n},
        "input_norm": pulse.norm(),
        "output_norm": primary.norm(),
        "pre_zero_energy_fraction": primary.energy_fraction_before(0.0),
    }
    if len(outputs) == 2:
        diff = outputs["fft"].samples - outputs["ode"].samples
        sidecar["l2_discrepancy"] = float(
            np.sqrt(np.sum(np.abs(diff) ** 2) * grid.dt)
        )
    sidecar_path = f"{args.output}.json"
    with open(sidecar_path, "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2)
        fh.write("\n")
    print(json.dumps(sidecar, indent=2))
    return 0


# ---------------------------------------------------------------------------
# compose
# ---------------------------------------------------------------------------


def _cmd_compose(args) -> int:
    if args.series:
        first = _load_model_checked(args.series[0])
        second = _load_model_checked(args.series[1])
        doc = model_to_dict(series_product(second, first))
    else:
        m = _load_model_checked(args.feedback)
        delta = feedback_shift(m)
        reduced = feedback_reduce(m)
        doc = model_to_dict(reduced)
        doc["feedback"] = {
            "delta": delta,
            "theta_reduced": [[c.real, c.imag] for c in reduced.theta],
        }
    text = json.dumps(doc, indent=2)
    if args.output is None:
        print(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _cmd_sweep(args) -> int:
    tol = _condition_tol(args)
    filt = from_model(_load_model_checked(args.model), tol=tol)
    omegas = _parse_range(args.omega, "omega")
    z = filt.response_matrix(omegas).reshape(-1)
    n, k = omegas.size, filt.channels
    ch = np.arange(1, k + 1)
    columns = (
        np.repeat(omegas, k * k),
        np.tile(np.repeat(ch, k), n),
        np.tile(ch, n * k),
        z.real,
        z.imag,
        _abs2(z),
    )
    write_table(args.output, "omega,i,j,re,im,abs2", "%.16e,%d,%d,%.16e,%.16e,%.16e\n", columns)
    return 0


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

_SCATTERING_PRESETS = {
    "swap": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "bs50": np.array([[1.0, 1.0j], [1.0j, 1.0]], dtype=complex) / np.sqrt(2.0),
}


def _scattering_from_args(args) -> np.ndarray:
    if args.s is not None:
        vals = args.s
        return np.array(
            [
                [complex(vals[0], vals[1]), complex(vals[2], vals[3])],
                [complex(vals[4], vals[5]), complex(vals[6], vals[7])],
            ]
        )
    return _SCATTERING_PRESETS[args.scattering]


def _response_table(g):
    """Oracle tabulating a scalar response ``g(args, omegas)`` over ``--omega``."""

    def table(args):
        omegas = _parse_range(args.omega, "omega")
        z = np.atleast_1d(g(args, omegas))
        columns = (omegas, z.real, z.imag, _abs2(z))
        return "omega,re,im,abs2", "%.16e,%.16e,%.16e,%.16e\n", columns

    return table


def _two_channel_table(args):
    omegas = _parse_range(args.omega, "omega")
    g1, g2 = map(np.atleast_1d, two_channel_g(args.kappa1, args.kappa2, args.omega_c, omegas))
    columns = (omegas, g1.real, g1.imag, g2.real, g2.imag, _abs2(g1) + _abs2(g2))
    return (
        "omega,g1_re,g1_im,g2_re,g2_im,abs2_sum",
        "%.16e,%.16e,%.16e,%.16e,%.16e,%.16e\n",
        columns,
    )


def _memory_kernel_table(args):
    ts = _parse_range(args.t, "t")
    if np.any(ts < 0):
        raise CLIError("--t range must be nonnegative: the kernel is causal")
    z = np.atleast_1d(memory_kernel(args.n, TwoLevelParams(args.kappa, args.omega_c), ts))
    return "t,re,im", "%.16e,%.16e,%.16e\n", (ts, z.real, z.imag)


def _inverting_pulse_table(args):
    n = _grid_size(args)
    span = 40.0 / args.kappa if args.dt is None else n * args.dt
    dt = span / n
    t_start = args.t_start if args.t_start is not None else -0.75 * span
    grid = TimeGrid(t_start=t_start, dt=dt, n=n)
    return pulse_table(rising_exp_pulse(grid, args.kappa, args.omega_c))


# Which oracle writes which table: name -> args -> (header, row template, columns).
_ORACLE_TABLES = {
    "two-level-g": _response_table(
        lambda a, w: two_level_g(TwoLevelParams(a.kappa, a.omega_c), w)
    ),
    "two-channel-g": _two_channel_table,
    "memory-g": _response_table(
        lambda a, w: memory_g(a.n, TwoLevelParams(a.kappa, a.omega_c), w)
    ),
    "memory-kernel": _memory_kernel_table,
    "inverting-pulse": _inverting_pulse_table,
    "feedback-g": _response_table(
        lambda a, w: feedback_g(_scattering_from_args(a), a.kappa1, a.kappa2, a.omega_c, w)
    ),
}


def _cmd_oracle(args) -> int:
    write_table(args.output, *_ORACLE_TABLES[args.which](args))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="photon-slh",
        description="Single-photon pulse shaping through finite-level open quantum systems.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_val = sub.add_parser("validate", help="check the linear-response conditions of a model")
    p_val.add_argument("model", help="model JSON file")
    p_val.add_argument("--tol", type=float, default=None, help="condition tolerance")
    p_val.set_defaults(func=_cmd_validate)

    p_shape = sub.add_parser("shape", help="shape a pulse through a model's filter")
    p_shape.add_argument("model", help="model JSON file")
    p_shape.add_argument("--cascade", type=int, default=1, help="repeat the filter N times")
    p_shape.add_argument(
        "--pulse",
        default="gaussian",
        help="kind[:name=value,...] among gaussian, square, rising_exp, decaying_exp, "
        "or csv:PATH for a sampled pulse",
    )
    p_shape.add_argument("--channel", type=int, default=0, help="input channel for analytic pulses")
    p_shape.add_argument("--method", choices=("fft", "ode", "both"), default="fft")
    p_shape.add_argument("--t-start", type=float, default=None, dest="t_start")
    p_shape.add_argument("--dt", type=float, default=None)
    p_shape.add_argument("--log2-n", type=int, default=14, dest="log2_n")
    p_shape.add_argument("--tol", type=float, default=None)
    p_shape.add_argument("-o", "--output", required=True, help="output pulse CSV path")
    p_shape.set_defaults(func=_cmd_shape)

    p_comp = sub.add_parser("compose", help="series-compose models or close a feedback loop")
    group = p_comp.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--series",
        nargs=2,
        metavar=("FIRST", "SECOND"),
        help="compose two models in signal order (output of FIRST feeds SECOND)",
    )
    group.add_argument("--feedback", metavar="MODEL", help="close channel 2 of a 2-channel model")
    p_comp.add_argument("-o", "--output", default=None, help="composed model JSON path (default stdout)")
    p_comp.set_defaults(func=_cmd_compose)

    p_sweep = sub.add_parser("sweep", help="tabulate the frequency response of a model")
    p_sweep.add_argument("model", help="model JSON file")
    p_sweep.add_argument("--omega", required=True, help="start:stop:count (rad/time)")
    p_sweep.add_argument("--tol", type=float, default=None)
    p_sweep.add_argument("-o", "--output", default=None, help="CSV path (default stdout)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_or = sub.add_parser("oracle", help="evaluate a closed-form reference response")
    p_or.add_argument("which", choices=tuple(_ORACLE_TABLES))
    p_or.add_argument("--kappa", type=float, default=1.0)
    p_or.add_argument("--kappa1", type=float, default=1.0)
    p_or.add_argument("--kappa2", type=float, default=1.0)
    p_or.add_argument("--omega-c", type=float, default=0.0, dest="omega_c")
    p_or.add_argument("--n", type=int, default=1, help="number of chained elements")
    p_or.add_argument("--omega", default="-10:10:201", help="start:stop:count")
    p_or.add_argument("--t", default="0:20:201", help="start:stop:count (memory-kernel)")
    p_or.add_argument("--t-start", type=float, default=None, dest="t_start")
    p_or.add_argument("--dt", type=float, default=None)
    p_or.add_argument("--log2-n", type=int, default=12, dest="log2_n")
    p_or.add_argument(
        "--scattering", choices=sorted(_SCATTERING_PRESETS), default="swap",
        help="feedback-g scattering preset",
    )
    p_or.add_argument(
        "--s",
        type=float,
        nargs=8,
        default=None,
        metavar="X",
        help="explicit 2x2 scattering matrix: re,im pairs row-major (8 numbers)",
    )
    p_or.add_argument("-o", "--output", default=None, help="CSV path (default stdout)")
    p_or.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except GridSpanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SingularLoopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ModelValidationError as exc:
        print(json.dumps(exc.report.to_dict(), indent=2), file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:  # pragma: no cover - console-script shim
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
