"""Command-line front end: validate | shape | compose | sweep | oracle.

JSON models in, CSV/JSON out; no plotting.  Exit codes are a stable
contract: 0 success, 1 I/O or parse error, 2 condition-check failure,
3 insufficient time grid (a suggested span is printed), 4 singular
feedback loop.  ``--tol`` sets the condition tolerance (default 1e-10); it
must lie in ``[0, model.TOL_CEILING]``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import __version__
from .model import (
    DEFAULT_TOL,
    TOL_CEILING,
    ModelValidationError,
    SingularLoopError,
    feedback_reduce,
    feedback_shift,
    load_model,
    model_to_dict,
    series_product,
    validate_model,
)
from .oracles import (
    TwoLevelParams,
    feedback_g,
    memory_g,
    memory_kernel,
    two_channel_g,
    two_level_g,
)
from .pulses import (
    PULSE_KINDS,
    GridSpanError,
    TimeGrid,
    l2_norm,
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


#: Largest log2 of a sample count: of a ``--log2-n`` grid, and of a start:stop:count range.
MAX_LOG2_N = 22

#: Largest ``--cascade`` depth.
MAX_CASCADE = 1024


class CLIError(ValueError):
    """A usage or input error; ``main`` reports it like any ValueError (exit 1)."""


class _Parser(argparse.ArgumentParser):
    # Only whole flag names: a prefix would be read as the one flag it starts,
    # and a flag a command does not read would pass for one it does.
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    # Route argparse usage errors through the exit-code contract (1).
    def error(self, message):
        raise CLIError(message)


def _parse_range(text: str, name: str) -> np.ndarray:
    try:
        first, last, points = text.split(":")
        start, stop, count = float(first), float(last), int(points)
    except ValueError as exc:
        raise CLIError(f"--{name} must look like start:stop:count, got {text!r}") from exc
    if count < 1:
        raise CLIError(f"--{name} needs at least one point")
    if count > 2**MAX_LOG2_N:
        raise CLIError(f"--{name} allows at most {2**MAX_LOG2_N} points, got {count}")
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
    except (ValueError, RecursionError) as exc:  # json.load recurses once per nesting level
        raise CLIError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def _cmd_validate(args) -> int:
    m = _load_model_checked(args.model)
    report = validate_model(m, tol=args.tol)
    print(json.dumps(report.to_dict(), indent=2))
    return 0 if report.passed else 2


# ---------------------------------------------------------------------------
# shape
# ---------------------------------------------------------------------------


def _grid(args, default_span: float, lead: float, default_log2_n: int) -> TimeGrid:
    """The grid of ``n = 2**log2_n`` samples, ``log2_n = default_log2_n`` unless
    ``--log2-n`` is given: ``dt = default_span / n`` unless ``--dt`` is given,
    and ``t_start = -lead n dt`` unless ``--t-start`` is given."""
    log2_n = default_log2_n if args.log2_n is None else args.log2_n
    if not 8 <= log2_n <= MAX_LOG2_N:
        raise CLIError(f"--log2-n must be in [8, {MAX_LOG2_N}], got {log2_n}")
    n = 2**log2_n
    dt = default_span / n if args.dt is None else args.dt
    t_start = -lead * n * dt if args.t_start is None else args.t_start
    return TimeGrid(t_start=t_start, dt=dt, n=n)


def _cmd_shape(args) -> int:
    m = _load_model_checked(args.model)
    filt = from_model(m, tol=args.tol)
    if args.cascade < 1:
        raise CLIError("--cascade must be at least 1")
    if args.cascade > MAX_CASCADE:
        raise CLIError(f"--cascade allows at most {MAX_CASCADE} stages, got {args.cascade}")
    if not 0 <= args.channel < m.channels:
        raise CLIError(f"channel {args.channel} out of range for {m.channels} channels")
    filt = PhotonTransfer(stages=filt.stages * args.cascade)
    pole = filt.stages[0].a

    if args.pulse.startswith("csv:"):
        grid_flags = (("--dt", args.dt), ("--t-start", args.t_start), ("--log2-n", args.log2_n))
        for flag, value in grid_flags:
            if value is not None:
                raise CLIError(f"{flag} does not apply to a csv: pulse, which brings its own grid")
        pulse = read_pulse_csv(args.pulse[4:])
    else:
        # Settling-based default: span comfortably beyond the kernel tail bound.
        grid = _grid(args, 24.0 / abs(pole.real), 0.5, 14)
        spec = parse_pulse_spec(args.pulse).with_defaults(grid, pole)
        pulse = spec.materialize(grid, channels=m.channels, channel=args.channel)
    grid, input_norm = pulse.grid, pulse.norm()

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
        "input_norm": input_norm,
        "output_norm": primary.norm(),
        "pre_zero_energy_fraction": primary.energy_fraction_before(),
    }
    if len(outputs) == 2:
        diff = outputs["fft"].samples - outputs["ode"].samples
        sidecar["l2_discrepancy"] = l2_norm(diff, grid.dt)
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
        doc = model_to_dict(feedback_reduce(m))
        doc["feedback"] = {"delta": delta, "theta_reduced": doc["theta"]}
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
    filt = from_model(_load_model_checked(args.model), tol=args.tol)
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
    write_table(args.output, "omega,i,j,re,im,abs2", [columns])
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
        return np.array(args.s).view(complex).reshape(2, 2)
    return _SCATTERING_PRESETS[args.scattering]


def _response_table(g):
    """Oracle tabulating a scalar response ``g(args, omegas)`` over ``--omega``."""

    def table(args):
        omegas = _parse_range(args.omega, "omega")
        z = np.atleast_1d(g(args, omegas))
        return "omega,re,im,abs2", [(omegas, z.real, z.imag, _abs2(z))]

    return table


def _two_channel_table(args):
    omegas = _parse_range(args.omega, "omega")
    g1, g2 = map(np.atleast_1d, two_channel_g(args.kappa1, args.kappa2, args.omega_c, omegas))
    columns = (omegas, g1.real, g1.imag, g2.real, g2.imag, _abs2(g1) + _abs2(g2))
    return "omega,g1_re,g1_im,g2_re,g2_im,abs2_sum", [columns]


def _memory_kernel_table(args):
    ts = _parse_range(args.t, "t")
    z = np.atleast_1d(memory_kernel(args.n, TwoLevelParams(args.kappa, args.omega_c), ts))
    return "t,re,im", [(ts, z.real, z.imag)]


def _inverting_pulse_table(args):
    p = TwoLevelParams(args.kappa, args.omega_c)
    grid = _grid(args, 40.0 / p.kappa, 0.75, 12)
    return pulse_table(rising_exp_pulse(grid, p.kappa, p.omega_c))


# Which oracle writes which table from which flags: name -> (args -> (header,
# column blocks) for ``write_table``, the flags of ``_FLAGS`` it reads).
_ORACLE_TABLES = {
    "two-level-g": (
        _response_table(lambda a, w: two_level_g(TwoLevelParams(a.kappa, a.omega_c), w)),
        ("kappa", "omega_c", "omega"),
    ),
    "two-channel-g": (_two_channel_table, ("kappa1", "kappa2", "omega_c", "omega")),
    "memory-g": (
        _response_table(lambda a, w: memory_g(a.n, TwoLevelParams(a.kappa, a.omega_c), w)),
        ("n", "kappa", "omega_c", "omega"),
    ),
    "memory-kernel": (_memory_kernel_table, ("n", "kappa", "omega_c", "t")),
    "inverting-pulse": (_inverting_pulse_table, ("kappa", "omega_c", "t_start", "dt", "log2_n")),
    "feedback-g": (
        _response_table(
            lambda a, w: feedback_g(_scattering_from_args(a), a.kappa1, a.kappa2, a.omega_c, w)
        ),
        (("scattering", "s"), "kappa1", "kappa2", "omega_c", "omega"),
    ),
}


def _cmd_oracle(args) -> int:
    table, _ = _ORACLE_TABLES[args.which]
    write_table(args.output, *table(args))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _flag(*names, **kwargs):
    return names, kwargs


#: Every option flag, declared once: dest -> (option strings, add_argument
#: keywords).  Each command and each oracle attaches the flags it reads.
_FLAGS = {
    "tol": _flag(
        "--tol", type=float, default=DEFAULT_TOL,
        help=f"condition tolerance, in [0, {TOL_CEILING:g}]",
    ),
    "cascade": _flag("--cascade", type=int, default=1, help="repeat the filter N times"),
    "pulse": _flag(
        "--pulse", default=next(iter(PULSE_KINDS)),
        help=f"kind[:name=value,...] among {', '.join(PULSE_KINDS)}, "
        "or csv:PATH for a sampled pulse, which brings its own grid",
    ),
    "channel": _flag("--channel", type=int, default=0, help="input channel for analytic pulses"),
    "method": _flag("--method", choices=("fft", "ode", "both"), default="fft"),
    "t_start": _flag("--t-start", type=float, help="first grid time"),
    "dt": _flag("--dt", type=float, help="grid step"),
    "log2_n": _flag(
        "--log2-n", type=int,
        help=f"log2 of the sample count, in [8, {MAX_LOG2_N}] "
        "(default 14 for shape, 12 for inverting-pulse)",
    ),
    "series": _flag(
        "--series", nargs=2, metavar=("FIRST", "SECOND"),
        help="compose two models in signal order (output of FIRST feeds SECOND)",
    ),
    "feedback": _flag("--feedback", metavar="MODEL", help="close channel 2 of a 2-channel model"),
    "omega": _flag("--omega", default="-10:10:201", help="start:stop:count (rad/time)"),
    "t": _flag("--t", default="0:20:201", help="start:stop:count"),
    "kappa": _flag("--kappa", type=float, default=1.0),
    "kappa1": _flag("--kappa1", type=float, default=1.0),
    "kappa2": _flag("--kappa2", type=float, default=1.0),
    "omega_c": _flag("--omega-c", type=float, default=0.0),
    "n": _flag("--n", type=int, default=1, help="number of chained elements"),
    "scattering": _flag(
        "--scattering", choices=sorted(_SCATTERING_PRESETS), default="swap",
        help="scattering matrix preset",
    ),
    "s": _flag(
        "--s", type=float, nargs=8, metavar="X",
        help="explicit 2x2 scattering matrix: re,im pairs row-major (8 numbers)",
    ),
    "output": _flag("-o", "--output", help="output path (default stdout; shape needs one)"),
}


def _add_flags(parser, *dests, required: bool = False) -> None:
    """Attach the flags ``dests`` of ``_FLAGS`` to ``parser``.  A tuple of
    dests is a group of which at most one may be given; ``required`` makes
    each flag, or one flag of each group, required."""
    for dest in dests:
        if isinstance(dest, tuple):
            _add_flags(parser.add_mutually_exclusive_group(required=required), *dest)
        else:
            names, kwargs = _FLAGS[dest]
            parser.add_argument(*names, dest=dest, required=required, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="photon-slh",
        description="Single-photon pulse shaping through finite-level open quantum systems.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="check the linear-response conditions of a model")
    p_val.add_argument("model", help="model JSON file")
    _add_flags(p_val, "tol")
    p_val.set_defaults(func=_cmd_validate)

    p_shape = sub.add_parser("shape", help="shape a pulse through a model's filter")
    p_shape.add_argument("model", help="model JSON file")
    _add_flags(p_shape, "cascade", "pulse", "channel", "method", "t_start", "dt", "log2_n", "tol")
    _add_flags(p_shape, "output", required=True)
    p_shape.set_defaults(func=_cmd_shape)

    p_comp = sub.add_parser("compose", help="series-compose models or close a feedback loop")
    _add_flags(p_comp, ("series", "feedback"), required=True)
    _add_flags(p_comp, "output")
    p_comp.set_defaults(func=_cmd_compose)

    p_sweep = sub.add_parser("sweep", help="tabulate the frequency response of a model")
    p_sweep.add_argument("model", help="model JSON file")
    _add_flags(p_sweep, "omega", required=True)
    _add_flags(p_sweep, "tol", "output")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_or = sub.add_parser("oracle", help="evaluate a closed-form reference response")
    oracles = p_or.add_subparsers(dest="which", required=True)
    for which, (_, flags) in _ORACLE_TABLES.items():
        _add_flags(oracles.add_parser(which), *flags, "output")
    p_or.set_defaults(func=_cmd_oracle)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args leaves a parser as it was, so one serves every call of main.
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
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
