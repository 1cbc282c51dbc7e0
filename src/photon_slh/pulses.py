"""Single-photon pulse shapes: grids, analytic shapes, shaping, CSV I/O.

A pulse is a complex amplitude per (time, channel) on a uniform power-of-two
grid; its squared modulus integrates to one for a single photon.  Analytic
shapes (gaussian, one-sided exponentials, square) are described by a
:class:`PulseSpec` and materialized onto a grid on demand.  Jump
discontinuities that land exactly on a grid point are sampled at the mean of
the one-sided limits, which keeps discrete norms and both shaping paths at
second-order accuracy.

Two independent shaping paths are provided:

* :func:`shape_fft` multiplies the whole pulse spectrum by the filter
  response ``G(i w)`` per frequency bin, feedthrough included: the DFT is
  linear, so applying ``S`` apart in the time domain would change only
  rounding;
* :func:`shape_ode` integrates, per stage, the scalar state
  ``eta' = a eta + drive . xi`` (``drive = h theta^dag S``) by classical
  fixed-step RK4 (input linear between samples) and forms
  ``xi_out = S xi + theta eta``.  A step is linear in ``eta[m]``, ``xi[m]``
  and ``xi[m+1]``: the recurrence ``eta[m+1] = r eta[m] + drive . (c0 xi[m]
  + c1 xi[m+1])`` with scalars fixed by ``a dt``, solved for all samples at
  once by a log-depth doubling scan.

They approximate the same continuum result and serve as cross-oracles.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .transfer import PhotonTransfer

__all__ = [
    "TimeGrid",
    "Pulse",
    "PulseSpec",
    "GridSpanError",
    "gaussian_pulse",
    "decaying_exp_pulse",
    "rising_exp_pulse",
    "square_pulse",
    "shape_fft",
    "shape_ode",
    "read_pulse_csv",
    "write_pulse_csv",
]

#: Kernel tail energy allowed beyond half the grid span before shaping
#: refuses the grid (controls circular-convolution aliasing).
TAIL_ENERGY_TOL = 1e-8

#: Fixed-step stability/accuracy guard for the time-domain path.
ODE_STEP_LIMIT = 0.1

#: Largest discrete-norm defect, and largest continuum energy fraction outside
#: the grid's band, of a pulse that :meth:`PulseSpec.materialize` accepts.
PULSE_NORM_TOL = 0.05


class GridSpanError(ValueError):
    """Time grid too short for the filter kernel to settle."""

    def __init__(self, message: str, suggested_span: float):
        super().__init__(message)
        self.suggested_span = suggested_span


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid with a power-of-two sample count and finite, distinct times."""

    t_start: float
    dt: float
    n: int

    def __post_init__(self) -> None:
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if self.n < 2 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"sample count must be a power of two, got {self.n}")
        t_end = float(self.t_start) + (self.n - 1) * float(self.dt)
        if not math.isfinite(t_end):
            raise ValueError(f"grid times must be finite: t_start {self.t_start}, dt {self.dt}")
        # times() rounds dt*i (at most 2 big in size), then t_start + dt*i: each time
        # moves by under 3 ulp(big), so consecutive times differ by more than
        # dt - 6 ulp(big) and stay strictly increasing.
        big = max(abs(self.t_start), abs(t_end))
        if not self.dt > 8.0 * math.ulp(big):
            raise ValueError(
                f"dt {self.dt:g} is too fine to tell grid times apart near |t| = {big:g}"
            )

    @property
    def span(self) -> float:
        return self.n * self.dt

    def times(self) -> np.ndarray:
        return self.t_start + self.dt * np.arange(self.n)

    def omegas(self) -> np.ndarray:
        """FFT bin frequencies (rad/time), in FFT order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dt)


@dataclass(frozen=True, eq=False)
class Pulse:
    """Sampled multi-channel pulse, shape ``(n, K)``."""

    grid: TimeGrid
    samples: np.ndarray

    def __post_init__(self) -> None:
        s = np.array(self.samples, dtype=complex)
        if s.ndim == 1:
            s = s[:, None]
        if s.ndim != 2 or s.shape[0] != self.grid.n:
            raise ValueError(
                f"samples must have shape (n, K) with n={self.grid.n}, got {s.shape}"
            )
        if not np.all(np.isfinite(s)):
            raise ValueError("pulse samples must be finite")
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)

    @property
    def channels(self) -> int:
        return self.samples.shape[1]

    def norm(self) -> float:
        """Discrete L2 norm, ``sqrt(sum_k sum_t |xi_k|^2 dt)``."""
        return float(np.sqrt(np.sum(np.abs(self.samples) ** 2) * self.grid.dt))

    def energy_fraction_before(self) -> float:
        """Fraction of total energy at times before ``t = 0``: where a unit step
        at 0 is zero, so a sample :func:`_step_up` puts on the cut is not before it."""
        total = float(np.sum(np.abs(self.samples) ** 2))
        if total == 0.0:
            return 0.0
        mask = _step_up(self.grid.times(), 0.0, self.grid.dt) == 0.0
        return float(np.sum(np.abs(self.samples[mask]) ** 2) / total)


def _step_up(t: np.ndarray, edge: float, dt: float) -> np.ndarray:
    """Unit step with midpoint value where the edge lands on a grid point: within
    ``1e-9 dt`` of it, so that rounding in ``t_start + i dt`` does not move it across."""
    s = np.where(t > edge, 1.0, 0.0)
    s[np.abs(t - edge) <= 1e-9 * dt] = 0.5
    return s


def _mono(grid: TimeGrid, column: np.ndarray, channels: int, channel: int) -> Pulse:
    if not 0 <= channel < channels:
        raise ValueError(f"channel {channel} out of range for {channels} channels")
    samples = np.zeros((grid.n, channels), dtype=complex)
    samples[:, channel] = column
    return Pulse(grid=grid, samples=samples)


def gaussian_pulse(
    grid: TimeGrid, t0: float, sigma: float, channels: int = 1, channel: int = 0
) -> Pulse:
    """Unit-norm gaussian: ``(2 pi sigma^2)^(-1/4) exp(-(t-t0)^2 / (4 sigma^2))``."""
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    # Keeps sigma**2 a normal float: Python floats raise where it overflows or
    # underflows to zero.
    if not 1e-150 <= sigma <= 1e150:
        raise ValueError(f"sigma must lie in [1e-150, 1e150], got {sigma:g}")
    t = grid.times()
    # Far from t0 the square overflows to inf, and exp(-inf) is the right 0.
    with np.errstate(over="ignore"):
        col = (2.0 * np.pi * sigma**2) ** (-0.25) * np.exp(-((t - t0) ** 2) / (4.0 * sigma**2))
    return _mono(grid, col.astype(complex), channels, channel)


def decaying_exp_pulse(
    grid: TimeGrid, kappa: float, t_on: float = 0.0, channels: int = 1, channel: int = 0
) -> Pulse:
    """One-sided decay ``sqrt(kappa) exp(-kappa (t - t_on)/2)`` for ``t >= t_on``."""
    if not kappa > 0.0:
        raise ValueError("kappa must be positive")
    t = grid.times()
    # Clipped to the support, the exponent is never positive: the zero side gets
    # exp(0) times a zero step.  An exponent below the float range is -inf,
    # whose exp is the right 0.
    with np.errstate(over="ignore"):
        decay = np.exp(-0.5 * kappa * np.maximum(t - t_on, 0.0))
    col = np.sqrt(kappa) * decay * _step_up(t, t_on, grid.dt)
    return _mono(grid, col.astype(complex), channels, channel)


def rising_exp_pulse(
    grid: TimeGrid, kappa: float, omega_c: float, channels: int = 1, channel: int = 0
) -> Pulse:
    """Rising exponential with resonant phase, supported at ``t < 0``.

    ``xi(t) = -sqrt(kappa) exp((kappa/2 - i omega_c) t)`` up to ``t = 0``;
    this is the pulse whose spectrum cancels the zero of the matched
    two-level filter and fully excites the system.  Unit norm in the
    continuum.
    """
    if not kappa > 0.0:
        raise ValueError("kappa must be positive")
    # |omega_c t| is largest at the first sample of the support t <= 0.
    if not math.isfinite(omega_c * min(grid.t_start, 0.0)):
        raise ValueError(
            f"omega_c {omega_c:g} is too large for this grid: the phase omega_c*t overflows"
        )
    t = grid.times()
    # Clipped to the support as in decaying_exp_pulse.
    with np.errstate(over="ignore"):
        rise = np.exp((0.5 * kappa - 1j * omega_c) * np.minimum(t, 0.0))
    col = -np.sqrt(kappa) * rise * (1.0 - _step_up(t, 0.0, grid.dt))
    return _mono(grid, col, channels, channel)


def square_pulse(
    grid: TimeGrid, t0: float, t1: float, channels: int = 1, channel: int = 0
) -> Pulse:
    """Flat pulse of unit norm on ``[t0, t1]``."""
    if not t1 > t0:
        raise ValueError("square pulse needs t1 > t0")
    t = grid.times()
    col = (_step_up(t, t0, grid.dt) - _step_up(t, t1, grid.dt)) / np.sqrt(t1 - t0)
    return _mono(grid, col.astype(complex), channels, channel)


def _lorentzian_out_of_band(dt: float, kappa: float, center: float) -> float:
    """Fraction outside ``[-pi/dt, pi/dt)`` of the spectrum of a one-sided
    exponential of energy rate ``kappa``, ``|X(w)|^2 = kappa / (kappa^2/4 +
    (w - center)^2)``: one minus its arctan integral over the band, which is
    even in ``center``."""
    w = math.pi / dt
    inside = math.atan(2.0 * (w - center) / kappa) + math.atan(2.0 * (w + center) / kappa)
    return 1.0 - inside / math.pi


#: One row per analytic pulse kind: ``(builder, parameter names, defaults,
#: out_of_band)``.  ``defaults(grid, pole)`` gives every parameter a value
#: matched to the grid and to the pole ``a`` of the filter the pulse is shaped
#: through; the one-sided exponentials take the pole's rate, and
#: ``rising_exp`` its resonance too, so that it is the matched, fully absorbed
#: pulse.  ``out_of_band(dt, *params)`` is the energy fraction of the pulse's
#: continuum spectrum outside ``[-pi/dt, pi/dt)``, which sampling at step
#: ``dt`` aliases into the band: the Lorentzian of the exponentials (centred
#: at ``rising_exp``'s carrier), the gaussian's erfc, and for the square the
#: bound ``4 dt / (pi^2 (t1 - t0))`` from ``sin^2 <= 1`` in its sinc^2 tail.
#: The first row is the kind the command line shapes when none is named.
PULSE_KINDS = {
    "gaussian": (
        gaussian_pulse,
        ("t0", "sigma"),
        lambda grid, a: {"t0": grid.t_start + 0.25 * grid.span, "sigma": grid.span / 32.0},
        lambda dt, t0, sigma: math.erfc(math.sqrt(2.0) * math.pi * sigma / dt),
    ),
    "decaying_exp": (
        decaying_exp_pulse,
        ("kappa", "t_on"),
        lambda grid, a: {"kappa": 2.0 * abs(a.real), "t_on": 0.0},
        lambda dt, kappa, t_on: _lorentzian_out_of_band(dt, kappa, 0.0),
    ),
    "rising_exp": (
        rising_exp_pulse,
        ("kappa", "omega_c"),
        lambda grid, a: {"kappa": 2.0 * abs(a.real), "omega_c": -a.imag},
        lambda dt, kappa, omega_c: _lorentzian_out_of_band(dt, kappa, omega_c),
    ),
    "square": (
        square_pulse,
        ("t0", "t1"),
        lambda grid, a: {
            "t0": grid.t_start + 0.125 * grid.span,
            "t1": grid.t_start + 0.25 * grid.span,
        },
        lambda dt, t0, t1: min(1.0, 4.0 * dt / (math.pi**2 * (t1 - t0))),
    ),
}


@dataclass(frozen=True)
class PulseSpec:
    """Analytic pulse descriptor; materializes to samples on demand."""

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in PULSE_KINDS:
            raise ValueError(
                f"unknown pulse kind '{self.kind}'; choose from {sorted(PULSE_KINDS)}"
            )
        _, names, _, _ = PULSE_KINDS[self.kind]
        unknown = set(self.params) - set(names)
        if unknown:
            raise ValueError(f"unknown parameters for {self.kind}: {sorted(unknown)}")
        for name, value in self.params.items():
            if not math.isfinite(float(value)):
                raise ValueError(f"pulse parameter {name} must be finite, got {value}")

    def materialize(self, grid: TimeGrid, channels: int = 1, channel: int = 0) -> Pulse:
        """Sample this pulse on ``grid``.  Raises :class:`ValueError` when the
        grid does not hold it: the norm is off 1, or the spectrum aliases
        (:meth:`out_of_band_fraction`), by more than :data:`PULSE_NORM_TOL`."""
        builder, names, _, _ = PULSE_KINDS[self.kind]
        missing = [n for n in names if n not in self.params]
        if missing:
            raise ValueError(f"pulse kind {self.kind} needs parameters {missing}")
        args = [float(self.params[n]) for n in names]
        pulse = builder(grid, *args, channels=channels, channel=channel)
        norm = pulse.norm()
        if not abs(norm - 1.0) <= PULSE_NORM_TOL:
            raise ValueError(
                f"{self.kind} pulse has discrete norm {norm:.6g} on this grid, "
                f"off 1 by more than {PULSE_NORM_TOL}: the grid does not resolve it"
            )
        # The discrete norm cannot see a carrier past Nyquist: it aliases intact.
        leak = self.out_of_band_fraction(grid.dt)
        if not leak <= PULSE_NORM_TOL:
            raise ValueError(
                f"{self.kind} pulse has energy fraction {leak:.6g} outside the grid's band "
                f"[-pi/dt, pi/dt), more than {PULSE_NORM_TOL}: the grid does not resolve it"
            )
        return pulse

    def with_defaults(self, grid: TimeGrid, pole: complex) -> "PulseSpec":
        """This spec with each parameter it leaves out set by its kind's default rule."""
        _, _, defaults, _ = PULSE_KINDS[self.kind]
        return PulseSpec(self.kind, {**defaults(grid, pole), **self.params})

    def out_of_band_fraction(self, dt: float) -> float:
        """Energy fraction of this pulse's continuum spectrum outside the band
        ``[-pi/dt, pi/dt)`` of a grid of step ``dt``, by its kind's closed form."""
        _, names, _, out_of_band = PULSE_KINDS[self.kind]
        return out_of_band(dt, *(float(self.params[n]) for n in names))


def parse_pulse_spec(text: str) -> PulseSpec:
    """Parse ``kind`` or ``kind:name=value,name=value`` into a :class:`PulseSpec`."""
    kind, _, tail = text.partition(":")
    params = {}
    if tail:
        for item in tail.split(","):
            name, eq, value = item.partition("=")
            if not eq:
                raise ValueError(f"malformed pulse parameter '{item}' (expected name=value)")
            params[name.strip()] = float(value)
    return PulseSpec(kind=kind.strip(), params=params)


def _check_span(p: Pulse, f: PhotonTransfer) -> None:
    span = p.grid.span
    worst = 0.0
    for st in f.stages:
        # Kernel energy exp(2 Re(a) t) left beyond half the span (the other half
        # holds the input); a stage with theta or drive zero has no kernel.
        if np.any(st.theta) and np.any(st.drive) and np.exp(st.a.real * span) > TAIL_ENERGY_TOL:
            worst = max(worst, np.log(TAIL_ENERGY_TOL) / st.a.real)
    if worst > 0.0:
        raise GridSpanError(
            f"grid span {span:.6g} too short for the filter kernel to settle; "
            f"use a span of at least {worst:.6g}",
            suggested_span=worst,
        )


def _match_channels(p: Pulse, f: PhotonTransfer) -> None:
    if p.channels != f.channels:
        raise ValueError(
            f"pulse has {p.channels} channels but the filter has {f.channels}"
        )


def shape_fft(p: Pulse, f: PhotonTransfer) -> Pulse:
    """Shape a pulse through the filter in the frequency domain.

    Per FFT bin, :meth:`PhotonTransfer.apply` multiplies the whole input
    spectrum, feedthrough included, by ``G(i w)``.  Since the DFT is linear,
    the feedthrough part comes back as exactly ``S x``, up to rounding.
    Raises :class:`GridSpanError` when the kernel cannot settle on the grid.
    """
    _match_channels(p, f)
    _check_span(p, f)
    spec = f.apply(p.grid.omegas(), np.fft.fft(p.samples, axis=0))
    return Pulse(grid=p.grid, samples=np.fft.ifft(spec, axis=0))


def shape_ode(p: Pulse, f: PhotonTransfer) -> Pulse:
    """Shape a pulse through the filter by time-domain integration.

    Independent oracle for :func:`shape_fft`: every stage integrates its one
    scalar state ``eta' = a eta + drive . xi`` from rest with classical
    fourth-order fixed-step stepping (linear interpolation of the input
    between samples) and emits ``S xi + theta eta``.  The four RK4 stages are
    linear in ``eta[m]``, ``xi[m]`` and ``xi[m+1]``; expanded, a step is exactly
    ``eta[m+1] = r eta[m] + drive . (c0 xi[m] + c1 xi[m+1])`` with ``z = a dt``,
    ``r = 1 + q``, ``q = z + z^2/2 + z^3/6 + z^4/24``,
    ``c0 = dt (6 + 4z + 3z^2/2 + z^3/2) / 12`` and
    ``c1 = dt (6 + 2z + z^2/2) / 12`` (both ``dt/2``, the trapezoid rule,
    as ``z -> 0``).

    Each stage solves the recurrence from ``eta[0] = 0`` by a doubling scan
    (Kogge & Stone 1973; Blelloch 1990): starting from the inputs
    ``xi[m] . (c0 drive) + xi[m+1] . (c1 drive)``, the level of stride ``s``
    adds ``r^s`` times the partial sum ``s`` samples earlier, so ``log2(n)``
    whole-array levels replace ``n`` sequential steps.  Every output picks up
    one rounded power per level, an error of about ``log2(n) eps |eta|``.  The powers are
    carried as ``p_s = r^s - 1`` through ``p_2s = p_s (2 + p_s)``, apart from
    the 1: a rounded ``r = 1 + q`` keeps only the bits of ``q`` that fit
    beside 1, a relative error of ``eps / |z|`` in the decay per step, and
    squaring it would hand that error on to every power.
    """
    _match_channels(p, f)
    x = p.samples
    dt = p.grid.dt
    for st in f.stages:
        if abs(st.a) * dt > ODE_STEP_LIMIT:
            raise ValueError(
                f"time step too coarse for the stage pole: |a| dt = {abs(st.a) * dt:.3g} "
                f"> {ODE_STEP_LIMIT}; use a finer grid"
            )
        z = st.a * dt
        q = z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0
        c0 = dt * (6.0 + 4.0 * z + 1.5 * z**2 + 0.5 * z**3) / 12.0
        c1 = dt * (6.0 + 2.0 * z + 0.5 * z**2) / 12.0
        eta = np.zeros(x.shape[0], dtype=complex)
        b = eta[1:]  # b[m] becomes eta[m + 1]
        tmp = np.empty_like(b)
        x[:-1].dot(c0 * st.drive, out=b)
        b += x[1:].dot(c1 * st.drive, out=tmp)
        # After the level of stride s, b[m] sums the last 2s terms; p_s = r^s - 1.
        p_s, s = q, 1
        while s < b.shape[0]:
            np.multiply(b[:-s], 1.0 + p_s, out=tmp[:-s])
            b[s:] += tmp[:-s]
            p_s, s = p_s * (2.0 + p_s), 2 * s
        x = x.dot(st.S.T)
        x += np.multiply.outer(eta, st.theta)
    return Pulse(grid=p.grid, samples=x)


# ---------------------------------------------------------------------------
# CSV format: pulses as ``t,ch,re,im`` rows.  Values use fixed
# 17-significant-digit scientific notation for reproducible diffs.
# ---------------------------------------------------------------------------

#: Rows formatted per write by :func:`write_table`.  Whole-file joins cost
#: memory in proportion to the table; blocks keep that cost fixed at no loss
#: of speed.
TABLE_BLOCK_ROWS = 4096


def write_table(path, header: str, row: str, columns) -> None:
    r"""Write a CSV table to ``path``, or to standard output when ``path`` is None.

    ``row`` is a ``%``-style template for one line, such as
    ``"%.16e,%d,%.16e,%.16e\n"``, filled from the equal-length 1-D arrays in
    ``columns``.
    """
    cols = [np.asarray(c) for c in columns]
    with (
        contextlib.nullcontext(sys.stdout)
        if path is None
        else open(path, "w", encoding="utf-8", newline="")
    ) as fh:
        fh.write(header + "\n")
        for start in range(0, cols[0].size, TABLE_BLOCK_ROWS):
            block = zip(*(c[start : start + TABLE_BLOCK_ROWS].tolist() for c in cols))
            fh.write("".join(row % values for values in block))


def pulse_table(p: Pulse):
    """Header, row template and columns of the pulse CSV, for :func:`write_table`."""
    k = p.channels
    z = p.samples.reshape(-1)
    columns = (np.repeat(p.grid.times(), k), np.tile(np.arange(k), p.grid.n), z.real, z.imag)
    return "t,ch,re,im", "%.16e,%d,%.16e,%.16e\n", columns


def write_pulse_csv(p: Pulse, path) -> None:
    write_table(path, *pulse_table(p))


def read_pulse_csv(path) -> Pulse:
    """Read a pulse CSV: each ``(t, ch)`` row exactly once, ``ch >= 0``, uniform ``t``.

    Any other content raises :class:`ValueError`.
    """
    with open(path, "r", encoding="utf-8") as fh:
        if [h.strip() for h in fh.readline().split(",")] != ["t", "ch", "re", "im"]:
            raise ValueError("pulse CSV must start with header 't,ch,re,im'")
        lines = (line for line in fh if line.strip())
        first = next(lines, None)
        if first is None:
            raise ValueError("pulse CSV contains no samples")
        table = np.loadtxt(itertools.chain([first], lines), delimiter=",", ndmin=2)
    if table.shape[1] != 4:
        raise ValueError("pulse CSV rows must have four fields: t,ch,re,im")
    if not np.all(np.isfinite(table)):
        raise ValueError("pulse CSV values must be finite")
    ch = table[:, 1]
    if np.any(ch < 0) or np.any(ch != np.floor(ch)):
        raise ValueError("pulse CSV channel numbers must be integers >= 0")
    times, t_index = np.unique(table[:, 0], return_inverse=True)
    n = times.size
    channels = int(ch.max()) + 1
    if n < 2:
        raise ValueError("pulse CSV needs at least two time samples")
    rows = table.shape[0]
    key = t_index * channels + ch.astype(np.int64) if rows == n * channels else None
    if key is None or np.any(np.bincount(key) != 1):
        raise ValueError(
            f"pulse CSV must hold each (t, ch) row exactly once: {rows} rows "
            f"for {n} times x {channels} channels"
        )
    # Written times carry the rounding of t_start + i*dt, a few ulp of |t|;
    # over the whole span that error is divided by n - 1.
    dt = (times[-1] - times[0]) / (n - 1)
    slack = 1e-9 * dt + 16.0 * np.spacing(np.max(np.abs(times)))
    if np.any(np.abs(np.diff(times) - dt) > slack):
        raise ValueError("pulse CSV time grid is not uniform")
    grid = TimeGrid(t_start=float(times[0]), dt=float(dt), n=n)
    samples = np.empty(n * channels, dtype=complex)
    samples.real[key] = table[:, 2]
    samples.imag[key] = table[:, 3]
    return Pulse(grid=grid, samples=samples.reshape(n, channels))

