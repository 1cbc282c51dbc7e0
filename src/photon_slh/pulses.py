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
  ``eta' = a eta + drive . xi`` (``drive = h theta^dag S`` with the derived
  ``h = 2 Re(a) / |theta|^2``), exactly for an input linear between samples,
  and forms ``xi_out = S xi + theta eta``.  A step is the recurrence
  ``eta[m+1] = r eta[m] + drive . (c0 xi[m] + c1 xi[m+1])`` with scalars
  fixed by ``a dt``, solved for all samples at once by a log-depth doubling
  scan.

They approximate the same continuum result and serve as cross-oracles.
"""

from __future__ import annotations

import contextlib
import io
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
        builder, _, _, _ = PULSE_KINDS[self.kind]
        pulse = builder(grid, *self._values(), channels=channels, channel=channel)
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
        _, _, _, out_of_band = PULSE_KINDS[self.kind]
        return out_of_band(dt, *self._values())

    def _values(self) -> list:
        """The parameters in the order of the kind's names; each must be given."""
        _, names, _, _ = PULSE_KINDS[self.kind]
        missing = [n for n in names if n not in self.params]
        if missing:
            raise ValueError(f"pulse kind {self.kind} needs parameters {missing}")
        return [float(self.params[n]) for n in names]


def parse_pulse_spec(text: str) -> PulseSpec:
    """Parse ``kind`` or ``kind:name=value,name=value`` into a :class:`PulseSpec`."""
    kind, _, tail = text.partition(":")
    params = {}
    if tail:
        for item in tail.split(","):
            name, eq, value = item.partition("=")
            if not eq:
                raise ValueError(f"malformed pulse parameter '{item}' (expected name=value)")
            name = name.strip()
            if name in params:
                raise ValueError(f"pulse parameter {name} is given twice")
            try:
                params[name] = float(value)
            except ValueError:
                message = f"pulse parameter {name} must be a number, got {value!r}"
                raise ValueError(message) from None
    return PulseSpec(kind=kind.strip(), params=params)


def _check_span(p: Pulse, f: PhotonTransfer) -> None:
    span = p.grid.span
    # Kernel energy exp(2 Re(a) t) of the slowest pole left beyond half the
    # span (the other half holds the input).
    worst = np.log(TAIL_ENERGY_TOL) / max(st.a.real for st in f.stages)
    if span < worst:
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
    scalar state ``eta' = a eta + drive . xi`` from rest, with the input linear
    between samples, and emits ``S xi + theta eta``.  The step is exact at any
    ``z = a dt``, the first-order-hold exponential integrator (Hochbruck &
    Ostermann, Acta Numerica 19, 2010; Cox & Matthews, J. Comput. Phys. 176,
    2002): ``eta[m+1] = r eta[m] + drive . (c0 xi[m] + c1 xi[m+1])`` with
    ``r = e^z``, ``c0 = dt (phi1 - phi2)``, ``c1 = dt phi2``, ``phi1 = (e^z -
    1)/z`` and ``phi2 = (e^z - 1 - z)/z^2``.  Where these cancel, below
    ``|z| = 0.5``, ``phi2`` is its Taylor series (18 terms), ``q = r - 1 =
    z (1 + z phi2)`` and ``c0 = dt (1 + (z - 1) phi2)``; above, ``q =
    expm1(z)``, and ``c0`` and ``c1`` divide by ``z`` twice, so that ``z^2``
    cannot overflow.

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
        z = st.a * dt
        if abs(z) < 0.5:
            phi2 = sum(z**k / math.factorial(k + 2) for k in range(18))
            q = z * (1.0 + z * phi2)
            c0 = dt * (1.0 + (z - 1.0) * phi2)
        else:
            q = complex(np.expm1(z))
            phi2 = (q - z) / z / z
            c0 = dt * (1.0 + (q + 1.0) * (z - 1.0)) / z / z
        c1 = dt * phi2
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
# CSV format: pulses as ``t,ch,re,im`` rows.  A float is written as Python's
# ``"%.16e" % x`` writes it, 17 significant digits correctly rounded with ties
# to even, so files diff reproducibly and read back bit for bit; an integer as
# ``"%d"``.
#
# Python forms those digits one value at a time in bignum arithmetic (Gay,
# 1990), about a microsecond per value.  _e16_fields forms them for a whole
# column in float arithmetic.  For |x| in [1e-250, 1e250] take
# P = floor(log10 |x|) and y = |x| 10^(16-P): when 10^16 <= y < 10^17 the
# digits are round(y), with exponent P, or P + 1 where rounding reaches 10^17.
# 10^k is held as hi = RN(10^k) and lo = RN(10^k - hi), made from exact
# Python integers, so |10^k - hi - lo| <= u^2 10^k with u = 2^-53.  Dekker's
# product (Numer. Math. 18, 1971) splits |x| hi = p + e exactly; p >= 2^53 is
# an integer, and t = RN(e + RN(|x| lo)) splits exactly into floor(t) and
# f = t - floor(t), giving y ~ D + f with D = p + floor(t).  Its error is at
# most u^2 y (the pair) + u^2 y (|x| lo) + 2 u^2 y (t, |t| <= 2 u y), under
# 2^-47 for y < 2^57, so f rounds D as the exact fraction would unless
# |f - 1/2| <= 2^-44.  Where 10^k is a float (lo = 0, k = 0..22) t = e and f
# are exact, and a tie rounds D to even.  Zero is written directly.  Every
# other value goes, one by one, to Python's own ``"%.16e"``: not finite,
# subnormal or outside [1e-250, 1e250], a P that puts y outside
# [10^16, 10^17) (log10 near a power of ten), or f inside the band.
#
# The reader's half.  A file exactly in the writer's layout -- the header line,
# then only lines "F,D,F,F\n" with F as [-]d.dddddddddddddddde[+-]XX[X] and D as
# "%d" >= 0 -- is parsed by _layout_table in float arithmetic, block by block;
# any other file goes to np.loadtxt.  SWAR arithmetic (SIMD within a register:
# 8 ASCII digits per 64-bit word; Lemire, Softw. Pract. Exp. 51, 2021) checks
# each field's bytes and turns its 17 digits into an integer D < 10^17 and its
# exponent into E, so that the value is x = D 10^k, k = E - 16, rounded once.
# With dh = RN(D) and dl = D - dh (exact, |dl| <= u dh), Dekker's product gives
# dh hi = p + e exactly, and t = RN(RN(e + RN(dh lo)) + RN(dl hi)), |t| <= 3u p.
# The four roundings in t (7 u^2 p), the neglected dl lo (u^2 p) and the pair's
# error (u^2 x) put p + t within 2^-102 x of x.  So r = RN(p + t) is RN(x)
# unless a half between doubles lies that close to p + t.  Fast2Sum gives the
# residual p + t - r exactly, and where its size comes within 2^-100 r of half
# an ulp of r (a quarter where r is a power of two: the half below it), the
# value goes to Python's float(), which rounds as loadtxt does; an exact half
# always does.  So does every E outside [-218, 250], the exponents whose 10^k
# _POW10 holds with every product normal.  Zero is set directly, with its sign.
# ---------------------------------------------------------------------------

#: Rows formatted per write by :func:`write_table`.  A block is formatted as
#: whole arrays, with a few hundred bytes of temporaries per row; blocks keep
#: that memory fixed, whatever the length of the table, and at this size the
#: cost per numpy call is already small against the work.
TABLE_BLOCK_ROWS = 4096

#: Magnitudes whose digits _e16_fields forms itself, and the half-width of the
#: band around a half where it leaves the rounding to Python.
_E16_RANGE = (1e-250, 1e250)
_E16_BAND = 2.0**-44

#: 10^k as (hi, lo) for k = 16 - P, P = floor(log10 |x|) in [-251, 250], at
#: index k - _K_MIN; a column is filled the first time its k is met.
_K_MIN = 16 - 250
_POW10 = np.full((2, 502), np.nan)

#: Pieces of a field, whose NUL bytes are dropped on output: sign, lead digit
#: and point as one 4-byte word (index lead + 10 if negative); "0000".."9999"
#: as words; "e-251".."e+251" as 8-byte words.
_HEAD = np.frombuffer(b"".join(b"%c%d.\0" % (s, d) for s in (0, 45) for d in range(10)), np.uint32)
_DIGITS4 = np.ascontiguousarray(48 + np.indices((10,) * 4, np.uint8).reshape(4, -1).T)
_DIGITS4 = _DIGITS4.view(np.uint32).ravel()
_EXPONENTS = np.frombuffer(
    b"".join((b"e%+03d" % e).ljust(8, b"\0") for e in range(-251, 252)), np.uint64
)

#: The header line of a pulse CSV.
_PULSE_HEADER = "t,ch,re,im"

#: Bytes read per block by _layout_table, cut back to a line end: some 3500
#: rows of the writer's layout, whose lines are at most _LINE_MAX bytes long
#: (three 24-byte floats, an 8-digit channel, three commas and the newline).
_READ_BLOCK_BYTES = 64 * TABLE_BLOCK_ROWS
_LINE_MAX = 3 * 24 + 8 + 4

#: Exponents E whose values _layout_floats forms itself, and its band around a
#: half, relative to the value.
_E_RANGE = (-218, 250)
_READ_BAND = 2.0**-100

#: Per width w = 0..8 of a channel field, the "0"s that pad it to 8 digits on
#: the left, as a little-endian word.
_CH_PAD = np.array([int.from_bytes(b"0" * (8 - w) + b"\0" * w, "little") for w in range(9)],
                   np.uint64)


def _split(v):
    """Veltkamp's split of ``v`` into two halves of 26 bits."""
    c = 134217729.0 * v
    high = c - (c - v)
    return high, v - high


def _pow10_pair(k: int):
    """``(RN(10^k), RN(10^k - RN(10^k)))``, from exact integers."""
    num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
    hi = num / den  # int / int is correctly rounded
    p, q = hi.as_integer_ratio()
    return hi, (num * q - p * den) / (den * q)


def _pow10(k: np.ndarray):
    """``(hi, lo)`` of 10^k for each k of the integer array ``k``, from _POW10."""
    hi, lo = _POW10.take(k - _K_MIN, axis=1)
    if np.isnan(hi).any():
        for j in np.unique(k[np.isnan(hi)]).tolist():
            _POW10[:, j - _K_MIN] = _pow10_pair(j)
        hi, lo = _POW10.take(k - _K_MIN, axis=1)
    return hi, lo


def _e16_fields(x: np.ndarray) -> np.ndarray:
    """``"%.16e" % v`` of each value of the float64 vector ``x``, as rows of
    32 bytes padded with NULs (see the section comment)."""
    a = np.abs(x)
    fast = (a >= _E16_RANGE[0]) & (a <= _E16_RANGE[1])
    a[~fast] = 1.0
    p10 = np.floor(np.log10(a))
    hi, lo = _pow10((16.0 - p10).astype(np.intp))
    p = a * hi
    a1, a2 = _split(a)
    h1, h2 = _split(hi)
    t = a1 * h1 - p + a1 * h2 + a2 * h1 + a2 * h2 + a * lo
    floor_t = np.floor(t)
    f = t - floor_t
    fast &= (p >= 2.0**53) & (p < 2.0**57)
    p[~fast] = 0.0
    d = p.astype(np.int64) + floor_t.astype(np.int64)
    fast &= (d >= 10**16) & (d < 10**17) & ((lo == 0.0) | (np.abs(f - 0.5) > _E16_BAND))
    d += (f > 0.5) | ((f == 0.5) & (d & 1 == 1))
    # np.log10 is not correctly rounded on every platform: one below P carries here.
    up = d == 10**17
    d[up] = 10**16
    e = p10.astype(np.intp) + up
    d[~fast] = 0  # zero's digits; the other values left out are overwritten below
    e[~fast] = 0
    out = np.zeros((x.size, 32), np.uint8)
    words = out.view(np.uint32)
    lead = d // 10**16
    d -= lead * 10**16
    words[:, 0] = _HEAD.take(lead + 10 * np.signbit(x))
    for i, scale in enumerate((10**12, 10**8, 10**4, 1)):
        group = d // scale
        d -= group * scale
        words[:, 1 + i] = _DIGITS4.take(group)
    out.view(np.uint64)[:, 3] = _EXPONENTS.take(e + 251)
    slow = np.flatnonzero(~fast & (x != 0.0))
    if slow.size:
        text = np.array([b"%.16e" % v for v in x[slow].tolist()], dtype="S32")
        out[slow] = text.view(np.uint8).reshape(slow.size, 32)
    return out


def _d_fields(column: np.ndarray) -> np.ndarray:
    """``"%d" % v`` of each value of the integer vector ``column``, as
    NUL-padded rows."""
    values, index = np.unique(column, return_inverse=True)
    text = np.array([b"%d" % v for v in values.tolist()])
    return text.view(np.uint8).reshape(values.size, -1)[index]


def _table_text(columns) -> str:
    """The CSV lines of equal-length 1-D float and integer ``columns``."""
    fields = []
    for c in columns:
        if c.dtype.kind == "f":
            fields.append(_e16_fields(c.astype(np.float64, copy=False)))
        elif c.dtype.kind in "iu":
            fields.append(_d_fields(c))
        else:
            raise TypeError(f"table columns must hold floats or integers, not {c.dtype}")
        fields.append(np.full((c.size, 1), ord(","), np.uint8))
    fields[-1] = np.full((columns[0].size, 1), ord("\n"), np.uint8)
    return np.concatenate(fields, axis=1).tobytes().translate(None, b"\0").decode("ascii")


def write_table(path, header: str, blocks) -> None:
    """Write a CSV table to ``path``, or to standard output when ``path`` is None.

    ``blocks`` yields the table's rows in order, each block a sequence of
    equal-length 1-D arrays, one per column.  A float column is written as
    ``"%.16e"``, an integer one as ``"%d"``, byte for byte as Python's ``%``.
    """
    with (
        contextlib.nullcontext(sys.stdout)
        if path is None
        else open(path, "w", encoding="utf-8", newline="")
    ) as fh:
        fh.write(header + "\n")
        for block in blocks:
            cols = [np.asarray(c) for c in block]
            for start in range(0, cols[0].size, TABLE_BLOCK_ROWS):
                fh.write(_table_text([c[start : start + TABLE_BLOCK_ROWS] for c in cols]))


def pulse_table(p: Pulse):
    """Header and column blocks of the pulse CSV, for :func:`write_table`.

    Each block is made as it is written, so that no column of the whole table
    is held; its times are ``t_start + dt * i`` as :meth:`TimeGrid.times` forms them."""
    k, grid = p.channels, p.grid
    step = max(1, TABLE_BLOCK_ROWS // k)

    def blocks():
        for start in range(0, grid.n, step):
            z = p.samples[start : start + step].reshape(-1)
            t = grid.t_start + grid.dt * np.arange(start, start + z.size // k)
            yield np.repeat(t, k), np.tile(np.arange(k), t.size), z.real, z.imag

    return _PULSE_HEADER, blocks()


def write_pulse_csv(p: Pulse, path) -> None:
    write_table(path, *pulse_table(p))


def _eight_digits(w: np.ndarray):
    """The value of the 8 ASCII digits in each little-endian uint64 word of ``w``,
    its first digit in the lowest byte, and whether the word holds only digits."""
    high = 0xF0F0F0F0F0F0F0F0
    ok = (w & high) | (((w + 0x0606060606060606) & high) >> 4) == 0x3333333333333333
    v = w - 0x3030303030303030
    v = v * 10 + (v >> 8)  # digit pairs
    low = 0x000000FF000000FF
    v = (v & low) * (100 + (1000000 << 32)) + ((v >> 16) & low) * (1 + (10000 << 32))
    return v >> 32, ok


def _layout_floats(b: np.ndarray, words: np.ndarray, start: np.ndarray, end: np.ndarray):
    """The values of the fields ``b[start:end]`` written as ``"%.16e"``, or None if
    one is not in that form.  ``words[i]`` is the 8 bytes of ``b`` from ``i``."""
    neg = b[start] == ord("-")
    s = start + neg
    wide = end - s - 22  # 1 for a 3-digit exponent
    if np.any((wide != 0) & (wide != 1)):
        return None
    head, mid, tail = words[s], words[s + 8], words[s + 16]
    # Digits only: "d.dddddd" as "0ddddddd", "dde+XX," as "dd000XX0", "dde+XXX" as "dd00XXX0".
    a, ok = _eight_digits((head & 0xFFFFFFFFFFFF0000) | ((head & 0xFF) << 8) | 0x30)
    m, ok_m = _eight_digits(mid)
    exponent = np.where(
        wide == 1,
        (tail & 0x00FFFFFF00000000) | 0x3000000030300000,
        ((tail & 0x0000FFFF00000000) << 8) | 0x3000003030300000,
    )
    c, ok_c = _eight_digits(exponent | (tail & 0xFFFF))
    sign = (tail >> 24) & 0xFF
    ok &= ok_m & ok_c & ((head >> 8) & 0xFF == ord(".")) & ((tail >> 16) & 0xFF == ord("e"))
    if not (ok & ((sign == ord("+")) | (sign == ord("-")))).all():
        return None
    lead = c // 10**6
    d = (a * 10**10 + m * 100 + lead).astype(np.int64)
    e = ((c - lead * 10**6) // 10).astype(np.int64) * (44 - sign.astype(np.int64))  # "+" 43, "-" 45
    hi, lo = _pow10(np.clip(e, *_E_RANGE) - 16)
    dh = d.astype(np.float64)
    dl = (d - dh.astype(np.int64)).astype(np.float64)
    p = dh * hi
    d1, d2 = _split(dh)
    h1, h2 = _split(hi)
    t = d1 * h1 - p + d1 * h2 + d2 * h1 + d2 * h2 + dh * lo + dl * hi
    r = p + t  # +0.0 where D = 0
    err = t - (r - p)
    bits = r.view(np.uint64)
    # Half an ulp of r, or a quarter where r is a power of two: the nearer half.
    half = (bits & 0x7FF0000000000000).view(np.float64) * 2.0**-53
    half *= 1.0 - 0.5 * ((bits & (2**52 - 1)) == 0)
    slow = (np.abs(err) + _READ_BAND * r >= half) | (e < _E_RANGE[0]) | (e > _E_RANGE[1])
    bits |= neg.astype(np.uint64) << 63
    for i in np.flatnonzero(slow & (d != 0)).tolist():
        r[i] = float(b[start[i] : end[i]].tobytes())
    return r


def _layout_block(b: np.ndarray, words: np.ndarray):
    """The rows t, ch, re, im of the lines ``b``, each ending in a newline, as a
    ``(lines, 4)`` array, or None if a byte is outside the writer's layout.
    ``words[i]`` is the 8 bytes of ``b`` from ``i``."""
    ends = np.flatnonzero(b == ord("\n"))
    commas = np.flatnonzero(b == ord(","))
    if commas.size != 3 * ends.size:
        return None
    commas = commas.reshape(-1, 3)
    starts = np.concatenate(([0], ends[:-1] + 1))
    if np.any(commas[:, 0] < starts) or np.any(commas[:, 2] > ends):
        return None  # a line without exactly three commas
    first = commas[:, 0] + 1
    width = commas[:, 1] - first
    if np.any((width < 1) | (width > 8)):
        return None
    ch, ok = _eight_digits((words[first] << (8 * (8 - width)).astype(np.uint64)) | _CH_PAD[width])
    if not ok.all():
        return None
    x = _layout_floats(
        b, words,
        np.concatenate((starts, commas[:, 1] + 1, commas[:, 2] + 1)),
        np.concatenate((commas[:, 0], commas[:, 2], ends)),
    )
    if x is None:
        return None
    return np.column_stack((x[: ends.size], ch, x[ends.size : 2 * ends.size], x[2 * ends.size :]))


def _layout_table(fh):
    """The ``(rows, 4)`` table of the pulse CSV open as ``fh``, binary and at its
    start, or None unless every byte of it is in the writer's layout (see the
    section comment)."""
    header = _PULSE_HEADER.encode() + b"\n"
    if fh.read(len(header)) != header:
        return None
    # A block is read into buf, whose 8 spare bytes let a word start at any of
    # its bytes; the part of a line at its end is moved to its start for the next.
    buf = np.zeros(_READ_BLOCK_BYTES + 8, np.uint8)
    words = np.ndarray((buf.size - 7,), "<u8", buf, strides=(1,))
    blocks, held = [], 0
    while n := fh.readinto(memoryview(buf)[held:_READ_BLOCK_BYTES]):
        end = held + n
        last = max(0, end - _LINE_MAX)  # in the layout, a line ends in buf[last:end]
        newlines = np.flatnonzero(buf[last:end] == ord("\n"))
        if newlines.size == 0:
            return None
        stop = last + int(newlines[-1]) + 1
        rows = _layout_block(buf[:stop], words)
        if rows is None:
            return None
        blocks.append(rows)
        held = end - stop
        buf[:held] = buf[stop:end]
    return np.concatenate(blocks) if blocks and not held else None


def _read_table(path) -> np.ndarray:
    """The ``(rows, fields)`` float table of a pulse CSV: by _layout_table when the
    file is in the writer's layout, else by np.loadtxt over its non-blank lines,
    read from the start again (a file that cannot seek goes to np.loadtxt alone)."""
    with open(path, "rb") as fh:
        if fh.seekable():
            table = _layout_table(fh)
            if table is not None:
                return table
            fh.seek(0)
        with io.TextIOWrapper(fh, encoding="utf-8") as text:
            if [h.strip() for h in text.readline().split(",")] != _PULSE_HEADER.split(","):
                raise ValueError(f"pulse CSV must start with header '{_PULSE_HEADER}'")
            lines = (line for line in text if line.strip())
            first = next(lines, None)
            if first is None:
                raise ValueError("pulse CSV contains no samples")
            return np.loadtxt(itertools.chain([first], lines), delimiter=",", ndmin=2)


def read_pulse_csv(path) -> Pulse:
    """Read a pulse CSV: each ``(t, ch)`` row exactly once, ``ch >= 0``, uniform ``t``,
    and a finite energy ``sum |x|^2 dt``.

    Any other content raises :class:`ValueError`.
    """
    table = _read_table(path)
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
    p = Pulse(grid=grid, samples=samples.reshape(n, channels))
    with np.errstate(over="ignore"):
        if not math.isfinite(p.norm()):
            raise ValueError("pulse CSV energy sum |x|^2 dt is not finite")
    return p

