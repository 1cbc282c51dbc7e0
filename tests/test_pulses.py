import cmath
import contextlib
import io
import math
import os
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from photon_slh import (
    FilterStage,
    GridSpanError,
    PhotonTransfer,
    Pulse,
    PulseSpec,
    TimeGrid,
    decaying_exp_pulse,
    from_model,
    gaussian_pulse,
    read_pulse_csv,
    rising_exp_pulse,
    shape_fft,
    shape_ode,
    square_pulse,
    write_pulse_csv,
)
from photon_slh import pulses
from photon_slh.pulses import PULSE_KINDS, TABLE_BLOCK_ROWS, parse_pulse_spec, write_table
from conftest import (
    BS50,
    SWAP,
    dense_kernel,
    fourier,
    haar_unitary,
    inverse_fourier,
    two_channel_model,
    two_level_model,
)


def offset_grid(span: float, log2_n: int = 14) -> TimeGrid:
    # half-sample offset keeps jump discontinuities between samples
    n = 2**log2_n
    dt = span / n
    return TimeGrid(t_start=-span / 2.0 + dt / 2.0, dt=dt, n=n)


@st.composite
def grid_arguments(draw):
    t_start = draw(st.floats())
    n = 2 ** draw(st.integers(1, 12))
    if draw(st.booleans()):
        dt = draw(st.floats())
    else:
        # a few ulp of t_start, where the sample times collapse
        far = abs(t_start) if math.isfinite(t_start) else 1.0
        dt = draw(st.floats(0.5, 64.0)) * math.ulp(far) * draw(st.sampled_from([1, n]))
    return t_start, dt, n


class TestTimeGrid:
    @settings(max_examples=500, deadline=None)
    @given(args=grid_arguments())
    def test_accepted_grids_have_increasing_times(self, args):
        try:
            grid = TimeGrid(*args)
        except ValueError:
            return
        t = grid.times()
        assert np.all(np.isfinite(t))
        assert np.all(np.diff(t) > 0.0)

    def test_power_of_two_enforced(self):
        with pytest.raises(ValueError, match="power of two"):
            TimeGrid(t_start=0.0, dt=0.1, n=1000)

    def test_positive_dt(self):
        with pytest.raises(ValueError, match="dt"):
            TimeGrid(t_start=0.0, dt=0.0, n=16)

    def test_times_and_span(self):
        g = TimeGrid(t_start=-1.0, dt=0.25, n=8)
        assert g.span == 2.0
        assert np.array_equal(g.times(), -1.0 + 0.25 * np.arange(8))


class TestPulse:
    @pytest.mark.parametrize(
        "samples, message",
        [
            (np.zeros(8), r"^samples must have shape \(n, K\) with n=16, got \(8, 1\)$"),
            (np.zeros((16, 1, 1)),
             r"^samples must have shape \(n, K\) with n=16, got \(16, 1, 1\)$"),
            (np.full((16, 2), complex(0.0, np.inf)), r"^pulse samples must be finite$"),
        ],
        ids=["short", "three-dimensional", "infinite"],
    )
    def test_samples_refused(self, samples, message):
        with pytest.raises(ValueError, match=message):
            Pulse(grid=TimeGrid(t_start=0.0, dt=0.5, n=16), samples=samples)

    def test_constructor_copies(self, rng):
        arr = rng.normal(size=(16, 2)) + 1j * rng.normal(size=(16, 2))
        p = Pulse(grid=TimeGrid(t_start=0.0, dt=0.5, n=16), samples=arr)
        assert not np.shares_memory(p.samples, arr)
        assert arr.flags.writeable and not p.samples.flags.writeable
        arr[0, 0] = 7.0
        assert p.samples[0, 0] != 7.0

    @pytest.mark.parametrize("channels", [1, 2])
    def test_shaping_returns_arrays_of_its_own(self, rng, channels):
        f = from_model(two_level_model(1.0, 0.5) if channels == 1
                       else two_channel_model(1.0, 0.6, 0.3))
        f = PhotonTransfer(stages=f.stages * 2)
        p = gaussian_pulse(offset_grid(60.0, 13), t0=-8.0, sigma=1.2, channels=channels)
        before = p.samples.copy()
        outputs = [shape_fft(p, f).samples, shape_ode(p, f).samples]
        for out in outputs:
            assert not out.flags.writeable
            assert not np.shares_memory(out, p.samples)
        assert not np.shares_memory(*outputs)
        assert np.array_equal(p.samples, before)


class TestFactories:
    def test_gaussian_norm(self):
        g = gaussian_pulse(offset_grid(40.0), t0=-3.0, sigma=1.0)
        assert g.norm() == pytest.approx(1.0, abs=1e-12)

    def test_rising_exp_discrete_norm(self):
        kappa = 1.3
        p = rising_exp_pulse(offset_grid(40.0 / kappa), kappa, omega_c=0.7)
        assert abs(p.norm() - 1.0) < 1e-6

    def test_rising_exp_endpoint_value(self):
        kappa = 1.0
        grid = offset_grid(40.0)
        p = rising_exp_pulse(grid, kappa, omega_c=0.0)
        t = grid.times()
        last_neg = np.flatnonzero(t < 0)[-1]
        assert p.samples[last_neg, 0] == pytest.approx(
            -np.sqrt(kappa) * np.exp(0.5 * kappa * t[last_neg]), abs=1e-12
        )
        assert np.all(p.samples[t > 0, 0] == 0.0)

    def test_on_grid_jump_uses_midpoint_value(self):
        kappa = 1.0
        grid = TimeGrid(t_start=-8.0, dt=8.0 / 1024, n=2048)  # t = 0 on the grid
        p = rising_exp_pulse(grid, kappa, omega_c=0.0)
        i0 = np.argmin(np.abs(grid.times()))
        assert p.samples[i0, 0] == pytest.approx(-0.5 * np.sqrt(kappa))

    def test_decaying_exp_norm(self):
        kappa = 0.8
        p = decaying_exp_pulse(offset_grid(80.0 / kappa), kappa, t_on=0.0)
        assert abs(p.norm() - 1.0) < 1e-6

    @pytest.mark.parametrize(
        "build, formula, support",
        [
            (lambda g: rising_exp_pulse(g, 60.0, 0.0),
             lambda t: -np.sqrt(60.0) * np.exp((0.5 * 60.0 - 1j * 0.0) * t), lambda t: t < 0.0),
            (lambda g: decaying_exp_pulse(g, 60.0, t_on=5.0),
             lambda t: np.sqrt(60.0) * np.exp(-0.5 * 60.0 * (t - 5.0)), lambda t: t > 5.0),
        ],
        ids=["rising", "decaying"],
    )
    def test_steep_exponential_is_evaluated_on_its_support(self, build, formula, support):
        # The default grid of a kappa = 1 model holds a kappa = 60 pulse, but exp on
        # the zero side of the jump overflows there (a RuntimeWarning fails the test).
        grid = TimeGrid(t_start=-24.0, dt=48.0 / 2**14, n=2**14)
        p = build(grid)
        t = grid.times()
        on = support(t)
        assert np.array_equal(p.samples[on, 0], formula(t[on]))
        assert np.count_nonzero(p.samples[~on, 0]) <= 1  # the midpoint sample of the jump
        assert p.norm() == pytest.approx(1.0, abs=0.05)

    @settings(max_examples=300, deadline=None)
    @given(
        kappa=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        shift=st.floats(allow_nan=False, allow_infinity=False),
        rising=st.booleans(),
    )
    def test_one_sided_exponential_never_warns(self, kappa, shift, rising):
        # Any finite parameters give a finite pulse or a ValueError, without a
        # RuntimeWarning (pytest turns warnings into errors).  The one refusal is
        # a rising phase omega_c * t past the float range, at t = -24.
        grid = TimeGrid(t_start=-24.0, dt=48.0 / 2**10, n=2**10)
        overflows = rising and not math.isfinite(shift * -24.0)
        try:
            if rising:
                p = rising_exp_pulse(grid, kappa, omega_c=shift)
            else:
                p = decaying_exp_pulse(grid, kappa, t_on=shift)
        except ValueError as exc:
            assert overflows
            assert str(exc) == (
                f"omega_c {shift:g} is too large for this grid: the phase omega_c*t overflows"
            )
            return
        assert not overflows
        assert np.all(np.isfinite(p.samples))

    @pytest.mark.parametrize("omega_c", [1e308, -1e308, 8e306])
    def test_rising_phase_overflow_names_omega_c(self, omega_c):
        grid = TimeGrid(t_start=-24.0, dt=48.0 / 2**10, n=2**10)
        with pytest.raises(ValueError, match=r"^omega_c .* is too large for this grid"):
            rising_exp_pulse(grid, 1.0, omega_c=omega_c)

    def test_rising_phase_at_the_float_limit_is_sampled(self):
        # On a grid that starts at t = 0 the support is one sample: no phase to overflow.
        p = rising_exp_pulse(TimeGrid(t_start=0.0, dt=0.25, n=2**8), 4.0, omega_c=1e308)
        assert p.samples[0, 0] == -1.0 and not np.any(p.samples[1:])
        # Just inside the float range the phase is finite and the pulse is sampled.
        grid = TimeGrid(t_start=-1.0, dt=2.0 / 2**8, n=2**8)
        assert np.all(np.isfinite(rising_exp_pulse(grid, 4.0, omega_c=1e308).samples))

    @pytest.mark.parametrize("t0", [1e200, -1e200, 1e308])
    def test_far_gaussian_is_zero_without_warning(self, t0):
        # (t - t0)**2 overflows to inf; exp(-inf) is the right 0 (a RuntimeWarning
        # fails the test).
        p = gaussian_pulse(offset_grid(48.0, log2_n=10), t0=t0, sigma=1.0)
        assert not np.any(p.samples)

    def test_sample_at_zero_is_on_the_cut(self):
        # The decaying pulse's edge sample (its midpoint value) is on the cut
        # whether its time rounds to 0 or to -1e-13.
        for t_start in (-5.12, -5.12 - 1e-13):
            p = decaying_exp_pulse(TimeGrid(t_start, 0.01, 1024), 1.0)
            assert p.energy_fraction_before() == 0.0

    def test_square_norm(self):
        grid = offset_grid(16.0, log2_n=10)
        p = square_pulse(grid, -4.0, 2.0)
        assert p.norm() == pytest.approx(1.0, abs=1e-9)

    def test_two_channel_pulse_normalized_from_one_channel(self):
        p = gaussian_pulse(offset_grid(40.0), t0=0.0, sigma=1.0, channels=2, channel=0)
        assert p.channels == 2
        assert np.all(p.samples[:, 1] == 0.0)
        assert p.norm() == pytest.approx(1.0, abs=1e-12)

    def test_channel_out_of_range(self):
        with pytest.raises(ValueError, match="channel"):
            gaussian_pulse(offset_grid(10.0, 8), 0.0, 1.0, channels=2, channel=2)


def _outside_band(spec: PulseSpec, dt: float) -> float:
    """Energy fraction of ``spec``'s spectrum outside ``[-pi/dt, pi/dt)``, by
    quadrature on a grid 64 times finer than ``dt`` around t = 0."""
    fine = TimeGrid(t_start=-2**10 * dt + dt / 128, dt=dt / 64, n=2**17)
    w, x = fourier(spec.materialize(fine))
    e = np.abs(x[:, 0]) ** 2
    return float(np.sum(e[(w < -np.pi / dt) | (w >= np.pi / dt)]) / np.sum(e))


class TestPulseSpec:
    def test_materialize_is_idempotent(self):
        spec = PulseSpec(kind="gaussian", params={"t0": -1.0, "sigma": 0.5})
        grid = offset_grid(20.0, 10)
        first = spec.materialize(grid)
        second = spec.materialize(grid)
        assert np.array_equal(first.samples, second.samples)

    def test_materialize_refuses_a_carrier_past_the_band(self):
        # The default shape grid of a two-level model with kappa = 0.01: span
        # 24/|Re a| = 4800 over 2^14 samples, centred.  The matched pulse's carrier
        # 11 lies past pi/dt = 10.7 and aliases, at a discrete norm of 1.
        grid = TimeGrid(t_start=-2400.0, dt=4800.0 / 2**14, n=2**14)
        spec = PulseSpec("rising_exp", {"kappa": 0.01, "omega_c": 11.0})
        with pytest.raises(ValueError) as err:
            spec.materialize(grid)
        assert str(err.value) == (
            "rising_exp pulse has energy fraction 0.994322 outside the grid's band "
            "[-pi/dt, pi/dt), more than 0.05: the grid does not resolve it"
        )

    def test_materialize_refuses_a_pulse_off_the_grid(self):
        spec = PulseSpec("gaussian", {"t0": 1e200, "sigma": 1.0})
        with pytest.raises(ValueError) as err:
            spec.materialize(offset_grid(48.0, 10))
        assert str(err.value) == (
            "gaussian pulse has discrete norm 0 on this grid, "
            "off 1 by more than 0.05: the grid does not resolve it"
        )

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown pulse kind"):
            PulseSpec(kind="triangle")

    def test_unknown_params(self):
        with pytest.raises(ValueError, match=r"^unknown parameters for square: \['sigma', 't2'\]$"):
            PulseSpec(kind="square", params={"t0": 0.0, "t2": 1.0, "sigma": 1.0})

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_params_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="pulse parameter sigma must be finite"):
            PulseSpec(kind="gaussian", params={"t0": 0.0, "sigma": bad})

    def test_missing_params(self):
        with pytest.raises(ValueError, match="needs parameters"):
            PulseSpec(kind="gaussian").materialize(offset_grid(10.0, 8))

    @pytest.mark.parametrize("kind", sorted(PULSE_KINDS))
    @pytest.mark.parametrize("given", [0, 1])
    def test_missing_params_refused_alike(self, kind, given):
        # out_of_band_fraction once raised KeyError where materialize raised this
        names = PULSE_KINDS[kind][1]
        spec = PulseSpec(kind, {name: 1.0 for name in names[:given]})
        message = f"pulse kind {kind} needs parameters {list(names[given:])}"
        with pytest.raises(ValueError) as by_materialize:
            spec.materialize(offset_grid(10.0, 8))
        with pytest.raises(ValueError) as by_band:
            spec.out_of_band_fraction(0.1)
        assert str(by_materialize.value) == str(by_band.value) == message

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("gaussian", {"t0": 0.3, "sigma": 0.02}),
            ("gaussian", {"t0": 0.3, "sigma": 0.04}),
            ("decaying_exp", {"kappa": 10.0, "t_on": 0.0}),
            ("decaying_exp", {"kappa": 2.0, "t_on": 0.0}),
            ("rising_exp", {"kappa": 5.0, "omega_c": 0.9 * np.pi / 0.1}),
            ("rising_exp", {"kappa": 5.0, "omega_c": -1.2 * np.pi / 0.1}),  # carrier past Nyquist
        ],
    )
    def test_out_of_band_fraction_matches_spectrum(self, kind, params):
        # What lies past the fine grid's own band (under 1e-3 here) is the slack.
        spec = PulseSpec(kind, params)
        assert spec.out_of_band_fraction(0.1) == pytest.approx(_outside_band(spec, 0.1), abs=1e-3)

    @pytest.mark.parametrize("t1", [0.2, 1.0])
    def test_square_out_of_band_fraction_is_a_bound(self, t1):
        # sin^2 <= 1 in the sinc^2 tail: twice its mean, so the bound is about twice the truth
        spec = PulseSpec("square", {"t0": -0.1, "t1": t1})
        outside = _outside_band(spec, 0.1)
        assert outside <= spec.out_of_band_fraction(0.1) <= 2.2 * outside

    def test_parse_round_trip(self):
        spec = parse_pulse_spec("rising_exp:kappa=2.0,omega_c=-1.5")
        assert spec.kind == "rising_exp"
        assert spec.params == {"kappa": 2.0, "omega_c": -1.5}

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError, match="name=value"):
            parse_pulse_spec("gaussian:t0")

    def test_parse_rejects_repeated_name(self):
        with pytest.raises(ValueError, match="^pulse parameter sigma is given twice$"):
            parse_pulse_spec("gaussian:sigma=1,sigma=2")

    @pytest.mark.parametrize("value", ["abc", "", "0x10", "1e"])
    def test_parse_names_a_non_number(self, value):
        message = f"^pulse parameter t0 must be a number, got '{value}'$"
        with pytest.raises(ValueError, match=message):
            parse_pulse_spec(f"square:t0={value},t1=2")


class TestFourier:
    # conftest's transform pair is the reference of the spectrum and
    # kernel-inversion tests, so it is checked here too
    def test_centered_gaussian_spectrum_is_real(self):
        grid = TimeGrid(t_start=-20.0, dt=40.0 / 2**14, n=2**14)
        p = gaussian_pulse(grid, t0=0.0, sigma=1.0)
        _, spec = fourier(p)
        peak = np.max(np.abs(spec))
        assert np.max(np.abs(spec.imag)) < 1e-10 * peak
        assert np.min(spec.real) > -1e-10 * peak

    def test_rising_exp_spectrum_matches_closed_form(self):
        kappa, wc = 1.0, 0.6
        p = rising_exp_pulse(offset_grid(40.0 / kappa), kappa, wc)
        w, spec = fourier(p)
        window = np.abs(w + wc) <= 10.0 * kappa
        closed = np.sqrt(kappa) / (-0.5 * kappa + 1j * (w[window] + wc))
        got = spec[window, 0]
        assert np.max(np.abs(got - closed) / np.abs(closed)) < 1e-4

    def test_parseval(self, rng):
        grid = offset_grid(30.0, 12)
        p = gaussian_pulse(grid, t0=2.0, sigma=0.7)
        w, spec = fourier(p)
        dw = w[1] - w[0]
        lhs = np.sum(np.abs(spec) ** 2) * dw / (2.0 * np.pi)
        rhs = np.sum(np.abs(p.samples) ** 2) * grid.dt
        assert abs(lhs - rhs) < 1e-9

    def test_round_trip_identity(self, rng):
        grid = offset_grid(10.0, 10)
        samples = rng.normal(size=(grid.n, 2)) + 1j * rng.normal(size=(grid.n, 2))
        p = Pulse(grid=grid, samples=samples)
        back = inverse_fourier(fourier(p)[1], grid)
        assert np.max(np.abs(back - p.samples)) < 1e-12

    def test_time_shift_gives_linear_phase(self):
        grid = offset_grid(40.0)
        base = gaussian_pulse(grid, t0=-2.0, sigma=0.8)
        shifted = Pulse(grid=grid, samples=np.roll(base.samples, 256, axis=0))
        w, f0 = fourier(base)
        _, f1 = fourier(shifted)
        phase = np.exp(-1j * w * 256 * grid.dt)
        assert np.max(np.abs(f1[:, 0] - phase * f0[:, 0])) < 1e-9


class TestShapeFft:
    def test_gaussian_norm_preserved(self):
        kappa, wc = 1.0, 0.4
        f = from_model(two_level_model(kappa, wc))
        p = gaussian_pulse(offset_grid(40.0 / kappa), t0=-8.0, sigma=1.2)
        out = shape_fft(p, f)
        assert abs(out.norm() - 1.0) < 1e-6

    def test_two_channel_total_norm_preserved(self):
        k1, k2, wc = 1.0, 0.5, 0.2
        f = from_model(two_channel_model(k1, k2, wc))
        p = gaussian_pulse(offset_grid(40.0), t0=-8.0, sigma=1.0, channels=2)
        out = shape_fft(p, f)
        assert abs(out.norm() - 1.0) < 1e-6
        assert np.sum(np.abs(out.samples[:, 1]) ** 2) > 0.0

    def test_inverting_pulse_lands_after_zero(self):
        kappa, wc = 1.0, 0.9
        f = from_model(two_level_model(kappa, wc))
        grid = offset_grid(40.0 / kappa)
        p = rising_exp_pulse(grid, kappa, wc)
        out = shape_fft(p, f)
        assert out.energy_fraction_before() < 1e-6
        t = grid.times()
        expected = np.where(
            t > 0.0, np.sqrt(kappa) * np.exp(-(0.5 * kappa + 1j * wc) * t), 0.0
        )
        dist = np.sqrt(np.sum(np.abs(out.samples[:, 0] - expected) ** 2) * grid.dt)
        assert dist < 1e-3

    def test_grid_too_short(self):
        kappa = 1.0
        f = from_model(two_level_model(kappa, 0.0))
        p = gaussian_pulse(offset_grid(4.0 / kappa, 10), t0=0.0, sigma=0.2)
        with pytest.raises(GridSpanError) as err:
            shape_fft(p, f)
        assert err.value.suggested_span > 4.0 / kappa
        assert "span" in str(err.value)

    def test_span_bound_is_the_slowest_pole(self):
        # a span of 36.8 keeps exp(-t/2) under 1e-8 past half of it
        fast, slow = (from_model(two_level_model(k, 0.3)).stages for k in (4.0, 1.0))
        f = PhotonTransfer(stages=fast + slow + fast)
        want = math.log(1e-8) / -0.5
        with pytest.raises(GridSpanError, match=f"at least {want:.6g}$") as err:
            shape_fft(gaussian_pulse(offset_grid(36.0, 10), t0=0.0, sigma=1.0), f)
        assert err.value.suggested_span == want
        shape_fft(gaussian_pulse(offset_grid(37.0, 10), t0=0.0, sigma=1.0), f)

    def test_channel_mismatch(self):
        f = from_model(two_channel_model(1.0, 1.0, 0.0))
        p = gaussian_pulse(offset_grid(40.0), 0.0, 1.0)
        with pytest.raises(ValueError, match="channels"):
            shape_fft(p, f)


def exact_step_reference(p: Pulse, f: PhotonTransfer) -> np.ndarray:
    """Sequential first-order-hold exponential steps of ``eta' = a eta + xi`` per
    stage, from rest: ``eta[m+1] = e^z eta[m] + dt ((phi1 - phi2) xi[m] + phi2
    xi[m+1])`` with ``z = a dt``, the coefficients evaluated by mpmath at 50
    digits, of which the cancellations in ``phi2`` at ``|z| = 1e-8`` and in
    ``phi1 - phi2`` at ``|z| = 1e8`` cost 8.  The state is updated as
    ``eta + ((e^z - 1) eta + input)``, with the rounding error of each sum
    carried into the next step (Knuth's TwoSum), so that neither rounding
    ``e^z`` near 1 nor thousands of steps add up to more than a few ulp."""
    x = p.samples
    dt = p.grid.dt
    for stage in f.stages:
        with mpmath.workdps(50):
            z = mpmath.mpc(stage.a) * dt
            phi1 = mpmath.expm1(z) / z
            phi2 = (mpmath.expm1(z) - z) / z**2
            q, c0, c1 = (complex(v) for v in (mpmath.expm1(z), dt * (phi1 - phi2), dt * phi2))
        eta = np.zeros_like(x)
        err = np.zeros(x.shape[1], dtype=complex)  # eta[m] + err is the state
        for m in range(x.shape[0] - 1):
            step = q * (eta[m] + err) + c0 * x[m] + c1 * x[m + 1] + err
            eta[m + 1] = eta[m] + step
            back = eta[m + 1] - eta[m]
            err = (eta[m] - (eta[m + 1] - back)) + (step - back)
        x = x @ stage.S.T + eta @ dense_kernel(stage).T
    return x


@st.composite
def all_pass_stage(draw, channels: int, dt: float) -> FilterStage:
    """Haar-random ``S`` and unit ``theta`` (so ``h = 2 Re(a)``), with ``|a| dt`` drawn
    over [1e-8, 1e8] by its logarithm and ``arg(-a)`` within 0.49 pi of 0."""
    size = 10.0 ** draw(st.floats(-8.0, 8.0), label="log10 |a| dt")
    z = -size * cmath.exp(1j * math.pi * draw(st.floats(-0.49, 0.49), label="arg(-a) / pi"))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    theta = rng.normal(size=channels) + 1j * rng.normal(size=channels)
    return FilterStage(
        S=haar_unitary(rng, channels),
        theta=theta / np.linalg.norm(theta),
        a=z / dt,
    )


def assert_matches_reference(p: Pulse, f: PhotonTransfer) -> np.ndarray:
    """``shape_ode`` within 1e-13 of :func:`exact_step_reference`, relative to its
    largest value, plus a term for subnormal arithmetic; returns the samples.

    Below the smallest normal float a product rounds by up to half the subnormal
    spacing 2^-1074, an absolute error, not a relative one.  Over its n steps a
    stage's state sums K products of the input per step, and its output
    multiplies the state by the stage gain h; so the term is 4 n 2^-1074 sum_i
    (K + |h_i|), where random subnormal draws reached 0.31 of it.  It exceeds the relative term only where the largest output is
    below 1e13 times that term, outputs whose arithmetic meets the subnormals;
    for one stage of |h| <= 1 on 16 samples at K = 1, only subnormal outputs."""
    got = shape_ode(p, f).samples
    want = exact_step_reference(p, f)
    subnormal = 4 * p.grid.n * 2.0**-1074 * sum(f.channels + abs(s.h) for s in f.stages)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)) + subnormal
    return got


@st.composite
def exact_step_case(draw):
    """``(pulse, filter, pad)``: all-pass stages and a pulse of uniform samples in
    the unit square after ``pad`` zeros, on 2^4 to 2^8 samples."""
    channels = draw(st.sampled_from([1, 2, 3]), label="channels")
    depth = draw(st.integers(1, 3), label="depth")
    dt = draw(st.floats(1e-3, 1.0), label="dt")
    n = 2 ** draw(st.integers(4, 8), label="log2 n")
    f = PhotonTransfer(stages=tuple(draw(all_pass_stage(channels, dt)) for _ in range(depth)))
    pad = draw(st.integers(0, n // 2), label="zero prefix")
    parts = draw(hnp.arrays(np.float64, (n, channels, 2), elements=st.floats(-1.0, 1.0)))
    samples = parts[..., 0] + 1j * parts[..., 1]
    samples[:pad] = 0.0
    return Pulse(grid=TimeGrid(t_start=0.0, dt=dt, n=n), samples=samples), f, pad


def subnormal_case(a: float, dt: float):
    """One stage of pole ``a`` on 16 samples, each 2.2e-313 (1 + 1j)."""
    f = PhotonTransfer(stages=(FilterStage(S=[[1.0]], theta=[1.0], a=a),))
    samples = np.full((16, 1), 2.2e-313 * (1.0 + 1.0j))
    return Pulse(grid=TimeGrid(t_start=0.0, dt=dt, n=16), samples=samples), f, 0


class TestShapeOde:
    @settings(max_examples=100, deadline=None)
    @given(case=exact_step_case())
    # All-subnormal pulses: errors of 3 and 577 subnormal spacings, where the
    # relative bound alone allows under one.  In the second, h = -512 multiplies
    # the reference's rounding.
    @example(case=subnormal_case(-1.0, 1.0))
    @example(case=subnormal_case(-256.0, 1.0 / 256))
    def test_matches_sequential_exact_step(self, case):
        p, f, pad = case
        got = assert_matches_reference(p, f)
        # from rest: nothing comes out before the input starts
        assert np.all(got[:pad] == 0.0)

    def test_slow_pole_keeps_rounding(self):
        # |a| dt = 3e-4: scanning (1 + q) eta + v, with 1 + q rounded, loses eps / 3e-4
        dt = 0.05
        a = complex(-3e-4, -1e-4) / dt
        f = PhotonTransfer(stages=(FilterStage(S=[[1.0]], theta=[1.0], a=a),))
        grid = TimeGrid(t_start=0.0, dt=dt, n=8192)
        p = gaussian_pulse(grid, t0=grid.span / 8, sigma=grid.span / 64)
        want = exact_step_reference(p, f)
        assert np.max(np.abs(shape_ode(p, f).samples - want)) <= 1e-15 * np.max(np.abs(want))

    def test_single_step_grid(self, rng):
        # n = 2: one step, so the scan runs no doubling level
        dt, a = 0.5, complex(-0.1, 0.15)
        f = PhotonTransfer(stages=(FilterStage(S=BS50, theta=[0.6, 0.8j], a=a),))
        samples = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert_matches_reference(Pulse(grid=TimeGrid(t_start=0.0, dt=dt, n=2), samples=samples), f)

    def test_long_grid_oscillating_pole(self, rng):
        # 2^14 samples: fourteen doubling levels, with |a| dt = 0.1, slow decay
        dt = 0.01
        f = PhotonTransfer(
            stages=tuple(
                FilterStage(S=s, theta=[np.cos(w), np.sin(w) * 1j], a=z / dt)
                for s, w, z in (
                    (BS50, 0.4, complex(-0.003, 0.0995)),
                    (SWAP, 1.1, complex(-0.001, -0.0998)),
                )
            )
        )
        n = 2**14
        samples = rng.uniform(-1.0, 1.0, (n, 2)) + 1j * rng.uniform(-1.0, 1.0, (n, 2))
        assert_matches_reference(Pulse(grid=TimeGrid(t_start=0.0, dt=dt, n=n), samples=samples), f)

    def test_two_channel_closed_form_structure(self):
        # xi1' = xi1 - k1 eta, xi2' = -sqrt(k1 k2) eta with eta the filtered input
        k1, k2, wc = 1.0, 0.6, 0.3
        f = from_model(two_channel_model(k1, k2, wc))
        grid = offset_grid(40.0)
        p = gaussian_pulse(grid, t0=-8.0, sigma=1.0, channels=2, channel=0)
        out = shape_ode(p, f)
        # independent eta: trapezoid quadrature of the convolution integral
        t = grid.times()
        a = -1j * wc - 0.5 * (k1 + k2)
        xi1 = p.samples[:, 0]
        eta = np.zeros(grid.n, dtype=complex)
        decay = np.exp(a * grid.dt)
        for m in range(grid.n - 1):
            eta[m + 1] = decay * eta[m] + 0.5 * grid.dt * (decay * xi1[m] + xi1[m + 1])
        assert np.max(np.abs(out.samples[:, 0] - (xi1 - k1 * eta))) < 1e-5
        assert np.max(np.abs(out.samples[:, 1] - (-np.sqrt(k1 * k2) * eta))) < 1e-5

    def test_zero_input_zero_output(self):
        f = from_model(two_level_model(1.0, 0.0))
        grid = offset_grid(40.0, 10)
        p = Pulse(grid=grid, samples=np.zeros((grid.n, 1)))
        out = shape_ode(p, f)
        assert np.all(out.samples == 0.0)

    def test_agrees_with_fft_path(self):
        kappa, wc = 1.0, 0.5
        f = from_model(two_level_model(kappa, wc))
        p = gaussian_pulse(offset_grid(40.0 / kappa), t0=-8.0, sigma=1.2)
        a = shape_fft(p, f)
        b = shape_ode(p, f)
        l2 = np.sqrt(np.sum(np.abs(a.samples - b.samples) ** 2) * p.grid.dt)
        assert l2 < 1e-4


def matched_output_error(shape, log2_n: int) -> float:
    """Relative L2 error of ``shape`` against the exact output of the matched
    rising exponential through one kappa = 1, omega_c = 0.8 stage, on the default
    span ``24/|Re a|`` with ``t = 0`` on a sample.  The pulse is absorbed and
    re-emitted as ``sqrt(kappa) exp(-(kappa/2 + i omega_c) t)`` for ``t > 0``,
    nothing before, with the midpoint ``sqrt(kappa)/2`` on the jump: a reference
    that shares no discretization with either path."""
    kappa, omega_c = 1.0, 0.8
    n = 2**log2_n
    grid = TimeGrid(t_start=-24.0, dt=48.0 / n, n=n)
    p = rising_exp_pulse(grid, kappa, omega_c)
    t = grid.times()
    step = np.where(t > 0.0, 1.0, 0.0) + np.where(t == 0.0, 0.5, 0.0)
    exact = np.sqrt(kappa) * np.exp(-(0.5 * kappa + 1j * omega_c) * np.maximum(t, 0.0)) * step
    got = shape(p, from_model(two_level_model(kappa, omega_c))).samples[:, 0]
    return float(np.linalg.norm(got - exact) / np.linalg.norm(exact))


SHAPERS = [pytest.param(shape_fft, id="fft"), pytest.param(shape_ode, id="ode")]


class TestMatchedOutput:
    @pytest.mark.parametrize("shape", SHAPERS)
    def test_close_to_exact_at_default_size(self, shape):
        # measured 3.1e-5 (fft) and 4.0e-5 (ode)
        assert matched_output_error(shape, 14) <= 1e-4

    @pytest.mark.parametrize("shape", SHAPERS)
    def test_error_falls_with_dt(self, shape):
        # measured about 40x from 2^12 to 2^16 samples
        assert matched_output_error(shape, 16) <= 0.1 * matched_output_error(shape, 12)


class TestTimeShiftCovariance:
    def test_fft_path(self):
        f = from_model(two_level_model(1.0, 0.7))
        grid = offset_grid(40.0)
        p = gaussian_pulse(grid, t0=-10.0, sigma=1.0)
        shift = 512
        shifted = Pulse(grid=grid, samples=np.roll(p.samples, shift, axis=0))
        out_then_shift = np.roll(shape_fft(p, f).samples, shift, axis=0)
        shift_then_out = shape_fft(shifted, f).samples
        assert np.max(np.abs(out_then_shift - shift_then_out)) < 1e-12

    def test_ode_path_is_sample_exact(self):
        # compact support: the shifted run repeats the base arithmetic exactly
        f = from_model(two_level_model(1.0, 0.7))
        grid = offset_grid(40.0)
        p = square_pulse(grid, -12.0, -9.0)
        shift = 256
        shifted = Pulse(grid=grid, samples=np.roll(p.samples, shift, axis=0))
        out_then_shift = np.roll(shape_ode(p, f).samples, shift, axis=0)
        shift_then_out = shape_ode(shifted, f).samples
        assert np.array_equal(out_then_shift[shift:], shift_then_out[shift:])


class TestCsvFormats:
    def test_pulse_round_trip(self, tmp_path, rng):
        grid = offset_grid(5.0, 8)
        samples = rng.normal(size=(grid.n, 2)) + 1j * rng.normal(size=(grid.n, 2))
        p = Pulse(grid=grid, samples=samples)
        path = tmp_path / "pulse.csv"
        write_pulse_csv(p, path)
        back = read_pulse_csv(path)
        assert back.grid.n == grid.n
        assert back.grid.dt == pytest.approx(grid.dt, rel=1e-15)
        assert back.channels == 2
        assert np.array_equal(back.samples, p.samples)

    def test_header_is_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,channel,re,im\n0,0,1,0\n")
        with pytest.raises(ValueError, match="header"):
            read_pulse_csv(path)

    def test_non_uniform_grid_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,ch,re,im\n0.0,0,1.0,0.0\n1.0,0,1.0,0.0\n2.0,0,1.0,0.0\n4.5,0,1.0,0.0\n")
        with pytest.raises(ValueError, match="uniform"):
            read_pulse_csv(path)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        t_start=st.floats(-1e4, 1e4),
        dt=st.floats(1e-6, 1e2),
        log2_n=st.integers(1, 8),
        channels=st.integers(1, 3),
        data=st.data(),
    )
    def test_pulse_round_trip_property(self, tmp_path, t_start, dt, log2_n, channels, data):
        grid = TimeGrid(t_start=t_start, dt=dt, n=2**log2_n)
        parts = data.draw(hnp.arrays(
            np.float64, (grid.n, channels, 2),
            elements=st.floats(allow_nan=False, allow_infinity=False),
        ))
        p = Pulse(grid=grid, samples=parts[..., 0] + 1j * parts[..., 1])
        path = tmp_path / "pulse.csv"
        write_pulse_csv(p, path)
        with np.errstate(over="ignore"):
            if not math.isfinite(p.norm()):
                with pytest.raises(ValueError, match="energy"):
                    read_pulse_csv(path)
                return
        back = read_pulse_csv(path)
        assert back.grid.n == grid.n
        assert back.grid.t_start == grid.t_start
        assert back.grid.dt == pytest.approx(grid.dt, rel=1e-6)
        # bit-exact, signed zeros included
        assert np.array_equal(back.samples.view(np.uint64), p.samples.view(np.uint64))

    def test_dt_recovered_from_full_span(self, tmp_path):
        # t[1] - t[0] carries the rounding of both written times, ~ulp(1e4) = 2e-12
        grid = TimeGrid(t_start=1e4, dt=1e-3, n=2**12)
        path = tmp_path / "far.csv"
        write_pulse_csv(gaussian_pulse(grid, t0=1e4 + 2.0, sigma=0.1), path)
        back = read_pulse_csv(path)
        assert abs(back.grid.dt - grid.dt) <= 1e-12 * grid.dt
        assert np.max(np.abs(back.grid.times() - grid.times())) <= 1e-8 * grid.dt

    def test_large_offset_grid_accepted(self, tmp_path):
        # |t_start| / dt = 1e7: written times round by more than 1e-9 dt
        grid = TimeGrid(t_start=1e4, dt=1e-3, n=2**10)
        p = gaussian_pulse(grid, t0=1e4 + 0.5, sigma=0.05)
        path = tmp_path / "far.csv"
        write_pulse_csv(p, path)
        back = read_pulse_csv(path)
        assert back.grid.t_start == grid.t_start
        assert np.array_equal(back.samples, p.samples)

    @pytest.mark.parametrize(
        "body",
        [
            "0.0,0,1.0,0.0\n1.0,0,1.0,0.0\n0.0,1,1.0,0.0\n",  # (1, 1) missing
            "0.0,0,1.0,0.0\n1.0,0,1.0,0.0\n1.0,0,2.0,0.0\n",  # (1, 0) twice
            "0.0,0,1.0,0.0\n1.0,0,1.0,0.0\n0.0,1,1.0,0.0\n1.0,1,1.0,0.0\n"
            "0.0,1,1.0,0.0\n0.0,2,1.0,0.0\n",  # (0, 1) twice, (1, 2) missing
            "0.0,-1,1.0,0.0\n1.0,-1,1.0,0.0\n",
            "0.0,0.5,1.0,0.0\n1.0,0.5,1.0,0.0\n",
            "0.0,0,1.0,0.0\n1.0,0,1.0\n",
            "0.0,0,1.0,0.0\nnan,0,1.0,0.0\n",
            "0.0,0,1.0,0.0\n1.0,1e300,1.0,0.0\n",
        ],
        ids=["missing", "duplicate", "duplicate-and-missing", "negative-channel",
             "fractional-channel", "short-row", "nan-time", "huge-channel"],
    )
    def test_malformed_rows_rejected(self, tmp_path, body):
        path = tmp_path / "bad.csv"
        path.write_text("t,ch,re,im\n" + body)
        with pytest.raises(ValueError):
            read_pulse_csv(path)

    @pytest.mark.parametrize(
        "body, message",
        [
            ("", "contains no samples"),
            ("\n  \n", "contains no samples"),
            ("0.0,0,1.0\n1.0,0,1.0\n", "rows must have four fields: t,ch,re,im"),
            ("0.0,0,1.0,0.0,0\n1.0,0,1.0,0.0,0\n", "rows must have four fields: t,ch,re,im"),
            ("0.0,0,1.0,0.0\n", "needs at least two time samples"),
        ],
        ids=["header-only", "blank-lines-only", "three-fields", "five-fields", "one-time"],
    )
    def test_refusal_names_the_defect(self, tmp_path, body, message):
        path = tmp_path / "bad.csv"
        path.write_text("t,ch,re,im\n" + body)
        with pytest.raises(ValueError, match=f"^pulse CSV {message}$"):
            read_pulse_csv(path)

    def test_pulse_table_text(self, tmp_path):
        grid = TimeGrid(t_start=-1.0, dt=0.5, n=2)
        p = Pulse(grid=grid, samples=np.array([[1.0 + 0.25j, -2.0], [0.0, 1j]]))
        path = tmp_path / "pulse.csv"
        write_pulse_csv(p, path)
        assert path.read_bytes() == (
            b"t,ch,re,im\n"
            b"-1.0000000000000000e+00,0,1.0000000000000000e+00,2.5000000000000000e-01\n"
            b"-1.0000000000000000e+00,1,-2.0000000000000000e+00,0.0000000000000000e+00\n"
            b"-5.0000000000000000e-01,0,0.0000000000000000e+00,0.0000000000000000e+00\n"
            b"-5.0000000000000000e-01,1,0.0000000000000000e+00,1.0000000000000000e+00\n"
        )

    def test_pulse_table_text_by_python(self, tmp_path, floats_by_python):
        # the same bytes where Python's own "%.16e" writes every nonzero float
        self.test_pulse_table_text(tmp_path)


def _written(*columns) -> str:
    """What ``write_table`` prints for ``columns`` as one block."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        write_table(None, "h", [columns])
    return out.getvalue()


def _by_percent(*columns) -> str:
    """The same table by Python's ``%``, one value at a time."""
    formats = ["%d" if c.dtype.kind in "iu" else "%.16e" for c in columns]
    rows = zip(*(c.tolist() for c in columns))
    return "h\n" + "".join(",".join(f % v for f, v in zip(formats, row)) + "\n" for row in rows)


def _exact_ties() -> list:
    """Floats whose 17-digit rounding is an exact half, of both signs: with
    y = x 10^k in [10^16, 10^17), x = m / 2^(k + 1) for odd m < 2^53."""
    ties = []
    for k in range(1, 23):
        low = 2 ** (k + 1) * 10**16 // 10**k
        high = min(2 ** (k + 1) * 10**17 // 10**k, 2**53)
        for m in range(low + 1, high, (high - low) // 7 | 1)[:7]:
            x = (m | 1) / 2 ** (k + 1)
            if (Fraction(x) * 10**k).denominator == 2:
                ties += [x, -x]
    return ties


def _decade_edges() -> list:
    """Each power of ten as a float and its two neighbours, of both signs; some of
    these floats lie below their power of ten but round up to it at 17 digits."""
    edges = []
    for e in range(-323, 309):
        x = float(f"1e{e}")
        edges += [x, np.nextafter(x, 0.0), np.nextafter(x, np.inf)]
    return edges + [-x for x in edges]


def _near_ties() -> list:
    """Floats x = m 2^j (2^52 <= m < 2^53) in the decades 10^p, p = -9..-7 and
    38, whose exact y = x 10^(16 - p) lies within 2^-44 of a half, where 10^(16 -
    p) is not a float: with y = m u / v in lowest terms, m = t u^-1 mod v for the
    integers t within v 2^-44 of v / 2.  Both signs."""
    near = []
    for p in (-9, -8, -7, 38):
        scale = Fraction(10) ** (16 - p)
        for j in range(-90, 80):
            low = max(2**52, math.ceil(Fraction(10) ** p / Fraction(2) ** j))
            high = min(2**53, math.ceil(Fraction(10) ** (p + 1) / Fraction(2) ** j))
            u, v = (Fraction(2) ** j * scale).as_integer_ratio()
            if low >= high or v == 1:
                continue
            inverse, w = pow(u, -1, v), (v >> 44) + 1
            for t in range(v // 2 - w, v // 2 + w + 1):
                r = t * inverse % v
                for m in range(r + (low - r + v - 1) // v * v, high, v):
                    if abs(Fraction(m * u, v) % 1 - Fraction(1, 2)) <= Fraction(2) ** -44:
                        near += [math.ldexp(m, j), -math.ldexp(m, j)]
    return near


def _just_below_powers_of_ten() -> list:
    """The floats below a power of ten 10^p by at most 5e-18 10^p, in the
    writer's range [1e-250, 1e250]: each rounds up to 10^p at 17 digits."""
    below = []
    for p in range(-250, 251):
        x = float(Fraction(10) ** p)
        if Fraction(x) >= Fraction(10) ** p:
            x = math.nextafter(x, 0.0)
        if Fraction(10) ** p - Fraction(x) <= Fraction(5, 10**18) * Fraction(10) ** p:
            below += [x, -x]
    return below


class TestTableText:
    # write_table's float text against Python's "%.16e", value by value
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=200))
    def test_any_float(self, values):
        x = np.array(values, dtype=float)
        assert _written(x, np.arange(x.size)) == _by_percent(x, np.arange(x.size))

    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(np.uint64, st.integers(1, 200)))
    def test_any_bit_pattern(self, bits):
        x = bits.view(np.float64)
        assert _written(x, -x) == _by_percent(x, -x)

    def test_exact_ties_round_half_even(self):
        ties = np.array(_exact_ties())
        assert ties.size >= 100
        assert _written(ties) == _by_percent(ties)

    def test_powers_of_ten_and_neighbours(self):
        x = np.array(_decade_edges())
        assert "1.0000000000000000e-14" in _by_percent(x)  # float 1e-14 < 10^-14
        assert _written(x) == _by_percent(x)

    def test_near_ties_left_to_python(self):
        # where 10^k is not a float, f is off by up to 2^-47 and cannot decide these
        x = np.array(_near_ties())
        assert x.size >= 1000
        assert "4.9741483709103481e-09" in _by_percent(x)
        assert _written(x) == _by_percent(x)

    def test_just_below_powers_of_ten(self, monkeypatch):
        x = np.array(_just_below_powers_of_ten())
        assert x.size == 26 and "1.0000000000000000e-14" in _by_percent(x)
        assert _written(x) == _by_percent(x)
        # A log10 that returns below the correctly rounded value, as some platforms'
        # do, puts these one decade low: their digits round up to 10^17 and carry.
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a: np.nextafter(log10(a), -np.inf))
        edges = np.concatenate([x, _decade_edges()])
        assert _written(edges) == _by_percent(edges)

    def test_special_values(self):
        x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.2250738585072014e-308,
                      np.finfo(float).max, 1e-250, 1e250, 0.99999999999999999, 0.1, 1.0 / 3.0])
        assert _written(x) == _by_percent(x)

    def test_integer_columns(self, rng):
        ints = rng.integers(-(2**63), 2**63 - 1, 500, endpoint=True)
        small = np.repeat(np.arange(3, dtype=np.uint8), 4)
        assert _written(ints) == _by_percent(ints)
        assert _written(small) == _by_percent(small)

    def test_blocks_follow_each_other(self, rng):
        x = rng.normal(size=2 * TABLE_BLOCK_ROWS + 3)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            write_table(None, "h", [(x[:5],), (x[5:],)])
        assert out.getvalue() == _by_percent(x)

    def test_other_dtypes_refused(self):
        with pytest.raises(TypeError, match="floats or integers"):
            _written(np.array([1j]))

    def test_pulse_csv_memory_is_bounded_by_blocks(self):
        # The writer keeps one block's arrays at a time: no column of the whole table.
        def peak(log2_n):
            grid = TimeGrid(t_start=-1.0, dt=2.0 / 2**log2_n, n=2**log2_n)
            p = Pulse(grid=grid, samples=np.full((grid.n, 2), 0.3 - 0.7j))
            tracemalloc.start()
            try:
                write_pulse_csv(p, os.devnull)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(18) <= 1.25 * peak(14)


def _fields_file(path, fields, channels=1) -> np.ndarray:
    """Write the texts ``fields`` as the t, re and im fields of a pulse CSV table,
    channel numbers counting 0..channels-1; return the table by Python's float()."""
    rows = np.resize(np.array(fields, dtype=object), 3 * -(-len(fields) // 3)).reshape(-1, 3)
    path.write_text("t,ch,re,im\n" + "".join(
        f"{t},{i % channels},{re},{im}\n" for i, (t, re, im) in enumerate(rows.tolist())))
    return np.array([[float(t), i % channels, float(re), float(im)]
                     for i, (t, re, im) in enumerate(rows.tolist())])


def _written_fields(values) -> list:
    return ["%.16e" % v for v in np.asarray(values, dtype=float).tolist()]


def _near_halves() -> list:
    """17-digit decimals x = D 10^-q, q = 21..29, within 2^-100 x of a half between
    doubles, odd 2^-s with 2^53 < odd < 2^54, of both signs: from D 2^(s - q) =
    odd 5^q + d for small d, that is D = d (2^(s - q))^-1 mod 5^q."""
    near = []
    for q in range(21, 30):
        f = 5**q
        for s in range(q, q + 80):
            for d in (-3, -2, -1, 1, 2, 3):
                d0 = d * pow(2 ** (s - q), -1, f) % f
                for D in range(d0 + (10**16 - d0 + f - 1) // f * f, 10**17, f):
                    odd, rem = divmod(D * 2 ** (s - q) - d, f)
                    if rem == 0 and odd % 2 == 1 and 2**53 < odd < 2**54:
                        text = f"{str(D)[0]}.{str(D)[1:]}e{16 - q:+03d}"
                        near += [text, "-" + text]
    return near


def _in_layout(path) -> bool:
    with open(path, "rb") as fh:
        return pulses._layout_table(fh) is not None


def _edit_lines(path, edit):
    lines = path.read_bytes().splitlines(keepends=True)
    edit(lines)
    path.write_bytes(b"".join(lines))


class TestCsvRead:
    # The reader's table against Python's float() of each field, on both parses.
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(hnp.arrays(np.uint64, st.integers(1, 120)), st.integers(1, 3))
    def test_any_bit_pattern(self, tmp_path, csv_parse, bits, channels):
        x = bits.view(np.float64).copy()
        x[~np.isfinite(x)] = -0.0
        path = tmp_path / "table.csv"
        expected = _fields_file(path, _written_fields(x), channels)
        assert np.array_equal(pulses._read_table(path).view(np.uint64), expected.view(np.uint64))
        if csv_parse == "layout":
            assert _in_layout(path)

    @pytest.mark.parametrize("fields", [
        lambda: _written_fields(_exact_ties()),
        lambda: _written_fields(_near_ties()),
        lambda: _written_fields(_just_below_powers_of_ten()),
        lambda: _written_fields(_decade_edges()),
        # the ends of the exponents the reader's arithmetic takes, and past them
        lambda: [f"{s}{m}e{e:+04d}" for e in (-217, -218, -219, 250, 251)
                 for m in ("1.0000000000000000", "1.2345678901234567", "9.9999999999999999")
                 for s in ("", "-")],
        # 3-digit negative exponents, down through the subnormals
        lambda: _written_fields([s * 10.0**-e * m for e in range(100, 324) for m in (1, 3.3)
                                 for s in (1, -1)] + [5e-324, -5e-324, 0.0, -0.0]),
        _near_halves,
    ], ids=["exact-ties", "near-ties", "below-powers-of-ten", "decade-edges", "range-ends",
            "negative-3-digit-exponents", "near-halves"])
    def test_fixed_values(self, tmp_path, csv_parse, fields):
        path = tmp_path / "table.csv"
        expected = _fields_file(path, fields(), 2)
        assert np.array_equal(pulses._read_table(path).view(np.uint64), expected.view(np.uint64))
        if csv_parse == "layout":
            assert _in_layout(path)

    @pytest.mark.parametrize("defect, message", [
        ("missing", "exactly once"), ("duplicate", "exactly once"), ("non-uniform", "uniform"),
    ])
    def test_defects_in_the_writers_layout(self, tmp_path, csv_parse, defect, message):
        grid = TimeGrid(t_start=-2.0, dt=0.125, n=32)
        path = tmp_path / "pulse.csv"
        write_pulse_csv(gaussian_pulse(grid, t0=0.0, sigma=0.5, channels=2), path)
        if defect == "missing":
            _edit_lines(path, lambda lines: lines.pop(7))
        elif defect == "duplicate":
            _edit_lines(path, lambda lines: lines.insert(7, lines[7]))
        else:  # time 4 of 32 moved by dt / 4 in both its rows, in the writer's format
            _edit_lines(path, lambda lines: lines.__setitem__(
                slice(9, 11), [b"%.16e" % -1.46875 + line[23:] for line in lines[9:11]]))
        if csv_parse == "layout":
            assert _in_layout(path)
        with pytest.raises(ValueError, match=message):
            read_pulse_csv(path)

    @pytest.mark.parametrize("edit", [
        lambda data: data.replace(b"\n", b"\r\n"),
        lambda data: data.replace(b"\n", b"\n\n", 5),
        lambda data: data.replace(b"\n", b"\n \t\n", 5),
        lambda data: data[:-1],
        lambda data: data.replace(b"0.0000000000000000e+00", b"0.0"),
        lambda data: data.replace(b",0,", b", 0,"),
    ], ids=["crlf", "blank-lines", "whitespace-lines", "no-final-newline", "short-zero",
            "space"])
    def test_other_layouts_read_by_loadtxt(self, tmp_path, edit):
        grid = TimeGrid(t_start=-2.0, dt=0.125, n=32)
        p = gaussian_pulse(grid, t0=0.0, sigma=0.5, channels=2)
        path = tmp_path / "pulse.csv"
        write_pulse_csv(p, path)
        path.write_bytes(edit(path.read_bytes()))
        assert not _in_layout(path)
        back = read_pulse_csv(path)
        assert back.grid == grid
        assert np.array_equal(back.samples.view(np.uint64), p.samples.view(np.uint64))

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_unseekable_file_read_by_loadtxt(self, tmp_path, monkeypatch):
        grid = TimeGrid(t_start=-2.0, dt=0.125, n=32)
        p = gaussian_pulse(grid, t0=0.0, sigma=0.5, channels=2)
        path = tmp_path / "pulse.csv"
        write_pulse_csv(p, path)
        monkeypatch.setattr(pulses, "_layout_table", None)  # never called
        r, w = os.pipe()
        try:
            os.write(w, path.read_bytes())  # 5 kB: within the pipe's buffer
            os.close(w)
            back = read_pulse_csv(f"/dev/fd/{r}")
        finally:
            os.close(r)
        assert np.array_equal(back.samples.view(np.uint64), p.samples.view(np.uint64))

    def test_energy_must_be_finite(self, tmp_path):
        grid = TimeGrid(t_start=-24.0, dt=48.0 / 2**12, n=2**12)
        p = gaussian_pulse(grid, t0=-8.0, sigma=0.8)
        path = tmp_path / "pulse.csv"
        write_pulse_csv(Pulse(grid=grid, samples=1e200 * p.samples), path)
        with pytest.raises(ValueError, match="pulse CSV energy"):
            read_pulse_csv(path)

    def test_memory_is_bounded_by_blocks(self, tmp_path):
        # Beyond the table and the per-block rows it is joined from, the parse holds
        # one block's arrays: never the file, nor any other array of its length.
        # The checks and samples that read_pulse_csv forms from the table add less
        # than a quarter of the table on top of that peak (seven eighths more, when
        # it kept each row's time index and copied the samples into the pulse).
        def peak(read, path):
            tracemalloc.start()
            try:
                read(path)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def excess(log2_n):
            grid = TimeGrid(t_start=-1.0, dt=2.0 / 2**log2_n, n=2**log2_n)
            path = tmp_path / f"pulse{log2_n}.csv"
            write_pulse_csv(Pulse(grid=grid, samples=np.full((grid.n, 2), 0.3 - 0.7j)), path)
            table_bytes = 2 * grid.n * 4 * 8
            parse = peak(pulses._read_table, path)
            assert peak(read_pulse_csv, path) <= parse + table_bytes / 4
            return parse - 2 * table_bytes

        assert excess(18) <= 1.25 * excess(14)
