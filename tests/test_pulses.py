import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
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
from photon_slh.pulses import parse_pulse_spec
from conftest import (
    BS50,
    SWAP,
    fourier,
    inverse_fourier,
    two_channel_model,
    two_level_model,
    uncoupled_filter,
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


class TestPulseSpec:
    def test_materialize_is_idempotent(self):
        spec = PulseSpec(kind="gaussian", params={"t0": -1.0, "sigma": 0.5})
        grid = offset_grid(20.0, 10)
        first = spec.materialize(grid)
        second = spec.materialize(grid)
        assert np.array_equal(first.samples, second.samples)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown pulse kind"):
            PulseSpec(kind="triangle")

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_params_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="pulse parameter sigma must be finite"):
            PulseSpec(kind="gaussian", params={"t0": 0.0, "sigma": bad})

    def test_missing_params(self):
        with pytest.raises(ValueError, match="needs parameters"):
            PulseSpec(kind="gaussian").materialize(offset_grid(10.0, 8))

    def test_parse_round_trip(self):
        spec = parse_pulse_spec("rising_exp:kappa=2.0,omega_c=-1.5")
        assert spec.kind == "rising_exp"
        assert spec.params == {"kappa": 2.0, "omega_c": -1.5}

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError, match="name=value"):
            parse_pulse_spec("gaussian:t0")


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
    def test_identity_filter_is_transparent(self, rng):
        grid = offset_grid(10.0, 10)
        samples = rng.normal(size=(grid.n, 1)) + 1j * rng.normal(size=(grid.n, 1))
        p = Pulse(grid=grid, samples=samples)
        out = shape_fft(p, uncoupled_filter(1))
        assert np.max(np.abs(out.samples - p.samples)) < 1e-12

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
        assert out.energy_fraction_before(0.0) < 1e-6
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

    def test_channel_mismatch(self):
        f = from_model(two_channel_model(1.0, 1.0, 0.0))
        p = gaussian_pulse(offset_grid(40.0), 0.0, 1.0)
        with pytest.raises(ValueError, match="channels"):
            shape_fft(p, f)


def rk4_reference(p: Pulse, f: PhotonTransfer) -> np.ndarray:
    """Literal four-stage RK4 stepping of ``eta' = a eta + xi`` per stage, from rest."""
    x = p.samples
    dt = p.grid.dt
    for stage in f.stages:
        n = x.shape[0]
        eta = np.zeros_like(x)
        a = stage.a
        cur = eta[0]
        for m in range(n - 1):
            xm = x[m]
            xm1 = x[m + 1]
            xmid = 0.5 * (xm + xm1)
            k1 = dt * (a * cur + xm)
            k2 = dt * (a * (cur + 0.5 * k1) + xmid)
            k3 = dt * (a * (cur + 0.5 * k2) + xmid)
            k4 = dt * (a * (cur + k3) + xm1)
            cur = cur + (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
            eta[m + 1] = cur
        x = x @ stage.S.T + eta @ stage.kernel_matrix.T
    return x


angles = st.floats(0.0, 2.0 * np.pi)


@st.composite
def all_pass_stage(draw, channels: int, dt: float) -> FilterStage:
    """Unitary ``S``, unit ``theta`` and ``h = 2 Re(a)``, with ``|a| dt <= 0.1``."""
    z = complex(draw(st.floats(-0.07, -1e-3)), draw(st.floats(-0.07, 0.07)))
    g, t, u, v, w = (draw(angles) for _ in range(5))
    if channels == 1:
        s, theta = [[np.exp(1j * g)]], [np.exp(1j * u)]
    else:
        c, sn = np.cos(t), np.sin(t)
        s = np.exp(1j * g) * np.array([
            [c * np.exp(1j * u), -sn * np.exp(-1j * v)],
            [sn * np.exp(1j * v), c * np.exp(-1j * u)],
        ])
        theta = [np.cos(w), np.sin(w) * np.exp(1j * v)]
    return FilterStage(S=s, theta=theta, h=2.0 * z.real / dt, a=z / dt)


class TestShapeOde:
    @settings(max_examples=100, deadline=None)
    @given(
        channels=st.sampled_from([1, 2]),
        depth=st.integers(1, 3),
        dt=st.floats(1e-3, 1.0),
        log2_n=st.integers(4, 8),
        data=st.data(),
    )
    def test_matches_literal_rk4_step(self, channels, depth, dt, log2_n, data):
        f = PhotonTransfer(
            stages=tuple(data.draw(all_pass_stage(channels, dt)) for _ in range(depth))
        )
        n = 2**log2_n
        pad = data.draw(st.integers(0, n // 2), label="zero prefix")
        parts = data.draw(hnp.arrays(np.float64, (n, channels, 2), elements=st.floats(-1.0, 1.0)))
        samples = parts[..., 0] + 1j * parts[..., 1]
        samples[:pad] = 0.0
        p = Pulse(grid=TimeGrid(t_start=0.0, dt=dt, n=n), samples=samples)
        got = shape_ode(p, f).samples
        assert np.max(np.abs(got - rk4_reference(p, f))) <= 1e-13
        # from rest: nothing comes out before the input starts
        assert np.all(got[:pad] == 0.0)

    def test_slow_pole_keeps_rk4_rounding(self):
        # |a| dt = 3e-4: scanning (1 + q) eta + v, with 1 + q rounded, loses eps / 3e-4
        dt = 0.05
        a = complex(-3e-4, -1e-4) / dt
        f = PhotonTransfer(stages=(FilterStage(S=[[1.0]], theta=[1.0], h=2.0 * a.real, a=a),))
        grid = TimeGrid(t_start=0.0, dt=dt, n=8192)
        p = gaussian_pulse(grid, t0=grid.span / 8, sigma=grid.span / 64)
        want = rk4_reference(p, f)
        assert np.max(np.abs(shape_ode(p, f).samples - want)) <= 1e-15 * np.max(np.abs(want))

    def test_single_step_grid(self, rng):
        # n = 2: one RK4 step, so the scan runs no doubling level
        dt, a = 0.5, complex(-0.1, 0.15)
        f = PhotonTransfer(stages=(FilterStage(S=BS50, theta=[0.6, 0.8j], h=2.0 * a.real, a=a),))
        samples = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        p = Pulse(grid=TimeGrid(t_start=0.0, dt=dt, n=2), samples=samples)
        assert np.max(np.abs(shape_ode(p, f).samples - rk4_reference(p, f))) <= 1e-13

    def test_long_grid_oscillating_pole(self, rng):
        # 2^14 samples: fourteen doubling levels, with |a| dt near the step limit
        dt = 0.01
        f = PhotonTransfer(
            stages=tuple(
                FilterStage(
                    S=s, theta=[np.cos(w), np.sin(w) * 1j], h=2.0 * z.real / dt, a=z / dt
                )
                for s, w, z in (
                    (BS50, 0.4, complex(-0.003, 0.0995)),
                    (SWAP, 1.1, complex(-0.001, -0.0998)),
                )
            )
        )
        n = 2**14
        samples = rng.uniform(-1.0, 1.0, (n, 2)) + 1j * rng.uniform(-1.0, 1.0, (n, 2))
        p = Pulse(grid=TimeGrid(t_start=0.0, dt=dt, n=n), samples=samples)
        assert np.max(np.abs(shape_ode(p, f).samples - rk4_reference(p, f))) <= 1e-13

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

    def test_coarse_step_rejected(self):
        f = from_model(two_level_model(1.0, 50.0))
        p = gaussian_pulse(TimeGrid(t_start=-20.0, dt=40.0 / 256, n=256), 0.0, 2.0)
        with pytest.raises(ValueError, match="finer grid"):
            shape_ode(p, f)

    def test_agrees_with_fft_path(self):
        kappa, wc = 1.0, 0.5
        f = from_model(two_level_model(kappa, wc))
        p = gaussian_pulse(offset_grid(40.0 / kappa), t0=-8.0, sigma=1.2)
        a = shape_fft(p, f)
        b = shape_ode(p, f)
        l2 = np.sqrt(np.sum(np.abs(a.samples - b.samples) ** 2) * p.grid.dt)
        assert l2 < 1e-4


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
