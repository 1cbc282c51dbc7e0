import mpmath
import numpy as np
import pytest

from photon_slh import (
    PhotonTransfer,
    SingularLoopError,
    TimeGrid,
    TwoLevelParams,
    feedback_g,
    feedback_reduce,
    from_model,
    memory_g,
    memory_kernel,
    rising_exp_pulse,
    two_channel_g,
    two_level_g,
)
from conftest import BS50, SWAP, fourier, inverse_fourier, two_channel_model, two_level_model


class TestTwoLevelG:
    def test_resonance(self):
        p = TwoLevelParams(1.7, 0.9)
        assert two_level_g(p, -p.omega_c) == pytest.approx(-1.0)

    def test_far_detuned_transparency(self):
        p = TwoLevelParams(2.0, 1.0)
        for sign in (+1.0, -1.0):
            g = two_level_g(p, -p.omega_c + sign * 1e6 * p.kappa)
            assert abs(g - 1.0) < 1e-5

    def test_all_pass(self, rng):
        p = TwoLevelParams(0.6, -2.0)
        ws = rng.uniform(-100, 100, size=1000)
        assert np.max(np.abs(np.abs(two_level_g(p, ws)) - 1.0)) < 1e-14

    def test_kappa_must_be_positive(self):
        with pytest.raises(ValueError, match="kappa"):
            TwoLevelParams(0.0, 1.0)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda bad: TwoLevelParams(bad, 0.0), "kappa"),
        (lambda bad: TwoLevelParams(1.0, bad), "omega_c"),
        (lambda bad: two_channel_g(bad, 1.0, 0.0, 0.0), "kappa1"),
        (lambda bad: two_channel_g(1.0, bad, 0.0, 0.0), "kappa2"),
        (lambda bad: two_channel_g(1.0, 1.0, bad, 0.0), "omega_c"),
        (lambda bad: feedback_g(SWAP, bad, 1.0, 0.0, 0.0), "kappa1"),
        (lambda bad: feedback_g(SWAP, 1.0, bad, 0.0, 0.0), "kappa2"),
        (lambda bad: feedback_g(SWAP, 1.0, 1.0, bad, 0.0), "omega_c"),
        (lambda bad: feedback_g([[bad, 1.0], [1.0, 0.0]], 1.0, 1.0, 0.0, 0.0), "S entries"),
    ],
    ids=["params-kappa", "params-omega_c", "two-channel-kappa1", "two-channel-kappa2",
         "two-channel-omega_c", "feedback-kappa1", "feedback-kappa2", "feedback-omega_c",
         "feedback-S"],
)
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_parameters_must_be_finite(call, name, bad):
    # nan fails the positivity check first, which names the coupling too
    with pytest.raises(ValueError, match=name):
        call(bad)


class TestTwoChannelG:
    def test_perfect_reflection_needs_equal_couplings(self):
        kappa, wc = 1.3, 0.4
        _, g2 = two_channel_g(kappa, kappa, wc, -wc)
        assert abs(g2) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_unequal_couplings_cap_reflection(self):
        k1, k2, wc = 2.0, 0.5, 0.0
        _, g2 = two_channel_g(k1, k2, wc, -wc)
        cap = 4.0 * k1 * k2 / (k1 + k2) ** 2
        assert abs(g2) ** 2 == pytest.approx(cap, abs=1e-12)
        assert abs(g2) ** 2 < 1.0

    def test_far_detuning_transmits(self):
        k1, k2, wc = 1.0, 0.7, 0.3
        g1, _ = two_channel_g(k1, k2, wc, -wc + 1e3 * (k1 + k2))
        assert abs(abs(g1) ** 2 - 1.0) < 1e-5

    def test_flux_conservation(self, rng):
        k1, k2, wc = 0.9, 1.8, -0.5
        ws = rng.uniform(-80, 80, size=1000)
        g1, g2 = two_channel_g(k1, k2, wc, ws)
        assert np.max(np.abs(np.abs(g1) ** 2 + np.abs(g2) ** 2 - 1.0)) < 1e-12


class TestMemoryG:
    def test_single_element_reduces(self):
        p = TwoLevelParams(1.1, 0.2)
        ws = np.linspace(-5, 5, 11)
        assert np.array_equal(memory_g(1, p, ws), two_level_g(p, ws))

    def test_resonance_alternates(self):
        p = TwoLevelParams(1.0, 0.8)
        for n in (1, 2, 3, 4):
            assert memory_g(n, p, -p.omega_c) == pytest.approx((-1.0) ** n)

    def test_matches_filter_cascade(self, rng):
        p = TwoLevelParams(1.4, -0.6)
        f = from_model(two_level_model(p.kappa, p.omega_c))
        chain = PhotonTransfer(stages=f.stages * 3)
        ws = np.sort(rng.uniform(-20, 20, size=32))
        got = chain.response_matrix(ws)[:, 0, 0]
        assert np.max(np.abs(got - memory_g(3, p, ws))) < 1e-12

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError, match="n"):
            memory_g(0, TwoLevelParams(1.0, 0.0), 0.0)


class TestMemoryKernel:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="causal"):
            memory_kernel(1, TwoLevelParams(1.0, 0.0), -0.5)

    @pytest.mark.parametrize("kappa, t", [(1e300, 1e10), (1.0, np.inf), (1.0, np.nan)])
    def test_non_finite_kappa_t_rejected(self, kappa, t):
        # the recurrence would turn inf * 0 into a NaN kernel
        with pytest.raises(ValueError, match="finite"):
            memory_kernel(2, TwoLevelParams(kappa, 0.0), t)

    def test_onset_magnitude(self):
        p = TwoLevelParams(1.6, 0.9)
        for n in (1, 2, 5):
            assert memory_kernel(n, p, 0.0) == pytest.approx(-p.kappa * n)

    def test_single_element_closed_form(self):
        p = TwoLevelParams(1.2, 0.7)
        ts = np.linspace(0.0, 15.0, 200)
        got = memory_kernel(1, p, ts)
        ref = -p.kappa * np.exp(-(0.5 * p.kappa + 1j * p.omega_c) * ts)
        assert np.max(np.abs(got - ref)) < 1e-14

    def test_scalar_and_array_shapes(self):
        p = TwoLevelParams(1.0, 0.0)
        assert isinstance(memory_kernel(2, p, 1.0), complex)
        assert memory_kernel(2, p, np.zeros((3, 4))).shape == (3, 4)

    def test_matches_spectrum_inversion_pointwise(self):
        # two-element chain at t = 1 against the numerically inverted response
        p = TwoLevelParams(1.0, 0.8)
        n = 2
        grid = TimeGrid(t_start=-40.0, dt=80.0 / 2**14, n=2**14)
        w = np.fft.fftshift(grid.omegas())
        pole = -1j * p.omega_c - 0.5 * p.kappa
        remainder = memory_g(n, p, w) - 1.0 + n * p.kappa / (1j * w - pole)
        rem_t = inverse_fourier(remainder, grid)
        t = grid.times()
        idx = np.argmin(np.abs(t - 1.0))
        fft_val = rem_t[idx, 0] - n * p.kappa * np.exp(pole * t[idx])
        assert abs(fft_val - memory_kernel(n, p, t[idx])) < 1e-4

    def test_matches_mpmath_laguerre_sum(self):
        # -kappa exp(-x/2) L^(1)_(n-1)(x) exp(-i w_c t), x = kappa t, summed at 60
        # digits: in doubles that power series cancels away every digit for long chains
        def reference(n, p, t):
            with mpmath.workdps(60):
                x = mpmath.mpf(p.kappa) * mpmath.mpf(t)
                poly = mpmath.fsum(
                    mpmath.binomial(n, n - 1 - k) * (-x) ** k / mpmath.factorial(k)
                    for k in range(n)
                )
                phase = mpmath.expj(-mpmath.mpf(p.omega_c) * mpmath.mpf(t))
                return complex(-mpmath.mpf(p.kappa) * mpmath.exp(-x / 2) * poly * phase)

        for p in (TwoLevelParams(0.2, 0.7), TwoLevelParams(1.0, 0.0), TwoLevelParams(5.0, -1.3)):
            ts = np.linspace(0.0, 300.0 / p.kappa, 61)
            for n in (1, 2, 5, 10, 20, 40, 60):
                want = np.array([reference(n, p, t) for t in ts])
                err = np.max(np.abs(memory_kernel(n, p, ts) - want))
                assert err <= 1e-14 * p.kappa * n, (n, p, err)


class TestInvertingPulse:
    def test_unit_norm_when_materialized(self):
        p = TwoLevelParams(1.5, 0.4)
        n = 2**14
        dt = 40.0 / p.kappa / n
        grid = TimeGrid(t_start=-20.0 / p.kappa + dt / 2, dt=dt, n=n)
        pulse = rising_exp_pulse(grid, p.kappa, p.omega_c)
        assert abs(pulse.norm() - 1.0) < 1e-6

    def test_endpoint_value(self):
        p = TwoLevelParams(1.5, 0.0)
        dt = 32.0 / 2**12
        off = TimeGrid(t_start=-16.0 + dt / 2, dt=dt, n=2**12)
        pulse = rising_exp_pulse(off, p.kappa, p.omega_c)
        t = off.times()
        last_neg = np.flatnonzero(t < 0)[-1]
        exact = -np.sqrt(p.kappa) * np.exp(0.5 * p.kappa * t[last_neg])
        assert pulse.samples[last_neg, 0] == pytest.approx(exact, abs=1e-14)
        assert abs(pulse.samples[last_neg, 0] + np.sqrt(p.kappa)) < 0.01

    def test_spectrum_closed_form(self):
        p = TwoLevelParams(1.0, 0.5)
        n = 2**14
        dt = 40.0 / n
        grid = TimeGrid(t_start=-20.0 + dt / 2, dt=dt, n=n)
        w, spec = fourier(rising_exp_pulse(grid, p.kappa, p.omega_c))
        window = np.abs(w + p.omega_c) <= 10.0 * p.kappa
        closed = np.sqrt(p.kappa) / (-0.5 * p.kappa + 1j * (w[window] + p.omega_c))
        assert np.max(np.abs(spec[window, 0] - closed) / np.abs(closed)) < 1e-4


class TestFeedbackG:
    def test_swap_doubles_effective_decay(self):
        kappa, wc = 0.8, 1.1
        ws = np.linspace(-12, 12, 241)
        got = feedback_g(SWAP, kappa, kappa, wc, ws)
        ref = (-2.0 * kappa + 1j * (ws + wc)) / (2.0 * kappa + 1j * (ws + wc))
        assert np.max(np.abs(got - ref)) < 1e-14

    def test_real_scattering_has_no_shift(self, rng):
        # any real orthogonal loop reduces to the unshifted resonance
        theta = 0.7
        s = np.array(
            [[np.cos(theta), np.sin(theta)], [np.sin(theta), -np.cos(theta)]]
        )
        k1, k2, wc = 1.0, 0.5, 0.9
        ws = rng.uniform(-10, 10, size=64)
        got = feedback_g(s, k1, k2, wc, ws)
        w_gain = s[0, 1] / (1.0 - s[1, 1])
        width = abs(np.sqrt(k1) + w_gain * np.sqrt(k2)) ** 2
        s_red = s[0, 0] + w_gain * s[1, 0]
        ref = s_red * (-0.5 * width + 1j * (ws + wc)) / (0.5 * width + 1j * (ws + wc))
        assert np.max(np.abs(got - ref)) < 1e-14

    def test_beamsplitter_resonance_location(self):
        k1, k2, wc = 1.0, 0.5, 0.3
        shift = np.sqrt(k1 * k2) / (np.sqrt(2.0) - 1.0)
        g_res = feedback_g(BS50, k1, k2, wc, -wc - shift)
        # feedthrough is exactly -1, so the response at resonance is +1
        assert g_res == pytest.approx(1.0, abs=1e-12)

    def test_singular_loop(self):
        with pytest.raises(SingularLoopError):
            feedback_g(np.eye(2), 1.0, 1.0, 0.0, 0.0)

    @pytest.mark.parametrize("scattering", [SWAP, BS50], ids=["swap", "bs50"])
    def test_matches_reduction_pipeline(self, scattering, rng):
        k1, k2, wc = 1.0, 0.5, 2.0
        m = two_channel_model(k1, k2, wc, S=scattering)
        filt = from_model(feedback_reduce(m))
        ws = np.sort(rng.uniform(-25, 25, size=128))
        pipeline = filt.response_matrix(ws)[:, 0, 0]
        closed = feedback_g(scattering, k1, k2, wc, ws)
        assert np.max(np.abs(pipeline - closed)) < 1e-10
