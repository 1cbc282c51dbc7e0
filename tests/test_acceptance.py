"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Tolerances are pinned here and nowhere else; grids are 2^14 points spanning
at least 40/kappa with jump discontinuities kept between samples.
"""

import functools

import numpy as np
from math import comb

from photon_slh import (
    PhotonTransfer,
    TimeGrid,
    TwoLevelParams,
    decaying_exp_pulse,
    feedback_g,
    feedback_reduce,
    feedback_shift,
    from_model,
    gaussian_pulse,
    memory_g,
    memory_kernel,
    rising_exp_pulse,
    shape_fft,
    shape_ode,
    square_pulse,
    validate_model,
)
from conftest import BS50, SWAP, inverse_fourier, two_channel_model, two_level_model
from test_model import joint_memory_model


def criterion(num: int, summary: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL  criterion {num}: {summary}")
                raise
            print(f"PASS  criterion {num}: {summary}")

        return wrapper

    return deco


def l2(grid: TimeGrid, diff: np.ndarray) -> float:
    return float(np.sqrt(np.sum(np.abs(diff) ** 2) * grid.dt))


def l2_up_to_phase(grid: TimeGrid, x: np.ndarray, y: np.ndarray) -> float:
    nx = np.sum(np.abs(x) ** 2) * grid.dt
    ny = np.sum(np.abs(y) ** 2) * grid.dt
    overlap = abs(np.sum(np.conj(x) * y)) * grid.dt
    return float(np.sqrt(max(nx + ny - 2.0 * overlap, 0.0)))


def standard_grid(kappa: float, log2_n: int = 14) -> TimeGrid:
    # span 40/kappa, half-sample offset keeps t = 0 between samples
    n = 2**log2_n
    dt = 40.0 / kappa / n
    return TimeGrid(t_start=-20.0 / kappa + dt / 2.0, dt=dt, n=n)


@criterion(1, "two-level parameter extraction (alpha, beta, h, a) to 1e-12")
def test_parameter_extraction():
    rng = np.random.default_rng(0)
    for _ in range(20):
        kappa = rng.uniform(0.1, 5.0)
        omega_c = rng.uniform(-5.0, 5.0)
        rep = validate_model(two_level_model(kappa, omega_c))
        assert rep.passed
        p = rep.params
        assert abs(p.alpha - (-omega_c / 2.0)) <= 1e-12
        assert abs(p.beta - omega_c) <= 1e-12
        assert abs(p.h - (-1.0)) <= 1e-12
        assert abs(p.a - complex(-kappa / 2.0, -omega_c)) <= 1e-12


@criterion(2, "single-channel all-pass and norm preservation")
def test_all_pass_norm_preservation():
    from photon_slh import two_level_g

    rng = np.random.default_rng(1)
    p = TwoLevelParams(kappa=1.3, omega_c=0.7)
    ws = rng.uniform(-60.0, 60.0, size=1000)
    assert np.max(np.abs(np.abs(two_level_g(p, ws)) - 1.0)) <= 1e-14

    filt = from_model(two_level_model(p.kappa, p.omega_c))
    grid = standard_grid(p.kappa)
    pulse = gaussian_pulse(grid, t0=-8.0 / p.kappa, sigma=1.0 / p.kappa)
    out = shape_fft(pulse, filt)
    assert abs(out.norm() - 1.0) <= 1e-6


@criterion(3, "two-channel flux conservation and perfect-reflection condition")
def test_two_channel_flux():
    from photon_slh import two_channel_g

    rng = np.random.default_rng(2)
    wc = 0.4

    k1 = k2 = 1.1
    ws = rng.uniform(-50.0, 50.0, size=1000)
    g1, g2 = two_channel_g(k1, k2, wc, ws)
    assert np.max(np.abs(np.abs(g1) ** 2 + np.abs(g2) ** 2 - 1.0)) <= 1e-12
    _, g2_res = two_channel_g(k1, k2, wc, -wc)
    assert abs(abs(g2_res) ** 2 - 1.0) <= 1e-12

    k1, k2 = 2.0, 0.6
    g1, g2 = two_channel_g(k1, k2, wc, ws)
    assert np.max(np.abs(np.abs(g1) ** 2 + np.abs(g2) ** 2 - 1.0)) <= 1e-12
    _, g2_res = two_channel_g(k1, k2, wc, -wc)
    cap = 4.0 * k1 * k2 / (k1 + k2) ** 2
    assert abs(abs(g2_res) ** 2 - cap) <= 1e-12
    assert abs(g2_res) ** 2 < 1.0


@criterion(4, "shape_fft vs shape_ode cross-oracle, L2 < 1e-4 on all pulse/filter pairs")
def test_cross_method_oracle():
    kappa, wc = 1.0, 0.8
    grid = standard_grid(kappa)
    single = from_model(two_level_model(kappa, wc))
    double = from_model(two_channel_model(1.0, 0.6, wc))

    def pulses(channels: int):
        return {
            "gaussian": gaussian_pulse(grid, t0=-8.0, sigma=1.2, channels=channels),
            "square": square_pulse(grid, -6.0, -3.0, channels=channels),
            "rising_exp": rising_exp_pulse(grid, kappa, wc, channels=channels),
            "decaying_exp": decaying_exp_pulse(grid, kappa, t_on=-10.0, channels=channels),
        }

    for filt, channels in ((single, 1), (double, 2)):
        for kind, pulse in pulses(channels).items():
            a = shape_fft(pulse, filt)
            b = shape_ode(pulse, filt)
            assert l2(grid, a.samples - b.samples) < 1e-4, (kind, channels)


@criterion(5, "zero-dynamics inversion: energy after t=0, matched decaying output")
def test_zero_dynamics_inversion():
    kappa, wc = 1.0, 0.9
    filt = from_model(two_level_model(kappa, wc))
    grid = standard_grid(kappa)
    pulse = rising_exp_pulse(grid, kappa, wc)
    out = shape_fft(pulse, filt)
    assert out.energy_fraction_before() < 1e-6
    t = grid.times()
    expected = np.where(t > 0.0, np.sqrt(kappa) * np.exp(-(0.5 * kappa + 1j * wc) * t), 0.0)
    assert l2_up_to_phase(grid, out.samples[:, 0], expected) < 1e-3


@criterion(6, "memory cascade: spectrum inversion matches the 1F1 kernel, L2 < 1e-4")
def test_memory_cascade_kernel():
    p = TwoLevelParams(kappa=1.0, omega_c=0.8)
    pole = -1j * p.omega_c - 0.5 * p.kappa
    n_grid = 2**14
    # wide grid for the kernel inversion (the N = 5 kernel tail wraps otherwise)
    grid = TimeGrid(t_start=-80.0 / p.kappa, dt=160.0 / p.kappa / n_grid, n=n_grid)
    w = np.fft.fftshift(grid.omegas())
    t = grid.times()
    up = t >= 0.0

    base = from_model(two_level_model(p.kappa, p.omega_c))
    conv_grid = TimeGrid(t_start=-40.0 / p.kappa, dt=80.0 / p.kappa / n_grid, n=n_grid)
    x = gaussian_pulse(conv_grid, t0=-15.0, sigma=1.5)
    tau = np.arange(n_grid) * conv_grid.dt

    for n in (1, 2, 3, 5):
        # (a) invert the chain response numerically; the two leading
        # partial-fraction terms (plain exponential transforms) are peeled
        # off analytically so the jump does not ring.
        remainder = (
            memory_g(n, p, w)
            - 1.0
            - comb(n, 1) * (-p.kappa) / (1j * w - pole)
            - comb(n, 2) * p.kappa**2 / (1j * w - pole) ** 2
        )
        rem_t = inverse_fourier(remainder, grid)[:, 0]
        peeled = (comb(n, 1) * (-p.kappa) + comb(n, 2) * p.kappa**2 * np.maximum(t, 0.0)) * np.exp(
            pole * np.maximum(t, 0.0)
        )
        kernel_fft = rem_t + np.where(up, peeled, 0.0)
        closed = memory_kernel(n, p, t[up])
        assert l2(grid, kernel_fft[up] - closed) < 1e-4, n
        assert l2(grid, kernel_fft[~up]) < 1e-4, n  # causal

        # (b) shaping a pulse through the n-stage filter agrees with direct
        # convolution against the closed-form kernel plus the delta term.
        filt = PhotonTransfer(stages=base.stages * n)
        out = shape_fft(x, filt)
        g = memory_kernel(n, p, tau).astype(complex)
        g[0] *= 0.5  # trapezoid weight at the kernel onset
        conv = np.convolve(x.samples[:, 0], g)[:n_grid] * conv_grid.dt + x.samples[:, 0]
        assert l2(conv_grid, out.samples[:, 0] - conv) < 1e-4, n


@criterion(7, "coherent feedback: swap and beamsplitter loops, closed form vs pipeline")
def test_coherent_feedback():
    rng = np.random.default_rng(3)
    k1, k2, wc = 1.0, 0.36, 0.9

    swap_model = two_channel_model(k1, k2, wc, S=SWAP)
    reduced = feedback_reduce(swap_model)
    rep = validate_model(reduced)
    assert rep.passed
    expected_a = complex(-((np.sqrt(k1) + np.sqrt(k2)) ** 2) / 2.0, -wc)
    assert abs(rep.params.a - expected_a) <= 1e-12

    bs_model = two_channel_model(k1, k2, wc, S=BS50)
    delta = feedback_shift(bs_model)
    assert abs(delta - np.sqrt(k1 * k2) / (np.sqrt(2.0) - 1.0)) <= 1e-12
    rep_bs = validate_model(feedback_reduce(bs_model))
    assert rep_bs.passed
    assert abs(-rep_bs.params.a.imag - (wc + delta)) <= 1e-12

    ws = np.sort(rng.uniform(-30.0, 30.0, size=256))
    for model, scattering in ((swap_model, SWAP), (bs_model, BS50)):
        pipeline = from_model(feedback_reduce(model)).response_matrix(ws)[:, 0, 0]
        closed = feedback_g(scattering, k1, k2, wc, ws)
        assert np.max(np.abs(pipeline - closed)) <= 1e-10


@criterion(8, "joint two-atom chain model fails the commutator proportionality check")
def test_joint_memory_negative():
    rep = validate_model(joint_memory_model(1.0, 0.5))
    assert not rep.passed
    assert not rep.conditions["commutator_proportional"].holds
    for name in ("ground_energy", "coupling_annihilates", "number_eigenrelation"):
        assert rep.conditions[name].holds
    assert "commutator_proportional" in rep.failed_conditions()
