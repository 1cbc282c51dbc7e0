import math

import numpy as np
import pytest

from photon_slh import (
    FilterStage,
    PhotonTransfer,
    Pulse,
    SLHModel,
    TimeGrid,
    pulses,
    sigma_minus,
    sigma_z,
)


def two_level_model(kappa: float, omega_c: float) -> SLHModel:
    """Single-channel two-level system with decay kappa and transition omega_c."""
    return SLHModel.factored(
        np.array([[1.0]], dtype=complex),
        [np.sqrt(kappa)],
        sigma_minus(),
        (omega_c / 2.0) * sigma_z(),
    )


def two_channel_model(kappa1: float, kappa2: float, omega_c: float, S=None) -> SLHModel:
    """Two-channel two-level system; S defaults to the identity."""
    if S is None:
        S = np.eye(2, dtype=complex)
    return SLHModel.factored(
        S,
        [np.sqrt(kappa1), np.sqrt(kappa2)],
        sigma_minus(),
        (omega_c / 2.0) * sigma_z(),
    )


def fourier(p: Pulse):
    """Quadrature of the continuous transform ``int exp(-i w t) xi(t) dt``.

    FFT with ``dt`` scaling and the ``exp(-i w t_start)`` phase; returns the
    frequencies in increasing order and the ``(n, K)`` spectrum samples.
    """
    w = p.grid.omegas()
    vals = np.fft.fft(p.samples, axis=0) * p.grid.dt
    vals *= np.exp(-1j * w * p.grid.t_start)[:, None]
    order = np.fft.fftshift(np.arange(p.grid.n))
    return w[order], vals[order]


def inverse_fourier(values, grid: TimeGrid) -> np.ndarray:
    """Inverse of :func:`fourier`: spectrum samples in increasing frequency order
    back to ``(n, K)`` time samples on ``grid``."""
    vals = np.asarray(values, dtype=complex).reshape(grid.n, -1)
    vals = vals[np.fft.ifftshift(np.arange(grid.n))]
    vals = vals * np.exp(1j * grid.omegas() * grid.t_start)[:, None]
    return np.fft.ifft(vals, axis=0) / grid.dt


def haar_unitary(rng, k: int) -> np.ndarray:
    """Haar-random K x K unitary: QR of a complex Ginibre matrix, R's phases removed."""
    q, r = np.linalg.qr(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
    d = np.diag(r)
    return q * (d / np.abs(d))


def dense_kernel(stage: FilterStage) -> np.ndarray:
    """The stage's K x K kernel matrix ``h theta theta^dag S``, built from its fields."""
    return stage.h * np.outer(stage.theta, stage.theta.conj()) @ stage.S


def dense_response(f: PhotonTransfer, omegas) -> np.ndarray:
    """Reference ``G(i w)``, shape ``(n, K, K)``: the ordered product of the dense
    per-stage matrices ``S + h theta theta^dag S / (i w - a)``."""
    w = np.asarray(omegas, dtype=float).reshape(-1)
    total = np.eye(f.channels, dtype=complex)
    for stage in f.stages:
        g = stage.S + dense_kernel(stage) / (1j * w - stage.a)[:, None, None]
        total = g @ total
    return total


SWAP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
BS50 = np.array([[1.0, 1.0j], [1.0j, 1.0]], dtype=complex) / np.sqrt(2.0)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def floats_by_python(monkeypatch):
    """The CSV writer with its float arithmetic off: Python's own ``"%.16e"``
    writes every value but zero."""
    monkeypatch.setattr(pulses, "_E16_RANGE", (math.inf, -math.inf))


@pytest.fixture(params=["layout", "loadtxt"])
def csv_parse(request, monkeypatch):
    """Which parse reads a pulse CSV in the writer's layout: the reader's own, or,
    with it turned off, the np.loadtxt path that reads every other file."""
    if request.param == "loadtxt":
        monkeypatch.setattr(pulses, "_layout_table", lambda fh: None)
    return request.param
