import numpy as np
import pytest

from photon_slh import FilterStage, PhotonTransfer, SLHModel, sigma_minus, sigma_z


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


def uncoupled_filter(channels: int) -> PhotonTransfer:
    """One stage with no coupling, so ``G(i w) = I`` whatever its (stable) pole."""
    stage = FilterStage(S=np.eye(channels), theta=np.zeros(channels), h=0.0, a=-1.0)
    return PhotonTransfer(stages=(stage,))


SWAP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
BS50 = np.array([[1.0, 1.0j], [1.0j, 1.0]], dtype=complex) / np.sqrt(2.0)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
