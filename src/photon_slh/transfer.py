"""Linear single-photon transfer filters.

A validated model acts on a single-photon pulse as a one-pole matrix filter:
the impulse response is a delta feedthrough ``S`` plus the smooth kernel
``h * theta theta^dag * exp(a t) * S`` for ``t >= 0``.  Filters compose by
cascade, ``PhotonTransfer(stages=f1.stages + f2.stages)`` for ``f2`` after
``f1``; the frequency response of a cascade is the ordered matrix product of
the per-stage responses

    G(i w) = S + h (theta theta^dag) S / (i w - a).

Stages keep their poles exact instead of multiplying the rational functions
out, so long chains stay well conditioned.  The delta part is never placed
on a time grid; time-domain shaping (see :mod:`photon_slh.pulses`) applies
``S`` exactly and convolves only the smooth kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelValidationError, SLHModel, validate_model
from .operators import DEFAULT_TOL

__all__ = [
    "FilterStage",
    "PhotonTransfer",
    "from_model",
]

#: Absolute residual allowed in the construction self-test at w = 0.
SELF_TEST_TOL = 1e-9


def _exp_integral(a: complex) -> complex:
    """Quadrature of ``int_0^inf exp(a t) dt`` for ``Re(a) < 0``.

    Composite 20-point Gauss-Legendre over [0, 40/|Re a|]; panel widths are
    tied to |a| so oscillatory kernels stay resolved.  Used only as an
    independent check against the closed-form ``-1/a``.
    """
    horizon = 40.0 / abs(a.real)
    n_seg = int(np.clip(np.ceil(abs(a) * horizon / 2.0), 32, 8192))
    nodes, weights = np.polynomial.legendre.leggauss(20)
    edges = np.linspace(0.0, horizon, n_seg + 1)
    half = 0.5 * (edges[1] - edges[0])
    mids = 0.5 * (edges[:-1] + edges[1:])
    ts = (mids[:, None] + half * nodes[None, :]).ravel()
    ws = np.tile(weights * half, n_seg)
    return complex(np.sum(ws * np.exp(a * ts)))


@dataclass(frozen=True, eq=False)
class FilterStage:
    """One pole of the filter: feedthrough ``S`` plus ``h theta theta^dag e^{at} S``."""

    S: np.ndarray
    theta: np.ndarray
    h: float
    a: complex

    def __post_init__(self) -> None:
        s = np.array(self.S, dtype=complex)
        th = np.array(self.theta, dtype=complex).reshape(-1)
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise ValueError(f"stage S must be square, got shape {s.shape}")
        if th.shape[0] != s.shape[0]:
            raise ValueError("stage theta length must match the channel count")
        a = complex(self.a)
        if not a.real < 0.0:
            raise ValueError(f"stage pole must have Re(a) < 0, got {a}")
        kernel = float(self.h) * np.outer(th, th.conj()) @ s
        s.setflags(write=False)
        th.setflags(write=False)
        kernel.setflags(write=False)
        object.__setattr__(self, "S", s)
        object.__setattr__(self, "theta", th)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "h", float(self.h))
        object.__setattr__(self, "_kernel", kernel)
        self._self_test()

    @property
    def channels(self) -> int:
        return self.S.shape[0]

    @property
    def kernel_matrix(self) -> np.ndarray:
        """Constant matrix factor of the smooth kernel, ``h theta theta^dag S``."""
        return self._kernel

    def _self_test(self) -> None:
        # Zero-frequency response by formula vs direct kernel quadrature.
        formula = self.S - self._kernel / self.a
        quad = self.S + self._kernel * _exp_integral(self.a)
        residual = float(np.linalg.norm(formula - quad))
        if residual > SELF_TEST_TOL:
            raise RuntimeError(
                f"stage self-test failed: zero-frequency residual {residual:.3e}"
            )

    def response(self, omegas: np.ndarray) -> np.ndarray:
        """Per-frequency response, shape ``(len(omegas), K, K)``."""
        w = np.asarray(omegas, dtype=float).reshape(-1)
        gain = 1.0 / (1j * w - self.a)
        return self.S[None, :, :] + gain[:, None, None] * self._kernel[None, :, :]


@dataclass(frozen=True, eq=False)
class PhotonTransfer:
    """A cascade of :class:`FilterStage` objects, applied in list order."""

    stages: tuple

    def __post_init__(self) -> None:
        if not self.stages:
            raise ValueError("filter needs at least one stage")
        k = self.stages[0].channels
        for st in self.stages:
            if st.channels != k:
                raise ValueError("all stages must share the channel count")
        object.__setattr__(self, "stages", tuple(self.stages))

    @property
    def channels(self) -> int:
        return self.stages[0].channels

    @property
    def feedthrough(self) -> np.ndarray:
        """Product of the stage feedthrough matrices (last stage leftmost)."""
        d = np.eye(self.channels, dtype=complex)
        for st in self.stages:
            d = st.S @ d
        return d

    def response_matrix(self, omegas: np.ndarray) -> np.ndarray:
        """Cascade response ``G(i w)`` at each frequency, shape ``(n, K, K)``."""
        w = np.asarray(omegas, dtype=float).reshape(-1)
        total = np.broadcast_to(
            np.eye(self.channels, dtype=complex), (w.size, self.channels, self.channels)
        ).copy()
        for st in self.stages:
            total = np.einsum("nij,njk->nik", st.response(w), total)
        return total


def from_model(m: SLHModel, tol: float = DEFAULT_TOL) -> PhotonTransfer:
    """Extract the single-stage filter of a model that passes the condition check.

    Raises :class:`ModelValidationError` (carrying the full report) when the
    model does not satisfy the linear-response conditions.
    """
    report = validate_model(m, tol=tol)
    if not report.passed:
        raise ModelValidationError(report)
    p = report.params
    return PhotonTransfer(
        stages=(FilterStage(S=m.S, theta=m.theta, h=p.h, a=p.a),)
    )

