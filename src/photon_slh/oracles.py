"""Closed-form reference responses for the worked two-level configurations.

Everything here is an explicit formula, independent of the model/filter
machinery, so the rest of the package can be tested against it:

* single-channel two-level transfer
  ``g(i w) = (-k/2 + i(w + w_c)) / (k/2 + i(w + w_c))`` (all-pass);
* two-channel transmission/reflection pair with
  ``|g1|^2 + |g2|^2 = 1``;
* N-element memory chain ``g^N`` and its time-domain kernel, a Laguerre
  polynomial times the single-element decay;
* the closed single-channel response after feeding channel 2 back onto
  itself through a scattering matrix (real or complex).

Kernel sign/phase note: the naive kernel guess
``k N exp(-k t / 2) 1F1(1+N, 2, -k t)`` does not reduce to the N = 1
single-atom kernel ``-k exp(-(k/2 + i w_c) t)``.  Matching the inverse
transform of ``g^N`` (checked numerically in the test suite) fixes the
kernel to

    -k N exp(+k t / 2) 1F1(1+N, 2, -k t) exp(-i w_c t)
        = -k exp(-k t / 2) L^(1)_(N-1)(k t) exp(-i w_c t),

by Kummer's transformation and ``1F1(1-N; 2; x) = L^(1)_(N-1)(x) / N``
(DLMF §13.2, §13.6).  The power series of that Laguerre polynomial
alternates in sign, and for long chains it cancels away every digit (at
N = 40 and ``k t = 40`` its terms reach 1.8e25 and their sum is 1.6e7).  The
three-term recurrence (DLMF §18.9) with ``x = k t``,

    (j + 1) L_(j+1) = (2j + 2 - x) L_j - (j + 1) L_(j-1),

has no such cancellation.  It is linear, so it carries the scaled values
``exp(-x/2) L_j`` from ``exp(-x/2) L_0 = exp(-x/2)`` and ``L_(-1) = 0``
just as well, and the product never overflows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import SingularLoopError, SINGULAR_LOOP_TOL, require_unitary, square_matrix

__all__ = [
    "TwoLevelParams",
    "two_level_g",
    "two_channel_g",
    "memory_g",
    "memory_kernel",
    "feedback_g",
]


def _require_finite(**values: float) -> None:
    for name, value in values.items():
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class TwoLevelParams:
    """Two-level system constants: decay rate ``kappa`` and transition frequency."""

    kappa: float
    omega_c: float = 0.0

    def __post_init__(self) -> None:
        if not self.kappa > 0.0:
            raise ValueError("kappa must be positive")
        _require_finite(kappa=self.kappa, omega_c=self.omega_c)


def two_level_g(p: TwoLevelParams, omega):
    """Single-channel two-level transfer; unit modulus at every frequency."""
    w = np.asarray(omega, dtype=float)
    num = -0.5 * p.kappa + 1j * (w + p.omega_c)
    den = 0.5 * p.kappa + 1j * (w + p.omega_c)
    return num / den


def two_channel_g(kappa1: float, kappa2: float, omega_c: float, omega):
    """Transmission/reflection pair ``(g1, g2)`` for a two-channel two-level system.

    ``g1`` maps channel-1 input to channel-1 output; the channel-2 output is
    ``-g2`` times the input spectrum (the reflection carries a minus in the
    filter matrix element).  ``|g1|^2 + |g2|^2 = 1``; the reflection reaches
    unity only at ``w = -w_c`` with equal couplings.
    """
    if not (kappa1 > 0.0 and kappa2 > 0.0):
        raise ValueError("kappa1 and kappa2 must be positive")
    _require_finite(kappa1=kappa1, kappa2=kappa2, omega_c=omega_c)
    w = np.asarray(omega, dtype=float)
    den = 0.5 * (kappa1 + kappa2) + 1j * (w + omega_c)
    g1 = (-0.5 * (kappa1 - kappa2) + 1j * (w + omega_c)) / den
    g2 = np.sqrt(kappa1 * kappa2) / den
    return g1, g2


def memory_g(n: int, p: TwoLevelParams, omega):
    """Frequency response of ``n`` identical two-level elements in series."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return two_level_g(p, omega) ** n


def memory_kernel(n: int, p: TwoLevelParams, t):
    """Smooth part of the N-element memory kernel at times ``t >= 0``.

    Equals ``-kappa exp(-kappa t / 2) L^(1)_(N-1)(kappa t) exp(-i w_c t)``,
    with the Laguerre polynomial evaluated by its scaled three-term
    recurrence (see the module docstring); the delta feedthrough is carried
    separately by callers.  Rejects negative times: the kernel is causal.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    ts = np.asarray(t, dtype=float)
    if np.any(ts < 0.0):
        raise ValueError("kernel is causal; t must be nonnegative")
    with np.errstate(over="ignore"):
        x = p.kappa * ts
    if not np.all(np.isfinite(x)):
        raise ValueError("kappa t must be finite")
    prev, cur = np.zeros_like(x), np.exp(-0.5 * x)
    for j in range(n - 1):
        prev, cur = cur, ((2 * j + 2 - x) * cur - (j + 1) * prev) / (j + 1)
    vals = -p.kappa * cur * np.exp(-1j * p.omega_c * ts)
    if ts.ndim == 0:
        return complex(vals)
    return vals


def feedback_g(S, kappa1: float, kappa2: float, omega_c: float, omega):
    """Closed-loop single-channel response after feeding channel 2 back.

    With ``w = S12 (1 - S22)^-1``, the loop leaves a single channel with
    feedthrough ``S11 + w S21``, coupling amplitude
    ``theta = sqrt(kappa1) + w sqrt(kappa2)``, and resonance shifted by
    ``Delta = Im(sqrt(kappa1 kappa2) w + kappa2 S22 (1 - S22)^-1)``:

        G(i w) = (S11 + w S21) *
                 (-|theta|^2/2 + i(w + w_c + Delta)) /
                 (+|theta|^2/2 + i(w + w_c + Delta)).

    Real scattering gives ``Delta = 0``; the complex case only adds the
    shift.  ``S`` must be unitary, as in an ``SLHModel``.  The coupling enters
    through its modulus squared, which keeps the loop response all-pass and
    matches the filter pipeline on the reduced model.
    """
    if not (kappa1 > 0.0 and kappa2 > 0.0):
        raise ValueError("kappa1 and kappa2 must be positive")
    _require_finite(kappa1=kappa1, kappa2=kappa2, omega_c=omega_c)
    s = square_matrix(S, "S")
    if s.shape != (2, 2):
        raise ValueError("S must be 2x2")
    require_unitary(s)
    denom = 1.0 - s[1, 1]
    if abs(denom) <= SINGULAR_LOOP_TOL:
        raise SingularLoopError(
            f"singular loop: |1 - S22| = {abs(denom):.3e} (open feedback path)"
        )
    w_gain = s[0, 1] / denom
    s_red = s[0, 0] + w_gain * s[1, 0]
    theta = np.sqrt(kappa1) + w_gain * np.sqrt(kappa2)
    delta = (np.sqrt(kappa1 * kappa2) * w_gain + kappa2 * s[1, 1] / denom).imag
    width = abs(theta) ** 2
    w = np.asarray(omega, dtype=float)
    detune = 1j * (w + omega_c + delta)
    return s_red * (-0.5 * width + detune) / (0.5 * width + detune)
