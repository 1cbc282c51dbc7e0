"""Linear single-photon transfer filters.

A validated model acts on a single-photon pulse as a cascade of one-pole
stages.  A stage ``(S, theta, a)`` adds to its unitary feedthrough ``S`` a
rank-one term built from the row ``drive = h theta^dag S``, with ``h = 2
Re(a)/|theta|^2`` derived so that every stage is all-pass (lossless),

    G(i w) = S + theta drive / (i w - a)
           = (I + 2 Re(a) theta theta^dag / (|theta|^2 (i w - a))) S,

so its impulse response is ``S delta(t) + theta drive exp(a t)`` for
``t >= 0``, one scalar state per stage.  ``PhotonTransfer(stages=f1.stages +
f2.stages)`` is ``f2`` after ``f1``.  A cascade applies this update stage by
stage, never forming a per-frequency matrix, and keeps each pole exact, so
long chains stay well conditioned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import DEFAULT_TOL, ModelValidationError, SLHModel, require_unitary, validate_model

__all__ = [
    "FilterStage",
    "PhotonTransfer",
    "from_model",
]


@dataclass(frozen=True, eq=False)
class FilterStage:
    """One pole of the filter: feedthrough ``S`` plus ``theta drive e^{at}``.

    ``S`` is unitary, ``theta`` nonzero, ``Re(a) < 0``; ``h = 2 Re(a)/|theta|^2`` and the row
    ``drive = h theta^dag S`` feeding the scalar state are derived and read-only: all-pass.
    """

    S: np.ndarray
    theta: np.ndarray
    a: complex

    def __post_init__(self) -> None:
        s = np.array(self.S, dtype=complex)
        th = np.array(self.theta, dtype=complex).reshape(-1)
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise ValueError(f"stage S must be square, got shape {s.shape}")
        if th.shape[0] != s.shape[0]:
            raise ValueError("stage theta length must match the channel count")
        for name, value in (("S", s), ("theta", th), ("a", complex(self.a))):
            if not np.all(np.isfinite(value)):
                raise ValueError(f"stage {name} must be finite")
            object.__setattr__(self, name, value)
        require_unitary(s)
        if not self.a.real < 0.0:
            raise ValueError(f"stage pole must have Re(a) < 0, got {self.a}")
        weight = float(np.sum(np.abs(th) ** 2))  # as validate_model forms it
        h = 2.0 * self.a.real / weight if weight > 0.0 else 0.0
        if not -np.inf < h < 0.0:
            raise ValueError(f"stage theta must be nonzero, with h finite: |theta|^2 = {weight:g}")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "drive", h * th.conj().dot(s))
        for arr in (s, th, self.drive):
            arr.setflags(write=False)

    @property
    def channels(self) -> int:
        return self.S.shape[0]

    def _self_test(self) -> None:
        """No-op that nothing calls: ``perfbench/tracing.py`` wraps it by name (KeyError if gone)."""


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

    def apply(self, omegas: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """``G(i w_m)`` times row ``m`` of ``rows`` (shape ``(n, K)``), as a new array.

        Per stage, on the rows ``y``: ``c = y . drive / (i w - a)``, ``y <- y S^T + c theta^T``.
        """
        iw = 1j * np.asarray(omegas, dtype=float).reshape(-1)
        for st in self.stages:
            c = rows.dot(st.drive)
            c /= iw - st.a
            rows = rows.dot(st.S.T)
            rows += np.multiply.outer(c, st.theta)
        return rows

    def response_matrix(self, omegas: np.ndarray) -> np.ndarray:
        """Cascade response ``G(i w)`` at each frequency, shape ``(n, K, K)``."""
        n = np.size(omegas)
        units = np.eye(self.channels, dtype=complex)
        return np.stack([self.apply(omegas, np.broadcast_to(e, (n, e.size))) for e in units], -1)


def from_model(m: SLHModel, tol: float = DEFAULT_TOL) -> PhotonTransfer:
    """Extract the single-stage filter of a model that passes the condition check.

    Raises :class:`ModelValidationError` (carrying the full report) when the
    model does not satisfy the linear-response conditions, and
    :class:`ValueError` for a ``tol`` that :func:`validate_model` refuses.
    """
    report = validate_model(m, tol=tol)
    if not report.passed:
        raise ModelValidationError(report)
    return PhotonTransfer(stages=(FilterStage(S=m.S, theta=m.theta, a=report.params.a),))
