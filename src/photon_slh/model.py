"""Scattering/coupling/Hamiltonian models and their network algebra.

An :class:`SLHModel` bundles a unitary scattering matrix ``S``, a Hermitian
plant Hamiltonian ``H0`` and channel couplings that all go through one
operator, ``L_k = theta_k * L0``: a complex profile ``theta`` (one entry per
field channel) times a single coupling operator ``L0``.  That is the form the
single-photon transfer result covers, and the only form a model takes here.

The checker verifies five conditions on a model:

* ``ground_energy``        -- ``H0|0> = alpha |0>``
* ``coupling_annihilates`` -- ``L0|0> = 0``
* ``commutator_proportional`` -- ``<0|[L0, H0] = beta <0|L0``
* ``number_eigenrelation`` -- ``[L0^dag, L0]|0> = h |0>`` with ``h`` real
* ``stability``            -- ``Re(a) < 0`` for the pole
  ``a = -i beta + (1/2) (sum_k |theta_k|^2) h``

When all five hold, the model acts on a single-photon input as a stable
linear filter with pole ``a`` (see :mod:`photon_slh.transfer`), and the
extracted scalars are returned as :class:`DerivedParams`.

Network operations: :func:`series_product` feeds one system's output fields
into another's inputs (operators must already live on a common Hilbert
space, e.g. via :func:`photon_slh.operators.embed_site`) and refuses a
result whose couplings are not all multiples of one operator;
:func:`feedback_reduce` closes the second channel of a two-channel model
onto itself, producing a single-channel model whose resonance is shifted by
the real scalar returned by :func:`feedback_shift`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .operators import (
    DEFAULT_TOL,
    EigenRelationReport,
    Operator,
    commutator,
    ground_state,
    row_proportionality_test,
    vector_eigen_test,
    zero,
)

__all__ = [
    "CONDITION_NAMES",
    "SLHModel",
    "DerivedParams",
    "ConditionReport",
    "ValidationReport",
    "ModelValidationError",
    "SingularLoopError",
    "validate_model",
    "series_product",
    "feedback_reduce",
    "feedback_shift",
    "model_to_dict",
    "model_from_dict",
    "load_model",
    "save_model",
]

#: Structural tolerance for the type invariants (S unitary, H0 Hermitian).
STRUCTURE_TOL = 1e-10

#: Loop is treated as singular when ``|1 - S22|`` falls below this.
SINGULAR_LOOP_TOL = 1e-12

CONDITION_NAMES = (
    "ground_energy",
    "coupling_annihilates",
    "commutator_proportional",
    "number_eigenrelation",
    "stability",
)


class SingularLoopError(ValueError):
    """Feedback loop ``1 - S22`` is (numerically) singular."""


@dataclass(frozen=True, eq=False)
class SLHModel:
    """Open-system model ``(S, L, H0)`` on an N-level Hilbert space.

    ``S`` is K x K and unitary, ``H0`` is Hermitian, and channel ``k``
    couples through ``L_k = theta_k * L0``: ``theta`` holds K finite complex
    amplitudes and ``L0`` is one operator on the same space as ``H0``.
    """

    S: np.ndarray
    theta: np.ndarray
    L0: Operator
    H0: Operator

    def __post_init__(self) -> None:
        s = np.array(self.S, dtype=complex)
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise ValueError(f"S must be square, got shape {s.shape}")
        k = s.shape[0]
        th = np.array(self.theta, dtype=complex).reshape(-1)
        if th.shape != (k,):
            raise ValueError(f"theta has length {th.size} for {k} channels")
        if not np.all(np.isfinite(th)):
            raise ValueError("theta entries must be finite")
        defect = np.linalg.norm(s.conj().T @ s - np.eye(k))
        if defect > STRUCTURE_TOL:
            raise ValueError(f"S is not unitary (defect {defect:.3e})")
        herm = np.linalg.norm(self.H0.mat - self.H0.mat.conj().T)
        if herm > STRUCTURE_TOL:
            raise ValueError(f"H0 is not Hermitian (defect {herm:.3e})")
        if self.L0.dim != self.H0.dim:
            raise ValueError("L0 dimension does not match H0")
        s.setflags(write=False)
        th.setflags(write=False)
        object.__setattr__(self, "S", s)
        object.__setattr__(self, "theta", th)

    @property
    def channels(self) -> int:
        return self.S.shape[0]

    @property
    def levels(self) -> int:
        return self.H0.dim

    @property
    def L(self) -> tuple:
        """Per-channel coupling operators ``theta_k * L0``, built on each access."""
        return tuple(complex(c) * self.L0 for c in self.theta)

    @classmethod
    def factored(
        cls,
        S: np.ndarray,
        theta: Sequence[complex],
        L0: Operator,
        H0: Operator,
    ) -> "SLHModel":
        """Build a model with coupling ``L_k = theta_k * L0``."""
        return cls(S=S, theta=theta, L0=L0, H0=H0)


def _factor_coupling(ops: list, dim: int, rtol: float = 1e-12):
    """Write ``ops[k] = theta_k * L0`` and return ``(theta, L0)``.

    Raises ``ValueError`` when the operators are not all multiples of one.
    """
    k = len(ops)
    stacked = np.stack([op.mat.reshape(-1) for op in ops], axis=1)
    scale = np.linalg.norm(stacked)
    if scale == 0.0:
        return np.zeros(k, dtype=complex), zero(dim)
    if k == 1:
        return np.array([1.0 + 0.0j]), ops[0]
    u, sing, _ = np.linalg.svd(stacked, full_matrices=False)
    if sing[1] > rtol * sing[0]:
        raise ValueError(
            "series product does not factor as L_k = theta_k * L0: "
            "its channel couplings are not multiples of one operator"
        )
    lead = u[:, 0]
    # Phase convention: largest entry of L0 real and positive.
    j = int(np.argmax(np.abs(lead)))
    lead = lead * (lead[j].conjugate() / abs(lead[j]))
    theta = lead.conj() @ stacked
    return theta, Operator(lead.reshape(dim, dim))


@dataclass(frozen=True)
class DerivedParams:
    """Scalars extracted by the condition checker.

    alpha -- ground-state energy of ``H0``
    beta  -- proportionality rate of ``<0|[L0, H0]`` along ``<0|L0``
    h     -- eigenvalue of ``[L0^dag, L0]`` on the ground state (real)
    a     -- filter pole, ``-i*beta + (1/2) (sum_k |theta_k|^2) h``
    """

    alpha: complex
    beta: complex
    h: float
    a: complex


@dataclass(frozen=True)
class ConditionReport:
    name: str
    holds: bool
    residual: float
    message: str = ""


@dataclass(frozen=True)
class ValidationReport:
    """Per-condition verdicts plus the extracted parameters.

    ``params`` is populated whenever the four algebraic conditions hold
    (so the pole is well defined) even if stability then fails; ``passed``
    requires all five verdicts.
    """

    passed: bool
    conditions: dict
    params: Optional[DerivedParams] = None

    def failed_conditions(self) -> list:
        return [name for name, rep in self.conditions.items() if not rep.holds]

    def to_dict(self) -> dict:
        out = {
            "passed": self.passed,
            "conditions": {
                name: {
                    "holds": rep.holds,
                    "residual": None if np.isnan(rep.residual) else rep.residual,
                    "message": rep.message,
                }
                for name, rep in self.conditions.items()
            },
        }
        if self.params is not None:
            p = self.params
            out["params"] = {
                "alpha": [p.alpha.real, p.alpha.imag],
                "beta": [p.beta.real, p.beta.imag],
                "h": p.h,
                "a": [p.a.real, p.a.imag],
            }
        return out


class ModelValidationError(Exception):
    """A model failed the linear-response condition check."""

    def __init__(self, report: ValidationReport):
        self.report = report
        failed = ", ".join(report.failed_conditions())
        super().__init__(f"model failed conditions: {failed}")


def _eigen_condition(name: str, rep: EigenRelationReport) -> ConditionReport:
    msg = "" if rep.holds else "relation does not hold at tolerance"
    return ConditionReport(name=name, holds=rep.holds, residual=rep.residual, message=msg)


def validate_model(m: SLHModel, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check the single-photon linear-response conditions on a model.

    Runs the five checks listed in the module docstring, in order, and
    never raises on a condition failure -- failures are reported.  The
    stability check is strict: ``Re(a) = 0`` fails with a distinct
    "marginally stable" message.
    """
    e0 = ground_state(m.levels)
    l0 = m.L0
    h0 = m.H0
    conditions: dict = {}

    rep_alpha = vector_eigen_test(h0, e0, tol)
    conditions["ground_energy"] = _eigen_condition("ground_energy", rep_alpha)

    coupling_residual = float(np.linalg.norm(l0.mat @ e0))
    conditions["coupling_annihilates"] = ConditionReport(
        name="coupling_annihilates",
        holds=coupling_residual <= tol,
        residual=coupling_residual,
        message="" if coupling_residual <= tol else "L0 does not annihilate the ground state",
    )

    rep_beta = row_proportionality_test(commutator(l0, h0), l0, e0, tol)
    conditions["commutator_proportional"] = _eigen_condition(
        "commutator_proportional", rep_beta
    )

    rep_h = vector_eigen_test(commutator(l0.dagger(), l0), e0, tol)
    h_imag = 0.0 if rep_h.eigenvalue is None else abs(rep_h.eigenvalue.imag)
    h_ok = rep_h.holds and h_imag <= tol
    conditions["number_eigenrelation"] = ConditionReport(
        name="number_eigenrelation",
        holds=h_ok,
        residual=max(rep_h.residual, h_imag) if rep_h.holds else rep_h.residual,
        message="" if h_ok else "eigenrelation fails or eigenvalue is not real",
    )

    algebraic_ok = all(conditions[n].holds for n in CONDITION_NAMES[:-1])

    params: Optional[DerivedParams] = None
    if algebraic_ok:
        alpha = rep_alpha.eigenvalue
        beta = rep_beta.eigenvalue if rep_beta.eigenvalue is not None else 0.0 + 0.0j
        h = float(rep_h.eigenvalue.real)
        coupling_weight = float(np.sum(np.abs(m.theta) ** 2))
        a = -1j * complex(beta) + 0.5 * coupling_weight * h
        params = DerivedParams(alpha=complex(alpha), beta=complex(beta), h=h, a=a)
        re_a = a.real
        stable = re_a < 0.0
        if stable:
            msg = ""
        elif re_a == 0.0:
            msg = "marginally stable: Re(a) = 0"
        else:
            msg = f"unstable pole: Re(a) = {re_a:.6e}"
        conditions["stability"] = ConditionReport(
            name="stability", holds=stable, residual=max(re_a, 0.0), message=msg
        )
    else:
        conditions["stability"] = ConditionReport(
            name="stability",
            holds=False,
            residual=float("nan"),
            message="not evaluated: an algebraic condition failed",
        )

    passed = algebraic_ok and conditions["stability"].holds
    return ValidationReport(passed=passed, conditions=conditions, params=params)


def _im_operator(x: Operator) -> Operator:
    """Skew part ``(X - X^dag) / 2i`` (Hermitian for any X)."""
    return Operator((x.mat - x.mat.conj().T) / 2j)


def series_product(g2: SLHModel, g1: SLHModel) -> SLHModel:
    """Feed the outputs of ``g1`` into the inputs of ``g2``.

    Both systems must act on the same Hilbert space (pre-embed components
    with :func:`photon_slh.operators.embed_site`) with equal channel
    counts.  The result is ``(S2 S1, L2 + S2 L1, H1 + H2 + Im{L2^dag S2 L1})``
    (Gough & James, IEEE TAC 2009), written as ``theta_k * L0``; raises
    ``ValueError`` when its couplings are not all multiples of one operator.
    """
    if g1.channels != g2.channels:
        raise ValueError(
            f"channel count mismatch: {g2.channels} vs {g1.channels}"
        )
    if g1.levels != g2.levels:
        raise ValueError(
            f"Hilbert-space dimension mismatch: {g2.levels} vs {g1.levels}"
        )
    k = g1.channels
    l1, l2 = g1.L, g2.L
    s = g2.S @ g1.S
    new_l = []
    for i in range(k):
        op = l2[i]
        for j in range(k):
            op = op + complex(g2.S[i, j]) * l1[j]
        new_l.append(op)
    cross = zero(g1.levels)
    for i in range(k):
        for j in range(k):
            cross = cross + complex(g2.S[i, j]) * (l2[i].dagger() @ l1[j])
    h = g1.H0 + g2.H0 + _im_operator(cross)
    theta, l0 = _factor_coupling(new_l, g1.levels)
    return SLHModel(S=s, theta=theta, L0=l0, H0=h)


def _loop_gain(m: SLHModel):
    """Common feedback quantities: ``w = S12/(1-S22)`` and ``v = S22/(1-S22)``."""
    if m.channels != 2:
        raise ValueError(f"feedback reduction needs a 2-channel model, got K={m.channels}")
    denom = 1.0 - complex(m.S[1, 1])
    if abs(denom) <= SINGULAR_LOOP_TOL:
        raise SingularLoopError(
            f"singular loop: |1 - S22| = {abs(denom):.3e} (open feedback path)"
        )
    w = complex(m.S[0, 1]) / denom
    v = complex(m.S[1, 1]) / denom
    return w, v


def feedback_shift(m: SLHModel) -> float:
    """Resonance shift produced by closing channel 2 onto itself.

    Real scalar multiplying ``L0^dag L0`` in the reduced Hamiltonian; zero
    whenever ``S`` is real.
    """
    w, v = _loop_gain(m)
    c1, c2 = m.theta
    return float((c1.conjugate() * c2 * w + abs(c2) ** 2 * v).imag)


def feedback_reduce(m: SLHModel) -> SLHModel:
    """Close the second channel of a two-channel model onto itself.

    Returns the single-channel model
    ``S' = S11 + S12 (1-S22)^-1 S21``,
    ``theta' = [c1 + S12 (1-S22)^-1 c2]``,
    ``H' = H0 + shift * L0^dag L0`` with ``shift = feedback_shift(m)``.
    For a two-level plant with ``L0 = sigma_minus`` the correction operator
    ``L0^dag L0`` is the excited-state projector ``(sigma_z + 1)/2``.

    Coupling entries are expected to have nonnegative real part (decay
    amplitudes); complex values are used verbatim in the loop formulas.
    """
    w, _ = _loop_gain(m)
    c1, c2 = m.theta
    s_red = np.array([[complex(m.S[0, 0]) + w * complex(m.S[1, 0])]])
    theta_red = np.array([c1 + w * c2])
    shift = feedback_shift(m)
    h_red = m.H0 + shift * (m.L0.dagger() @ m.L0)
    return SLHModel.factored(s_red, theta_red, m.L0, h_red)


# ---------------------------------------------------------------------------
# JSON serialization.  Complex scalars are [re, im] pairs; matrices are
# row-major nested lists of pairs.  Unknown keys are ignored on load.
# ---------------------------------------------------------------------------


def _pair(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def _matrix_to_pairs(m: np.ndarray) -> list:
    return [[_pair(z) for z in row] for row in np.asarray(m, dtype=complex)]


def _pairs_to_matrix(data, name: str, shape=None) -> np.ndarray:
    try:
        arr = np.array(
            [[complex(cell[0], cell[1]) for cell in row] for row in data], dtype=complex
        )
    except (TypeError, IndexError) as exc:
        raise ValueError(f"field '{name}' must be a matrix of [re, im] pairs") from exc
    if arr.ndim != 2:
        raise ValueError(f"field '{name}' must be two-dimensional")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"field '{name}' entries must be finite")
    if shape is not None and arr.shape != shape:
        raise ValueError(f"field '{name}' has shape {arr.shape}, expected {shape}")
    return arr


def model_to_dict(m: SLHModel) -> dict:
    return {
        "levels": m.levels,
        "channels": m.channels,
        "S": _matrix_to_pairs(m.S),
        "theta": [_pair(c) for c in m.theta],
        "L0": _matrix_to_pairs(m.L0.mat),
        "H0": _matrix_to_pairs(m.H0.mat),
    }


def model_from_dict(data: dict) -> SLHModel:
    if not isinstance(data, dict):
        raise ValueError("model document must be a JSON object")
    for key in ("levels", "channels", "S", "theta", "L0", "H0"):
        if key not in data:
            raise ValueError(f"model document is missing field '{key}'")
    levels, channels = data["levels"], data["channels"]
    for key, value in (("levels", levels), ("channels", channels)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"field '{key}' must be an integer, got {value!r}")
    if levels < 1 or channels < 1:
        raise ValueError("levels and channels must be positive")
    s = _pairs_to_matrix(data["S"], "S", (channels, channels))
    try:
        theta = np.array([complex(c[0], c[1]) for c in data["theta"]], dtype=complex)
    except (TypeError, IndexError) as exc:
        raise ValueError("field 'theta' must be a list of [re, im] pairs") from exc
    if theta.shape != (channels,):
        raise ValueError(f"field 'theta' has length {theta.shape[0]}, expected {channels}")
    l0 = Operator(_pairs_to_matrix(data["L0"], "L0", (levels, levels)))
    h0 = Operator(_pairs_to_matrix(data["H0"], "H0", (levels, levels)))
    return SLHModel.factored(s, theta, l0, h0)


def load_model(path) -> SLHModel:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return model_from_dict(data)


def save_model(m: SLHModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(m), fh, indent=2)
        fh.write("\n")
