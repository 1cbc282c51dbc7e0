"""Scattering/coupling/Hamiltonian models and their network algebra.

An :class:`SLHModel` bundles a unitary scattering matrix ``S``, a Hermitian
plant Hamiltonian ``H0`` and channel couplings that all go through one
operator, ``L_k = theta_k * L0``: a complex profile ``theta`` (one entry per
field channel) times a single coupling operator ``L0``.  That is the form the
single-photon transfer result covers, and the only form a model takes here.
The model holds its matrices as read-only complex numpy arrays, and every
product, adjoint and commutator below is plain matrix algebra on them.

The checker verifies five conditions on a model:

* ``ground_energy``        -- ``H0|0> = alpha |0>``
* ``coupling_annihilates`` -- ``L0|0> = 0``
* ``commutator_proportional`` -- ``<0|[L0, H0] = beta <0|L0``
* ``number_eigenrelation`` -- ``[L0^dag, L0]|0> = h |0>`` with ``h`` real
* ``stability``            -- ``Re(a) < 0`` for the pole
  ``a = -i beta + (1/2) (sum_k |theta_k|^2) h``

Each relation ``u = lambda v`` is checked by one least-squares fit:
``lambda = <v, u>/<v, v>`` and the residual ``||u - lambda v|| / ||v||``
(or ``lambda = 0`` and ``||u||`` when ``v = 0``) must be at most the
tolerance.  The fitted ``lambda`` are ``alpha``, ``beta`` and ``h``.

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

import itertools
import json
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = [
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

#: Default tolerance for the condition check; model data is specified
#: exactly, so defects are rounding-level.
DEFAULT_TOL = 1e-10

#: Loosest condition tolerance.  Residuals are relative: near 1 they pass models
#: that are no one-pole filter (a two-atom series chain has residual 0.377),
#: while 1e-3 still passes model data rounded to a few digits.
TOL_CEILING = 1e-3

#: Structural tolerance for the type invariants (S unitary, H0 Hermitian).
STRUCTURE_TOL = 1e-10

#: A series product factors when its couplings' second singular value is at
#: most this fraction of the first.
FACTOR_TOL = 1e-12

#: Loop is treated as singular when ``|1 - S22|`` falls below this.
SINGULAR_LOOP_TOL = 1e-12


class SingularLoopError(ValueError):
    """Feedback loop ``1 - S22`` is (numerically) singular."""


def square_matrix(x, name: str) -> np.ndarray:
    """``x`` as a read-only complex square matrix of at least 1x1 with finite
    entries; raises :class:`ValueError` naming ``name`` otherwise."""
    m = np.array(x, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise ValueError(f"{name} must be square and at least 1x1, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} entries must be finite")
    m.setflags(write=False)
    return m


def require_unitary(s: np.ndarray) -> None:
    """Raise :class:`ValueError` unless the square matrix ``s`` is unitary to STRUCTURE_TOL."""
    defect = np.linalg.norm(s.conj().T @ s - np.eye(s.shape[0]))
    if defect > STRUCTURE_TOL:
        raise ValueError(f"S is not unitary (defect {defect:.3e})")


@dataclass(frozen=True, eq=False)
class SLHModel:
    """Open-system model ``(S, L, H0)`` on an N-level Hilbert space.

    ``S`` is K x K and unitary, ``H0`` is Hermitian, and channel ``k``
    couples through ``L_k = theta_k * L0``: ``theta`` holds K finite complex
    amplitudes and ``L0`` is one operator on the same space as ``H0``.
    All four are stored as read-only complex arrays.  ``L0`` and ``H0`` may be
    given as anything ``np.array`` takes, the constructors of
    :mod:`photon_slh.operators` included.
    """

    S: np.ndarray
    theta: np.ndarray
    L0: np.ndarray
    H0: np.ndarray

    def __post_init__(self) -> None:
        l0 = square_matrix(self.L0, "L0")
        h0 = square_matrix(self.H0, "H0")
        s = square_matrix(self.S, "S")
        k = s.shape[0]
        th = np.array(self.theta, dtype=complex).reshape(-1)
        if th.shape != (k,):
            raise ValueError(f"theta has length {th.size} for {k} channels")
        if not np.all(np.isfinite(th)):
            raise ValueError("theta entries must be finite")
        require_unitary(s)
        herm = np.linalg.norm(h0 - h0.conj().T)
        if herm > STRUCTURE_TOL:
            raise ValueError(f"H0 is not Hermitian (defect {herm:.3e})")
        if l0.shape != h0.shape:
            raise ValueError("L0 dimension does not match H0")
        th.setflags(write=False)
        for name, value in (("S", s), ("theta", th), ("L0", l0), ("H0", h0)):
            object.__setattr__(self, name, value)

    @property
    def channels(self) -> int:
        return self.S.shape[0]

    @property
    def levels(self) -> int:
        return self.H0.shape[0]

    @classmethod
    def factored(
        cls,
        S: np.ndarray,
        theta: Sequence[complex],
        L0: np.ndarray,
        H0: np.ndarray,
    ) -> "SLHModel":
        """Build a model with coupling ``L_k = theta_k * L0``."""
        return cls(S=S, theta=theta, L0=L0, H0=H0)


def _factor_coupling(stacked: np.ndarray, dim: int):
    """Write column ``k`` of the ``(dim**2, K)`` array ``stacked`` as
    ``theta_k * vec(L0)`` and return ``(theta, L0)``.

    Raises ``ValueError`` when the columns are not all multiples of one.
    """
    k = stacked.shape[1]
    scale = np.linalg.norm(stacked)
    if scale == 0.0:
        return np.zeros(k, dtype=complex), np.zeros((dim, dim), dtype=complex)
    if k == 1:
        return np.array([1.0 + 0.0j]), stacked.reshape(dim, dim)
    u, sing, _ = np.linalg.svd(stacked, full_matrices=False)
    if sing[1] > FACTOR_TOL * sing[0]:
        raise ValueError(
            "series product does not factor as L_k = theta_k * L0: "
            "its channel couplings are not multiples of one operator"
        )
    lead = u[:, 0]
    # Phase convention: largest entry of L0 real and positive.
    j = int(np.argmax(np.abs(lead)))
    lead = lead * (lead[j].conjugate() / abs(lead[j]))
    theta = lead.conj() @ stacked
    return theta, lead.reshape(dim, dim)


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
                "alpha": _encode_pairs(p.alpha),
                "beta": _encode_pairs(p.beta),
                "h": p.h,
                "a": _encode_pairs(p.a),
            }
        return out


class ModelValidationError(Exception):
    """A model failed the linear-response condition check."""

    def __init__(self, report: ValidationReport):
        self.report = report
        failed = ", ".join(report.failed_conditions())
        super().__init__(f"model failed conditions: {failed}")


def _fit(u: np.ndarray, v: np.ndarray):
    """Least-squares fit of ``u`` onto ``v``: ``(lambda, ||u - lambda v|| / ||v||)``
    with ``lambda = <v, u>/<v, v>``, or ``(0, ||u||)`` when ``v = 0``."""
    nv = np.linalg.norm(v)
    if nv == 0.0:
        return 0j, float(np.linalg.norm(u))
    lam = complex(np.vdot(v, u) / np.vdot(v, v))
    return lam, float(np.linalg.norm(u - lam * v) / nv)


def _report(name: str, holds: bool, residual: float, failure: str) -> ConditionReport:
    return ConditionReport(name, holds, residual, "" if holds else failure)


def validate_model(m: SLHModel, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check the single-photon linear-response conditions on a model.

    Runs the five checks listed in the module docstring, in order, and
    never raises on a condition failure -- failures are reported.  The
    stability check is strict: ``Re(a) = 0`` fails with a distinct
    "marginally stable" message.  Raises :class:`ValueError` for a ``tol``
    outside ``[0, TOL_CEILING]``, NaN included.
    """
    if not 0.0 <= tol <= TOL_CEILING:
        raise ValueError(f"tol must lie in [0, {TOL_CEILING:g}], got {tol}")
    e0 = np.eye(m.levels, dtype=complex)[0]
    l0, h0, l0_dag = m.L0, m.H0, m.L0.conj().T
    alpha, r_alpha = _fit(h0 @ e0, e0)
    r_coupling = float(np.linalg.norm(l0 @ e0))
    beta, r_beta = _fit(e0 @ (l0 @ h0 - h0 @ l0), e0 @ l0)
    h, r_h = _fit((l0_dag @ l0 - l0 @ l0_dag) @ e0, e0)
    h_imag = abs(h.imag)
    unfit = "relation does not hold at tolerance"
    reports = (
        _report("ground_energy", r_alpha <= tol, r_alpha, unfit),
        _report(
            "coupling_annihilates",
            r_coupling <= tol,
            r_coupling,
            "L0 does not annihilate the ground state",
        ),
        _report("commutator_proportional", r_beta <= tol, r_beta, unfit),
        _report(
            "number_eigenrelation",
            r_h <= tol and h_imag <= tol,
            max(r_h, h_imag) if r_h <= tol else r_h,
            "eigenrelation fails or eigenvalue is not real",
        ),
    )
    conditions = {rep.name: rep for rep in reports}
    algebraic_ok = all(rep.holds for rep in reports)

    params: Optional[DerivedParams] = None
    if algebraic_ok:
        coupling_weight = float(np.sum(np.abs(m.theta) ** 2))
        a = -1j * beta + 0.5 * coupling_weight * h.real
        params = DerivedParams(alpha=alpha, beta=beta, h=h.real, a=a)
        re_a = a.real
        unstable = (
            "marginally stable: Re(a) = 0" if re_a == 0.0 else f"unstable pole: Re(a) = {re_a:.6e}"
        )
        conditions["stability"] = _report("stability", re_a < 0.0, max(re_a, 0.0), unstable)
    else:
        conditions["stability"] = ConditionReport(
            "stability", False, float("nan"), "not evaluated: an algebraic condition failed"
        )

    passed = all(rep.holds for rep in conditions.values())
    return ValidationReport(passed=passed, conditions=conditions, params=params)


def series_product(g2: SLHModel, g1: SLHModel) -> SLHModel:
    """Feed the outputs of ``g1`` into the inputs of ``g2``.

    Both systems must act on the same Hilbert space (pre-embed components
    with :func:`photon_slh.operators.embed_site`) with equal channel
    counts.  The result is ``(S2 S1, L2 + S2 L1, H1 + H2 + Im{L2^dag S2 L1})``
    (Gough & James, IEEE TAC 2009).  With ``phi = S2 theta1`` its couplings
    are ``theta2_k L0_2 + phi_k L0_1`` and its cross term is
    ``<theta2, phi> L0_2^dag L0_1``; they are refactored as ``theta_k * L0``,
    and ``ValueError`` is raised when they are not all multiples of one operator.
    """
    if g1.channels != g2.channels:
        raise ValueError(
            f"channel count mismatch: {g2.channels} vs {g1.channels}"
        )
    if g1.levels != g2.levels:
        raise ValueError(
            f"Hilbert-space dimension mismatch: {g2.levels} vs {g1.levels}"
        )
    phi = g2.S @ g1.theta
    coupling = np.outer(g2.L0.reshape(-1), g2.theta) + np.outer(g1.L0.reshape(-1), phi)
    cross = complex(np.vdot(g2.theta, phi)) * (g2.L0.conj().T @ g1.L0)
    h = g1.H0 + g2.H0 + (cross - cross.conj().T) / 2j
    theta, l0 = _factor_coupling(coupling, g1.levels)
    return SLHModel(S=g2.S @ g1.S, theta=theta, L0=l0, H0=h)


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
    h_red = m.H0 + shift * (m.L0.conj().T @ m.L0)
    return SLHModel(S=s_red, theta=theta_red, L0=m.L0, H0=h_red)


# ---------------------------------------------------------------------------
# JSON serialization.  Complex scalars are [re, im] pairs; matrices are
# row-major nested lists of pairs.  Unknown keys are ignored on load.
# ---------------------------------------------------------------------------


def _encode_pairs(x) -> list:
    """A complex scalar or array as nested lists of ``[re, im]`` pairs."""
    return np.stack((x.real, x.imag), -1).tolist()


def _holds_bool(field, depth: int) -> bool:
    """Whether a value ``depth`` levels into the nested sequences ``field`` is a bool."""
    for _ in range(depth):
        field = itertools.chain.from_iterable(field)
    return bool in set(map(type, field))


def _decode_pairs(field, name: str, shape: tuple) -> np.ndarray:
    """The complex array of ``shape`` that ``field`` holds as ``[re, im]`` pairs of
    numbers, bit for bit; raises :class:`ValueError` naming ``name`` otherwise.
    numpy reads ``true`` among numbers as 1, so the pairs are searched for bools
    once their nesting is known to match ``shape``."""
    try:
        arr = np.array(field)
    except ValueError:  # ragged nesting
        arr = None
    if (arr is None or arr.dtype.kind not in "iuf" or arr.shape != (*shape, 2)
            or _holds_bool(field, len(shape))):
        dims = "x".join(map(str, shape))
        raise ValueError(f"field '{name}' must hold {dims} [re, im] pairs of numbers")
    if not np.isfinite(arr).all():
        raise ValueError(f"field '{name}' entries must be finite")
    return np.ascontiguousarray(arr, dtype=float).view(complex)[..., 0]


def model_to_dict(m: SLHModel) -> dict:
    return {
        "levels": m.levels,
        "channels": m.channels,
        "S": _encode_pairs(m.S),
        "theta": _encode_pairs(m.theta),
        "L0": _encode_pairs(m.L0),
        "H0": _encode_pairs(m.H0),
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
    square = (levels, levels)
    return SLHModel(
        S=_decode_pairs(data["S"], "S", (channels, channels)),
        theta=_decode_pairs(data["theta"], "theta", (channels,)),
        L0=_decode_pairs(data["L0"], "L0", square),
        H0=_decode_pairs(data["H0"], "H0", square),
    )


def load_model(path) -> SLHModel:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return model_from_dict(data)


def save_model(m: SLHModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(m), fh, indent=2)
        fh.write("\n")
