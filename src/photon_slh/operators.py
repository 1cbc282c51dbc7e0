"""Dense complex operators on small finite-level Hilbert spaces.

Plain-numpy building blocks shared by the model layer: an immutable
``Operator`` wrapper, qubit constructors, commutators, Kronecker embedding
of single-site operators into a short chain, and the two relation tests
(eigenvector, row proportionality) that the model condition checker runs.

Conventions: the ground state ``|0>`` is the first basis vector (index 0),
``sigma_z = |1><1| - |0><0|``, ``sigma_plus = |1><0|``,
``sigma_minus = |0><1|``. Operator norms are Frobenius, vector norms
Euclidean.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "DEFAULT_TOL",
    "TENSOR_DIM_CAP",
    "Operator",
    "EigenRelationReport",
    "identity",
    "zero",
    "sigma_z",
    "sigma_plus",
    "sigma_minus",
    "ground_state",
    "basis_state",
    "commutator",
    "vector_eigen_test",
    "row_proportionality_test",
    "embed_site",
]

#: Default tolerance for the eigen-relation tests; model data is specified
#: exactly, so defects are rounding-level.
DEFAULT_TOL = 1e-10

#: Largest total dimension allowed for Kronecker embeddings (6 qubits).
TENSOR_DIM_CAP = 64


@dataclass(frozen=True, eq=False)
class Operator:
    """Immutable dense operator on an N-dimensional Hilbert space."""

    mat: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.mat, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator matrix must be square, got shape {m.shape}")
        if m.shape[0] < 1:
            raise ValueError("operator dimension must be at least 1")
        if not np.all(np.isfinite(m)):
            raise ValueError("operator entries must be finite")
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def dagger(self) -> "Operator":
        """Hermitian adjoint."""
        return Operator(self.mat.conj().T)

    def __matmul__(self, other: "Operator") -> "Operator":
        self._check_dim(other)
        return Operator(self.mat @ other.mat)

    def __add__(self, other: "Operator") -> "Operator":
        self._check_dim(other)
        return Operator(self.mat + other.mat)

    def __mul__(self, scalar: complex) -> "Operator":
        return Operator(self.mat * complex(scalar))

    __rmul__ = __mul__

    def _check_dim(self, other: "Operator") -> None:
        if self.dim != other.dim:
            raise ValueError(f"operator dimension mismatch: {self.dim} vs {other.dim}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Operator(dim={self.dim})"


@dataclass(frozen=True)
class EigenRelationReport:
    """Outcome of an eigen-relation or proportionality test.

    ``holds`` is true exactly when ``residual`` is at or below the caller's
    tolerance.  ``eigenvalue`` is ``None`` in degenerate cases (zero test
    vector, or a zero reference row in the proportionality test).
    """

    holds: bool
    residual: float
    eigenvalue: Optional[complex] = None


def identity(dim: int) -> Operator:
    return Operator(np.eye(dim, dtype=complex))


def zero(dim: int) -> Operator:
    return Operator(np.zeros((dim, dim), dtype=complex))


def sigma_z() -> Operator:
    """``|1><1| - |0><0|`` with the ground state at index 0."""
    return Operator(np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex))


def sigma_plus() -> Operator:
    """Raising operator ``|1><0|``."""
    return Operator(np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex))


def sigma_minus() -> Operator:
    """Lowering operator ``|0><1|``."""
    return Operator(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def ground_state(dim: int) -> np.ndarray:
    """First basis vector of C^dim."""
    return basis_state(dim, 0)


def basis_state(dim: int, index: int) -> np.ndarray:
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for dim {dim}")
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def commutator(a: Operator, b: Operator) -> Operator:
    """``[A, B] = AB - BA``."""
    if a.dim != b.dim:
        raise ValueError(f"operator dimension mismatch: {a.dim} vs {b.dim}")
    return Operator(a.mat @ b.mat - b.mat @ a.mat)


def vector_eigen_test(a: Operator, v: np.ndarray, tol: float = DEFAULT_TOL) -> EigenRelationReport:
    """Test whether ``A v = lambda v`` for some scalar.

    The candidate eigenvalue is the Rayleigh quotient ``<v, A v>/<v, v>``
    and the residual is ``||A v - lambda v|| / ||v||``.  A zero vector
    yields a degenerate failing report.
    """
    v = np.asarray(v, dtype=complex)
    if v.shape != (a.dim,):
        raise ValueError(f"vector length {v.shape} does not match dim {a.dim}")
    nv = np.linalg.norm(v)
    if nv == 0.0:
        return EigenRelationReport(holds=False, residual=np.inf, eigenvalue=None)
    av = a.mat @ v
    lam = complex(np.vdot(v, av) / np.vdot(v, v))
    residual = float(np.linalg.norm(av - lam * v) / nv)
    return EigenRelationReport(holds=residual <= tol, residual=residual, eigenvalue=lam)


def row_proportionality_test(
    a: Operator, b: Operator, row: np.ndarray, tol: float = DEFAULT_TOL
) -> EigenRelationReport:
    """Test whether ``row . A = lambda (row . B)`` for some scalar.

    ``lambda`` is the least-squares fit of ``row.A`` onto ``row.B`` and the
    residual is relative to ``||row.B||``.  If ``row.B`` vanishes the test
    holds only when ``row.A`` vanishes too (eigenvalue unset); the residual
    is then ``||row.A|| / ||row||``.
    """
    if a.dim != b.dim:
        raise ValueError(f"operator dimension mismatch: {a.dim} vs {b.dim}")
    row = np.asarray(row, dtype=complex)
    if row.shape != (a.dim,):
        raise ValueError(f"row length {row.shape} does not match dim {a.dim}")
    nrow = np.linalg.norm(row)
    if nrow == 0.0:
        return EigenRelationReport(holds=False, residual=np.inf, eigenvalue=None)
    ra = row @ a.mat
    rb = row @ b.mat
    nrb = np.linalg.norm(rb)
    if nrb == 0.0:
        residual = float(np.linalg.norm(ra) / nrow)
        return EigenRelationReport(holds=residual <= tol, residual=residual, eigenvalue=None)
    lam = complex(np.vdot(rb, ra) / np.vdot(rb, rb))
    residual = float(np.linalg.norm(ra - lam * rb) / nrb)
    return EigenRelationReport(holds=residual <= tol, residual=residual, eigenvalue=lam)


def embed_site(a: Operator, site: int, n_sites: int) -> Operator:
    """Embed ``a`` acting on one factor of a homogeneous tensor product.

    Site 0 is the leftmost Kronecker factor; identities fill the other
    sites.  The total dimension ``a.dim ** n_sites`` must stay within
    ``TENSOR_DIM_CAP``.
    """
    if n_sites < 1:
        raise ValueError("n_sites must be at least 1")
    if not 0 <= site < n_sites:
        raise ValueError(f"site {site} out of range for {n_sites} sites")
    total = a.dim**n_sites
    if total > TENSOR_DIM_CAP:
        raise ValueError(
            f"total dimension {total} exceeds the tensor cap {TENSOR_DIM_CAP}"
        )
    left = np.eye(a.dim**site, dtype=complex)
    right = np.eye(a.dim ** (n_sites - site - 1), dtype=complex)
    return Operator(np.kron(np.kron(left, a.mat), right))
