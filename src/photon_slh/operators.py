"""Constructors of small dense operators: qubit operators and site embeddings.

The model layer holds plain complex arrays (see :class:`photon_slh.SLHModel`);
this module only builds them.  Each constructor returns an :class:`Operator`,
an immutable square matrix in ``.mat`` that can be scaled by a number and
converts to an array (``np.asarray(op)``), so it can stand wherever a model
takes a matrix.

Conventions: the ground state ``|0>`` is the first basis vector (index 0),
``sigma_z = |1><1| - |0><0|``, ``sigma_plus = |1><0|``,
``sigma_minus = |0><1|``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import square_matrix

__all__ = [
    "Operator",
    "sigma_z",
    "sigma_plus",
    "sigma_minus",
    "embed_site",
]

#: Largest total dimension allowed for Kronecker embeddings (6 qubits).
TENSOR_DIM_CAP = 64


@dataclass(frozen=True, eq=False)
class Operator:
    """Immutable dense operator on an N-dimensional Hilbert space."""

    mat: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "mat", square_matrix(self.mat, "operator"))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def __mul__(self, scalar: complex) -> "Operator":
        return Operator(self.mat * complex(scalar))

    __rmul__ = __mul__

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array(self.mat, dtype=dtype, copy=copy)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Operator(dim={self.dim})"


def sigma_z() -> Operator:
    """``|1><1| - |0><0|`` with the ground state at index 0."""
    return Operator(np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex))


def sigma_plus() -> Operator:
    """Raising operator ``|1><0|``."""
    return Operator(np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex))


def sigma_minus() -> Operator:
    """Lowering operator ``|0><1|``."""
    return Operator(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def embed_site(a, site: int, n_sites: int) -> Operator:
    """Embed ``a`` (an :class:`Operator` or a square matrix) acting on one
    factor of a homogeneous tensor product.

    Site 0 is the leftmost Kronecker factor; identities fill the other
    sites.  The total dimension ``a.dim ** n_sites`` must stay within
    ``TENSOR_DIM_CAP``.
    """
    a = Operator(a)
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
