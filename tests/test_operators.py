import numpy as np
import pytest

from photon_slh import (
    Operator,
    SLHModel,
    embed_site,
    sigma_minus,
    sigma_plus,
    sigma_z,
    validate_model,
)
from photon_slh.model import _fit
from photon_slh.operators import TENSOR_DIM_CAP
from conftest import two_level_model

ZERO2 = np.zeros((2, 2), dtype=complex)


def ket(dim: int, index: int) -> np.ndarray:
    """Basis vector ``index`` of C^dim; ``ket(dim, 0)`` is the ground state."""
    return np.eye(dim, dtype=complex)[index]


def comm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``[A, B] = AB - BA``."""
    return a @ b - b @ a


class TestOperator:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            Operator(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            Operator(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_scalar_as_operator_allowed(self):
        assert Operator(np.array([[2.0]])).dim == 1

    def test_entries_are_immutable(self):
        a = sigma_z()
        with pytest.raises(ValueError):
            a.mat[0, 0] = 5.0

    def test_scaling_and_array_conversion(self):
        # the two uses a model makes of a constructor: c * op, then np.array(op)
        half = 0.5 * sigma_z()
        assert isinstance(half, Operator)
        assert np.array_equal(half.mat, np.diag([-0.5, 0.5]))
        assert np.array_equal((sigma_z() * 0.5).mat, half.mat)
        arr = np.array(half, dtype=complex)
        assert np.array_equal(arr, half.mat)
        arr[0, 0] = 7.0  # a copy: the operator is untouched
        assert half.mat[0, 0] == -0.5
        assert np.asarray(half).flags.writeable is False


class TestCommutator:
    """The qubit constructors' sign conventions, through the commutators that the
    condition checker forms from them."""

    def test_raising_lowering_gives_sigma_z(self):
        sp, sm = sigma_plus().mat, sigma_minus().mat
        assert np.array_equal(comm(sp, sm), sigma_z().mat)
        # acting on the ground state this is -|0>
        e0 = ket(2, 0)
        assert np.array_equal(comm(sp, sm) @ e0, -e0)

    def test_lowering_with_sigma_z(self):
        # hand 2x2 multiplication: sm.sz - sz.sm = [[0, 2], [0, 0]]
        expected = np.array([[0.0, 2.0], [0.0, 0.0]], dtype=complex)
        assert np.array_equal(comm(sigma_minus().mat, sigma_z().mat), expected)


class TestVectorEigenTest:
    """The condition checker's fit of ``A v`` onto ``v`` (``A v = lambda v``)."""

    def test_ground_state_energy(self):
        omega_c = 1.7
        h0 = (omega_c / 2.0) * sigma_z()
        lam, residual = _fit(h0.mat @ ket(2, 0), ket(2, 0))
        assert residual <= 1e-10
        assert lam == pytest.approx(-omega_c / 2.0)
        assert validate_model(two_level_model(1.0, omega_c)).params.alpha == lam

    def test_identity_trivial(self, rng):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        lam, residual = _fit(np.eye(4) @ v, v)
        assert lam == pytest.approx(1.0)
        assert residual == 0.0

    def test_raising_on_ground_state_fails(self):
        lam, residual = _fit(sigma_plus().mat @ ket(2, 0), ket(2, 0))
        assert residual == pytest.approx(1.0)
        assert lam == pytest.approx(0.0)
        sx = sigma_plus().mat + sigma_minus().mat
        rep = validate_model(SLHModel.factored(np.eye(1), [1.0], sigma_minus(), sx))
        rep = rep.conditions["ground_energy"]
        assert not rep.holds
        assert rep.residual == pytest.approx(1.0)
        assert rep.message == "relation does not hold at tolerance"

    def test_spectral_synthesis_eigenvectors(self, rng):
        # A = V D V^dag with orthonormal V: each column is an exact eigenvector.
        for _ in range(10):
            q, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
            lams = rng.normal(size=5) + 1j * rng.normal(size=5)
            a = q @ np.diag(lams) @ q.conj().T
            for i in range(5):
                lam, residual = _fit(a @ q[:, i], q[:, i])
                assert residual < 1e-12
                assert lam == pytest.approx(lams[i], abs=1e-12)


class TestRowProportionalityTest:
    """The condition checker's fit of ``<0|A`` onto ``<0|B`` (``<0|A = lambda <0|B``)."""

    def test_commutator_rate(self):
        omega_c = 2.3
        a = comm(sigma_minus().mat, ((omega_c / 2.0) * sigma_z()).mat)
        e0 = ket(2, 0)
        lam, residual = _fit(e0 @ a, e0 @ sigma_minus().mat)
        assert residual <= 1e-10
        assert lam == pytest.approx(omega_c)
        assert validate_model(two_level_model(1.0, omega_c)).params.beta == lam

    def test_zero_numerator(self):
        e0 = ket(2, 0)
        assert _fit(e0 @ ZERO2, e0 @ sigma_minus().mat) == (0.0, 0.0)

    def test_sigma_z_not_proportional(self):
        e0 = ket(2, 0)
        _, residual = _fit(e0 @ sigma_z().mat, e0 @ sigma_minus().mat)
        assert residual == pytest.approx(1.0)

    def test_zero_reference_row(self):
        # <0|B = 0: the fit is lambda = 0 with residual ||<0|A||, so the relation
        # holds only when <0|A = 0 too
        e0 = ket(2, 0)
        assert _fit(e0 @ ZERO2, e0 @ ZERO2) == (0.0, 0.0)
        assert _fit(e0 @ sigma_z().mat, e0 @ ZERO2) == (0.0, 1.0)
        decoupled = SLHModel.factored(np.array([[1.0]]), [0.0], ZERO2, sigma_z())
        rep = validate_model(decoupled).conditions["commutator_proportional"]
        assert rep.holds and rep.residual == 0.0


def _embed_two_site_oracle(op: np.ndarray, site: int) -> np.ndarray:
    # independent 4x4 construction by basis bookkeeping (no kron)
    out = np.zeros((4, 4), dtype=complex)
    for i1 in range(2):
        for i2 in range(2):
            for j1 in range(2):
                for j2 in range(2):
                    if site == 0:
                        val = op[i1, j1] * (1.0 if i2 == j2 else 0.0)
                    else:
                        val = (1.0 if i1 == j1 else 0.0) * op[i2, j2]
                    out[i1 * 2 + i2, j1 * 2 + j2] = val
    return out


class TestEmbedSite:
    def test_single_site_is_identity_embedding(self):
        assert np.array_equal(embed_site(sigma_z(), 0, 1).mat, sigma_z().mat)

    def test_second_site_of_two(self):
        got = embed_site(sigma_minus(), 1, 2).mat
        assert np.array_equal(got, _embed_two_site_oracle(sigma_minus().mat, 1))

    def test_first_site_of_two(self):
        got = embed_site(sigma_minus(), 0, 2).mat
        assert np.array_equal(got, _embed_two_site_oracle(sigma_minus().mat, 0))

    def test_exchange_moves_excitation(self):
        # lower site 0, raise site 1: |1,0> -> |0,1> (4x4 matrix-vector oracle)
        op = embed_site(sigma_minus(), 0, 2).mat @ embed_site(sigma_plus(), 1, 2).mat
        ket_10 = np.kron(ket(2, 1), ket(2, 0))
        ket_01 = np.kron(ket(2, 0), ket(2, 1))
        assert np.array_equal(op @ ket_10, ket_01)
        assert np.array_equal(op @ ket_01, np.zeros(4))

    def test_cap_exceeded(self):
        with pytest.raises(ValueError, match=str(TENSOR_DIM_CAP)):
            embed_site(sigma_minus(), 0, 7)

    def test_site_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            embed_site(sigma_minus(), 2, 2)

    def test_needs_a_site(self):
        with pytest.raises(ValueError, match="^n_sites must be at least 1$"):
            embed_site(sigma_minus(), 0, 0)

    def test_distinct_sites_commute(self, rng):
        for _ in range(5):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            ea = embed_site(a, 0, 3).mat
            eb = embed_site(b, 2, 3).mat
            assert np.linalg.norm(comm(ea, eb)) < 1e-13

    def test_array_and_operator_embed_alike(self):
        assert np.array_equal(embed_site(sigma_z().mat, 1, 2).mat, embed_site(sigma_z(), 1, 2).mat)
        with pytest.raises(ValueError, match="square"):
            embed_site(np.zeros((2, 3)), 0, 2)
