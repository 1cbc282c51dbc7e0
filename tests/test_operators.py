import numpy as np
import pytest

from photon_slh import (
    Operator,
    SLHModel,
    commutator,
    embed_site,
    ground_state,
    identity,
    sigma_minus,
    sigma_plus,
    sigma_z,
    validate_model,
    zero,
)
from photon_slh.model import _fit
from photon_slh.operators import TENSOR_DIM_CAP, basis_state
from conftest import two_level_model


class TestOperator:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            Operator(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            Operator(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_scalar_as_operator_allowed(self):
        assert Operator(np.array([[2.0]])).dim == 1

    def test_dagger_and_norm(self):
        a = Operator(np.array([[0.0, 1.0j], [0.0, 0.0]]))
        assert np.array_equal(a.dagger().mat, np.array([[0.0, 0.0], [-1.0j, 0.0]]))
        assert np.linalg.norm(a.mat) == pytest.approx(1.0)

    def test_matmul_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            identity(2) @ identity(3)

    def test_entries_are_immutable(self):
        a = identity(2)
        with pytest.raises(ValueError):
            a.mat[0, 0] = 5.0


class TestCommutator:
    def test_raising_lowering_gives_sigma_z(self):
        assert np.array_equal(commutator(sigma_plus(), sigma_minus()).mat, sigma_z().mat)
        # acting on the ground state this is -|0>
        e0 = ground_state(2)
        assert np.array_equal(commutator(sigma_plus(), sigma_minus()).mat @ e0, -e0)

    def test_self_commutator_vanishes(self):
        a = Operator(np.array([[1.0, 2.0], [3.0, 4.0j]]))
        assert np.array_equal(commutator(a, a).mat, np.zeros((2, 2)))

    def test_lowering_with_sigma_z(self):
        # hand 2x2 multiplication: sm.sz - sz.sm = [[0, 2], [0, 0]]
        expected = np.array([[0.0, 2.0], [0.0, 0.0]], dtype=complex)
        assert np.array_equal(commutator(sigma_minus(), sigma_z()).mat, expected)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            commutator(identity(2), identity(4))

    def test_antisymmetry(self, rng):
        for _ in range(20):
            a = Operator(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
            b = Operator(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
            defect = commutator(a, b).mat + commutator(b, a).mat
            assert np.max(np.abs(defect)) < 1e-14


class TestVectorEigenTest:
    """The condition checker's fit of ``A v`` onto ``v`` (``A v = lambda v``)."""

    def test_ground_state_energy(self):
        omega_c = 1.7
        h0 = (omega_c / 2.0) * sigma_z()
        lam, residual = _fit(h0.mat @ ground_state(2), ground_state(2))
        assert residual <= 1e-10
        assert lam == pytest.approx(-omega_c / 2.0)
        assert validate_model(two_level_model(1.0, omega_c)).params.alpha == lam

    def test_identity_trivial(self, rng):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        lam, residual = _fit(identity(4).mat @ v, v)
        assert lam == pytest.approx(1.0)
        assert residual == 0.0

    def test_raising_on_ground_state_fails(self):
        lam, residual = _fit(sigma_plus().mat @ ground_state(2), ground_state(2))
        assert residual == pytest.approx(1.0)
        assert lam == pytest.approx(0.0)
        sx = sigma_plus() + sigma_minus()
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
        a = commutator(sigma_minus(), (omega_c / 2.0) * sigma_z())
        e0 = ground_state(2)
        lam, residual = _fit(e0 @ a.mat, e0 @ sigma_minus().mat)
        assert residual <= 1e-10
        assert lam == pytest.approx(omega_c)
        assert validate_model(two_level_model(1.0, omega_c)).params.beta == lam

    def test_zero_numerator(self):
        e0 = ground_state(2)
        assert _fit(e0 @ zero(2).mat, e0 @ sigma_minus().mat) == (0.0, 0.0)

    def test_sigma_z_not_proportional(self):
        e0 = ground_state(2)
        _, residual = _fit(e0 @ sigma_z().mat, e0 @ sigma_minus().mat)
        assert residual == pytest.approx(1.0)

    def test_zero_reference_row(self):
        # <0|B = 0: the fit is lambda = 0 with residual ||<0|A||, so the relation
        # holds only when <0|A = 0 too
        e0 = ground_state(2)
        assert _fit(e0 @ zero(2).mat, e0 @ zero(2).mat) == (0.0, 0.0)
        assert _fit(e0 @ sigma_z().mat, e0 @ zero(2).mat) == (0.0, 1.0)
        decoupled = SLHModel.factored(np.array([[1.0]]), [0.0], zero(2), sigma_z())
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
        op = embed_site(sigma_minus(), 0, 2) @ embed_site(sigma_plus(), 1, 2)
        ket_10 = np.kron(basis_state(2, 1), basis_state(2, 0))
        ket_01 = np.kron(basis_state(2, 0), basis_state(2, 1))
        assert np.array_equal(op.mat @ ket_10, ket_01)
        assert np.array_equal(op.mat @ ket_01, np.zeros(4))

    def test_cap_exceeded(self):
        with pytest.raises(ValueError, match=str(TENSOR_DIM_CAP)):
            embed_site(sigma_minus(), 0, 7)

    def test_site_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            embed_site(sigma_minus(), 2, 2)

    def test_distinct_sites_commute(self, rng):
        for _ in range(5):
            a = Operator(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            b = Operator(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            ea = embed_site(a, 0, 3)
            eb = embed_site(b, 2, 3)
            assert np.linalg.norm(commutator(ea, eb).mat) < 1e-13
