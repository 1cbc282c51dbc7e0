import numpy as np
import pytest

from photon_slh import (
    Operator,
    commutator,
    embed_site,
    ground_state,
    identity,
    row_proportionality_test,
    sigma_minus,
    sigma_plus,
    sigma_z,
    vector_eigen_test,
    zero,
)
from photon_slh.operators import TENSOR_DIM_CAP, basis_state


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
    def test_ground_state_energy(self):
        omega_c = 1.7
        h0 = (omega_c / 2.0) * sigma_z()
        rep = vector_eigen_test(h0, ground_state(2), 1e-10)
        assert rep.holds
        assert rep.eigenvalue == pytest.approx(-omega_c / 2.0)

    def test_identity_trivial(self, rng):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        rep = vector_eigen_test(identity(4), v, 1e-10)
        assert rep.holds
        assert rep.eigenvalue == pytest.approx(1.0)
        assert rep.residual == 0.0

    def test_raising_on_ground_state_fails(self):
        rep = vector_eigen_test(sigma_plus(), ground_state(2), 1e-10)
        assert not rep.holds
        assert rep.residual == pytest.approx(1.0)
        assert rep.eigenvalue == pytest.approx(0.0)

    def test_zero_vector_degenerate(self):
        rep = vector_eigen_test(identity(3), np.zeros(3), 1e-10)
        assert not rep.holds
        assert rep.eigenvalue is None

    def test_spectral_synthesis_eigenvectors(self, rng):
        # A = V D V^dag with orthonormal V: each column is an exact eigenvector.
        for _ in range(10):
            q, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
            lams = rng.normal(size=5) + 1j * rng.normal(size=5)
            a = Operator(q @ np.diag(lams) @ q.conj().T)
            for i in range(5):
                rep = vector_eigen_test(a, q[:, i], 1e-10)
                assert rep.residual < 1e-12
                assert rep.eigenvalue == pytest.approx(lams[i], abs=1e-12)


class TestRowProportionalityTest:
    def test_commutator_rate(self):
        omega_c = 2.3
        a = commutator(sigma_minus(), (omega_c / 2.0) * sigma_z())
        rep = row_proportionality_test(a, sigma_minus(), ground_state(2), 1e-10)
        assert rep.holds
        assert rep.eigenvalue == pytest.approx(omega_c)

    def test_zero_numerator(self):
        rep = row_proportionality_test(zero(2), sigma_minus(), ground_state(2), 1e-10)
        assert rep.holds
        assert rep.eigenvalue == pytest.approx(0.0)

    def test_sigma_z_not_proportional(self):
        rep = row_proportionality_test(sigma_z(), sigma_minus(), ground_state(2), 1e-10)
        assert not rep.holds
        assert rep.residual == pytest.approx(1.0)

    def test_zero_reference_row(self):
        # row.B = 0: holds only when row.A = 0, eigenvalue unset
        good = row_proportionality_test(zero(2), zero(2), ground_state(2), 1e-10)
        assert good.holds and good.eigenvalue is None
        bad = row_proportionality_test(sigma_z(), zero(2), ground_state(2), 1e-10)
        assert not bad.holds and bad.eigenvalue is None

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            row_proportionality_test(identity(2), identity(3), ground_state(2))


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
