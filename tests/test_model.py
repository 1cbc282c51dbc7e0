import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photon_slh import (
    Operator,
    SLHModel,
    SingularLoopError,
    embed_site,
    feedback_reduce,
    feedback_shift,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
    series_product,
    sigma_minus,
    sigma_plus,
    sigma_z,
    validate_model,
    zero,
)
from conftest import BS50, SWAP, two_channel_model, two_level_model


def joint_memory_model(kappa: float, omega_c: float, n_sites: int = 2) -> SLHModel:
    """All-atoms-at-once memory chain model on the joint space."""
    sm, sz, sp = sigma_minus(), sigma_z(), sigma_plus()
    l0 = zero(2**n_sites)
    h0 = zero(2**n_sites)
    for n in range(n_sites):
        l0 = l0 + embed_site(sm, n, n_sites)
        h0 = h0 + (omega_c / 2.0) * embed_site(sz, n, n_sites)
    for j in range(1, n_sites):
        for i in range(j):
            hop = (embed_site(sp, j, n_sites) @ embed_site(sm, i, n_sites)).mat
            hop = hop - (embed_site(sp, i, n_sites) @ embed_site(sm, j, n_sites)).mat
            h0 = h0 + (kappa / 2j) * Operator(hop)
    return SLHModel.factored(np.array([[1.0]]), [np.sqrt(kappa)], l0, h0)


def embedded_two_channel_pair():
    """Two 2-channel emitters on different sites: their series product does not factor."""
    sm, sz = sigma_minus(), sigma_z()
    return tuple(
        SLHModel.factored(
            np.eye(2), theta, embed_site(sm, site, 2), 0.3 * embed_site(sz, site, 2)
        )
        for site, theta in ((0, [1.0, 0.5]), (1, [0.5, 1.0]))
    )


def haar_unitary(rng, k: int) -> np.ndarray:
    """Haar-random K x K unitary: QR of a complex Ginibre matrix, R's phases removed."""
    q, r = np.linalg.qr(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_hermitian(rng, dim: int) -> Operator:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return Operator((a + a.conj().T) / 2.0)


class TestModelInvariants:
    def test_non_unitary_scattering_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            SLHModel.factored(np.array([[2.0]]), [1.0], sigma_minus(), zero(2))

    def test_non_hermitian_hamiltonian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            SLHModel.factored(np.array([[1.0]]), [1.0], sigma_minus(), sigma_plus())

    def test_theta_length_must_match_channels(self):
        with pytest.raises(ValueError, match="channels"):
            SLHModel.factored(np.eye(2), [1.0], sigma_minus(), zero(2))

    def test_coupling_dimension_must_match(self):
        with pytest.raises(ValueError, match="dimension"):
            SLHModel.factored(np.array([[1.0]]), [1.0], sigma_minus(), zero(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_theta_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="theta entries must be finite"):
            SLHModel.factored(np.eye(2), [1.0, bad], sigma_minus(), zero(2))

    def test_coupling_is_theta_times_l0(self):
        m = two_channel_model(1.0, 0.25, 0.3, S=BS50)
        assert [f.name for f in dataclasses.fields(SLHModel)] == ["S", "theta", "L0", "H0"]
        assert len(m.L) == m.channels
        for c, op in zip(m.theta, m.L):
            assert np.array_equal(op.mat, c * m.L0.mat)


class TestValidateModel:
    def test_two_level_extraction(self):
        kappa, omega_c = 1.8, -0.6
        rep = validate_model(two_level_model(kappa, omega_c))
        assert rep.passed
        assert all(c.holds for c in rep.conditions.values())
        p = rep.params
        assert p.alpha == pytest.approx(-omega_c / 2.0, abs=1e-12)
        assert p.beta == pytest.approx(omega_c, abs=1e-12)
        assert p.h == pytest.approx(-1.0, abs=1e-12)
        assert p.a == pytest.approx(complex(-kappa / 2.0, -omega_c), abs=1e-12)

    def test_pole_reconstruction_is_exact(self):
        rep = validate_model(two_level_model(0.7, 2.0))
        p = rep.params
        weight = float(np.sum(np.abs(two_level_model(0.7, 2.0).theta) ** 2))
        assert p.a == -1j * p.beta + 0.5 * weight * p.h
        assert p.h == p.h.real  # real by construction

    def test_decoupled_model_is_marginal(self):
        m = SLHModel.factored(np.array([[1.0]]), [0.0], zero(2), zero(2))
        rep = validate_model(m)
        assert not rep.passed
        assert rep.failed_conditions() == ["stability"]
        assert "marginal" in rep.conditions["stability"].message
        # algebraic params still reported
        assert rep.params.alpha == 0.0
        assert rep.params.beta == 0.0
        assert rep.params.h == 0.0

    def test_sigma_x_coupling_fails_annihilation(self):
        sx = Operator(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
        m = SLHModel.factored(np.array([[1.0]]), [1.0], sx, zero(2))
        rep = validate_model(m)
        assert not rep.passed
        assert not rep.conditions["coupling_annihilates"].holds
        assert rep.conditions["coupling_annihilates"].residual == pytest.approx(1.0)

    def test_joint_memory_model_fails_proportionality(self):
        rep = validate_model(joint_memory_model(1.0, 0.5))
        assert not rep.passed
        assert not rep.conditions["commutator_proportional"].holds
        for name in ("ground_energy", "coupling_annihilates", "number_eigenrelation"):
            assert rep.conditions[name].holds

    def test_report_serializes(self):
        rep = validate_model(two_level_model(1.0, 0.3))
        doc = rep.to_dict()
        assert doc["passed"] is True
        assert set(doc["conditions"]) == {
            "ground_energy",
            "coupling_annihilates",
            "commutator_proportional",
            "number_eigenrelation",
            "stability",
        }
        json.dumps(doc)  # round-trippable


class TestSeriesProduct:
    def test_identity_leaves_system_unchanged(self):
        m = two_level_model(1.3, 0.4)
        passthrough = SLHModel.factored(np.eye(1), [0.0], zero(2), zero(2))
        out = series_product(passthrough, m)
        assert np.allclose(out.S, m.S)
        assert np.max(np.abs(out.L[0].mat - m.L[0].mat)) == 0.0
        assert np.max(np.abs(out.H0.mat - m.H0.mat)) == 0.0

    def test_two_embedded_atoms_give_memory_hamiltonian(self):
        kappa, omega_c = 0.9, 1.1
        sm, sz = sigma_minus(), sigma_z()
        atom = []
        for site in range(2):
            atom.append(
                SLHModel.factored(
                    np.array([[1.0]]),
                    [np.sqrt(kappa)],
                    embed_site(sm, site, 2),
                    (omega_c / 2.0) * embed_site(sz, site, 2),
                )
            )
        ser = series_product(atom[1], atom[0])
        ref = joint_memory_model(kappa, omega_c)
        assert np.max(np.abs(ser.H0.mat - ref.H0.mat)) < 1e-14
        assert np.max(np.abs(ser.L[0].mat - ref.L[0].mat)) < 1e-14

    def test_hand_expanded_two_cavity_series(self):
        # distinct phases and couplings, expanded by hand on 2x2 operators
        s1, s2 = np.exp(0.3j), np.exp(-1.1j)
        c1, c2 = 0.8, 1.4
        h1 = 0.25 * sigma_z()
        h2 = -0.5 * sigma_z()
        g1 = SLHModel.factored(np.array([[s1]]), [c1], sigma_minus(), h1)
        g2 = SLHModel.factored(np.array([[s2]]), [c2], sigma_minus(), h2)
        out = series_product(g2, g1)
        assert out.S[0, 0] == pytest.approx(s2 * s1)
        expected_l = c2 * sigma_minus().mat + s2 * c1 * sigma_minus().mat
        assert np.allclose(out.L[0].mat, expected_l, atol=1e-15)
        cross = np.conj(c2) * s2 * c1 * (sigma_plus() @ sigma_minus()).mat
        expected_h = h1.mat + h2.mat + (cross - cross.conj().T) / 2j
        assert np.allclose(out.H0.mat, expected_h, atol=1e-15)

    def test_associativity(self):
        models = [two_level_model(k, w) for k, w in ((0.5, 0.2), (1.1, -0.7), (2.0, 1.5))]
        left = series_product(models[2], series_product(models[1], models[0]))
        right = series_product(series_product(models[2], models[1]), models[0])
        assert np.max(np.abs(left.S - right.S)) < 1e-12
        assert np.max(np.abs(left.L[0].mat - right.L[0].mat)) < 1e-12
        assert np.max(np.abs(left.H0.mat - right.H0.mat)) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_matches_gough_james_formula(self, k, seed):
        # (S2 S1, L2 + S2 L1, H1 + H2 + Im{L2^dag S2 L1}) on a shared L0 = sigma_minus
        rng = np.random.default_rng(seed)
        g1, g2 = (
            SLHModel.factored(
                haar_unitary(rng, k),
                rng.normal(size=k) + 1j * rng.normal(size=k),
                sigma_minus(),
                random_hermitian(rng, 2),
            )
            for _ in range(2)
        )
        out = series_product(g2, g1)
        s2 = g2.S
        l1 = [op.mat for op in g1.L]
        l2 = [op.mat for op in g2.L]
        assert np.max(np.abs(out.S - s2 @ g1.S)) <= 1e-12
        for i, op in enumerate(out.L):
            expected = l2[i] + sum(s2[i, j] * l1[j] for j in range(k))
            assert np.max(np.abs(op.mat - expected)) <= 1e-12
        cross = sum(s2[i, j] * (l2[i].conj().T @ l1[j]) for i in range(k) for j in range(k))
        expected_h = g1.H0.mat + g2.H0.mat + (cross - cross.conj().T) / 2j
        assert np.max(np.abs(out.H0.mat - expected_h)) <= 1e-12
        back = model_from_dict(json.loads(json.dumps(model_to_dict(out))))
        assert np.array_equal(back.S, out.S)
        assert np.array_equal(back.theta, out.theta)
        assert np.array_equal(back.L0.mat, out.L0.mat)
        assert np.array_equal(back.H0.mat, out.H0.mat)

    def test_non_factoring_result_refused(self):
        first, second = embedded_two_channel_pair()
        with pytest.raises(ValueError, match=r"does not factor as L_k = theta_k \* L0"):
            series_product(second, first)

    def test_channel_mismatch(self):
        with pytest.raises(ValueError, match="channel"):
            series_product(two_channel_model(1.0, 1.0, 0.0), two_level_model(1.0, 0.0))

    def test_dimension_mismatch(self):
        big = SLHModel.factored(
            np.array([[1.0]]), [1.0], embed_site(sigma_minus(), 0, 2), zero(4)
        )
        with pytest.raises(ValueError, match="dimension"):
            series_product(big, two_level_model(1.0, 0.0))


class TestFeedbackReduce:
    def test_swap_enhances_decay(self):
        k1, k2, wc = 1.0, 0.36, 0.9
        m = two_channel_model(k1, k2, wc, S=SWAP)
        red = feedback_reduce(m)
        assert red.channels == 1
        assert red.S[0, 0] == pytest.approx(1.0)
        assert red.theta[0] == pytest.approx(np.sqrt(k1) + np.sqrt(k2))
        # real scattering: no shift, Hamiltonian untouched
        assert feedback_shift(m) == 0.0
        assert np.array_equal(red.H0.mat, m.H0.mat)
        rep = validate_model(red)
        assert rep.passed
        assert rep.params.a == pytest.approx(
            complex(-((np.sqrt(k1) + np.sqrt(k2)) ** 2) / 2.0, -wc), abs=1e-12
        )

    def test_beamsplitter_shifts_resonance(self):
        k1, k2, wc = 1.0, 0.5, 2.0
        m = two_channel_model(k1, k2, wc, S=BS50)
        delta = feedback_shift(m)
        assert delta == pytest.approx(np.sqrt(k1 * k2) / (np.sqrt(2.0) - 1.0), abs=1e-12)
        red = feedback_reduce(m)
        assert red.S[0, 0] == pytest.approx(-1.0)
        assert red.theta[0] == pytest.approx(
            np.sqrt(k1) + 1j * np.sqrt(k2) / (np.sqrt(2.0) - 1.0)
        )
        rep = validate_model(red)
        assert rep.passed
        assert rep.params.beta == pytest.approx(wc + delta, abs=1e-12)

    def test_open_loop_is_singular(self):
        m = two_channel_model(1.0, 1.0, 0.0, S=np.eye(2))
        with pytest.raises(SingularLoopError):
            feedback_reduce(m)

    def test_wrong_channel_count(self):
        with pytest.raises(ValueError, match="2-channel"):
            feedback_reduce(two_level_model(1.0, 0.0))

    def test_reduced_model_always_validates(self, rng):
        # random unitary loops on a valid two-channel two-level plant
        for _ in range(10):
            q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            if abs(1.0 - q[1, 1]) < 1e-6:
                continue
            m = two_channel_model(rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0), rng.uniform(-2, 2), S=q)
            assert validate_model(feedback_reduce(m)).passed


class TestModelJson:
    def test_round_trip(self, tmp_path):
        m = two_channel_model(1.2, 0.7, -0.4, S=BS50)
        doc = model_to_dict(m)
        back = model_from_dict(doc)
        assert np.array_equal(back.S, m.S)
        assert np.array_equal(back.theta, m.theta)
        assert np.array_equal(back.L0.mat, m.L0.mat)
        assert np.array_equal(back.H0.mat, m.H0.mat)
        path = tmp_path / "model.json"
        save_model(m, path)
        again = load_model(path)
        assert np.array_equal(again.H0.mat, m.H0.mat)

    def test_unknown_keys_ignored(self):
        doc = model_to_dict(two_level_model(1.0, 0.0))
        doc["comment"] = "anything"
        model_from_dict(doc)

    def test_missing_field(self):
        doc = model_to_dict(two_level_model(1.0, 0.0))
        del doc["L0"]
        with pytest.raises(ValueError, match="L0"):
            model_from_dict(doc)

    def test_shape_mismatch(self):
        doc = model_to_dict(two_level_model(1.0, 0.0))
        doc["theta"] = [[1.0, 0.0], [0.0, 0.0]]
        with pytest.raises(ValueError, match="theta"):
            model_from_dict(doc)

    @pytest.mark.parametrize("key", ["levels", "channels"])
    @pytest.mark.parametrize("value", [None, [2], float("inf"), 2.7, True])
    def test_counts_must_be_integers(self, key, value):
        doc = model_to_dict(two_level_model(1.0, 0.0))
        doc[key] = value
        with pytest.raises(ValueError, match=f"field '{key}' must be an integer"):
            model_from_dict(doc)

    @pytest.mark.parametrize("key", ["S", "L0", "H0"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_matrix_entries_must_be_finite(self, key, value):
        doc = model_to_dict(two_level_model(1.0, 0.0))
        doc[key][0][0][1] = value
        with pytest.raises(ValueError, match=f"field '{key}' entries must be finite"):
            model_from_dict(doc)
