import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photon_slh import (
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
)
from conftest import BS50, SWAP, haar_unitary, two_channel_model, two_level_model


def zero(dim: int) -> np.ndarray:
    return np.zeros((dim, dim), dtype=complex)


def couplings(m: SLHModel) -> list:
    """Per-channel coupling matrices ``theta_k L0``."""
    return [c * m.L0 for c in m.theta]


def joint_memory_model(kappa: float, omega_c: float, n_sites: int = 2) -> SLHModel:
    """All-atoms-at-once memory chain model on the joint space."""

    def site(op, n):
        return embed_site(op, n, n_sites).mat

    sm, sz, sp = sigma_minus(), sigma_z(), sigma_plus()
    l0 = zero(2**n_sites)
    h0 = zero(2**n_sites)
    for n in range(n_sites):
        l0 = l0 + site(sm, n)
        h0 = h0 + (omega_c / 2.0) * site(sz, n)
    for j in range(1, n_sites):
        for i in range(j):
            hop = site(sp, j) @ site(sm, i) - site(sp, i) @ site(sm, j)
            h0 = h0 + (kappa / 2j) * hop
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


def random_hermitian(rng, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2.0


def random_operator(rng, dim: int) -> np.ndarray:
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def _eigen_reference(a: np.ndarray, v: np.ndarray):
    """Reference relation test ``A v = lambda v``, kept apart from the checker's
    own fit: ``(residual, lambda or None)``."""
    nv = np.linalg.norm(v)
    if nv == 0.0:
        return np.inf, None
    av = a @ v
    lam = complex(np.vdot(v, av) / np.vdot(v, v))
    return float(np.linalg.norm(av - lam * v) / nv), lam


def _row_reference(a: np.ndarray, b: np.ndarray, row: np.ndarray):
    """Relation test ``row.A = lambda row.B``, same form as ``_eigen_reference``."""
    nrow = np.linalg.norm(row)
    if nrow == 0.0:
        return np.inf, None
    ra, rb = row @ a, row @ b
    nrb = np.linalg.norm(rb)
    if nrb == 0.0:
        return float(np.linalg.norm(ra) / nrow), None
    lam = complex(np.vdot(rb, ra) / np.vdot(rb, rb))
    return float(np.linalg.norm(ra - lam * rb) / nrb), lam


def reference_validation(m: SLHModel, tol: float) -> dict:
    """Reference condition check, one relation test per condition, in the
    layout of ``ValidationReport.to_dict``."""
    e0 = np.eye(m.levels, dtype=complex)[0]
    l0, h0 = m.L0, m.H0
    conditions = {}

    def put(name, holds, residual, failure):
        conditions[name] = {"holds": holds, "residual": residual,
                            "message": "" if holds else failure}

    r_alpha, alpha = _eigen_reference(h0, e0)
    put("ground_energy", r_alpha <= tol, r_alpha, "relation does not hold at tolerance")
    r_l = float(np.linalg.norm(l0 @ e0))
    put("coupling_annihilates", r_l <= tol, r_l, "L0 does not annihilate the ground state")
    r_beta, beta = _row_reference(l0 @ h0 - h0 @ l0, l0, e0)
    put("commutator_proportional", r_beta <= tol, r_beta, "relation does not hold at tolerance")
    l0_dag = l0.conj().T
    r_h, h = _eigen_reference(l0_dag @ l0 - l0 @ l0_dag, e0)
    h_imag = 0.0 if h is None else abs(h.imag)
    put("number_eigenrelation", r_h <= tol and h_imag <= tol,
        max(r_h, h_imag) if r_h <= tol else r_h, "eigenrelation fails or eigenvalue is not real")
    doc = {"passed": False, "conditions": conditions}
    if all(c["holds"] for c in conditions.values()):
        beta = beta if beta is not None else 0.0 + 0.0j
        h = float(h.real)
        a = -1j * complex(beta) + 0.5 * float(np.sum(np.abs(m.theta) ** 2)) * h
        unstable = f"unstable pole: Re(a) = {a.real:.6e}"
        if a.real == 0.0:
            unstable = "marginally stable: Re(a) = 0"
        put("stability", a.real < 0.0, max(a.real, 0.0), unstable)
        doc["passed"] = a.real < 0.0
        doc["params"] = {"alpha": [alpha.real, alpha.imag], "beta": [beta.real, beta.imag],
                         "h": h, "a": [a.real, a.imag]}
    else:
        put("stability", False, None, "not evaluated: an algebraic condition failed")
    return doc


def random_condition_model(rng, kind: str, levels: int, k: int, noise: float) -> SLHModel:
    """A model that passes the condition check (``two-level``, ``embedded``, ``ladder``)
    or fails it (``random``), with couplings and Hamiltonian nudged by ``noise``."""
    if kind == "two-level":
        l0, h0 = sigma_minus().mat, rng.normal() * sigma_z().mat
    elif kind == "embedded":
        site = int(rng.integers(2))
        l0 = complex(rng.normal(), rng.normal()) * embed_site(sigma_minus(), site, 2).mat
        h0 = np.diag(rng.normal(size=4))
    elif kind == "ladder":
        lower = np.diag(rng.normal(size=levels - 1) + 1j * rng.normal(size=levels - 1), 1)
        l0, h0 = lower, np.diag(rng.normal(size=levels))
    else:
        l0, h0 = random_operator(rng, levels), random_hermitian(rng, levels)
    l0 = l0 + noise * random_operator(rng, len(l0))
    h0 = h0 + noise * random_hermitian(rng, len(h0))
    theta = rng.normal(size=k) + 1j * rng.normal(size=k)
    return SLHModel.factored(haar_unitary(rng, k), theta, l0, h0)


SQUARE = "must be square and at least 1x1, got shape"


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
        assert np.array_equal(m.theta, [1.0, 0.5])
        assert np.array_equal(m.L0, sigma_minus().mat)

    @pytest.mark.parametrize(
        "l0, h0, message",
        [
            (np.zeros((2, 3)), zero(2), rf"^L0 {SQUARE} \(2, 3\)$"),
            (zero(2), np.zeros(2), rf"^H0 {SQUARE} \(2,\)$"),
            (zero(0), zero(0), rf"^L0 {SQUARE} \(0, 0\)$"),
            (np.array([[0.0, np.nan], [0.0, 0.0]]), zero(2), r"^L0 entries must be finite$"),
            (zero(2), np.diag([np.inf, 0.0]), r"^H0 entries must be finite$"),
            (zero(2), np.zeros((4, 4)), r"^L0 dimension does not match H0$"),
            (zero(2), np.array([[0.0, 1.0], [0.0, 0.0]]), r"^H0 is not Hermitian \(defect"),
        ],
        ids=["l0-not-square", "h0-not-a-matrix", "empty", "l0-nan", "h0-inf",
             "shape-mismatch", "h0-not-hermitian"],
    )
    def test_operator_arrays_refused(self, l0, h0, message):
        with pytest.raises(ValueError, match=message):
            SLHModel.factored(np.eye(1), [1.0], l0, h0)

    def test_arrays_are_read_only_copies(self):
        l0 = sigma_minus().mat.copy()
        m = SLHModel.factored(np.eye(1), [1.0], l0, zero(2))
        l0[0, 1] = 5.0  # the caller's array is not the model's
        assert m.L0[0, 1] == 1.0
        for arr in (m.S, m.theta, m.L0, m.H0):
            assert isinstance(arr, np.ndarray) and arr.dtype == complex
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0

    def test_non_finite_scattering_rejected(self):
        with pytest.raises(ValueError, match="^S entries must be finite$"):
            SLHModel.factored(np.array([[np.nan]]), [1.0], sigma_minus(), zero(2))

    def test_operators_and_their_arrays_build_one_model(self):
        # the benchmark worker's call form: constructor Operators, scaled by a float
        omega_c = 0.7317
        theta = [0.6 + 0.2j, -0.3j]
        ops = SLHModel.factored(BS50, theta, sigma_minus(), (omega_c / 2.0) * sigma_z())
        arrays = SLHModel.factored(BS50, theta, sigma_minus().mat, (omega_c / 2.0) * sigma_z().mat)
        for name in ("S", "theta", "L0", "H0"):
            a, b = getattr(ops, name), getattr(arrays, name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        assert json.dumps(validate_model(ops).to_dict()) == json.dumps(
            validate_model(arrays).to_dict()
        )


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
        sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
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

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1e-12, 2e-3])
    def test_tolerance_outside_range_refused(self, tol):
        with pytest.raises(ValueError, match=r"^tol must lie in \[0, 0\.001\], got "):
            validate_model(two_level_model(1.0, 0.3), tol)

    @pytest.mark.parametrize("tol", [0.0, 1e-3])
    def test_tolerance_range_is_closed(self, tol):
        assert validate_model(two_level_model(1.0, 0.3), tol).passed

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(["two-level", "embedded", "ladder", "random"]),
        levels=st.integers(2, 4),
        k=st.integers(1, 3),
        noise=st.sampled_from([0.0, 1e-13, 1e-11, 1e-10, 1e-9, 1e-6]),
        tol=st.sampled_from([0.0, 1e-10, 1e-3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_relation_reference(self, kind, levels, k, noise, tol, seed):
        # The one-fit checker reproduces the per-relation arithmetic bit for bit:
        # verdicts, residuals, messages and extracted parameters.
        m = random_condition_model(np.random.default_rng(seed), kind, levels, k, noise)
        got = json.dumps(validate_model(m, tol).to_dict())
        assert got == json.dumps(reference_validation(m, tol))

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
        assert np.max(np.abs(couplings(out)[0] - couplings(m)[0])) == 0.0
        assert np.max(np.abs(out.H0 - m.H0)) == 0.0

    def test_uncoupled_models_give_zero_coupling(self):
        # theta = 0 leaves no coupling to factor, whatever L0 is
        dark = [SLHModel(S=BS50, theta=[0.0, 0.0], L0=sigma_minus(), H0=w * sigma_z())
                for w in (0.3, 0.5)]
        out = series_product(*dark)
        assert np.array_equal(out.theta, np.zeros(2)) and np.array_equal(out.L0, zero(2))
        assert np.array_equal(out.S, BS50 @ BS50)
        assert np.array_equal(out.H0, 0.8 * sigma_z().mat)

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
        assert np.max(np.abs(ser.H0 - ref.H0)) < 1e-14
        assert np.max(np.abs(couplings(ser)[0] - couplings(ref)[0])) < 1e-14

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
        assert np.allclose(couplings(out)[0], expected_l, atol=1e-15)
        cross = np.conj(c2) * s2 * c1 * (sigma_plus().mat @ sigma_minus().mat)
        expected_h = h1.mat + h2.mat + (cross - cross.conj().T) / 2j
        assert np.allclose(out.H0, expected_h, atol=1e-15)

    def test_associativity(self):
        models = [two_level_model(k, w) for k, w in ((0.5, 0.2), (1.1, -0.7), (2.0, 1.5))]
        left = series_product(models[2], series_product(models[1], models[0]))
        right = series_product(series_product(models[2], models[1]), models[0])
        assert np.max(np.abs(left.S - right.S)) < 1e-12
        assert np.max(np.abs(couplings(left)[0] - couplings(right)[0])) < 1e-12
        assert np.max(np.abs(left.H0 - right.H0)) < 1e-12

    @settings(max_examples=80, deadline=None)
    @given(k=st.integers(1, 3), embedded=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_matches_gough_james_formula(self, k, embedded, seed):
        # (S2 S1, L2 + S2 L1, H1 + H2 + Im{L2^dag S2 L1}), per channel, on a shared
        # L0 = sigma_minus or, for K = 1, on random single-site operators embedded
        # at the two sites of a 4-level space (two different L0)
        rng = np.random.default_rng(seed)
        k = 1 if embedded else k
        g1, g2 = (
            SLHModel.factored(
                haar_unitary(rng, k),
                rng.normal(size=k) + 1j * rng.normal(size=k),
                embed_site(random_operator(rng, 2), site, 2) if embedded else sigma_minus(),
                random_hermitian(rng, 4 if embedded else 2),
            )
            for site in range(2)
        )
        out = series_product(g2, g1)
        s2 = g2.S
        l1, l2 = couplings(g1), couplings(g2)
        assert np.max(np.abs(out.S - s2 @ g1.S)) <= 1e-12
        for i, op in enumerate(couplings(out)):
            expected = l2[i] + sum(s2[i, j] * l1[j] for j in range(k))
            assert np.max(np.abs(op - expected)) <= 1e-12
        cross = sum(s2[i, j] * (l2[i].conj().T @ l1[j]) for i in range(k) for j in range(k))
        expected_h = g1.H0 + g2.H0 + (cross - cross.conj().T) / 2j
        assert np.max(np.abs(out.H0 - expected_h)) <= 1e-12
        back = model_from_dict(json.loads(json.dumps(model_to_dict(out))))
        assert np.array_equal(back.S, out.S)
        assert np.array_equal(back.theta, out.theta)
        assert np.array_equal(back.L0, out.L0)
        assert np.array_equal(back.H0, out.H0)

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
        assert np.array_equal(red.H0, m.H0)
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
        assert np.array_equal(back.L0, m.L0)
        assert np.array_equal(back.H0, m.H0)
        path = tmp_path / "model.json"
        save_model(m, path)
        again = load_model(path)
        assert np.array_equal(again.H0, m.H0)

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
