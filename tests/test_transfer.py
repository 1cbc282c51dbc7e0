import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photon_slh import (
    FilterStage,
    ModelValidationError,
    PhotonTransfer,
    Pulse,
    SLHModel,
    TimeGrid,
    TwoLevelParams,
    from_model,
    memory_g,
    shape_fft,
    shape_ode,
    sigma_minus,
    sigma_z,
    two_channel_g,
    two_level_g,
    validate_model,
)
from conftest import (
    dense_kernel,
    dense_response,
    haar_unitary,
    two_channel_model,
    two_level_model,
)
from test_model import joint_memory_model


class TestFromModel:
    def test_two_level_stage(self):
        kappa, wc = 1.4, 0.8
        f = from_model(two_level_model(kappa, wc))
        (st,) = f.stages
        assert st.S[0, 0] == 1.0
        assert st.theta[0] == pytest.approx(np.sqrt(kappa))
        assert st.h == -1.0
        assert st.a == pytest.approx(complex(-kappa / 2.0, -wc))
        ws = np.linspace(-25, 25, 401)
        got = f.response_matrix(ws)[:, 0, 0]
        ref = two_level_g(TwoLevelParams(kappa, wc), ws)
        assert np.max(np.abs(got - ref)) < 1e-14

    def test_resonance_phase_flip(self):
        kappa, wc = 2.0, 1.3
        f = from_model(two_level_model(kappa, wc))
        g = f.response_matrix(np.array([-wc]))[0, 0, 0]
        assert g == pytest.approx(-1.0, abs=1e-14)

    @pytest.mark.parametrize("kappa, wc", [(1.29, 1.1e4), (0.01, 50.0), (0.01, 100.0), (0.01, 1e3)])
    def test_high_q_stage(self, kappa, wc):
        # validated models with Q = 2 wc / kappa from 1e4 to 2e5 build their filter,
        # and its response across the pole is the closed form
        f = from_model(two_level_model(kappa, wc))
        ws = -wc + kappa * np.linspace(-10.0, 10.0, 401)
        got = f.response_matrix(ws)[:, 0, 0]
        assert np.max(np.abs(got - two_level_g(TwoLevelParams(kappa, wc), ws))) < 1e-12

    def test_invalid_model_raises_with_report(self):
        from photon_slh import SLHModel

        zero = np.zeros((2, 2))
        m = SLHModel.factored(np.array([[1.0]]), [0.0], zero, zero)
        with pytest.raises(ModelValidationError) as err:
            from_model(m)
        assert "stability" in err.value.report.failed_conditions()

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1e-12, 2e-3, 1.0])
    def test_tolerance_outside_range_refused(self, tol):
        # At tol = 1 the two-atom chain (commutator residual 0.5) would
        # pass as a one-pole filter.
        chain = joint_memory_model(1.0, 0.5)
        with pytest.raises(ValueError, match=r"^tol must lie in \[0, 0\.001\], got "):
            from_model(chain, tol=tol)

    @pytest.mark.parametrize("tol", [0.0, 1e-3])
    def test_tolerance_range_is_closed(self, tol):
        assert len(from_model(two_level_model(1.0, 0.3), tol=tol).stages) == 1

    def test_two_channel_entries(self):
        k1, k2, wc = 1.0, 0.4, -0.9
        f = from_model(two_channel_model(k1, k2, wc))
        ws = np.linspace(-15, 15, 301)
        got = f.response_matrix(ws)
        g1, g2 = two_channel_g(k1, k2, wc, ws)
        assert np.max(np.abs(got[:, 0, 0] - g1)) < 1e-14
        # reflection matrix element carries the minus sign
        assert np.max(np.abs(got[:, 1, 0] + g2)) < 1e-14


class TestStage:
    def test_unstable_pole_rejected(self):
        with pytest.raises(ValueError, match=r"^stage pole must have Re\(a\) < 0, got "):
            FilterStage(S=np.array([[1.0]]), theta=np.array([1.0]), a=0.5)

    def test_marginal_pole_rejected(self):
        with pytest.raises(ValueError, match=r"^stage pole must have Re\(a\) < 0, got "):
            FilterStage(S=np.array([[1.0]]), theta=np.array([1.0]), a=complex(0.0, 3.0))

    def test_channel_shape_checked(self):
        with pytest.raises(ValueError, match="theta"):
            FilterStage(S=np.eye(2), theta=np.array([1.0]), a=-1.0)

    @pytest.mark.parametrize(
        "S", [[[0.5]], [[1.0, 1e-9], [0.0, 1.0]], 2.0 * np.eye(3), [[0.0, 0.0], [0.0, 0.0]]]
    )
    def test_non_unitary_scattering_rejected(self, S):
        with pytest.raises(ValueError, match=r"^S is not unitary \(defect "):
            FilterStage(S=S, theta=np.ones(len(S)), a=-1.0)

    @pytest.mark.parametrize(
        "theta, weight",
        # 1e-170 squares to 0; 1e-155 to 1e-310, and 2 Re(a)/1e-310 overflows
        [([0.0], "0"), ([0.0, 0.0j], "0"), ([1e-170, 0.0], "0"), ([1e-155], "1e-310")],
    )
    def test_uncoupled_stage_rejected(self, theta, weight):
        message = rf"^stage theta must be nonzero, with h finite: \|theta\|\^2 = {weight}$"
        with pytest.raises(ValueError, match=message):
            FilterStage(S=np.eye(len(theta)), theta=theta, a=-1.0)

    def test_takes_no_coupling(self):
        with pytest.raises(TypeError, match="h"):
            FilterStage(S=[[1.0]], theta=[1.0], h=-2.0, a=-1.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("S", [[np.nan]]),
            ("S", [[np.inf]]),
            ("theta", [np.nan]),
            ("theta", [complex(0.0, -np.inf)]),
            ("a", -np.inf),
            ("a", complex(-1.0, np.nan)),
        ],
    )
    def test_non_finite_field_rejected(self, field, value):
        fields = dict(S=[[1.0]], theta=[1.0], a=-1.0)
        fields[field] = value
        with pytest.raises(ValueError, match=f"^stage {field} must be finite$"):
            FilterStage(**fields)

    def test_drive_is_the_kernel_row(self, rng):
        # the stage kernel h theta theta^dag S is the outer product theta x drive
        stage = FilterStage(
            S=haar_unitary(rng, 3), theta=rng.normal(size=3) + 1j, a=complex(-0.4, 2.0)
        )
        kernel = np.multiply.outer(stage.theta, stage.drive)
        assert np.max(np.abs(kernel - dense_kernel(stage))) <= 1e-15
        assert not stage.drive.flags.writeable

    def test_derived_fields_read_only(self):
        stage = FilterStage(S=[[1.0]], theta=[2.0], a=complex(-1.0, 0.5))
        assert stage.h == -0.5
        for name in ("h", "drive", "a"):
            with pytest.raises(AttributeError):
                setattr(stage, name, -1.0)

    @settings(max_examples=200, deadline=None)
    @given(
        kappa=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=3),
        quality=st.floats(-1e5, 1e5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_h_matches_validate_model(self, kappa, quality, seed):
        # two-level models: the derived h is the model's h bit for bit
        s = haar_unitary(np.random.default_rng(seed), len(kappa))
        omega_c = quality * sum(kappa)
        m = SLHModel(S=s, theta=np.sqrt(kappa), L0=sigma_minus(), H0=(omega_c / 2.0) * sigma_z())
        (stage,) = from_model(m).stages
        params = validate_model(m).params
        assert stage.h == params.h
        assert np.array_equal(stage.drive, params.h * m.theta.conj().dot(m.S))


class TestAllPassProperties:
    def test_two_level_family_all_pass(self, rng):
        kappa, wc = 0.9, -1.7
        f = from_model(two_level_model(kappa, wc))
        ws = rng.uniform(-50, 50, size=1000)
        g = f.response_matrix(ws)[:, 0, 0]
        assert np.max(np.abs(np.abs(g) - 1.0)) < 1e-12

    def test_conjugate_pole_identity_when_balanced(self):
        # whenever h |theta|^2 = 2 Re(a), the response is S (i w + a*)/(i w - a)
        kappa, wc = 1.6, 0.5
        f = from_model(two_level_model(kappa, wc))
        (st,) = f.stages
        assert st.h * abs(st.theta[0]) ** 2 == pytest.approx(2.0 * st.a.real, abs=1e-14)
        ws = np.linspace(-40, 40, 501)
        got = f.response_matrix(ws)[:, 0, 0]
        ref = st.S[0, 0] * (1j * ws + np.conj(st.a)) / (1j * ws - st.a)
        assert np.max(np.abs(got - ref)) < 1e-12

    def test_two_channel_flux_conservation(self, rng):
        k1, k2, wc = 1.3, 0.2, 0.7
        f = from_model(two_channel_model(k1, k2, wc))
        ws = rng.uniform(-60, 60, size=1000)
        g = f.response_matrix(ws)
        flux = np.abs(g[:, 0, 0]) ** 2 + np.abs(g[:, 1, 0]) ** 2
        assert np.max(np.abs(flux - 1.0)) < 1e-12


@st.composite
def lossless_cascade(draw) -> PhotonTransfer:
    """K 1-3 channels, depth 1-5: Haar-random ``S``, complex ``theta`` scaled by
    10^-100..10^100, and poles with ``|Re a|`` over 10^-3..10^3 and ``|Im a|``
    up to 30 |Re a|."""
    k = draw(st.integers(1, 3), label="channels")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    stages = []
    for _ in range(draw(st.integers(1, 5), label="depth")):
        scale = 10.0 ** draw(st.floats(-100.0, 100.0), label="log10 theta scale")
        rate = 10.0 ** draw(st.floats(-3.0, 3.0), label="log10 |Re a|")
        stages.append(
            FilterStage(
                S=haar_unitary(rng, k),
                theta=scale * (rng.normal(size=k) + 1j * rng.normal(size=k)),
                a=rate * complex(-1.0, draw(st.floats(-30.0, 30.0), label="Im a / |Re a|")),
            )
        )
    return PhotonTransfer(stages=tuple(stages))


class TestLossless:
    @settings(max_examples=200, deadline=None)
    @given(f=lossless_cascade(), ws=st.lists(st.floats(-1e5, 1e5), min_size=1, max_size=16))
    def test_every_cascade_is_all_pass(self, f, ws):
        g = f.response_matrix(np.array(ws))
        defect = np.conj(np.swapaxes(g, 1, 2)) @ g - np.eye(f.channels)
        assert np.max(np.abs(defect)) <= 1e-12

    @pytest.mark.parametrize("c", [1e-100, 1e100])
    def test_theta_scale_invariance(self, rng, c):
        # h theta theta^dag S does not depend on the scale of theta
        s, theta = haar_unitary(rng, 2), rng.normal(size=2) + 1j * rng.normal(size=2)
        a = complex(-0.7, 1.3)
        base = PhotonTransfer(stages=(FilterStage(S=s, theta=theta, a=a),) * 3)
        scaled = PhotonTransfer(stages=(FilterStage(S=s, theta=c * theta, a=a),) * 3)
        ws = np.linspace(-20.0, 20.0, 81)
        assert np.max(np.abs(scaled.response_matrix(ws) - base.response_matrix(ws))) <= 1e-14
        grid = TimeGrid(t_start=-20.0, dt=40.0 / 512, n=512)
        x = Pulse(grid=grid, samples=rng.normal(size=(grid.n, 2)) + 0j)
        want = shape_ode(x, base).samples
        got = shape_ode(x, scaled).samples
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


class TestCascade:
    def test_needs_a_stage(self):
        with pytest.raises(ValueError, match="^filter needs at least one stage$"):
            PhotonTransfer(stages=())

    def test_two_stage_phase_doubles(self):
        kappa, wc = 1.0, 0.4
        f = from_model(two_level_model(kappa, wc))
        ws = np.linspace(-20, 20, 201)
        doubled = PhotonTransfer(stages=f.stages * 2).response_matrix(ws)[:, 0, 0]
        single = f.response_matrix(ws)[:, 0, 0]
        assert np.max(np.abs(doubled - single**2)) < 1e-14
        assert np.max(np.abs(np.abs(doubled) - 1.0)) < 1e-12

    def test_three_stage_matches_memory_oracle(self, rng):
        p = TwoLevelParams(1.2, -0.8)
        f = from_model(two_level_model(p.kappa, p.omega_c))
        chain = PhotonTransfer(stages=f.stages * 3)
        ws = rng.uniform(-30, 30, size=64)
        ws.sort()
        got = chain.response_matrix(ws)[:, 0, 0]
        assert np.max(np.abs(got - memory_g(3, p, ws))) < 1e-12

    def test_product_homomorphism(self):
        f1 = from_model(two_level_model(0.7, 0.2))
        f2 = from_model(two_level_model(1.9, -1.1))
        ws = np.linspace(-25, 25, 301)
        combo = PhotonTransfer(stages=f1.stages + f2.stages).response_matrix(ws)[:, 0, 0]
        pointwise = f2.response_matrix(ws)[:, 0, 0] * f1.response_matrix(ws)[:, 0, 0]
        assert np.max(np.abs(combo - pointwise)) < 1e-13

    def test_channel_mismatch(self):
        with pytest.raises(ValueError, match="channel"):
            PhotonTransfer(
                stages=from_model(two_level_model(1.0, 0.3)).stages
                + from_model(two_channel_model(1.0, 0.5, 0.3)).stages
            )


class TestImpulseResponse:
    # A stage's impulse response is S delta(t) + theta drive exp(a t) for t >= 0.
    def test_kernel_integral_matches_dc_gain(self):
        kappa, wc = 1.1, 0.9
        f = from_model(two_level_model(kappa, wc))
        (st,) = f.stages
        kernel = st.theta[0] * st.drive[0]
        assert kernel == pytest.approx(-kappa)
        assert st.S[0, 0] == 1.0
        ts = np.linspace(0.0, 60.0 / kappa, 2**16)
        integral = np.trapezoid(kernel * np.exp(st.a * ts), ts)
        closed = -kappa / (kappa / 2.0 + 1j * wc)
        assert abs(integral - closed) < 1e-6
        g0 = f.response_matrix(np.array([0.0]))[0, 0, 0]
        assert closed == pytest.approx(g0 - st.S[0, 0], abs=1e-12)


def random_stage(rng, k: int) -> FilterStage:
    """Haar-random ``S``, complex ``theta`` and a pole in the left half plane: a
    lossless stage, as every stage is."""
    return FilterStage(
        S=haar_unitary(rng, k),
        theta=rng.normal(size=k) + 1j * rng.normal(size=k),
        a=complex(rng.uniform(-5.0, -0.5), rng.uniform(-5.0, 5.0)),
    )


class TestRankOneForm:
    # The rank-one stage updates against the ordered product of dense K x K stage matrices.
    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(1, 3), depth=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def test_matches_dense_products(self, k, depth, seed):
        rng = np.random.default_rng(seed)
        f = PhotonTransfer(stages=tuple(random_stage(rng, k) for _ in range(depth)))
        ws = rng.uniform(-50.0, 50.0, size=33)
        want = dense_response(f, ws)
        got = f.response_matrix(ws)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
        # shape_fft: the dense response times each FFT bin of the input
        grid = TimeGrid(t_start=0.0, dt=40.0 / 64, n=64)
        x = rng.normal(size=(grid.n, k)) + 1j * rng.normal(size=(grid.n, k))
        spec = np.fft.fft(x, axis=0)
        ref = np.fft.ifft(np.einsum("nij,nj->ni", dense_response(f, grid.omegas()), spec), axis=0)
        out = shape_fft(Pulse(grid=grid, samples=x), f).samples
        assert np.max(np.abs(out - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))
