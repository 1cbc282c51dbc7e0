import json

import numpy as np
import pytest

from photon_slh import (
    Operator,
    SLHModel,
    feedback_reduce,
    from_model,
    model_to_dict,
    save_model,
    shape_fft,
    sigma_minus,
    sigma_z,
    write_pulse_csv,
    zero,
)
from photon_slh.cli import main
from photon_slh.pulses import TimeGrid, gaussian_pulse, read_pulse_csv
from conftest import BS50, SWAP, two_channel_model, two_level_model
from test_model import embedded_two_channel_pair

KAPPA, OMEGA_C = 1.0, 0.8


@pytest.fixture
def model_path(tmp_path):
    path = tmp_path / "two_level.json"
    save_model(two_level_model(KAPPA, OMEGA_C), path)
    return path


@pytest.fixture
def swap_path(tmp_path):
    path = tmp_path / "swap.json"
    save_model(two_channel_model(1.0, 0.36, OMEGA_C, S=SWAP), path)
    return path


class TestValidate:
    def test_passing_model(self, model_path, capsys):
        code = main(["validate", str(model_path)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True
        assert doc["params"]["alpha"] == [-OMEGA_C / 2.0, 0.0]
        assert doc["params"]["beta"] == [OMEGA_C, 0.0]
        assert doc["params"]["h"] == -1.0
        assert doc["params"]["a"] == [-KAPPA / 2.0, -OMEGA_C]

    def test_sigma_x_coupling_fails(self, tmp_path, capsys):
        sx = Operator(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
        bad = SLHModel.factored(np.array([[1.0]]), [1.0], sx, zero(2))
        path = tmp_path / "sx.json"
        save_model(bad, path)
        code = main(["validate", str(path)])
        assert code == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["conditions"]["coupling_annihilates"]["holds"] is False

    def test_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text("")
        assert main(["validate", str(path)]) == 1

    def test_malformed_json_reports_position(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"levels": 2,\n  "channels": }')
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_missing_file(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.json")]) == 1

    def test_env_tolerance_override(self, tmp_path, capsys, monkeypatch):
        # Hermitian nudge that fails at 1e-10 but passes at 1e-3
        h0 = (OMEGA_C / 2.0) * sigma_z().mat + 1e-6 * np.array([[0.0, 1.0], [1.0, 0.0]])
        m = SLHModel.factored(
            np.array([[1.0]]), [np.sqrt(KAPPA)], sigma_minus(), Operator(h0)
        )
        path = tmp_path / "nudged.json"
        save_model(m, path)
        assert main(["validate", str(path)]) == 2
        capsys.readouterr()
        monkeypatch.setenv("PHOTON_SLH_TOL", "1e-3")
        assert main(["validate", str(path)]) == 0
        capsys.readouterr()
        # explicit flag wins over the environment
        assert main(["validate", str(path), "--tol", "1e-12"]) == 2

    def test_bad_env_value(self, model_path, monkeypatch, capsys):
        monkeypatch.setenv("PHOTON_SLH_TOL", "not-a-number")
        assert main(["validate", str(model_path)]) == 1

    @pytest.mark.parametrize(
        "edit",
        [
            {"levels": None},
            {"levels": [2]},
            {"levels": 1e400},
            {"channels": 2.7},
            {"S": [[[float("nan"), 0.0]]]},
        ],
    )
    @pytest.mark.parametrize("command", ["validate", "shape"])
    def test_bad_model_fields_exit_1(self, tmp_path, capsys, command, edit):
        doc = model_to_dict(two_level_model(KAPPA, OMEGA_C))
        doc.update(edit)
        path = tmp_path / "bad.json"
        # 1e400 reaches json.load as a literal, beyond the float range
        path.write_text(json.dumps(doc).replace("Infinity", "1e400"))
        argv = [command, str(path)] + (["-o", str(tmp_path / "x.csv")] if command == "shape" else [])
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: field '{next(iter(edit))}' ")


    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("command", ["validate", "shape"])
    def test_non_finite_theta_exits_1(self, tmp_path, capsys, command, value):
        doc = model_to_dict(two_channel_model(1.0, 0.5, OMEGA_C))
        doc["theta"][1][0] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "x.csv"
        argv = [command, str(path)] + (["-o", str(out)] if command == "shape" else [])
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: theta entries must be finite\n"
        assert not out.exists()


class TestShape:
    def test_gaussian_norm_preserved(self, model_path, tmp_path, capsys):
        out = tmp_path / "shaped.csv"
        code = main(["shape", str(model_path), "--pulse", "gaussian", "-o", str(out)])
        assert code == 0
        sidecar = json.loads((tmp_path / "shaped.csv.json").read_text())
        assert abs(sidecar["input_norm"] - 1.0) < 1e-6
        assert abs(sidecar["output_norm"] - 1.0) < 1e-6
        assert out.exists()
        pulse = read_pulse_csv(out)
        assert pulse.grid.n == 2**14

    def test_inversion_scenario_both_methods(self, model_path, tmp_path):
        out = tmp_path / "inverted.csv"
        code = main(
            [
                "shape",
                str(model_path),
                "--pulse",
                "rising_exp",
                "--method",
                "both",
                "-o",
                str(out),
            ]
        )
        assert code == 0
        sidecar = json.loads((tmp_path / "inverted.csv.json").read_text())
        assert sidecar["l2_discrepancy"] < 1e-4
        assert sidecar["pre_zero_energy_fraction"] < 1e-6

    def test_cascade_matches_in_process(self, model_path, tmp_path):
        out = tmp_path / "c3.csv"
        assert main(["shape", str(model_path), "--cascade", "3", "-o", str(out)]) == 0
        got = read_pulse_csv(out)
        sidecar = json.loads((tmp_path / "c3.csv.json").read_text())
        g = sidecar["grid"]
        from photon_slh.transfer import PhotonTransfer

        filt = from_model(two_level_model(KAPPA, OMEGA_C))
        filt = PhotonTransfer(stages=filt.stages * 3)
        grid = TimeGrid(t_start=g["t_start"], dt=g["dt"], n=g["n"])
        pulse = gaussian_pulse(
            grid, t0=grid.t_start + 0.25 * grid.span, sigma=grid.span / 32.0
        )
        expected = shape_fft(pulse, filt)
        assert np.max(np.abs(got.samples - expected.samples)) < 1e-15

    def test_grid_too_short_exits_3(self, model_path, tmp_path, capsys):
        out = tmp_path / "short.csv"
        code = main(
            ["shape", str(model_path), "--dt", "0.001", "--log2-n", "8", "-o", str(out)]
        )
        assert code == 3
        assert "span" in capsys.readouterr().err

    def test_log2_n_bounds(self, model_path, tmp_path):
        assert main(["shape", str(model_path), "--log2-n", "7", "-o", str(tmp_path / "x.csv")]) == 1
        assert main(["shape", str(model_path), "--log2-n", "23", "-o", str(tmp_path / "x.csv")]) == 1

    def test_csv_pulse_input(self, model_path, tmp_path):
        grid = TimeGrid(t_start=-24.0, dt=48.0 / 2**12, n=2**12)
        pulse = gaussian_pulse(grid, t0=-8.0, sigma=0.8)
        pulse_path = tmp_path / "in.csv"
        write_pulse_csv(pulse, pulse_path)
        out = tmp_path / "out.csv"
        code = main(["shape", str(model_path), "--pulse", f"csv:{pulse_path}", "-o", str(out)])
        assert code == 0
        expected = shape_fft(pulse, from_model(two_level_model(KAPPA, OMEGA_C)))
        got = read_pulse_csv(out)
        assert np.max(np.abs(got.samples - expected.samples)) < 1e-15

    @pytest.mark.parametrize("defect", ["missing", "duplicate", "negative-channel"])
    def test_malformed_csv_pulse_exits_1(self, model_path, swap_path, tmp_path, capsys, defect):
        grid = TimeGrid(t_start=-24.0, dt=48.0 / 2**12, n=2**12)
        channels = 1 if defect == "negative-channel" else 2
        pulse_path = tmp_path / "in.csv"
        write_pulse_csv(gaussian_pulse(grid, t0=-8.0, sigma=0.8, channels=channels), pulse_path)
        lines = pulse_path.read_text().splitlines(keepends=True)
        if defect == "missing":
            del lines[100]
        elif defect == "duplicate":
            lines.append(lines[100])
        else:
            lines[1:] = [line.replace(",0,", ",-1,") for line in lines[1:]]
        pulse_path.write_text("".join(lines))
        model = model_path if channels == 1 else swap_path
        out = tmp_path / "out.csv"
        code = main(["shape", str(model), "--pulse", f"csv:{pulse_path}", "-o", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: pulse CSV")
        assert not out.exists()

    def test_csv_pulse_far_from_origin(self, tmp_path):
        # |t_start| / dt = 1e7: the written times round by more than 1e-9 dt
        model_path = tmp_path / "fast.json"
        save_model(two_level_model(16.0, 0.0), model_path)
        grid = TimeGrid(t_start=1e4, dt=1e-3, n=2**12)
        pulse = gaussian_pulse(grid, t0=1e4 + 1.0, sigma=0.1)
        pulse_path = tmp_path / "in.csv"
        write_pulse_csv(pulse, pulse_path)
        out = tmp_path / "out.csv"
        code = main(["shape", str(model_path), "--pulse", f"csv:{pulse_path}", "-o", str(out)])
        assert code == 0
        expected = shape_fft(read_pulse_csv(pulse_path), from_model(two_level_model(16.0, 0.0)))
        assert np.max(np.abs(read_pulse_csv(out).samples - expected.samples)) < 1e-15

    def test_validation_failure_exits_2(self, tmp_path, capsys):
        bad = SLHModel.factored(np.array([[1.0]]), [0.0], zero(2), zero(2))
        path = tmp_path / "bad.json"
        save_model(bad, path)
        assert main(["shape", str(path), "-o", str(tmp_path / "x.csv")]) == 2
        assert json.loads(capsys.readouterr().err)["passed"] is False

    @pytest.mark.parametrize(
        "flags",
        [
            ["--pulse", "gaussian:sigma=1e-300"],
            ["--dt", "1e-300"],
            ["--pulse", "gaussian:sigma=1e200"],
            ["--dt", "1e300"],
        ],
    )
    def test_extreme_gaussian_width_exits_1(self, model_path, tmp_path, capsys, flags):
        out = tmp_path / "x.csv"
        assert main(["shape", str(model_path), *flags, "-o", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: sigma must lie in [1e-150, 1e150]")
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--t-start", "1e308"], "too fine to tell grid times apart"),
            (["--t-start", "inf"], "grid times must be finite"),
            (["--dt", "inf"], "grid times must be finite"),
        ],
        ids=["collapsed-times", "t-start-inf", "dt-inf"],
    )
    def test_unusable_grid_exits_1(self, model_path, tmp_path, capsys, flags, message):
        out = tmp_path / "x.csv"
        assert main(["shape", str(model_path), *flags, "-o", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "pulse, name, value",
        [
            ("gaussian:t0=inf", "t0", "inf"),
            ("square:t0=-1,t1=inf", "t1", "inf"),
            ("rising_exp:omega_c=nan", "omega_c", "nan"),
            ("decaying_exp:t_on=nan", "t_on", "nan"),
            ("rising_exp:kappa=inf", "kappa", "inf"),
        ],
    )
    def test_non_finite_pulse_parameter_exits_1(
        self, model_path, tmp_path, capsys, pulse, name, value
    ):
        out = tmp_path / "x.csv"
        assert main(["shape", str(model_path), "--pulse", pulse, "-o", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: pulse parameter {name} must be finite, got {value}\n"
        assert not out.exists()

    def test_unknown_pulse_kind(self, model_path, tmp_path):
        assert (
            main(["shape", str(model_path), "--pulse", "sinc", "-o", str(tmp_path / "x.csv")])
            == 1
        )


class TestCompose:
    def test_series_with_identity_is_neutral(self, model_path, tmp_path, capsys):
        ident = SLHModel.factored(np.array([[1.0]]), [0.0], zero(2), zero(2))
        ident_path = tmp_path / "ident.json"
        save_model(ident, ident_path)
        code = main(["compose", "--series", str(model_path), str(ident_path)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        # same physics: theta (x) L0 and H0 match the input model
        m = two_level_model(KAPPA, OMEGA_C)
        theta = [complex(re, im) for re, im in doc["theta"]]
        l0 = np.array([[complex(*c) for c in row] for row in doc["L0"]])
        h0 = np.array([[complex(*c) for c in row] for row in doc["H0"]])
        assert np.allclose(theta[0] * l0, m.theta[0] * m.L0.mat, atol=1e-14)
        assert np.allclose(h0, m.H0.mat, atol=1e-14)

    def test_feedback_swap(self, swap_path, tmp_path, capsys):
        out = tmp_path / "reduced.json"
        code = main(["compose", "--feedback", str(swap_path), "-o", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["channels"] == 1
        assert doc["feedback"]["delta"] == 0.0
        theta = complex(*doc["feedback"]["theta_reduced"][0])
        assert theta == pytest.approx(np.sqrt(1.0) + np.sqrt(0.36))

    def test_feedback_beamsplitter_delta(self, tmp_path, capsys):
        k1, k2 = 1.0, 0.5
        path = tmp_path / "bs.json"
        save_model(two_channel_model(k1, k2, OMEGA_C, S=BS50), path)
        assert main(["compose", "--feedback", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        expected = np.sqrt(k1 * k2) / (np.sqrt(2.0) - 1.0)
        assert doc["feedback"]["delta"] == pytest.approx(expected, abs=1e-12)

    def test_feedback_singular_loop_exits_4(self, tmp_path, capsys):
        path = tmp_path / "open.json"
        save_model(two_channel_model(1.0, 1.0, 0.0, S=np.eye(2)), path)
        assert main(["compose", "--feedback", str(path)]) == 4

    def test_series_mismatch_exits_1(self, model_path, swap_path):
        assert main(["compose", "--series", str(model_path), str(swap_path)]) == 1

    def test_series_that_does_not_factor_exits_1(self, tmp_path, capsys):
        paths = [tmp_path / "first.json", tmp_path / "second.json"]
        for m, path in zip(embedded_two_channel_pair(), paths):
            save_model(m, path)
        out = tmp_path / "composed.json"
        assert main(["compose", "--series", *map(str, paths), "-o", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: series product does not factor as L_k = theta_k * L0: "
            "its channel couplings are not multiples of one operator\n"
        )
        assert not out.exists()

    def test_round_trip_shapes_identically(self, swap_path, tmp_path):
        # CLI-composed model must shape bit-identically to in-process composition
        reduced_path = tmp_path / "reduced.json"
        assert main(["compose", "--feedback", str(swap_path), "-o", str(reduced_path)]) == 0
        out_cli = tmp_path / "out_cli.csv"
        assert (
            main(
                [
                    "shape",
                    str(reduced_path),
                    "--pulse",
                    "gaussian:t0=-3.0,sigma=0.9",
                    "--t-start",
                    "-12.0",
                    "--dt",
                    str(24.0 / 2**13),
                    "--log2-n",
                    "13",
                    "-o",
                    str(out_cli),
                ]
            )
            == 0
        )
        reduced = feedback_reduce(two_channel_model(1.0, 0.36, OMEGA_C, S=SWAP))
        grid = TimeGrid(t_start=-12.0, dt=24.0 / 2**13, n=2**13)
        pulse = gaussian_pulse(grid, t0=-3.0, sigma=0.9)
        expected = shape_fft(pulse, from_model(reduced))
        out_proc = tmp_path / "out_proc.csv"
        write_pulse_csv(expected, out_proc)
        assert out_cli.read_bytes() == out_proc.read_bytes()


class TestSweep:
    def test_two_channel_reflection_peak(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        save_model(two_channel_model(1.0, 1.0, OMEGA_C), path)
        lo, hi = -OMEGA_C - 4.0, -OMEGA_C + 4.0
        code = main(["sweep", str(path), f"--omega={lo}:{hi}:81"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "omega,i,j,re,im,abs2"
        rows = [line.split(",") for line in lines[1:]]
        refl = {float(r[0]): float(r[5]) for r in rows if r[1] == "2" and r[2] == "1"}
        best_omega = max(refl, key=refl.get)
        assert best_omega == pytest.approx(-OMEGA_C)
        assert refl[best_omega] == pytest.approx(1.0, abs=1e-12)

    def test_single_channel_is_all_pass(self, model_path, capsys):
        assert main(["sweep", str(model_path), "--omega=-5:5:21"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        for line in lines:
            assert float(line.split(",")[5]) == pytest.approx(1.0, abs=1e-12)

    def test_single_point_grid(self, model_path, capsys):
        assert main(["sweep", str(model_path), "--omega", "0:0:1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2

    def test_validation_failure(self, tmp_path, capsys):
        bad = SLHModel.factored(np.array([[1.0]]), [0.0], zero(2), zero(2))
        path = tmp_path / "bad.json"
        save_model(bad, path)
        assert main(["sweep", str(path), "--omega", "0:1:2"]) == 2
        assert json.loads(capsys.readouterr().err)["passed"] is False

    def test_table_text(self, tmp_path, capsys):
        # kappa = 1, omega_c = 0: G(iw) = 1 - 1/(iw + 1/2), exact at these points
        one = tmp_path / "one.json"
        save_model(two_level_model(1.0, 0.0), one)
        assert main(["sweep", str(one), "--omega=-0.5:0.5:3"]) == 0
        assert capsys.readouterr().out == (
            "omega,i,j,re,im,abs2\n"
            "-5.0000000000000000e-01,1,1,0.0000000000000000e+00,-1.0000000000000000e+00,"
            "1.0000000000000000e+00\n"
            "0.0000000000000000e+00,1,1,-1.0000000000000000e+00,0.0000000000000000e+00,"
            "1.0000000000000000e+00\n"
            "5.0000000000000000e-01,1,1,0.0000000000000000e+00,1.0000000000000000e+00,"
            "1.0000000000000000e+00\n"
        )
        # theta = (1, 1), S = I: G(0) = I - [[1, 1], [1, 1]]
        two = tmp_path / "two.json"
        save_model(two_channel_model(1.0, 1.0, 0.0), two)
        assert main(["sweep", str(two), "--omega=0:0:1"]) == 0
        zero_, one_ = "0.0000000000000000e+00", "1.0000000000000000e+00"
        assert capsys.readouterr().out == (
            "omega,i,j,re,im,abs2\n"
            f"{zero_},1,1,{zero_},{zero_},{zero_}\n"
            f"{zero_},1,2,-{one_},{zero_},{one_}\n"
            f"{zero_},2,1,-{one_},{zero_},{one_}\n"
            f"{zero_},2,2,{zero_},{zero_},{zero_}\n"
        )

    def test_bad_range(self, model_path):
        assert main(["sweep", str(model_path), "--omega", "0:1"]) == 1
        assert main(["sweep", str(model_path), "--omega", "0:1:0"]) == 1


class TestOracleCommand:
    def test_two_level_g(self, capsys):
        assert (
            main(
                [
                    "oracle",
                    "two-level-g",
                    "--kappa",
                    "1.0",
                    "--omega-c",
                    "0.5",
                    "--omega=-2:2:5",
                ]
            )
            == 0
        )
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "omega,re,im,abs2"
        assert len(lines) == 6
        for line in lines[1:]:
            assert float(line.split(",")[3]) == pytest.approx(1.0, abs=1e-12)

    def test_two_channel_g_flux_column(self, capsys):
        assert main(["oracle", "two-channel-g", "--kappa1", "1.0", "--kappa2", "0.3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "omega,g1_re,g1_im,g2_re,g2_im,abs2_sum"
        for line in lines[1:]:
            assert float(line.split(",")[5]) == pytest.approx(1.0, abs=1e-12)

    def test_memory_kernel_rejects_negative_time(self, capsys):
        assert main(["oracle", "memory-kernel", "--n", "2", "--t=-1:5:7"]) == 1

    def test_memory_kernel_values(self, capsys):
        assert main(["oracle", "memory-kernel", "--n", "2", "--kappa", "1.0", "--t", "0:4:5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        first = lines[1].split(",")
        assert float(first[1]) == pytest.approx(-2.0)

    def test_memory_kernel_long_chain(self, capsys):
        # the 1F1 power series read 3.648 here: at kappa t = 40 it cancels every digit
        assert main(["oracle", "memory-kernel", "--n", "40", "--t", "40:40:1"]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert float(row[1]) == pytest.approx(-0.0329161019122252, abs=1e-12)

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["two-level-g", "--kappa", "inf"], "kappa"),
            (["memory-g", "--omega-c", "nan"], "omega_c"),
            (["two-channel-g", "--kappa1", "inf"], "kappa1"),
            (["memory-kernel", "--kappa", "inf"], "kappa"),
            (["inverting-pulse", "--kappa", "inf"], "kappa"),
            (["feedback-g", "--kappa2", "inf"], "kappa2"),
        ],
        ids=["two-level-g", "memory-g", "two-channel-g", "memory-kernel", "inverting-pulse",
             "feedback-g"],
    )
    def test_non_finite_parameter_exits_1(self, capsys, argv, name):
        assert main(["oracle", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {name} must be finite, got {argv[-1]}\n"

    def test_inverting_pulse_csv(self, capsys):
        assert main(["oracle", "inverting-pulse", "--kappa", "2.0", "--log2-n", "8"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "t,ch,re,im"
        assert len(lines) == 1 + 2**8

    @pytest.mark.parametrize("log2_n", ["7", "23"])
    def test_inverting_pulse_log2_n_bounds(self, capsys, log2_n):
        assert main(["oracle", "inverting-pulse", "--log2-n", log2_n]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --log2-n must be in [8, 22], got {log2_n}\n"

    @pytest.mark.parametrize("kappa", ["0", "-1"])
    def test_inverting_pulse_rejects_nonpositive_kappa(self, capsys, kappa):
        assert main(["oracle", "inverting-pulse", "--kappa", kappa]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: kappa must be positive\n"

    def test_feedback_g_presets(self, capsys):
        assert main(["oracle", "feedback-g", "--scattering", "bs50"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "omega,re,im,abs2"

    @pytest.mark.parametrize(
        "argv, text",
        [
            (
                ["two-level-g", "--kappa", "1", "--omega=-0.5:0.5:3"],
                "omega,re,im,abs2\n"
                "-5.0000000000000000e-01,0.0000000000000000e+00,-1.0000000000000000e+00,"
                "1.0000000000000000e+00\n"
                "0.0000000000000000e+00,-1.0000000000000000e+00,0.0000000000000000e+00,"
                "1.0000000000000000e+00\n"
                "5.0000000000000000e-01,0.0000000000000000e+00,1.0000000000000000e+00,"
                "1.0000000000000000e+00\n",
            ),
            (
                ["two-channel-g", "--kappa1", "1", "--kappa2", "1", "--omega=0:0:1"],
                "omega,g1_re,g1_im,g2_re,g2_im,abs2_sum\n"
                "0.0000000000000000e+00,0.0000000000000000e+00,0.0000000000000000e+00,"
                "1.0000000000000000e+00,0.0000000000000000e+00,1.0000000000000000e+00\n",
            ),
            (
                ["memory-g", "--n", "2", "--omega=0:0:1"],
                "omega,re,im,abs2\n"
                "0.0000000000000000e+00,1.0000000000000000e+00,-0.0000000000000000e+00,"
                "1.0000000000000000e+00\n",
            ),
            (
                ["memory-kernel", "--n", "2", "--kappa", "1", "--t", "0:0:1"],
                "t,re,im\n0.0000000000000000e+00,-2.0000000000000000e+00,0.0000000000000000e+00\n",
            ),
            (
                ["feedback-g", "--omega=0:0:1"],
                "omega,re,im,abs2\n"
                "0.0000000000000000e+00,-1.0000000000000000e+00,0.0000000000000000e+00,"
                "1.0000000000000000e+00\n",
            ),
            (
                # the pulse is -1 at its midpoint-sampled edge t = 0 and zero after
                ["inverting-pulse", "--kappa", "4", "--log2-n", "8", "--dt", "0.25",
                 "--t-start", "0"],
                "t,ch,re,im\n0.0000000000000000e+00,0,-1.0000000000000000e+00,0.0000000000000000e+00\n"
                + "".join(
                    f"{0.25 * i:.16e},0,-0.0000000000000000e+00,0.0000000000000000e+00\n"
                    for i in range(1, 256)
                ),
            ),
        ],
        ids=["two-level-g", "two-channel-g", "memory-g", "memory-kernel", "inverting-pulse",
             "feedback-g"],
    )
    def test_table_text(self, capsys, argv, text):
        assert main(["oracle", *argv]) == 0
        assert capsys.readouterr().out == text

    @pytest.mark.parametrize(
        "which",
        ["two-level-g", "two-channel-g", "memory-g", "memory-kernel", "inverting-pulse",
         "feedback-g"],
    )
    def test_output_file_matches_stdout(self, tmp_path, capsys, which):
        assert main(["oracle", which]) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "table.csv"
        assert main(["oracle", which, "-o", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == printed.encode()

    def test_feedback_g_non_finite_scattering_exits_1(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        argv = ["oracle", "feedback-g", "--s", "nan", "0", "1", "0", "1", "0", "0", "0"]
        assert main([*argv, "--omega", "0:1:2", "-o", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: S entries must be finite\n"
        assert not out.exists()

    def test_feedback_g_explicit_matrix_singular(self, capsys):
        code = main(
            ["oracle", "feedback-g", "--s", "1", "0", "0", "0", "0", "0", "1", "0"]
        )
        assert code == 4


class TestUsageErrors:
    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_argument(self):
        assert main(["shape"]) == 1
