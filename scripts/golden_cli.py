"""Golden comparison of the ``photon-slh`` command line between two source trees.

    python3 scripts/golden_cli.py run ROOT OUT   # record ROOT's CLI output in OUT
    python3 scripts/golden_cli.py diff A B       # compare two recorded directories

``run`` writes a fixed set of model files into ``OUT/models`` (malformed ones
among them), and into
``OUT/pulses`` a pulse CSV whose energy overflows, and runs a fixed
list of commands, each as ``python -m photon_slh.cli`` with ``ROOT/src`` on
``PYTHONPATH`` and ``OUT`` as the working directory, so every path in the
output is relative.  It covers every subcommand: ``shape`` by fft, ode and
both at K = 1 and 2 and cascade 1 and 3, by ode and both on grids coarse
against the pole, ``csv:`` read-backs (of values down through the subnormals
to -0.0, and of an energy that overflows), explicit ``--dt``/``--t-start``
grids of ``shape`` and ``oracle inverting-pulse``,
``shape`` of a K = 3 model with a non-diagonal S and complex couplings at
cascade 2 by each method, and its ``sweep``,
``compose --series`` of two-level models at K = 1 and 2 and of two embedded
sites, a matched pulse on either side of the grid's band, oracle tables
whose values test the CSV writer's float text (exact halves, powers of ten,
extreme and subnormal magnitudes, -0.0), and the error exits, unread and
conflicting oracle flags, malformed pulse parameters and model files (a
boolean among the numbers of a field among them),
over-long ranges and an over-deep cascade among them.  Per command it keeps
``OUT/<name>/exit``, ``stdout``, ``stderr`` and the files the command wrote.
A traceback is kept as its last line, since its file paths and line numbers
name the tree, not the behaviour.

``diff`` prints one line per command, of this script's list and of every
command recorded in either tree.  A command recorded in only one tree
differs (``only in A``).  Exit codes, stderr, CSV headers, row counts, JSON
keys and every non-numeric value must match exactly; for each numeric CSV
column and JSON number it prints the maximum absolute difference.  It exits 1
when anything that must match exactly differs, else 0.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

SQRT_HALF = math.sqrt(0.5)
BS50 = [[[SQRT_HALF, 0.0], [0.0, SQRT_HALF]], [[0.0, SQRT_HALF], [SQRT_HALF, 0.0]]]
SIGMA_MINUS = [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]


def _model(s, theta, omega_c):
    """Two-level model document: L_k = theta_k sigma_minus, H0 = (omega_c / 2) sigma_z."""
    half = 0.5 * omega_c
    return {
        "levels": 2,
        "channels": len(theta),
        "S": s,
        "theta": [[complex(t).real, complex(t).imag] for t in theta],
        "L0": SIGMA_MINUS,
        "H0": [[[-half, 0.0], [0.0, 0.0]], [[0.0, 0.0], [half, 0.0]]],
    }


def _site(site, theta, omega_c):
    """Four-level model document: ``theta sigma_minus`` and ``(omega_c / 2) sigma_z``
    acting on one site of a pair (site 0 is the left Kronecker factor)."""

    def bit(i, s):
        return (i >> (1 - s)) & 1

    def embed(local):
        return [[[local[bit(i, site)][bit(j, site)] if bit(i, 1 - site) == bit(j, 1 - site)
                  else 0.0, 0.0] for j in range(4)] for i in range(4)]

    half = 0.5 * omega_c
    return {
        "levels": 4,
        "channels": 1,
        "S": [[[1.0, 0.0]]],
        "theta": [[theta, 0.0]],
        "L0": embed([[0.0, 1.0], [0.0, 0.0]]),
        "H0": embed([[-half, 0.0], [0.0, half]]),
    }


def _dft3():
    """The unitary 3-point DFT matrix, ``exp(2 pi i j k / 3) / sqrt(3)``, as pairs."""
    return [[[math.cos(2 * math.pi * j * k / 3) / math.sqrt(3),
              math.sin(2 * math.pi * j * k / 3) / math.sqrt(3)] for k in range(3)]
            for j in range(3)]


def _with_h0_entry(doc, value):
    """``doc`` with ``value`` in place of the real part of ``H0[0][0]``."""
    h0 = [[list(pair) for pair in row] for row in doc["H0"]]
    h0[0][0][0] = value
    return {**doc, "H0": h0}


MODELS = {
    "k1": _model([[[1.0, 0.0]]], [1.0], 0.8),
    "k2": _model(BS50, [1.0, 0.6], 0.3),
    "k2_swap": _model([[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]], [0.5, 0.9], -0.2),
    "site0": _site(0, 1.0, 0.8),
    "site1": _site(1, 0.7, 0.5),
    "high_q": _model([[[1.0, 0.0]]], [0.1], 100.0),  # kappa 0.01: Q = 2e4
    "q2000": _model([[[1.0, 0.0]]], [0.1], 10.0),  # Q = 2 omega_c / kappa
    "q3000": _model([[[1.0, 0.0]]], [0.1], 15.0),
    "unstable": _model([[[1.0, 0.0]]], [0.0], 0.8),  # no coupling: stability fails
    # a pair of S as an object, as three numbers and as two booleans
    "pair_object": _model([[{"re": 1.0, "im": 0.0}]], [1.0], 0.8),
    "pair_three": _model([[[1.0, 0.0, 7.0]]], [1.0], 0.8),
    "pair_booleans": _model([[[True, False]]], [1.0], 0.8),
    # three channels: a non-diagonal unitary S and complex couplings
    "k3": _model(_dft3(), [0.6, 0.5 + 0.3j, 0.4j], 0.5),
    # a boolean among the numbers of H0
    "bool_in_numbers": _with_h0_entry(_model([[[1.0, 0.0]]], [1.0], 0.8), False),
}

#: Model files written as text: JSON nested past the parser's recursion limit.
RAW_MODELS = {"deep": "[" * 100000 + "]" * 100000}


def _commands():
    cmds = [("validate_" + m, ["validate", f"models/{m}.json"]) for m in ("k1", "k2", "unstable")]
    for m in ("k1", "k2"):
        for cascade in (1, 3):
            for method in ("fft", "ode", "both"):
                name = f"shape_{m}_c{cascade}_{method}"
                cmds.append((name, ["shape", f"models/{m}.json", "--cascade", str(cascade),
                                    "--method", method, "-o", f"{name}.csv"]))
    for m, pulse, extra in (
        ("k1", "rising_exp", []),
        ("k1", "decaying_exp", []),
        ("k2", "square", ["--log2-n", "12"]),
        ("k2", "gaussian", ["--channel", "1"]),
        ("k1", "gaussian:t0=-3,sigma=0.5", ["--dt", "0.01", "--log2-n", "12"]),
        ("k1", "csv:shape_k1_c1_fft/shape_k1_c1_fft.csv", []),
        ("k2", "csv:shape_k2_c1_fft/shape_k2_c1_fft.csv", []),
    ):
        name = f"shape_{m}_{pulse.split(':')[0]}_{len(cmds)}"
        cmds.append((name, ["shape", f"models/{m}.json", "--pulse", pulse, *extra,
                            "--method", "both", "-o", f"{name}.csv"]))
    cmds += [
        ("sweep_k1", ["sweep", "models/k1.json", "--omega=-10:10:401"]),
        ("sweep_k2", ["sweep", "models/k2.json", "--omega=-10:10:201", "-o", "sweep_k2.csv"]),
        ("compose_series", ["compose", "--series", "models/k1.json", "models/k1.json"]),
        ("compose_feedback", ["compose", "--feedback", "models/k2.json", "-o", "fb.json"]),
        ("compose_series_k2", ["compose", "--series", "models/k2.json", "models/k2_swap.json"]),
        ("compose_series_sites", ["compose", "--series", "models/site0.json", "models/site1.json",
                                  "-o", "chain.json"]),
        # steps of |a| dt = 0.94 and 2.93, which the exact step takes as they come
        ("shape_k1_coarse_ode", ["shape", "models/k1.json", "--dt", "1", "--method", "ode",
                                 "-o", "coarse_ode.csv"]),
        ("shape_q2000_both", ["shape", "models/q2000.json", "--method", "both",
                              "-o", "q2000_both.csv"]),
        # exp once overflowed on the zero side of these pulses' jump
        ("shape_k1_steep_rising", ["shape", "models/k1.json", "--pulse", "rising_exp:kappa=60",
                                   "-o", "steep_rising.csv"]),
        ("shape_k1_steep_decaying", ["shape", "models/k1.json", "--pulse",
                                     "decaying_exp:kappa=60,t_on=5", "-o", "steep_decaying.csv"]),
        ("oracle_two_level", ["oracle", "two-level-g", "--kappa", "1.3", "--omega-c", "0.4"]),
        ("oracle_two_channel", ["oracle", "two-channel-g", "--kappa2", "0.36"]),
        ("oracle_memory_g", ["oracle", "memory-g", "--n", "3"]),
        ("oracle_memory_kernel", ["oracle", "memory-kernel", "--n", "5"]),
        ("oracle_inverting", ["oracle", "inverting-pulse", "--log2-n", "10"]),
        ("oracle_feedback_bs50", ["oracle", "feedback-g", "--scattering", "bs50"]),
        # error exits
        ("err_missing_model", ["validate", "models/none.json"]),
        ("err_sweep_unstable", ["sweep", "models/unstable.json", "--omega", "0:1:2"]),
        ("err_short_grid", ["shape", "models/k1.json", "--dt", "0.001", "--log2-n", "8",
                            "-o", "err_short_grid.csv"]),
        ("err_cascade_0", ["shape", "models/k1.json", "--cascade", "0", "-o", "err_c0.csv"]),
        ("err_cascade_over", ["shape", "models/k1.json", "--cascade", "1025",
                              "-o", "err_c1025.csv"]),
        ("err_pulse_nan", ["shape", "models/k1.json", "--pulse", "gaussian:t0=nan",
                           "-o", "err_nan.csv"]),
        ("err_feedback_singular", ["oracle", "feedback-g", "--s", *"1 0 0 0 0 0 1 0".split()]),
        ("err_feedback_non_unitary", ["oracle", "feedback-g", "--s", *"0 0 2 0 2 0 0 0".split(),
                                      "--omega", "0:1:2"]),
        ("err_unresolved_narrow", ["shape", "models/k1.json", "--pulse", "gaussian:sigma=1e-6",
                                   "-o", "err_narrow.csv"]),
        ("err_unresolved_far", ["shape", "models/k1.json", "--pulse", "gaussian:t0=1000",
                                "-o", "err_far.csv"]),
        ("err_unresolved_square", ["shape", "models/k1.json", "--pulse", "square:t0=0,t1=1e-320",
                                   "-o", "err_square.csv"]),
        ("err_unresolved_decaying", ["shape", "models/k1.json", "--pulse",
                                     "decaying_exp:kappa=1e300", "-o", "err_decaying.csv"]),
        ("err_chain_validate", ["validate", "compose_series_sites/chain.json"]),
        ("err_chain_tol_inf", ["shape", "compose_series_sites/chain.json", "--tol", "inf",
                               "-o", "err_chain.csv"]),
        ("err_tol_nan", ["validate", "models/k1.json", "--tol", "nan"]),
        ("err_tol_negative", ["sweep", "models/k1.json", "--omega", "0:1:2", "--tol=-1"]),
        # explicit grids: every given flag is taken as it is
        ("shape_k1_explicit_grid", ["shape", "models/k1.json", "--dt", "0.01", "--t-start", "-20",
                                    "--log2-n", "12", "--method", "both", "-o", "grid.csv"]),
        ("oracle_inverting_grid", ["oracle", "inverting-pulse", "--kappa", "2", "--log2-n", "8",
                                   "--dt", "0.25", "--t-start", "-50"]),
        ("err_csv_channels_k2", ["shape", "models/k2.json", "--pulse",
                                 "csv:shape_k1_c1_fft/shape_k1_c1_fft.csv", "-o", "err_ch2.csv"]),
        ("err_csv_channels_k1", ["shape", "models/k1.json", "--pulse",
                                 "csv:shape_k2_c1_fft/shape_k2_c1_fft.csv", "--method", "ode",
                                 "-o", "err_ch1.csv"]),
        ("err_dt_negative", ["shape", "models/k1.json", "--dt=-1", "-o", "err_dt.csv"]),
        ("err_dt_zero", ["shape", "models/k1.json", "--dt", "0", "-o", "err_dt0.csv"]),
        ("err_inverting_dt_negative", ["oracle", "inverting-pulse", "--dt=-1"]),
        ("err_far_gaussian", ["shape", "models/k1.json", "--pulse", "gaussian:t0=1e200",
                              "-o", "err_far_gaussian.csv"]),
        ("err_rising_phase", ["shape", "models/k1.json", "--pulse", "rising_exp:omega_c=1e308",
                              "-o", "err_rising_phase.csv"]),
        # a csv: pulse brings its own grid, and --channel must name a model channel
        ("err_csv_grid_flags", ["shape", "models/k1.json", "--pulse",
                                "csv:shape_k1_c1_fft/shape_k1_c1_fft.csv", "--dt", "5",
                                "--t-start", "7", "--log2-n", "30", "--channel", "3",
                                "-o", "err_csv_grid.csv"]),
        ("shape_k2_csv_channel", ["shape", "models/k2.json", "--pulse",
                                  "csv:shape_k2_c1_fft/shape_k2_c1_fft.csv", "--channel", "1",
                                  "-o", "csv_channel.csv"]),
        # the chain's residual is 0.377: --tol above the ceiling is refused
        ("err_chain_tol_1", ["shape", "compose_series_sites/chain.json", "--tol", "1",
                             "-o", "err_chain_tol_1.csv"]),
        # each oracle takes only the flags it reads, and one scattering source
        ("err_oracle_unread_flags", ["oracle", "two-level-g", "--n", "5", "--dt", "3",
                                     "--scattering", "bs50", "--t", "0:1:2"]),
        ("err_oracle_s_and_scattering", ["oracle", "feedback-g", "--scattering", "bs50",
                                         "--s", *"0 0 1 0 1 0 0 0".split(), "--omega", "0:1:2"]),
        # the matched pulse's carrier against the default grid's band: past pi/dt at
        # Q = 3000, inside it at Q = 2000
        ("err_band_q3000", ["shape", "models/q3000.json", "--pulse", "rising_exp",
                            "-o", "err_band_q3000.csv"]),
        ("shape_band_q2000", ["shape", "models/q2000.json", "--pulse", "rising_exp",
                              "-o", "band_q2000.csv"]),
        # Q = 2e4 shapes and sweeps across its pole at w = -100
        ("shape_high_q", ["shape", "models/high_q.json", "-o", "high_q.csv"]),
        ("sweep_high_q", ["sweep", "models/high_q.json", "--omega=-100.1:-99.9:41"]),
        # the kernel is causal; the model is loaded before --tol is checked
        ("err_kernel_negative_t", ["oracle", "memory-kernel", "--t=-1:0:3"]),
        ("err_missing_model_tol_nan", ["shape", "models/missing.json", "--tol", "nan",
                                       "-o", "x.csv"]),
        # table text at the edges of the float formatting: exact halves at 17 digits
        # (2^50 + j/4), a step of 0.1 through the powers of ten from 1e-1 to 1e2 with
        # |g|^2 a few ulp from 1, magnitudes past 1e250 and a subnormal, and a kernel
        # decaying through the subnormals to -0.0
        ("oracle_ties", ["oracle", "two-level-g", "--omega=1125899906842624:1125899906842626:9"]),
        ("oracle_decades", ["oracle", "two-level-g", "--omega=-100:100:2001"]),
        ("oracle_extremes", ["oracle", "two-level-g", "--omega=-1e300:1e-320:5"]),
        ("oracle_kernel_subnormal", ["oracle", "memory-kernel", "--n", "1", "--t=1400:1500:11"]),
        # a pulse parameter given twice or not a number, and ranges one point past the
        # 2^22 cap (each also fails later, so that no tree writes 2^22 rows)
        ("err_pulse_repeated", ["shape", "models/k1.json", "--pulse", "gaussian:sigma=1,sigma=2",
                                "-o", "err_repeated.csv"]),
        ("err_pulse_not_a_number", ["shape", "models/k1.json", "--pulse", "gaussian:sigma=abc",
                                    "-o", "err_not_a_number.csv"]),
        ("err_range_over_cap_t", ["oracle", "memory-kernel", "--t=-1:0:4194305"]),
        ("err_range_over_cap_omega", ["oracle", "two-level-g", "--kappa", "0",
                                      "--omega=0:1:4194305"]),
        # csv: read-backs: a table whose values run down through the subnormals to
        # -0.0 with 3-digit exponents, a K = 2 output of --method both, and finite
        # samples whose energy overflows
        ("oracle_far_tails", ["oracle", "inverting-pulse", "--kappa", "1", "--omega-c", "0.8",
                              "--log2-n", "11", "--dt", "1", "--t-start=-1500",
                              "-o", "far_tails.csv"]),
        ("shape_k1_csv_far_tails", ["shape", "models/k1.json", "--pulse",
                                    "csv:oracle_far_tails/far_tails.csv", "--method", "both",
                                    "-o", "csv_far_tails.csv"]),
        ("shape_k2_csv_both", ["shape", "models/k2.json", "--pulse",
                               "csv:shape_k2_c3_both/shape_k2_c3_both.csv", "--method", "both",
                               "-o", "csv_k2_both.csv"]),
        ("err_csv_energy_overflow", ["shape", "models/k1.json", "--pulse",
                                     "csv:pulses/overflow.csv", "-o", "err_overflow.csv"]),
        # malformed model files
        ("err_pair_object", ["validate", "models/pair_object.json"]),
        ("err_pair_three_numbers", ["validate", "models/pair_three.json"]),
        ("err_pair_booleans", ["validate", "models/pair_booleans.json"]),
        ("err_deep_nesting", ["validate", "models/deep.json"]),
        ("err_bool_in_numbers", ["validate", "models/bool_in_numbers.json"]),
    ]
    for method in ("fft", "ode", "both"):
        cmds.append((f"shape_k3_c2_{method}", ["shape", "models/k3.json", "--cascade", "2",
                                               "--method", method, "-o", f"k3_c2_{method}.csv"]))
    cmds.append(("sweep_k3", ["sweep", "models/k3.json", "--omega=-5:5:101"]))
    return cmds


def _overflow_pulse() -> str:
    """A K = 1 pulse CSV: the gaussian t0 = -8, sigma = 0.8 on 2^12 points from
    t = -24 with dt = 48 / 2^12, at 1e200 times its samples, so that every value
    is finite and its energy is not."""
    dt = 48.0 / 2**12
    rows = []
    for i in range(2**12):
        t = -24.0 + dt * i
        x = 1e200 * (2.0 * math.pi * 0.64) ** -0.25 * math.exp(-((t + 8.0) ** 2) / 2.56)
        rows.append("%.16e,0,%.16e,%.16e\n" % (t, x, 0.0))
    return "t,ch,re,im\n" + "".join(rows)


def _stderr(text: str) -> str:
    return text.strip().splitlines()[-1] + "\n" if "Traceback" in text else text


def run(root: str, out: str) -> None:
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(os.path.join(out, "models"))
    for name, doc in MODELS.items():
        with open(os.path.join(out, "models", f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    for name, text in RAW_MODELS.items():
        with open(os.path.join(out, "models", f"{name}.json"), "w", encoding="utf-8") as fh:
            fh.write(text)
    os.makedirs(os.path.join(out, "pulses"))
    with open(os.path.join(out, "pulses", "overflow.csv"), "w", encoding="utf-8") as fh:
        fh.write(_overflow_pulse())
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(root), "src"))
    for name, argv in _commands():
        before = set(os.listdir(out))
        proc = subprocess.run([sys.executable, "-m", "photon_slh.cli", *argv], cwd=out,
                              env=env, capture_output=True, text=True, timeout=300)
        rec = os.path.join(out, name)
        os.makedirs(rec)
        for new in sorted(set(os.listdir(out)) - before - {name}):
            shutil.move(os.path.join(out, new), os.path.join(rec, new))
        for part, text in (("exit", f"{proc.returncode}\n"), ("stdout", proc.stdout),
                           ("stderr", _stderr(proc.stderr))):
            with open(os.path.join(rec, part), "w", encoding="utf-8") as fh:
                fh.write(text)
        print(f"{proc.returncode}  {name}")


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def _compare_csv(a: str, b: str, where: str, diffs: dict, faults: list) -> None:
    ra, rb = a.splitlines(), b.splitlines()
    if ra[:1] != rb[:1] or len(ra) != len(rb):
        faults.append(f"{where}: header or row count differs ({len(ra)} vs {len(rb)} lines)")
        return
    names = ra[0].split(",")
    for la, lb in zip(ra[1:], rb[1:]):
        fa, fb = la.split(","), lb.split(",")
        if len(fa) != len(fb):
            faults.append(f"{where}: row '{la}' vs '{lb}'")
            return
        for col, x, y in zip(names, fa, fb):
            nx, ny = _number(x), _number(y)
            if nx is None or ny is None:
                if x != y:
                    faults.append(f"{where}: column {col}: '{x}' vs '{y}'")
                    return
            else:
                key = f"{where}:{col}"
                diffs[key] = max(diffs.get(key, 0.0), abs(nx - ny))


def _compare_json(a, b, where: str, diffs: dict, faults: list) -> None:
    if isinstance(a, dict) and isinstance(b, dict):
        if sorted(a) != sorted(b):
            faults.append(f"{where}: keys {sorted(a)} vs {sorted(b)}")
            return
        for key in a:
            _compare_json(a[key], b[key], f"{where}.{key}", diffs, faults)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            _compare_json(x, y, f"{where}[{i}]", diffs, faults)
    elif (isinstance(a, (int, float)) and isinstance(b, (int, float))
          and not isinstance(a, bool) and not isinstance(b, bool)):
        diffs[where] = max(diffs.get(where, 0.0), abs(a - b))
    elif a != b:
        faults.append(f"{where}: {a!r} vs {b!r}")


def _compare_text(a: str, b: str, where: str, diffs: dict, faults: list) -> None:
    if a == b:
        return
    try:
        _compare_json(json.loads(a), json.loads(b), where, diffs, faults)
        return
    except ValueError:
        pass
    if "," in a.partition("\n")[0]:
        _compare_csv(a, b, where, diffs, faults)
    else:
        faults.append(f"{where}: text differs")


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _recorded(root: str) -> set:
    """The commands recorded under ``root``: its directories that hold an ``exit`` file."""
    return {name for name in os.listdir(root) if os.path.isfile(os.path.join(root, name, "exit"))}


def _compare_command(pa: str, pb: str, diffs: dict, faults: list) -> None:
    files_a, files_b = sorted(os.listdir(pa)), sorted(os.listdir(pb))
    if files_a != files_b:
        faults.append(f"files {files_a} vs {files_b}")
    for part in ("exit", "stderr"):
        if _read(os.path.join(pa, part)) != _read(os.path.join(pb, part)):
            faults.append(f"{part}: {_read(os.path.join(pa, part))!r} vs "
                          f"{_read(os.path.join(pb, part))!r}")
    for f in sorted(set(files_a) & set(files_b) - {"exit", "stderr"}):
        _compare_text(_read(os.path.join(pa, f)), _read(os.path.join(pb, f)), f, diffs, faults)


def diff(dir_a: str, dir_b: str) -> int:
    in_a, in_b = _recorded(dir_a), _recorded(dir_b)
    names = [name for name, _ in _commands()]
    names += sorted((in_a | in_b) - set(names))
    failed = 0
    overall = 0.0
    for name in names:
        faults, diffs = [], {}
        if name in in_a and name in in_b:
            _compare_command(os.path.join(dir_a, name), os.path.join(dir_b, name), diffs, faults)
        else:
            faults.append("only in A" if name in in_a else "only in B" if name in in_b
                          else "in neither A nor B")
        worst = max(diffs.values(), default=0.0)
        overall = max(overall, worst)
        if faults:
            failed += 1
            print(f"DIFFER     {name}")
            for fault in faults:
                print(f"    {fault}")
        elif worst == 0.0:
            print(f"identical  {name}")
        else:
            print(f"numeric    {name}: max |diff| {worst:.3g}")
            for key, value in sorted(diffs.items()):
                if value > 0.0:
                    print(f"    {key}: {value:.3g}")
    print(f"{len(names)} commands, {failed} with exact differences, "
          f"largest numeric difference {overall:.3g}")
    return 1 if failed else 0


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) == 3 and args[0] == "run":
        run(args[1], args[2])
        return 0
    if len(args) == 3 and args[0] == "diff":
        return diff(args[1], args[2])
    print("usage:\n" + "\n".join(__doc__.splitlines()[2:4]), file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
