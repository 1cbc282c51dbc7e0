"""The command line's exit-code contract over random model documents.

In the first test each draw is a two-level model document that ``validate``
accepts: K = 1-3 channels, a Haar ``S``, ``theta`` with random phases and
shares of ``kappa``, and a pole quality ``Q = 2 omega_c / kappa`` of either
sign with ``|Q|`` over six decades.  It runs ``validate``, ``shape`` and
``sweep`` through ``cli.main`` in-process with captured streams.  No
exception may escape ``main``; ``validate`` exits 0; ``shape`` exits 0, 3
(grid too short), or 1 with a message that starts ``error:`` (a named
refusal, not a crash); ``sweep`` across the pole exits 0; and a shaped pulse
never gains norm.

In the second test each draw is a valid document with one node replaced by
junk.  ``validate``, ``shape``, ``sweep`` and ``compose --series`` exit 0, 1
or 2, never by an exception, and exit 1 names the file.
"""

import contextlib
import io
import json
import math
import os
import tempfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from photon_slh import SLHModel, model_to_dict, save_model, sigma_minus, sigma_z
from photon_slh.cli import main
from photon_slh.pulses import PULSE_KINDS
from conftest import haar_unitary


def two_level(s, theta, omega_c):
    """A two-level model with ``L = theta sigma_minus`` and ``H0 = (omega_c / 2) sigma_z``,
    and its pole ``a = -kappa/2 - i omega_c``, ``kappa = |theta|^2``."""
    m = SLHModel(S=s, theta=theta, L0=sigma_minus(), H0=(omega_c / 2.0) * sigma_z())
    return m, complex(-0.5 * np.sum(np.abs(m.theta) ** 2), -omega_c)


@st.composite
def two_level_documents(draw):
    """``(model, pole, channel)``: a random two-level model, as :func:`two_level`
    returns it, and an input channel."""
    k = draw(st.integers(1, 3))
    kappa = 10.0 ** draw(st.floats(-3.0, 2.0))
    quality = 10.0 ** draw(st.floats(-1.0, 5.0)) * draw(st.sampled_from((1.0, -1.0)))
    shares = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
    phases = np.array(draw(st.lists(st.floats(0.0, 2.0 * math.pi), min_size=k, max_size=k)))
    theta = np.sqrt(kappa * shares / shares.sum()) * np.exp(1j * phases)
    s = haar_unitary(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), k)
    return *two_level(s, theta, 0.5 * quality * kappa), draw(st.integers(0, k - 1))


def run(argv):
    """``(exit code, stdout, stderr)`` of an in-process ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


K1 = two_level([[1.0]], [1.0], 0.8)  # kappa = 1, Q = 1.6
HIGH_Q = two_level([[1.0]], [0.1], 100.0)  # kappa = 0.01, Q = 2e4


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    doc=two_level_documents(),
    pulse=st.sampled_from(sorted(PULSE_KINDS)),
    cascade=st.integers(1, 20),
    method=st.sampled_from(("fft", "ode", "both")),
    log2_n=st.integers(8, 13),  # 13 stands for the default 2^14 samples
    dt=st.none(),  # the default step; the examples give one
)
# Derandomized draws crowd at the simplest values, so each branch below has an example.
# Q = 1.7e4 and its matched pulse, whose carrier the default grid's band refuses (exit 1)
@example(doc=(*two_level([[1.0]], [math.sqrt(1.29)], 1.1e4), 0), pulse="rising_exp",
         cascade=1, method="fft", log2_n=13, dt=None)
# an explicit grid 0.256 long, which cannot hold the pole's kernel (exit 3)
@example(doc=(*K1, 0), pulse="gaussian", cascade=1, method="fft", log2_n=8, dt=0.001)
# the deepest cascade, fed its stage's matched pulse
@example(doc=(*K1, 0), pulse="rising_exp", cascade=20, method="both", log2_n=13, dt=None)
# three channels, the pulse on the last
@example(doc=(*two_level(haar_unitary(np.random.default_rng(3), 3), [0.6, 0.5j, -0.4], 0.3), 2),
         pulse="square", cascade=2, method="ode", log2_n=13, dt=None)
# |Q| >= 1e4 by each method
@example(doc=(*HIGH_Q, 0), pulse="gaussian", cascade=1, method="fft", log2_n=13, dt=None)
@example(doc=(*HIGH_Q, 0), pulse="gaussian", cascade=1, method="ode", log2_n=13, dt=None)
@example(doc=(*HIGH_Q, 0), pulse="gaussian", cascade=3, method="both", log2_n=13, dt=None)
def test_validated_models_shape_and_sweep(doc, pulse, cascade, method, log2_n, dt):
    m, pole, channel = doc
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        save_model(m, path)
        code, _, err = run(["validate", path])
        assert code == 0, err

        out = os.path.join(tmp, "out.csv")
        argv = ["shape", path, "--pulse", pulse, "--cascade", str(cascade), "--method", method,
                "--channel", str(channel), "-o", out]
        if log2_n < 13:
            argv += ["--log2-n", str(log2_n)]
        if dt is not None:
            argv += ["--dt", str(dt)]
        code, _, err = run(argv)
        assert code in (0, 1, 3), err
        if code == 1:
            assert err.startswith("error:"), err
        if code == 0:
            with open(out + ".json", encoding="utf-8") as fh:
                sidecar = json.load(fh)
            assert sidecar["output_norm"] <= sidecar["input_norm"] * (1.0 + 1e-12)

        lo, hi = pole.imag + 5.0 * pole.real, pole.imag - 5.0 * pole.real
        code, table, err = run(["sweep", path, f"--omega={lo!r}:{hi!r}:41"])
        assert code == 0, err
        assert len(table.splitlines()) == 1 + 41 * m.channels**2


#: What a malformed document holds in place of one node.
JUNK = (None, True, False, "1.0", {}, [], [1.0, 0.0, 7.0], 10**30, math.nan)


def nodes(node, path=()):
    """The path of ``node`` and of every list entry and dict value inside it."""
    yield path
    if isinstance(node, (list, dict)):
        for key in node if isinstance(node, dict) else range(len(node)):
            yield from nodes(node[key], (*path, key))


@st.composite
def malformed_documents(draw):
    """The JSON text of a valid K = 1 or 2 two-level model document with one node
    (a whole field, a row, a pair or a number) replaced by an entry of ``JUNK``."""
    k = draw(st.integers(1, 2))
    s = haar_unitary(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), k)
    doc = model_to_dict(two_level(s, np.full(k, math.sqrt(1.0 / k)), 0.8)[0])
    *route, last = draw(st.sampled_from(list(nodes(doc))[1:]))
    parent = doc
    for key in route:
        parent = parent[key]
    parent[last] = draw(st.sampled_from(JUNK))
    return json.dumps(doc)


def k1_document(**fields):
    return json.dumps({**model_to_dict(K1[0]), **fields})


def k1_h0_with(value):
    """The K1 document with ``value`` in place of the real part of ``H0[0][0]``."""
    h0 = model_to_dict(K1[0])["H0"]
    h0[0][0][0] = value
    return k1_document(H0=h0)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(text=malformed_documents())
# a pair as an object, as three numbers and as two booleans
@example(text=k1_document(S=[[{"re": 1.0, "im": 0.0}]]))
@example(text=k1_document(S=[[[1.0, 0.0, 7.0]]]))
@example(text=k1_document(S=[[[True, False]]]))
# a boolean among numbers, which numpy reads as 0
@example(text=k1_h0_with(False))
# json.load recurses once per nesting level
@example(text="[" * 100000 + "]" * 100000)
def test_malformed_documents_exit_with_a_message(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out = os.path.join(tmp, "out.csv")
        for argv in (
            ["validate", path],
            ["shape", path, "--log2-n", "8", "-o", out],
            ["sweep", path, "--omega=-10:10:21"],
            ["compose", "--series", path, path],
        ):
            code, _, err = run(argv)
            assert code == 1, err
            assert err.startswith(f"error: {path}: "), err
