"""Command-line interface: outputs, exit codes, determinism."""

import argparse
import contextlib
import hashlib
import io
import json
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from e6painleve import cli
from e6painleve.birational import ParamVector, SurfacePoint, eval_step, generator_step, sample_state
from e6painleve.cli import build_parser, main
from e6painleve.models import OrbitTrace, phi_orbit
from e6painleve.weylgroup import SYMBOLS, PicMap


GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_period_command(capsys):
    code, out, _ = run_cli(capsys, "period", "--b", "1,2,3,4,5,6,7,8")
    assert code == 0
    data = json.loads(out)
    assert data["a"] == ["1", "1", "1", "8", "1", "6", "1"]
    assert data["chi_delta"] == "36"


def test_decompose_named_elements(capsys):
    for element in ("phi", "psi"):
        code, out, _ = run_cli(capsys, "decompose", "--element", element)
        assert code == 0
        data = json.loads(out)
        assert data["verified"] is True
        assert len(data["word"]) == 17
        assert data["word"][0] == "r"
    code, out, _ = run_cli(capsys, "decompose", "--element", "conjugator")
    data = json.loads(out)
    assert code == 0 and sorted(data["word"]) == ["w3", "w5"]


def test_decompose_reports_verified_without_another_word_product(capsys, monkeypatch):
    # decompose raises NotInGroup unless its word reproduces the map, so the
    # command multiplies no word of its own for the "verified" field.
    calls = []
    monkeypatch.setattr(cli, "word_to_picmap", lambda word: calls.append(word))
    code, out, _ = run_cli(capsys, "decompose", "--element", "phi")
    assert code == 0 and json.loads(out)["verified"] is True
    assert calls == []


def test_decompose_identity_file(capsys, tmp_path):
    path = tmp_path / "identity.json"
    path.write_text(json.dumps(PicMap.identity().to_json()))
    code, out, _ = run_cli(capsys, "decompose", "--picmap", str(path))
    assert code == 0
    assert json.loads(out)["word"] == []


def test_decompose_trace(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--element", "phi", "--trace")
    assert code == 0
    data = json.loads(out)
    assert len(data["trace"]) == 16
    assert all(len(step["images"]) == 7 for step in data["trace"])


#: Reference standard output of `decompose --element phi --trace` and of
#: `period --b=1,2,3,4,5,6,7,8`.  A change to the lattice, group or period
#: kernels must reproduce it byte for byte.
GOLDEN_DECOMPOSE_PHI_TRACE = (
    '{"word": ["r", "w5", "w6", "w2", "w5", "w3", "w4", "w2", "w3", "w1", "w2", "w5", "w6", "w0", "w1", "w2", "w5"], "length": 17, "verified": true, "trace": ['
    '{"index": 5, "images": [[1, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0], [-1, -2, -2, -2, -1, -1, -1], [1, 2, 3, 3, 1, 2, 1], [0, 0, 0, 0, 1, 0, 0], [1, 2, 3, 2, 1, 1, 1], [-1, -2, -3, -2, -1, -1, 0]]}, '
    '{"index": 2, "images": [[1, 0, 0, 0, 0, 0, 0], [-1, -1, -2, -2, -1, -1, -1], [1, 2, 2, 2, 1, 1, 1], [0, 0, 1, 1, 0, 1, 0], [0, 0, 0, 0, 1, 0, 0], [0, 0, 1, 0, 0, 0, 0], [-1, -2, -3, -2, -1, -1, 0]]}, '
    '{"index": 1, "images": [[0, -1, -2, -2, -1, -1, -1], [1, 1, 2, 2, 1, 1, 1], [0, 1, 0, 0, 0, 0, 0], [0, 0, 1, 1, 0, 1, 0], [0, 0, 0, 0, 1, 0, 0], [0, 0, 1, 0, 0, 0, 0], [-1, -2, -3, -2, -1, -1, 0]]}, '
    '{"index": 0, "images": [[0, 1, 2, 2, 1, 1, 1], [1, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0], [0, 0, 1, 1, 0, 1, 0], [0, 0, 0, 0, 1, 0, 0], [0, 0, 1, 0, 0, 0, 0], [-1, -2, -3, -2, -1, -1, 0]]}, '
    '{"index": 6, "images": [[0, 1, 2, 2, 1, 1, 1], [1, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0], [0, 0, 1, 1, 0, 1, 0], [0, 0, 0, 0, 1, 0, 0], [-1, -2, -2, -2, -1, -1, 0], [1, 2, 3, 2, 1, 1, 0]]}, '
    '{"index": 5, "images": [[0, 1, 2, 2, 1, 1, 1], [1, 0, 0, 0, 0, 0, 0], [-1, -1, -2, -2, -1, -1, 0], [0, 0, 1, 1, 0, 1, 0], [0, 0, 0, 0, 1, 0, 0], [1, 2, 2, 2, 1, 1, 0], [0, 0, 1, 0, 0, 0, 0]]}, '
    '{"index": 2, "images": [[0, 1, 2, 2, 1, 1, 1], [0, -1, -2, -2, -1, -1, 0], [1, 1, 2, 2, 1, 1, 0], [-1, -1, -1, -1, -1, 0, 0], [0, 0, 0, 0, 1, 0, 0], [0, 1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0, 0]]}, '
    '{"index": 1, "images": [[0, 0, 0, 0, 0, 0, 1], [0, 1, 2, 2, 1, 1, 0], [1, 0, 0, 0, 0, 0, 0], [-1, -1, -1, -1, -1, 0, 0], [0, 0, 0, 0, 1, 0, 0], [0, 1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0, 0]]}, '
    '{"index": 3, "images": [[0, 0, 0, 0, 0, 0, 1], [0, 1, 2, 2, 1, 1, 0], [0, -1, -1, -1, -1, 0, 0], [1, 1, 1, 1, 1, 0, 0], [-1, -1, -1, -1, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0, 0]]}, '
    '{"index": 2, "images": [[0, 0, 0, 0, 0, 0, 1], [0, 0, 1, 1, 0, 1, 0], [0, 1, 1, 1, 1, 0, 0], [1, 0, 0, 0, 0, 0, 0], [-1, -1, -1, -1, 0, 0, 0], [0, 0, -1, -1, -1, 0, 0], [0, 0, 1, 0, 0, 0, 0]]}, '
    '{"index": 4, "images": [[0, 0, 0, 0, 0, 0, 1], [0, 0, 1, 1, 0, 1, 0], [0, 1, 1, 1, 1, 0, 0], [0, -1, -1, -1, 0, 0, 0], [1, 1, 1, 1, 0, 0, 0], [0, 0, -1, -1, -1, 0, 0], [0, 0, 1, 0, 0, 0, 0]]}, '
    '{"index": 3, "images": [[0, 0, 0, 0, 0, 0, 1], [0, 0, 1, 1, 0, 1, 0], [0, 0, 0, 0, 1, 0, 0], [0, 1, 1, 1, 0, 0, 0], [1, 0, 0, 0, 0, 0, 0], [0, 0, -1, -1, -1, 0, 0], [0, 0, 1, 0, 0, 0, 0]]}, '
    '{"index": 5, "images": [[0, 0, 0, 0, 0, 0, 1], [0, 0, 1, 1, 0, 1, 0], [0, 0, -1, -1, 0, 0, 0], [0, 1, 1, 1, 0, 0, 0], [1, 0, 0, 0, 0, 0, 0], [0, 0, 1, 1, 1, 0, 0], [0, 0, 0, -1, -1, 0, 0]]}, '
    '{"index": 2, "images": [[0, 0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 0, 1, 0], [0, 0, 1, 1, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0, 0], [0, 0, 0, -1, -1, 0, 0]]}, '
    '{"index": 6, "images": [[0, 0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 0, 1, 0], [0, 0, 1, 1, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0, 0], [0, 0, 0, -1, 0, 0, 0], [0, 0, 0, 1, 1, 0, 0]]}, '
    '{"index": 5, "images": [[0, 0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 0, 1, 0], [0, 0, 1, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 1, 0, 0]]}]}'
    "\n"
)
GOLDEN_PERIOD = '{"a": ["1", "1", "1", "8", "1", "6", "1"], "chi_delta": "36"}\n'


def test_decompose_trace_and_period_output_is_unchanged(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--element", "phi", "--trace")
    assert code == 0
    assert out == GOLDEN_DECOMPOSE_PHI_TRACE
    code, out, _ = run_cli(capsys, "period", "--b=1,2,3,4,5,6,7,8")
    assert code == 0
    assert out == GOLDEN_PERIOD


def test_decompose_rejects_non_group_matrix(capsys, tmp_path):
    rows = [[1 if i == j else 0 for j in range(10)] for i in range(10)]
    rows[9][9] = -1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(rows))
    code, _, err = run_cli(capsys, "decompose", "--picmap", str(path))
    assert code == 2
    assert json.loads(err)["error"] == "domain"


def test_decompose_rejects_non_integer_entries(capsys, tmp_path):
    for bad in (1.6, True, 1.0, "1"):
        rows = PicMap.identity().to_json()
        rows[0][0] = bad
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(rows))
        code, out, err = run_cli(capsys, "decompose", "--picmap", str(path))
        assert code == 1, bad
        assert out == ""
        assert json.loads(err)["error"] == "input"


def test_decompose_requires_exactly_one_source(capsys):
    code, _, err = run_cli(capsys, "decompose")
    assert code == 1
    assert json.loads(err)["error"] == "input"


def test_act_involution_echoes_input(capsys):
    code, out, _ = run_cli(
        capsys, "act", "--word", "w3,w3", "--b", "1,2,3,4,5,6,7,8", "--point", "2,3"
    )
    assert code == 0
    data = json.loads(out)
    assert data["b"] == ["1", "2", "3", "4", "5", "6", "7", "8"]
    assert data["point"] == {"f": {"n": "2", "d": "1"}, "g": {"n": "3", "d": "1"}}


def test_act_indeterminate_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "act", "--word", "w3", "--b", "1,2,3,4,5,6,7,8", "--point", "1,-1"
    )
    assert code == 3
    payload = json.loads(err)
    assert payload["error"] == "indeterminate"
    assert payload["step_index"] == 0


def test_act_at_infinity(capsys):
    # On f = infinity, w3 maps g to g + b1 + b7.
    code, out, err = run_cli(
        capsys, "act", "--word", "w3", "--b", "1,2,3,4,5,6,7,8", "--point", "inf,3"
    )
    assert code == 0, err
    assert json.loads(out)["point"] == {"f": {"n": "1", "d": "0"}, "g": {"n": "11", "d": "1"}}


def test_act_rejects_malformed_input(capsys):
    code, _, err = run_cli(capsys, "act", "--word", "w3", "--b", "1,2", "--point", "2,3")
    assert code == 1
    assert json.loads(err)["error"] == "input"


def test_orbit_psi_json_lines(capsys):
    code, out, _ = run_cli(
        capsys,
        "orbit", "--map", "psi", "--steps", "3",
        "--theta", "1/2,1/3,1/5,1/7,2/3,3/5,-171/70",
        "--point", "17/5,23/9",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    for line in lines:
        state = json.loads(line)
        total = sum(Fraction(v) for v in state["theta"].values())
        assert total == 0  # Fuchs relation at every step


def test_orbit_phi_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "orbit", "--map", "phi", "--steps", "2",
        "--b", "1,2,3,4,5,6,7,8", "--point", "2,3", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "step,b1,b2,b3,b4,b5,b6,b7,b8,f,g"
    assert len(lines) == 4


def test_orbit_json_past_int_digit_limit(capsys):
    # Heights pass CPython's 4300-digit int-to-str limit by step 28.  The
    # command lifts the limit only while it writes, so parsing here lifts it too.
    limit = getattr(sys, "get_int_max_str_digits", None)
    old_limit = limit() if limit else None
    code, out, err = run_cli(
        capsys,
        "orbit", "--map", "phi", "--steps", "28",
        "--b=1,2,3,4,5,6,7,8", "--point=2,3", "--format", "json",
    )
    assert code == 0, err
    assert (limit() if limit else None) == old_limit
    lines = out.splitlines()
    assert len(lines) == 29
    final = phi_orbit(ParamVector.of(1, 2, 3, 4, 5, 6, 7, 8), SurfacePoint.affine(2, 3), 28).entries[-1]
    if old_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        state = json.loads(lines[-1])
        assert state["step"] == 28
        assert tuple(Fraction(x) for x in state["b"]) == final.params.b
        for key, coord in zip("fg", final.point):
            assert coord.is_finite and state[key]["d"] != "0"
            assert (int(state[key]["n"]), int(state[key]["d"])) == (coord.numerator, coord.denominator)
        assert max(len(state[key]["n"]) for key in "fg") > 4300
    finally:
        if old_limit is not None:
            sys.set_int_max_str_digits(old_limit)


BIG = "1e5000"  # 10**5000: 5,001 digits, past the 4300-digit limit


@pytest.mark.parametrize(
    "argv",
    [
        ("act", "--word", "w3", "--b", "1,2,3,4,5,6,7,8", "--point", f"{BIG},3"),
        ("act", "--word", "w3", "--b", "1,2,3,4,5,6,7,8", "--point", "1e-5000,3"),
        ("act", "--word", "w3", "--b", f"{BIG},2,3,4,5,6,7,8", "--point", f"{BIG},3"),
        ("period", "--b", f"{BIG},2,3,4,5,6,7,8"),
    ],
)
def test_big_exact_output_is_written(capsys, argv):
    # The exact output passes the int-to-str limit; the command lifts it
    # while it writes and restores it afterwards.
    limit = getattr(sys, "get_int_max_str_digits", None)
    old_limit = limit() if limit else None
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert (limit() if limit else None) == old_limit
    lines = out.splitlines()
    assert len(lines) == 1
    json.loads(lines[0])
    assert 5001 in map(len, re.findall(r"\d+", lines[0]))


@pytest.mark.parametrize(
    "argv",
    [
        ("period", "--b", "1" * 5000 + ",2,3,4,5,6,7,8"),
        ("act", "--word", "w3", "--b", "1,2,3,4,5,6,7,8", "--point", "1" * 5000 + ",3"),
        ("period", "--b", "1e1000000,2,3,4,5,6,7,8"),
        ("act", "--word", "w3", "--b", "1,2,3,4,5,6,7,8", "--point", "1e-1000000,3"),
    ],
)
def test_over_long_input_literal_is_input_error(capsys, argv):
    # Rejected from the literal's text, on every Python, before any big integer is built.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "input"


def test_orbit_psi_rejects_malformed_point(capsys):
    theta = "1/2,1/3,1/5,1/7,2/3,3/5,-171/70"
    for point in ("1/0,2", "1,2,3", "inf,2"):
        code, out, err = run_cli(
            capsys, "orbit", "--map", "psi", "--steps", "1", "--theta", theta, "--point", point
        )
        assert code == 1, point
        assert out == ""
        assert json.loads(err)["error"] == "input"


def test_orbit_psi_partial_trace_at_base_point(capsys):
    # x + y = 0: the first psi step is indeterminate, so only state 0 is printed.
    theta = "1/2,1/3,1/5,1/7,2/3,3/5,-171/70"
    expected = {
        "json": '{"step": 0, "theta": {"theta01": "1/2", "theta02": "1/3", "theta11": "1/5", '
        '"theta12": "1/7", "kappa1": "2/3", "kappa2": "3/5", "kappa3": "-171/70"}, "x": "2", "y": "-2"}\n',
        "csv": "step,theta01,theta02,theta11,theta12,kappa1,kappa2,kappa3,x,y\n"
        "0,0.5,0.33333333333333333333,0.2,0.14285714285714285714,"
        "0.66666666666666666667,0.6,-2.4428571428571428571,2,-2\n",
    }
    for fmt, stdout in expected.items():
        code, out, err = run_cli(
            capsys, "orbit", "--map", "psi", "--steps", "3", f"--theta={theta}", "--point=2,-2", "--format", fmt
        )
        assert code == 3, fmt
        assert out == stdout
        assert err == '{"error": "indeterminate", "message": "psi hit a base point", "symbol": "psi"}\n'


def test_orbit_requires_matching_initial_data(capsys):
    # Each map needs its own initial data and rejects the other map's.
    for argv in (
        ("--map", "phi", "--point", "2,3"),
        ("--map", "psi", *README_PSI, "--b", "1,2,3"),
        ("--map", "phi", *README_PHI, "--theta", "x"),
    ):
        code, out, err = run_cli(capsys, "orbit", "--steps", "1", *argv)
        assert (code, out) == (1, ""), argv
        assert json.loads(err)["error"] == "input"


def test_verify_coxeter_is_fast(capsys):
    import time

    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "verify", "coxeter")
    elapsed = time.perf_counter() - start
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert elapsed < 1.0


def test_verify_equivalence_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "equivalence", "--trials", "3", "--seed", "5")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    names = [c["name"] for c in data["checks"]]
    assert "conjugation" in names and "transported_dynamics" in names


def test_verify_rejects_nonpositive_trials(capsys):
    for trials in ("0", "-5"):
        code, out, err = run_cli(capsys, "verify", "all", "--trials", trials)
        assert code == 1, trials
        assert out == ""
        assert json.loads(err)["error"] == "input"


def test_orbit_and_verify_refuse_runs_past_their_caps(capsys, monkeypatch):
    # More than 10,000 orbit steps or 100,000 verify trials, or a verify
    # bound above 10^18, is an input error raised before any work starts;
    # the caps themselves run.
    started = []
    monkeypatch.setattr(cli, "orbit", lambda kind, *args: started.append(kind) or OrbitTrace(kind, ()))
    monkeypatch.setattr(cli, "run_suite", lambda *args, **kwargs: started.append("verify") or [])
    for argv, message in (
        (("orbit", "--map", "phi", "--steps", "99999999999999999999", *README_PHI), "--steps must be at most 10000"),
        (("orbit", "--map", "psi", "--steps", "10001", *README_PSI), "--steps must be at most 10000"),
        (("verify", "all", "--trials", "100000000000"), "--trials must be at most 100000"),
        (("verify", "equivalence", "--trials", "100001"), "--trials must be at most 100000"),
        (("verify", "all", "--bound", str(10**4299)), "--bound must be at most 1000000000000000000"),
        (("verify", "birational", "--bound", str(10**18 + 1)), "--bound must be at most 1000000000000000000"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, json.loads(err)) == (1, "", {"error": "input", "message": message}), argv
    assert started == []
    for argv in (
        ("orbit", "--map", "phi", "--steps", "10000", *README_PHI),
        ("orbit", "--map", "psi", "--steps", "10000", *README_PSI),
        ("verify", "all", "--trials", "100000"),
        ("verify", "all", "--bound", str(10**18)),
    ):
        assert run_cli(capsys, *argv)[0] == 0, argv
    assert started == ["phi", "psi", "verify", "verify"]


def test_verify_rejects_nonpositive_bound(capsys):
    for bound in ("0", "-1"):
        code, out, err = run_cli(capsys, "verify", "birational", "--bound", bound)
        assert code == 1, bound
        assert out == ""
        assert json.loads(err)["error"] == "input"


def test_verify_rejects_negative_max_word_length(capsys):
    code, out, err = run_cli(capsys, "verify", "equivalence", "--max-word-length", "-1")
    assert code == 1
    assert out == ""
    assert json.loads(err) == {"error": "input", "message": "--max-word-length must be nonnegative"}


def test_verify_draws_with_bound_except_schlesinger_samples(capsys, monkeypatch):
    # --bound reaches every draw of parameters and points;
    # the Schlesinger samples (psi-word and transport checks) keep bound 100.
    from e6painleve import birational, verify

    bounds, draw = set(), birational.sample_integers
    for module in (birational, verify):
        def spy(rng, count, bound=birational.SAMPLE_BOUND, _name=module.__name__.rsplit(".", 1)[1]):
            bounds.add((_name, bound))
            return draw(rng, count, bound)

        monkeypatch.setattr(module, "sample_integers", spy)
    code, out, _ = run_cli(capsys, "verify", "all", "--trials", "2", "--bound", "77")
    assert code == 0, out
    assert bounds == {("birational", 77), ("verify", 77), ("verify", 100)}


def test_verify_with_almost_all_draws_degenerate_is_input_error(capsys):
    # At --bound 1 nearly every draw is a base point; the sampling loop's
    # rejection cap ends the run with a JSON input error, not a traceback.
    code, out, err = run_cli(capsys, "verify", "equivalence", "--bound", "1")
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": "input",
        "message": "rejected 55 of 60 sampled inputs; raise --bound to draw from more values",
    }
    code, out, err = run_cli(capsys, "verify", "all", "--trials", "1", "--bound", "1")
    assert (code, out) == (1, "")
    error = json.loads(err)
    assert error["error"] == "input"
    assert re.fullmatch(r"rejected \d+ of \d+ [a-z/ ]+; raise --bound to draw from more values", error["message"])


def test_verify_period_is_proved_on_bases_whatever_the_sampling_flags(capsys):
    # The period checks are linear and run once per basis vector, drawing nothing.
    outputs = {
        run_cli(capsys, "verify", "period", "--trials", trials, "--seed", seed, "--bound", bound)
        for trials in ("1", "25")
        for seed in ("0", "9")
        for bound in ("2", "10000")
    }
    assert len(outputs) == 1
    code, out, _ = outputs.pop()
    assert code == 0
    checks = json.loads(out)["checks"]
    assert [(c["name"], c["passed"], c["samples"], c["rejected"]) for c in checks] == [
        ("generator_consistency", True, 8, 0),
        ("chi_delta_invariance", True, 8, 0),
        ("evolution_linearity", True, 2, 0),
        ("phi_word_root_evolution", True, 7, 0),
    ]


def test_same_seed_gives_identical_output(capsys):
    # The period suite draws nothing, so the seeded birational suite is compared.
    _, out1, _ = run_cli(capsys, "verify", "birational", "--seed", "9", "--trials", "5")
    _, out2, _ = run_cli(capsys, "verify", "birational", "--seed", "9", "--trials", "5")
    assert out1 == out2


def test_verify_all_output_is_unchanged(capsys):
    # Byte for byte the reference stdout in tests/golden: a change to the
    # birational evaluation or the sampling loop must reproduce the same
    # checks, samples and rejections.
    for seed, trials in ((1, 10), (7, 25)):
        code, out, _ = run_cli(capsys, "verify", "all", "--seed", str(seed), "--trials", str(trials))
        assert code == 0
        assert out == (GOLDEN / f"verify_all_seed{seed}_trials{trials}.json").read_text()


def test_verify_rejections_are_unchanged(capsys):
    # Small bounds make many draws base points: the shared relation draws
    # (bound 3) and phi's and the conjugation's (bound 2) reject some, and
    # the rejected counts are pinned byte for byte.
    for suite, bound, golden in (
        ("birational", 3, "verify_birational_seed2_trials10_bound3.json"),
        ("equivalence", 2, "verify_equivalence_seed2_bound2.json"),
    ):
        code, out, _ = run_cli(capsys, "verify", suite, "--seed", "2", "--trials", "10", "--bound", str(bound))
        assert code == 0
        assert out == (GOLDEN / golden).read_text()
        assert any(check["rejected"] for check in json.loads(out)["checks"])


def test_gens_lists_all_generators(capsys):
    code, out, _ = run_cli(capsys, "gens")
    assert code == 0
    data = json.loads(out)
    assert len(data["generators"]) == 12
    w3 = next(g for g in data["generators"] if g["symbol"] == "w3")
    assert "b7" in w3["coord_g"]


def test_gens_formulas_evaluate_like_eval_step(capsys):
    # The printed formulas are Python text: bound to Fractions at seeded
    # finite samples, they give eval_step's image.
    _, out, _ = run_cli(capsys, "gens")
    rng = random.Random(31)
    checked = 0
    for entry in json.loads(out)["generators"]:
        step = generator_step(entry["symbol"])
        for _ in range(10):
            b, p = sample_state(rng, 100)
            env = {"f": p.f.as_fraction(), "g": p.g.as_fraction(), **{f"b{k + 1}": x for k, x in enumerate(b.b)}}
            try:
                image = [eval(entry[key], {"__builtins__": {}}, env) for key in ("coord_f", "coord_g")]
            except ZeroDivisionError:
                continue
            _, q = eval_step(step, b, p)
            assert q == SurfacePoint.affine(*image), entry["symbol"]
            checked += 1
    assert checked == 120


def test_unknown_subcommand_is_input_error(capsys):
    assert main(["frobnicate"]) == 1


README_PHI = ("--b", "1,2,3,4,5,6,7,8", "--point", "2,3")
README_PSI = ("--theta", "1/2,1/3,1/5,1/7,2/3,3/5,-171/70", "--point", "17/5,23/9")
#: A phi start whose b has denominators, so the kernel runs at a scale other than 1.
SCALED_PHI = ("--b", "1/2,2/3,3/4,4/5,5/6,6/7,7/8,8/9", "--point", "2/3,3/5")
@pytest.mark.parametrize(
    "name, kind, steps, start, fmt",
    [
        ("phi_12.jsonl", "phi", 12, README_PHI, "json"),
        ("phi_20.csv", "phi", 20, README_PHI, "csv"),
        ("psi_8.jsonl", "psi", 8, README_PSI, "json"),
        ("psi_16.csv", "psi", 16, README_PSI, "csv"),
        ("sha256:5b5b729e94b5a86f80a89390447e85991f1121506cb041990f0bdf5f7c26ba74", "phi", 28, README_PHI, "json"),
        ("sha256:84014299be7e6814e924a32a3c70c1cee4bd62a8537d542b9396e76fc6fcd1d1", "psi", 24, README_PSI, "json"),
        ("sha256:82bc180688b8a837efbfe1494ac6ee1e33f5db505505074214c7745e1fa5f90c", "phi", 28, README_PHI, "csv"),
        ("sha256:a87307f6f9ec1b75a565e5ae0205aa7563410da5178ad70cc1510968e3c2f698", "psi", 22, README_PSI, "csv"),
        ("sha256:ea1c855358828e8392ddc5e346c8dc7355695d95fed17517ab50f2d2077e6fde", "phi", 20, SCALED_PHI, "csv"),
    ],
)
def test_orbit_golden_output(capsys, name, kind, steps, start, fmt):
    # Byte-for-byte the output of the projective-chain phi and the
    # unshared psi expressions, from the README starts (and phi from b with
    # denominators, on a scale other than 1).  The deep orbits
    # (states past 4300 digits) are compared by the sha256 of stdout.
    code, out, err = run_cli(
        capsys, "orbit", "--map", kind, "--steps", str(steps), *start, "--format", fmt
    )
    assert code == 0, err
    if name.startswith("sha256:"):
        assert hashlib.sha256(out.encode()).hexdigest() == name.removeprefix("sha256:")
    else:
        assert out == (GOLDEN / name).read_text()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("act", "--seed", "1", "--word", "w3", "--b", "1,2,3,4,5,6,7,8", "--point", "2,3"), "--seed"),
        (("gens", "--trials", "2"), "--trials"),
        (("orbit", "--map", "psi", "--steps", "1", *README_PSI, "--seed", "3"), "--seed"),
        (("verify", "all", "--format", "csv"), "--format"),
    ],
)
def test_a_flag_the_subcommand_does_not_read_is_input_error(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    error = json.loads(err)
    assert error["error"] == "input" and flag in error["message"]


def test_parser_is_built_once_and_reused(capsys):
    # build_parser is cached: consecutive main() calls in one process share
    # one parser and print what fresh parsers print.
    commands = (
        ("orbit", "--map", "phi", "--steps", "4", *README_PHI, "--format", "csv"),
        ("verify", "coxeter"),
    )
    fresh = []
    for argv in commands:
        build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv)[:2])
    build_parser.cache_clear()
    reused = [run_cli(capsys, *argv)[:2] for argv in commands]
    assert reused == fresh
    assert [code for code, _ in reused] == [0, 0]
    assert build_parser() is build_parser()


#: The fuzz fills each option with values of the arity and type its parser
#: expects (small ones where they set the run time: --steps at most 3,
#: --trials at most 2), taking the README start for psi half the time, since
#: random indices miss the Fuchs relation.  Then it may break the command
#: line once: drop an option, put an odd number shape in one value, or give
#: a value one item more or less.
ARITY = {"--b": 8, "--theta": 7, "--point": 2, "--word": 3}
NUMBERS = ("1", "2", "-3", "5/7", "0", "11/4")
SHAPES = ("1e5000", "inf", "1/0", "-1", "x", "", "w7")
README_VALUES = {"--theta": README_PSI[1], "--point": README_PSI[3]}
INT_VALUES = {
    "--steps": ("0", "1", "3"),
    "--trials": ("1", "2"),
    "--bound": ("1", "2", "10000"),
    "--seed": ("0", "1", "7"),
    "--max-word-length": ("0", "2", "12"),
}


def _fuzz_values(data, action) -> list[str]:
    option = action.option_strings[0] if action.option_strings else None
    if action.choices:
        return [data.draw(st.sampled_from(sorted(action.choices)))]
    if option in INT_VALUES:
        return [data.draw(st.sampled_from(INT_VALUES[option]))]
    if option in README_VALUES and data.draw(st.booleans()):
        return README_VALUES[option].split(",")
    n = ARITY.get(option, 1)
    return data.draw(st.lists(st.sampled_from(SYMBOLS if option == "--word" else NUMBERS), min_size=n, max_size=n))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_command_lines_exit_with_a_code_and_one_json_error(data):
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    command = data.draw(st.sampled_from(sorted(commands)))
    options = []  # (flag or None for a positional, values)
    for action in commands[command]._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if action.option_strings and not action.required and not data.draw(st.booleans()):
            continue
        flag = action.option_strings[0] if action.option_strings else None
        options.append((flag, [] if action.nargs == 0 else _fuzz_values(data, action)))
    mutation = data.draw(st.sampled_from(("none", "drop", "shape", "arity")))
    with_values = [values for _, values in options if values]
    if mutation == "drop" and options:
        del options[data.draw(st.integers(0, len(options) - 1))]
    elif mutation != "none" and with_values:
        values = data.draw(st.sampled_from(with_values))
        if mutation == "shape":
            values[data.draw(st.integers(0, len(values) - 1))] = data.draw(st.sampled_from(SHAPES))
        elif data.draw(st.booleans()) or len(values) == 1:
            values.append("1")
        else:
            values.pop()
    argv = [command]
    for flag, values in options:
        value = ",".join(values)
        argv.append(value if flag is None else flag if not values else f"{flag}={value}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err, argv
    if code == 0:
        assert err == "", argv
    elif code == 2 and command == "verify" and not err:
        # A failed verification (here a conjugator search cut short) is a report.
        assert json.loads(out.getvalue())["passed"] is False, argv
    else:
        lines = err.splitlines()
        assert len(lines) == 1 and "error" in json.loads(lines[0]), (argv, err)


def test_cli_import_leaves_dataclasses_inspect_ast_and_typing_unloaded():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import e6painleve.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'ast', 'typing'} & set(sys.modules)))\n"
        "from e6painleve.birational import generator_step; generator_step('w3')\n"
        "print('ast' in sys.modules)\n"
    )
    src = Path(cli.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-S", "-c", code, str(src)], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", "True"]  # Form.parse imports ast on first use
