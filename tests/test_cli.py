"""Command-line interface: outputs, exit codes, determinism."""

import json

from e6painleve.cli import main
from e6painleve.weylgroup import PicMap


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
    from fractions import Fraction

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


def test_orbit_psi_rejects_malformed_point(capsys):
    theta = "1/2,1/3,1/5,1/7,2/3,3/5,-171/70"
    for point in ("1/0,2", "1,2,3"):
        code, out, err = run_cli(
            capsys, "orbit", "--map", "psi", "--steps", "1", "--theta", theta, "--point", point
        )
        assert code == 1, point
        assert out == ""
        assert json.loads(err)["error"] == "input"


def test_orbit_requires_matching_initial_data(capsys):
    code, _, err = run_cli(
        capsys, "orbit", "--map", "phi", "--steps", "1", "--point", "2,3"
    )
    assert code == 1
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


def test_verify_rejects_nonpositive_bound(capsys):
    for bound in ("0", "-1"):
        code, out, err = run_cli(capsys, "verify", "birational", "--bound", bound)
        assert code == 1, bound
        assert out == ""
        assert json.loads(err)["error"] == "input"


def test_verify_period_reports_trials(capsys):
    code, out, _ = run_cli(capsys, "verify", "period", "--trials", "3", "--seed", "2")
    assert code == 0
    checks = json.loads(out)["checks"]
    assert checks and all(c["samples"] == 3 for c in checks)


def test_same_seed_gives_identical_output(capsys):
    _, out1, _ = run_cli(capsys, "verify", "period", "--seed", "9")
    _, out2, _ = run_cli(capsys, "verify", "period", "--seed", "9")
    assert out1 == out2


def test_gens_lists_all_generators(capsys):
    code, out, _ = run_cli(capsys, "gens")
    assert code == 0
    data = json.loads(out)
    assert len(data["generators"]) == 12
    w3 = next(g for g in data["generators"] if g["symbol"] == "w3")
    assert "b7" in w3["coord_g"]


def test_unknown_subcommand_is_input_error(capsys):
    assert main(["frobnicate"]) == 1
