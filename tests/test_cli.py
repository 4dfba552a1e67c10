import json

import numpy as np
import pytest

import prointerp.hill as hill_module
from prointerp.cli import _tolerances, build_parser, main
from prointerp.errors import NotStarLinearError, RankMismatchError
from prointerp.lyapunov import _quotient_map
from prointerp.matrix_kit import format_matrix_text, matrix_to_json
from prointerp.pro import ProRealization, eval_matrix


def write_json(path, m):
    path.write_text(json.dumps(matrix_to_json(np.asarray(m, dtype=float))))
    return str(path)


def write_text(path, m):
    path.write_text(format_matrix_text(np.asarray(m, dtype=float)))
    return str(path)


@pytest.fixture
def pair(tmp_path):
    a = write_json(tmp_path / "a.json", np.diag([1.0, 2.0]))
    b = write_text(tmp_path / "b.txt", np.diag([2.0, 3.0]))
    return a, b


def test_solve_exit_codes(tmp_path, pair):
    a, b = pair
    assert main(["solve", a, b]) == 0
    bad = write_json(tmp_path / "bad.json", np.diag([1.0, 3.0]))
    assert main(["solve", a, bad]) == 2
    low = write_json(tmp_path / "low.json", np.diag([2.0, 1.0]))
    assert main(["solve", a, low]) == 3
    rot = write_json(tmp_path / "rot.json", [[0.0, 1.0], [-1.0, 0.0]])
    eye = write_json(tmp_path / "eye.json", np.eye(2))
    assert main(["solve", rot, eye]) == 4
    noncomm = write_json(tmp_path / "nc.json", [[1.0, 1.0], [0.0, 1.0]])
    assert main(["solve", a, noncomm]) == 4


def test_solve_json_output(capsys, pair):
    a, b = pair
    assert main(["solve", a, b, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "solved"
    assert report["m"] == 2
    realization = ProRealization.from_json(report["realization"])
    np.testing.assert_allclose(
        eval_matrix(realization, np.diag([1.0, 2.0])), np.diag([2.0, 3.0]), atol=1e-8
    )


def test_solve_text_output_mentions_status_and_residuals(capsys, pair):
    a, b = pair
    main(["solve", a, b])
    out = capsys.readouterr().out
    assert "status: solved" in out
    assert "interpolation residual" in out
    assert "m: 2" in out


def test_solve_output_is_reproducible(capsys, pair):
    a, b = pair
    main(["solve", a, b, "--json"])
    first = capsys.readouterr().out
    main(["solve", a, b, "--json"])
    second = capsys.readouterr().out
    assert first == second


def test_hill_command(capsys, tmp_path, pair):
    a, b = pair
    assert main(["hill", a, b, "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["m"] == 2 and obj["m_max"] == 2
    assert obj["completely_positive"] is True
    w = np.array(obj["hill_eigenvalues"])
    assert (w > 0).all()

    bad = write_json(tmp_path / "bad.json", np.diag([1.0, 3.0]))
    assert main(["hill", a, bad, "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["completely_positive"] is False
    assert min(obj["hill_eigenvalues"]) < 0


def test_order_command(capsys, tmp_path):
    a = write_json(tmp_path / "a.json", np.diag([1.0, 2.0]))
    good = write_json(tmp_path / "good.json", np.diag([2.0, 3.0]))
    assert main(["order", a, good, "--json", "--trials", "200"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["violated"] is False and obj["trials"] == 200

    bad = write_json(tmp_path / "bad.json", np.diag([1.0, 3.0]))
    assert main(["order", a, bad, "--json"]) == 2
    obj = json.loads(capsys.readouterr().out)
    assert obj["violated"] is True
    assert obj["witness"] is not None


def test_eval_command(capsys, tmp_path):
    f = ProRealization.from_state_space(
        np.array([3.0, 3.0]), np.array([[0.0, np.sqrt(8.0)], [-np.sqrt(8.0), 0.0]])
    )
    fpath = tmp_path / "f.json"
    fpath.write_text(json.dumps(f.to_json()))
    point = write_json(tmp_path / "p.json", np.diag([1.0, 2.0]))
    assert main(["eval", str(fpath), point, "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    value = np.array(out["data"]).reshape(out["rows"], out["cols"])
    np.testing.assert_allclose(value, np.diag([2.0, 3.0]), atol=1e-10)


def test_verify_command(capsys, tmp_path, pair):
    a, b = pair
    f = ProRealization.from_state_space(
        np.array([3.0, 3.0]), np.array([[0.0, np.sqrt(8.0)], [-np.sqrt(8.0), 0.0]])
    )
    fpath = tmp_path / "f.json"
    fpath.write_text(json.dumps(f.to_json()))
    assert main(["verify", str(fpath), a, b, "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["ok"] is True and obj["residual"] < 1e-10

    off = write_json(tmp_path / "off.json", np.diag([2.0, 3.1]))
    assert main(["verify", str(fpath), a, off, "--json"]) == 2
    obj = json.loads(capsys.readouterr().out)
    assert obj["ok"] is False
    assert obj["residual"] == pytest.approx(0.1, rel=1e-6)
    # loosening the residual tolerance flips the verdict
    assert main(["verify", str(fpath), a, off, "--tol-residual", "0.5"]) == 0


def test_bicommutant_command(capsys, tmp_path):
    jordan = write_json(tmp_path / "j.json", [[1.0, 1.0], [0.0, 1.0]])
    assert main(["bicommutant", jordan, "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["n"] == 2 and obj["m_max"] == 2
    assert len(obj["basis"]) == 2


def test_tolerance_flags_reach_the_solver(tmp_path, pair):
    a, _ = pair
    bad = write_json(tmp_path / "bad.json", np.diag([1.0, 3.0]))
    # with a huge psd floor the negative eigenvalue is inside the ambiguous
    # band, so the solver reports numerical_failure instead of infeasible
    assert main(["solve", a, bad, "--tol-psd", "0.5"]) == 1


def test_io_failures_exit_1(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    ok = write_json(tmp_path / "ok.json", np.eye(2))
    assert main(["solve", missing, ok]) == 1
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert main(["solve", str(garbled), ok]) == 1
    err = capsys.readouterr().err
    assert err.strip() != ""


def test_text_matrix_input_round_trip(capsys, tmp_path):
    a = write_text(tmp_path / "a.txt", [[2.0]])
    b = write_text(tmp_path / "b.txt", [[3.0]])
    assert main(["solve", a, b, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "solved"
    assert report["realization"]["m"] == 1


def test_solve_takes_no_sampling_flags(capsys, pair):
    a, b = pair
    for flag in ("--seed", "--trials"):
        with pytest.raises(SystemExit) as exc:
            main(["solve", a, b, flag, "1"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err


# The flags each subcommand takes beyond --json: exactly those its code reads.
OPTIONAL_FLAGS = ("--tol-rank", "--tol-psd", "--tol-residual", "--tol-regular",
                  "--seed", "--trials", "--threads")
TOL_FIELDS = {"--tol-rank": "rank_rel", "--tol-psd": "psd_rel",
              "--tol-residual": "residual_abs", "--tol-regular": "regular_rel"}
SURFACE = {
    ("solve", "A", "B"): ("--tol-rank", "--tol-psd", "--tol-residual", "--tol-regular"),
    ("hill", "A", "B"): ("--tol-rank", "--tol-psd", "--tol-residual", "--tol-regular"),
    ("order", "A", "B"): ("--tol-psd", "--tol-regular", "--seed", "--trials"),
    ("eval", "F", "A"): ("--tol-regular",),
    ("verify", "F", "A", "B"): ("--tol-residual", "--tol-regular"),
    ("bicommutant", "A"): ("--tol-rank",),
}


@pytest.mark.parametrize("command, kept", SURFACE.items(), ids=[c[0] for c in SURFACE])
def test_each_subcommand_takes_only_the_flags_it_reads(capsys, command, kept):
    for flag in OPTIONAL_FLAGS:
        if flag in kept:
            continue
        with pytest.raises(SystemExit) as exc:
            main([*command, flag, "1"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
    for flag in kept:
        value = "0.25" if flag in TOL_FIELDS else "3"
        args = build_parser().parse_args([*command, flag, value])
        if flag in TOL_FIELDS:
            assert getattr(_tolerances(args), TOL_FIELDS[flag]) == 0.25
        else:
            assert getattr(args, flag[2:]) == 3


def test_hill_builds_lab_map_once(monkeypatch, capsys, pair):
    # Every route to L_{A,B}, public lab_map or the Hill stage, goes through
    # the one private builder, so counting it counts the builds.
    real = _quotient_map
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for module in ("prointerp.lyapunov", "prointerp.solver", "prointerp.cli"):
        monkeypatch.setattr(f"{module}._quotient_map", counting, raising=False)
    assert main(["hill", *pair]) == 0
    assert len(calls) == 1


def test_hill_builds_and_decomposes_the_choi_matrix_once(monkeypatch, capsys, pair):
    # The CP verdict is read off H, so the one Choi matrix is the one that
    # minimal_hill builds and eigendecomposes with eigh.
    real = hill_module.choi
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(hill_module, "choi", counting)
    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    assert main(["hill", *pair, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["completely_positive"] is True
    assert len(calls) == 1


def test_infinite_tolerance_is_rejected(tmp_path, capsys):
    # An infinite residual gate would switch off the membership check.
    a = write_json(tmp_path / "a.json", np.diag([1.0, 2.0]))
    b = write_json(tmp_path / "b.json", [[2.0, 1.0], [0.5, 3.0]])
    assert main(["solve", a, b, "--tol-residual", "inf"]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("error", [RankMismatchError, NotStarLinearError])
def test_hill_extraction_failure_exits_1(monkeypatch, capsys, pair, error):
    def fail(lmap, tol):
        raise error("injected")

    monkeypatch.setattr("prointerp.solver.minimal_hill", fail)
    assert main(["hill", *pair]) == 1
    assert capsys.readouterr().err.startswith("error: Hill extraction failed")
