"""Tests for the command-line interface: parsing, execution, serialization."""

import json

import numpy as np
import pytest

from liecurv import exp_so3, holonomy, plane_rolling_form, parallelogram_loop, quat_to_rotation
from liecurv.cli import main, parse_args, read_path_file, run, write_result, RunRequest
from liecurv.transport import IntegratorConfig


def run_json(argv, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main([*argv, "--out", str(out)])
    return code, json.loads(out.read_text())


# ---------------------------------------------------------------------------
# parsing


def test_parse_transport_request_echo():
    req = parse_args(
        ["transport", "--connection", "natural-so3", "--path", "line", "--xi", "0,0,1.5707963", "--steps", "1000"]
    )
    assert req.command == "transport"
    assert req.connection == "natural-so3"
    assert req.path == "line"
    assert req.xi == (0.0, 0.0, 1.5707963)
    assert req.steps == 1000
    assert req.method == "midpoint"
    assert req.format == "json"


def test_parse_holonomy_square():
    req = parse_args(["holonomy", "--connection", "plane-rolling", "--path", "square", "--eps", "1"])
    assert req.command == "holonomy" and req.eps == 1.0


def test_parse_curvature_sphere():
    req = parse_args(["curvature", "--connection", "sphere-outer", "--radius", "2"])
    assert req.connection == "sphere-outer" and req.radius == 2.0


def test_parse_errors_are_value_errors():
    with pytest.raises(ValueError):
        parse_args(["transport", "--connection", "bogus"])
    with pytest.raises(ValueError):
        parse_args(["no-such-command"])
    with pytest.raises(ValueError, match="cannot parse vector"):
        parse_args(["transport", "--xi", "a,b,c"])
    with pytest.raises(ValueError):
        parse_args([])


def test_parse_points_list():
    req = parse_args(["transport", "--path", "polyline", "--points", "0,0;1,0;1,1"])
    assert req.points == ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0))
    with pytest.raises(ValueError, match="inconsistent"):
        parse_args(["transport", "--path", "polyline", "--points", "0,0;1,0,5"])


# ---------------------------------------------------------------------------
# exit codes


def test_exit_zero_on_success(capsys):
    code = main(["transport", "--path", "line", "--xi", "0,0,1", "--steps", "64"])
    assert code == 0
    assert capsys.readouterr().out.endswith("\n")


def test_exit_one_on_usage_error(capsys):
    assert main(["transport", "--connection", "bogus"]) == 1
    assert main(["transport", "--path", "line"]) == 1  # missing --xi
    assert main(["holonomy", "--path", "line", "--xi", "1,0,0"]) == 1  # not closed
    assert main(["verify"]) == 1  # needs --all or --check
    assert "error:" in capsys.readouterr().err


def test_exit_two_on_failing_check(capsys):
    # the repeated-loop control family cannot span so(3); designed to fail
    assert main(["verify", "--check", "span-degenerate"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["reports"][0]["passed"] is False


# ---------------------------------------------------------------------------
# documents


def test_transport_line_document(tmp_path):
    code, doc = run_json(
        ["transport", "--path", "line", "--xi", "0,0,1.5707963", "--steps", "200"], tmp_path
    )
    assert code == 0
    # rotation by pi/2 about e3
    want = np.array([np.cos(np.pi / 4), 0.0, 0.0, np.sin(np.pi / 4)])
    np.testing.assert_allclose(doc["holonomy"]["quat"], want, atol=1e-6)
    np.testing.assert_allclose(doc["holonomy"]["angle"], np.pi / 2, atol=1e-6)
    np.testing.assert_allclose(doc["holonomy"]["axis"], [0.0, 0.0, 1.0], atol=1e-6)
    assert doc["trajectory"][0]["t"] == 0.0
    assert doc["trajectory"][-1]["t"] == 1.0
    assert len(doc["trajectory"]) == 201


def test_rotation_representations_are_consistent(tmp_path):
    _, doc = run_json(
        ["transport", "--path", "polyline", "--points", "0,0,0;1,0.4,-0.2;0.3,1,0.5", "--steps", "128"],
        tmp_path,
    )
    block = doc["holonomy"]
    R = np.array(block["matrix"]).reshape(3, 3)
    np.testing.assert_allclose(quat_to_rotation(np.array(block["quat"])), R, atol=1e-9)
    np.testing.assert_allclose(
        exp_so3(block["angle"] * np.array(block["axis"])), R, atol=1e-9
    )
    assert block["quat"][0] >= 0.0  # canonical sign


def test_holonomy_square_matches_library(tmp_path):
    code, doc = run_json(
        ["holonomy", "--connection", "plane-rolling", "--path", "square", "--eps", "1", "--steps", "64"],
        tmp_path,
    )
    assert code == 0
    want = holonomy(
        plane_rolling_form(),
        parallelogram_loop(np.zeros(2), np.array([1.0, 0.0]), np.array([0.0, 1.0]), 1.0),
        IntegratorConfig(steps=64),
    )
    np.testing.assert_allclose(np.array(doc["holonomy"]["matrix"]).reshape(3, 3), want, atol=1e-12)


def test_pullback_connection_runs(tmp_path):
    code, doc = run_json(
        ["transport", "--connection", "pullback-rhoJ", "--path", "line", "--xi", "1,0", "--steps", "32"],
        tmp_path,
    )
    assert code == 0
    R = np.array(doc["holonomy"]["matrix"]).reshape(3, 3)
    np.testing.assert_allclose(R, exp_so3(np.array([0.0, -1.0, 0.0])), atol=1e-12)


def test_json_output_is_byte_identical(tmp_path):
    argv = ["transport", "--path", "line", "--xi", "0.3,-1,0.5", "--steps", "100", "--out", str(tmp_path / "o.json")]
    assert main(argv) == 0
    first = (tmp_path / "o.json").read_bytes()
    assert main(argv) == 0
    assert (tmp_path / "o.json").read_bytes() == first


def test_curvature_command_natural(tmp_path):
    code, doc = run_json(["curvature", "--connection", "natural-so3", "--steps", "256"], tmp_path)
    assert code == 0
    blk = doc["curvature"]
    assert blk["expected_factor"] == 1.0
    assert abs(blk["factor"] - 1.0) <= 1e-3
    np.testing.assert_allclose(blk["closed_form"], [0.0, 0.0, 1.0], atol=0.0)


def test_curvature_command_sphere(tmp_path):
    code, doc = run_json(
        ["curvature", "--connection", "sphere-outer", "--radius", "2", "--steps", "256"], tmp_path
    )
    assert code == 0
    blk = doc["curvature"]
    assert blk["expected_factor"] == 0.75
    assert abs(blk["factor"] - 0.75) <= 1e-3


def test_verify_single_check(tmp_path):
    code, doc = run_json(["verify", "--check", "omega-naturality"], tmp_path)
    assert code == 0
    assert len(doc["reports"]) == 1
    assert doc["reports"][0]["name"] == "omega-naturality"
    assert doc["reports"][0]["passed"] is True


def test_verify_all_reports_sorted_and_passing(tmp_path):
    code, doc = run_json(["verify", "--all"], tmp_path)
    assert code == 0
    names = [r["name"] for r in doc["reports"]]
    assert names == sorted(names) and len(names) == 9
    assert all(r["passed"] for r in doc["reports"])


def test_section_command(tmp_path):
    code, doc = run_json(["section", "--point", "1,0,0"], tmp_path)
    assert code == 0
    sec = doc["section"]
    assert sec["residual"] <= 1e-6
    np.testing.assert_allclose(sec["formula_quat"], [0.0, 0.0, 1.0, 0.0], atol=0.0)
    np.testing.assert_allclose(doc["holonomy"]["angle"], np.pi, atol=1e-6)
    assert doc["reports"][0]["name"] == "section-formula"


def test_section_rejects_zero_point(capsys):
    assert main(["section", "--point", "0,0,0"]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["transport", "--xi=1e300,0.1,0.2"],  # the step angle overflows
        ["transport", "--connection=pullback-rhoJ", "--xi=0.1,-1e300"],
        ["section", "--point=nan,0,1"],
        ["section", "--point=0,inf,1"],
    ],
)
def test_non_finite_requests_exit_one_with_empty_stdout(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


def test_write_result_refuses_non_finite_numbers():
    with pytest.raises(ValueError):
        write_result({"holonomy": {"angle": float("nan")}})
    row = {"t": 0.0, "x": [float("inf")], "quat": [1.0, 0.0, 0.0, 0.0]}
    with pytest.raises(ValueError, match="non-finite"):
        write_result({"trajectory": [row]}, fmt="csv")


# ---------------------------------------------------------------------------
# CSV output


def test_csv_trajectory_roundtrip(tmp_path):
    out = tmp_path / "traj.csv"
    code = main(
        ["transport", "--path", "line", "--xi", "0.2,0.7,-0.4", "--steps", "50",
         "--format", "csv", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,x1,x2,x3,qw,qx,qy,qz"
    assert len(lines) == 52  # header + 51 samples
    # 17 significant digits reproduce the binary doubles exactly
    doc = run(parse_args(["transport", "--path", "line", "--xi", "0.2,0.7,-0.4", "--steps", "50"]))
    for lineno, row in enumerate(doc["trajectory"]):
        fields = [float(c) for c in lines[1 + lineno].split(",")]
        assert fields[0] == row["t"]
        assert fields[1:4] == row["x"]
        assert fields[4:] == row["quat"]


def test_csv_requires_trajectory():
    doc = run(parse_args(["verify", "--all"]))
    with pytest.raises(ValueError, match="trajectory"):
        write_result(doc, fmt="csv")


def test_write_result_unknown_format():
    with pytest.raises(ValueError, match="unknown format"):
        write_result({"trajectory": []}, fmt="xml")


# ---------------------------------------------------------------------------
# path files


def write_csv(tmp_path, text, name="path.csv"):
    f = tmp_path / name
    f.write_text(text)
    return str(f)


def test_read_path_file_line(tmp_path):
    f = write_csv(tmp_path, "t,x1,x2,x3\n0,0,0,0\n1,0.5,1,0\n")
    c = read_path_file(f)
    assert c.base_dim == 3 and not c.closed
    np.testing.assert_allclose(c.position(0.5), [0.25, 0.5, 0.0])


def test_read_path_file_closed_square(tmp_path):
    f = write_csv(tmp_path, "t,x1,x2\n0,0,0\n0.25,1,0\n0.5,1,1\n0.75,0,1\n1,0,0\n")
    c = read_path_file(f)
    assert c.closed and c.corners == (0.25, 0.5, 0.75)


def test_read_path_file_errors(tmp_path):
    with pytest.raises(ValueError, match="strictly increasing"):
        read_path_file(write_csv(tmp_path, "t,x1\n0,0\n0.7,1\n0.4,2\n1,3\n"))
    with pytest.raises(ValueError, match="header"):
        read_path_file(write_csv(tmp_path, "time,x1\n0,0\n1,1\n"))
    with pytest.raises(ValueError, match="expected 3"):
        read_path_file(write_csv(tmp_path, "t,x1,x2\n0,0,0\n0.5,1\n1,0,0\n"))
    with pytest.raises(ValueError, match="cover"):
        read_path_file(write_csv(tmp_path, "t,x1\n0.1,0\n1,1\n"))
    with pytest.raises(ValueError, match="at least two"):
        read_path_file(write_csv(tmp_path, "t,x1\n0,0\n"))


def test_path_file_dimension_mismatch(tmp_path, capsys):
    f = write_csv(tmp_path, "t,x1,x2\n0,0,0\n1,1,1\n")
    code = main(["transport", "--connection", "natural-so3", "--path", "file", "--file", f])
    assert code == 1
    assert "dimension" in capsys.readouterr().err


def test_path_file_transport(tmp_path):
    f = write_csv(tmp_path, "t,x1,x2,x3\n0,0,0,0\n1,0,0,1\n")
    code, doc = run_json(
        ["transport", "--path", "file", "--file", f, "--steps", "32"], tmp_path
    )
    assert code == 0
    np.testing.assert_allclose(
        np.array(doc["holonomy"]["matrix"]).reshape(3, 3), exp_so3(np.array([0.0, 0.0, 1.0])), atol=1e-12
    )


def test_run_unknown_command():
    with pytest.raises(ValueError, match="unknown command"):
        run(RunRequest(command="bogus"))
