"""Tests for the command-line interface: parsing, execution, serialization."""

import argparse
import contextlib
import io
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from liecurv import (
    canonical_quat,
    cli,
    exp_so3,
    holonomy,
    natural_form,
    parallelogram_loop,
    plane_rolling_form,
    polyline,
    quat_to_rotation,
    rotation_to_quat,
    transport,
    verify,
)
from liecurv.cli import main, parse_args, read_path_file, run, write_result
from liecurv.transport import IntegratorConfig
from references import CF, sequential_grid, stepped_product

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


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


def test_eps_defaults_per_subcommand():
    assert parse_args(["holonomy", "--path", "square"]).eps == 1.0
    assert parse_args(["transport", "--path", "circle"]).eps == 1.0
    assert parse_args(["curvature"]).eps == 1e-2
    assert parse_args(["curvature", "--eps", "1.0"]).eps == 1.0


# a pool of requests; -1 stands for one that fails to parse
PARSE_POOL = [
    ["verify", "--all"],
    ["verify", "--check", "omega-naturality"],
    ["verify", "--all", "--seed", "4", "--steps", "32"],
    ["section", "--point", "0,0.6,0.8"],
    ["section"],
    ["transport", "--xi", "0,0,1"],
    ["transport", "--path", "polyline", "--points", "0,0;1,0;1,1", "--connection", "plane-rolling"],
    ["holonomy", "--path", "square", "--eps", "0.5", "--x0", "1,2", "--method", "euler"],
    ["holonomy", "--path", "square"],
    ["curvature", "--connection", "sphere-outer", "--radius", "2", "--format", "csv"],
    ["curvature"],
]


@SETTINGS
@given(order=st.lists(st.integers(-1, len(PARSE_POOL) - 1), min_size=1, max_size=12))
@example(order=[0, 1])  # verify --all, then verify --check X
@example(order=[3, 5, 4])  # section --point ..., then transport, then section
def test_cached_parser_leaks_no_state(order):
    fresh = {}
    for i in set(order) - {-1}:
        cli._parser.cache_clear()
        fresh[i] = parse_args(PARSE_POOL[i])
    cli._parser.cache_clear()
    for i in order:
        if i == -1:
            with pytest.raises(ValueError):
                parse_args(["transport", "--connection", "bogus", "--steps", "7"])
        else:
            assert parse_args(PARSE_POOL[i]) == fresh[i]
    assert cli._parser() is cli._parser()


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
    for argv, message in (
        (["transport", "--connection", "bogus"], "argument --connection: invalid choice: 'bogus'"),
        (["transport", "--path", "line"], "--path line requires --xi"),
        (["holonomy", "--path", "line", "--xi", "1,0,0"], "holonomy requires a closed path"),
        (["verify"], "verify needs --all or --check NAME"),
        (["transport", "--xi=1,0"], "--xi must have dimension 3"),
        (["transport", "--path=polyline", "--points=;"], "empty point list"),
        (["transport", "--path=file"], "--path file requires --file"),
    ):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {message}"), argv


def test_exit_two_on_failing_check(capsys):
    # the repeated-loop control family cannot span so(3); designed to fail
    assert main(["verify", "--check", "span-degenerate"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["reports"][0]["passed"] is False


COMMANDS = ("transport", "holonomy", "curvature", "verify", "section")
NOT_A_NUMBER = st.text(alphabet="0123456789.,;- abcx", max_size=12).filter(lambda t: any(c in t for c in "abcx"))
WORD = st.text(alphabet="abcdefghijklmnopqrstuvwxyz-", min_size=1, max_size=14)
VALID_CHOICES = {
    "--connection": cli._CONNECTIONS,
    "--path": cli._PATHS,
    "--method": tuple(cli._METHODS),
    "--format": ("json", "csv"),
    "--check": tuple(verify.CHECKS),
}


@st.composite
def malformed_argv(draw):
    kind = draw(st.sampled_from(["vector", "points", "choice", "command", "missing"]))
    if kind == "vector":
        command, option = draw(st.sampled_from(
            [("transport", "--xi"), ("transport", "--x0"), ("holonomy", "--x0"), ("section", "--point")]
        ))
        return [command, f"{option}={draw(NOT_A_NUMBER)}"]
    if kind == "points":
        return [draw(st.sampled_from(["transport", "holonomy"])), "--path=polyline", f"--points={draw(NOT_A_NUMBER)}"]
    if kind == "choice":
        option = draw(st.sampled_from(sorted(VALID_CHOICES)))
        value = draw(WORD.filter(lambda w: w not in VALID_CHOICES[option]))
        if option == "--check":
            return ["verify", f"--check={value}"]
        command = draw(st.sampled_from(["transport", "holonomy"] if option == "--path" else COMMANDS[:3]))
        return [command, f"{option}={value}"]
    if kind == "command":
        return [draw(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", max_size=10).filter(lambda w: w not in COMMANDS))]
    # a line without --xi or a polyline without --points, whatever else is given
    argv = draw(st.sampled_from([["transport"], ["holonomy", "--path=line"], ["transport", "--path=polyline"],
                                 ["holonomy", "--path=polyline"]]))
    extra = draw(st.lists(st.sampled_from(["--steps=16", "--method=euler", "--connection=plane-rolling",
                                           "--eps=0.5", "--format=csv", "--x0=0.5,0.5"]), unique=True))
    return argv + extra


@SETTINGS
@given(argv=malformed_argv())
def test_malformed_requests_exit_one_with_empty_stdout(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 1
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error:")


def capture(argv):
    """Exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# Valid requests, and options their subcommands do not read: each is refused, not ignored.
VALID_ARGV = {
    "transport": ["transport", "--xi=1,0,0", "--steps=8"],
    "holonomy": ["holonomy", "--path=square", "--steps=8"],
    "curvature": ["curvature", "--steps=8"],
    "verify": ["verify", "--check=omega-naturality"],
    "section": ["section", "--steps=8"],
}
UNREAD_OPTIONS = [(command, "--seed=3") for command in ("transport", "holonomy", "curvature", "section")] + [
    (command, option)
    for command in ("verify", "section")
    for option in ("--connection=sphere-outer", "--radius=2", "--eps=0.5")
]


@pytest.mark.parametrize("command, option", UNREAD_OPTIONS)
def test_an_option_the_subcommand_does_not_read_is_refused(command, option):
    assert capture(VALID_ARGV[command])[0] == 0
    code, out, err = capture([*VALID_ARGV[command], option])
    assert (code, out) == (1, "")
    assert err == f"error: unrecognized arguments: {option}\n"


COMPONENT = st.floats(-2.0, 2.0).map(repr)
NEGATIVE_LEAD = st.one_of(
    st.floats(-1e3, -1e-3).map(repr),
    st.floats(1e-3, 0.999).map(lambda x: "-" + f"{x:.3f}"[1:]),  # -.5 style
    st.floats(-1e3, -1e-3).map(lambda x: f"{x:.2e}"),
)
# no numeric work before these refusals, so their values may also be non-finite
NON_FINITE_LEAD = st.sampled_from(["-inf", "-nan", "-Infinity", "-INF"])


@st.composite
def negative_value_requests(draw):
    """(leading words, option, value) where the value starts with a minus sign."""
    kind = draw(st.sampled_from(["xi", "x0", "point", "radius"]))
    lead = draw(st.one_of(NEGATIVE_LEAD, NON_FINITE_LEAD))
    vector = ",".join([lead, draw(COMPONENT), draw(COMPONENT)])
    if kind == "xi":
        return ["transport", "--steps=8"], "--xi", vector
    if kind == "x0":
        return ["transport", "--steps=8", "--xi=1,0,0"], "--x0", vector
    if kind == "point":
        return ["section", "--steps=8"], "--point", vector
    return ["curvature", "--connection=sphere-outer", "--steps=8"], "--radius", lead


@SETTINGS
@given(request=negative_value_requests())
@example(request=(["section"], "--point", "-1,0,0"))
@example(request=(["transport"], "--xi", "-1,0,0"))
@example(request=(["transport", "--xi=1,0,0"], "--x0", "-.5,1,2"))
@example(request=(["curvature", "--connection=sphere-outer"], "--radius", "-1e-3"))
@example(request=(["transport"], "--xi", "-inf,0,0"))
@example(request=(["transport", "--xi=1,0,0"], "--x0", "-nan,1,2"))
def test_negative_value_as_separate_word_parses_like_the_equals_form(request):
    words, option, value = request
    assert capture([*words, option, value]) == capture([*words, f"{option}={value}"])


def test_negative_values_reach_the_program():
    assert capture(["section", "--point", "-1,0,0"])[0] == 0
    assert capture(["transport", "--xi", "-1,0,0", "--steps", "8"])[0] == 0
    code, out, err = capture(["curvature", "--connection", "sphere-outer", "--radius", "-1e-3"])
    assert (code, out) == (1, "") and "sphere radius must be positive" in err
    # an option in the value slot is still a missing value
    code, out, err = capture(["transport", "--xi", "--steps", "4"])
    assert (code, out) == (1, "") and "expected one argument" in err
    # only an option takes the value; after anything else it stays a stray word
    code, out, err = capture(["transport", "-1,0,0"])
    assert (code, out) == (1, "") and "unrecognized arguments: -1,0,0" in err


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


def signed_unit(q):
    """One quaternion state over its norm, |q|^2 by np.sum, signed by canonical_quat: the CLI's row, built alone."""
    return canonical_quat(q / np.sqrt(np.sum(q * q)))


@pytest.mark.parametrize("connection", cli._CONNECTIONS)
def test_holonomy_quat_is_the_last_trajectory_quat(connection):
    x0 = "--x0=0.2,-0.1,0.3" if connection == "natural-so3" else "--x0=1.2,0.3"
    for command in ("transport", "holonomy"):
        req = parse_args([command, f"--connection={connection}", "--path=square", "--eps=0.3", x0, "--radius=2",
                          "--steps=300"])
        doc = run(req)
        block = doc["holonomy"]
        assert block["quat"] == doc["trajectory"][-1]["quat"]
        # within two ulps of the quaternion computed from the final matrix itself (Shepperd)
        R = np.array(block["matrix"]).reshape(3, 3)
        assert np.abs(np.array(block["quat"]) - rotation_to_quat(R)).max() <= 4.5e-16
        # and the bytes of the engine's own last state, normalized and signed
        form = cli._CONNECTIONS[req.connection](req.radius)
        res = transport(form, cli._build_path(req, form.base_dim), config=cli._config(req))
        assert block["quat"] == signed_unit(res.quat_states[2][-1]).tolist()


def tuple_trajectory(res):
    """The trajectory built row by row from (t, x, q) tuples: t and x from the result's ``states``, q its
    quaternion state over its norm and signed, one ``canonical_quat`` per row."""
    times, points, _ = res.states
    quats = [signed_unit(q).tolist() for q in res.quat_states[2]]
    return [{"t": float(t), "x": x.tolist(), "quat": q} for t, x, q in zip(times.tolist(), points, quats)]


def trajectory_bytes(rows):
    return json.dumps(rows, sort_keys=True, separators=(",", ":"), allow_nan=False)


@pytest.mark.parametrize("steps", [1, 2, 63, 64, 65, 1024, 1025, 2049, 3001])  # one to three strides, partial chunks
@pytest.mark.parametrize("method", ["euler", "midpoint"])
@pytest.mark.parametrize("connection", cli._CONNECTIONS)
def test_trajectory_from_states_is_the_bytes_of_the_tuple_construction(connection, method, steps):
    sphere = connection.startswith("sphere")
    dim = {"natural-so3": 3}.get(connection, 2)
    points = {3: "0,0,0;1,0.5,-0.3;0.4,1.2,0.9;0,0,0", 2: "0,0;0.3,0.1;-0.2,0.4"}[dim]
    for path in ("circle", "polyline"):  # smooth, then with corners
        req = parse_args(["holonomy", f"--connection={connection}", "--radius=2.0", f"--path={path}", "--eps=0.3",
                          f"--method={method}", f"--steps={steps}", *["--x0=1.1,0.4"] * sphere,
                          "--points=" + ("1.1,0.4;1.3,0.5;1.0,0.7" if sphere else points)])
        form = cli._CONNECTIONS[req.connection](req.radius)
        runs = [transport(form, cli._build_path(req, form.base_dim), config=cli._config(req)) for _ in range(2)]
        assert trajectory_bytes(cli._trajectory(runs[0])) == trajectory_bytes(tuple_trajectory(runs[1]))


@pytest.mark.parametrize("steps", [1, 64, 1025, 3001])
def test_trajectory_from_states_is_the_bytes_of_the_tuple_construction_from_a_random_start(steps):
    g0 = exp_so3(np.random.default_rng(steps).standard_normal(3) * 2.0)
    path = polyline(np.array([[0.0, 0.0, 0.0], [1.0, 0.5, -0.3], [0.4, 1.2, 0.9]]))
    runs = [transport(natural_form(), path, g0, IntegratorConfig(steps=steps)) for _ in range(2)]
    assert trajectory_bytes(cli._trajectory(runs[0])) == trajectory_bytes(tuple_trajectory(runs[1]))


@st.composite
def quat_requests(draw):
    """A transport, holonomy or section request that is answered, so its output prints quaternions."""
    command = draw(st.sampled_from(["transport", "holonomy", "section"]))
    method = draw(st.sampled_from(["euler", "midpoint"]))
    argv = [command, f"--steps={draw(st.integers(1, 3001))}", f"--method={method}"]

    def vector(n, lo=-2.0, hi=2.0):
        return ",".join(repr(x) for x in draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))

    def point():  # a sphere chart point away from the polar caps, which a path of the sizes below cannot reach
        if "sphere" in connection:
            return f"{draw(st.floats(0.6, 2.5))!r},{draw(st.floats(-3.0, 3.0))!r}"
        return vector(d)

    if command == "section":
        return argv + [f"--point={vector(3, 0.1, 2.0)}"]
    connection = draw(st.sampled_from(tuple(cli._CONNECTIONS)))
    d = 3 if connection == "natural-so3" else 2
    path = draw(st.sampled_from(["circle", "square"] + ["line", "polyline"] * (command == "transport")))
    argv += [f"--connection={connection}", f"--radius={draw(st.floats(0.5, 3.0))!r}", f"--path={path}",
             f"--x0={point()}", f"--eps={draw(st.floats(0.01, 0.4))!r}"]
    if path == "line":
        argv.append(f"--xi={vector(d, -0.4, 0.4)}")
    if path == "polyline":
        argv.append("--points=" + ";".join(point() for _ in range(draw(st.integers(2, 4)))))
    return argv


@SETTINGS
@given(argv=quat_requests())
def test_every_printed_quat_is_unit_signed_and_the_frames_shepperd_quat(argv):
    req = parse_args(argv)
    doc = run(req)
    block = doc["holonomy"]
    if req.command == "section":
        frames, quats = np.array(block["matrix"]).reshape(1, 3, 3), [block["quat"]]
    else:
        form = cli._CONNECTIONS[req.connection](req.radius)
        res = transport(form, cli._build_path(req, form.base_dim), config=cli._config(req))
        frames, quats = res.states[2], [row["quat"] for row in doc["trajectory"]]
        assert block["quat"] == quats[-1]
        assert np.array(block["matrix"]).tobytes() == res.final.tobytes()
    Q = np.array(quats)
    assert np.abs(np.sqrt(np.sum(Q * Q, axis=1)) - 1.0).max() <= 4.5e-16
    assert np.array_equal(canonical_quat(Q), Q)
    assert np.abs(Q - rotation_to_quat(frames)).max() <= 4.5e-16


# The echo of a bare request: all 17 keys, written out here, whatever options the subcommand takes; curvature's
# loop scale and section's point are their own.
BARE_ECHO = {"connection": "natural-so3", "radius": 1.0, "path": "line", "xi": None, "x0": None, "points": None,
             "file": None, "point": None, "eps": 1.0, "steps": None, "method": "midpoint", "format": "json",
             "out": None, "seed": 0, "check": None, "all_checks": False}
OWN_DEFAULTS = {"curvature": {"eps": 0.01}, "section": {"point": [1.0, 0.0, 0.0]}}


@pytest.mark.parametrize("command", COMMANDS)
def test_a_bare_request_echoes_every_key_with_its_subcommands_defaults(command):
    want = {"command": command, **BARE_ECHO, **OWN_DEFAULTS.get(command, {})}
    req = parse_args([command])
    # a bare transport, holonomy or verify is refused when run, so its echo is read from the request as run reads it
    echo = run(req)["request"] if command in OWN_DEFAULTS else dict(vars(req))
    assert len(echo) == 17 and write_result({"request": echo}) == write_result({"request": want})


# the pool's natural-so3 square at --x0 1,2 is refused when run (its points are 3-vectors), so its echo is
# checked under plane-rolling, whose points are 2-vectors
ECHO_ARGVS = [
    *[argv + ["--connection", "plane-rolling"] if "--x0" in argv else argv for argv in PARSE_POOL],
    ["transport", "--connection", "natural-so3", "--path", "line", "--xi", "0,0,1.5707963", "--steps", "1000"],
    ["holonomy", "--connection", "plane-rolling", "--path", "square", "--eps", "1"],
    ["curvature", "--connection", "sphere-outer", "--radius", "2"],
    ["transport", "--path", "polyline", "--points", "0,0,0;1,0.5,-0.3;0.4,1.2,0.9", "--steps", "64"],
]
ECHO_VALUE = {"radius": float, "eps": float, "steps": int, "seed": int,
              **dict.fromkeys(["xi", "x0", "point"], lambda text: [float(c) for c in text.split(",")]),
              "points": lambda text: [[float(c) for c in row.split(",")] for row in text.split(";")]}


@pytest.mark.parametrize("argv", ECHO_ARGVS, ids=" ".join)
def test_the_request_echo_holds_each_given_value_and_the_defaults_of_the_rest(argv):
    given, options = {}, iter(argv[1:])
    for option in options:
        key = option.removeprefix("--")
        given.update({"all_checks": True} if key == "all" else {key: ECHO_VALUE.get(key, str)(next(options))})
    want = {"command": argv[0], **BARE_ECHO, **OWN_DEFAULTS.get(argv[0], {}), **given}
    assert write_result({"request": run(parse_args(argv))["request"]}) == write_result({"request": want})


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


def test_curvature_eps_is_honoured_and_echoed(tmp_path):
    _, default = run_json(["curvature", "--steps", "64"], tmp_path, "default.json")
    code, wide = run_json(["curvature", "--eps", "1.0", "--steps", "64"], tmp_path, "wide.json")
    _, small = run_json(["curvature", "--eps", "0.01", "--steps", "64"], tmp_path, "small.json")
    assert code == 0
    assert default["request"]["eps"] == 0.01 and wide["request"]["eps"] == 1.0
    assert wide["curvature"]["estimate"] != default["curvature"]["estimate"]
    assert small["curvature"] == default["curvature"]


def test_curvature_refuses_a_loop_too_large_to_be_small():
    for argv, reason, given in (
        # natural form, 512 steps: the eps/2 loop's step angles sum to 2 eps = 6
        (["--eps", "3"], "step angles |dt a| sum to 6, at least pi, so its holonomy angle may wrap past pi", ""),
        # eps 6.234 answered with factor -0.000187: the eps/2 loop's angle had wrapped to a small one
        (["--eps", "6.234"], "step angles |dt a| sum to 12.47, at least pi, so its holonomy angle may wrap past pi",
         ""),
        # natural form: step angles sum to 3.0, but the eps/2 loop's holonomy angle is above pi/8
        (["--eps", "1.5"], "holonomy angle 0.538 exceeds pi/8, so the full-size loop's may wrap past pi", ""),
        # the sphere's chart loop has side eps / r = 2, so the refusal names the request's values too
        (["--connection", "sphere-outer", "--radius", "0.5", "--eps", "1.0"],
         "step angles |dt a| sum to 5.626, at least pi, so its holonomy angle may wrap past pi",
         "sphere curvature at --radius 0.5 and --eps 1.0 is refused: its chart loop at (1, 0.3) has side "
         "eps / r = 2, and "),
    ):
        assert capture(["curvature", *argv]) == (
            1, "", f"error: {given}loop too large to be small: the half-size loop's {reason}\n",
        )


def test_curvature_command_sphere(tmp_path):
    code, doc = run_json(
        ["curvature", "--connection", "sphere-outer", "--radius", "2", "--steps", "256"], tmp_path
    )
    assert code == 0
    blk = doc["curvature"]
    assert blk["expected_factor"] == 0.75
    assert abs(blk["factor"] - 0.75) <= 1e-3


@pytest.mark.parametrize("radius", [0.5, 2.0])
def test_curvature_command_prints_the_library_sphere_factor(radius, tmp_path):
    code, doc = run_json(["curvature", "--connection", "sphere-outer", "--radius", str(radius)], tmp_path)
    assert code == 0
    assert doc["curvature"]["factor"] == verify.sphere_curvature_factor(radius)


def test_curvature_command_prints_the_inner_sphere_probe(tmp_path):
    code, doc = run_json(["curvature", "--connection", "sphere-inner", "--radius", "2"], tmp_path)
    est, _, factor, expected = verify.sphere_curvature_probe(2.0, side="inner", eps=1e-2)
    assert code == 0
    assert doc["curvature"]["estimate"] == est.tolist() and doc["curvature"]["factor"] == factor
    assert doc["curvature"]["expected_factor"] == expected == 0.75


def test_pullback_curvature_reads_the_plane_rolling_factor(tmp_path):
    code, doc = run_json(["curvature", "--connection", "pullback-rhoJ"], tmp_path)
    _, plane = run_json(["curvature", "--connection", "plane-rolling"], tmp_path, "plane.json")
    assert code == 0
    assert doc["curvature"]["expected_factor"] == 1.0
    assert abs(doc["curvature"]["factor"] - 1.0) <= 1e-4
    assert abs(doc["curvature"]["factor"] - plane["curvature"]["factor"]) <= 1e-12


@pytest.mark.parametrize("radius", ["1e8", "1e9"])
def test_curvature_answers_while_the_chart_loop_survives_rounding(radius, tmp_path):
    # the chart loop scale is eps / r = 1e-11 at r = 1e9: rounding at the corner moves its sides by 8.3e-8
    code, doc = run_json(["curvature", "--connection", "sphere-outer", "--radius", radius], tmp_path)
    assert code == 0
    assert abs(doc["curvature"]["factor"] - 1.0) <= 2e-5


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


@pytest.mark.parametrize("seed", [0, 7])
def test_single_checks_match_the_battery(seed, tmp_path):
    _, battery = run_json(["verify", "--all", "--seed", str(seed)], tmp_path, "all.json")
    names = [r["name"] for r in battery["reports"]]
    assert names == sorted(name for name, (_, in_all) in verify.CHECKS.items() if in_all)
    assert "span-degenerate" not in names
    for report in battery["reports"]:
        _, single = run_json(["verify", "--check", report["name"], "--seed", str(seed)], tmp_path, "one.json")
        assert single["reports"] == [report]


def test_section_command(tmp_path):
    code, doc = run_json(["section", "--point", "1,0,0"], tmp_path)
    assert code == 0
    sec = doc["section"]
    assert sec["residual"] <= 1e-6
    np.testing.assert_allclose(sec["formula_quat"], [0.0, 0.0, 1.0, 0.0], atol=0.0)
    np.testing.assert_allclose(doc["holonomy"]["angle"], np.pi, atol=1e-6)
    assert doc["reports"][0]["name"] == "section-formula"


@pytest.mark.parametrize("point", ["1,0,0", "0.3,-0.5,0.8", "0,0,-1"])
def test_section_residual_is_the_library_distance(point, tmp_path):
    _, doc = run_json(["section", "--point", point], tmp_path)
    p = np.array(doc["section"]["point"])
    assert doc["section"]["residual"] == verify.section_residual(*verify.unit_sphere_section(p))
    assert doc["reports"][0]["max_residual"] == doc["section"]["residual"]


def test_section_rejects_zero_point(capsys):
    assert main(["section", "--point", "0,0,0"]) == 1


# --method euler without --steps runs each command's own step count as lie-euler: 512 for curvature and
# section, and each verify check its own (test_verify.py pins those counts through the grid)

EULER = IntegratorConfig("lie-euler", 512)
CHECK_STEPS = {"transport-naturality": 10_000, "plane-rolling-span": 64}  # the others: 512, or no transport


@pytest.mark.parametrize("connection", cli._CONNECTIONS)
def test_euler_curvature_without_steps_is_the_library_probe_at_512_steps(connection):
    sphere = connection.startswith("sphere")
    req = parse_args(["curvature", "--connection", connection, "--method", "euler", *(["--radius", "2"] * sphere)])
    if sphere:
        est, ref, factor, expected = verify.sphere_curvature_probe(2.0, connection.split("-")[1], 1e-2, EULER)
    else:
        form = cli._CONNECTIONS[req.connection](req.radius)
        (est, ref, factor), expected = verify.curvature_probe(form, np.zeros(form.base_dim), 1e-2, EULER), 1.0
    want = {"estimate": est.tolist(), "closed_form": ref.tolist(), "factor": factor, "expected_factor": expected}
    assert write_result({"curvature": run(req)["curvature"]}) == write_result({"curvature": want})


def test_euler_section_without_steps_is_the_library_section_at_512_steps():
    computed, formula = verify.unit_sphere_section(np.array([1.0, 0.0, 0.0]), EULER)
    want = {"point": [1.0, 0.0, 0.0], "computed_quat": computed.tolist(), "formula_quat": formula.tolist(),
            "residual": verify.section_residual(computed, formula)}
    assert write_result({"section": run(parse_args(["section", "--method", "euler"]))["section"]}) == \
        write_result({"section": want})


def test_euler_verify_all_without_steps_runs_each_check_at_its_own_count():
    got = run(parse_args(["verify", "--all", "--method", "euler"]))["reports"]
    assert [r["name"] for r in got] == sorted(name for name, (_, in_all) in verify.CHECKS.items() if in_all)
    for report in got:
        cfg = IntegratorConfig("lie-euler", CHECK_STEPS.get(report["name"], 512))
        assert report == dict(vars(verify.run_check(report["name"], 0, cfg))), report["name"]


@pytest.mark.parametrize(
    "argv",
    [
        ["transport", "--xi=1e300,0.1,0.2"],  # the step angle overflows
        ["transport", "--connection=pullback-rhoJ", "--xi=0.1,-1e300"],
        ["section", "--point=nan,0,1"],
        ["section", "--point=0,inf,1"],
        ["transport", "--xi=-inf,0,0"],  # refused when the path is built, before line arithmetic warns
        ["transport", "--path=circle", "--x0=0,nan,0"],
        ["holonomy", "--path=square", "--eps=inf"],
        ["curvature", "--connection=sphere-outer", "--radius=inf"],
    ],
)
def test_non_finite_requests_exit_one_with_empty_stdout(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["transport", "--path", "polyline", "--points", "0,0,0;1e308,-1e308,0", "--steps", "8"], "overflows"),
        (["curvature", "--connection", "sphere-outer", "--radius", "1e200"], "got 1e+200"),  # r^2 overflows
        (["curvature", "--connection", "sphere-outer", "--radius", "1e-200"], "got 1e-200"),  # r^2 underflows
        (["curvature", "--eps", "1e-300"], "eps = 1e-300"),  # the loop area underflows
        (["section", "--point", "1e300,1e300,1e300"], "overflows"),  # a finite point whose norm overflows
        (["section", "--point", "1e-200,0,0"], "norm at least 1e-12"),  # a nonzero point whose norm underflows
        # the chart loop's sides are lost in rounding at the corner: the factor read 1.0428, 0.0 with a warning
        (["curvature", "--connection", "sphere-outer", "--radius", "1e10"], "off by 8.890e-05"),
        (["curvature", "--connection", "sphere-outer", "--radius", "1e12"], "over the bound 1e-06"),
        (["curvature", "--connection", "sphere-outer", "--radius", "1e100"], "over the bound 1e-06"),
        # the natural form is translation invariant, but 1e20 + 1 == 1e20: the angle read 0.0, not 0.9277
        (["holonomy", "--path", "square", "--x0", "1e20,0,0", "--eps", "1"], "over the bound 1e-06"),
        # the circle's speed 2 pi r overflows: numpy warned of inf * 0 before the engine's refusal
        (["holonomy", "--path", "circle", "--eps", "1.7e308", "--steps", "8"], "speed 2 pi r"),
        # the line's end overflows: numpy warned in the line's position
        (["transport", "--connection", "plane-rolling", "--xi=0.001,-1.7976931348623157e308",
          "--x0=2,-1.7976931348623157e308", "--steps", "8"], "reach |x0| + |xi| overflows"),
        # the chart's rolling map overflowed at the start before the chart refused a later node
        (["transport", "--connection", "sphere-outer", "--path", "line", "--xi=-1.7e308,-1.7e308", "--x0", "1.8,32.7",
          "--steps", "8"], "colatitude -1.0625e+307 lies in the polar cap"),
        # a corner of the square overflows: numpy warned before the polyline refused it
        (["holonomy", "--path", "square", "--eps", "1.7e308", "--x0", "0,1.7e308,0", "--steps", "8"],
         "a corner overflows"),
    ],
    ids=["polyline", "radius-1e200", "radius-1e-200", "eps-1e-300", "point-1e300", "point-1e-200",
         "radius-1e10", "radius-1e12", "radius-1e100", "square-x0-1e20", "circle-radius-1.7e308",
         "line-reach-overflows", "sphere-line-1.7e308", "square-corner-overflows"],
)
def test_out_of_range_requests_exit_one_without_a_warning(argv, named, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and named in captured.err


@pytest.mark.parametrize("connection", ["sphere-outer", "sphere-inner"])
@pytest.mark.parametrize("command, path", [("transport", "line"), ("transport", "square"), ("holonomy", "circle"),
                                           ("holonomy", "square")])
@pytest.mark.parametrize("method", ["euler", "midpoint"])
def test_a_sphere_run_without_x0_is_refused_naming_it(connection, command, path, method):
    # the default base point (0, 0) is the chart's pole: a 1-step euler circle around it answered, for a
    # circle whose colatitude goes negative, and every other such run was refused by the polar cap
    argv = [command, f"--connection={connection}", f"--path={path}", "--steps=1", f"--method={method}"]
    argv += ["--xi=0.5,0.2"] if path == "line" else []
    code, out, err = capture(argv)
    assert (code, out) == (1, "")
    assert err == (f"error: --connection {connection} requires --x0 (colatitude, longitude): "
                   "the default (0, 0) is the sphere chart's pole\n")
    assert capture([*argv, "--x0=1.2,0.3"])[0] == 0


@pytest.mark.parametrize("steps", ["1", "2", "64"])
@pytest.mark.parametrize("method", ["euler", "midpoint"])
def test_a_sphere_line_starting_in_the_polar_cap_exits_one(method, steps):
    # every midpoint of these runs lies outside the cap: only the start point is refused
    code, out, err = capture(["transport", "--connection=sphere-outer", "--path=line", "--x0=0.00076,0.3",
                              "--xi=0.5,0.2", f"--method={method}", f"--steps={steps}"])
    assert (code, out) == (1, "")
    assert err.startswith("error: chart tangent at colatitude 0.00076 lies in the polar cap")


@pytest.mark.parametrize(
    "radius, eps",
    [
        ("1e-100", "0.01"),  # eps / r = 1e98 reached colatitude 1.95e95, printed with 96 digits
        ("5e9", "0.01"),  # the message named only the chart corner [1.0, 0.3] and eps / 2r = 1e-12
        ("2", "-1"),  # the message said "got -0.5" and did not say that this is eps / r
        ("2", "1e300"),
        ("1e-200", "0.01"),
    ],
)
def test_sphere_curvature_refusals_name_the_radius_and_eps_as_given(radius, eps):
    code, out, err = capture(["curvature", "--connection", "sphere-outer", "--radius", radius, "--eps", eps])
    assert (code, out) == (1, "")
    assert f"--radius {float(radius)!r} and --eps {float(eps)!r}" in err
    digits = [m.replace(".", "").lstrip("0") for m in re.findall(r"\d[\d.]*", err)]
    assert max(map(len, digits)) <= 17


@pytest.mark.parametrize("side", ["outer", "inner"])
def test_sphere_curvature_at_tiny_radii_answers_finitely_or_names_the_radius(side):
    # d @ d goes as r^4 in the factor, so it underflowed below r = 1e-80: a RuntimeWarning, then json's message
    for k in range(60, 154):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = capture(["curvature", f"--connection=sphere-{side}", f"--radius=1e-{k}", f"--eps=1e-{k}"])
        if code == 0:
            assert math.isfinite(json.loads(out)["curvature"]["factor"]), k
        else:
            assert (code, out) == (1, "") and err.startswith("error:") and "--radius" in err, (k, err)


# floats at the ends of the float range: signed zeros, subnormals, 1e+-154 (whose squares
# leave the normal range), 1e+-300 and the largest float, with their negatives
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-154, 1e154, 1e-300, 1e300, -1e300, 1.7976931348623157e308,
               -1.7976931348623157e308]
SWEEP_FLOATS = st.sampled_from(EDGE_FLOATS) | st.floats(-4.0, 4.0) | st.floats(1e-3, 16.0)
LOOP_SCALES = SWEEP_FLOATS | st.floats(-3.0, 12.0).map(lambda k: 10.0**k)  # and log-uniform sizes for --eps
FLAT = ("natural-so3", "plane-rolling", "pullback-rhoJ")
# The sweep's sphere factors, against 1 - 1/r^2, relative to max(1, |1 - 1/r^2|): the answers run from loops as large
# as the wrap guards admit, and the worst measured over the answerable region (radii 1e-3 to 1e3, loop sides eps / r
# to 4) is 0.61, at r = 0.71 and eps / r = 0.95 with one Euler step; over 3,000 derandomized sweep-like draws it is 0.20.
SPHERE_FACTOR_BOUND = 0.75
# Derandomized profiles (tier-1) draw the sweep from this fixed seed, not from a digest of the test's source, so an
# edit to its body keeps the drawn requests. Other profiles draw from --hypothesis-seed, which a @seed would override.
SWEEP_DRAWS = seed(0) if settings.default.derandomize else (lambda test: test)


@st.composite
def sweep_requests(draw):
    """A well-formed request for transport, holonomy, curvature or section, with edge-of-range values."""
    command = draw(st.sampled_from(["transport", "holonomy", "curvature", "section"]))
    vector = lambda n: ",".join(repr(x) for x in draw(st.lists(SWEEP_FLOATS, min_size=n, max_size=n)))
    argv = [command, f"--steps={draw(st.integers(1, 300))}", f"--method={draw(st.sampled_from(['euler', 'midpoint']))}"]
    if command == "section":
        return argv + [f"--point={vector(3)}"]
    connection = draw(st.sampled_from(tuple(cli._CONNECTIONS)))
    argv += [f"--connection={connection}", f"--radius={draw(SWEEP_FLOATS)!r}", f"--eps={draw(LOOP_SCALES)!r}"]
    if command == "curvature":
        return argv
    d = 3 if connection == "natural-so3" else 2
    path = draw(st.sampled_from(["line", "circle", "square", "polyline"]))
    argv += [f"--path={path}", f"--x0={vector(d)}"]
    if path == "line":
        argv.append(f"--xi={vector(d)}")
    if path == "polyline":
        argv.append("--points=" + ";".join(vector(d) for _ in range(draw(st.integers(2, 4)))))
    return argv


def path_vertices(req):
    """The vertices of a square or polyline request, one row each, as the library forms them (the square is
    ``parallelogram_loop(x0, e1, e2, eps)``)."""
    if req["path"] == "polyline":
        return np.array(req["points"])
    d = 3 if req["connection"] == "natural-so3" else 2
    x, (u, v), eps = np.zeros(d) if req["x0"] is None else np.array(req["x0"]), np.eye(d)[:2], req["eps"]
    return np.array([x, x + eps * u, x + eps * u + eps * v, x + eps * v, x])


def segment_increments(req):
    """The increments c(t_{k+1}) - c(t_k) over the segments of a line, square or polyline request, one row each."""
    return np.array([req["xi"]]) if req["path"] == "line" else np.diff(path_vertices(req), axis=0)


# where each CLI method samples its interval, as a fraction of the interval: stated here, not read from the library
SAMPLE_POINT = {"euler": 0.0, "midpoint": 0.5}


def circle_product(req):
    """The stepper's own product around a circle request under a flat form, in closed form.

    The circle of radius r in the first two axes gives a(t) = Rz(2 pi t) a0, with a0 = (0, 2 pi r, 0) for the
    natural form and (2 pi r, 0, 0) for the plane forms. With n steps, d = 2 pi / n, E = exp(a0 / n) and the
    samples at theta_k = (k + s) d, the product exp(a_{n-1} / n) ... exp(a_0 / n) is
    Rz(theta_{n-1}) E (Rz(-d) E)^(n-1) Rz(-theta_0)."""
    n, s, speed = req["steps"], SAMPLE_POINT[req["method"]], 2.0 * np.pi * req["eps"]
    a0 = np.array([0.0, speed, 0.0] if req["connection"] == "natural-so3" else [speed, 0.0, 0.0])
    d, E = 2.0 * np.pi / n, CF.rodrigues(a0 / n)
    return CF.rz((n - 1 + s) * d) @ E @ np.linalg.matrix_power(CF.rz(-d) @ E, n - 1) @ CF.rz(-s * d)


def chart_path(req):
    """``(at, corners)`` for a transport or holonomy request: ``at(t)`` is the path's position and velocity at t, and
    ``corners`` its vertex times. A polyline's vertices sit at uniform times, as the square's four sides do."""
    x0, eps, tau = np.array(req["x0"]), req["eps"], 2.0 * np.pi
    if req["path"] == "line":
        xi = np.array(req["xi"])
        return lambda t: (x0 + xi * t, xi), ()
    if req["path"] == "circle":
        return lambda t: (x0 + eps * np.array([np.cos(tau * t), np.sin(tau * t)]),
                          eps * tau * np.array([-np.sin(tau * t), np.cos(tau * t)])), ()
    P = path_vertices(req)
    T = np.linspace(0.0, 1.0, len(P))
    slopes = np.diff(P, axis=0) / np.diff(T)[:, None]

    def at(t):
        k = min(int(np.searchsorted(T, t, side="right")) - 1, len(P) - 2)
        return P[k] + (t - T[k]) * slopes[k], slopes[k]

    return at, T[1:-1]


def sphere_chart_transport(req):
    """The frame a sphere request's chart path transports, and the sum of its step angles |dt a|: the stepped product
    of a = -omega_c(t)(c'(t)) from ``closed_forms.sphere_algebra`` over the CLI's grid, with the path's corners."""
    at, corners = chart_path(req)
    side = req["connection"].removeprefix("sphere-")

    def algebra(t):
        (theta, phi), v = at(t)
        return CF.sphere_algebra(req["radius"], side, theta, phi, v)

    return stepped_product(algebra, sequential_grid(req["steps"], corners), SAMPLE_POINT[req["method"]])


def _reject_constant(name):
    raise AssertionError(f"non-finite number {name} in the output")


@SWEEP_DRAWS
@settings(deadline=None)  # the example count and derandomization come from the loaded profile (conftest.py)
@given(argv=sweep_requests())
@example(argv=["curvature", "--steps=512", "--method=midpoint", "--connection=natural-so3", "--radius=1.0",
               "--eps=6.234"])  # answered with factor -0.000187 before the step-angle test
@example(argv=["curvature", "--steps=1", "--method=euler", "--connection=sphere-outer", "--radius=1e-154",
               "--eps=1e-154"])  # |d|^2 underflowed in the factor: a RuntimeWarning, then json's message
@example(argv=["transport", "--steps=1", "--method=euler", "--path=line", "--x0=0,0,0",
               "--xi=0,1e154,1e154"])  # a correct answer whose |xi| overflowed in the oracle's gate
@example(argv=["curvature", "--steps=64", "--method=midpoint", "--connection=sphere-inner", "--radius=2.0",
               "--eps=0.01"])  # an ordinary sphere factor, so that every run checks one against 1 - 1/r^2
@example(argv=["holonomy", "--connection=natural-so3", "--path=circle", "--eps=0.3", "--steps=64",
               "--method=midpoint"])  # a circle whose two methods' holonomies differ, so the sample point is checked
@example(argv=["holonomy", "--connection=plane-rolling", "--path=square", "--eps=0.5", "--steps=7",
               "--method=euler"])  # corners off the uniform grid, so the corner merge is checked
@example(argv=["transport", "--connection=sphere-outer", "--radius=2.0", "--path=line", "--x0=1.1,0.4",
               "--xi=0.2,0.3", "--steps=64", "--method=midpoint"])  # an ordinary sphere chart line
@example(argv=["holonomy", "--connection=sphere-inner", "--radius=0.5", "--path=square", "--x0=1.1,0.4",
               "--eps=0.3", "--steps=7", "--method=euler"])  # a sphere chart square whose corners are off the grid
def test_every_request_is_answered_correctly_or_refused(argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = capture(argv)
    assert code in (0, 1, 2)
    if code == 1:
        assert out == "" and err.startswith("error:") and err.count("\n") == 1 and err.endswith("\n")
        digits = [m.replace(".", "").lstrip("0") for m in re.findall(r"\d[\d.]*", err)]
        assert max(map(len, digits), default=0) <= 17
        return
    doc = json.loads(out, parse_constant=_reject_constant)
    for row in doc["trajectory"]:
        assert abs(np.dot(row["quat"], row["quat"]) - 1.0) <= 1e-12
    req = doc["request"]
    if req["command"] in ("transport", "holonomy") and req["connection"] in FLAT and req["path"] != "circle":
        # the input is constant on each segment and the corners are grid nodes, so both methods are exact: the
        # transport is the ordered product of the segments' exponentials, of a = delta for the natural form
        # and a = (delta_2, -delta_1, 0) for the two plane forms
        with np.errstate(over="ignore", invalid="ignore"):  # vertices near the float range
            deltas = segment_increments(req)
            # a larger angle is not resolved in float64; the max first, as a norm itself may overflow
            exact = np.isfinite(deltas).all() and np.abs(deltas).max() <= 100.0
            exact = exact and (np.linalg.norm(deltas, axis=1) <= 100.0).all()
        if exact:
            a = deltas if req["connection"] == "natural-so3" else [(d2, -d1, 0.0) for d1, d2 in deltas]
            assert np.abs(np.reshape(doc["holonomy"]["matrix"], (3, 3)) - CF.ordered_product(a)).max() <= 1e-9
    if req["command"] in ("transport", "holonomy") and req["connection"] in FLAT and req["path"] == "circle":
        if 2.0 * np.pi * req["eps"] <= 100.0:  # a larger total angle is not resolved in float64
            assert np.abs(np.reshape(doc["holonomy"]["matrix"], (3, 3)) - circle_product(req)).max() <= 1e-9
    if req["command"] in ("transport", "holonomy") and req["connection"] not in FLAT:
        with np.errstate(all="ignore"):  # samples near the float range; gated just below
            want, angles = sphere_chart_transport(req)
        if angles <= 100.0:  # and finite: a larger total angle is not resolved in float64
            assert np.abs(np.reshape(doc["holonomy"]["matrix"], (3, 3)) - want).max() <= 1e-9
    if req["command"] == "section" and code == 0:
        section = doc["section"]
        assert CF.sign_free_distance(section["computed_quat"], CF.section_formula(section["point"])) <= 1e-6
    if req["command"] == "curvature" and req["connection"] in FLAT:
        assert abs(doc["curvature"]["factor"] - doc["curvature"]["expected_factor"]) <= 0.15
    if req["command"] == "curvature" and req["connection"] not in FLAT:
        # both sphere sides; the exact factor from the radius as requested, not from the output
        r = float(next(a for a in argv if a.startswith("--radius=")).split("=", 1)[1])
        exact = 1.0 - 1.0 / (r * r)
        assert abs(doc["curvature"]["factor"] - exact) <= SPHERE_FACTOR_BOUND * max(1.0, abs(exact))


def test_write_result_refuses_non_finite_numbers():
    with pytest.raises(ValueError):
        write_result({"holonomy": {"angle": float("nan")}})
    row = {"t": 0.0, "x": [float("inf")], "quat": [1.0, 0.0, 0.0, 0.0]}
    with pytest.raises(ValueError, match="non-finite"):
        write_result({"trajectory": [row]}, fmt="csv")
    finite = {"t": 0.5, "x": [0.0, -1.0], "quat": [1.0, 0.0, -0.0, 0.0]}
    assert write_result({"trajectory": [finite]}, fmt="csv").count("\n") == 2
    for key, index, bad in [("t", None, float("nan")), ("t", None, -math.inf), ("quat", 2, float("nan")),
                            ("quat", 0, -math.inf)]:
        row = {**finite, key: bad if index is None else [*finite[key][:index], bad, *finite[key][index + 1:]]}
        with pytest.raises(ValueError, match=re.escape(f"non-finite value in trajectory row at t = {row['t']!r}")):
            write_result({"trajectory": [finite, row]}, fmt="csv")


@pytest.mark.parametrize("argv", [
    ["transport", "--connection", "sphere-outer", "--radius", "2", "--x0", "1.1,0.4", "--path", "line", "--xi", "0,3",
     "--steps", "1025"],
    ["curvature", "--connection", "sphere-inner", "--radius", "0.5"],
    ["verify", "--all", "--seed", "6"],
    ["section", "--point", "0,0,-1"],
], ids=["transport", "curvature", "verify", "section"])
def test_json_text_is_the_text_with_circular_reference_checks(argv):
    # run builds no circular document, so the encoder's id tracking, which write_result turns off, changes no byte
    doc = run(parse_args(argv))
    want = json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False, check_circular=True) + "\n"
    assert write_result(doc) == want


def test_a_non_finite_json_number_is_refused_by_its_key_path(capsys, monkeypatch):
    doc = run(parse_args(["transport", "--xi", "0.3,-0.7,0.5", "--steps", "8"]))
    doc["curvature"] = {"estimate": [0.0, 0.0, 1.0], "factor": float("nan")}
    with pytest.raises(ValueError, match=r"^curvature\.factor is not finite$"):
        write_result(doc)
    doc["curvature"]["factor"] = 1.0
    doc["trajectory"][3]["quat"][2] = -math.inf
    doc["trajectory"][5]["t"] = math.inf  # later in the document: the first in JSON's order is named
    with pytest.raises(ValueError, match=r"^trajectory\[3\]\.quat\[2\] is not finite$"):
        write_result(doc)
    # through main: exit 1, empty stdout, and the key path on the error line
    monkeypatch.setattr("liecurv.cli.run", lambda req: doc)
    assert main(["transport", "--xi", "0.3,-0.7,0.5", "--steps", "8"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: trajectory[3].quat[2] is not finite\n"


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
    with pytest.raises(ValueError, match=re.escape("row 3: could not convert string to float: 'abc'")):
        read_path_file(write_csv(tmp_path, "t,x1\n0,0\n0.5,abc\n1,1\n"))


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
        run(argparse.Namespace(command="bogus"))


def test_run_refuses_an_unknown_path():
    req = parse_args(["transport", "--xi=1,0,0"])
    req.path = "helix"  # argparse's choices let no such request through
    with pytest.raises(ValueError, match=r"^unknown path 'helix'$"):
        run(req)
