"""CLI behaviour: subcommands, exit codes, JSON report stability."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from lprime.cli import _parse, _scan, build_parser, run
from lprime.periodic import PeriodicFunction


@pytest.fixture
def zero9(tmp_path):
    path = tmp_path / "zero9.json"
    path.write_text(PeriodicFunction(q=9, values={}).dumps())
    return str(path)


@pytest.fixture
def golden5(tmp_path):
    path = tmp_path / "golden5.json"
    path.write_text(PeriodicFunction(q=5, values={1: 1, 2: -1, 3: -1, 4: 1}).dumps())
    return str(path)


@pytest.fixture
def one1(tmp_path):
    path = tmp_path / "one1.json"
    path.write_text(PeriodicFunction(q=1, values={1: 1}).dumps())
    return str(path)


def run_json(capsys, argv):
    code = run(argv + ["--output", "json"])
    out = capsys.readouterr().out
    return code, out


def test_eval_zero_function(capsys, zero9):
    code, out = run_json(capsys, ["eval", "--fn", zero9, "--s", "0"])
    assert code == 0
    data = json.loads(out)
    assert data["method"] == "ClosedForm0"
    assert mpf(data["value"]) == 0
    assert json.dumps(data) == out.strip()


def test_eval_golden_ratio(capsys, golden5):
    code, out = run_json(capsys, ["eval", "--fn", golden5, "--s", "0", "--digits", "45"])
    assert code == 0
    data = json.loads(out)
    assert data["digits"] == 45
    with mp.workprec(200):
        expected = mpf("0.48121182505960344749775891342436842313518433438566")
        assert abs(mpf(data["value"]) - expected) < mpf(10) ** -40


def test_eval_l_value(capsys, one1):
    code, out = run_json(capsys, ["eval", "--fn", one1, "--s", "2"])
    assert code == 0
    data = json.loads(out)
    assert data["method"] == "HurwitzSum"
    with mp.workprec(200):
        assert abs(mpf(data["value"]) - mp.pi**2 / 6) < mpf(10) ** -45


def test_eval_text_labels(capsys, golden5):
    # the text report names the derivative at s = 0 and the value elsewhere
    assert run(["eval", "--fn", golden5, "--s", "0", "--digits", "10"]) == 0
    assert capsys.readouterr().out == "L'(0, f) = 0.4812118251  [ClosedForm0, 10 digits]\n"
    assert run(["eval", "--fn", golden5, "--s", "2", "--digits", "10"]) == 0
    assert capsys.readouterr().out.startswith("L(2, f) = ")


def test_bounds_are_inclusive(capsys, golden5):
    # each bound takes its own value and refuses the next: |s| = MAX_S,
    # --digits MAX_DIGITS and q = MAX_Q
    for s in ("1000", "-1000"):
        assert run(["eval", "--fn", golden5, f"--s={s}", "--digits", "10"]) == 0, s
    assert run(["identity", "--q", "3", "--digits", "2000"]) == 0
    assert run(["classify", "--q", "1000000"]) == 0
    capsys.readouterr()
    assert run(["eval", "--fn", golden5, "--s=1001", "--digits", "10"]) == 2
    assert run(["identity", "--q", "3", "--digits", "2001"]) == 2
    assert run(["classify", "--q", "1000001"]) == 2
    err = capsys.readouterr().err
    assert "within -1000..1000" in err and "within 10..2000" in err and "q <= 1000000" in err


def test_rank_text_names_the_certificate(capsys, tmp_path):
    golden = PeriodicFunction(q=5, values={1: 1, 2: -1, 3: -1, 4: 1})
    paths = []
    for i, f in enumerate((golden, PeriodicFunction(q=5, values={a: 2 * v for a, v in golden.values.items()}))):
        paths.append(tmp_path / f"f{i}.json")
        paths[-1].write_text(f.dumps())
    assert run(["rank", "--fns", str(paths[0])]) == 0
    assert capsys.readouterr().out == "rank 1 of 1 function(s); independent\n"
    assert run(["rank", "--fns", *map(str, paths)]) == 0
    assert capsys.readouterr().out == "rank 1 of 2 function(s); dependent\ncertificate: [2, -1]\n"


def test_eval_pole_exit_code(capsys, golden5):
    assert run(["eval", "--fn", golden5, "--s", "1"]) == 1


def test_eval_missing_file(capsys):
    assert run(["eval", "--fn", "/nonexistent.json", "--s", "0"]) == 2


def test_path_with_nul_byte_exits_2(capsys):
    # open() raises ValueError, not OSError, for such a path
    assert run(["eval", "--fn", "f\x00.json", "--s", "0"]) == 2
    assert run(["rank", "--fns", "f\x00.json"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_eval_malformed_json(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"q": 5, "values": {}, "spurious": 3}')
    assert run(["eval", "--fn", str(bad), "--s", "0"]) == 2


def _function_file_exit(tmp_path, command, content: bytes) -> int:
    path = tmp_path / "f.json"
    path.write_bytes(content)
    if command == "eval":
        return run(["eval", "--fn", str(path), "--s", "0"])
    return run(["rank", "--fns", str(path)])


@pytest.mark.parametrize("command", ["eval", "rank"])
def test_non_utf8_function_file_exit(capsys, tmp_path, command):
    assert _function_file_exit(tmp_path, command, b'\xff\xfe{"q": 5}') == 2
    assert "is not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "rank"])
def test_deeply_nested_json_exit(capsys, tmp_path, command):
    # nesting past the parser's recursion limit is rejected input
    depth = 100_000
    for content in (b"[" * depth + b"]" * depth, b'{"q": ' * depth + b"5" + b"}" * depth):
        assert _function_file_exit(tmp_path, command, content) == 2
        assert "nested too deeply" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "rank"])
def test_oversized_json_integer_exit(capsys, tmp_path, command):
    # an integer past Python's int-string digit limit, as the period or
    # under an unknown key, is rejected input, not a traceback
    huge = "9" * (sys.get_int_max_str_digits() + 700)
    for text in ('{"q": %s, "values": {}}' % huge, '{"q": 5, "values": {}, "other": %s}' % huge):
        assert _function_file_exit(tmp_path, command, text.encode()) == 2
        assert f"over {sys.get_int_max_str_digits()} digits" in capsys.readouterr().err


def test_unknown_subcommand(capsys):
    assert run(["frobnicate"]) == 2


def test_unknown_flag(capsys):
    assert run(["classify", "--q", "9", "--frob"]) == 2
    # a subcommand's argv is parsed by its own parser, whose usage line is printed
    assert "lprime classify: error: unrecognized arguments: --frob" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code", [([], 2), (["frobnicate"], 2), (["--help"], 0), (["classify", "-h"], 0)])
def test_full_parser_exit_codes(capsys, argv, code):
    # no subcommand, an unknown one and a top-level -h go through the full parser
    assert run(argv) == code


@pytest.mark.parametrize("argv", [
    ["eval", "--fn", "f.json", "--s=-1/2", "--digits", "30", "--output", "json"],
    ["eval", "--s", "2", "--fn", "a.json", "--fn", "b.json", "--dig", "12"],
    ["classify", "--q", "155"],
    ["classify", "--q=7", "--output=json", "--q", "9"],
    ["identity", "--q", "45", "--digits", "20"],
    ["relations", "--q", "55", "--max", "4", "--extended"],
    ["witness", "--q", "155", "--c=-3/2"],
    ["rank", "--fns", "a.json", "b.json", "--output", "text"],
    ["rank", "--output", "json", "--fns", "a.json", "--", "b.json"],
    ["classify", "--", "--q", "5"],
    ["classify", "--q", "x"],
    ["identity", "--q", "5", "--"],
    ["classify", "--q="],
    ["relations", "--q", "15", "--extended=1"],
    ["identity", "--q", "-5"],
    ["classify", "--q", "9", "--output", "xml"],
    ["identity", "--q", "5", "--q", "7"],
])
def test_one_parse_reads_what_the_full_parser_reads(capsys, argv):
    assert _parse_outcome(_parse, argv) == _parse_outcome(build_parser()[0].parse_args, argv)


@pytest.mark.parametrize("argv", [
    ["classify", "--q", "155"],
    ["identity", "--output=json", "--q", "45", "--digits", "20"],
    ["relations", "--q=55", "--extended", "--max-coeff", "4", "--output", "text"],
    ["witness", "--c=-3/2", "--q", "155"],
    ["eval", "--fn", "f.json", "--s=-1/2", "--digits", "30"],
])
def test_plain_argv_is_read_without_argparse(argv):
    parser, _, flags = build_parser()
    assert _scan(argv[1:], flags[argv[0]], argv[0]) == parser.parse_args(argv)


def _parse_outcome(parse, argv):
    """The namespace, or the exit code."""
    try:
        return vars(parse(argv))
    except SystemExit as exc:
        return exc.code


def test_bad_digits(capsys, zero9):
    assert run(["eval", "--fn", zero9, "--s", "0", "--digits", "3"]) == 2


def test_bad_max_coeff(capsys):
    assert run(["relations", "--q", "21", "--max-coeff", "0"]) == 2


def test_negative_rational_as_separate_argument(capsys, golden5):
    for head, flag, value in ((["eval", "--fn", golden5, "--digits", "30"], "--s", "-1/2"),
                              (["witness", "--q", "55", "--digits", "30"], "--c", "-3/2")):
        joined = run_json(capsys, head + [f"{flag}={value}"])
        split = run_json(capsys, head + [flag, value])
        assert joined[0] == 0 and split == joined
    assert run(["eval", "--fn", golden5, "--s", "-x/y"]) == 2
    assert "--s expects a rational" in capsys.readouterr().err


def test_classify_json_round_trip(capsys):
    code, out = run_json(capsys, ["classify", "--q", "155"])
    assert code == 0
    data = json.loads(out)
    assert data["case"] == "Uncovered"
    assert len(data["trace"]) >= 3
    # byte-identical re-serialization (stable key order)
    assert json.dumps(data) == out.strip()


def test_classify_text(capsys):
    assert run(["classify", "--q", "12"]) == 0
    out = capsys.readouterr().out
    assert "PeiFeng(I,1)" in out


def test_identity_command(capsys):
    code, out = run_json(capsys, ["identity", "--q", "9", "--digits", "30"])
    assert code == 0
    data = json.loads(out)
    with mp.workprec(200):
        assert abs(mpf(data["log_sum"]) - mp.log(3)) < mpf(10) ** -25


def test_relations_none(capsys):
    code, out = run_json(capsys, ["relations", "--q", "9", "--max-coeff", "1000"])
    assert code == 0
    assert json.loads(out)["relation"] is None


def test_relations_found(capsys):
    code, out = run_json(capsys, ["relations", "--q", "21", "--max-coeff", "10", "--digits", "60"])
    assert code == 0
    data = json.loads(out)
    assert data["relation"]["verified_at_2d"] is True
    assert data["relation"]["coefficients"] == {str(a): 1 for a in (1, 2, 4, 5, 8, 10)}
    assert json.dumps(data) == out.strip()


def test_relations_extended_composite(capsys):
    # q = 77: a 32-value extended basis whose relation is the sine identity
    code, out = run_json(capsys, ["relations", "--q", "77", "--extended"])
    assert code == 0
    data = json.loads(out)
    rel = data["relation"]
    assert rel is not None and rel["verified_at_2d"] is True
    assert (rel["pi"], rel["log2"]) == (0, 0)
    assert set(rel["coefficients"].values()) == {1}
    assert json.dumps(data) == out.strip()


def test_relations_extended_text(capsys):
    # at q = 8 the half-support log-sines sum to (1/2) log 2
    assert run(["relations", "--q", "8", "--extended"]) == 0
    assert capsys.readouterr().out == (
        "verified relation for q = 8:\n"
        "  a=1: 2\n"
        "  a=3: 2\n"
        "  pi: 0, log2: -1\n"
        "  residual 0.0 at 50 digits, 0.0 at 100 digits\n")


def test_witness_command(capsys):
    code, out = run_json(capsys, ["witness", "--q", "55", "--c", "0", "--digits", "60"])
    assert code == 0
    data = json.loads(out)
    assert data["p1"] == 5 and data["p2"] == 11 and data["half_sum"] == -1
    assert mpf(data["residual"]) < mpf(10) ** -50
    f = PeriodicFunction.from_json_dict(data["f"])
    assert f(2) == -2
    assert json.dumps(data) == out.strip()  # byte-identical round-trip


def test_witness_not_admissible_exit(capsys):
    assert run(["witness", "--q", "105", "--c", "0"]) == 2


def test_witness_bad_rational(capsys):
    assert run(["witness", "--q", "55", "--c", "x/y"]) == 2


def test_rank_command(capsys, tmp_path):
    paths = []
    for name, values in (("f", {1: 1, 8: 1}), ("g", {1: 2, 8: 2}), ("h", {2: 1, 7: 1})):
        p = tmp_path / f"{name}.json"
        p.write_text(PeriodicFunction(q=9, values=values).dumps())
        paths.append(str(p))
    code, out = run_json(capsys, ["rank", "--fns", *paths])
    assert code == 0
    data = json.loads(out)
    assert data["rank"] == 2 and data["independent"] is False
    assert data["certificate"] == [2, -1, 0]
    assert json.dumps(data) == out.strip()


def test_rank_validation_exit(capsys, tmp_path):
    p = tmp_path / "f12.json"
    p.write_text(PeriodicFunction(q=12, values={1: 1, 11: 1}).dumps())
    assert run(["rank", "--fns", str(p)]) == 2


def test_env_var_default_and_flag_priority(capsys, zero9, monkeypatch):
    monkeypatch.setenv("LPRIME_DIGITS", "20")
    code, out = run_json(capsys, ["eval", "--fn", zero9, "--s", "0"])
    assert code == 0 and json.loads(out)["digits"] == 20
    code, out = run_json(capsys, ["eval", "--fn", zero9, "--s", "0", "--digits", "35"])
    assert code == 0 and json.loads(out)["digits"] == 35
    monkeypatch.setenv("LPRIME_DIGITS", "nope")
    assert run(["eval", "--fn", zero9, "--s", "0"]) == 2


def test_exact_subcommands_take_no_precision(capsys, tmp_path, monkeypatch):
    # classify and rank compute no number: a malformed LPRIME_DIGITS changes
    # neither their exit code nor their reports, and they reject --digits
    path = tmp_path / "f.json"
    path.write_text(PeriodicFunction(q=9, values={1: 1, 8: 1}).dumps())
    commands = [["classify", "--q", str(q), "--output", output]
                for q in (5, 12) for output in ("text", "json")]
    commands += [["rank", "--fns", str(path), str(path), "--output", output]
                 for output in ("text", "json")]

    def reports():
        outs = []
        for argv in commands:
            assert run(argv) == 0, argv
            outs.append(capsys.readouterr().out)
        return outs

    monkeypatch.delenv("LPRIME_DIGITS", raising=False)
    expected = reports()
    monkeypatch.setenv("LPRIME_DIGITS", "abc")
    assert reports() == expected
    assert run(["classify", "--q", "5", "--digits", "50"]) == 2
    assert run(["rank", "--fns", str(path), "--digits", "50"]) == 2


ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv, bound", [
    (["eval", "--fn", "{huge}", "--s", "0"], "over 1000 digits or an exponent beyond it"),
    (["identity", "--q", "7", "--digits", "99999999999"], "within 10..2000"),
    (["classify", "--q", "999999000001"], "q <= 1000000"),
    (["eval", "--fn", "{golden}", "--s", "1e999", "--digits", "30"], "within -1000..1000"),
    (["eval", "--fn", "{golden}", "--s", "-1e999", "--digits", "30"], "within -1000..1000"),
    (["eval", "--fn", "{golden}", "--s", "-1e6", "--digits", "30"], "within -1000..1000"),
], ids=["eval-value-exponent", "identity-digits", "classify-q", "eval-s-1e999", "eval-s--1e999", "eval-s--1e6"])
def test_unbounded_input_exits_2_at_once(tmp_path, capsys, argv, bound):
    # without their bounds the first two ran for minutes (10^999999999
    # expanded, a sine walk at 10^11 digits), the third exited 1 with a
    # MemoryError, and each --s ran past 10 s; each now exits 2 before any
    # work, naming its bound
    path = tmp_path / "huge.json"
    path.write_text('{"q": 5, "values": {"1": "1e999999999", "4": "1e999999999"}}')
    golden = tmp_path / "golden.json"
    golden.write_text(PeriodicFunction(q=5, values={1: 1, 2: -1, 3: -1, 4: 1}).dumps())
    argv = [arg.format(huge=path, golden=golden) for arg in argv]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-m", "lprime.cli", *argv], env=env,
                            capture_output=True, text=True, timeout=10)
    assert result.returncode == 2, result.stderr
    assert bound in result.stderr and "Traceback" not in result.stderr, result.stderr
    start = time.perf_counter()
    assert run(argv) == 2
    assert time.perf_counter() - start < 1
    assert bound in capsys.readouterr().err


def test_bounds_admit_large_inputs(tmp_path, capsys):
    # the bounds lie far above the inputs the library is run on: 600
    # digits, a one-residue f at q = 10^7, and values of 10^400
    sparse = tmp_path / "sparse.json"
    sparse.write_text(PeriodicFunction(q=10**7, values={1: 1}).dumps())
    large = tmp_path / "large.json"
    large.write_text(json.dumps({"q": 12, "values": {str(a): "1e400" for a in (1, 5, 7, 11)}}))
    digits = tmp_path / "digits.json"
    digits.write_text(json.dumps({"q": 12, "values": {str(a): "1" + "0" * 400 for a in (1, 5, 7, 11)}}))
    for argv in (["eval", "--fn", str(sparse), "--s", "2", "--digits", "20"],
                 ["eval", "--fn", str(large), "--s", "0", "--digits", "20"],
                 ["eval", "--fn", str(digits), "--s", "0", "--digits", "20"],
                 ["identity", "--q", "7", "--digits", "600"]):
        code, out = run_json(capsys, argv)
        assert code == 0, argv
    with mp.workdps(620):
        assert abs(mpf(json.loads(out)["log_sum"]) - mp.log(7)) < mpf(10) ** -590


# ---------------------------------------------------------------------------
# Every argv ends in an exit code

@pytest.fixture(scope="module")
def function_files(tmp_path_factory):
    """Paths that ``--fn`` and ``--fns`` may name: valid, odd, malformed, not UTF-8, missing."""
    root = tmp_path_factory.mktemp("argv")
    contents = {
        "golden5.json": PeriodicFunction(q=5, values={1: 1, 2: -1, 3: -1, 4: 1}).dumps(),
        "units12.json": PeriodicFunction(q=12, values={a: 1 for a in (1, 5, 7, 11)}).dumps(),
        "odd5.json": PeriodicFunction(q=5, values={1: 1}).dumps(),
        "malformed.json": '{"q": 5, "values": {"1": "x"}}',
    }
    for name, text in contents.items():
        (root / name).write_text(text)
    (root / "latin1.json").write_bytes(b'{"q": 5, "values": {"1": "\xe9"}}')
    return [str(root / name) for name in (*contents, "latin1.json", "missing.json")]


def _rational_text(num: int, den: int) -> str:
    return f"{num}/{den}" if den > 1 else str(num)


_text = st.text(max_size=12)
_small_rational = st.builds(_rational_text, st.integers(-20, 20), st.integers(1, 6))
#: Small in-range flag values that run quickly.
_IN_RANGE = {
    "--q": st.integers(-3, 199).map(str),
    "--digits": st.integers(0, 60).map(str),
    "--output": st.sampled_from(["text", "json"]),
    "--s": _small_rational,
    "--c": _small_rational,
    "--max-coeff": st.integers(-2, 1000).map(str),
}
# flag values: arbitrary text, or small in-range values
_VALUES = {flag: values | _text for flag, values in _IN_RANGE.items()}
_FLAGS = {
    "eval": ["--fn", "--s", "--digits", "--output"],
    "classify": ["--q", "--output"],
    "identity": ["--q", "--digits", "--output"],
    "relations": ["--q", "--max-coeff", "--extended", "--digits", "--output"],
    "witness": ["--q", "--c", "--digits", "--output"],
    "rank": ["--fns", "--output"],
}


def test_drawn_argv_covers_every_flag():
    # a flag added to a subcommand is drawn by the argv tests below
    flags = build_parser()[2]
    assert {command: sorted(names) for command, names in flags.items()} == \
        {command: sorted(names) for command, names in _FLAGS.items()}


@pytest.mark.parametrize("command", sorted(_FLAGS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_argv_ends_in_an_exit_code(function_files, command, data):
    # each flag appears, is left out or is repeated; a value is a file,
    # arbitrary text, or a small in-range value; a stray token may follow
    paths = st.sampled_from(function_files) | _text
    argv = [command]
    for flag in data.draw(st.lists(st.sampled_from(_FLAGS[command]), max_size=6), label="flags"):
        argv.append(flag)
        if flag == "--fns":
            argv += data.draw(st.lists(paths, min_size=1, max_size=3))
        elif flag == "--fn":
            argv.append(data.draw(paths))
        elif flag != "--extended":
            argv.append(data.draw(_VALUES[flag]))
    argv += data.draw(st.lists(_text, max_size=1), label="stray")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    assert code in (0, 1, 2), argv


#: Tokens that are no flag of any subcommand, or that argparse reads itself.
_STRAY = ["--", "-h", "--help", "--frob", "-q", "stray"]
#: Values that argparse must read or reject: empty, leading "-", not an integer, no choice.
_ODD_VALUES = st.sampled_from(["", "-", "-5", "-1/2", "--q", "x", "1.5", " 7", "xml", "a=b"])


@pytest.mark.parametrize("command", sorted(_FLAGS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_one_parse_reads_what_the_full_parser_reads_on_drawn_argv(command, data):
    # a plain argv (each flag exact and once, the required ones always,
    # with an in-range value, separate or "="-joined), or one whose flags
    # may be left out, abbreviated or repeated, with odd values and strays
    plain = data.draw(st.booleans(), label="plain")
    if plain:
        flags = [flag for flag in data.draw(st.permutations(_FLAGS[command]), label="flags")
                 if flag in ("--fn", "--s", "--q", "--fns") or data.draw(st.booleans())]
    else:
        flags = data.draw(st.lists(st.sampled_from(_FLAGS[command] + _STRAY), max_size=6), label="flags")
    argv = [command]
    for flag in flags:
        if flag in _STRAY:
            argv.append(flag)
            continue
        name = flag if plain else data.draw(st.just(flag) | st.integers(3, len(flag)).map(lambda k: flag[:k]))
        values = _IN_RANGE.get(flag, st.just("a.json")) if plain else _VALUES.get(flag, _text) | _ODD_VALUES
        if flag == "--fns":
            argv += [name, *data.draw(st.lists(values, min_size=int(plain), max_size=3), label="files")]
        elif flag == "--extended":
            argv.append(name if plain else data.draw(st.sampled_from([name, f"{name}=1"])))
        elif data.draw(st.booleans(), label="joined"):
            argv.append(f"{name}={data.draw(values)}")
        else:
            argv += [name, data.draw(values)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert _parse_outcome(_parse, argv) == _parse_outcome(build_parser()[0].parse_args, argv), argv


# ---------------------------------------------------------------------------
# Every function file ends in an exit code

#: Canonical files that the mutations start from.
_CANONICAL = [PeriodicFunction(q=5, values={1: 1, 2: -1, 3: -1, 4: 1}).dumps(),
              PeriodicFunction(q=12, values={1: "3/2", 5: -2, 7: -2, 11: "3/2"}).dumps()]
#: Bytes a mutation inserts: JSON syntax, digits, signs, exponents, and any byte.
_INSERTED = st.binary(min_size=1, max_size=4) | st.sampled_from(
    [b"{", b"}", b"[", b"]", b'"', b":", b",", b"-", b"/", b"0", b"9", b"e9", b"1e", b".5", b" ",
     b"null", b"true", b"NaN", b"Infinity", b"\\", b"\\u0000", b"\xff"])


@st.composite
def _mutated_canonical(draw):
    """A canonical file with up to three byte spans deleted, replaced or inserted."""
    content = bytearray(draw(st.sampled_from(_CANONICAL)).encode())
    for _ in range(draw(st.integers(1, 3))):
        start = draw(st.integers(0, len(content)))
        end = draw(st.integers(start, min(len(content), start + 4)))
        content[start:end] = draw(st.just(b"") | _INSERTED)
    return bytes(content)


@pytest.fixture(scope="module")
def bytes_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("bytes")


@pytest.mark.parametrize("command", ["eval", "rank"])
@settings(max_examples=150, deadline=timedelta(seconds=10))
@given(content=st.binary(max_size=64) | _mutated_canonical())
def test_every_function_file_ends_in_an_exit_code(bytes_dir, command, content):
    # a --fn or --fns file of arbitrary bytes, or a canonical file with a
    # few bytes changed, is read to an exit code, never to an exception
    path = bytes_dir / f"{command}.json"
    path.write_bytes(content)
    argv = (["eval", "--fn", str(path), "--s", "0", "--digits", "20"] if command == "eval"
            else ["rank", "--fns", str(path), str(path)])
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    assert code in (0, 1, 2), content
