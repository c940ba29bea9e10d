import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import skewcover
from skewcover.cli import main
from skewcover.inputfmt import ParseError, parse_input, build_input

from conftest import data_text


def _data_path(name):
    import importlib.resources as resources
    return str(resources.files("skewcover").joinpath(f"data/{name}"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_empty_file_errors():
    with pytest.raises(ParseError) as exc:
        parse_input("")
    assert "no quiver" in str(exc.value)


def test_parse_located_errors():
    with pytest.raises(ParseError) as exc:
        parse_input("vertex 1\narrow broken\n")
    assert "line 2" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        parse_input("vertex 1\nrelation 2x*a\n")
    assert "line 2" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        parse_input("vertex 1\nmodule M {\ndim 1 = 1\n")
    assert "unterminated" in str(exc.value)


def test_parse_fig5_roundtrip():
    doc = parse_input(data_text("fig5.skw"))
    assert doc.prime == 1009
    assert doc.vertices == ["1", "2", "3", "4"]
    assert len(doc.arrows) == 4
    assert len(doc.relations) == 4
    assert doc.group_orders == (2,)
    assert set(doc.modules) == {"S2", "N_3_2", "M_1_2", "M_2_1_2"}
    built = build_input(doc)
    assert built.algebra.dim == 10
    assert built.modules["S2"].dims == (0, 1, 0, 0)


def test_cli_skew(capsys):
    code, out, err = run_cli(capsys, "skew", _data_path("fig5.skw"))
    assert code == 0
    assert "vertices: 5" in out and "arrows: 6" in out
    assert "basic_dim: 15" in out


def test_cli_skew_json_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "--json", "skew", _data_path("fig5.skw"))
    code2, out2, _ = run_cli(capsys, "--json", "skew", _data_path("fig5.skw"))
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["results"]["basic_dim"] == 15


def test_cli_pushdown(capsys):
    code, out, _ = run_cli(capsys, "--json", "pushdown", _data_path("fig1.skw"),
                           "--module", "M_fig3")
    assert code == 0
    payload = json.loads(out)
    dims = payload["results"]["dims"]
    assert dims == {"v1_r0": 1, "v2_r0": 2, "v3_r0": 2, "v3_r1": 2,
                    "v4_r0": 2, "v4_r1": 2}


def test_cli_pushdown_unknown_module(capsys):
    code, out, err = run_cli(capsys, "pushdown", _data_path("fig1.skw"),
                             "--module", "nope")
    assert code == 1
    assert "nope" in err


@pytest.mark.parametrize("argv", [
    ("hom", "{fig5}", "S2", "X"),
    ("pushdown", "{fig5}", "--module", "X"),
])
def test_cli_unknown_module_message(capsys, argv):
    """Raised as a KeyError, the message used to print in repr quotes."""
    argv = [a.format(fig5=_data_path("fig5.skw")) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (1, "", "error: module 'X' not in input file\n")


def test_cli_hom(capsys):
    code, out, _ = run_cli(capsys, "--json", "hom", _data_path("fig5.skw"),
                           "S2", "M_1_2")
    assert code == 0
    assert json.loads(out)["results"]["dim"] == 1


def test_cli_verify_covering_modules(capsys):
    code, out, _ = run_cli(capsys, "--json", "verify-covering",
                           _data_path("fig5.skw"))
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["all_match"] is True
    assert payload["results"]["pairs"] == 16


def test_cli_rank(capsys):
    code, out, _ = run_cli(capsys, "--json", "rank", _data_path("fig5.skw"))
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["rank"] == "13"
    assert payload["results"]["indecomposables"] == 20


def test_cli_ar_quiver_dot(capsys, tmp_path):
    dot = tmp_path / "ar.dot"
    code, out, _ = run_cli(capsys, "--json", "ar-quiver", _data_path("fig5.skw"),
                           "--dot", str(dot))
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["indecomposables"] == 20
    assert payload["results"]["arrows"] == 30
    text = dot.read_text()
    assert text.startswith("digraph") and text.count("->") >= 30


def test_cli_check_gentle(capsys):
    code, out, _ = run_cli(capsys, "--json", "check-gentle",
                           _data_path("a2_specialloop.skw"))
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["skew_gentle"] is True
    assert payload["results"]["gentle"] is False


def test_cli_check_gentle_free_a3(capsys):
    code, out, _ = run_cli(capsys, "--json", "check-gentle",
                           _data_path("free_action_a3.skw"))
    assert code == 0
    assert json.loads(out)["results"]["gentle"] is True


def test_cli_double_skew(capsys):
    code, out, _ = run_cli(capsys, "--json", "double-skew",
                           _data_path("fig5.skw"))
    assert code == 0
    assert json.loads(out)["results"]["quiver_isomorphic"] is True


def test_cli_missing_file(capsys):
    code, out, err = run_cli(capsys, "rank", "no_such_file.skw")
    assert code == 1


def test_cli_entrypoint_subprocess():
    # the child imports the same skewcover as this process, installed or not
    src = str(Path(skewcover.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-m", "skewcover.cli", "hom",
         _data_path("fig5.skw"), "S2", "S2"],
        capture_output=True, text=True, env=env)
    assert out.returncode == 0
    assert "dim: 1" in out.stdout


def test_cli_refuses_too_large_field(capsys, tmp_path):
    text = data_text("fig5.skw").replace("field p = 1009", "field p = 4294967311")
    assert "4294967311" in text
    path = tmp_path / "fig5_big_p.skw"
    path.write_text(text)
    code, out, err = run_cli(capsys, "skew", str(path))
    assert code == 1
    assert out == ""
    assert "too large" in err and "2^26" in err


@pytest.mark.parametrize("body,expected", [
    # a module line naming an undeclared vertex or arrow used to be dropped
    ("dim 1 = 1\n  dim 99 = 1\n  map zz = [[1]]\n}",
     "module 'T' names undeclared vertex '99'"),
    ("dim 1 = 1\n  map zz = [[1]]\n}", "module 'T' names undeclared arrow 'zz'"),
    ("dim 1 = -1\n}", "line 42: module 'T': negative dimension at '1'"),
    # an unterminated block is reported at its 'module' line
    ("dim 1 = 1", "line 41: unterminated module block 'T'"),
    # a second block under a used name used to overwrite the first
    ("dim 1 = 1\n}\nmodule T {\n  dim 2 = 1\n}",
     "line 44: module 'T' is declared twice"),
    ("dim 1 = 1\n}\nmodule S2 {\n  dim 2 = 1\n}",
     "line 44: module 'S2' is declared twice"),
    # an action line after the block naming a generator the group lacks
    # used to be dropped
    ("dim 1 = 1\n}\naction g2: vertex 3 -> 4",
     "action names undeclared generator 'g2'"),
    # a repeated single-valued line used to replace the first silently
    ("dim 1 = 1\n}\nfield p = 13", "line 44: field is declared twice"),
    ("dim 1 = 1\n}\ngroup Z3", "line 44: group is declared twice"),
    ("dim 1 = 1\n}\nbound N = 4\nbound N = 5", "line 45: bound is declared twice"),
    ("dim 1 = 1\n}\naction g1: vertex 3 -> 3",
     "line 44: action g1 on vertex '3' is declared twice"),
    ("dim 1 = 1\n}\naction g1: arrow c -> 2*d",
     "line 44: action g1 on arrow 'c' is declared twice"),
    ("dim 1 = 1\n  dim 1 = 2\n}", "line 43: module 'T': dim '1' is declared twice"),
    ("dim 1 = 1\n  dim 2 = 1\n  map a = [[1]]\n  map a = [[0]]\n}",
     "line 45: module 'T': map 'a' is declared twice"),
    # a ragged matrix literal used to fail in numpy, naming no line
    ("dim 1 = 2\n  dim 2 = 2\n  map a = [[1, 0], [1]]\n}",
     "line 44: module 'T': map 'a' has rows of unequal length"),
])
def test_cli_rejects_bad_module(capsys, tmp_path, body, expected):
    text = data_text("fig5.skw")
    assert len(text.splitlines()) == 40
    path = tmp_path / "fig5_bad_module.skw"
    path.write_text(text + "module T {\n  " + body + "\n")
    code, out, err = run_cli(capsys, "hom", str(path), "S2", "S2")
    assert code == 1
    assert out == ""
    assert err == f"error: {expected}\n"


def test_cli_rejects_action_of_undeclared_generator(capsys, tmp_path):
    """Dropping these lines skewed by the trivial action: a 12-vertex Q_G
    in place of the 3-vertex quotient."""
    path = tmp_path / "free_action_g2.skw"
    path.write_text(data_text("free_action_a3.skw").replace("action g1:", "action g2:"))
    code, out, err = run_cli(capsys, "skew", str(path))
    assert (code, out) == (1, "")
    assert err == "error: action names undeclared generator 'g2'\n"



@pytest.mark.parametrize("line, argv, expected", [
    # a zero bound used to build with bound 12, and a negative one to fail
    # inside the algebra's degree walk
    ("bound N = 0\n", (), "line 4: length bound 0 is below 1"),
    ("", ("--bound", "0"), "length bound 0 is below 1"),
    ("", ("--bound", "-3"), "length bound -3 is below 1"),
])
def test_cli_rejects_bound_below_one(capsys, tmp_path, line, argv, expected):
    text = data_text("free_action_a3.skw")
    assert text.splitlines()[2] == "field p = 1009"
    path = tmp_path / "free_action_bound.skw"
    path.write_text(text.replace("field p = 1009\n", "field p = 1009\n" + line))
    code, out, err = run_cli(capsys, *argv, "skew", str(path))
    assert (code, out, err) == (1, "", f"error: {expected}\n")

# Calls in one process share one parser; each must behave like a fresh
# process, so options given to one call (--json, --bound, --special) must not
# reach the next, and argparse's own exits (errors, --help) stay exit 2 / 0.
_SEQUENCE = [
    ("--json", "--bound", "6", "hom", "{fig5}", "S2", "S2"),
    ("hom", "{fig5}", "S2", "N_3_2"),
    ("--bound", "1", "hom", "{fig5}", "S2", "S2"),
    ("hom", "{fig5}", "S2", "S2"),
    ("check-gentle", "--special", "x", "{a2}"),
    ("check-gentle", "{a2}"),
    ("bogus",),
    ("--help",),
]


def test_repeated_main_calls_match_fresh_processes(capsys, monkeypatch):
    from skewcover import cli
    monkeypatch.setenv("COLUMNS", "80")
    files = {"{fig5}": _data_path("fig5.skw"),
             "{a2}": _data_path("a2_specialloop.skw")}
    src = str(Path(skewcover.__file__).resolve().parent.parent)
    env = {**os.environ, "COLUMNS": "80",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for args in _SEQUENCE:
        argv = [files.get(a, a) for a in args]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        got = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "skewcover.cli", *argv],
                               capture_output=True, text=True, env=env)
        assert (code, got.out, got.err) == (
            fresh.returncode, fresh.stdout, fresh.stderr), args
    assert cli._parser() is cli._parser()


_NO_SYMPY = """
import contextlib, io, json, sys
if sys.argv[1] == "block":
    sys.modules["sympy"] = None     # any import of sympy now fails
from skewcover import cli
runs = []
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runs.append([cli.main(argv), out.getvalue()])
print(json.dumps({"runs": runs, "sympy": repr(sys.modules.get("sympy", "absent"))}))
"""


@pytest.mark.parametrize("mode", ["block", "watch"])
def test_runs_without_sympy(capsys, mode):
    """With sympy blocked, `pushdown` (which splits End rings) and a knit
    print what they print in this process; unblocked, a knit never loads
    sympy."""
    fig5 = _data_path("fig5.skw")
    argvs = [["pushdown", fig5, "--module", "S2"], ["ar-quiver", fig5]]
    src = str(Path(skewcover.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, "-c", _NO_SYMPY, mode, json.dumps(argvs)],
                           capture_output=True, text=True, env=env)
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stdout)
    assert report["sympy"] == ("None" if mode == "block" else "'absent'")
    for argv, (code, out) in zip(argvs, report["runs"]):
        assert [code, out] == list(run_cli(capsys, *argv)[:2])
