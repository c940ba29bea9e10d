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
