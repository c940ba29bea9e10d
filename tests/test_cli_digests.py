"""The knitting commands keep their reports: `ar-quiver`, `rank`,
`transport-ars` and `verify-covering --all-indecomposables` on bundled and
generated inputs reproduce the exit code and the stdout sha256 recorded in
`cli_digests.json`.  `bench/expected.json` covers only the benchmark's
jobs; this file covers every knitting command on every input below.

Rewrite the file, after a deliberate change to a report, with
`PYTHONPATH=src python tests/test_cli_digests.py --record`."""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from skewcover import cli

sys.path.insert(0, str(Path(__file__).resolve().parent))
from conftest import data_text, generated_text  # noqa: E402

DIGESTS = Path(__file__).with_name("cli_digests.json")
INPUTS = ("fig5", "fig6", "free_action_a3", "star3_1", "star2_2", "star2_4",
          "cover2_6", "cover3_8")
COMMANDS = ("ar-quiver", "rank", "transport-ars",
            "verify-covering --all-indecomposables")
CASES = [(c, i) for i in INPUTS for c in COMMANDS]


def _text(key: str) -> str:
    if key.startswith(("star", "cover")):
        return generated_text(key)
    return data_text(f"{key}.skw")


def run_case(command: str, key: str, folder: Path) -> dict:
    """{"rc", "sha256"} of one command on one input, written to `folder`."""
    path = folder / f"{key}.skw"
    if not path.exists():
        path.write_text(_text(key))
    verb, *flags = command.split()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main([verb, str(path), *flags])
    return {"rc": rc, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


@pytest.mark.parametrize("command,key", CASES)
def test_report_digest_unchanged(command, key, tmp_path):
    expected = json.loads(DIGESTS.read_text())[f"{command} {key}"]
    assert run_case(command, key, tmp_path) == expected


def record() -> None:
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        out = {f"{c} {i}": run_case(c, i, Path(tmp)) for c, i in CASES}
    DIGESTS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    record()
