"""Each demo runs to completion in a fresh process and prints exactly the
report recorded in `demo_output`."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
EXPECTED = Path(__file__).resolve().parent / "demo_output"


def test_every_demo_has_a_recording():
    assert sorted(p.stem for p in DEMOS) == sorted(p.stem for p in EXPECTED.glob("*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output_unchanged(demo):
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, str(demo)], capture_output=True,
                         text=True, env=env, cwd=ROOT, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout == (EXPECTED / f"{demo.stem}.txt").read_text()
