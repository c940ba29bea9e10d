"""Tests of the benchmark's own pieces: the input generator, the job lists
and their recorded outcomes, and the outside-in tracer.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _algebra_dim(text: str) -> int:
    from skewcover.inputfmt import build_input, parse_input
    return build_input(parse_input(text)).algebra.dim


@pytest.mark.parametrize("family,n,length,dim", [
    ("star", 3, 6, 82), ("star", 3, 8, 133), ("cover", 2, 6, 42),
    ("star", 3, 1, 7), ("cover", 3, 4, 30)])
def test_family_sizes(family, n, length, dim):
    for seed in (gen.DEFAULT_SEED, 1, 17):
        assert _algebra_dim(gen.generate(family, n, length, seed)) == dim


def test_seed_only_renames():
    base = gen.star(3, 2, gen.DEFAULT_SEED)
    other = gen.star(3, 2, 9)
    assert base != other
    vp0, ap0 = gen.prefixes(gen.DEFAULT_SEED)
    vp1, ap1 = gen.prefixes(9)
    renamed = other.replace(vp1, "V#").replace(ap1, "A#")
    assert renamed == base.replace(vp0, "V#").replace(ap0, "A#")
    assert gen.star(3, 2, 9) == other


def test_every_job_has_an_expected_outcome():
    expected = json.loads((BENCH / "expected.json").read_text())["jobs"]
    ids = [j.id for make in workloads.WORKLOADS.values() for j in make()]
    assert len(ids) == len(set(ids))
    assert set(ids) == set(expected)
    assert all(e["rc"] == 0 for e in expected.values())
    refusals = [e["invariants"]["refused"] for i, e in expected.items()
                if i.startswith("knit ")]
    assert refusals and all("exceeds cap" in r for r in refusals)


def test_per_layer_metrics_have_a_source():
    import tracer
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    counters = {"field.rref.cells", "field.rref.max_cells",
                "quiver.table_bytes", "rep.isomorphism.hit_ratio",
                "ar.knit.modules", "ar.cap_refusals", "trace_overhead_s"}
    for m in spec["per_layer"]:
        name = m["name"]
        if name in counters:
            continue
        span = name.rsplit(".", 1)[0]
        assert span in tracer.TARGETS, name


def test_tracer_sees_calls_through_imported_names():
    """Tracing counts rref calls made through ``from .field import rref``
    and leaves stdout byte-identical."""
    data = ROOT / "src" / "skewcover" / "data" / "fig5.skw"
    script = f"""
import contextlib, io, sys
sys.path[:0] = [{str(ROOT / 'src')!r}, {str(BENCH)!r}]
from skewcover import cli
import tracer
def run():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(["ar-quiver", {str(data)!r}]) == 0
    return buf.getvalue()
plain = run()
t = tracer.Tracer()
t.install()
traced = run()
s = t.summary()
assert traced == plain
assert s["field.rref"]["calls"] > 100, s["field.rref"]
assert s["rep.isomorphism"]["calls"] > 0
assert s["cli"]["calls"] == 1
assert abs(sum(v["self_s"] for v in s.values()) - s["cli"]["total_s"]) < 1e-6
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, OMP_NUM_THREADS="1"))
    assert proc.returncode == 0, proc.stderr
