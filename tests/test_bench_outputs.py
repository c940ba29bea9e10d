"""Every job of the benchmark's `presentation`, `modules` and `wild`
workloads, run once through the benchmark's own runner, reproduces the exit
code and the stdout sha256 recorded in `bench/expected.json`, so a changed
report, or a knitting change that moves a cap refusal, shows here before a
benchmark run rejects it.  The generated inputs are written
at the default seed to a temporary directory."""

import importlib
import json
import signal
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.mark.parametrize("workload", ["presentation", "modules", "wild"])
def test_recorded_outputs_reproduced(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    run, gen, workloads = (importlib.import_module(m)
                           for m in ("run", "gen", "workloads"))
    monkeypatch.setattr(run, "WORK", tmp_path)
    paths = run.write_inputs(gen.DEFAULT_SEED)
    expected = json.loads(run.EXPECTED.read_text())["jobs"]
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        outcomes = {job.id: run.check(job, run.run_job(job, paths, run.JOB_LIMIT_S),
                                      expected, gen.DEFAULT_SEED, gen.DEFAULT_SEED)
                    for job in workloads.WORKLOADS[workload]()}
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert {k: v for k, v in outcomes.items() if v != "ok"} == {}
