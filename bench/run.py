"""skewcover benchmark.

    python3 bench/run.py --workload presentation|modules|wild|all
                         [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --record

Run from anywhere inside a checkout; the package is taken from its
``src/``.  One run drives the program the way its users do, one command
at a time in a closed loop (one client, one process): each job calls
``skewcover.cli.main(argv)`` in-process with stdout captured, or, for a
capped knit, ``ar.knit_ar_quiver(algebra, max_dimension=cap)``.  It repeats
passes over the workload's job list (in a seed-permuted order) for
``--seconds``, checks every job's outcome against ``expected.json``, and
prints each metric by name with its unit and sample count, then, as the
last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` is the
separate traced run: a few untraced passes, then passes with the
outside-in tracer of ``tracer.py`` installed; it reports the per-layer
metrics and ``trace_overhead_s``, and counts a job as failed when its
traced stdout differs from its untraced stdout.  ``--workload all`` runs
the three workloads, each in its own fresh interpreter (``BENCHMARK.json``
names ``presentation`` and ``modules``; ``wild`` is run by hand).  ``--record``
rewrites ``expected.json`` from the current code at the default seed.

The seed permutes the job order and renames the vertices and arrows of
the generated inputs; nothing else depends on it.  Jobs on bundled inputs,
and on generated inputs at the default seed, must reproduce the recorded
exit code and stdout sha256; on generated inputs at other seeds, the
exit code and the seed-independent invariants (``basic_dim``, counts of
indecomposables and AR arrows, rank strings, ``quiver_isomorphic`` ...).
Every job has a time limit; a job past it is recorded as ``timeout`` and
counts as failed.  Full results, with the environment, go to
``bench/.work/results/``; the traced run's spans to ``bench/.work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import workloads
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DATA = SRC / "skewcover" / "data"
WORK = BENCH / ".work"
EXPECTED = BENCH / "expected.json"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
JOB_LIMIT_S = 60.0          # per-job time limit
HARD_LIMIT_S = 150.0        # no job starts past this point of a run
SETUP_SAMPLES = 5
UNTRACED_SHARE = 0.35       # share of a traced run spent on untraced passes

# Top-level report lines whose values do not depend on vertex and arrow
# names, so they are checked on every seed.
INVARIANT_KEYS = frozenset((
    "vertices", "arrows", "basic_dim", "skew_dim", "indecomposables", "rank",
    "stable_rank", "sequences", "pairs", "all_match", "original_dim",
    "double_skew_dim", "quiver_isomorphic", "gentle", "skew_gentle", "dim",
    "refused", "finished"))

END_TO_END_UNITS = {"wall_s": "s", "job_p50_s": "s", "job_p90_s": "s",
                    "setup_s": "s", "peak_rss_mib": "MiB"}


class JobTimeout(BaseException):
    """Raised by the alarm; a BaseException so the CLI boundary's
    ``except Exception`` does not swallow it."""


def _on_alarm(signum, frame):
    raise JobTimeout


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cap_threads() -> dict[str, str]:
    """Cap the BLAS/OpenMP thread variables at nproc, before numpy loads."""
    n = nproc()
    for var in THREAD_VARS:
        try:
            cur = int(os.environ.get(var, n))
        except ValueError:
            cur = n
        os.environ[var] = str(max(1, min(cur, n)))
    return {var: os.environ[var] for var in THREAD_VARS}


def environment(seed: int, threads: dict[str, str]) -> dict:
    import numpy
    import sympy
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    h = hashlib.sha256()
    for path in sorted((SRC / "skewcover").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return {"nproc": nproc(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "sympy": sympy.__version__,
            "threads": threads, "git_commit": commit,
            "source_sha256": h.hexdigest(), "seed": seed}


# ---------------------------------------------------------------------------
# Inputs and jobs
# ---------------------------------------------------------------------------

def write_inputs(seed: int) -> dict[str, str]:
    """Paths of every input key: bundled files and generated members."""
    paths = {p.stem: str(p) for p in DATA.glob("*.skw")}
    out = WORK / f"inputs-seed{seed}"
    out.mkdir(parents=True, exist_ok=True)
    for key in sorted(workloads.generated_inputs()):
        family, n, length = workloads.parse_key(key)
        path = out / f"{key}.skw"
        path.write_text(gen.generate(family, n, length, seed))
        paths[key] = str(path)
    return paths


def _knit(path: str, cap: int) -> tuple[int, str]:
    """A knitting job: exit code 0 and a one-line report of the outcome,
    which is the cap refusal on every capped knit the workloads run."""
    from skewcover import ar, inputfmt
    with open(path) as fh:
        built = inputfmt.build_input(inputfmt.parse_input(fh.read()))
    try:
        arq = ar.knit_ar_quiver(built.algebra, max_dimension=cap)
    except ar.CapExceededError as exc:
        return 0, f"refused: {exc}\n"
    return 0, f"finished: {len(arq.modules)} indecomposables\n"


def run_job(job, paths: dict[str, str], limit: float) -> dict:
    """Run one job; returns its time, exit code, stdout and status."""
    from skewcover import cli
    if limit <= 0:
        return {"id": job.id, "s": 0.0, "rc": None, "text": "",
                "status": "timeout"}
    out, err = io.StringIO(), io.StringIO()
    rc, status = None, "ok"
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if job.cap is None:
                rc = cli.main([paths[job.input] if a == "{}" else a
                               for a in job.args])
            else:
                rc, text = _knit(paths[job.input], job.cap)
                out.write(text)
        signal.setitimer(signal.ITIMER_REAL, 0)
    except JobTimeout:
        status = "timeout"
    except Exception as exc:  # noqa: BLE001 - an unexpected exception fails the job
        status = f"exception: {type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    dt = time.perf_counter() - t0
    return {"id": job.id, "s": dt, "rc": rc, "text": out.getvalue(),
            "status": status}


def invariants(text: str) -> dict[str, str]:
    inv = {"lines": str(len(text.splitlines()))}
    for line in text.splitlines():
        if line[:1].isspace():
            continue
        key, sep, value = line.partition(": ")
        if sep and key in INVARIANT_KEYS:
            inv[key] = value
    return inv


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check(job, rec: dict, expected: dict, seed: int, default_seed: int) -> str:
    """'ok' or the reason the job failed."""
    if rec["status"] != "ok":
        return rec["status"]
    exp = expected.get(job.id)
    if exp is None:
        return "no expected outcome recorded"
    if rec["rc"] != exp["rc"]:
        return f"exit code {rec['rc']}, expected {exp['rc']}"
    if not job.generated or seed == default_seed:
        if digest(rec["text"]) != exp["sha256"]:
            return "stdout differs from the recorded output"
    elif invariants(rec["text"]) != exp["invariants"]:
        return "seed-independent invariants differ"
    return "ok"


# ---------------------------------------------------------------------------
# Passes and metrics
# ---------------------------------------------------------------------------

def run_passes(jobs, paths, rng: random.Random, budget_s: float,
               deadline: float, check_job, tracer=None) -> list[dict]:
    """Passes over ``jobs`` until the next pass, if as long as the longest
    so far, would end past ``budget_s``; at least one.  Each job record
    gets its check result; with a tracer, each pass gets its span summary
    and counters."""
    passes = []
    start = time.perf_counter()
    while True:
        order = list(jobs)
        rng.shuffle(order)
        gc.collect()
        if tracer is not None:
            tracer.reset()
        records = []
        t0 = time.perf_counter()
        for job in order:
            limit = min(JOB_LIMIT_S, deadline - time.perf_counter())
            rec = run_job(job, paths, limit)
            rec["check"] = check_job(job, rec)
            records.append(rec)
        passes.append({"wall_s": time.perf_counter() - t0, "jobs": records})
        if tracer is not None:
            passes[-1].update(summary=tracer.summary(),
                              counters={**tracer.counters, **tracer.maxima})
        elapsed = time.perf_counter() - start
        longest = max(p["wall_s"] for p in passes)
        if elapsed + longest > budget_s or time.perf_counter() > deadline:
            return passes


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure_setup(samples: int) -> list[float]:
    """Fresh interpreter to ``import skewcover.cli`` returning; one
    unmeasured import first writes the bytecode caches."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import skewcover.cli"]
    subprocess.run(cmd, env=env, check=True, timeout=120)
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


def pass_wall(passes: list[dict]) -> float:
    """Mean wall time of a pass.  On a shared host whose speed switches
    between a fast and a slow state every few passes, the median snaps to
    one state while the mean follows the share of time spent in each, so
    the mean varies less from run to run."""
    return statistics.fmean(p["wall_s"] for p in passes)


def end_to_end(passes: list[dict], setup: list[float]) -> dict:
    lat = [r["s"] for p in passes for r in p["jobs"]]
    p90 = quantile(lat, 90)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "wall_s": (pass_wall(passes), f"n={len(passes)} passes, mean"),
        "job_p50_s": (statistics.median(lat), f"n={len(lat)} jobs"),
        "job_p90_s": (p90, f"n={len(lat)} jobs, "
                      f"{sum(x > p90 for x in lat)} beyond"),
        "setup_s": (statistics.median(setup), f"n={len(setup)} imports"),
        "peak_rss_mib": (rss, "n=1 process"),
    }


def per_layer(traced: list[dict], overhead: float, units: dict) -> dict:
    """Per-pass medians of the traced passes' self times; counts are the
    same in every pass, so a count is one pass's exact value."""
    med, count = statistics.median, statistics.median_low

    def calls(name):
        return count([p["summary"][name]["calls"] for p in traced])

    out = {}
    note = f"n={len(traced)} traced passes"
    for name in units:
        if name == "trace_overhead_s":
            value = overhead
        elif name == "rep.isomorphism.hit_ratio":
            tested = calls("rep.isomorphism")
            found = count([p["counters"].get("rep.isomorphism.found", 0)
                           for p in traced])
            value = found / tested if tested else 0.0
        elif name.endswith(".calls"):
            value = calls(name[:-len(".calls")])
        elif name.endswith(".self_s"):
            span = name[:-len(".self_s")]
            value = med([p["summary"][span]["self_s"] for p in traced])
        else:
            value = count([p["counters"].get(name, 0) for p in traced])
        out[name] = (value, note)
    return out


def print_metrics(metrics: dict, units: dict) -> dict:
    result = {}
    for name, (value, note) in metrics.items():
        print(f"{name} = {value!r} {units[name]} ({note})")
        result[name] = {"value": value, "unit": units[name]}
    return result


def run_workload(args, threads) -> int:
    t_start = time.perf_counter()
    deadline = t_start + HARD_LIMIT_S
    jobs = workloads.WORKLOADS[args.workload]()
    expected = json.loads(EXPECTED.read_text())["jobs"]
    paths = write_inputs(args.seed)
    import skewcover.cli  # noqa: F401 - loaded before any timing
    env = environment(args.seed, threads)
    print("env " + json.dumps(env, sort_keys=True))

    def check_job(job, rec):
        return check(job, rec, expected, args.seed, gen.DEFAULT_SEED)

    rng = random.Random(f"skewcover-bench-order-{args.seed}")
    result = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "env": env}
    if not args.trace:
        setup = measure_setup(SETUP_SAMPLES)
        passes = run_passes(jobs, paths, rng, args.seconds, deadline,
                            check_job)
        metrics = end_to_end(passes, setup)
        units = END_TO_END_UNITS
        all_passes = passes
    else:
        plain = run_passes(jobs, paths, rng, args.seconds * UNTRACED_SHARE,
                           deadline, check_job)
        reference = {r["id"]: digest(r["text"]) for r in plain[0]["jobs"]}

        def traced_check(job, rec):
            if digest(rec["text"]) != reference[job.id]:
                return "traced stdout differs from untraced stdout"
            return check_job(job, rec)

        tracer = Tracer()
        tracer.install()
        remaining = args.seconds - (time.perf_counter() - t_start)
        traced = run_passes(jobs, paths, rng, remaining, deadline,
                            traced_check, tracer)
        overhead = pass_wall(traced) - pass_wall(plain)
        units = {m["name"]: m["unit"] for m in json.loads(
            (ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        metrics = per_layer(traced, overhead, units)
        all_passes = plain + traced
        WORK.mkdir(parents=True, exist_ok=True)
        spans = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(spans)
        print(f"spans of the last traced pass: {spans.relative_to(ROOT)}")

    records = [r for p in all_passes for r in p["jobs"]]
    failures = [r for r in records if r["check"] != "ok"]
    failed = len(failures)
    attempted = len(records)
    for r in failures[:10]:
        print(f"FAILED {r['id']}: {r['check']}")
    print(f"fail_ratio = {failed / attempted!r} ratio "
          f"(n={attempted} jobs, {failed} failed)")
    shown = print_metrics(metrics, units)
    result.update(metrics={k: {"value": v, "note": n}
                           for k, (v, n) in metrics.items()},
                  attempted=attempted, failed=failed,
                  passes=[{"wall_s": p["wall_s"],
                           "jobs": [{k: r[k] for k in ("id", "s", "rc",
                                                       "status", "check")}
                                    for r in p["jobs"]]}
                          for p in all_passes])
    out_dir = WORK / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": shown}))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh interpreter; prints every metric by
    name with its unit and sample count."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=600)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"  {line}")
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return 0


def record() -> int:
    """Rewrite expected.json: every job once at the default seed."""
    paths = write_inputs(gen.DEFAULT_SEED)
    jobs_out = {}
    for name, make in workloads.WORKLOADS.items():
        for job in make():
            rec = run_job(job, paths, JOB_LIMIT_S)
            if rec["status"] != "ok":
                print(f"{job.id}: {rec['status']}", file=sys.stderr)
                return 1
            jobs_out[job.id] = {"rc": rec["rc"], "sha256": digest(rec["text"]),
                                "invariants": invariants(rec["text"])}
            print(f"{rec['s']:8.3f}s rc={rec['rc']} {job.id}", flush=True)
    EXPECTED.write_text(json.dumps({"default_seed": gen.DEFAULT_SEED,
                                    "jobs": jobs_out}, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "skewcover" / "cli.py").is_file():
        print(f"no skewcover sources under {SRC}: run inside a checkout",
              file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    threads = cap_threads()
    signal.signal(signal.SIGALRM, _on_alarm)
    if args.record:
        return record()
    if args.workload is None:
        ap.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, threads)


if __name__ == "__main__":
    sys.exit(main())
