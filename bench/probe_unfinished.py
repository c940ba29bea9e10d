"""Measure the command/input pairs that are kept out of the workloads
because they do not finish in a benchmark run, and write their status to
``bench/unfinished.json``.

    python3 bench/probe_unfinished.py [--timeout 60]

Each pair runs as its own ``python3 -m skewcover.cli`` process with the
given wall-clock limit; the status is ``ok`` with its time,
``exit <code>``, or ``timeout``.  The
guardrail and sparse-kernel work can move a pair into a workload once it
finishes here.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import gen

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "skewcover" / "data"
WORK = ROOT / "bench" / ".work" / "probe"

PAIRS = [(cmd, name) for name in ("fig1", "fig2", "kronecker_z3")
         for cmd in ("ar-quiver", "rank", "transport-ars",
                     "verify-covering --all-indecomposables")]
STAR_SKEW = [("skew", 3, 8)]


def probe(argv: list[str], timeout: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "skewcover.cli", *argv],
                              env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"status": "timeout", "limit_s": timeout}
    dt = round(time.perf_counter() - t0, 2)
    if proc.returncode != 0:
        return {"status": f"exit {proc.returncode}", "wall_s": dt,
                "stderr": proc.stderr.decode()[-200:]}
    return {"status": "ok", "wall_s": dt}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--timeout", type=float, default=60.0)
    args = ap.parse_args()
    if not DATA.is_dir():
        print(f"no skewcover sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    WORK.mkdir(parents=True, exist_ok=True)
    records = []
    for cmd, name in PAIRS:
        argv = cmd.split() + [str(DATA / f"{name}.skw")]
        records.append({"command": cmd, "input": name,
                        **probe(argv, args.timeout)})
        print(json.dumps(records[-1]), flush=True)
    for cmd, n, length in STAR_SKEW:
        path = WORK / f"star{n}_{length}.skw"
        path.write_text(gen.star(n, length))
        records.append({"command": cmd, "input": f"star Z{n} L={length}",
                        **probe([cmd, str(path)], args.timeout)})
        print(json.dumps(records[-1]), flush=True)
    out = ROOT / "bench" / "unfinished.json"
    out.write_text(json.dumps({"timeout_s": args.timeout, "pairs": records},
                              indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
