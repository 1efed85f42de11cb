#!/usr/bin/env python3
"""Benchmark of mixedae, run from the root of a source checkout:

    python3 perfbench/run.py --workload ae-budgets --seed 1 --seconds 30 --trace 0

Workloads: ae-budgets, vae-wide-csv, scoring, or `all` for the three in
turn. Each run starts fresh worker processes (worker.py) with BLAS
limited to one thread and the program imported from ./src.

--trace 0 reports the end-to-end metrics: setup_s (median of several
set-ups, each in its own process), and wall_s, cpu_s and peak_rss_mb of
the measured process. --trace 1 reports the per-layer metrics of a
traced run instead. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. Results and traces
are also written under perfbench/out/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("ae-budgets", "vae-wide-csv", "scoring")
SETUPS = 7          # set-up samples per run, the measured process included
DEADLINE_S = 170.0  # a run must end within 180 s

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# One BLAS thread: at 128 x 33 the second thread only spins, which bills
# CPU time without saving wall time and makes both vary with the host.
ONE_THREAD = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    pass


def _worker(args, mode: str, deadline: float, tag: str) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.update({var: "1" for var in ONE_THREAD})
    env.pop("PYTHONPATH", None)
    name = f"{args.workload}-seed{args.seed}"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--mode", mode,
        "--workdir", str(OUT / f"work-{name}-{os.getpid()}-{tag}"),
        "--trace-file", str(OUT / f"{name}.trace.json"),
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the measured run")
    try:
        proc = subprocess.run(
            cmd + ["--t0", repr(time.time())], env=env, cwd=ROOT,
            stdout=subprocess.PIPE, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process of {args.workload} exceeded the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} process of {args.workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(args, deadline: float) -> dict:
    setups = []
    if not args.trace:
        setups = [_worker(args, "setup", deadline, f"s{i}")["setup_s"] for i in range(SETUPS - 1)]
    res = _worker(args, "measure", deadline, "m")
    for problem in res["problems"]:
        print(f"CHECK FAILED [{args.workload}]: {problem}", file=sys.stderr)
    if args.trace:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in res["layers"].items()}
    else:
        res["setup_s"] = statistics.median(setups + [res["setup_s"]])
        metrics = {name: {"value": res[name], "unit": unit} for name, unit in END_TO_END.items()}
    return {
        "correct": not res["problems"], "attempted": res["attempted"],
        "failed": res["failed"], "metrics": metrics, "rounds": res["rounds"],
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "mixedae" / "__init__.py").is_file():
        print(f"error: no mixedae sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S * (len(WORKLOADS) if args.workload == "all" else 1)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(argparse.Namespace(**{**vars(args), "workload": name}), deadline)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    for name, res in results.items():
        print(f"{name}: {res['rounds']} rounds, {res['attempted']} operations, "
              f"{res['failed']} failed, outputs {'correct' if res['correct'] else 'WRONG'}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:<44} {m['value']:>14.6g} {m['unit']}")
        (OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(res, indent=1))

    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    else:
        final = {k: results[args.workload][k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
