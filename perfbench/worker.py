"""One benchmark process: set up a workload, time whole rounds, check outputs.

run.py starts this script with BLAS limited to one thread. It prints one
JSON object as its last line of standard output.

--mode setup    set up, warm up and report the set-up time only;
--mode measure  then repeat rounds for --seconds and check the outputs.
                With --trace 1 the rounds alternate untraced and traced,
                and the spans of the last traced round are written to
                --trace-file.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _import_program():
    sys.path.insert(0, str(SRC))
    import mixedae

    if Path(mixedae.__file__).resolve().parent != SRC / "mixedae":
        raise ImportError(f"mixedae imported from {mixedae.__file__}, not from {SRC}")


def measure(wl, seconds: float, trace: bool, trace_file: Path | None) -> dict:
    import tracing
    from workloads import same

    tracer = tracing.Tracer() if trace else None
    walls: dict[bool, list[float]] = {False: [], True: []}
    cpus: list[float] = []
    layer_rounds: list[dict] = []
    attempted = failed = 0
    reference = None
    problems: list[str] = []
    start = time.perf_counter()
    i = 0
    while i < (2 if trace else 1) or time.perf_counter() - start < seconds:
        traced = trace and i % 2 == 1
        if traced:
            tracer.begin_round()
            tracer.install()
        c0, t0 = _cpu_seconds(), time.perf_counter()
        try:
            tried, bad = wl.round()
        finally:
            t1, c1 = time.perf_counter(), _cpu_seconds()
            if traced:
                tracer.uninstall()
        walls[traced].append(t1 - t0)
        if not traced:
            cpus.append(c1 - c0)
        else:
            layer_rounds.append({
                "calls": dict(tracer.calls), "self_s": dict(tracer.self_s),
                "counts": dict(tracer.counts),
            })
        attempted += tried
        failed += bad
        if not bad:
            outputs = wl.outputs()
            if reference is None:
                reference = outputs
            elif not same(outputs, reference):
                problems.append(f"round {i + 1} ({'traced' if traced else 'untraced'}) "
                                "outputs differ from the first successful round")
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if reference is not None:
        problems += wl.check(reference)
    result = {
        "rounds": i, "attempted": attempted, "failed": failed, "problems": problems,
        "wall_s": statistics.median(walls[False]), "cpu_s": statistics.median(cpus),
        "peak_rss_mb": peak_rss_mb,
    }
    if trace:
        result["layers"] = _per_layer(layer_rounds, walls, problems)
        trace_file.write_text(json.dumps({
            "spans_of_last_traced_round": [list(s) for s in tracer.spans],
            "span_fields": ["name", "start_s", "end_s", "parent_index"],
            "per_layer": result["layers"],
        }))
    return result


def _per_layer(layer_rounds: list[dict], walls: dict, problems: list[str]) -> dict:
    """Calls and counters of one traced round; self times as medians."""
    import tracing

    first = layer_rounds[0]
    for later in layer_rounds[1:]:
        if later["calls"] != first["calls"] or later["counts"] != first["counts"]:
            problems.append("traced rounds made different calls")
    layers = {}
    for name in tracing.span_names():
        layers[f"{name}.calls"] = (first["calls"].get(name, 0), "count")
        layers[f"{name}.self_s"] = (
            statistics.median(r["self_s"].get(name, 0.0) for r in layer_rounds), "s"
        )
    for name, unit in tracing.COUNTERS.items():
        layers[name] = (first["counts"][name], unit)
    layers["trace.overhead_s"] = (
        statistics.median(walls[True]) - statistics.median(walls[False]), "s"
    )
    return layers


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--mode", choices=("setup", "measure"), required=True)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--trace-file", type=Path)
    p.add_argument("--t0", type=float, required=True, help="time.time() when the process was started")
    args = p.parse_args(argv)

    _import_program()
    import workloads

    args.workdir.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
        wl.warmup()
        result = {"setup_s": time.time() - args.t0}
        if args.mode == "measure":
            result.update(measure(wl, args.seconds, bool(args.trace), args.trace_file))
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
