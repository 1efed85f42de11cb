"""Spans around mixedae's public functions, recorded from outside the program.

`Tracer.install` replaces each traced function by a timing wrapper under
every name the package's modules hold it by (``mixedae.nn.forward`` and
``mixedae.models.forward`` are one function), and the three report
writers on ``ExperimentReport`` by one wrapper named
``experiments.report_write``. `Tracer.uninstall` puts the originals back,
so traced and untraced rounds can alternate in one process.

Spans are kept in memory. A span's self time is its duration minus the
durations of its direct child spans. Besides calls and self time the
tracer counts, at the same boundaries:

- ``nn.flops``: multiply-adds of the matrix products in ``forward`` and
  ``backward``, computed from the shapes (B x in x out per layer forward,
  twice that backward: the weight gradient and the input gradient);
- ``experiments.kmeans.iterations``: Lloyd iterations, from the returned
  inertia history;
- ``experiments.report_write.bytes``: bytes the report writers wrote.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

TRACED = {
    "nn": ("forward", "backward", "adam_step"),
    "losses": ("mse_loss", "balanced_mse_loss", "compute_balance_weights"),
    "models": (
        "train_autoencoder", "train_vae", "vae_loss", "reconstruct", "latent",
        "vae_reconstruct", "vae_generate",
    ),
    "rng": ("gaussian",),
    "tabular": ("generate_synthetic", "read_csv", "split", "fit_encoder", "encode", "decode"),
    "metrics": (
        "msem", "mc_distance", "mixed_correlation", "spearman", "cramers_v", "eta_squared",
        "silhouette", "balanced_accuracy", "rank_auc",
    ),
    "experiments": ("run_experiment", "vae_experiment", "ridge_fit", "logistic_fit", "kmeans"),
    "cli": ("main",),
}
REPORT_WRITE = "experiments.report_write"
REPORT_WRITERS = ("write_csv", "write_summary", "write_curves")

COUNTERS = {
    "nn.flops": "madd_computed",
    "experiments.kmeans.iterations": "count",
    "experiments.report_write.bytes": "bytes",
}


def span_names() -> list[str]:
    names = [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]
    names.insert(names.index("experiments.kmeans") + 1, REPORT_WRITE)
    return names


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _tree_bytes(path: Path) -> int:
    if path.is_file():
        return path.stat().st_size
    if path.is_dir():
        return sum(f.stat().st_size for f in path.iterdir() if f.is_file())
    return 0


class Tracer:
    """Wraps the traced functions and aggregates one round of spans."""

    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list] = []
        self.begin_round()

    def begin_round(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.calls: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.counts: Counter[str] = Counter({name: 0 for name in COUNTERS})
        self.origin = perf_counter()

    # -- counters computed at the span boundary ---------------------------

    def _count(self, name: str, args, kwargs, result) -> None:
        if name == "nn.forward":
            net, batch = _arg(args, kwargs, 0, "net"), _arg(args, kwargs, 1, "batch")
            self.counts["nn.flops"] += len(batch) * sum(l.W.size for l in net.layers)
        elif name == "nn.backward":
            net, trace = _arg(args, kwargs, 0, "net"), _arg(args, kwargs, 1, "trace")
            rows = len(trace.activations[0])
            self.counts["nn.flops"] += 2 * rows * sum(l.W.size for l in net.layers)
        elif name == "experiments.kmeans":
            self.counts["experiments.kmeans.iterations"] += len(result.inertia_history)

    # -- wrappers ---------------------------------------------------------

    def _enter(self) -> list:
        frame = [len(self.spans), self._stack[-1][0] if self._stack else -1, 0.0]
        self.spans.append(None)  # type: ignore[arg-type]  # filled on exit
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list, start: float, end: float) -> None:
        self._stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - frame[2]
        if self._stack:
            self._stack[-1][2] += duration
        self.spans[frame[0]] = (name, start - self.origin, end - self.origin, frame[1])

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._enter()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                tracer._count(name, args, kwargs, result)
                return result
            finally:
                tracer._exit(name, frame, start, perf_counter())

        return traced

    def _wrap_writer(self, method: str, fn):
        tracer = self

        def traced(report, path, *args, **kwargs):
            frame = tracer._enter()
            start = perf_counter()
            # write_curves appends to existing files; the other two overwrite.
            before = _tree_bytes(Path(path)) if method == "write_curves" else 0
            try:
                return fn(report, path, *args, **kwargs)
            finally:
                tracer.counts["experiments.report_write.bytes"] += _tree_bytes(Path(path)) - before
                tracer._exit(REPORT_WRITE, frame, start, perf_counter())

        return traced

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "mixedae" or n.startswith("mixedae."))
        ]
        for layer, names in TRACED.items():
            home = sys.modules[f"mixedae.{layer}"]
            for fn_name in names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)
        report_cls = sys.modules["mixedae.experiments"].ExperimentReport
        for method in REPORT_WRITERS:
            self._patch(report_cls, method, self._wrap_writer(method, getattr(report_cls, method)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
