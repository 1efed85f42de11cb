"""A miniature version of the k-fold comparison: split, train each loss
arm, score reconstruction and downstream prediction, aggregate.

The full-size protocol (n=2000, 1000+ epochs, 5 runs) lives in the
acceptance suite and takes minutes; this one is sized to finish in
about a minute.
"""

import numpy as np

from mixedae.experiments import DataSource, ExperimentConfig, run_experiment

cfg = ExperimentConfig(
    source=DataSource(kind="synthetic", context="imbalanced", n=2000),
    task="regression",
    runs=2,
    epochs=(300,),
    losses=("standard", "balanced"),
    seed=0,
)
report = run_experiment(cfg)

print(f"context: {report.context}")
print(f"{'loss':<10} {'metric':<14} {'mean':>10} {'std':>10}")
for (epochs, loss, metric), (mean, std) in report.aggregates().items():
    if metric in ("msem", "y_mse_recon", "y_mse_latent"):
        print(f"{loss:<10} {metric:<14} {mean:>10.4f} {std:>10.4f}")

for metric in ("msem", "y_mse_recon", "y_mse_latent"):
    b = np.median(report.values(metric, "balanced", 300))
    s = np.median(report.values(metric, "standard", 300))
    verdict = "balanced wins" if b < s else "standard wins"
    print(f"{metric}: median balanced {b:.4f} vs standard {s:.4f} -> {verdict}")

report.write_csv("report.csv")
report.write_summary("summary.json")
print("\nwrote report.csv and summary.json in the working directory")
print("pretty-print them with: mixedae report report.csv")
