"""Train the same autoencoder under the standard and balanced losses and
compare what each learned, feature by feature.

Takes about half a minute; the multi-run comparisons live in
demos/05_experiment.py.
"""

import numpy as np

from mixedae import metrics
from mixedae.models import AutoencoderConfig, reconstruct, train_autoencoder
from mixedae.tabular import fit_encoder, generate_synthetic, split

EPOCHS = 1000

data = generate_synthetic("imbalanced", n=2000, seed=3)
train, test = split(data, 0.4, seed=1)
enc = fit_encoder(train)

models = {}
for loss in ("standard", "balanced"):
    models[loss] = train_autoencoder(
        train, enc, AutoencoderConfig(epochs=EPOCHS, loss=loss, seed=11)
    )
    rec = reconstruct(models[loss], test)
    print(f"{loss:9s}: test MSEM = {metrics.msem(test, rec, enc):.4f}")

# Per-feature error at the final checkpoint, rarest features first. Under
# the standard loss a rare column's error sits at its base rate f: that is
# what "predict zero everywhere" costs, and it means nothing was learned.
# (The balanced arm shows larger raw column errors exactly because it stops
# predicting all-zero; column MSE alone cannot tell these apart.)
freqs = enc.feature_frequencies()
names = enc.feature_names()
print(f"\nper-feature training error at epoch {EPOCHS} (rarest first):")
print(f"{'feature':<14} {'freq':>6} {'standard':>10} {'balanced':>10}")
order = np.argsort(np.nan_to_num(freqs, nan=2.0))
for j in order[:6]:
    s = models["standard"].curves.errors[-1, j]
    b = models["balanced"].curves.errors[-1, j]
    print(f"{names[j]:<14} {freqs[j]:>6.3f} {s:>10.4f} {b:>10.4f}")

final = models["standard"].curves.errors[-1]
minority = final[np.nan_to_num(freqs, nan=1.0) < 0.1].mean()
majority = final[np.nan_to_num(freqs, nan=0.0) > 0.3].mean()
print(f"\nstandard loss: minority-column error {minority:.4f} vs majority {majority:.4f}"
      f" ({minority / majority:.1f}x) -> majority features get learned first")

# Balanced accuracy is the honest per-category lens: 0.5 means the
# category is never predicted at all.
for loss, model in models.items():
    rec = reconstruct(model, test)
    q2 = test.schema.column("Q2")
    rare = q2.categories.index("Q2.02")
    balacc = metrics.balanced_accuracy(test.column("Q2") == rare, rec.column("Q2") == rare)
    print(f"{loss:9s}: balanced accuracy of the 2% category Q2.02 = {balacc:.3f}")
