"""Generative use: train a VAE on the mixed table (features + target),
then sample a synthetic dataset from the prior and compare category
frequencies with the training data.
"""

import numpy as np

from mixedae.models import VAEConfig, train_vae, vae_generate, vae_reconstruct
from mixedae import metrics
from mixedae.tabular import fit_encoder, generate_synthetic, split

data = generate_synthetic("imbalanced", n=2000, seed=9)
train, test = split(data, 0.4, seed=2)
enc = fit_encoder(train)

model = train_vae(train, enc, VAEConfig(epochs=600, seed=4))
print(f"test reconstruction MSEM: {metrics.msem(test, vae_reconstruct(model, test), enc):.4f}")

generated = vae_generate(model, count=2000, seed=77)
print(f"\ngenerated {generated.n} rows; target mean {generated.y.mean():.2f}"
      f" (training target mean {train.y.mean():.2f})")

print("\ncategory frequencies, training vs generated:")
for name in ("Q1", "Q3"):
    col = data.schema.column(name)
    got = np.bincount(generated.column(name), minlength=len(col.categories)) / generated.n
    want = enc.category_counts[name] / enc.n
    for cat, w, g in zip(col.categories, want, got):
        print(f"  {cat:<8} train={w:.3f}  generated={g:.3f}")

print("\nnumeric ranges, training vs generated:")
for name in ("X1", "X2"):
    lo, hi = enc.numeric_range[name]
    g = generated.column(name)
    print(f"  {name}: train [{lo:.2f}, {hi:.2f}]  generated [{g.min():.2f}, {g.max():.2f}]")
