"""The built-in synthetic benchmark: 3 Gaussian + 5 multinomial features
with a target driven by minority or majority categories depending on the
context.
"""

import numpy as np

from mixedae.tabular import generate_synthetic, split, write_csv

for context in ("imbalanced", "balanced", "majority"):
    data = generate_synthetic(context, n=2000, seed=42)
    corr_x1 = np.corrcoef(data.column("X1"), data.y)[0, 1]
    q3 = data.schema.column("Q3")
    rare = q3.categories.index("Q3.03")
    member = data.column("Q3") == rare
    lift = data.y[member].mean() - data.y[~member].mean()
    print(f"{context:10s}: corr(y, X1) = {corr_x1:+.2f};"
          f"  y lift of the 3% category Q3.03 = {lift:+.2f}")

print()
data = generate_synthetic("imbalanced", n=2000, seed=42)
print("category frequencies (drawn vs nominal):")
for name in ("Q1", "Q3", "Q5"):
    col = data.schema.column(name)
    freqs = np.bincount(data.column(name), minlength=len(col.categories)) / data.n
    print(f"  {name}: " + ", ".join(
        f"{cat}={f:.3f}" for cat, f in zip(col.categories, freqs)
    ))

train, test = split(data, test_fraction=0.4, seed=7)
print(f"\nsplit: {train.n} train / {test.n} test rows")

write_csv(data, "mixedae_demo_synthetic.csv")
print("wrote mixedae_demo_synthetic.csv in the working directory")
