"""Load a benchmark dataset into the table the estimator reads.

One call reads the CSV, drops the rows missing an input or the effort, and
min-max scales every numeric input feature into [0, 1] while leaving
efforts in their native unit.  Shown on the bundled albrecht data, then on
desharnais, which has incomplete rows and a categorical feature.
"""

from importlib import resources

import numpy as np

from abetune import datasets

std = datasets.load_bundled("albrecht")
print(f"albrecht: {std.n} projects, {std.m} input features")
print("features:", ", ".join(std.features))
print("efforts (months): min=%.1f max=%.1f median=%.1f"
      % (std.efforts().min(), std.efforts().max(), np.median(std.efforts())))
print("categorical mask:", std.categorical_mask.astype(int).tolist())
print("\nscaled column ranges:")
for name, col in zip(std.features, std.matrix.T):
    print(f"  {name:13s} [{col.min():.2f}, {col.max():.2f}]")

# rows missing a value are dropped as the file loads
desh = datasets.load_bundled("desharnais")
text = resources.files("abetune").joinpath("data", "desharnais.csv").read_text()
on_disk = len(text.splitlines()) - 1  # every line after the header is a project
print(f"\ndesharnais: {on_disk} rows on disk, {desh.n} complete rows kept")
print("categorical features (compared by label code):",
      [f for f, c in zip(desh.features, desh.categorical_mask) if c])
