"""The unadapted analogy baseline and its k scan.

For every candidate k, predict each project as the mean effort of its k
nearest analogies under leave-one-out; the baseline keeps the k with the
lowest mean absolute error.  Also prints the full metric suite, with
standardized accuracy measured against random guessing.
"""

import numpy as np

from abetune import abe, datasets, metrics, tuning

ds = datasets.load_bundled("albrecht")
efforts = ds.effort_vec
baseline = metrics.random_guess_baseline(efforts)
print(f"random-guess baseline MAE: {baseline.mae_p0:.2f} months")

# per fold, the training efforts in analogy order, nearest first
ranked = [train.effort_vec[abe.neighbor_order(train, row)]
          for train, row, _ in map(ds.loocv_fold, range(ds.n))]

print("\n  k   LOOCV MAE      SA%")
for k in (1, 2, 3, 5, 8, 13, 21, 23):
    preds = [analogies[:k].mean() for analogies in ranked]
    mae = float(np.mean(np.abs(efforts - np.array(preds))))
    print(f" {k:3d}   {mae:9.2f}   {100 * (1 - mae / baseline.mae_p0):6.1f}")

best_k, preds = tuning.best_k_abe0(ds)
suite = metrics.aggregate(efforts, preds, baseline)
print(f"\nbest k = {best_k}")
print(f"SA    = {100 * suite['sa']:.1f}%")
print(f"MAE   = {suite['mae']:.2f} months")
print(f"MBRE  = {100 * suite['mbre']:.1f}%   MIBRE = {100 * suite['mibre']:.1f}%")
print(f"LSD   = {suite['lsd']:.3f}   effect size vs guessing = {suite['effect_size']:.2f}")
