"""Local vs global tuning of the adaptation triple (k, mask, weights).

Local tuning optimizes a fresh solution for every held-out project (the
published objective scores a candidate against the held-out actual, so this
mode is an oracle; pass --honest for the leakage-free variant).  Global
tuning finds one shared solution per dataset.  Prints the metric table and
the per-project k histogram that shows different projects preferring
different analogy counts.
"""

import sys
from collections import Counter
from dataclasses import replace

from abetune import datasets, metrics, mopso, tuning

mode = "local_honest" if "--honest" in sys.argv else "local_oracle"
ds = datasets.load_bundled("albrecht")
baseline = metrics.random_guess_baseline(ds.efforts())
cfg = mopso.MopsoConfig(pop_size=60, max_iter=40, seed=7)


def suite_of(preds):
    recs = [metrics.PredictionRecord(a, p) for a, p in zip(ds.efforts(), preds)]
    return metrics.aggregate(recs, baseline)


best_k, abe0_preds = tuning.best_k_abe0(ds)
lt = tuning.run_lt(ds, replace(tuning.VARIANTS["lt"], mode=mode), cfg, threads=2)
gt = tuning.run_gt(ds, tuning.VARIANTS["gt"], cfg)

print(f"dataset: {ds.name} (n={ds.n}, m={ds.m}); local mode: {mode}")
print(f"\n{'method':22s} {'SA%':>7s} {'MBRE%':>8s} {'MIBRE%':>8s} {'LSD':>7s}")
for label, preds in ((f"baseline (k={best_k})", abe0_preds),
                     ("local tuning", lt.predictions),
                     ("global tuning", gt.predictions)):
    s = suite_of(preds)
    print(f"{label:22s} {100 * s.sa:7.1f} {100 * s.mbre:8.1f} "
          f"{100 * s.mibre:8.1f} {s.lsd:7.3f}")

counts = Counter(sol.k for sol in lt.solutions)
print("\nper-project analogy counts chosen by local tuning:")
for k in sorted(counts):
    print(f"  k={k:2d}  " + "#" * counts[k])

shared = gt.solutions[0]
print(f"\nglobal solution: k={shared.k}, mask={''.join(map(str, shared.mask.bits))}")
