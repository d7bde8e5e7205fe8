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

from abetune import datasets, harness

honest = "--honest" in sys.argv
ds = datasets.load_bundled("albrecht")
cfg = harness.parse_config({"datasets": [ds.name], "methods": ["abe0", "lt", "gt"],
                            "mopso": {"pop_size": 60, "max_iter": 40}, "seed": 7,
                            "mode": "honest" if honest else "oracle"})
# the run's cells, its GT swarm and local folds on two workers
cells = harness.run_experiment(cfg, threads=2)["results"][ds.name]

print(f"dataset: {ds.name} (n={ds.n}, m={ds.m}); local mode: {cells['lt']['mode']}")
print(f"\n{'method':22s} {'SA%':>7s} {'MBRE%':>8s} {'MIBRE%':>8s} {'LSD':>7s}")
for label, method in ((f"baseline (k={cells['abe0']['solutions'][0]['k']})", "abe0"),
                      ("local tuning", "lt"),
                      ("global tuning", "gt")):
    s = cells[method]["metrics"]
    print(f"{label:22s} {100 * s['sa']:7.1f} {100 * s['mbre']:8.1f} "
          f"{100 * s['mibre']:8.1f} {s['lsd']:7.3f}")

counts = Counter(sol["k"] for sol in cells["lt"]["solutions"])
print("\nper-project analogy counts chosen by local tuning:")
for k in sorted(counts):
    print(f"  k={k:2d}  " + "#" * counts[k])

shared = cells["gt"]["solutions"][0]  # the dict report.json stores
print(f"\nglobal solution: k={shared['k']}, mask={''.join(map(str, shared['mask']))}")
