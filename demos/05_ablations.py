"""What each decision variable contributes.

Re-runs local tuning with one variable pinned: the starred variant keeps
every feature in the adaptation (mask fixed to all ones), the plus variant
keeps equal weights (every row 1/m), and the k-only variant pins both.
Each pinned space is a subset of the full one, so optimizing all three
variables together should not be worse than pinning one.
"""

from abetune import datasets, harness, metrics, mopso, tuning

cfg = mopso.MopsoConfig(pop_size=60, max_iter=40, seed=11)
# not a method of the tool: only k is tuned, the mask and weights are pinned
K_ONLY = tuning.VariantConfig(optimize_features=False, optimize_weights=False)

with harness.worker_map(2) as fold_map:  # one pool of two workers for every fold
    for name in ("albrecht", "kemerer"):
        ds = datasets.load_bundled(name)
        baseline = metrics.random_guess_baseline(ds.effort_vec)
        print(f"\n{name} (n={ds.n}, m={ds.m})")
        print(f"{'variant':28s} {'SA%':>7s} {'MBRE%':>8s} {'MIBRE%':>8s}")
        for label, variant in (("full (k, mask, weights)", tuning.VARIANTS["lt"]),
                               ("mask pinned to all ones", tuning.VARIANTS["lt_star"]),
                               ("weights pinned to 1/m", tuning.VARIANTS["lt_plus"]),
                               ("k only", K_ONLY)):
            res = tuning.run_lt(ds, variant, cfg, fold_map=fold_map)
            s = metrics.aggregate(ds.effort_vec, res.predictions, baseline)
            print(f"{label:28s} {100 * s['sa']:7.1f} {100 * s['mbre']:8.1f} "
                  f"{100 * s['mibre']:8.1f}")
