"""What each decision variable contributes.

Re-runs local tuning with one variable pinned: the starred variant keeps
every feature in the adaptation (mask fixed to all ones), the plus variant
keeps equal weights (every row 1/m), and the k-only variant pins both.
Each pinned space is a subset of the full one, so optimizing all three
variables together should not be worse than pinning one.
"""

from abetune import datasets, metrics, mopso, tuning

cfg = mopso.MopsoConfig(pop_size=60, max_iter=40, seed=11)

for name in ("albrecht", "kemerer"):
    ds = datasets.load_bundled(name)
    baseline = metrics.random_guess_baseline(ds.efforts())
    print(f"\n{name} (n={ds.n}, m={ds.m})")
    print(f"{'variant':28s} {'SA%':>7s} {'MBRE%':>8s} {'MIBRE%':>8s}")
    for label, name in (("full (k, mask, weights)", "lt"),
                        ("mask pinned to all ones", "lt_star"),
                        ("weights pinned to 1/m", "lt_plus"),
                        ("k only", "k_only")):
        res = tuning.run_lt(ds, tuning.VARIANTS[name], cfg, threads=2)
        recs = [metrics.PredictionRecord(a, p)
                for a, p in zip(ds.efforts(), res.predictions)]
        s = metrics.aggregate(recs, baseline)
        print(f"{label:28s} {100 * s.sa:7.1f} {100 * s.mbre:8.1f} {100 * s.mibre:8.1f}")
