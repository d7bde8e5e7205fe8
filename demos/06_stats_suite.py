"""Statistical comparison machinery on a small method tournament.

Runs the baseline and both tuning modes on two datasets, then shows the
rank-sum gate, the win/tie/loss tallies per measure, and the cross-dataset
rank summary (mean rank and rank stability).
"""

import numpy as np

from abetune import datasets, harness, metrics, mopso, stats, tuning

cfg = mopso.MopsoConfig(pop_size=40, max_iter=30, seed=3)
measure_tables = {m: {} for m in ("sa", "mbre", "mibre", "lsd", "mae")}

with harness.worker_map(2) as fold_map:  # one pool of two workers for every fold
    for name in ("albrecht", "nasa"):
        ds = datasets.load_bundled(name)
        baseline = metrics.random_guess_baseline(ds.efforts())
        preds = {
            "abe0": tuning.best_k_abe0(ds)[1],
            "lt": tuning.run_lt(ds, tuning.VARIANTS["lt"], cfg, fold_map=fold_map).predictions,
            "gt": tuning.run_gt(ds, tuning.VARIANTS["gt"], cfg).predictions,
        }
        errors = {m: np.abs(ds.efforts() - p) for m, p in preds.items()}
        suites = {}
        for m, p in preds.items():
            s = metrics.aggregate(ds.efforts(), p, baseline)
            suites[m] = {e: s[e] for e in measure_tables}
            for e in measure_tables:
                measure_tables[e].setdefault(name, {})[m] = s[e]

        tallies, comparisons = stats.win_tie_loss(errors, suites)
        print(f"\n=== {name} ===")
        for c in comparisons:
            verdict = "differ" if c["p_value"] < 0.05 else "same at 95%"
            print(f"  {c['method_a']} vs {c['method_b']}: rank-sum p={c['p_value']:.4f} "
                  f"({verdict})")
        print("  tallies on MAE: " + "  ".join(
            f"{m}: {t['mae']['win']}w/{t['mae']['tie']}t/{t['mae']['loss']}l"
            for m, t in tallies.items()))

print("\ncross-dataset mean ranks (lower is better):")
for measure in ("mae", "mbre"):
    summaries = stats.rank_methods(measure_tables[measure])
    row = "  ".join(f"{s['method']}={s['mean_rank']:.1f}(sd {s['rank_sd']:.2f})"
                    for s in summaries)
    print(f"  {measure}: {row}")
