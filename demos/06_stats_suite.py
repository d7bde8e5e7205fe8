"""Statistical comparison machinery on a small method tournament.

Runs the baseline and both tuning modes on two datasets, then shows the
rank-sum gate, the win/tie/loss tallies per measure, and the cross-dataset
rank summary (mean rank and rank stability), as the run's report holds them.
"""

from abetune import harness

cfg = harness.parse_config({"datasets": ["albrecht", "nasa"], "methods": ["abe0", "lt", "gt"],
                            "mopso": {"pop_size": 40, "max_iter": 30}, "seed": 3})
report = harness.run_experiment(cfg, threads=2)  # one pool of two workers for every cell

for name, comparisons in report["comparisons"].items():
    print(f"\n=== {name} ===")
    for c in comparisons:
        verdict = "differ" if c["p_value"] < 0.05 else "same at 95%"
        print(f"  {c['method_a']} vs {c['method_b']}: rank-sum p={c['p_value']:.4f} "
              f"({verdict})")
    print("  tallies on MAE: " + "  ".join(
        f"{m}: {t['mae']['win']}w/{t['mae']['tie']}t/{t['mae']['loss']}l"
        for m, t in report["win_tie_loss"][name].items()))

print("\ncross-dataset mean ranks (lower is better):")
for measure in ("mae", "mbre"):
    row = "  ".join(f"{s['method']}={s['mean_rank']:.1f}(sd {s['rank_sd']:.2f})"
                    for s in report["rank_summaries"][measure])
    print(f"  {measure}: {row}")
