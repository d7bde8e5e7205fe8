"""The bytes of every file `emit_report` writes, pinned on a small report
written out here: two datasets, an ABE0, an LT* and a GT+ cell, per-project
LT* solutions (so k histograms are written), NaN values, and the
comparisons, tallies and rank summaries of a multi-method run."""

import math

from abetune.harness import emit_report

NAN = math.nan


def suite(mae, sa, mbre, mibre, lsd, effect_size):
    return {"mae": mae, "sa": sa, "mbre": mbre, "mibre": mibre, "lsd": lsd,
            "effect_size": effect_size, "n": 3}


def tallies(*rows):
    return {m: dict(zip(("sa", "mbre", "mibre", "lsd", "mae"),
                        ({"win": w, "tie": t, "loss": l} for w, t, l in row)))
            for m, row in rows}


REPORT = {
    "engine_version": "0.3.0",
    "config": {"seed": 7, "mode": "oracle", "methods": ["abe0", "lt_star", "gt_plus"]},
    "results": {
        "alpha": {
            "abe0": {
                "metrics": suite(1.4166666666666667, 0.8512345, 0.0712, 0.06543, 0.1, 2.5),
                "actuals": [10.0, 20.5, 31.25], "predictions": [12.0, 18.0, 30.0],
                "solutions": [{"k": 2}], "mode": "best_k_scan"},
            "lt_star": {
                "metrics": suite(0.1, 0.98950000001, 0.00512, 0.005, 0.012345678, 3.25),
                "actuals": [10.0, 20.5, 31.25], "predictions": [10.1, 20.4, 31.35],
                "solutions": [
                    {"k": 2, "v": 3, "mask": [1, 1], "n_rows": 2,
                     "weights_used": [[0.5, 0.5], [0.25, 0.75]]},
                    {"k": 1, "v": 3, "mask": [1, 1], "n_rows": 2, "weights_used": [[0.0, 1.0]]},
                    {"k": 2, "v": 3, "mask": [1, 1], "n_rows": 2,
                     "weights_used": [[1.0, 0.0], [0.5, 0.5]]}],
                "mode": "local_oracle"},
            "gt_plus": {
                "metrics": suite(2.0, 0.79, 0.125, 0.1, 0.2, 2.0),
                "actuals": [10.0, 20.5, 31.25], "predictions": [1 / 3 + 11, 19.0, 32.0],
                "solutions": [{"k": 1, "v": 3, "mask": [1, 1], "n_rows": 3,
                               "weights_used": [[0.5, 0.5]]}],
                "mode": "global"},
        },
        "beta": {
            "abe0": {
                "metrics": suite(0.0, 1.0, 0.0, 0.0, 0.0, NAN),
                "actuals": [5.0, 7.0, 11.0], "predictions": [5.0, 7.0, 11.0],
                "solutions": [{"k": 1}], "mode": "best_k_scan"},
            "lt_star": {
                "metrics": suite(123456.789, -0.000123, 12.5, 0.9, 1.5e-7, 0.0),
                "actuals": [5.0, 7.0, 11.0], "predictions": [1e-9, 7.0, 2e5],
                "solutions": [
                    {"k": 1, "v": 1, "mask": [1], "n_rows": 2, "weights_used": [[1.0]]},
                    {"k": 1, "v": 1, "mask": [1], "n_rows": 2, "weights_used": [[1.0]]},
                    {"k": 1, "v": 1, "mask": [1], "n_rows": 2, "weights_used": [[1.0]]}],
                "mode": "local_oracle"},
            "gt_plus": {
                "metrics": suite(3.0, NAN, 0.5, 0.25, NAN, NAN),
                "actuals": [5.0, 7.0, 11.0], "predictions": [8.0, 4.0, 14.0],
                "solutions": [{"k": 1, "v": 1, "mask": [1], "n_rows": 3,
                               "weights_used": [[1.0]]}],
                "mode": "global"},
        },
    },
    "comparisons": {
        "alpha": [
            {"method_a": "abe0", "method_b": "lt_star", "p_value": 0.04443,
             "outcomes": {"sa": "loss", "mbre": "loss", "mibre": "loss", "lsd": "loss",
                          "mae": "loss"}},
            {"method_a": "abe0", "method_b": "gt_plus", "p_value": 1.0,
             "outcomes": {"sa": "tie", "mbre": "tie", "mibre": "tie", "lsd": "tie",
                          "mae": "tie"}},
            {"method_a": "lt_star", "method_b": "gt_plus", "p_value": 0.0123456,
             "outcomes": {"sa": "win", "mbre": "win", "mibre": "win", "lsd": "win",
                          "mae": "win"}},
        ],
        "beta": [
            {"method_a": "abe0", "method_b": "lt_star", "p_value": NAN,
             "outcomes": {"sa": "tie", "mbre": "tie", "mibre": "tie", "lsd": "tie",
                          "mae": "tie"}},
            {"method_a": "abe0", "method_b": "gt_plus", "p_value": 0.5,
             "outcomes": {"sa": "tie", "mbre": "win", "mibre": "tie", "lsd": "tie",
                          "mae": "win"}},
            {"method_a": "lt_star", "method_b": "gt_plus", "p_value": 2.5e-5,
             "outcomes": {"sa": "tie", "mbre": "loss", "mibre": "loss", "lsd": "tie",
                          "mae": "loss"}},
        ],
    },
    "win_tie_loss": {
        "alpha": tallies(("abe0", [(0, 1, 1)] * 5), ("lt_star", [(2, 0, 0)] * 5),
                         ("gt_plus", [(0, 1, 1)] * 5)),
        "beta": tallies(("abe0", [(0, 2, 0), (1, 1, 0), (0, 2, 0), (0, 2, 0), (1, 1, 0)]),
                        ("lt_star", [(0, 2, 0), (0, 1, 1), (0, 1, 1), (0, 2, 0), (0, 1, 1)]),
                        ("gt_plus", [(0, 2, 0), (1, 0, 1), (1, 1, 0), (0, 2, 0), (1, 0, 1)])),
    },
    "rank_summaries": {
        "sa": [{"method": "abe0", "mean_rank": 1.5, "rank_sd": 0.7071067811865476},
               {"method": "lt_star", "mean_rank": 1.5, "rank_sd": 0.7071067811865476},
               {"method": "gt_plus", "mean_rank": 3.0, "rank_sd": 0.0}],
        "mbre": [{"method": "abe0", "mean_rank": 2.0, "rank_sd": 1.4142135623730951},
                 {"method": "lt_star", "mean_rank": 2.0, "rank_sd": 1.4142135623730951},
                 {"method": "gt_plus", "mean_rank": 2.0, "rank_sd": 0.0}],
        "mibre": [{"method": "abe0", "mean_rank": 2.0, "rank_sd": 1.4142135623730951},
                  {"method": "lt_star", "mean_rank": 1.5, "rank_sd": 0.7071067811865476},
                  {"method": "gt_plus", "mean_rank": 2.5, "rank_sd": 0.7071067811865476}],
        "lsd": [{"method": "abe0", "mean_rank": 1.5, "rank_sd": 0.7071067811865476},
                {"method": "lt_star", "mean_rank": 1.5, "rank_sd": 0.7071067811865476},
                {"method": "gt_plus", "mean_rank": 3.0, "rank_sd": 0.0}],
        "mae": [{"method": "abe0", "mean_rank": 1.5, "rank_sd": 0.7071067811865476},
                {"method": "lt_star", "mean_rank": 2.0, "rank_sd": 1.4142135623730951},
                {"method": "gt_plus", "mean_rank": 2.5, "rank_sd": 0.7071067811865476}],
    },
}


# What `emit_report` writes for REPORT, file by file, in the order it
# returns the paths.
EXPECTED = {
    "report.json": (
        '{"comparisons":{"alpha":[{"method_a":"abe0","method_b":"lt_star","outcomes":{"lsd":"'
        'loss","mae":"loss","mbre":"loss","mibre":"loss","sa":"loss"},"p_value":0.04443},{"me'
        'thod_a":"abe0","method_b":"gt_plus","outcomes":{"lsd":"tie","mae":"tie","mbre":"tie"'
        ',"mibre":"tie","sa":"tie"},"p_value":1.0},{"method_a":"lt_star","method_b":"gt_plus"'
        ',"outcomes":{"lsd":"win","mae":"win","mbre":"win","mibre":"win","sa":"win"},"p_value'
        '":0.0123456}],"beta":[{"method_a":"abe0","method_b":"lt_star","outcomes":{"lsd":"tie'
        '","mae":"tie","mbre":"tie","mibre":"tie","sa":"tie"},"p_value":NaN},{"method_a":"abe'
        '0","method_b":"gt_plus","outcomes":{"lsd":"tie","mae":"win","mbre":"win","mibre":"ti'
        'e","sa":"tie"},"p_value":0.5},{"method_a":"lt_star","method_b":"gt_plus","outcomes":'
        '{"lsd":"tie","mae":"loss","mbre":"loss","mibre":"loss","sa":"tie"},"p_value":2.5e-05'
        '}]},"config":{"methods":["abe0","lt_star","gt_plus"],"mode":"oracle","seed":7},"engi'
        'ne_version":"0.3.0","rank_summaries":{"lsd":[{"mean_rank":1.5,"method":"abe0","rank_'
        'sd":0.7071067811865476},{"mean_rank":1.5,"method":"lt_star","rank_sd":0.707106781186'
        '5476},{"mean_rank":3.0,"method":"gt_plus","rank_sd":0.0}],"mae":[{"mean_rank":1.5,"m'
        'ethod":"abe0","rank_sd":0.7071067811865476},{"mean_rank":2.0,"method":"lt_star","ran'
        'k_sd":1.4142135623730951},{"mean_rank":2.5,"method":"gt_plus","rank_sd":0.7071067811'
        '865476}],"mbre":[{"mean_rank":2.0,"method":"abe0","rank_sd":1.4142135623730951},{"me'
        'an_rank":2.0,"method":"lt_star","rank_sd":1.4142135623730951},{"mean_rank":2.0,"meth'
        'od":"gt_plus","rank_sd":0.0}],"mibre":[{"mean_rank":2.0,"method":"abe0","rank_sd":1.'
        '4142135623730951},{"mean_rank":1.5,"method":"lt_star","rank_sd":0.7071067811865476},'
        '{"mean_rank":2.5,"method":"gt_plus","rank_sd":0.7071067811865476}],"sa":[{"mean_rank'
        '":1.5,"method":"abe0","rank_sd":0.7071067811865476},{"mean_rank":1.5,"method":"lt_st'
        'ar","rank_sd":0.7071067811865476},{"mean_rank":3.0,"method":"gt_plus","rank_sd":0.0}'
        ']},"results":{"alpha":{"abe0":{"actuals":[10.0,20.5,31.25],"metrics":{"effect_size":'
        '2.5,"lsd":0.1,"mae":1.4166666666666667,"mbre":0.0712,"mibre":0.06543,"n":3,"sa":0.85'
        '12345},"mode":"best_k_scan","predictions":[12.0,18.0,30.0],"solutions":[{"k":2}]},"g'
        't_plus":{"actuals":[10.0,20.5,31.25],"metrics":{"effect_size":2.0,"lsd":0.2,"mae":2.'
        '0,"mbre":0.125,"mibre":0.1,"n":3,"sa":0.79},"mode":"global","predictions":[11.333333'
        '333333334,19.0,32.0],"solutions":[{"k":1,"mask":[1,1],"n_rows":3,"v":3,"weights_used'
        '":[[0.5,0.5]]}]},"lt_star":{"actuals":[10.0,20.5,31.25],"metrics":{"effect_size":3.2'
        '5,"lsd":0.012345678,"mae":0.1,"mbre":0.00512,"mibre":0.005,"n":3,"sa":0.98950000001}'
        ',"mode":"local_oracle","predictions":[10.1,20.4,31.35],"solutions":[{"k":2,"mask":[1'
        ',1],"n_rows":2,"v":3,"weights_used":[[0.5,0.5],[0.25,0.75]]},{"k":1,"mask":[1,1],"n_'
        'rows":2,"v":3,"weights_used":[[0.0,1.0]]},{"k":2,"mask":[1,1],"n_rows":2,"v":3,"weig'
        'hts_used":[[1.0,0.0],[0.5,0.5]]}]}},"beta":{"abe0":{"actuals":[5.0,7.0,11.0],"metric'
        's":{"effect_size":NaN,"lsd":0.0,"mae":0.0,"mbre":0.0,"mibre":0.0,"n":3,"sa":1.0},"mo'
        'de":"best_k_scan","predictions":[5.0,7.0,11.0],"solutions":[{"k":1}]},"gt_plus":{"ac'
        'tuals":[5.0,7.0,11.0],"metrics":{"effect_size":NaN,"lsd":NaN,"mae":3.0,"mbre":0.5,"m'
        'ibre":0.25,"n":3,"sa":NaN},"mode":"global","predictions":[8.0,4.0,14.0],"solutions":'
        '[{"k":1,"mask":[1],"n_rows":3,"v":1,"weights_used":[[1.0]]}]},"lt_star":{"actuals":['
        '5.0,7.0,11.0],"metrics":{"effect_size":0.0,"lsd":1.5e-07,"mae":123456.789,"mbre":12.'
        '5,"mibre":0.9,"n":3,"sa":-0.000123},"mode":"local_oracle","predictions":[1e-09,7.0,2'
        '00000.0],"solutions":[{"k":1,"mask":[1],"n_rows":2,"v":1,"weights_used":[[1.0]]},{"k'
        '":1,"mask":[1],"n_rows":2,"v":1,"weights_used":[[1.0]]},{"k":1,"mask":[1],"n_rows":2'
        ',"v":1,"weights_used":[[1.0]]}]}}},"win_tie_loss":{"alpha":{"abe0":{"lsd":{"loss":1,'
        '"tie":1,"win":0},"mae":{"loss":1,"tie":1,"win":0},"mbre":{"loss":1,"tie":1,"win":0},'
        '"mibre":{"loss":1,"tie":1,"win":0},"sa":{"loss":1,"tie":1,"win":0}},"gt_plus":{"lsd"'
        ':{"loss":1,"tie":1,"win":0},"mae":{"loss":1,"tie":1,"win":0},"mbre":{"loss":1,"tie":'
        '1,"win":0},"mibre":{"loss":1,"tie":1,"win":0},"sa":{"loss":1,"tie":1,"win":0}},"lt_s'
        'tar":{"lsd":{"loss":0,"tie":0,"win":2},"mae":{"loss":0,"tie":0,"win":2},"mbre":{"los'
        's":0,"tie":0,"win":2},"mibre":{"loss":0,"tie":0,"win":2},"sa":{"loss":0,"tie":0,"win'
        '":2}}},"beta":{"abe0":{"lsd":{"loss":0,"tie":2,"win":0},"mae":{"loss":0,"tie":1,"win'
        '":1},"mbre":{"loss":0,"tie":1,"win":1},"mibre":{"loss":0,"tie":2,"win":0},"sa":{"los'
        's":0,"tie":2,"win":0}},"gt_plus":{"lsd":{"loss":0,"tie":2,"win":0},"mae":{"loss":1,"'
        'tie":0,"win":1},"mbre":{"loss":1,"tie":0,"win":1},"mibre":{"loss":0,"tie":1,"win":1}'
        ',"sa":{"loss":0,"tie":2,"win":0}},"lt_star":{"lsd":{"loss":0,"tie":2,"win":0},"mae":'
        '{"loss":1,"tie":1,"win":0},"mbre":{"loss":1,"tie":1,"win":0},"mibre":{"loss":1,"tie"'
        ':1,"win":0},"sa":{"loss":0,"tie":2,"win":0}}}}}\n'
    ),
    "metrics.csv": (
        'dataset,abe0_sa,abe0_mbre,abe0_mibre,abe0_lsd,abe0_mae,lt_star_sa,lt_star_mbre,lt_st'
        'ar_mibre,lt_star_lsd,lt_star_mae,gt_plus_sa,gt_plus_mbre,gt_plus_mibre,gt_plus_lsd,g'
        't_plus_mae\n'
        'alpha,85.1,0.0712,0.06543,0.1,1.417,99.0,0.00512,0.005,0.01235,0.1,79.0,0.125,0.1,0.'
        '2,2\n'
        'beta,100.0,0,0,0,0,-0.0,12.5,0.9,1.5e-07,1.235e+05,nan,0.5,0.25,nan,3\n'
    ),
    "comparisons.csv": (
        'dataset,method_a,method_b,p_value,sa,mbre,mibre,lsd,mae\n'
        'alpha,abe0,lt_star,0.04443,loss,loss,loss,loss,loss\n'
        'alpha,abe0,gt_plus,1,tie,tie,tie,tie,tie\n'
        'alpha,lt_star,gt_plus,0.01235,win,win,win,win,win\n'
        'beta,abe0,lt_star,nan,tie,tie,tie,tie,tie\n'
        'beta,abe0,gt_plus,0.5,tie,win,tie,tie,win\n'
        'beta,lt_star,gt_plus,2.5e-05,tie,loss,loss,tie,loss\n'
    ),
    "win_tie_loss.csv": (
        'dataset,method,measure,win,tie,loss\n'
        'alpha,abe0,sa,0,1,1\n'
        'alpha,abe0,mbre,0,1,1\n'
        'alpha,abe0,mibre,0,1,1\n'
        'alpha,abe0,lsd,0,1,1\n'
        'alpha,abe0,mae,0,1,1\n'
        'alpha,lt_star,sa,2,0,0\n'
        'alpha,lt_star,mbre,2,0,0\n'
        'alpha,lt_star,mibre,2,0,0\n'
        'alpha,lt_star,lsd,2,0,0\n'
        'alpha,lt_star,mae,2,0,0\n'
        'alpha,gt_plus,sa,0,1,1\n'
        'alpha,gt_plus,mbre,0,1,1\n'
        'alpha,gt_plus,mibre,0,1,1\n'
        'alpha,gt_plus,lsd,0,1,1\n'
        'alpha,gt_plus,mae,0,1,1\n'
        'beta,abe0,sa,0,2,0\n'
        'beta,abe0,mbre,1,1,0\n'
        'beta,abe0,mibre,0,2,0\n'
        'beta,abe0,lsd,0,2,0\n'
        'beta,abe0,mae,1,1,0\n'
        'beta,lt_star,sa,0,2,0\n'
        'beta,lt_star,mbre,0,1,1\n'
        'beta,lt_star,mibre,0,1,1\n'
        'beta,lt_star,lsd,0,2,0\n'
        'beta,lt_star,mae,0,1,1\n'
        'beta,gt_plus,sa,0,2,0\n'
        'beta,gt_plus,mbre,1,0,1\n'
        'beta,gt_plus,mibre,1,1,0\n'
        'beta,gt_plus,lsd,0,2,0\n'
        'beta,gt_plus,mae,1,0,1\n'
    ),
    "predictions.csv": (
        'dataset,method,project_index,actual,predicted\n'
        'alpha,abe0,0,10.0,12.0\n'
        'alpha,abe0,1,20.5,18.0\n'
        'alpha,abe0,2,31.25,30.0\n'
        'alpha,lt_star,0,10.0,10.1\n'
        'alpha,lt_star,1,20.5,20.4\n'
        'alpha,lt_star,2,31.25,31.35\n'
        'alpha,gt_plus,0,10.0,11.333333333333334\n'
        'alpha,gt_plus,1,20.5,19.0\n'
        'alpha,gt_plus,2,31.25,32.0\n'
        'beta,abe0,0,5.0,5.0\n'
        'beta,abe0,1,7.0,7.0\n'
        'beta,abe0,2,11.0,11.0\n'
        'beta,lt_star,0,5.0,1e-09\n'
        'beta,lt_star,1,7.0,7.0\n'
        'beta,lt_star,2,11.0,200000.0\n'
        'beta,gt_plus,0,5.0,8.0\n'
        'beta,gt_plus,1,7.0,4.0\n'
        'beta,gt_plus,2,11.0,14.0\n'
    ),
    "ranks.csv": (
        'measure,method,mean_rank,rank_sd\n'
        'sa,abe0,1.5,0.7071\n'
        'sa,lt_star,1.5,0.7071\n'
        'sa,gt_plus,3,0\n'
        'mbre,abe0,2,1.414\n'
        'mbre,lt_star,2,1.414\n'
        'mbre,gt_plus,2,0\n'
        'mibre,abe0,2,1.414\n'
        'mibre,lt_star,1.5,0.7071\n'
        'mibre,gt_plus,2.5,0.7071\n'
        'lsd,abe0,1.5,0.7071\n'
        'lsd,lt_star,1.5,0.7071\n'
        'lsd,gt_plus,3,0\n'
        'mae,abe0,1.5,0.7071\n'
        'mae,lt_star,2,1.414\n'
        'mae,gt_plus,2.5,0.7071\n'
    ),
    "k_hist_alpha_lt_star.dat": (
        '1 1\n'
        '2 2\n'
    ),
    "k_hist_beta_lt_star.dat": (
        '1 3\n'
    ),
    "metrics.md": (
        '| dataset | ABE0 SA | ABE0 MBRE | ABE0 MIBRE | ABE0 LSD | ABE0 MAE | LT* SA | LT* MB'
        'RE | LT* MIBRE | LT* LSD | LT* MAE | GT+ SA | GT+ MBRE | GT+ MIBRE | GT+ LSD | GT+ M'
        'AE |\n'
        '|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|\n'
        '| alpha | 85.1 | 0.0712 | 0.06543 | 0.1 | 1.417 | 99.0 | 0.00512 | 0.005 | 0.01235 |'
        ' 0.1 | 79.0 | 0.125 | 0.1 | 0.2 | 2 |\n'
        '| beta | 100.0 | 0 | 0 | 0 | 0 | -0.0 | 12.5 | 0.9 | 1.5e-07 | 1.235e+05 | nan | 0.5'
        ' | 0.25 | nan | 3 |\n'
        '\n'
        'SA shown as a percentage. Local tuning objective mode: oracle.\n'
    ),
}


def test_every_file_is_pinned_byte_for_byte(tmp_path):
    written = emit_report(REPORT, tmp_path)
    assert written == [tmp_path / name for name in EXPECTED]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(EXPECTED)
    for path in written:
        assert path.read_bytes() == EXPECTED[path.name].encode("utf-8"), path.name
