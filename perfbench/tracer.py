"""In-process tracing of `abetune` by wrapping its public callables.

`Tracer.install` replaces module functions and class methods of the
imported `abetune` package with wrappers that time each call, and
`Tracer.uninstall` puts the originals back.  A wrapper records a span per
call: the call's duration and how much of it child spans covered, so a
span's self time is its duration minus its children's.  Spans are summed
per name in memory; nothing is written until the caller asks for
`summary()`.

Wrapping works because the package calls these functions through module
attributes (`mopso.run`, `abe.neighbor_order`, ...) or through the class
(`problem.evaluate_batch`), so a replaced attribute is what the next call
finds.
"""

from __future__ import annotations

import functools
from time import perf_counter

LAYERS = ("data", "abe", "tuning", "mopso", "metrics", "stats", "harness")


class Tracer:
    def __init__(self):
        self.spans: dict[str, list] = {}   # name -> [calls, total_s, child_s]
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []       # [child time, name] of each open span
        self._patched: list[tuple] = []    # (owner, attribute, original)

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def inside(self, name: str) -> bool:
        """Whether a span of this name is open around the current call."""
        return any(frame[1] == name for frame in self._stack)

    def _wrap(self, name: str, fn, after=None):
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children = [0.0, name]
            stack.append(children)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                s = spans.setdefault(name, [0, 0.0, 0.0])
                s[0] += 1
                s[1] += dt
                s[2] += children[0]
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def patch(self, owner, attribute: str, name: str, after=None) -> None:
        original = getattr(owner, attribute)
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, self._wrap(name, original, after))

    def uninstall(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def install(self, abetune) -> None:
        """Wrap the layer boundaries of an imported `abetune` package."""
        abe, data, datasets, harness = abetune.abe, abetune.data, abetune.datasets, abetune.harness
        metrics, mopso, stats, tuning = abetune.metrics, abetune.mopso, abetune.stats, abetune.tuning

        def rows(args, _result):
            self.count("tuning.evaluate_rows", len(args[1]))
            if self.inside("mopso.run"):
                self.count("mopso.evaluations", len(args[1]))

        def archive_size(args, _result):
            self.count("mopso.archive_size_sum", len(args[0]))

        self.patch(datasets, "load_bundled", "data.load")
        self.patch(data.StandardizedDataset, "loocv_fold", "data.loocv_fold")
        self.patch(abe, "neighbor_order", "abe.neighbor_order")
        self.patch(abe, "predict_adapted", "abe.predict_adapted")
        self.patch(tuning, "run_lt", "tuning.run_lt")
        self.patch(tuning, "run_gt", "tuning.run_gt")
        self.patch(tuning, "best_k_abe0", "tuning.best_k_abe0")
        self.patch(tuning, "decode_position", "tuning.front_decode")
        self.patch(tuning, "select_from_front", "tuning.select")
        for problem in (tuning.LocalProblem, tuning.GlobalProblem):
            self.patch(problem, "__init__", "tuning.problem_build")
            self.patch(problem, "evaluate_batch", "tuning.evaluate", rows)
        self.patch(mopso, "run", "mopso.run")
        self.patch(mopso, "mutate", "mopso.mutate")
        self.patch(mopso.Archive, "update", "mopso.archive_update", archive_size)
        self.patch(mopso, "crowding_distances", "mopso.crowding")
        self.patch(metrics, "random_guess_baseline", "metrics.baseline")
        self.patch(metrics, "aggregate", "metrics.aggregate")
        self.patch(stats, "win_tie_loss", "stats.tournament")
        self.patch(stats, "rank_methods", "stats.tournament")
        self.patch(harness, "run_experiment", "harness.run_experiment")
        self.patch(harness, "emit_report", "harness.emit")

    def overhead_estimate(self, samples: int = 100_000) -> float:
        """Seconds the wrappers added to the calls recorded so far: the
        measured cost of wrapping a no-op, times the number of calls."""
        def noop():
            return None

        probe = Tracer()
        wrapped = probe._wrap("noop", noop)
        t0 = perf_counter()
        for _ in range(samples):
            noop()
        t1 = perf_counter()
        for _ in range(samples):
            wrapped()
        t2 = perf_counter()
        per_call = ((t2 - t1) - (t1 - t0)) / samples
        return per_call * sum(calls for calls, _, _ in self.spans.values())

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        return {
            name: {"calls": calls, "total_s": total, "self_s": total - child}
            for name, (calls, total, child) in sorted(self.spans.items())
        }

    def layer_metrics(self) -> dict:
        """The per-layer metrics, as (value, unit) pairs."""
        spans = self.spans
        c = self.counters

        def total(name):
            return spans.get(name, [0, 0.0, 0.0])[1]

        def calls(name):
            return spans.get(name, [0, 0.0, 0.0])[0]

        def self_s(name):
            _, t, child = spans.get(name, [0, 0.0, 0.0])
            return t - child

        updates = calls("mopso.archive_update")
        evaluate_s = total("tuning.evaluate")
        out = {
            "mopso.run_s": (total("mopso.run"), "s"),
            "mopso.runs": (calls("mopso.run"), "count"),
            "mopso.evaluations": (c.get("mopso.evaluations", 0.0), "count"),
            "mopso.step_self_s": (self_s("mopso.run"), "s"),
            "mopso.mutate_s": (total("mopso.mutate"), "s"),
            "mopso.mutate_calls": (calls("mopso.mutate"), "count"),
            "mopso.archive_update_s": (total("mopso.archive_update"), "s"),
            "mopso.archive_update_calls": (updates, "count"),
            "mopso.archive_size_mean": (
                c.get("mopso.archive_size_sum", 0.0) / updates if updates else 0.0, "count"),
            "mopso.crowding_s": (total("mopso.crowding"), "s"),
            "tuning.evaluate_s": (evaluate_s, "s"),
            "tuning.evaluate_rows": (c.get("tuning.evaluate_rows", 0.0), "count"),
            "tuning.evaluate_rows_per_s": (
                c.get("tuning.evaluate_rows", 0.0) / evaluate_s if evaluate_s else 0.0, "1/s"),
            "tuning.problem_build_s": (total("tuning.problem_build"), "s"),
            "tuning.problem_builds": (calls("tuning.problem_build"), "count"),
            "tuning.front_decode_s": (total("tuning.front_decode"), "s"),
            "tuning.front_decodes": (calls("tuning.front_decode"), "count"),
            "tuning.select_s": (total("tuning.select"), "s"),
            "tuning.best_k_abe0_s": (total("tuning.best_k_abe0"), "s"),
            "abe.neighbor_order_s": (total("abe.neighbor_order"), "s"),
            "abe.neighbor_order_calls": (calls("abe.neighbor_order"), "count"),
            "abe.predict_adapted_s": (total("abe.predict_adapted"), "s"),
            "abe.predict_adapted_calls": (calls("abe.predict_adapted"), "count"),
            "metrics.baseline_s": (total("metrics.baseline"), "s"),
            "metrics.baseline_calls": (calls("metrics.baseline"), "count"),
            "metrics.aggregate_s": (total("metrics.aggregate"), "s"),
            "stats.tournament_s": (total("stats.tournament"), "s"),
            "harness.emit_s": (total("harness.emit"), "s"),
            "data.load_s": (total("data.load"), "s"),
            "data.loocv_fold_s": (total("data.loocv_fold"), "s"),
            "data.loocv_fold_calls": (calls("data.loocv_fold"), "count"),
            "harness.run_experiment_s": (total("harness.run_experiment"), "s"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (
                sum(self_s(n) for n in spans if n.split(".")[0] == layer), "s")
        return out
