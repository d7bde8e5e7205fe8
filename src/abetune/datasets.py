"""Bundled benchmark datasets: files, column roles and provenance notes.

albrecht, kemerer and nasa are transcriptions of the public PROMISE tables.
telecom, desharnais, cocomo, china and maxwell are seeded surrogates with
the same shape and effort-distribution targets as the public originals
(regenerable via tools/make_bundled_data.py); china is desk-scale (60 rows
standing in for the original 499).  synthetic_small is a fixed 8x4 instance
used by the brute-force equivalence tests.

Effort units: months for albrecht, kemerer, nasa, telecom and cocomo;
hours for desharnais, china, maxwell and synthetic_small.
"""

from __future__ import annotations

from importlib import resources

from .data import Dataset, StandardizedDataset, load_dataset, preprocess, standardize
from .errors import ConfigError

# Each table's file and the load_dataset column roles.  The effort column is
# the one named "Effort" unless named here; every other column not named here
# is a numeric input.
BUNDLED = {
    "albrecht": {"file": "albrecht.csv"},
    "kemerer": {"file": "kemerer.csv", "effort_column": "EffortMM",
                "categorical_columns": ("Language", "Hardware"), "excluded_columns": ("ID",)},
    "nasa": {"file": "nasa.csv"},
    "telecom": {"file": "telecom.csv"},
    "desharnais": {"file": "desharnais.csv", "categorical_columns": ("Language",),
                   "excluded_columns": ("Project",)},
    "cocomo": {"file": "cocomo.csv"},
    # duration is known only after the fact
    "china": {"file": "china.csv", "excluded_columns": ("ID", "Duration")},
    "maxwell": {"file": "maxwell.csv", "categorical_columns": ("App", "Har"),
                "excluded_columns": ("Duration",)},
    "synthetic_small": {"file": "synthetic_small.csv"},
}

BENCHMARK_NAMES = ["albrecht", "kemerer", "nasa", "telecom", "desharnais",
                   "cocomo", "china", "maxwell"]


def load_bundled_raw(name: str) -> Dataset:
    if name not in BUNDLED:
        raise ConfigError(f"no bundled dataset named {name!r}; have {sorted(BUNDLED)}")
    roles = dict(BUNDLED[name])
    table = resources.files("abetune").joinpath("data", roles.pop("file"))
    with resources.as_file(table) as path:
        return load_dataset(path, name=name, **roles)


def load_bundled(name: str) -> StandardizedDataset:
    """load -> preprocess -> standardize for a bundled dataset."""
    return standardize(preprocess(load_bundled_raw(name)))
