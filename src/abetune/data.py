"""Dataset model, CSV ingestion, preprocessing and min-max standardization.

A dataset is an immutable table of projects.  Each feature has a kind
(numeric or categorical) and a role: regular input, the effort column, or
excluded (dropped during preprocessing).  Categorical values are kept as
interned labels and are never coded as numbers; the distance function
compares them for equality only.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, ParseError, SchemaError

# Cells that count as missing in PROMISE-style CSV exports.
MISSING_TOKENS = ("", "?")

# The swarm encodes the feature mask as one float dimension, which decodes
# every mask value 1..2^m-1 only while m <= 52 (past that, x + 0.5 rounds).
MAX_INPUT_FEATURES = 52
MIN_PROJECTS = 3


class Kind(enum.Enum):
    NUMERIC = "numeric"
    CATEGORICAL = "categorical"


class Role(enum.Enum):
    INPUT = "input"
    EFFORT = "effort"
    EXCLUDED = "excluded"


@dataclass(frozen=True)
class FeatureSpec:
    name: str
    kind: Kind = Kind.NUMERIC
    role: Role = Role.INPUT


@dataclass(frozen=True)
class Project:
    """One historical project: feature values aligned with the dataset specs.

    Numeric cells are floats (NaN marks a missing value before preprocessing),
    categorical cells are labels (None marks missing).
    """

    values: tuple
    effort: float

    def has_missing(self) -> bool:
        for v in self.values:
            if v is None:
                return True
            if isinstance(v, float) and math.isnan(v):
                return True
        return isinstance(self.effort, float) and math.isnan(self.effort)


def _validate_specs(specs: tuple[FeatureSpec, ...]) -> None:
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise SchemaError(f"duplicate feature names: {dupes}")
    efforts = [s for s in specs if s.role is Role.EFFORT]
    if len(efforts) != 1:
        raise SchemaError(f"expected exactly one effort feature, found {len(efforts)}")
    if efforts[0].kind is not Kind.NUMERIC:
        raise SchemaError("effort feature must be numeric")


@dataclass(frozen=True)
class Dataset:
    """Immutable project table.  `specs` excludes the effort column's value
    from `Project.values`; effort lives in `Project.effort`."""

    specs: tuple[FeatureSpec, ...]
    projects: tuple[Project, ...]
    name: str = "dataset"

    def __post_init__(self):
        _validate_specs(self.specs)
        m = len(self.input_specs)
        if not 1 <= m <= MAX_INPUT_FEATURES:
            raise SchemaError(f"need 1..{MAX_INPUT_FEATURES} input features, got {m}")
        if len(self.projects) < MIN_PROJECTS:
            raise InsufficientDataError(
                f"need at least {MIN_PROJECTS} projects, got {len(self.projects)}"
            )
        n_cells = len(self.specs) - 1  # effort stored separately
        for i, p in enumerate(self.projects):
            if len(p.values) != n_cells:
                raise SchemaError(f"project {i} has {len(p.values)} values, expected {n_cells}")

    @property
    def input_specs(self) -> tuple[FeatureSpec, ...]:
        return tuple(s for s in self.specs if s.role is Role.INPUT)

    @property
    def n(self) -> int:
        return len(self.projects)

    @property
    def m(self) -> int:
        return len(self.input_specs)

    def efforts(self) -> np.ndarray:
        return np.array([p.effort for p in self.projects], dtype=float)


@dataclass(frozen=True)
class StandardizedDataset:
    """Dataset after min-max scaling of numeric input features.

    `matrix` holds one row per project over the *input* features only:
    numeric features as scaled floats in [0, 1], categorical features as
    interned integer label codes (compared for equality only).  `scaling`
    records the (min, max) pair used per input feature (None for
    categoricals).
    """

    specs: tuple[FeatureSpec, ...]
    projects: tuple[Project, ...]
    name: str
    matrix: np.ndarray
    effort_vec: np.ndarray
    categorical_mask: np.ndarray  # bool, per input feature
    scaling: tuple
    labels: tuple  # per input feature: tuple of labels (code = position) or None

    @property
    def n(self) -> int:
        return len(self.projects)

    @property
    def m(self) -> int:
        return self.matrix.shape[1]

    def efforts(self) -> np.ndarray:
        return self.effort_vec

    def subset(self, indices) -> "StandardizedDataset":
        """Row subset sharing this dataset's scaling (used for LOOCV folds)."""
        idx = np.asarray(indices, dtype=int)
        return StandardizedDataset(
            specs=self.specs,
            projects=tuple(self.projects[i] for i in idx),
            name=self.name,
            matrix=self.matrix[idx],
            effort_vec=self.effort_vec[idx],
            categorical_mask=self.categorical_mask,
            scaling=self.scaling,
            labels=self.labels,
        )

    def loocv_fold(self, i: int) -> tuple["StandardizedDataset", np.ndarray, float]:
        """Return (train view without row i, target feature row, target effort)."""
        keep = [j for j in range(self.n) if j != i]
        return self.subset(keep), self.matrix[i], float(self.effort_vec[i])

    def encode_row(self, values) -> np.ndarray:
        """Encode a raw project's input values with this dataset's scaling.

        Numeric values are min-max scaled with the recorded (min, max);
        unseen categorical labels get a fresh code that matches nothing.
        """
        input_specs = tuple(s for s in self.specs if s.role is Role.INPUT)
        value_specs = tuple(s for s in self.specs if s.role is not Role.EFFORT)
        col_of = {s.name: i for i, s in enumerate(value_specs)}
        row = np.zeros(self.m)
        for j, spec in enumerate(input_specs):
            v = values[col_of[spec.name]]
            if self.categorical_mask[j]:
                known = self.labels[j]
                row[j] = known.index(v) if v in known else len(known)
            else:
                lo, hi = self.scaling[j]
                row[j] = (float(v) - lo) / (hi - lo) if hi > lo else 0.0
        return row


def _parse_cell(raw: str, spec: FeatureSpec, row: int):
    text = raw.strip()
    if text in MISSING_TOKENS:
        return math.nan if spec.kind is Kind.NUMERIC else None
    if spec.kind is Kind.CATEGORICAL:
        return text
    try:
        return float(text)
    except ValueError:
        raise ParseError(
            f"row {row}, column '{spec.name}': cannot parse {text!r} as a number",
            row=row,
            column=spec.name,
        ) from None


def load_dataset(path, schema=None, name: str | None = None) -> Dataset:
    """Load a header-first CSV into a Dataset.

    `schema` is a sequence of FeatureSpec matching the header names (order
    free).  Without a schema, the column named "effort" (case-insensitive)
    becomes the effort feature and every other column is a numeric input.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if len(set(header)) != len(header):
            dupes = sorted({h for h in header if header.count(h) > 1})
            raise SchemaError(f"duplicate header names: {dupes}")

        if schema is None:
            specs_by_name = {
                h: FeatureSpec(h, Kind.NUMERIC, Role.EFFORT if h.lower() == "effort" else Role.INPUT)
                for h in header
            }
        else:
            specs_by_name = {s.name: s for s in schema}
            unknown = [h for h in header if h not in specs_by_name]
            if unknown:
                raise SchemaError(f"header names not in schema: {unknown}")
            missing = [s.name for s in schema if s.name not in header]
            if missing:
                raise SchemaError(f"schema features missing from header: {missing}")
        ordered = [specs_by_name[h] for h in header]
        if not any(s.role is Role.EFFORT for s in ordered):
            raise SchemaError("no effort column declared")
        effort_idx = next(i for i, s in enumerate(ordered) if s.role is Role.EFFORT)

        value_specs = tuple(s for i, s in enumerate(ordered) if i != effort_idx)
        projects = []
        for row_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"row {row_no}: expected {len(header)} cells, got {len(row)}", row=row_no
                )
            effort = _parse_cell(row[effort_idx], ordered[effort_idx], row_no)
            if not math.isnan(effort) and effort <= 0:
                raise ParseError(
                    f"row {row_no}: effort must be positive, got {effort}",
                    row=row_no,
                    column=ordered[effort_idx].name,
                )
            cells = tuple(
                _parse_cell(cell, ordered[i], row_no)
                for i, cell in enumerate(row)
                if i != effort_idx
            )
            projects.append(Project(values=cells, effort=effort))

    return Dataset(specs=value_specs + (ordered[effort_idx],), projects=tuple(projects),
                   name=name or str(path))


def preprocess(ds: Dataset) -> Dataset:
    """Drop excluded features, then every row with any missing value."""
    keep_specs = tuple(s for s in ds.specs if s.role is not Role.EXCLUDED)
    # Project.values excludes the effort cell, so index against value columns.
    value_specs = tuple(s for s in ds.specs if s.role is not Role.EFFORT)
    keep_cols = [i for i, s in enumerate(value_specs) if s.role is not Role.EXCLUDED]

    projects = []
    for p in ds.projects:
        values = tuple(p.values[i] for i in keep_cols)
        trimmed = Project(values=values, effort=p.effort)
        if not trimmed.has_missing():
            projects.append(trimmed)
    if len(projects) < MIN_PROJECTS:
        raise InsufficientDataError(
            f"{ds.name}: only {len(projects)} complete rows remain after preprocessing"
        )
    return Dataset(specs=keep_specs, projects=tuple(projects), name=ds.name)


def standardize(ds: Dataset) -> StandardizedDataset:
    """Min-max scale numeric input features into [0, 1].

    Constant columns map to all zeros.  Categorical features are interned to
    integer codes; effort is left in raw units.  Expects complete data (run
    `preprocess` first).
    """
    input_specs = tuple(s for s in ds.specs if s.role is Role.INPUT)
    value_specs = tuple(s for s in ds.specs if s.role is not Role.EFFORT)
    col_of = {s.name: i for i, s in enumerate(value_specs)}

    n, m = ds.n, len(input_specs)
    matrix = np.zeros((n, m))
    cat_mask = np.zeros(m, dtype=bool)
    scaling = []
    labels = []
    new_projects = [list(p.values) for p in ds.projects]

    for j, spec in enumerate(input_specs):
        col = col_of[spec.name]
        raw = [p.values[col] for p in ds.projects]
        if spec.kind is Kind.CATEGORICAL:
            cat_mask[j] = True
            if any(v is None for v in raw):
                raise InsufficientDataError(
                    f"{ds.name}: missing values in '{spec.name}'; run preprocess first"
                )
            seen = tuple(dict.fromkeys(raw))  # first-occurrence interning order
            code = {lab: k for k, lab in enumerate(seen)}
            matrix[:, j] = [code[v] for v in raw]
            scaling.append(None)
            labels.append(seen)
        else:
            vals = np.array(raw, dtype=float)
            if np.isnan(vals).any():
                raise InsufficientDataError(
                    f"{ds.name}: missing values in '{spec.name}'; run preprocess first"
                )
            lo, hi = float(vals.min()), float(vals.max())
            if hi > lo:
                scaled = (vals - lo) / (hi - lo)
            else:
                scaled = np.zeros(n)  # constant column stays inert
            matrix[:, j] = scaled
            scaling.append((lo, hi))
            labels.append(None)
            for i in range(n):
                new_projects[i][col] = float(scaled[i])

    projects = tuple(
        Project(values=tuple(vals), effort=p.effort)
        for vals, p in zip(new_projects, ds.projects)
    )
    return StandardizedDataset(
        specs=ds.specs,
        projects=projects,
        name=ds.name,
        matrix=matrix,
        effort_vec=ds.efforts(),
        categorical_mask=cat_mask,
        scaling=tuple(scaling),
        labels=tuple(labels),
    )


def pipeline(path, schema=None, name=None) -> StandardizedDataset:
    """load -> preprocess -> standardize, preserving surviving row order."""
    return standardize(preprocess(load_dataset(path, schema=schema, name=name)))
