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
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InsufficientDataError, ParseError, SchemaError

# Cells that count as missing in PROMISE-style CSV exports.
MISSING_TOKENS = ("", "?")

# The swarm encodes the feature mask as one float dimension, which decodes
# every mask value 1..2^m-1 only while m <= 52 (past that, x + 0.5 rounds).
MAX_INPUT_FEATURES = 52
MIN_PROJECTS = 3

# The efforts a dataset may hold.  Within this range the squared pairwise
# differences of the random-guess baseline's SD, the BRE ratios (at most
# 1e200) and ABE0's cumulative sums all stay far inside the float range;
# outside it, an effort either cannot be divided by or overflows a score.
EFFORT_RANGE = (1e-100, 1e100)


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
    name: str
    matrix: np.ndarray
    effort_vec: np.ndarray
    categorical_mask: np.ndarray  # bool, per input feature
    scaling: tuple
    labels: tuple  # per input feature: tuple of labels (code = position) or None

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

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


def _parse_cell(raw: str, spec: FeatureSpec, row: int, path):
    text = raw.strip()
    if text in MISSING_TOKENS:
        return math.nan if spec.kind is Kind.NUMERIC else None
    if spec.kind is Kind.CATEGORICAL:
        return text
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ParseError(
            f"{path}: row {row}, column '{spec.name}': {text!r} is not a finite number",
            row=row,
            column=spec.name,
        )
    return value


def _read_rows(path) -> list[list[str]]:
    """Every CSV record of a UTF-8 file.  A file that cannot be read, bytes
    that are not UTF-8 and a record the csv module rejects (a field over its
    size limit) are ParseErrors."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"{path}: cannot read the file ({exc.strerror or exc})") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path}: line {line}: not UTF-8 text ({exc.reason})", row=line) from None
    rows: list[list[str]] = []
    try:
        rows.extend(csv.reader(io.StringIO(text, newline="")))
    except csv.Error as exc:
        raise ParseError(f"{path}: row {len(rows) + 1}: {exc}", row=len(rows) + 1) from None
    return rows


def load_dataset(path, effort_column: str | None = None, categorical_columns=(),
                 excluded_columns=(), name: str | None = None) -> Dataset:
    """Load a header-first CSV into a Dataset, one FeatureSpec per header column.

    The effort column is `effort_column`, or without one the column named
    "effort" (in any case).  Columns in `categorical_columns` are labels,
    columns in `excluded_columns` are dropped by `preprocess`, and every
    other column is a numeric input.  A named column missing from the header
    is a SchemaError; an unparseable or non-finite number, and an effort
    outside EFFORT_RANGE, is a ParseError.
    """
    rows = _read_rows(path)
    if not rows:
        raise SchemaError(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]
    if len(set(header)) != len(header):
        dupes = sorted({h for h in header if header.count(h) > 1})
        raise SchemaError(f"{path}: duplicate header names: {dupes}")
    missing = [c for c in (effort_column, *categorical_columns, *excluded_columns)
               if c is not None and c not in header]
    if missing:
        raise SchemaError(f"{path}: columns not in the header: {missing}")

    specs = []
    for h in header:
        if h == effort_column or (effort_column is None and h.lower() == "effort"):
            specs.append(FeatureSpec(h, Kind.NUMERIC, Role.EFFORT))
        else:
            specs.append(FeatureSpec(
                h,
                Kind.CATEGORICAL if h in categorical_columns else Kind.NUMERIC,
                Role.EXCLUDED if h in excluded_columns else Role.INPUT,
            ))
    if not any(s.role is Role.EFFORT for s in specs):
        raise SchemaError(f"{path}: no effort column declared")
    effort_idx = next(i for i, s in enumerate(specs) if s.role is Role.EFFORT)

    value_specs = tuple(s for i, s in enumerate(specs) if i != effort_idx)
    projects = []
    for row_no, row in enumerate(rows[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(header):
            raise ParseError(
                f"{path}: row {row_no}: expected {len(header)} cells, got {len(row)}", row=row_no
            )
        effort = _parse_cell(row[effort_idx], specs[effort_idx], row_no, path)
        if not (math.isnan(effort) or EFFORT_RANGE[0] <= effort <= EFFORT_RANGE[1]):
            raise ParseError(
                f"{path}: row {row_no}: effort must lie in [{EFFORT_RANGE[0]:g}, "
                f"{EFFORT_RANGE[1]:g}], got {effort}",
                row=row_no,
                column=specs[effort_idx].name,
            )
        cells = tuple(
            _parse_cell(cell, specs[i], row_no, path)
            for i, cell in enumerate(row)
            if i != effort_idx
        )
        projects.append(Project(values=cells, effort=effort))

    try:
        return Dataset(specs=value_specs + (specs[effort_idx],), projects=tuple(projects),
                       name=name or str(path))
    except (SchemaError, InsufficientDataError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


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
            if not math.isfinite(hi - lo):
                raise ParseError(f"{ds.name}: the values of '{spec.name}' span more than a "
                                 "float can hold", column=spec.name)
            if hi > lo:
                scaled = (vals - lo) / (hi - lo)
            else:
                scaled = np.zeros(n)  # constant column stays inert
            matrix[:, j] = scaled
            scaling.append((lo, hi))
            labels.append(None)

    return StandardizedDataset(
        specs=ds.specs,
        name=ds.name,
        matrix=matrix,
        effort_vec=ds.efforts(),
        categorical_mask=cat_mask,
        scaling=tuple(scaling),
        labels=tuple(labels),
    )


def pipeline(path, effort_column: str | None = None, categorical_columns=(),
             excluded_columns=(), name: str | None = None) -> StandardizedDataset:
    """load -> preprocess -> standardize, preserving surviving row order."""
    return standardize(preprocess(load_dataset(
        path, effort_column, categorical_columns, excluded_columns, name)))
