"""CSV ingestion into the project table the estimator reads.

A project table holds the complete rows of a CSV file: its numeric input
columns min-max scaled into [0, 1], its categorical input columns as
interned label codes, and the effort of each row in raw units.  Categorical
labels are never coded as magnitudes; the distance function compares their
codes for equality only.
"""

from __future__ import annotations

import csv
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


@dataclass(frozen=True)
class StandardizedDataset:
    """The complete rows of a dataset over its input features.

    `matrix` holds one row per project over the input columns named by
    `features`, in header order: numeric features as scaled floats in
    [0, 1], categorical features (where `categorical_mask` is set) as
    integer label codes in first-occurrence order.  `effort_vec` holds the
    efforts in raw units.
    """

    name: str
    features: tuple[str, ...]
    matrix: np.ndarray
    effort_vec: np.ndarray
    categorical_mask: np.ndarray  # bool, per input feature

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
            name=self.name,
            features=self.features,
            matrix=self.matrix[idx],
            effort_vec=self.effort_vec[idx],
            categorical_mask=self.categorical_mask,
        )

    def loocv_fold(self, i: int) -> tuple["StandardizedDataset", np.ndarray, float]:
        """Return (train view without row i, target feature row, target effort)."""
        keep = [j for j in range(self.n) if j != i]
        return self.subset(keep), self.matrix[i], float(self.effort_vec[i])


def _parse_cell(raw: str, column: str, label: bool, row: int, path):
    """A label, a finite float, or None for a missing cell."""
    text = raw.strip()
    if text in MISSING_TOKENS:
        return None
    if label:
        return text
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ParseError(
            f"{path}: row {row}, column '{column}': {text!r} is not a finite number",
            row=row,
            column=column,
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
                 excluded_columns=(), name: str | None = None) -> StandardizedDataset:
    """Load a header-first CSV into the table of its complete rows.

    The effort column is `effort_column`, or without one the one column
    named "effort" (in any case).  Columns in `categorical_columns` are
    labels, columns in `excluded_columns` are parsed but not used, and every
    other column is a numeric input.  Rows missing an input or the effort
    are dropped; the numeric inputs are then scaled over the rows kept, a
    constant column to all zeros, and the labels interned.

    A named column missing from the header, a second effort column and an
    input count outside 1..MAX_INPUT_FEATURES are SchemaErrors; an
    unparseable or non-finite number, an effort outside EFFORT_RANGE and a
    column whose values span more than a float are ParseErrors; fewer than
    MIN_PROJECTS rows, or complete rows, is an InsufficientDataError.
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
    effort_cols = [i for i, h in enumerate(header)
                   if h == effort_column or (effort_column is None and h.lower() == "effort")]
    if not effort_cols:
        raise SchemaError(f"{path}: no effort column declared")
    effort_idx = effort_cols[0]
    label = [h in categorical_columns and i not in effort_cols for i, h in enumerate(header)]
    inputs = [i for i, h in enumerate(header) if i not in effort_cols and h not in excluded_columns]

    table = []
    for row_no, row in enumerate(rows[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(header):
            raise ParseError(
                f"{path}: row {row_no}: expected {len(header)} cells, got {len(row)}", row=row_no
            )
        effort = _parse_cell(row[effort_idx], header[effort_idx], False, row_no, path)
        if not (effort is None or EFFORT_RANGE[0] <= effort <= EFFORT_RANGE[1]):
            raise ParseError(
                f"{path}: row {row_no}: effort must lie in [{EFFORT_RANGE[0]:g}, "
                f"{EFFORT_RANGE[1]:g}], got {effort}",
                row=row_no,
                column=header[effort_idx],
            )
        cells = [effort if i == effort_idx else _parse_cell(cell, header[i], label[i], row_no, path)
                 for i, cell in enumerate(row)]
        table.append(cells)

    # The table's own checks follow every row's, so a file with a bad cell
    # and a bad header reports the cell.
    if len(effort_cols) != 1:
        raise SchemaError(f"{path}: expected exactly one effort feature, found {len(effort_cols)}")
    if not 1 <= len(inputs) <= MAX_INPUT_FEATURES:
        raise SchemaError(f"{path}: need 1..{MAX_INPUT_FEATURES} input features, "
                          f"got {len(inputs)}")
    if len(table) < MIN_PROJECTS:
        raise InsufficientDataError(f"{path}: need at least {MIN_PROJECTS} projects, "
                                    f"got {len(table)}")
    name = name or str(path)
    table = [cells for cells in table if all(cells[i] is not None for i in (*inputs, effort_idx))]
    if len(table) < MIN_PROJECTS:
        raise InsufficientDataError(f"{name}: only {len(table)} complete rows remain")

    matrix = np.zeros((len(table), len(inputs)))
    for j, col in enumerate(inputs):
        raw = [cells[col] for cells in table]
        if label[col]:
            code = {lab: k for k, lab in enumerate(dict.fromkeys(raw))}
            matrix[:, j] = [code[v] for v in raw]
            continue
        vals = np.array(raw, dtype=float)
        lo, hi = float(vals.min()), float(vals.max())
        if not math.isfinite(hi - lo):
            raise ParseError(f"{name}: the values of '{header[col]}' span more than a "
                             "float can hold", column=header[col])
        if hi > lo:  # a constant column stays all zeros, inert
            matrix[:, j] = (vals - lo) / (hi - lo)
    return StandardizedDataset(
        name=name,
        features=tuple(header[i] for i in inputs),
        matrix=matrix,
        effort_vec=np.array([cells[effort_idx] for cells in table], dtype=float),
        categorical_mask=np.array([label[i] for i in inputs], dtype=bool),
    )
