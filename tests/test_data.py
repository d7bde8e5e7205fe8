from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import abetune
from abetune import harness
from abetune.data import (
    MAX_INPUT_FEATURES, Dataset, FeatureSpec, Kind, Project, Role,
    load_dataset, pipeline, preprocess, standardize,
)
from abetune.datasets import BUNDLED, load_bundled, load_bundled_raw
from abetune.errors import AbetuneError, InsufficientDataError, ParseError, SchemaError


def write(tmp_path, text, name="d.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def spec(name, kind=Kind.NUMERIC, role=Role.INPUT):
    return FeatureSpec(name, kind, role)


class TestLoad:
    def test_three_row_csv_with_categorical(self, tmp_path):
        path = write(tmp_path, "size,lang,effort\n1,C,10\n2,Java,20\n3,C,30\n")
        ds = load_dataset(path, effort_column="effort", categorical_columns=("lang",))
        assert ds.n == 3 and ds.m == 2
        assert ds.projects[0].values == (1.0, "C")
        assert ds.projects[2].effort == 30.0

    def test_duplicate_headers_rejected(self, tmp_path):
        path = write(tmp_path, "a,a,effort\n1,2,3\n1,2,3\n1,2,3\n")
        with pytest.raises(SchemaError):
            load_dataset(path)

    def test_albrecht_shape(self):
        ds = load_bundled_raw("albrecht")
        assert ds.n == 24
        assert ds.m == 7

    def test_unparseable_numeric_cell(self, tmp_path):
        path = write(tmp_path, "a,effort\n1,10\nxyz,20\n3,30\n")
        with pytest.raises(ParseError) as err:
            load_dataset(path)
        assert err.value.row == 3 and err.value.column == "a"

    def test_missing_effort_column(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n3,4\n5,6\n")
        with pytest.raises(SchemaError):
            load_dataset(path)

    def test_nonpositive_effort_rejected(self, tmp_path):
        path = write(tmp_path, "a,effort\n1,10\n2,0\n3,30\n")
        with pytest.raises(ParseError):
            load_dataset(path)

    def test_feature_limit_enforced_at_load(self, tmp_path):
        def csv(m):
            header = ",".join(f"f{j}" for j in range(m)) + ",effort\n"
            return header + "".join(",".join(["1"] * m) + f",{e}\n" for e in (1, 2, 3))

        assert load_dataset(write(tmp_path, csv(MAX_INPUT_FEATURES))).m == 52
        with pytest.raises(SchemaError, match="52"):
            load_dataset(write(tmp_path, csv(53)))

    def test_header_inference_uses_effort_name(self, tmp_path):
        path = write(tmp_path, "a,Effort\n1,10\n2,20\n3,30\n")
        ds = load_dataset(path)
        assert ds.m == 1 and ds.efforts().tolist() == [10.0, 20.0, 30.0]

    @pytest.mark.parametrize("roles,missing", [
        ({"effort_column": "Effort"}, "Effort"),
        ({"categorical_columns": ("a", "lang")}, "lang"),
        ({"excluded_columns": ("jnuk",)}, "jnuk"),
    ])
    def test_named_column_missing_from_header(self, tmp_path, roles, missing):
        path = write(tmp_path, "a,junk,effort\n1,9,10\n2,9,20\n3,9,30\n")
        with pytest.raises(SchemaError, match=f"'{missing}'"):
            load_dataset(path, **roles)

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "1e999", "Infinity"])
    @pytest.mark.parametrize("column", ["a", "effort"])
    def test_non_finite_numbers_rejected(self, tmp_path, cell, column):
        rows = {"a": f"{cell},20", "effort": f"2,{cell}"}
        path = write(tmp_path, f"a,effort\n1,10\n{rows[column]}\n3,30\n")
        with pytest.raises(ParseError, match="not a finite number") as err:
            load_dataset(path)
        assert (err.value.row, err.value.column) == (3, column)
        assert str(path) in str(err.value)

    def test_missing_tokens_still_mean_missing(self, tmp_path):
        path = write(tmp_path, "a,effort\n1,10\n,20\n?,25\n3,?\n4,\n5,30\n6,40\n")
        assert load_dataset(path).n == 7
        assert pipeline(path).efforts().tolist() == [10.0, 30.0, 40.0]

    def test_unreadable_file(self, tmp_path):
        for path in (tmp_path / "absent.csv", tmp_path):
            with pytest.raises(ParseError, match="cannot read the file") as err:
                load_dataset(path)
            assert str(path) in str(err.value)

    def test_bytes_that_are_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("a,effort\n1,10\n2,20\n\u00e9,30\n".encode("latin-1"))
        with pytest.raises(ParseError, match="line 4: not UTF-8") as err:
            load_dataset(path)
        assert err.value.row == 4 and str(path) in str(err.value)

    def test_field_over_the_csv_limit(self, tmp_path):
        path = write(tmp_path, "a,effort\n1,10\n" + "2" * 131_073 + ",20\n3,30\n")
        with pytest.raises(ParseError, match="field larger than field limit") as err:
            load_dataset(path)
        assert err.value.row == 3 and str(path) in str(err.value)


# Name -> raw rows, rows after preprocessing, input features, input names,
# categorical input names.
BUNDLED_SHAPES = {
    "albrecht": (24, 24, 7, ("Input", "Output", "Inquiry", "File", "FPAdj", "RawFPcounts",
                             "AdjFP"), ()),
    "kemerer": (15, 15, 6, ("Language", "Hardware", "Duration", "KSLOC", "AdjFP", "RAWFP"),
                ("Language", "Hardware")),
    "nasa": (18, 18, 2, ("KLOC", "ME"), ()),
    "telecom": (18, 18, 2, ("Changes", "Files"), ()),
    "desharnais": (81, 77, 10, ("TeamExp", "ManagerExp", "YearEnd", "Length", "Transactions",
                                "Entities", "PointsNonAdjust", "Adjustment", "PointsAjust",
                                "Language"), ("Language",)),
    "cocomo": (63, 63, 16, ("rely", "data", "cplx", "time", "stor", "virt", "turn", "acap",
                            "aexp", "pcap", "vexp", "lexp", "modp", "tool", "sced", "loc"), ()),
    "china": (60, 60, 10, ("AFP", "Input", "Output", "Enquiry", "File", "Interface", "Added",
                           "Changed", "PDR_AFP", "Resource"), ()),
    "maxwell": (62, 62, 19, ("App", "Har", "Nlan", "T01", "T02", "T03", "T04", "T05", "T06",
                             "T07", "T08", "T09", "T10", "T11", "T12", "T13", "T14", "T15",
                             "Size"), ("App", "Har")),
    "synthetic_small": (8, 8, 4, ("f1", "f2", "f3", "f4"), ()),
}


class TestBundled:
    @pytest.mark.parametrize("name", list(BUNDLED))
    def test_shape_and_column_roles(self, name):
        raw, std = load_bundled_raw(name), load_bundled(name)
        inputs = tuple(s for s in std.specs if s.role is Role.INPUT)
        assert (raw.n, std.n, std.m, tuple(s.name for s in inputs),
                tuple(s.name for s in inputs if s.kind is Kind.CATEGORICAL)) == BUNDLED_SHAPES[name]

    def test_unknown_name_is_a_typed_error(self):
        for load in (load_bundled, load_bundled_raw):
            with pytest.raises(AbetuneError, match="isbsg"):
                load("isbsg")

    def test_kemerer_by_config_path_matches_bundled(self):
        cfg = harness.parse_config({
            "datasets": [{"name": "kemerer",
                          "path": str(Path(abetune.__file__).parent / "data" / "kemerer.csv"),
                          "effort_column": "EffortMM",
                          "categorical_columns": ["Language", "Hardware"],
                          "excluded_columns": ["ID"]}],
            "methods": ["abe0"], "seed": 1})
        by_path = harness.load_dataset_from_config(cfg.datasets[0])
        bundled = load_bundled("kemerer")
        assert np.array_equal(by_path.matrix, bundled.matrix)
        assert np.array_equal(by_path.efforts(), bundled.efforts())
        assert by_path.labels == bundled.labels and by_path.specs == bundled.specs


class TestPreprocess:
    def make(self, rows, missing_rows=()):
        header = "a,b,effort\n"
        lines = []
        for i in range(rows):
            if i in missing_rows:
                lines.append(f",{i},{i + 1}")
            else:
                lines.append(f"{i},{i},{i + 1}")
        return header + "\n".join(lines) + "\n"

    def test_missing_rows_dropped(self, tmp_path):
        path = write(tmp_path, self.make(81, missing_rows=(3, 10, 40, 77)))
        ds = preprocess(load_dataset(path))
        assert ds.n == 77

    def test_identity_when_complete(self, tmp_path):
        path = write(tmp_path, self.make(5))
        ds = load_dataset(path)
        assert preprocess(ds).projects == ds.projects

    def test_all_rows_missing_is_an_error(self, tmp_path):
        path = write(tmp_path, self.make(4, missing_rows=(0, 1, 2, 3)))
        with pytest.raises(InsufficientDataError):
            preprocess(load_dataset(path))

    def test_idempotent(self, tmp_path):
        path = write(tmp_path, self.make(10, missing_rows=(2, 5)))
        once = preprocess(load_dataset(path))
        assert preprocess(once).projects == once.projects

    def test_excluded_features_dropped(self, tmp_path):
        path = write(tmp_path, "a,junk,effort\n1,9,10\n2,9,20\n3,9,30\n")
        ds = preprocess(load_dataset(path, excluded_columns=("junk",)))
        assert [s.name for s in ds.input_specs] == ["a"]

    def test_question_mark_counts_as_missing(self, tmp_path):
        path = write(tmp_path, "a,b,effort\n1,1,10\n?,2,20\n3,3,30\n4,4,40\n")
        ds = preprocess(load_dataset(path))
        assert ds.n == 3


class TestStandardize:
    def build(self, column):
        specs = (spec("x"), spec("effort", role=Role.EFFORT))
        projects = tuple(Project(values=(v,), effort=1.0) for v in column)
        return Dataset(specs=specs, projects=projects)

    def test_endpoints_map_to_unit_interval(self):
        std = standardize(self.build([2.0, 4.0, 6.0]))
        assert std.matrix[0, 0] == 0.0
        assert std.matrix[2, 0] == 1.0

    def test_midpoint(self):
        std = standardize(self.build([2.0, 4.0, 6.0]))
        assert std.matrix[1, 0] == pytest.approx(0.5, abs=1e-12)

    def test_constant_column_maps_to_zero(self):
        std = standardize(self.build([5.0, 5.0, 5.0]))
        assert np.all(std.matrix == 0.0)

    def test_effort_untouched_and_scaling_recorded(self):
        std = standardize(self.build([2.0, 4.0, 6.0]))
        assert std.effort_vec.tolist() == [1.0, 1.0, 1.0]
        assert std.scaling == ((2.0, 6.0),)

    def test_unit_range_invariant(self):
        rng = np.random.default_rng(3)
        col = rng.normal(10, 4, 17).tolist()
        std = standardize(self.build(col))
        assert std.matrix[:, 0].min() == pytest.approx(0.0, abs=1e-12)
        assert std.matrix[:, 0].max() == pytest.approx(1.0, abs=1e-12)

    def test_span_past_the_float_range_rejected(self, tmp_path):
        path = write(tmp_path, "a,effort\n-1e308,10\n1e308,20\n0,30\n")
        with pytest.raises(ParseError, match="span more than a float") as err:
            pipeline(path)
        assert err.value.column == "a"

    def test_categorical_interned_not_scaled(self, tmp_path):
        path = write(tmp_path, "lang,x,effort\nC,1,10\nJava,2,20\nC,3,30\n")
        std = pipeline(path, categorical_columns=("lang",))
        assert std.categorical_mask.tolist() == [True, False]
        assert std.labels[0] == ("C", "Java")
        assert std.matrix[:, 0].tolist() == [0.0, 1.0, 0.0]


def test_pipeline_preserves_row_order(tmp_path):
    rows = ["a,effort"]
    for i in range(10):
        rows.append(f"{'?' if i in (2, 7) else i},{100 + i}")
    path = write(tmp_path, "\n".join(rows) + "\n")
    std = pipeline(path)
    kept = [100 + i for i in range(10) if i not in (2, 7)]
    assert std.efforts().tolist() == kept


CELLS = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["", "?", " ", "nan", "inf", "-inf", "1e-320", "1e999", "0", "-3", "x",
                     '"', '"1,2"', "\u00e9"]),
    st.text(max_size=4),
)


@st.composite
def dataset_files(draw):
    """Arbitrary bytes, or a numeric CSV table with a few arbitrary cells
    written over it, with column roles drawn mostly from its header."""
    names = ["a", "effort", "Effort", "lang", "size"]
    if draw(st.booleans()):
        content = draw(st.binary(max_size=300))
    else:
        pool = st.sampled_from(names) | st.text(max_size=3)
        names = draw(st.lists(pool, min_size=2, max_size=5, unique=True))
        n_rows = draw(st.integers(3, 8) | st.integers(0, 2))
        rows = draw(st.lists(st.lists(st.integers(1, 100).map(str), min_size=len(names),
                                      max_size=len(names)), min_size=n_rows, max_size=n_rows))
        for r, c, cell in draw(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 4), CELLS),
                                        max_size=3)):
            if rows:
                rows[r % len(rows)][c % len(names)] = cell
        newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
        content = newline.join(",".join(r) for r in [names, *rows]).encode("utf-8")
    column = st.sampled_from(names)
    roles = {"effort_column": draw(st.one_of(column, st.none(), st.just("zz"))),
             "categorical_columns": draw(st.lists(column, max_size=2)),
             "excluded_columns": draw(st.lists(column, max_size=1))}
    return content, roles


@settings(max_examples=500, deadline=None, derandomize=True)
@given(dataset_files())
def test_loaders_raise_only_typed_errors(tmp_path_factory, case):
    content, roles = case
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    path.write_bytes(content)
    try:
        load_dataset(path, **roles)
        std = pipeline(path, **roles)
    except AbetuneError:
        return
    assert np.isfinite(std.matrix).all()
    assert np.isfinite(std.efforts()).all() and (std.efforts() > 0).all()
