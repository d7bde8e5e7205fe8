import numpy as np
import pytest

from abetune.data import (
    MAX_INPUT_FEATURES, Dataset, FeatureSpec, Kind, Project, Role,
    load_dataset, pipeline, preprocess, standardize,
)
from abetune.datasets import load_bundled_raw
from abetune.errors import InsufficientDataError, ParseError, SchemaError


def write(tmp_path, text, name="d.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def spec(name, kind=Kind.NUMERIC, role=Role.INPUT):
    return FeatureSpec(name, kind, role)


class TestLoad:
    def test_three_row_csv_with_categorical(self, tmp_path):
        path = write(tmp_path, "size,lang,effort\n1,C,10\n2,Java,20\n3,C,30\n")
        schema = (spec("size"), spec("lang", Kind.CATEGORICAL),
                  spec("effort", role=Role.EFFORT))
        ds = load_dataset(path, schema)
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
        schema = (spec("a"), spec("junk", role=Role.EXCLUDED),
                  spec("effort", role=Role.EFFORT))
        ds = preprocess(load_dataset(path, schema))
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

    def test_categorical_interned_not_scaled(self, tmp_path):
        path = write(tmp_path, "lang,x,effort\nC,1,10\nJava,2,20\nC,3,30\n")
        schema = (spec("lang", Kind.CATEGORICAL), spec("x"),
                  spec("effort", role=Role.EFFORT))
        std = pipeline(path, schema)
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
