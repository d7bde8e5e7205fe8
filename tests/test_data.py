import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import abetune
from abetune import harness
from abetune.data import EFFORT_RANGE, MAX_INPUT_FEATURES, load_dataset
from abetune.datasets import BUNDLED, load_bundled
from abetune.errors import AbetuneError, InsufficientDataError, ParseError, SchemaError
from abetune.mopso import MopsoConfig
from scalar_reference import numeric_std


def write(tmp_path, text, name="d.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoad:
    def test_three_row_csv_with_categorical(self, tmp_path):
        path = write(tmp_path, "size,lang,effort\n1,C,10\n2,Java,20\n3,C,30\n")
        ds = load_dataset(path, effort_column="effort", categorical_columns=("lang",))
        assert ds.n == 3 and ds.m == 2 and ds.features == ("size", "lang")
        assert ds.categorical_mask.tolist() == [False, True]
        assert ds.matrix.tolist() == [[0.0, 0.0], [0.5, 1.0], [1.0, 0.0]]
        assert ds.efforts().tolist() == [10.0, 20.0, 30.0]

    def test_duplicate_headers_rejected(self, tmp_path):
        path = write(tmp_path, "a,a,effort\n1,2,3\n1,2,3\n1,2,3\n")
        with pytest.raises(SchemaError):
            load_dataset(path)

    def test_albrecht_shape(self):
        ds = load_bundled("albrecht")
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

    def test_two_effort_columns_rejected(self, tmp_path):
        path = write(tmp_path, "a,effort,Effort\n1,10,10\n2,20,20\n3,30,30\n")
        with pytest.raises(SchemaError, match="exactly one effort"):
            load_dataset(path)

    def test_nonpositive_effort_rejected(self, tmp_path):
        path = write(tmp_path, "a,effort\n1,10\n2,0\n3,30\n")
        with pytest.raises(ParseError):
            load_dataset(path)

    @pytest.mark.parametrize("effort", ["1e-320", "9.99e-101", "1.001e100", "1e308"])
    def test_effort_outside_the_range_rejected(self, tmp_path, effort):
        path = write(tmp_path, f"a,effort\n1,10\n2,{effort}\n3,30\n")
        with pytest.raises(ParseError, match="effort must lie in") as err:
            load_dataset(path)
        assert (err.value.row, err.value.column) == (3, "effort")
        assert str(path) in str(err.value)

    def test_efforts_at_the_range_edges_load(self, tmp_path):
        low, high = EFFORT_RANGE
        path = write(tmp_path, f"a,effort\n1,{low!r}\n2,{high!r}\n3,30\n")
        assert load_dataset(path).efforts().tolist() == [low, high, 30.0]

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
        assert load_dataset(path).efforts().tolist() == [10.0, 30.0, 40.0]

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


# Name -> data rows in the file, complete rows, input features, input names,
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

# The seeded surrogate tables that tools/make_bundled_data.py writes.
SURROGATES = ("telecom", "desharnais", "cocomo", "china", "maxwell", "synthetic_small")


class TestBundled:
    @pytest.mark.parametrize("name", list(BUNDLED))
    def test_shape_and_column_roles(self, name):
        lines = (Path(abetune.__file__).parent / "data" / BUNDLED[name]["file"]).read_text()
        std = load_bundled(name)
        categorical = tuple(f for f, c in zip(std.features, std.categorical_mask) if c)
        assert (len(lines.splitlines()) - 1, std.n, std.m, std.features,
                categorical) == BUNDLED_SHAPES[name]

    def test_surrogates_regenerate_byte_for_byte(self, tmp_path):
        # the transcribed PROMISE tables (albrecht, kemerer, nasa) are not generated
        tool = Path(__file__).resolve().parents[1] / "tools" / "make_bundled_data.py"
        proc = subprocess.run([sys.executable, str(tool), str(tmp_path)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        made = sorted(path.name for path in tmp_path.iterdir())
        assert made == sorted(f"{name}.csv" for name in SURROGATES)
        for name in made:
            bundled = Path(abetune.__file__).parent / "data" / name
            assert (tmp_path / name).read_bytes() == bundled.read_bytes(), name

    def test_unknown_name_is_a_typed_error(self):
        with pytest.raises(AbetuneError, match="isbsg"):
            load_bundled("isbsg")

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
        assert np.array_equal(by_path.categorical_mask, bundled.categorical_mask)
        assert by_path.features == bundled.features


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
        ds = load_dataset(path)
        assert ds.n == 77

    def test_identity_when_complete(self, tmp_path):
        path = write(tmp_path, self.make(5))
        ds = load_dataset(path)
        assert ds.efforts().tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert ds.matrix[:, 0].tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_all_rows_missing_is_an_error(self, tmp_path):
        path = write(tmp_path, self.make(4, missing_rows=(0, 1, 2, 3)))
        with pytest.raises(InsufficientDataError, match="only 0 complete rows"):
            load_dataset(path)

    def test_excluded_features_dropped(self, tmp_path):
        # an excluded column's missing cell drops no row
        path = write(tmp_path, "a,junk,effort\n1,9,10\n2,,20\n3,9,30\n")
        ds = load_dataset(path, excluded_columns=("junk",))
        assert ds.features == ("a",) and ds.n == 3

    def test_question_mark_counts_as_missing(self, tmp_path):
        path = write(tmp_path, "a,b,effort\n1,1,10\n?,9,20\n3,3,30\n4,4,40\n")
        ds = load_dataset(path)
        assert ds.n == 3
        assert ds.matrix[:, 1].tolist() == [0.0, 2 / 3, 1.0]  # scaled over the rows kept


class TestStandardize:
    @staticmethod
    def build(column, efforts=None):
        return numeric_std([[v] for v in column], efforts or [1.0] * len(column))

    def test_endpoints_map_to_unit_interval(self):
        std = self.build([2.0, 4.0, 6.0])
        assert std.matrix[0, 0] == 0.0
        assert std.matrix[2, 0] == 1.0

    def test_midpoint(self):
        std = self.build([2.0, 4.0, 6.0])
        assert std.matrix[1, 0] == pytest.approx(0.5, abs=1e-12)

    def test_constant_column_maps_to_zero(self):
        std = self.build([5.0, 5.0, 5.0])
        assert np.all(std.matrix == 0.0)

    def test_effort_untouched(self):
        std = self.build([2.0, 4.0, 6.0], [1e-3, 7.25, 1e6])
        assert std.effort_vec.tolist() == [1e-3, 7.25, 1e6]

    def test_unit_range_invariant(self):
        rng = np.random.default_rng(3)
        col = rng.normal(10, 4, 17).tolist()
        std = self.build(col)
        assert std.matrix[:, 0].min() == pytest.approx(0.0, abs=1e-12)
        assert std.matrix[:, 0].max() == pytest.approx(1.0, abs=1e-12)

    def test_span_past_the_float_range_rejected(self, tmp_path):
        path = write(tmp_path, "a,effort\n-1e308,10\n1e308,20\n0,30\n")
        with pytest.raises(ParseError, match="span more than a float") as err:
            load_dataset(path)
        assert err.value.column == "a"

    def test_categorical_interned_not_scaled(self, tmp_path):
        path = write(tmp_path, "lang,x,effort\nJava,1,10\nC,2,20\nJava,3,30\n")
        std = load_dataset(path, categorical_columns=("lang",))
        assert std.categorical_mask.tolist() == [True, False]
        assert std.matrix[:, 0].tolist() == [0.0, 1.0, 0.0]  # codes in first-occurrence order


def test_pipeline_preserves_row_order(tmp_path):
    rows = ["a,effort"]
    for i in range(10):
        rows.append(f"{'?' if i in (2, 7) else i},{100 + i}")
    path = write(tmp_path, "\n".join(rows) + "\n")
    std = load_dataset(path)
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
@example((b"a,effort\n1,1e-320\n2,20\n3,30\n", {}))
@example((b"a,effort\n1,1e308\n2,1.5e308\n3,1.7e308\n", {}))
def test_loaders_raise_only_typed_errors(tmp_path_factory, case):
    content, roles = case
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    path.write_bytes(content)
    try:
        std = load_dataset(path, **roles)
    except AbetuneError:
        return
    assert np.isfinite(std.matrix).all()
    low, high = EFFORT_RANGE
    assert ((low <= std.efforts()) & (std.efforts() <= high)).all()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(dataset_files(), st.sampled_from(["oracle", "honest"]))
def test_accepted_files_are_tuned_by_every_method(tmp_path_factory, case, mode):
    """Every file the loaders accept is tuned and scored by every method on a
    token swarm, in process and with RuntimeWarnings as errors.  Only typed
    errors escape, and every metric is finite, except SA and effect size on
    a dataset whose efforts are all equal (its random-guess baseline is 0)."""
    content, roles = case
    path = tmp_path_factory.getbasetemp() / "tune.csv"
    path.write_bytes(content)
    try:
        efforts = load_dataset(path, **roles).efforts()
    except AbetuneError:
        return
    cfg = harness.ExperimentConfig(
        datasets=(harness.DatasetConfig(name="fuzz", path=str(path), **roles),),
        methods=harness.METHOD_ORDER, mopso=MopsoConfig(pop_size=3, max_iter=2, seed=0),
        seed=0, mode=mode)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            report = harness.run_experiment(cfg)
        except AbetuneError:
            return
    undefined = {"sa", "effect_size"} if len(set(efforts.tolist())) == 1 else set()
    for method, cell in report["results"]["fuzz"].items():
        for key, value in cell["metrics"].items():
            assert math.isfinite(value) or key in undefined, (method, key, value)
