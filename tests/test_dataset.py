import math
import re

import numpy as np
import pytest

from panelforest.dataset import (
    IntegrityError,
    OutlierRule,
    SchemaError,
    add_lags,
    correlation_matrix,
    describe,
    from_records,
    load_csv,
    log_transform,
    remove_outliers,
    write_removal_log,
)

from conftest import toy_panel


class TestLoadCsv:
    def test_basic_parse(self, tmp_csv):
        p = tmp_csv("Code,Year,x\nUSA,2000,1.5\nUSA,2001,2.5\nCAN,2000,3.5\n")
        ds = load_csv(p)
        assert ds.entities == ["CAN", "USA"]
        assert ds.years == [2000, 2001]
        assert ds.n_rows == 3
        # canonical order: CAN 2000, USA 2000, USA 2001
        assert list(ds.column("x")) == [3.5, 1.5, 2.5]

    def test_duplicate_key_is_fatal(self, tmp_csv):
        p = tmp_csv("Code,Year,x\nUSA,2000,1\nUSA,2000,2\n")
        with pytest.raises(IntegrityError, match="duplicate"):
            load_csv(p)

    def test_header_without_rows_rejected(self, tmp_csv):
        # a panel with no rows has no years for describe to report
        p = tmp_csv("Code,Year,x\n\n")
        with pytest.raises(SchemaError, match=r"data\.csv: no data rows"):
            load_csv(p)

    def test_missing_entity_column(self, tmp_csv):
        p = tmp_csv("Country,Year,x\nUSA,2000,1\n")
        with pytest.raises(SchemaError, match="Code"):
            load_csv(p)

    def test_missing_year_column(self, tmp_csv):
        p = tmp_csv("Code,Yr,x\nUSA,2000,1\n")
        with pytest.raises(SchemaError, match="Year"):
            load_csv(p)

    def test_repeated_column_name_rejected(self, tmp_csv):
        p = tmp_csv("Code,Year,x,x\nA,2000,1,2\nA,2001,3,4\n")
        with pytest.raises(SchemaError, match=r"repeated column names \['x'\]"):
            load_csv(p)

    def test_row_without_year_cell_names_its_line(self, tmp_csv):
        p = tmp_csv("Code,Year,x\nA,2000,1\nA\n")
        with pytest.raises(SchemaError, match=r":3: row too short for its Code and Year"):
            load_csv(p)

    def test_cell_past_the_header_names_its_line(self, tmp_csv):
        p = tmp_csv("Code,Year,x\nA,2000,1,9\nA,2001,3\n")
        with pytest.raises(SchemaError, match=r"data\.csv:2: cell past the header's 3 columns"):
            load_csv(p)

    def test_blank_cells_past_the_header_accepted(self, tmp_csv):
        ds = load_csv(tmp_csv("Code,Year,x\nA,2000,1,\nA,2001,3, ,\n"))
        assert list(ds.column("x")) == [1.0, 3.0]

    def test_blank_code_names_its_line(self, tmp_csv):
        p = tmp_csv("Code,Year,x\nA,2000,1\n,2001,2\n ,2002,3\n")
        with pytest.raises(SchemaError, match=r"data\.csv:3: blank Code"):
            load_csv(p)

    @pytest.mark.parametrize("year", ["2001.6", "inf", "1e30"])
    def test_year_not_an_integer_names_its_line(self, tmp_csv, year):
        p = tmp_csv(f"Code,Year,x\nA,2000,1\nA,{year},2\n")
        with pytest.raises(SchemaError, match=f":3: year '{year}' is not a 64-bit integer"):
            load_csv(p)

    def test_integral_float_year_accepted(self, tmp_csv):
        assert load_csv(tmp_csv("Code,Year,x\nA,2000.0,1\nA,2001,2\n")).years == [2000, 2001]

    def test_byte_order_mark_dropped(self, tmp_csv):
        ds = load_csv(tmp_csv("\ufeffCode,Year,x\nA,2000,1\nB,2000,2\n"))
        assert ds.entities == ["A", "B"]
        assert list(ds.column("x")) == [1.0, 2.0]

    def test_unparseable_cells_become_missing_with_count(self, tmp_csv):
        p = tmp_csv("Code,Year,x,w\nUSA,2000,oops,1\nUSA,2001,2.0,\n")
        with pytest.warns(UserWarning, match="unparseable"):
            ds = load_csv(p)
        assert math.isnan(ds.column("x")[0])
        assert ds.parse_warnings == {"x": 1}
        # empty cell is plain missing, not a parse warning
        assert math.isnan(ds.column("w")[1])

    def test_error_names_the_file_line_after_a_multiline_cell(self, tmp_csv):
        # the quoted cell spans lines 2 and 3, so the bad year is on line 5
        p = tmp_csv('Code,Year,x\nA,2000,"1\n2"\nA,2001,3\nB,20x1,4\n')
        with pytest.raises(SchemaError, match=r"data\.csv:5: year '20x1' is not"):
            load_csv(p)

    def test_trailing_comma_on_every_line_adds_no_column(self, tmp_csv):
        ds = load_csv(tmp_csv("Code,Year,x,\nA,2000,1,\nA,2001,3, \n"))
        assert list(ds.columns) == ["x"]
        assert list(describe(ds)) == ["x"]
        assert correlation_matrix(ds, list(ds.columns)).names == ("x",)

    def test_value_under_a_blank_header_name_rejected(self, tmp_csv):
        p = tmp_csv("Code,Year,x,\nA,2000,1,\nA,2001,3,7\n")
        with pytest.raises(SchemaError, match=r"data\.csv: header column 4 is blank$"):
            load_csv(p)


class TestAddLags:
    def test_shift_by_one(self):
        ds = from_records(["A"] * 3, [2000, 2001, 2002], {"x": [1.0, 2.0, 3.0]})
        out = add_lags(ds, ["x"], 1)
        lag = out.column("x(t-1)")
        assert math.isnan(lag[0])
        assert list(lag[1:]) == [1.0, 2.0]

    def test_no_cross_entity_leakage(self):
        ds = from_records(["A", "B"], [2000, 2000], {"x": [5.0, 5.0]})
        out = add_lags(ds, ["x"], 1)
        assert np.isnan(out.column("x(t-1)")).all()

    def test_gap_year_lags_to_missing(self):
        # calendar-shift oracle on the toy panel: lag exists only when the
        # previous calendar year is present for the same entity
        ds = toy_panel()
        out = add_lags(ds, ["x"], 1)
        lag = out.column("x(t-1)")
        index = {(e, y): v for e, y, v in
                 zip(ds.entity, ds.year, ds.column("x"))}
        for i, (e, y) in enumerate(zip(out.entity, out.year)):
            expected = index.get((e, int(y) - 1), math.nan)
            assert (math.isnan(lag[i]) and math.isnan(expected)) or lag[i] == expected
        # B has 2000 and 2002 only: 2002's lag must be missing
        b2002 = [i for i, (e, y) in enumerate(zip(out.entity, out.year))
                 if e == "B" and y == 2002][0]
        assert math.isnan(lag[b2002])

    def test_unknown_variable(self):
        with pytest.raises(KeyError, match="nope"):
            add_lags(toy_panel(), ["nope"], 1)

    @pytest.mark.parametrize("k", [True, 1.5, 2.0])
    def test_non_integer_lag_order_rejected(self, k):
        # True would add x(t-True), 1.5 an all-missing x(t-1.5), and 2.0 an
        # x(t-2.0) that a model's x(t-2) never matches
        with pytest.raises(ValueError, match=re.escape(f"lag order k must be an integer >= 1, "
                                                       f"got {k!r}")):
            add_lags(toy_panel(), ["x"], k)
        assert "x(t-2)" in add_lags(toy_panel(), ["x"], np.int64(2)).columns

    def test_restriction_commutes_with_lagging(self):
        # no leakage: lagging then restricting to one entity equals
        # restricting first, on randomized unbalanced panels
        for seed in range(20):
            rng = np.random.default_rng(seed)
            ents, yrs, vals = [], [], []
            for e in ["A", "B", "C"]:
                years = sorted(rng.choice(range(2000, 2012), size=rng.integers(2, 10),
                                          replace=False).tolist())
                for y in years:
                    ents.append(e)
                    yrs.append(y)
                    vals.append(float(rng.normal()))
            ds = from_records(ents, yrs, {"v": vals})
            k = int(rng.integers(1, 3))
            lagged_then_cut = add_lags(ds, ["v"], k)
            for e in ["A", "B", "C"]:
                mask = ds.entity == e
                cut_then_lagged = add_lags(ds.select_rows(mask), ["v"], k)
                a = lagged_then_cut.select_rows(lagged_then_cut.entity == e)
                np.testing.assert_array_equal(a.column(f"v(t-{k})"),
                                              cut_then_lagged.column(f"v(t-{k})"))


class TestLagRows:
    # toy_panel rows: A2000 A2001 A2002 | B2000 B2002 | C2001
    def test_lag_one_gap_and_entity_boundary(self):
        # B2002 lags into the gap year; B2000 and C2001 must not reach
        # back into the previous entity's rows
        assert toy_panel().lag_rows(1).tolist() == [-1, 0, 1, -1, -1, -1]

    def test_lag_two_spans_the_gap(self):
        assert toy_panel().lag_rows(2).tolist() == [-1, -1, 0, -1, 3, -1]

    def test_lag_zero_is_identity_and_negative_rejected(self):
        assert toy_panel().lag_rows(0).tolist() == list(range(6))
        with pytest.raises(ValueError):
            toy_panel().lag_rows(-1)


    @pytest.mark.parametrize("k", [True, 1.5, 2.0])
    def test_non_integer_lag_order_rejected(self, k):
        with pytest.raises(ValueError, match=re.escape(f"lag order k must be an integer >= 0, "
                                                       f"got {k!r}")):
            toy_panel().lag_rows(k)

class TestLogTransform:
    def test_ln_one_and_e(self):
        ds = from_records(["A", "A"], [2000, 2001], {"x": [1.0, math.e]})
        out = log_transform(ds, ["x"])
        assert out.column("LN_x")[0] == 0.0
        assert out.column("LN_x")[1] == pytest.approx(1.0, abs=1e-15)

    def test_reference_value(self):
        # independent high-precision evaluation: ln(0.2164) = -1.530626732...
        ds = from_records(["A"], [2000], {"x": [0.2164]})
        out = log_transform(ds, ["x"])
        assert out.column("LN_x")[0] == pytest.approx(-1.5306267320098106, abs=1e-12)
        assert round(float(out.column("LN_x")[0]), 4) == -1.5306

    def test_nonpositive_identifies_cell(self):
        ds = from_records(["A", "B"], [2000, 2001], {"x": [1.0, -2.0]})
        with pytest.raises(ValueError) as err:
            log_transform(ds, ["x"])
        msg = str(err.value)
        assert "B" in msg and "2001" in msg and "x" in msg

    def test_missing_stays_missing(self):
        ds = from_records(["A", "A"], [2000, 2001], {"x": [math.nan, 2.0]})
        out = log_transform(ds, ["x"])
        assert math.isnan(out.column("LN_x")[0])

    def test_log_exp_roundtrip(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            vals = np.exp(rng.normal(size=30))
            ds = from_records([f"E{i:02d}" for i in range(30)], [2000] * 30, {"x": vals})
            out = log_transform(ds, ["x"])
            rel = np.abs(np.exp(out.column("LN_x")) - vals) / vals
            assert rel.max() < 1e-12


class TestRemoveOutliers:
    def test_iqr_hand_computed(self):
        # sorted [1,2,3,100]: q1=1.75, q3=27.25, iqr=25.5
        # bounds: (1.75 - 38.25, 27.25 + 38.25) = (-36.5, 65.5) -> 100 out
        ds = from_records(["A", "B", "C", "D"], [2000] * 4,
                          {"x": [1.0, 2.0, 3.0, 100.0]})
        out, log = remove_outliers(ds, ["x"], OutlierRule("iqr", 1.5))
        assert out.n_rows == 3
        assert len(log) == 1
        rec = log[0]
        assert (rec.entity, rec.year, rec.variable, rec.value) == ("D", 2000, "x", 100.0)
        assert rec.lower == pytest.approx(-36.5)
        assert rec.upper == pytest.approx(65.5)

    def test_identical_values_nothing_removed(self):
        ds = from_records(["A", "B", "C"], [2000] * 3, {"x": [4.0, 4.0, 4.0]})
        out, log = remove_outliers(ds, ["x"])
        assert out.n_rows == 3 and log == []

    def test_rule_none_is_identity(self):
        ds = toy_panel()
        out, log = remove_outliers(ds, ["x"], OutlierRule("none"))
        assert out.n_rows == ds.n_rows and log == []

    def test_zscore_rule(self):
        vals = [0.0] * 10 + [50.0]
        ds = from_records([f"E{i}" for i in range(11)], [2000] * 11, {"x": vals})
        out, log = remove_outliers(ds, ["x"], OutlierRule("zscore", 3.0))
        assert out.n_rows == 10
        assert log[0].value == 50.0

    @pytest.mark.parametrize("kind, k", [("iqr", True), ("zscore", None), ("iqr", "3")])
    def test_non_number_multiplier_rejected(self, kind, k):
        # True is not k = 1, and None is not a TypeError from a comparison
        with pytest.raises(ValueError, match=f"multiplier k must be a number, got {k!r}"):
            OutlierRule(kind, k)

    @pytest.mark.parametrize("k", [0.0, -1.0, math.nan])
    def test_multiplier_must_be_positive(self, k):
        # a NaN multiplier would give NaN bounds, which flag nothing
        with pytest.raises(ValueError, match="multiplier must be positive"):
            OutlierRule("iqr", k)

    def test_numpy_multiplier_accepted(self):
        ds = from_records(["A", "B", "C", "D"], [2000] * 4, {"x": [1.0, 2.0, 3.0, 100.0]})
        out, log = remove_outliers(ds, ["x"], OutlierRule("iqr", np.float64(1.5)))
        assert out.n_rows == 3 and log[0].upper == pytest.approx(65.5)

    def test_subset_and_log_cardinality(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n = 40
            vals = rng.standard_t(df=2, size=n)  # heavy tails
            ds = from_records([f"E{i}" for i in range(n)], [2000] * n, {"x": vals})
            out, log = remove_outliers(ds, ["x"])
            assert out.n_rows + len(log) == n
            kept = set(zip(out.entity.tolist(), out.year.tolist()))
            assert kept <= set(zip(ds.entity.tolist(), ds.year.tolist()))

    def test_row_flagged_by_two_variables_logged_once(self):
        # log cardinality equals rows dropped even when one observation
        # trips the fence on several variables
        x = [1.0, 2.0, 3.0, 2.0, 100.0]
        z = [5.0, 6.0, 7.0, 6.0, -90.0]
        ds = from_records([f"E{i}" for i in range(5)], [2000] * 5, {"x": x, "z": z})
        out, log = remove_outliers(ds, ["x", "z"])
        assert ds.n_rows - out.n_rows == 1
        assert len(log) == 1
        assert log[0].variable == "x"  # first flagging variable attributed

    def test_removal_log_csv(self, tmp_path):
        ds = from_records(["A", "B", "C", "D"], [2000] * 4,
                          {"x": [1.0, 2.0, 3.0, 100.0]})
        _, log = remove_outliers(ds, ["x"])
        path = tmp_path / "removals.csv"
        write_removal_log(log, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "entity,year,variable,value,lower,upper"
        assert lines[1].startswith("D,2000,x,100.0")


class TestDescribe:
    def test_hand_computed_stats(self):
        ds = from_records(["A"] * 4, [2000, 2001, 2002, 2003],
                          {"x": [1.0, 2.0, 3.0, 4.0]})
        s = describe(ds)["x"]
        assert s.mean == 2.5
        assert s.median == 2.5
        assert s.std_dev == pytest.approx(1.2909944487358056, abs=1e-12)
        assert s.count == 4

    def test_constant_column_markers(self):
        ds = from_records(["A"] * 3, [2000, 2001, 2002], {"c": [7.0, 7.0, 7.0]})
        s = describe(ds)["c"]
        assert s.std_dev == 0.0
        assert s.skewness == 0.0
        assert math.isnan(s.kurtosis)

    def test_constant_whose_mean_rounds_off_it(self):
        ds = from_records(["A"] * 3, [2000, 2001, 2002], {"c": [0.1, 0.1, 0.1]})
        assert np.mean(ds.column("c")) != 0.1
        s = describe(ds)["c"]
        assert (s.mean, s.median, s.min, s.max) == (0.1, 0.1, 0.1, 0.1)
        assert (s.std_dev, s.skewness) == (0.0, 0.0)
        assert math.isnan(s.kurtosis)

    def test_excess_kurtosis_convention(self):
        # [0,0,1,1]: m2=0.25, m4=0.0625 -> kurtosis = 0.0625/0.0625 - 3 = -2
        ds = from_records(["A"] * 4, [2000, 2001, 2002, 2003],
                          {"x": [0.0, 0.0, 1.0, 1.0]})
        s = describe(ds)["x"]
        assert s.kurtosis == pytest.approx(-2.0, abs=1e-12)
        assert s.skewness == pytest.approx(0.0, abs=1e-12)

    def test_short_column_undefined_not_fatal(self):
        ds = from_records(["A", "B"], [2000, 2000], {"x": [1.0, math.nan]})
        s = describe(ds)["x"]
        assert s.count == 1
        assert math.isnan(s.std_dev)

    def test_invariant_to_row_permutation(self):
        rng = np.random.default_rng(3)
        n = 25
        vals = rng.normal(size=n)
        ents = [f"E{i}" for i in range(n)]
        ds = describe(from_records(ents, [2000] * n, {"x": vals}))["x"]
        perm = rng.permutation(n)
        ds2 = describe(from_records([ents[i] for i in perm], [2000] * n,
                                    {"x": vals[perm]}))["x"]
        assert ds == ds2

    def test_missing_cells_skipped(self):
        ds = from_records(["A"] * 5, list(range(2000, 2005)),
                          {"x": [1.0, math.nan, 3.0, math.nan, 5.0]})
        s = describe(ds)["x"]
        assert s.count == 3
        assert s.mean == 3.0


class TestCorrelationMatrix:
    def test_self_correlation(self):
        ds = toy_panel()
        corr = correlation_matrix(ds, ["x", "z"])
        assert corr[("x", "x")] == 1.0
        assert corr[("z", "z")] == 1.0

    def test_perfect_linear_relation(self):
        ds = from_records(["A"] * 3, [2000, 2001, 2002],
                          {"x": [1.0, 2.0, 3.0], "y": [2.0, 4.0, 6.0]})
        corr = correlation_matrix(ds, ["x", "y"])
        assert corr[("x", "y")] == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_unit_diagonal_randomized(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n = 30
            cols = {f"v{j}": rng.normal(size=n) for j in range(4)}
            # punch some holes
            for v in cols.values():
                v[rng.choice(n, size=5, replace=False)] = math.nan
            ds = from_records([f"E{i}" for i in range(n)], [2000] * n, cols)
            corr = correlation_matrix(ds, list(cols))
            m = corr.matrix
            assert np.array_equal(np.diag(m), np.ones(4))
            np.testing.assert_array_equal(m, m.T)
            finite = m[~np.isnan(m)]
            assert (finite >= -1).all() and (finite <= 1).all()

    def test_zero_variance_marker(self):
        ds = from_records(["A"] * 3, [2000, 2001, 2002],
                          {"c": [1.0, 1.0, 1.0], "x": [1.0, 2.0, 3.0]})
        corr = correlation_matrix(ds, ["c", "x"])
        assert math.isnan(corr[("c", "x")])
        assert corr[("c", "c")] == 1.0

    def test_zero_variance_marker_when_the_mean_rounds(self):
        ds = from_records(["A"] * 3, [2000, 2001, 2002],
                          {"c": [0.1, 0.1, 0.1], "x": [1.0, 2.0, 4.0]})
        assert np.std(ds.column("c")) > 0.0
        assert math.isnan(correlation_matrix(ds, ["c", "x"])[("c", "x")])

    def test_pairwise_complete(self):
        ds = from_records(["A"] * 4, list(range(2000, 2004)),
                          {"x": [1.0, 2.0, 3.0, math.nan],
                           "y": [2.0, 4.0, 6.0, 100.0]})
        corr = correlation_matrix(ds, ["x", "y"])
        assert corr[("x", "y")] == pytest.approx(1.0, abs=1e-12)


class TestPanelInvariants:
    def test_duplicate_keys_rejected(self):
        with pytest.raises(IntegrityError):
            from_records(["A", "A"], [2000, 2000], {"x": [1.0, 2.0]})

    def test_rows_sorted_canonically(self):
        ds = from_records(["B", "A"], [2000, 2005], {"x": [1.0, 2.0]})
        assert ds.entity.tolist() == ["A", "B"]

    def test_fingerprint_distinguishes_content(self):
        a = from_records(["A"], [2000], {"x": [1.0]})
        b = from_records(["A"], [2000], {"x": [1.5]})
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint() == from_records(["A"], [2000], {"x": [1.0]}).fingerprint()

    def test_immutability_of_operations(self):
        ds = toy_panel()
        before = ds.fingerprint()
        add_lags(ds, ["x"], 1)
        log_transform(ds, ["z"])
        remove_outliers(ds, ["x"])
        assert ds.fingerprint() == before


class TestInfiniteCells:
    @pytest.mark.parametrize("cell", ["inf", "-Infinity", "1e999"])
    def test_rejected_naming_entity_year_variable(self, tmp_csv, cell):
        p = tmp_csv(f"Code,Year,x,w\nUSA,2000,1.0,2\nCAN,2001,{cell},3\n")
        with pytest.raises(IntegrityError, match=f"CAN 2001 x={cell}"):
            load_csv(p)

    def test_every_infinite_cell_listed(self, tmp_csv):
        p = tmp_csv("Code,Year,x,w\nUSA,2000,inf,oops\nUSA,2001,2.0,-inf\n")
        with pytest.raises(IntegrityError, match="2 infinite") as err:
            load_csv(p)
        assert "USA 2000 x=inf" in str(err.value) and "USA 2001 w=-inf" in str(err.value)

    @pytest.mark.parametrize("model", ["linear", "gmm"])
    def test_from_records_rejects_before_any_fit(self, model):
        from panelforest.gmm import GmmSpec, fit_system_gmm
        from panelforest.linear import ModelSpec, fit

        rng = np.random.default_rng(0)
        x, y = rng.normal(size=80), rng.normal(size=80)
        x[21] = -np.inf  # entity E2, year 2005
        with pytest.raises(IntegrityError, match="1 infinite .*: E2 2005 x=-inf$"):
            ds = from_records(np.repeat([f"E{i}" for i in range(10)], 8),
                              np.tile(np.arange(2000, 2008), 10), {"y": y, "x": x})
            if model == "linear":
                fit(ModelSpec("y", ("x",)), ds)
            else:
                fit_system_gmm(GmmSpec("y", ("x",), instrument_lags=(2, 2)), ds)
