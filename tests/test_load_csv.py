"""`load_csv` against the per-cell loader it replaced, and its memory use.

`reference_load_csv` is the loader as it was before rows moved into arrays
block by block, kept verbatim.  Every generated file must give both the
same panel, parse counts and warning text, or the same exception.  Files
with a blank header name or a record that spans lines are left out: the
loader now treats those differently, and `tests/test_dataset.py` pins it.
"""

import csv
import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panelforest.dataset import (
    IntegrityError,
    PanelDataset,
    SchemaError,
    load_csv,
)


def reference_load_csv(path) -> PanelDataset:
    """Load a UTF-8 CSV with a header row into a PanelDataset; a leading
    byte-order mark is dropped.

    The file must contain the entity column `Code`, never blank, and the
    integer year column `Year` ("2000.0" is accepted); every other column
    is parsed as numeric.  Empty cells and unparseable numeric cells
    become missing (the latter are counted per column in
    ``parse_warnings``).  An infinite cell ("inf", "-Infinity", or a
    literal that overflows) is rejected.

    Raises
    ------
    SchemaError
        No data rows, missing entity/year column, repeated column name, a
        row too short to hold its entity and year, a blank entity, a year
        that is not a 64-bit integer, or a non-blank cell past the header.
    IntegrityError
        Duplicate (entity, year) rows, or infinite cells (the message names
        the entity, year and variable of each).
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if "Code" not in header:
            raise SchemaError(f"{path}: missing entity column 'Code'")
        if "Year" not in header:
            raise SchemaError(f"{path}: missing year column 'Year'")
        repeated = sorted({h for h in header if header.count(h) > 1})
        if repeated:
            raise SchemaError(f"{path}: repeated column names {repeated}")

        e_idx, y_idx = header.index("Code"), header.index("Year")
        value_pos = [i for i in range(len(header)) if i not in (e_idx, y_idx)]
        value_names = [header[i] for i in value_pos]
        entities, years = [], []
        raw_cols: dict[str, list[float]] = {name: [] for name in value_names}
        bad_cells: dict[str, int] = {}
        infinite: list[str] = []  # "entity year variable=cell" of each infinite cell
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) <= max(e_idx, y_idx):
                raise SchemaError(f"{path}:{lineno}: row too short for its Code and Year")
            if any(c.strip() for c in row[len(header):]):
                raise SchemaError(f"{path}:{lineno}: cell past the header's {len(header)} columns")
            if not row[e_idx].strip():
                raise SchemaError(f"{path}:{lineno}: blank Code")
            try:
                year = float(row[y_idx])
            except ValueError:
                year = math.nan
            if not (year.is_integer() and abs(year) < 2**63):
                raise SchemaError(f"{path}:{lineno}: year {row[y_idx]!r} is not a 64-bit integer")
            entities.append(row[e_idx].strip())
            years.append(int(year))
            for name, col_pos in zip(value_names, value_pos):
                cell = row[col_pos].strip() if col_pos < len(row) else ""
                if not cell:
                    raw_cols[name].append(math.nan)
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    value = math.nan
                    bad_cells[name] = bad_cells.get(name, 0) + 1
                else:
                    if math.isinf(value):
                        bad_cells[name] = bad_cells.get(name, 0) + 1
                        infinite.append(f"{entities[-1]} {years[-1]} {name}={cell}")
                raw_cols[name].append(value)

    if not entities:
        raise SchemaError(f"{path}: no data rows")
    if infinite:
        raise IntegrityError(f"{path}: {len(infinite)} infinite numeric cells "
                             f"(entity year variable=cell): {', '.join(infinite)}")
    ent = np.asarray(entities, dtype=object)
    yr = np.asarray(years, dtype=np.int64)
    order = np.lexsort((yr, ent))
    cols = {name: np.asarray(vals, dtype=np.float64)[order] for name, vals in raw_cols.items()}
    try:
        ds = PanelDataset(ent[order], yr[order], cols, parse_warnings=bad_cells)
    except IntegrityError as exc:
        raise IntegrityError(f"{path}: {exc}") from None
    if bad_cells:
        total = sum(bad_cells.values())
        warnings.warn(f"{path}: {total} unparseable numeric cells coerced to missing "
                      f"({dict(sorted(bad_cells.items()))})", stacklevel=2)
    return ds


def outcome(loader, path):
    """What a load gives: the panel, its parse counts and warning text, or
    the exception's type and message."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            ds = loader(path)
        except Exception as exc:  # any exception must match the reference's
            return type(exc), str(exc)
    dtypes = [a.dtype for a in (ds.entity, ds.year, *ds.columns.values())]
    return (ds.fingerprint(), list(ds.columns), dtypes, ds.parse_warnings,
            [str(w.message) for w in caught])


CODES = ["A", " B", "C ", "DE"]  # distinct once stripped, so regular keys never repeat
VALUES = ["1", "-2.5", " 3e2 ", "0", "7.25", "", " ", "oops", "inf", "-Infinity",
          "1e999", "nan", "1_0", "1,5", 'a"b']
BAD_YEARS = ["", " ", "2001.5", "20x1", "1e30", "inf", "nan", "2000.0", "9.3e18"]
IRREGULAR = ["blank", "spaces", "short", "past_blank", "past_value", "blank_code",
             "bad_year", "odd_values"]
ROW_KINDS = ["regular"] * 8 + IRREGULAR  # mostly regular rows


@st.composite
def headers(draw):
    names = draw(st.lists(st.sampled_from(["x", " w", "v ", "GDP Growth"]),
                          max_size=3, unique_by=str.strip))
    return draw(st.permutations(["Code", "Year", *names]))


def regular_row(header, i, value=lambda i, j: f"{(i * 7919 + j * 104729) % 1000 / 8}"):
    """Row i of a file: entity and year from i, so no two rows share a key."""
    year = str(2000 + i // len(CODES))
    return [CODES[i % len(CODES)] if h == "Code" else year if h == "Year" else value(i, j)
            for j, h in enumerate(header)]


@st.composite
def rows(draw, header, i, kinds=ROW_KINDS):
    """Row i: regular, or one irregular kind, with drawn value cells."""
    kind = draw(st.sampled_from(kinds))
    cell = st.sampled_from(VALUES if kind == "odd_values" else VALUES[:5] * 3 + VALUES)
    row = regular_row(header, i, lambda i, j: draw(cell))
    e_idx, y_idx = header.index("Code"), header.index("Year")
    if kind == "blank":
        return []
    if kind == "spaces":
        return [draw(st.sampled_from(["", " ", "\t"])) for _ in header]
    if kind == "short":
        return row[:draw(st.integers(0, max(e_idx, y_idx)))]
    if kind in ("past_blank", "past_value"):
        extra = st.sampled_from(["", " "] if kind == "past_blank" else ["9", "x", " 0"])
        return row + draw(st.lists(extra, min_size=1, max_size=2))
    if kind == "blank_code":
        row[e_idx] = draw(st.sampled_from(["", "  "]))
    if kind == "bad_year":
        row[y_idx] = draw(st.sampled_from(BAD_YEARS))
    return row


@st.composite
def files(draw, long=False):
    """The text of a CSV file, and the rows it was written from."""
    header = draw(headers())
    if long:
        # these sizes crossed the 2,048-row block boundary of an earlier
        # loader: irregular rows just before, at and after it
        body = [regular_row(header, i) for i in range(2048 + 3)]
        for at in range(2048 - 1, 2048 + 2):
            body.insert(at, draw(rows(header, 10_000 + at, IRREGULAR)))
    else:
        body = [draw(rows(header, i)) for i in range(draw(st.integers(0, 12)))]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=draw(st.sampled_from(["\n", "\r\n"])),
                        quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])))
    writer.writerow(header)
    writer.writerows(body)
    return draw(st.sampled_from(["", "\ufeff"])) + out.getvalue()


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("differential") / "data.csv"


def check_same_outcome(path, text):
    path.write_text(text, encoding="utf-8")
    assert outcome(load_csv, path) == outcome(reference_load_csv, path)


@settings(max_examples=300, deadline=None)
@given(text=files())
def test_short_files_load_as_before(csv_path, text):
    check_same_outcome(csv_path, text)


@settings(max_examples=40, deadline=None)
@given(text=files(long=True))
def test_files_past_a_block_boundary_load_as_before(csv_path, text):
    check_same_outcome(csv_path, text)


def test_memory_bounded_by_the_returned_arrays(tmp_path):
    n_ent, n_year = 1_000, 51
    values = np.random.default_rng(3).normal(size=(n_ent * n_year, 5))
    lines = ["Code,Year,a,b,c,d,e"]
    for i, row in enumerate(values.tolist()):
        lines.append(f"E{i // n_year:04d},{1960 + i % n_year}," + ",".join(map(repr, row)))
    path = tmp_path / "panel.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    del lines
    load_csv(path)  # settle one-time allocations first

    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ds = load_csv(path)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ds.n_rows == n_ent * n_year >= 50_000
    arrays = ds.entity.nbytes + ds.year.nbytes + sum(v.nbytes for v in ds.columns.values())
    assert current - before <= 1.25 * arrays
    assert peak - before <= 3 * arrays
