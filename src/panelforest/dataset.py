"""Entity-by-year panel container and analysis-ready transformations.

A :class:`PanelDataset` holds named numeric series keyed by (entity, year).
Rows are stored in canonical (entity, year) order, missing cells are NaN,
and every operation returns a new dataset, so instances are safe to share.

Lags are keyed by calendar year, not row position: the lag of ``x`` at
(e, y) is the value at (e, y - k), which keeps unbalanced panels aligned
and never leaks values across entities.
"""

from __future__ import annotations

import csv
import math
import sys
import warnings
from array import array
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from ._common import is_number, segment_ids, write_csv

__all__ = [
    "PanelDataset",
    "ColumnStats",
    "CorrelationMatrix",
    "OutlierRule",
    "SchemaError",
    "IntegrityError",
    "RemovalRecord",
    "from_records",
    "load_csv",
    "add_lags",
    "log_transform",
    "remove_outliers",
    "describe",
    "correlation_matrix",
    "write_removal_log",
]

class SchemaError(ValueError):
    """Input file does not provide the required entity/year layout."""


class IntegrityError(ValueError):
    """Panel invariant violated (duplicate keys, unknown columns, ...)."""


@dataclass(frozen=True)
class PanelDataset:
    """Immutable entity x year panel of named numeric series.

    Attributes
    ----------
    entity : np.ndarray
        Entity code per row (string), canonical (entity, year) sort order.
    year : np.ndarray
        Calendar year per row (int64).
    columns : dict
        Column name -> float64 array aligned with rows; NaN marks missing
        and an infinite value is an IntegrityError.
    parse_warnings : dict
        Column name -> count of unparseable cells coerced to missing
        during CSV loading.
    """

    entity: np.ndarray
    year: np.ndarray
    columns: dict[str, np.ndarray]
    parse_warnings: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.entity)
        if len(self.year) != n:
            raise IntegrityError("entity and year arrays differ in length")
        for name, values in self.columns.items():
            if len(values) != n:
                raise IntegrityError(f"column {name!r} has {len(values)} rows, expected {n}")
        e, y = self.entity, self.year
        increasing = (e[1:] > e[:-1]) | ((e[1:] == e[:-1]) & (y[1:] > y[:-1]))
        if not increasing.all():
            seen, dups = set(), set()
            for k in zip(e.tolist(), y.tolist()):
                if k in seen:
                    dups.add(k)
                seen.add(k)
            if dups:
                raise IntegrityError(f"duplicate (entity, year) keys: {sorted(dups)[:5]}")
            raise IntegrityError("rows must be sorted by (entity, year)")
        infinite = [f"{e[i]} {y[i]} {name}={values[i]}" for name, values in self.columns.items()
                    for i in np.flatnonzero(np.isinf(values))]
        if infinite:
            raise IntegrityError(f"{len(infinite)} infinite numeric cells "
                                 f"(entity year variable=cell): {', '.join(infinite)}")

    # -- basic views ---------------------------------------------------

    @property
    def n_rows(self) -> int:
        return len(self.entity)

    @property
    def entities(self) -> list[str]:
        """Unique entity codes in canonical order."""
        return sorted(set(self.entity.tolist()))

    @property
    def years(self) -> list[int]:
        """Unique years, ascending."""
        return sorted(set(self.year.tolist()))

    def lag_rows(self, k: int) -> np.ndarray:
        """Row index of (e, y - k) for every row (e, y), or -1 where that
        row is absent: the calendar lag every lagged quantity is gathered
        through."""
        if k < 0:
            raise ValueError(f"lag order must be >= 0, got {k}")
        if not self.n_rows:
            return np.zeros(0, dtype=np.int64)
        entity_id = segment_ids(self.entity)
        offset = self.year - self.year.min()
        # keys of one entity fill [id * stride, (id + 1) * stride), so a
        # lag never reaches into the previous entity
        stride = int(offset.max()) + 1 + k
        keys = entity_id * stride + offset + k
        wanted = keys - k
        found = np.minimum(np.searchsorted(keys, wanted), self.n_rows - 1)
        return np.where(keys[found] == wanted, found, -1)

    def column(self, name: str) -> np.ndarray:
        try:
            return self.columns[name]
        except KeyError:
            raise KeyError(f"unknown column {name!r}; have {sorted(self.columns)}") from None

    def require_columns(self, names: Iterable[str]) -> None:
        missing = [n for n in names if n not in self.columns]
        if missing:
            raise KeyError(f"unknown columns {missing}; have {sorted(self.columns)}")

    def with_column(self, name: str, values: np.ndarray) -> "PanelDataset":
        """New dataset with one column added (or replaced)."""
        cols = dict(self.columns)
        cols[name] = np.asarray(values, dtype=np.float64)
        return PanelDataset(self.entity, self.year, cols, dict(self.parse_warnings))

    def select_rows(self, mask: np.ndarray) -> "PanelDataset":
        """New dataset restricted to rows where mask is True."""
        mask = np.asarray(mask, dtype=bool)
        cols = {name: values[mask] for name, values in self.columns.items()}
        return PanelDataset(self.entity[mask], self.year[mask], cols,
                            dict(self.parse_warnings))

    def complete_rows(self, names: Sequence[str]) -> np.ndarray:
        """Boolean mask of rows with no missing value in `names`."""
        self.require_columns(names)
        mask = np.ones(self.n_rows, dtype=bool)
        for name in names:
            mask &= ~np.isnan(self.columns[name])
        return mask

    def fingerprint(self) -> str:
        """Content hash used to match fits against their source data."""
        import hashlib

        h = hashlib.sha256()
        h.update("\x1f".join(self.entity.tolist()).encode())
        h.update(self.year.astype(np.int64).tobytes())
        for name in sorted(self.columns):
            values = self.columns[name]
            h.update(name.encode())
            h.update(np.isnan(values).tobytes())
            h.update(np.nan_to_num(values, nan=0.0).astype(np.float64).tobytes())
        return h.hexdigest()


def from_records(entity: Sequence[str], year: Sequence[int],
                 columns: Mapping[str, Sequence[float]]) -> PanelDataset:
    """Build a dataset from parallel sequences, sorting rows canonically."""
    ent = np.asarray(entity, dtype=object)
    yr = np.asarray(year, dtype=np.int64)
    order = np.lexsort((yr, ent))
    cols = {name: np.asarray(vals, dtype=np.float64)[order] for name, vals in columns.items()}
    return PanelDataset(ent[order], yr[order], cols)


def load_csv(path) -> PanelDataset:
    """Load a UTF-8 CSV with a header row into a PanelDataset; a leading
    byte-order mark is dropped.

    The file must contain the entity column `Code`, never blank, and the
    integer year column `Year` ("2000.0" is accepted); every other column
    is parsed as numeric.  Empty cells and unparseable numeric cells
    become missing (the latter are counted per column in
    ``parse_warnings``).  An infinite cell ("inf", "-Infinity", or a
    literal that overflows) is rejected.  A column whose header name is
    blank is dropped when no row has a value in it, as with a trailing
    comma on every line.  An error names the file line where its record
    starts.

    Raises
    ------
    SchemaError
        No data rows, missing entity/year column, repeated column name, a
        value under a blank header name, a row too short to hold its
        entity and year, a blank entity, a year that is not a 64-bit
        integer, or a non-blank cell past the header.
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
        repeated = sorted({h for h in header if h and header.count(h) > 1})
        if repeated:
            raise SchemaError(f"{path}: repeated column names {repeated}")

        e_idx, y_idx = header.index("Code"), header.index("Year")
        blank_pos = [i for i, h in enumerate(header) if not h]
        value_pos = [i for i, h in enumerate(header) if h and i not in (e_idx, y_idx)]
        value_names = [header[i] for i in value_pos]
        # years and values are stored as C integers and doubles as they are
        # parsed, and codes are interned: no Python object per cell stays
        entities, years = [], array("q")
        raw_cols = {name: array("d") for name in value_names}
        bad_cells: dict[str, int] = {}
        infinite: list[str] = []  # "entity year variable=cell" of each infinite cell
        end = reader.line_num  # a quoted cell may span file lines
        for row in reader:
            lineno, end = end + 1, reader.line_num
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) <= max(e_idx, y_idx):
                raise SchemaError(f"{path}:{lineno}: row too short for its Code and Year")
            if any(c.strip() for c in row[len(header):]):
                raise SchemaError(f"{path}:{lineno}: cell past the header's {len(header)} columns")
            for i in blank_pos:
                if i < len(row) and row[i].strip():
                    raise SchemaError(f"{path}: header column {i + 1} is blank")
            if not row[e_idx].strip():
                raise SchemaError(f"{path}:{lineno}: blank Code")
            try:
                year = float(row[y_idx])
            except ValueError:
                year = math.nan
            if not (year.is_integer() and abs(year) < 2**63):
                raise SchemaError(f"{path}:{lineno}: year {row[y_idx]!r} is not a 64-bit integer")
            entities.append(sys.intern(row[e_idx].strip()))
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
    ent, yr = np.array(entities, dtype=object), np.frombuffer(years, dtype=np.int64)
    order = np.lexsort((yr, ent))
    cols = {name: np.frombuffer(vals)[order] for name, vals in raw_cols.items()}
    try:
        ds = PanelDataset(ent[order], yr[order], cols, parse_warnings=bad_cells)
    except IntegrityError as exc:
        raise IntegrityError(f"{path}: {exc}") from None
    if bad_cells:
        total = sum(bad_cells.values())
        warnings.warn(f"{path}: {total} unparseable numeric cells coerced to missing "
                      f"({dict(sorted(bad_cells.items()))})", stacklevel=2)
    return ds


def add_lags(ds: PanelDataset, vars: Sequence[str], k: int = 1) -> PanelDataset:
    """Add calendar-lag columns ``<name>(t-k)`` for each name in `vars`.

    The lag at (e, y) is the value at (e, y - k) when that row exists,
    otherwise missing; entities never borrow from each other, and gap
    years lag to missing rather than to the previous row.
    """
    if k < 1:
        raise ValueError(f"lag order must be >= 1, got {k}")
    ds.require_columns(vars)
    out = ds
    rows = ds.lag_rows(k)
    for name in vars:
        lagged = np.where(rows >= 0, ds.columns[name][rows], np.nan)
        out = out.with_column(f"{name}(t-{k})", lagged)
    return out


def log_transform(ds: PanelDataset, vars: Sequence[str]) -> PanelDataset:
    """Add natural-log columns ``LN_<name>``; missing stays missing.

    Raises ValueError identifying (entity, year, variable) on any
    non-positive value.
    """
    ds.require_columns(vars)
    out = ds
    for name in vars:
        src = ds.columns[name]
        bad = np.where(~np.isnan(src) & (src <= 0))[0]
        if bad.size:
            i = int(bad[0])
            raise ValueError(
                f"log_transform({name!r}): non-positive value {src[i]} at "
                f"entity={ds.entity[i]!r}, year={int(ds.year[i])}"
                + (f" (+{bad.size - 1} more)" if bad.size > 1 else "")
            )
        with np.errstate(invalid="ignore"):
            out = out.with_column(f"LN_{name}", np.log(src))
    return out


@dataclass(frozen=True)
class OutlierRule:
    """Observation-wise outlier rule: none, iqr(k), or zscore(k)."""

    kind: str = "iqr"  # {"none", "iqr", "zscore"}
    k: float = 1.5

    def __post_init__(self):
        if self.kind not in {"none", "iqr", "zscore"}:
            raise ValueError(f"unknown outlier rule {self.kind!r}")
        if not is_number(self.k):
            raise ValueError(f"outlier rule multiplier k must be a number, got {self.k!r}")
        if self.kind != "none" and not self.k > 0:  # NaN too
            raise ValueError("outlier rule multiplier must be positive")

    def bounds(self, values: np.ndarray) -> tuple[float, float]:
        clean = values[~np.isnan(values)]
        if self.kind == "iqr":
            q1, q3 = np.percentile(clean, [25, 75])
            span = self.k * (q3 - q1)
            return float(q1 - span), float(q3 + span)
        if self.kind == "zscore":
            mu, sd = float(np.mean(clean)), float(np.std(clean, ddof=1))
            return mu - self.k * sd, mu + self.k * sd
        return -math.inf, math.inf


@dataclass(frozen=True)
class RemovalRecord:
    entity: str
    year: int
    variable: str
    value: float
    lower: float
    upper: float


def remove_outliers(ds: PanelDataset, vars: Sequence[str],
                    rule: OutlierRule | None = None) -> tuple[PanelDataset, list[RemovalRecord]]:
    """Drop observations flagged by `rule` on any variable in `vars`.

    Returns the filtered dataset and a removal log with exactly one
    record per dropped row, attributed to the first variable (in `vars`
    order) that flagged it.  `rule=None` defaults to iqr(1.5); use
    ``OutlierRule("none")`` for a no-op.
    """
    rule = rule if rule is not None else OutlierRule("iqr", 1.5)
    ds.require_columns(vars)
    if rule.kind == "none":
        return ds, []
    keep = np.ones(ds.n_rows, dtype=bool)
    log: list[RemovalRecord] = []
    for name in vars:
        values = ds.columns[name]
        if np.all(np.isnan(values)):
            continue
        lo, hi = rule.bounds(values)
        flagged = keep & ~np.isnan(values) & ((values < lo) | (values > hi))
        for i in np.where(flagged)[0]:
            log.append(RemovalRecord(str(ds.entity[i]), int(ds.year[i]), name,
                                     float(values[i]), lo, hi))
        keep &= ~flagged
    return ds.select_rows(keep), sorted(log, key=lambda r: (r.entity, r.year, r.variable))


def write_removal_log(log: Sequence[RemovalRecord], path) -> None:
    """Write the removal log as CSV: entity,year,variable,value,lower,upper."""
    write_csv(path, ["entity", "year", "variable", "value", "lower", "upper"],
              ([rec.entity, rec.year, rec.variable,
                repr(rec.value), repr(rec.lower), repr(rec.upper)] for rec in log))


@dataclass(frozen=True)
class ColumnStats:
    """Summary statistics of one column over its non-missing cells.

    std_dev is the sample standard deviation (n-1 denominator); skewness
    and kurtosis are the standardized central-moment estimators m3/m2^1.5
    and m4/m2^2 - 3 (excess/Fisher convention).  A constant column has
    std_dev 0, skewness 0 and kurtosis NaN.  Undefined statistics are NaN,
    never an exception.
    """

    mean: float
    median: float
    min: float
    max: float
    std_dev: float
    skewness: float
    kurtosis: float
    count: int


def _column_stats(values: np.ndarray) -> ColumnStats:
    clean = values[~np.isnan(values)]
    n = clean.size
    if n < 2:
        m = float(clean[0]) if n == 1 else math.nan
        return ColumnStats(m, m, m, m, math.nan, math.nan, math.nan, n)
    lo, hi = float(np.min(clean)), float(np.max(clean))
    if lo == hi:  # constant: its computed mean may differ from it
        return ColumnStats(lo, lo, lo, lo, 0.0, 0.0, math.nan, n)
    mean = float(np.mean(clean))
    centered = clean - mean
    m2 = float(np.mean(centered**2))
    m3 = float(np.mean(centered**3))
    m4 = float(np.mean(centered**4))
    if m2 > 0:
        skew = m3 / m2**1.5
        kurt = m4 / m2**2 - 3.0
    else:
        skew, kurt = 0.0, math.nan  # the spread underflows
    return ColumnStats(mean, float(np.median(clean)), lo, hi,
                       float(np.std(clean, ddof=1)), skew, kurt, n)


def describe(ds: PanelDataset) -> dict[str, ColumnStats]:
    """Descriptive statistics of every column, in column order."""
    return {name: _column_stats(values) for name, values in ds.columns.items()}


@dataclass(frozen=True)
class CorrelationMatrix:
    """Pairwise-complete Pearson correlations; NaN marks undefined pairs."""

    names: tuple[str, ...]
    matrix: np.ndarray

    def __getitem__(self, pair: tuple[str, str]) -> float:
        i, j = self.names.index(pair[0]), self.names.index(pair[1])
        return float(self.matrix[i, j])


def correlation_matrix(ds: PanelDataset, vars: Sequence[str]) -> CorrelationMatrix:
    """Pearson correlations on pairwise-complete observations.

    Diagonal is exactly 1.  Pairs with fewer than 2 complete observations
    or a zero-variance side get NaN.
    """
    names = list(vars)
    ds.require_columns(names)
    p = len(names)
    mat = np.full((p, p), np.nan)
    np.fill_diagonal(mat, 1.0)
    series = [ds.columns[n] for n in names]
    for i in range(p):
        for j in range(i + 1, p):
            both = ~np.isnan(series[i]) & ~np.isnan(series[j])
            if both.sum() < 2:
                continue
            x, y = series[i][both], series[j][both]
            sx, sy = np.std(x), np.std(y)
            # a constant's computed std may round above 0, so compare values
            if sx == 0 or sy == 0 or x.min() == x.max() or y.min() == y.max():
                continue
            r = float(np.mean((x - np.mean(x)) * (y - np.mean(y))) / (sx * sy))
            mat[i, j] = mat[j, i] = min(1.0, max(-1.0, r))
    return CorrelationMatrix(tuple(names), mat)
