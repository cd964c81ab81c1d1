"""Tabular data model: attribute roles, CSV I/O, normalization parameters and
seeded synthetic data with a controlled QI/confidential correlation."""

from __future__ import annotations

import csv
import enum
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np


class Role(enum.Enum):
    QUASI_IDENTIFIER = "qi"
    CONFIDENTIAL = "confidential"
    IGNORED = "ignore"


@dataclass(frozen=True)
class AttributeSpec:
    name: str
    role: Role


@dataclass(frozen=True)
class Table:
    """A microdata set: n records of real-valued cells with per-attribute roles.

    Immutable after construction. Requires at least one quasi-identifier and
    exactly one confidential attribute; rows must be complete (no NaN).
    """

    specs: tuple[AttributeSpec, ...]
    rows: np.ndarray

    def __post_init__(self):
        specs = tuple(self.specs)
        rows = np.ascontiguousarray(np.asarray(self.rows, dtype=np.float64))
        if rows.ndim != 2:
            raise ValueError("rows must be a 2-D array of reals")
        if rows.shape[0] < 1:
            raise ValueError("a table must contain at least one record")
        if rows.shape[1] != len(specs):
            raise ValueError(
                f"rows have {rows.shape[1]} cells but {len(specs)} attributes are declared"
            )
        if not np.all(np.isfinite(rows)):
            raise ValueError("rows contain missing or non-finite cells")
        n_qi = sum(1 for s in specs if s.role is Role.QUASI_IDENTIFIER)
        n_conf = sum(1 for s in specs if s.role is Role.CONFIDENTIAL)
        if n_qi < 1:
            raise ValueError("at least one quasi-identifier attribute is required")
        if n_conf != 1:
            raise ValueError(f"exactly one confidential attribute is required, got {n_conf}")
        rows.setflags(write=False)
        object.__setattr__(self, "specs", specs)
        object.__setattr__(self, "rows", rows)

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def qi_indices(self) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.specs) if s.role is Role.QUASI_IDENTIFIER)

    @property
    def confidential_index(self) -> int:
        return next(i for i, s in enumerate(self.specs) if s.role is Role.CONFIDENTIAL)

    def qi_matrix(self) -> np.ndarray:
        """The (n, q) matrix of quasi-identifier values in original units."""
        return self.rows[:, self.qi_indices]

    def confidential_column(self) -> np.ndarray:
        return self.rows[:, self.confidential_index]


@dataclass(frozen=True)
class AnonymizedTable:
    """A table whose QI cells were replaced by cluster centroids, plus the
    cluster id assigned to every record."""

    table: Table
    cluster_ids: np.ndarray

    def __post_init__(self):
        ids = np.asarray(self.cluster_ids, dtype=np.int64)
        if ids.shape != (self.table.n,):
            raise ValueError("cluster_ids must hold one id per record")
        ids.setflags(write=False)
        object.__setattr__(self, "cluster_ids", ids)

    @property
    def n(self) -> int:
        return self.table.n


@dataclass(frozen=True)
class NormalizationParams:
    """Per-QI min/max taken from the original table; frozen before anonymization
    so all distances and SSE terms share one scale."""

    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        mins = np.asarray(self.mins, dtype=np.float64)
        maxs = np.asarray(self.maxs, dtype=np.float64)
        if mins.ndim != 1 or mins.shape != maxs.shape:
            raise ValueError("mins/maxs must be 1-D arrays of equal length, one entry per QI")
        if np.any(mins > maxs):
            raise ValueError("per-attribute min must not exceed max")
        mins.setflags(write=False)
        maxs.setflags(write=False)
        object.__setattr__(self, "mins", mins)
        object.__setattr__(self, "maxs", maxs)

    def scaled(self, values: np.ndarray) -> np.ndarray:
        """values, one column per QI, divided by each QI's span max - min; a
        constant QI (span 0) maps to 0."""
        spans = self.maxs - self.mins
        out = np.zeros_like(values)
        ok = spans > 0
        out[:, ok] = values[:, ok] / spans[ok]
        return out


def minmax_params(table: Table) -> NormalizationParams:
    """Min-max normalization parameters over the table's QI columns."""
    qi = table.qi_matrix()
    return NormalizationParams(qi.min(axis=0), qi.max(axis=0))


# rows written per block; larger blocks write no faster and raise peak memory
_BLOCK = 1024


def _read_csv(path, roles: Sequence[AttributeSpec], trailing: tuple[str, ...], drop_missing: bool):
    """Read a UTF-8 CSV whose header is the declared columns, in any order,
    followed by the integer `trailing` columns. Returns the specs in file
    order, the kept rows' declared cells as an (n, declared) float array and
    their trailing cells as an (n, trailing) int64 array. A cell that parses
    to nan or an infinity counts as missing.

    The body is parsed by one np.loadtxt call, whose rows with a non-finite
    cell are dropped there when drop_missing is set. If that call raises a
    ValueError or a warning, or gives a non-finite cell without
    drop_missing, the whole body is read again by the row-by-row _read_rows,
    which gives every row number and message. np.loadtxt takes no quotes, so
    a quoted cell fails it, and a line longer than csv's field limit is made
    to fail it, since csv.reader rejects such a field."""
    by_name = {spec.name: spec for spec in roles}
    if len(by_name) != len(roles):
        raise ValueError("duplicate attribute names in roles")
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            header = [h.strip() for h in next(csv.reader(fh))]
        except StopIteration:
            raise ValueError(f"{path}: file is empty") from None
        width = len(header) - len(trailing)
        if tuple(header[width:]) != trailing:
            raise ValueError(f"{path}: expected a trailing {', '.join(trailing)} column")
        names = header[:width]
        for i, name in enumerate(names):
            if name not in by_name:
                raise ValueError(f"unknown column '{name}': no role declared for it")
            if name in names[:i]:
                raise ValueError(f"duplicate column '{name}' in file header")
        missing_cols = set(by_name) - set(names)
        if missing_cols:
            raise ValueError(f"declared columns missing from file: {sorted(missing_cols)}")
        specs = tuple(by_name[name] for name in names)

        limit = csv.field_size_limit()
        lines = (line if len(line) <= limit else "-\n" for line in fh)
        dtype = [("cells", np.float64, (width,)), ("ids", np.int64, (len(trailing),))]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                body = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1)
        except (ValueError, Warning):
            body = None
        if body is not None:
            cells, ids = body["cells"], body["ids"]
            finite = np.isfinite(cells).all(axis=1)
        if body is None or not (drop_missing or finite.all()):
            fh.seek(0)
            records = csv.reader(fh)
            next(records)
            cells, tails, row_nos = _read_rows(records, header, width, drop_missing)
            try:
                ids = np.array(tails, dtype=np.int64).reshape(len(row_nos), len(trailing))
            except OverflowError:
                i = next(i for i, v in enumerate(tails) if not -(2**63) <= v < 2**63)
                name = trailing[i % len(trailing)]
                raise ValueError(f"row {row_nos[i // len(trailing)]}, column '{name}': "
                                 "integer out of range") from None
            finite = np.isfinite(cells).all(axis=1)
    if not finite.all():
        if not drop_missing:
            i = int(np.argmin(finite))
            name = header[int(np.argmin(np.isfinite(cells[i])))]
            raise ValueError(f"row {row_nos[i]}, column '{name}': non-finite cell")
        cells, ids = cells[finite], ids[finite]
    if not len(cells):
        raise ValueError(f"{path}: no usable rows after parsing")
    return specs, np.ascontiguousarray(cells), np.ascontiguousarray(ids)


def _read_rows(records, header: list[str], width: int, drop_missing: bool):
    """Row-by-row parse of a body's csv records, numbered from 1: blank rows
    are skipped, a wrong cell count is an error, and a row that fails the
    whole-row float/int parse is parsed cell by cell, then dropped
    (drop_missing) or reported with its row and column. Returns the kept
    rows' cells as a float array, their trailing cells as a list of ints
    and their row numbers."""
    rows, tails, row_nos = [], [], []
    for row_no, raw in enumerate(records, start=1):
        if not "".join(raw).strip():
            continue
        if len(raw) != len(header):
            raise ValueError(f"row {row_no}: expected {len(header)} cells, got {len(raw)}")
        try:
            values = list(map(float, raw[:width]))
            tail = list(map(int, raw[width:]))
        except ValueError:
            try:
                values, tail = _parse_cells(header, raw, width)
            except ValueError as exc:
                if drop_missing:
                    continue
                raise ValueError(f"row {row_no}, {exc}") from None
        rows += values
        tails += tail
        row_nos.append(row_no)
    cells = np.array(rows, dtype=np.float64).reshape(len(row_nos), width)
    return cells, tails, row_nos


def _parse_cells(header: list[str], raw: list[str], width: int):
    """Cell-by-cell parse of a row the whole-row parse rejects: each cell
    is stripped first (str.strip also drops the \\x1c-\\x1f separators, which
    float rejects), and the first bad cell is named."""
    cells = []
    for i, (name, cell) in enumerate(zip(header, raw)):
        try:
            cells.append(float(cell.strip()) if i < width else int(cell.strip()))
        except ValueError:
            raise ValueError(f"column '{name}': missing or unparseable cell") from None
    return cells[:width], cells[width:]


def load_csv(
    path: Union[str, Path],
    roles: Sequence[AttributeSpec],
    drop_missing: bool = False,
) -> Table:
    """Load a UTF-8, comma-separated file with a header row into a Table.

    Every header column must have a declared role and vice versa; column order
    follows the file. Cells must parse as finite decimal reals. A row with a
    missing, unparseable or non-finite cell is dropped when drop_missing is
    set, otherwise it is an error naming the row and column.
    """
    specs, cells, _ = _read_csv(path, roles, (), drop_missing)
    return Table(specs, cells)


def load_anonymized_csv(path: Union[str, Path], roles: Sequence[AttributeSpec]) -> AnonymizedTable:
    """Load an anonymized release written by write_csv: the declared columns
    plus a trailing integer cluster_id column, read with load_csv's checks."""
    specs, cells, ids = _read_csv(path, roles, ("cluster_id",), False)
    return AnonymizedTable(Table(specs, cells), ids[:, 0])


def write_csv(data: Union[Table, AnonymizedTable], path: Union[str, Path]) -> None:
    """Write a table (or anonymized table, with a trailing cluster_id column)
    as UTF-8 CSV. Values round-trip through load_csv exactly.

    The body is written in blocks of _BLOCK rows with the bytes csv.writer
    gives: repr(float) never holds a comma, quote or line break, so no cell
    is quoted, and each line ends in csv.writer's "\\r\\n". A column of at
    most _BLOCK distinct values, such as a release's QI column, calls repr
    once per distinct value for the whole file; any other column once per
    cell."""
    if isinstance(data, AnonymizedTable):
        table, ids = data.table, data.cluster_ids
    else:
        table, ids = data, None
    header = [spec.name for spec in table.specs]
    if ids is not None:
        header.append("cluster_id")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        whole = [_few_distinct_reprs(table.rows[:, j]) for j in range(table.rows.shape[1])]
        for start in range(0, table.n, _BLOCK):
            block = table.rows[start:start + _BLOCK]
            columns = [
                map(repr, block[:, j].tolist()) if texts is None else texts[start:start + _BLOCK]
                for j, texts in enumerate(whole)
            ]
            if ids is not None:
                columns.append(map(str, ids[start:start + _BLOCK].tolist()))
            fh.write("\r\n".join(map(",".join, zip(*columns))) + "\r\n")


def _few_distinct_reprs(col: np.ndarray) -> Optional[np.ndarray]:
    """repr of every float in col as an object array, computed once per
    distinct bit pattern so -0.0 and 0.0 keep their own text, when col holds
    at most _BLOCK distinct bit patterns; else None. The first 2 * _BLOCK
    cells are tested before the whole column, so a column of mostly
    distinct values pays one small sort."""
    head = np.sort(col[:2 * _BLOCK].view(np.int64))
    if np.count_nonzero(head[1:] != head[:-1]) >= _BLOCK:
        return None
    bits, inverse = np.unique(col.view(np.int64), return_inverse=True)
    if bits.size > _BLOCK:
        return None
    return np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)[inverse]


# lognormal sigma of the synthetic QI marginals: the heavy right tail typical
# of income-like magnitudes
_SYNTH_SKEW = 1.5
# every synthetic column is affine-mapped onto this range
_SYNTH_RANGE = (0.0, 100000.0)


@dataclass(frozen=True)
class SynthConfig:
    """Parameters for the seeded synthetic surrogate generator.

    target_correlation is the Pearson correlation between the confidential
    attribute and the standardized mean of the standardized QI columns.
    """

    n: int
    qi_count: int
    target_correlation: float
    seed: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if self.qi_count < 1:
            raise ValueError("qi_count must be at least 1")
        if not abs(self.target_correlation) <= 1.0:
            raise ValueError("target correlation must lie in [-1, 1]")


def _standardize(x: np.ndarray) -> np.ndarray:
    sd = x.std()
    if sd == 0.0:
        return np.zeros_like(x)
    return (x - x.mean()) / sd


def qi_mix(qi_matrix: np.ndarray) -> np.ndarray:
    """Standardized equal-weight combination of the standardized QI columns,
    the reference direction for the generator's target correlation."""
    cols = np.column_stack([_standardize(qi_matrix[:, j]) for j in range(qi_matrix.shape[1])])
    return _standardize(cols.mean(axis=1))


def _affine_to_range(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    span = x.max() - x.min()
    if span == 0.0:
        return np.full_like(x, lo)
    return lo + (x - x.min()) * (hi - lo) / span


def synth_generate(cfg: SynthConfig) -> Table:
    """Deterministic synthetic table: QI columns are lognormal latent draws
    and the confidential column is
    target_correlation * mix + sqrt(1 - rho^2) * noise, with the noise
    orthogonalized against the mix so the achieved correlation matches the
    target exactly; every column is then affine-mapped to _SYNTH_RANGE."""
    rng = np.random.default_rng(cfg.seed)
    z = np.exp(_SYNTH_SKEW * rng.standard_normal((cfg.n, cfg.qi_count)))
    raw_noise = rng.standard_normal(cfg.n)

    mix = qi_mix(z)
    noise = raw_noise - raw_noise.mean()
    noise = noise - (noise @ mix / cfg.n) * mix
    noise = _standardize(noise)

    rho = cfg.target_correlation
    conf = rho * mix + math.sqrt(max(0.0, 1.0 - rho * rho)) * noise

    columns = [_affine_to_range(z[:, j], *_SYNTH_RANGE) for j in range(cfg.qi_count)]
    columns.append(_affine_to_range(conf, *_SYNTH_RANGE))

    specs = tuple(
        AttributeSpec(f"qi{j + 1}", Role.QUASI_IDENTIFIER) for j in range(cfg.qi_count)
    ) + (AttributeSpec("conf", Role.CONFIDENTIAL),)
    return Table(specs, np.column_stack(columns))


def achieved_correlation(table: Table) -> float:
    """Pearson correlation between the confidential attribute and the
    standardized QI mix, the quantity synth_generate targets."""
    mix = qi_mix(table.qi_matrix())
    conf = _standardize(table.confidential_column())
    if not mix.any() or not conf.any():
        return 0.0
    return float(mix @ conf / table.n)
