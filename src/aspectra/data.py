"""Numeric tables, aspect partitions and reproducible random streams.

All datasets are dense float64 matrices with named columns. Missing values,
infinities and non-numeric cells are rejected at ingestion; callers must
pre-encode categorical data. Tables the package derives from an already
validated table's values and columns (such as a block-permuted copy) are not
scanned again.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadIndex,
    DuplicateColumn,
    EmptyGroup,
    EmptyTable,
    MissingTarget,
    NonNumericCell,
    NotCovering,
    OverlappingGroups,
    UnknownColumn,
)

_MASK64 = (1 << 64) - 1


def _mix64(z: int) -> int:
    # splitmix64 finalizer; bijective on 64-bit ints
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream identified by (seed, stream_id).

    Identical (seed, stream_id) pairs produce identical draw sequences on
    every platform (Philox is counter-based and numpy's Generator methods
    are bit-reproducible). Derive one child stream per logical task so
    results never depend on evaluation order.
    """

    seed: int
    stream_id: int = 0

    def child(self, *keys: int) -> "RngStream":
        """Derive a sub-stream by folding integer keys into the stream id."""
        sid = self.stream_id & _MASK64
        for k in keys:
            sid = _mix64(sid ^ _mix64(k & _MASK64))
        return RngStream(self.seed, sid)

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def member_set_key(members) -> int:
    """Order-independent 64-bit fingerprint of a set of column indices.

    Used to derive permutation sub-streams from the set being permuted, so
    the same member set always sees the same stream regardless of where it
    appears (partition group, tree node, or the all-columns baseline).
    """
    h = 0x5D0_F00D
    for i in sorted(int(j) for j in members):
        h = _mix64(h ^ _mix64(i))
    return h


class NumericTable:
    """Immutable n x p matrix of finite reals with unique column names."""

    __slots__ = ("column_names", "values")

    def __init__(self, column_names, values):
        names = [str(c) for c in column_names]
        vals = np.ascontiguousarray(values, dtype=np.float64)
        if vals.ndim != 2 or vals.shape[0] < 1 or vals.shape[1] < 1:
            raise EmptyTable(f"expected a non-empty 2-d matrix, got shape {vals.shape}")
        if vals.shape[1] != len(names):
            raise EmptyTable(
                f"{len(names)} column names for {vals.shape[1]} columns"
            )
        seen = set()
        for name in names:
            if name in seen:
                raise DuplicateColumn(name)
            seen.add(name)
        if not np.all(np.isfinite(vals)):
            bad = np.argwhere(~np.isfinite(vals))[0]
            raise NonNumericCell(int(bad[0]) + 1, names[int(bad[1])], str(vals[bad[0], bad[1]]))
        vals.setflags(write=False)
        object.__setattr__(self, "column_names", tuple(names))
        object.__setattr__(self, "values", vals)

    @classmethod
    def _from_validated(cls, column_names: tuple, values: np.ndarray) -> "NumericTable":
        """Wrap values derived from a validated table, skipping the checks.

        `column_names` is that table's names tuple and `values` a fresh
        C-contiguous float64 array of at least one row holding only that
        table's values, so every check above already holds. It is made
        read-only in place.
        """
        table = object.__new__(cls)
        values.setflags(write=False)
        object.__setattr__(table, "column_names", column_names)
        object.__setattr__(table, "values", values)
        return table

    def __setattr__(self, name, value):
        raise AttributeError("NumericTable is immutable")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]

    def column_index(self, name: str) -> int:
        try:
            return self.column_names.index(name)
        except ValueError:
            raise UnknownColumn(name) from None

    def take_rows(self, indices) -> "NumericTable":
        return NumericTable(self.column_names, self.values[np.asarray(indices, dtype=np.intp)])

    def with_values(self, values) -> "NumericTable":
        return NumericTable(self.column_names, values)

    def row(self, i: int) -> "Observation":
        return Observation(self.values[i].copy())

    def __eq__(self, other):
        return (
            isinstance(other, NumericTable)
            and self.column_names == other.column_names
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self):
        return f"NumericTable(n={self.n}, p={self.p}, columns={self.column_names})"


@dataclass(frozen=True)
class Observation:
    """A single length-p row vector aligned to a table's columns."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if not np.all(np.isfinite(vals)):
            bad = int(np.flatnonzero(~np.isfinite(vals))[0])
            raise NonNumericCell(1, str(bad), "non-finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def p(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class AspectPartition:
    """Named, disjoint groups of 0-based column indices covering {0..p-1}."""

    groups: tuple = field(default_factory=tuple)  # tuple of (name, tuple of indices)

    def __post_init__(self):
        norm = []
        names = set()
        for name, members in self.groups:
            name = str(name)
            if name in names:
                raise DuplicateColumn(f"group name {name}")
            names.add(name)
            norm.append((name, tuple(sorted(int(i) for i in members))))
        object.__setattr__(self, "groups", tuple(norm))

    @property
    def m(self) -> int:
        return len(self.groups)

    @property
    def names(self):
        return tuple(name for name, _ in self.groups)

    @property
    def member_sets(self):
        return tuple(members for _, members in self.groups)

    @staticmethod
    def singletons(column_names) -> "AspectPartition":
        return AspectPartition(tuple((name, (j,)) for j, name in enumerate(column_names)))

    @staticmethod
    def from_name_dict(mapping, table: NumericTable) -> "AspectPartition":
        """Build a partition from {group name: [column names]}."""
        groups = []
        for gname, cols in mapping.items():
            if isinstance(cols, str):
                cols = [cols]
            groups.append((gname, tuple(table.column_index(c) for c in cols)))
        part = AspectPartition(tuple(groups))
        validate_partition(part, table.p)
        return part

    def to_name_dict(self, column_names) -> dict:
        return {name: [column_names[i] for i in members] for name, members in self.groups}


def validate_partition(partition: AspectPartition, p: int) -> None:
    """Check that the groups form a partition of {0..p-1}; raise otherwise."""
    seen = {}
    overlap = set()
    for name, members in partition.groups:
        if len(members) == 0:
            raise EmptyGroup(name)
        for i in members:
            if i < 0 or i >= p:
                raise BadIndex(i, p)
            if i in seen:
                overlap.add(i)
            seen[i] = name
    if overlap:
        raise OverlappingGroups(overlap)
    missing = set(range(p)) - set(seen)
    if missing:
        raise NotCovering(missing)


def load_table(path, target: str | None = None):
    """Read a comma-delimited text file with a header row.

    Returns (NumericTable, target vector or None). When `target` names a
    column, that column is split out as a float vector and excluded from
    the table.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyTable("file has no header row") from None
        header = [h.strip() for h in header]
        seen = set()
        for name in header:
            if name in seen:
                raise DuplicateColumn(name)
            seen.add(name)
        rows = []
        for rownum, rec in enumerate(reader, start=1):
            if not rec:
                continue
            if len(rec) != len(header):
                raise NonNumericCell(rownum, header[min(len(rec), len(header)) - 1], "wrong field count")
            parsed = []
            for name, cell in zip(header, rec):
                try:
                    v = float(cell)
                except ValueError:
                    raise NonNumericCell(rownum, name, cell) from None
                if not math.isfinite(v):
                    raise NonNumericCell(rownum, name, cell)
                parsed.append(v)
            rows.append(parsed)
    if not rows or not header:
        raise EmptyTable()
    values = np.array(rows, dtype=np.float64)
    y = None
    if target is not None:
        if target not in header:
            raise MissingTarget(target)
        ti = header.index(target)
        y = values[:, ti].copy()
        values = np.delete(values, ti, axis=1)
        header = [h for h in header if h != target]
        if not header:
            raise EmptyTable("no feature columns left after removing the target")
    return NumericTable(header, values), y


def save_table(table: NumericTable, path, target_name: str | None = None, target=None) -> None:
    """Write the table in the same dialect load_table reads.

    Floats are written with 17 significant digits so load(save(t)) round
    trips every float64 exactly.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = list(table.column_names)
    if target_name is not None:
        header.append(target_name)
    writer.writerow(header)
    for i in range(table.n):
        rec = [f"{v:.17g}" for v in table.values[i]]
        if target_name is not None:
            rec.append(f"{target[i]:.17g}")
        writer.writerow(rec)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(buf.getvalue())


def sampled_row_ids(table: NumericTable, N: int, rng: RngStream) -> np.ndarray:
    """Draw N row indices uniformly with replacement; deterministic given rng."""
    if N < 1:
        raise EmptyTable(f"cannot sample {N} rows")
    return rng.generator().integers(0, table.n, size=N)
