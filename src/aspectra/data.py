"""Numeric tables, aspect partitions and reproducible random streams.

All datasets are dense float64 matrices with named columns. Missing values,
infinities and non-numeric cells are rejected at ingestion; callers must
pre-encode categorical data. Tables the package derives from an already
validated table's values and columns (such as a block-permuted copy) are not
scanned again.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AspectraError,
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


def _rekey(bitgen: np.random.Philox, seed: int, stream_id: int) -> None:
    """Put a Philox in the state `RngStream(seed, stream_id).generator()` starts in.

    Philox is counter-based: its key, a zero counter and an empty buffer
    (with no cached 32-bit half) are the whole state of a new one, so a
    Generator over the re-keyed Philox draws what a new generator draws,
    whatever was drawn from it before.
    """
    zeros = np.zeros(4, dtype=np.uint64)
    bitgen.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": zeros,
            "key": np.array([seed & _MASK64, stream_id & _MASK64], dtype=np.uint64),
        },
        "buffer": zeros,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


# a member set's 64-bit fingerprint folds its sorted column indices into
# this start value; the empty set's key
_MEMBER_KEY_START = 0x5D0_F00D


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

        `column_names` is that table's names tuple and `values` a
        C-contiguous float64 array of at least one row and p columns holding
        only finite values already validated: that table's own values, such
        as a stack of its unpermuted and permuted copies or its sampled rows,
        or those rows with some cells replaced by an `Observation` of the
        same width, as in a local design's modified rows. Every check above
        then already holds. It is made read-only in place; a view keeps its
        base array writable, so the caller may rewrite a reused buffer once
        the table is out of use.
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
    def from_name_dict(mapping, table: NumericTable) -> "AspectPartition":
        """Build a partition from {group name: [column names]}."""
        if not isinstance(mapping, dict):
            raise AspectraError(
                f"groups must map group names to column names, got {type(mapping).__name__}"
            )
        groups = []
        for gname, cols in mapping.items():
            if isinstance(cols, str):
                cols = [cols]
            if not isinstance(cols, (list, tuple)):
                raise AspectraError(
                    f"group {gname!r} must be a column name or a list of them, got {cols!r}"
                )
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


def _typed(value, kind, expected: str):
    """`value` for a document reader if it has the JSON type `kind`, else TypeError.

    `expected` names the type in the message. A bool passes only as bool:
    JSON's true is no number.
    """
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
        raise TypeError(f"expected {expected}, got {value!r}")
    return value


def _finite_float(value) -> float:
    """A JSON number as a float for a document reader; another type raises
    TypeError, and NaN, an infinity or an integer past the float range ValueError."""
    try:
        x = float(_typed(value, (int, float), "a number"))
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ValueError(f"non-finite number {x!r}")
    return x


def _json_text(doc) -> str:
    """A result document as indented JSON; NaN or an infinity raises AspectraError.

    The standard has no token for either, and a reader may reject one.
    """
    try:
        return json.dumps(doc, indent=2, allow_nan=False)
    except ValueError as e:
        raise AspectraError(f"cannot write a non-finite number to a JSON document: {e}") from None


def _tsv_number(x) -> str:
    """A TSV document's number as its repr; NaN or an infinity raises
    AspectraError, as in a JSON document (see _json_text)."""
    if isinstance(x, float) and not math.isfinite(x):
        raise AspectraError(f"cannot write a non-finite number to a TSV document: {x!r}")
    return repr(x)


def _integer_fields(config, names, optional=()) -> None:
    """Check that the named fields of a frozen config are integers.

    The `optional` fields may also be None. Python and numpy integers pass
    and are stored as int, so a document records them as JSON numbers; a
    bool, a float or anything else raises AspectraError.
    """
    for name in (*names, *optional):
        value = getattr(config, name)
        if value is None and name in optional:
            continue
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise AspectraError(f"{name} must be an integer, got {value!r}")
        object.__setattr__(config, name, int(value))


def _check_tsv_names(groups) -> None:
    """Reject names a TSV document cannot hold, before any of it is written.

    `groups` yields (group name, member column names) pairs. A tab, CR or LF
    in any name would split a field or a line, and a comma in a member name
    would read as a second member of the comma-joined members field; each
    raises AspectraError. JSON output holds any name.
    """
    for name, members in groups:
        for text in (name, *members):
            if any(c in text for c in "\t\r\n"):
                raise AspectraError(f"name {text!r} holds a tab or line break; TSV cannot hold it")
        for member in members:
            if "," in member:
                raise AspectraError(
                    f"column name {member!r} holds a comma, which separates TSV members"
                )


def load_table(path, target: str | None = None):
    """Read a comma-delimited UTF-8 text file with a header row.

    Returns (NumericTable, target vector or None). When `target` names a
    column, that column is split out as a float vector and excluded from
    the table. A leading byte-order mark is skipped, so it does not become
    part of the first column's name.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
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


def sampled_row_ids(table: NumericTable, N: int, rng: RngStream) -> np.ndarray:
    """Draw N row indices uniformly with replacement; deterministic given rng."""
    if N < 1:
        raise EmptyTable(f"cannot sample {N} rows")
    return rng.generator().integers(0, table.n, size=N)
