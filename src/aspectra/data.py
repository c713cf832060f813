"""Numeric tables, aspect partitions, reproducible random streams, and the
checkers (`_integer` to `_names`) of every value from outside the program:
public arguments and their elements at entry, and the fields of a result
document read back. A bad one raises AspectraError naming it.

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
import os
import sys
from collections import Counter
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
_FINITE = (-sys.float_info.max, sys.float_info.max)  # `_real`'s bounds that refuse NaN and inf


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
    whatever was drawn from it before. The state setter reads each word as
    a uint64, so tuples of Python ints serve and no array is built per call.
    """
    bitgen.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (seed & _MASK64, stream_id & _MASK64)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


# a member set's 64-bit fingerprint folds its sorted column indices into
# this start value; the empty set's key
_MEMBER_KEY_START = 0x5D0_F00D


class NumericTable:
    """Immutable n x p matrix of finite reals with unique column names.

    The table owns a read-only copy of the values it is given, so a later
    write to the caller's array changes neither the table nor what is
    derived from it. Derived data that depends on the values alone (each
    correlation matrix, each merge tree; see `cluster`) is computed on first
    request and kept in a private memo; a pickled or copied table is rebuilt
    from its names and values, with an empty memo.
    """

    __slots__ = ("column_names", "values", "_memo")

    def __init__(self, column_names, values):
        names = tuple(_names("column_names", column_names))
        vals = np.array(_reals("values", values), order="C")
        if vals.ndim != 2 or vals.shape[0] < 1 or vals.shape[1] < 1:
            raise EmptyTable(f"expected a non-empty 2-d matrix, got shape {vals.shape}")
        if vals.shape[1] != len(names):
            raise EmptyTable(
                f"{len(names)} column names for {vals.shape[1]} columns"
            )
        _unique(names, DuplicateColumn)
        if not np.all(np.isfinite(vals)):
            bad = np.argwhere(~np.isfinite(vals))[0]
            raise NonNumericCell(int(bad[0]) + 1, names[int(bad[1])], str(vals[bad[0], bad[1]]))
        vals.setflags(write=False)
        object.__setattr__(self, "column_names", names)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "_memo", {})

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
        the table is out of use. The values are not copied, and the table
        starts with an empty memo.
        """
        table = object.__new__(cls)
        values.setflags(write=False)
        object.__setattr__(table, "column_names", column_names)
        object.__setattr__(table, "values", values)
        object.__setattr__(table, "_memo", {})
        return table

    def __setattr__(self, name, value):
        raise AttributeError("NumericTable is immutable")

    def __reduce__(self):
        return NumericTable, (self.column_names, self.values)

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
        """The rows at `indices`, in order (see `_row_ids`)."""
        return NumericTable(self.column_names, self.values[_row_ids(indices, self.n)])

    def with_values(self, values) -> "NumericTable":
        return NumericTable(self.column_names, values)

    def row(self, i: int) -> "Observation":
        """Row i, a Python or numpy integer in [0, n)."""
        return Observation(self.values[_row_ids([i], self.n)[0]])

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
    """A single length-p row vector aligned to a table's columns; it holds a
    read-only copy of the values it is given, one row: an array with a
    dimension above 1 but its last raises AspectraError."""

    values: np.ndarray

    def __post_init__(self):
        vals = _reals("observation values", self.values)
        if any(d != 1 for d in vals.shape[:-1]):
            raise AspectraError(f"observation values must be one row, got shape {vals.shape}")
        vals = vals.reshape(-1).copy()
        if not np.all(np.isfinite(vals)):
            bad = int(np.flatnonzero(~np.isfinite(vals))[0])
            raise AspectraError(
                f"observation value {bad} is not a finite number: {float(vals[bad])!r}")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def p(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class AspectPartition:
    """Named, disjoint groups of 0-based column indices covering {0..p-1}.

    Each group is a (str name, members) pair, its members a list, tuple or
    range of integers; they are stored sorted, as a tuple of int."""

    groups: tuple = field(default_factory=tuple)  # tuple of (name, tuple of indices)

    def __post_init__(self):
        groups = _instance("groups", self.groups, (list, tuple))
        for group in groups:
            if not isinstance(group, (list, tuple)) or len(group) != 2:
                raise AspectraError(f"each group must be a (name, members) pair, got {group!r}")
        names = _names("group names", [name for name, _ in groups])
        _unique(names, lambda name: DuplicateColumn(f"group name {name}"))
        object.__setattr__(self, "groups", tuple(
            (name, tuple(sorted(_members(members))))
            for name, (_, members) in zip(names, groups)))

    @classmethod
    def _from_validated(cls, groups: tuple) -> "AspectPartition":
        """Wrap (name, sorted member tuple) pairs known to pass the checks, such as a tree's cut."""
        part = object.__new__(cls)
        object.__setattr__(part, "groups", groups)
        return part

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
        groups = []
        for gname, cols in _instance("groups", mapping, dict).items():
            cols = [cols] if isinstance(cols, str) else _instance(f"group {gname!r}", cols, (list, tuple))
            groups.append((gname, tuple(table.column_index(c) for c in cols)))
        part = AspectPartition(tuple(groups))
        validate_partition(part, table.p)
        return part

    def to_name_dict(self, column_names) -> dict:
        return {name: [column_names[i] for i in members] for name, members in self.groups}


def validate_partition(partition: AspectPartition, p: int) -> None:
    """Check that the groups form a partition of {0..p-1}; raise otherwise."""
    for name, members in partition.groups:
        ids = _column_ids(members, p)
        if not ids:
            raise EmptyGroup(name)
        if len(ids) < len(members):
            repeated = min(i for i, count in Counter(members).items() if count > 1)
            raise AspectraError(f"group {name!r} lists column index {repeated} more than once")
    counts = Counter(i for members in partition.member_sets for i in members)
    overlap = {i for i, count in counts.items() if count > 1}
    if overlap:
        raise OverlappingGroups(overlap)
    missing = set(range(p)) - set(counts)
    if missing:
        raise NotCovering(missing)


def _json_text(doc) -> str:
    """A result document as indented JSON; NaN or an infinity raises AspectraError.

    The standard has no token for either, and a reader may reject one.
    """
    try:
        return json.dumps(doc, indent=2, allow_nan=False)
    except ValueError as e:
        raise AspectraError(f"cannot write a non-finite number to a JSON document: {e}") from None


def _malformed(what: str, error: Exception) -> AspectraError:
    """A document reader's error for a missing field's KeyError or a checker's error."""
    reason = f"missing field {error}" if isinstance(error, KeyError) else str(error)
    return AspectraError(f"malformed {what}: {reason}")


def _tsv_number(x) -> str:
    """A TSV document's number as its repr; NaN or an infinity raises
    AspectraError, as in a JSON document (see _json_text)."""
    if isinstance(x, float) and not math.isfinite(x):
        raise AspectraError(f"cannot write a non-finite number to a TSV document: {x!r}")
    return repr(x)


def _integer_fields(config, lows: dict, optional=()) -> None:
    """Store the config fields that `lows` names as `_integer` gives them, each
    checked against its low bound there; the `optional` fields may be None."""
    for name, low in lows.items():
        value = getattr(config, name)
        if value is not None or name not in optional:
            object.__setattr__(config, name, _integer(name, value, low))


def _integer(name: str, value, low: int | None = None) -> int:
    """`value` as an int: a Python or numpy integer, at least `low` if given,
    passes; a bool, a float or anything else raises."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise AspectraError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise AspectraError(f"{name} must be >= {low}, got {value}")
    return int(value)


def _members(members) -> list:
    """A member set, a list, tuple or range of integer column indices, as ints."""
    return [_integer("member index", i)
            for i in _instance("group members", members, (list, tuple, range))]


def _column_ids(members, p: int) -> tuple:
    """Int column indices as a sorted tuple of distinct ones; BadIndex for the smallest
    outside [0, p). Every column-index range check is this one."""
    ids = sorted(set(members))
    if ids and (ids[0] < 0 or ids[-1] >= p):
        raise BadIndex(next(i for i in ids if not 0 <= i < p), p)
    return tuple(ids)


def _row_ids(indices, n: int) -> np.ndarray:
    """`indices` as an intp array of row indices: a 1-d integer array, checked
    at once, or a list, tuple or range of Python or numpy integers. Any other
    index, or one outside [0, n), raises AspectraError."""
    if isinstance(indices, np.ndarray) and indices.ndim == 1 and indices.dtype.kind in "iu":
        outside = indices[(indices < 0) | (indices >= n)]
    else:
        indices = [_integer("row index", i)
                   for i in _instance("row indices", indices, (list, tuple, range))]
        outside = [i for i in indices if not 0 <= i < n]
    if len(outside):
        raise AspectraError(f"row {outside[0]} out of range for {n} rows")
    return np.asarray(indices, dtype=np.intp)


def _real(name: str, value, low: float = -math.inf, high: float = math.inf) -> float:
    """`value` as a float, an integer past its range as an infinity; a bool,
    a str, anything else, NaN or a value outside [low, high] raises. Without
    bounds, NaN is reported as no real number, not as out of range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise AspectraError(f"{name} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf if value > 0 else -math.inf
    if math.isnan(x) and (low, high) == (-math.inf, math.inf):
        raise AspectraError(f"{name} must be a real number, got {x!r}")
    if not low <= x <= high:
        got = repr(value) if math.isfinite(x) else f"non-finite {x!r}"
        raise AspectraError(f"{name} must be in [{low:g}, {high:g}], got {got}")
    return x


def _choice(name: str, value, choices: tuple) -> None:
    """Raise unless `value` is one of the strings `choices`."""
    if not isinstance(value, str) or value not in choices:
        raise AspectraError(f"{name} must be one of {'|'.join(choices)}, got {value!r}")


def _instance(name: str, value, kind):
    """`value` if it is an instance of `kind`, a class or a tuple of them."""
    if not isinstance(value, kind):
        names = " or ".join(k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,)))
        raise AspectraError(f"{name} must be {names}, got {type(value).__name__}")
    return value


def _names(name: str, values):
    """`values` if it is a list or tuple of str; anything else raises."""
    for i, value in enumerate(_instance(name, values, (list, tuple))):
        if not isinstance(value, str):
            raise AspectraError(f"{name}[{i}] must be str, got {type(value).__name__}")
    return values


def _unique(values, error) -> None:
    """Raise error(value) for the first value that repeats an earlier one."""
    seen = set()
    for value in values:
        if value in seen:
            raise error(value)
        seen.add(value)


def _reals(name: str, values) -> np.ndarray:
    """`values` as a float64 array, the same array if it is one already; booleans and
    integers convert, and strings, complex numbers, objects or a ragged list raise."""
    try:
        array = np.asarray(values)
    except ValueError as e:  # a ragged list
        raise AspectraError(f"{name} are unreadable: {e}") from None
    if array.dtype.kind not in "biuf":
        raise AspectraError(f"{name} must be real numbers, got dtype {array.dtype}")
    return array.astype(np.float64, copy=False)


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
    with open(_instance("path", path, (str, os.PathLike)), encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyTable("file has no header row") from None
        header = [h.strip() for h in header]
        _unique(header, DuplicateColumn)
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
