"""Permutation-based importance for variables and variable groups.

A group's importance is the mean loss after block-permuting the group minus
the unpermuted loss. Block permutation applies one shared row shuffle to all
columns of the group, so within-group joint structure is preserved while the
group's association with everything else is broken. The baseline permutes all
columns jointly; with the full-member group it is the same permutation stream,
so full-group importance equals baseline_loss - full_model_loss exactly.

`ImportanceContext.mean_permuted_losses` is the query: it takes a list of
member sets and returns their mean permuted losses in order, scoring every
set not cached yet in one pass; `mean_permuted_loss` is its one-set case.

Scoring is batched. Every (member set, repetition) job gets its own
permuted copy of the table, and copies are stacked into one `predict` call
of up to _BATCH_VALUES (2**19) values, in a buffer reused across calls. The
unpermuted table is one more job, first in the first call, so one batch may
hold it as well as permuted copies. Per-set work is done once per scorer
call: each member set is checked once, before any model call, and its
stream id derived once. Each job re-keys the call's one Philox to its
stream instead of building a generator, and each call's losses are taken
row-wise at once; streams and losses are bit-identical to a new generator
per job on the stream that `_PermutationStreams` describes, and to
`models.loss` per job.
This rests on the model contract in `models.ModelAdapter`: a row's
prediction must not depend on the other rows in the batch, and a model must
neither keep nor write to the table it is given. Under that contract the
losses equal those of scoring each copy alone, bit for bit; `LinearModel`'s
BLAS product is the known exception where OpenBLAS splits a large product
across threads (see its docstring).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import (
    _MEMBER_KEY_START,
    AspectPartition,
    NumericTable,
    RngStream,
    _check_tsv_names,
    _integer_fields,
    _json_text,
    _mix64,
    _rekey,
    _tsv_number,
    validate_partition,
)
from .errors import AspectraError, BadIndex, EmptyGroup
from .models import LOSS_KINDS, ModelAdapter, _finite_losses, _finite_targets, _row_losses, predict

_K_SUBSAMPLE = 0x5AB5
_K_PERM = 0x9E47

# at most this many values (rows x columns) of permuted tables per model call
_BATCH_VALUES = 1 << 19

# the unpermuted table's job writes back no columns
_NO_MEMBERS = np.empty(0, dtype=np.intp)


@dataclass(frozen=True)
class PermutationConfig:
    """Loss is explicit by design; B repetitions re-permute a fixed subsample."""

    loss: str
    B: int = 1
    N: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.loss not in LOSS_KINDS:
            raise AspectraError(f"loss must be one of {LOSS_KINDS}, got {self.loss!r}")
        _integer_fields(self, ("B", "seed"), optional=("N",))
        if self.B < 1:
            raise AspectraError(f"B must be >= 1, got {self.B}")
        if self.N is not None and self.N < 1:
            raise AspectraError(f"N must be >= 1, got {self.N}")


@dataclass(frozen=True)
class GroupImportanceRow:
    name: str
    members: tuple  # column indices
    mean_permuted_loss: float
    importance: float


@dataclass(frozen=True)
class GlobalImportance:
    groups: tuple  # tuple of GroupImportanceRow
    full_model_loss: float
    baseline_loss: float
    column_names: tuple
    metadata: dict = field(default_factory=dict)

    def to_tsv(self) -> str:
        _check_tsv_names(
            (g.name, [self.column_names[i] for i in g.members]) for g in self.groups
        )
        num = _tsv_number
        lines = [
            f"# full_model_loss\t{num(self.full_model_loss)}",
            f"# baseline_loss\t{num(self.baseline_loss)}",
        ]
        for k, v in self.metadata.items():
            lines.append(f"# {k}\t{v}")
        lines.append("group\tmembers\timportance\tmean_permuted_loss")
        for g in self.groups:
            names = ",".join(self.column_names[i] for i in g.members)
            lines.append(f"{g.name}\t{names}\t{num(g.importance)}\t{num(g.mean_permuted_loss)}")
        return "\n".join(lines) + "\n"

    def to_json_doc(self) -> dict:
        return {
            "groups": [
                {
                    "name": g.name,
                    "members": [self.column_names[i] for i in g.members],
                    "importance": g.importance,
                    "mean_permuted_loss": g.mean_permuted_loss,
                }
                for g in self.groups
            ],
            "full_model_loss": self.full_model_loss,
            "baseline_loss": self.baseline_loss,
            "metadata": dict(self.metadata),
        }

    def to_json(self) -> str:
        return _json_text(self.to_json_doc())


def _checked_members(group, p: int) -> np.ndarray:
    """The group's column indices, sorted and checked against p."""
    members = sorted(int(i) for i in group)
    if not members:
        raise EmptyGroup("<anonymous>")
    for i in members:
        if i < 0 or i >= p:
            raise BadIndex(i, p)
    return np.array(members, dtype=np.intp)


def permute_group(
    table: NumericTable, members: np.ndarray, gen: np.random.Generator, out: np.ndarray
) -> None:
    """Apply one shared row permutation, drawn from `gen`, to the group's columns.

    `members` holds the group's sorted, checked column indices, as
    `_checked_members` returns them; the scorer checks each member set once
    per call, so they are not checked again here. `gen` is the scorer's one
    generator, whose Philox is re-keyed to the job's stream (see
    `_PermutationStreams`) before each call. `out` is an n x p array
    already holding the table's values; only the group's columns are
    written there.
    """
    perm = gen.permutation(table.n)
    out[:, members] = table.values[:, members][perm]


class _PermutationStreams:
    """The permutation stream of every job of one scorer call.

    Repetition b of permuting a member set draws from
    `RngStream(seed).child(_K_PERM, key, b)`, where the set's 64-bit key
    folds its sorted column indices into `_MEMBER_KEY_START`. The key
    depends on the set, not on its place in a partition, so one set always
    shuffles the same way under one seed. The tests keep that derivation
    as the oracle `permutation_stream` (tests/conftest.py).

    The stream ids equal the oracle's, bit for bit, derived in parts: the
    seed's `_K_PERM` child once per call, `_mix64` of each column index and
    of each repetition once per call, the member-set key and its fold into
    the child once per set, and the repetition once per job. One Philox,
    re-keyed per job, draws every job's permutation.
    """

    def __init__(self, seed: int, p: int, B: int):
        self._seed = seed
        self._base = RngStream(seed).child(_K_PERM).stream_id
        self._mixed_columns = [_mix64(i) for i in range(p)]
        self._mixed_reps = [_mix64(b) for b in range(B)]
        self._bitgen = np.random.Philox(0)  # re-keyed before every draw
        self._gen = np.random.Generator(self._bitgen)

    def set_id(self, members: np.ndarray) -> int:
        """The stream id shared by a checked member set's repetitions."""
        h = _MEMBER_KEY_START
        for i in members.tolist():
            h = _mix64(h ^ self._mixed_columns[i])
        return _mix64(self._base ^ _mix64(h))

    def generator(self, set_id: int, b: int) -> np.random.Generator:
        """The one generator, re-keyed to repetition b of the set's stream."""
        _rekey(self._bitgen, self._seed, _mix64(set_id ^ self._mixed_reps[b]))
        return self._gen


class ImportanceContext:
    """Shared subsample plus per-member-set permutation streams.

    One context per call keeps every group, repetition and the baseline on
    the same rows, so level-to-level comparisons are paired. Member sets are
    cached by value; asking for the same set twice returns the same floats.
    The empty set is the unpermuted table, whose loss is the full model's.
    """

    def __init__(self, model: ModelAdapter, table: NumericTable, y, cfg: PermutationConfig):
        y = _finite_targets(y, table.n)
        self.cfg = cfg
        base = RngStream(cfg.seed)
        if cfg.N is not None and cfg.N < table.n:
            idx = base.child(_K_SUBSAMPLE).generator().choice(table.n, size=cfg.N, replace=False)
            self.table = table.take_rows(idx)
            self.y = y[idx]
        else:
            self.table = table
            self.y = y
        self.model = model
        self._cache = {}

    @property
    def full_model_loss(self) -> float:
        return self.mean_permuted_loss(())

    def mean_permuted_loss(self, members) -> float:
        return self.mean_permuted_losses([members])[0]

    def mean_permuted_losses(self, member_sets) -> list:
        """The mean permuted loss of each member set, in order.

        The sets not cached yet are scored together, in one pass of batched
        model calls with the unpermuted table first.
        """
        keys = [frozenset(int(i) for i in members) for members in member_sets]
        self._score(keys)
        return [self._cache[key] for key in keys]

    def _score(self, keys) -> None:
        """Cache the mean permuted loss of every member set (a frozenset of
        column indices) not cached yet.

        Every set is checked once, before the first model call, and its
        stream id derived once. Each (set, repetition) job permutes its
        group's columns into its own n-row slot of one buffer of tiled
        copies of the table; a model call scores as many slots as
        _BATCH_VALUES allows, the call's losses are taken row-wise at once,
        and then the group's columns are written back from the table. The
        empty set, the unpermuted table, goes first as a single job whose
        slot keeps the tiled values.
        """
        jobs, members_of = [], {}
        for key in [frozenset(), *keys]:
            if key in self._cache or key in members_of:
                continue
            members_of[key] = _checked_members(key, self.table.p) if key else _NO_MEMBERS
            jobs += [(key, b) for b in range(self.cfg.B if key else 1)]
        if not jobs:
            return
        n, p = self.table.n, self.table.p
        values = self.table.values
        streams = _PermutationStreams(self.cfg.seed, p, self.cfg.B)
        set_ids = {key: streams.set_id(members) for key, members in members_of.items() if key}
        job_losses = np.empty(len(jobs))
        k = min(max(1, _BATCH_VALUES // (n * p)), len(jobs))
        buf = np.tile(values, (k, 1))
        for start in range(0, len(jobs), k):
            chunk = jobs[start:start + k]
            for slot, (key, b) in enumerate(chunk):
                if key:
                    gen = streams.generator(set_ids[key], b)
                    permute_group(self.table, members_of[key], gen, buf[slot * n:(slot + 1) * n])
            stacked = NumericTable._from_validated(
                self.table.column_names, buf[:len(chunk) * n]
            )
            yhat = predict(self.model, stacked).reshape(len(chunk), n)
            job_losses[start:start + len(chunk)] = _row_losses(self.cfg.loss, self.y, yhat)
            for slot, (key, _) in enumerate(chunk):
                members = members_of[key]
                buf[slot * n:(slot + 1) * n, members] = values[:, members]
        # each set's B jobs are adjacent, after the unpermuted table's one
        keys = list(members_of)
        if not keys[0]:
            self._cache[keys.pop(0)] = float(job_losses[0])
        per_set = job_losses[len(jobs) - len(keys) * self.cfg.B:].reshape(len(keys), self.cfg.B)
        with np.errstate(over="ignore"):  # B finite losses may sum past the float64 range
            means = np.mean(per_set, axis=1)
        self._cache.update(zip(keys, _finite_losses(self.cfg.loss, means).tolist()))

    @property
    def baseline_loss(self) -> float:
        return self.mean_permuted_loss(range(self.table.p))


def group_importance(
    model: ModelAdapter,
    table: NumericTable,
    y,
    groups: AspectPartition,
    cfg: PermutationConfig,
) -> GlobalImportance:
    """Block-permutation importance of every group in the partition."""
    validate_partition(groups, table.p)
    ctx = ImportanceContext(model, table, y, cfg)
    full, *losses, baseline = ctx.mean_permuted_losses([(), *groups.member_sets, range(table.p)])
    rows = tuple(
        GroupImportanceRow(name, members, mean_loss, mean_loss - full)
        for (name, members), mean_loss in zip(groups.groups, losses)
    )
    return GlobalImportance(
        groups=rows,
        full_model_loss=full,
        baseline_loss=baseline,
        column_names=tuple(table.column_names),
        metadata={"loss": cfg.loss, "B": cfg.B, "N": cfg.N, "seed": cfg.seed},
    )
