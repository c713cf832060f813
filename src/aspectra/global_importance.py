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

Scoring is batched. The unpermuted table, first, and every (member set,
repetition) pair are n-row jobs of one stacked table, and
`models._stacked_predictions` scores them in calls of whole jobs,
_BATCH_VALUES // (n p) of them (at least one) to a call. Each job of a call
permutes its group's columns into its own slot of a buffer of tiled copies
of the table. The all-columns set, the baseline's, is no job: permuting
every column reorders the table's rows, so each repetition's loss comes
from the unpermuted table's predictions f(X), kept on the context,
reordered by the same permutation.
A member set is checked once, where it enters, before any model call (a
caller's by `mean_permuted_losses`, a partition's by `validate_partition`;
a tree is built checked); past that it is its sorted tuple of distinct
indices in [0, p), the cache's key. Its stream id is derived once, and the
one Philox is re-keyed to each job's stream right before its permutation is
drawn. Streams and losses are bit-identical to a new generator per job on
the stream that `_PermutationStreams` describes, and, under the model
contract in `models.ModelAdapter`, to `models.loss` on each copy alone;
`LinearModel`'s BLAS product is the known exception where OpenBLAS splits a
large product across threads (see its docstring).
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
    _choice,
    _column_ids,
    _instance,
    _integer_fields,
    _json_text,
    _members,
    _mix64,
    _rekey,
    _tsv_number,
    validate_partition,
)
from .errors import AspectraError
from .models import (LOSS_KINDS, ModelAdapter, _finite_losses, _finite_targets, _row_losses,
                     _stacked_predictions)

_K_SUBSAMPLE = 0x5AB5
_K_PERM = 0x9E47

# at most this many values (rows x columns) of permuted tables per model call
_BATCH_VALUES = 1 << 19


@dataclass(frozen=True)
class PermutationConfig:
    """Loss is explicit by design; B repetitions re-permute a fixed subsample.

    `loss` is one of `models.LOSS_KINDS`; B >= 1, seed and N >= 1 (None for
    every row) are integers, stored as int; else the build raises AspectraError."""

    loss: str
    B: int = 1
    N: int | None = None
    seed: int = 0

    def __post_init__(self):
        _choice("loss", self.loss, LOSS_KINDS)
        _integer_fields(self, {"B": 1, "seed": None, "N": 1}, optional=("N",))


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


def _columns(members: np.ndarray):
    """A one-column group's index as an int, a basic index that moves the
    column without fancy indexing; any other group's sorted array."""
    return int(members[0]) if members.size == 1 else members


def permute_group(
    table: NumericTable, members: np.ndarray, gen: np.random.Generator, out: np.ndarray
) -> None:
    """Apply one shared row permutation, drawn from `gen`, to the group's columns.

    `members` holds a checked member set as an intp array (see the module
    docstring), not checked again here. `gen` is the scorer's one generator,
    whose Philox is re-keyed to the job's stream (see `_PermutationStreams`)
    before each call. `out` is an n x p array already holding the table's
    values; only the group's columns are written there.
    """
    perm = gen.permutation(table.n)
    columns = _columns(members)
    out[:, columns] = table.values[:, columns][perm]


class _PermutationStreams:
    """The permutation stream of every job of one scorer call.

    Repetition b of permuting a member set draws from
    `RngStream(seed).child(_K_PERM, key, b)`, where the set's 64-bit key
    folds its sorted column indices into `_MEMBER_KEY_START`. The key
    depends on the set, not on its place in a partition, so one set always
    shuffles the same way under one seed. The tests keep that derivation
    as the oracle `permutation_stream` (tests/conftest.py).

    The stream ids equal the oracle's, bit for bit, derived in parts: the
    seed's `_K_PERM` child and `_mix64` of each column index once per call,
    the member-set key and its fold into the child once per set, and the
    repetition's `_mix64` and its fold once per job, so no part grows with
    B. One Philox, re-keyed per job, draws every job's permutation.
    """

    def __init__(self, seed: int, p: int):
        self._seed = seed
        self._base = RngStream(seed).child(_K_PERM).stream_id
        self._mixed_columns = [_mix64(i) for i in range(p)]
        self._bitgen = np.random.Philox(0)  # re-keyed before every draw
        self._gen = np.random.Generator(self._bitgen)

    def set_id(self, members) -> int:
        """The stream id shared by a checked member set's repetitions."""
        h = _MEMBER_KEY_START
        for i in members:
            h = _mix64(h ^ self._mixed_columns[i])
        return _mix64(self._base ^ _mix64(h))

    def generator(self, set_id: int, b: int) -> np.random.Generator:
        """The one generator, re-keyed to repetition b of the set's stream."""
        _rekey(self._bitgen, self._seed, _mix64(set_id ^ _mix64(b)))
        return self._gen


class ImportanceContext:
    """Shared subsample plus per-member-set permutation streams.

    One context per call keeps every group, repetition and the baseline on
    the same rows, so level-to-level comparisons are paired. Member sets are
    cached by their checked tuple; the same set twice, in any order, returns
    the same floats. The empty set is the unpermuted table, the full model's.
    """

    def __init__(self, model: ModelAdapter, table: NumericTable, y, cfg: PermutationConfig):
        y = _finite_targets(y, _instance("table", table, NumericTable).n)
        self.cfg = _instance("cfg", cfg, PermutationConfig)
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
        self._predictions = None  # f(X) of the unpermuted table, once scored

    def mean_permuted_loss(self, members) -> float:
        return self.mean_permuted_losses([members])[0]

    def mean_permuted_losses(self, member_sets) -> list:
        """The mean permuted loss of each member set, in order.

        `member_sets` is a list or tuple of member sets, each checked as a
        partition's members are, and against p, before any model call. The
        sets not cached yet are scored together, in one pass of batched
        model calls with the unpermuted table first.
        """
        sets = [_members(m) for m in _instance("member sets", member_sets, (list, tuple))]
        return self._score([_column_ids(members, self.table.p) for members in sets])

    def _query(self, sets) -> tuple:
        """The full model's, each checked set's and the baseline's loss, in one pass."""
        full, *losses, baseline = self._score([(), *sets, tuple(range(self.table.p))])
        return full, losses, baseline

    def _score(self, keys) -> list:
        """The mean permuted loss of each checked member set, caching those not cached yet.

        Job j owns rows j*n ... (j + 1)*n - 1 of one stacked table: the
        unpermuted table is job 0 when it is not cached, then each set's B
        repetitions. A call's jobs are found from its rows, so B costs time
        and one loss per job, the first allocation B sizes. After each call
        its losses are taken row-wise at once, and each slot's group columns
        are written back; a one-column group moves through a basic column index.

        The all-columns set is no job (see the module docstring): under the
        row-independence contract of `models.ModelAdapter`, repetition b's
        loss is that of f(X)[perm], perm drawn from the set's stream as a
        job's would be. A pass left with no job makes no model call.
        """
        n, p, B = self.table.n, self.table.p, self.cfg.B
        full = () not in self._cache  # the unpermuted table, one job
        every = tuple(range(p))
        members_of = {key: np.array(key, dtype=np.intp) for key in dict.fromkeys(keys)
                      if key and key != every and key not in self._cache}
        reordered = every in keys and every not in self._cache
        if not (full or members_of or reordered):
            return [self._cache[key] for key in keys]
        values = self.table.values
        streams = _PermutationStreams(self.cfg.seed, p)
        sets = [(members, _columns(members), streams.set_id(key))
                for key, members in members_of.items()]
        jobs = full + B * len(sets)
        if 8 * (jobs + B * reordered) > np.iinfo(np.intp).max:
            raise AspectraError(f"B={B} permutations need arrays past numpy's size limit")
        # every job's loss, then the B losses of all columns, if asked
        job_losses = np.empty(jobs + B * reordered)

        def write(start, out):
            # the unpermuted table's slot keeps the tiled values
            for slot, job in enumerate(range(start // n, (start + out.shape[0]) // n)):
                if job >= full:
                    set_no, b = divmod(job - full, B)
                    members, _, set_id = sets[set_no]
                    permute_group(self.table, members, streams.generator(set_id, b),
                                  out[slot * n:(slot + 1) * n])

        if jobs:
            buf = np.tile(values, (min(max(1, _BATCH_VALUES // (n * p)), jobs), 1))
            for start, yhat in _stacked_predictions(self.model, self.table.column_names, buf,
                                                    n * jobs, write):
                first, k = start // n, yhat.shape[0] // n
                if first < full:
                    self._predictions = yhat[:n].copy()
                job_losses[first:first + k] = _row_losses(self.cfg.loss, self.y, yhat.reshape(k, n))
                for job in range(max(first, full), first + k):
                    columns = sets[(job - full) // B][1]
                    buf[(job - first) * n:(job - first + 1) * n, columns] = values[:, columns]
        if reordered:
            set_id = streams.set_id(every)
            for b in range(B):
                perm = streams.generator(set_id, b).permutation(n)
                job_losses[jobs + b] = _row_losses(self.cfg.loss, self.y,
                                                   self._predictions[perm].reshape(1, n))[0]
        if full:
            self._cache[()] = float(job_losses[0])
        # each set's B losses are adjacent, after the unpermuted table's one
        scored = [*members_of, every] if reordered else list(members_of)
        with np.errstate(over="ignore"):  # B finite losses may sum past the float64 range
            means = np.mean(job_losses[full:].reshape(len(scored), B), axis=1)
        self._cache.update(zip(scored, _finite_losses(self.cfg.loss, means).tolist()))
        return [self._cache[key] for key in keys]


def group_importance(
    model: ModelAdapter,
    table: NumericTable,
    y,
    groups: AspectPartition,
    cfg: PermutationConfig,
) -> GlobalImportance:
    """Block-permutation importance of every group in the partition; each
    argument is checked before any model call."""
    ctx = ImportanceContext(model, table, y, cfg)
    validate_partition(_instance("groups", groups, AspectPartition), table.p)
    full, losses, baseline = ctx._query(groups.member_sets)
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
