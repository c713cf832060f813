"""Permutation-based importance for variables and variable groups.

A group's importance is the mean loss after block-permuting the group minus
the unpermuted loss. Block permutation applies one shared row shuffle to all
columns of the group, so within-group joint structure is preserved while the
group's association with everything else is broken. The baseline permutes all
columns jointly; with the full-member group it is the same permutation stream,
so full-group importance equals baseline_loss - full_model_loss exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .data import (
    AspectPartition,
    NumericTable,
    RngStream,
    member_set_key,
    validate_partition,
)
from .errors import AspectraError, BadIndex, EmptyGroup, LengthMismatch
from .models import LOSS_KINDS, ModelAdapter, loss, predict

_K_SUBSAMPLE = 0x5AB5
_K_PERM = 0x9E47


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
        lines = [
            f"# full_model_loss\t{self.full_model_loss!r}",
            f"# baseline_loss\t{self.baseline_loss!r}",
        ]
        for k, v in self.metadata.items():
            lines.append(f"# {k}\t{v}")
        lines.append("group\tmembers\timportance\tmean_permuted_loss")
        for g in self.groups:
            names = ",".join(self.column_names[i] for i in g.members)
            lines.append(f"{g.name}\t{names}\t{g.importance!r}\t{g.mean_permuted_loss!r}")
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
        return json.dumps(self.to_json_doc(), indent=2)


def permutation_stream(seed: int, members, rep: int) -> RngStream:
    """The sub-stream used for repetition `rep` of permuting `members`.

    Derived from a fingerprint of the member set, not its position in the
    partition, so identical sets always shuffle identically under one seed.
    """
    return RngStream(seed).child(_K_PERM, member_set_key(members), rep)


def permute_group(table: NumericTable, group, rng: RngStream) -> NumericTable:
    """Apply one shared row permutation to every column in the group.

    The result holds only the input's values under its column names, so it
    shares the input's validation and is not scanned again.
    """
    members = sorted(int(i) for i in group)
    if not members:
        raise EmptyGroup("<anonymous>")
    for i in members:
        if i < 0 or i >= table.p:
            raise BadIndex(i, table.p)
    perm = rng.generator().permutation(table.n)
    values = table.values.copy()
    values[:, members] = table.values[:, members][perm]
    return NumericTable._from_validated(table.column_names, values)


class ImportanceContext:
    """Shared subsample plus per-member-set permutation streams.

    One context per call keeps every group, repetition and the baseline on
    the same rows, so level-to-level comparisons are paired. Member sets are
    cached by value; asking for the same set twice returns the same floats.
    """

    def __init__(self, model: ModelAdapter, table: NumericTable, y, cfg: PermutationConfig):
        y = np.asarray(y, dtype=np.float64).reshape(-1)
        if y.shape[0] != table.n:
            raise LengthMismatch(table.n, y.shape[0])
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
        self.full_model_loss = loss(cfg.loss, self.y, predict(model, self.table))
        self._cache = {}

    def mean_permuted_loss(self, members) -> float:
        key = frozenset(int(i) for i in members)
        if key in self._cache:
            return self._cache[key]
        if not key:
            result = self.full_model_loss
        else:
            per_rep = np.empty(self.cfg.B)
            for b in range(self.cfg.B):
                stream = permutation_stream(self.cfg.seed, key, b)
                permuted = permute_group(self.table, key, stream)
                per_rep[b] = loss(self.cfg.loss, self.y, predict(self.model, permuted))
            result = float(np.mean(per_rep))
        self._cache[key] = result
        return result

    def importance(self, members) -> float:
        return self.mean_permuted_loss(members) - self.full_model_loss

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
    rows = []
    for name, members in groups.groups:
        mean_loss = ctx.mean_permuted_loss(members)
        rows.append(
            GroupImportanceRow(name, members, mean_loss, mean_loss - ctx.full_model_loss)
        )
    return GlobalImportance(
        groups=tuple(rows),
        full_model_loss=ctx.full_model_loss,
        baseline_loss=ctx.baseline_loss,
        column_names=tuple(table.column_names),
        metadata={"loss": cfg.loss, "B": cfg.B, "N": cfg.N, "seed": cfg.seed},
    )
