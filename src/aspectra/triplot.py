"""Assemble leaf importances, merge-node importances and the clustering tree.

Global mode scores every tree node by block-permutation importance of its
member set; permuting a set needs no surrounding partition. Local mode walks
the coarsening trajectory the dendrogram defines: each merge step is scored
inside the tree-cut partition at that step, which partition_after_merges
gives, and all steps share one sampled row set so differences between levels
come from the grouping, not sampling. A modified row that several levels
draw is scored once, by the first of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .aspects import _DesignSampler, _fit_surrogate
from .cluster import (
    MergeTree,
    VALID_LINKAGES,
    _round12,
    agglomerative,
    cor_distance,
    correlation_matrix,
    partition_after_merges,
)
from .data import (
    NumericTable,
    Observation,
    RngStream,
    _finite_float,
    _integer_fields,
    _json_text,
    _typed,
)
from .errors import AspectraError
from .global_importance import ImportanceContext, PermutationConfig
from .models import ModelAdapter


@dataclass(frozen=True)
class TriplotConfig:
    mode: str  # "global" | "local"
    cor_method: str = "spearman"
    linkage: str = "complete"
    permutation: PermutationConfig | None = None  # global mode
    N: int | None = None  # local mode
    seed: int = 0  # local mode
    limit: int | None = None  # local mode

    def __post_init__(self):
        if self.mode not in ("global", "local"):
            raise AspectraError(f"mode must be global|local, got {self.mode!r}")
        if self.linkage not in VALID_LINKAGES:
            raise AspectraError(f"linkage must be one of {VALID_LINKAGES}")
        if self.mode == "global" and self.permutation is None:
            raise AspectraError("global mode needs a PermutationConfig")
        if self.mode == "local" and self.N is None:
            raise AspectraError("local mode needs a sample size N")
        _integer_fields(self, ("seed",), optional=("N", "limit"))


@dataclass(frozen=True)
class TriplotResult:
    mode: str
    tree: MergeTree
    leaf_names: tuple
    leaf_importance: np.ndarray  # length p, aligned to columns
    node_importance: np.ndarray  # length p-1, aligned to merges
    full_model_loss: float | None = None
    baseline_loss: float | None = None
    x_star: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)

    @property
    def p(self) -> int:
        return len(self.leaf_names)

    def to_json_doc(self) -> dict:
        metadata = dict(self.metadata)
        if self.mode == "global":
            metadata["full_model_loss"] = self.full_model_loss
            metadata["baseline_loss"] = self.baseline_loss
        else:
            metadata["x_star"] = [float(v) for v in self.x_star]
        return {
            "mode": self.mode,
            "tree": self.tree.to_json_doc(),
            "leaves": [
                {"name": name, "importance": float(v)}
                for name, v in zip(self.leaf_names, self.leaf_importance)
            ],
            "nodes": [
                {
                    "members": list(m.members),
                    "height": _round12(m.height),
                    "importance": float(v),
                }
                for m, v in zip(self.tree.merges, self.node_importance)
            ],
            "metadata": metadata,
        }

    def to_json(self) -> str:
        return _json_text(self.to_json_doc())

    @staticmethod
    def from_json_doc(doc: dict) -> "TriplotResult":
        """Rebuild a result from to_json_doc's output; a malformed document
        raises AspectraError."""
        try:
            tree = MergeTree.from_json_doc(doc["tree"])
            metadata = dict(doc.get("metadata", {}))
            x_star = metadata.pop("x_star", None)
            full = metadata.pop("full_model_loss", None)
            baseline = metadata.pop("baseline_loss", None)
            finite = _finite_float
            result = TriplotResult(
                mode=doc["mode"],
                tree=tree,
                leaf_names=tuple(_typed(leaf["name"], str, "a string name") for leaf in doc["leaves"]),
                leaf_importance=np.array([finite(leaf["importance"]) for leaf in doc["leaves"]]),
                node_importance=np.array([finite(node["importance"]) for node in doc["nodes"]]),
                full_model_loss=None if full is None else finite(full),
                baseline_loss=None if baseline is None else finite(baseline),
                x_star=None if x_star is None else np.array([finite(v) for v in x_star]),
                metadata=metadata,
            )
        except (KeyError, TypeError, ValueError) as e:
            raise AspectraError(f"malformed triplot document: {type(e).__name__}: {e}") from None
        if result.mode not in ("global", "local"):
            raise AspectraError(f"triplot document has mode {result.mode!r}, not global|local")
        if result.mode == "global" and (full is None or baseline is None):
            raise AspectraError("global triplot document lacks its model and baseline losses")
        if result.p != tree.p or result.node_importance.shape[0] != len(tree.merges):
            raise AspectraError(
                f"triplot document has {result.p} leaves and {result.node_importance.shape[0]} "
                f"nodes for a tree over {tree.p} leaves"
            )
        if result.mode == "local" and (result.x_star is None or result.x_star.shape != (result.p,)):
            raise AspectraError(
                f"local triplot document needs metadata.x_star with {result.p} values"
            )
        return result


def _build_tree(table: NumericTable, cfg: TriplotConfig) -> MergeTree:
    return agglomerative(cor_distance(correlation_matrix(table, cfg.cor_method)), cfg.linkage)


def model_triplot(model: ModelAdapter, table: NumericTable, y, cfg: TriplotConfig) -> TriplotResult:
    """Dataset-level triplot: permutation importance across all merge levels."""
    if cfg.mode != "global":
        raise AspectraError("model_triplot needs a global-mode config")
    tree = _build_tree(table, cfg)
    ctx = ImportanceContext(model, table, y, cfg.permutation)
    sets = [(j,) for j in range(table.p)] + [m.members for m in tree.merges]
    full, *losses, baseline = ctx.mean_permuted_losses([(), *sets, range(table.p)])
    leaf_imp = np.array(losses[:table.p]) - full
    node_imp = np.array(losses[table.p:]) - full
    return TriplotResult(
        mode="global",
        tree=tree,
        leaf_names=tuple(table.column_names),
        leaf_importance=leaf_imp,
        node_importance=node_imp,
        full_model_loss=full,
        baseline_loss=baseline,
        metadata={
            "loss": cfg.permutation.loss,
            "B": cfg.permutation.B,
            "N": cfg.permutation.N,
            "seed": cfg.permutation.seed,
            "cor_method": cfg.cor_method,
            "linkage": cfg.linkage,
        },
    )


def predict_triplot(
    model: ModelAdapter, table: NumericTable, x_star: Observation, cfg: TriplotConfig
) -> TriplotResult:
    """Single-prediction triplot: aspect contributions across all merge levels."""
    if cfg.mode != "local":
        raise AspectraError("predict_triplot needs a local-mode config")
    tree = _build_tree(table, cfg)
    # every level scores the same sampled rows; only the flags differ, and
    # a modified row an earlier level scored is not scored again
    sampler = _DesignSampler(table, x_star, cfg.N, RngStream(cfg.seed))
    parts = [partition_after_merges(tree, t, table.column_names) for t in range(table.p)]
    levels = []
    for design in sampler.designs(parts, tree):
        fit = _fit_surrogate(model, design, cfg.limit)
        levels.append(dict(zip(design.partition.member_sets, fit.gamma)))
    leaf_imp = np.array([levels[0][(j,)] for j in range(table.p)])
    node_imp = np.array([levels[t + 1][m.members] for t, m in enumerate(tree.merges)])
    return TriplotResult(
        mode="local",
        tree=tree,
        leaf_names=tuple(table.column_names),
        leaf_importance=leaf_imp,
        node_importance=node_imp,
        x_star=x_star.values,
        metadata={
            "N": cfg.N,
            "seed": cfg.seed,
            "limit": cfg.limit,
            "cor_method": cfg.cor_method,
            "linkage": cfg.linkage,
        },
    )
