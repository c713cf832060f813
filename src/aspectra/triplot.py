"""Assemble leaf importances, merge-node importances and the clustering tree.

Global mode scores every tree node by block-permutation importance of its
member set; permuting a set needs no surrounding partition. Local mode walks
the coarsening trajectory the dendrogram defines: each merge step is scored
inside the tree-cut partition at that step. `aspects._designs` takes every
step from one walk of the tree, and all share one sampled row set, so that
levels differ by the grouping, not by sampling. A modified row that several
levels draw is one slot of the plan, and every slot is scored, in slot order
and in shared calls, before any level is fitted (see `aspects._scored_designs`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .aspects import _fit_surrogate, _scored_designs
from .cluster import (
    CORRELATION_METHODS,
    VALID_LINKAGES,
    MergeTree,
    _node_members,
    _round12,
    _tree,
    correlation_matrix,
)
from .data import (
    _FINITE,
    NumericTable,
    Observation,
    RngStream,
    _choice,
    _instance,
    _integer_fields,
    _json_text,
    _malformed,
    _names,
    _real,
)
from .errors import AspectraError
from .global_importance import ImportanceContext, PermutationConfig
from .models import ModelAdapter


@dataclass(frozen=True)
class TriplotConfig:
    """Global mode needs a PermutationConfig; local mode needs an N, and its
    permutation is None or a PermutationConfig. N >= 1, seed and limit >= 0
    are integers, stored as int; a field of any other value raises
    AspectraError when the config is built."""

    mode: str  # "global" | "local"
    cor_method: str = "spearman"
    linkage: str = "complete"
    permutation: PermutationConfig | None = None  # global mode
    N: int | None = None  # local mode
    seed: int = 0  # local mode
    limit: int | None = None  # local mode

    def __post_init__(self):
        _choice("mode", self.mode, ("global", "local"))
        _choice("linkage", self.linkage, VALID_LINKAGES)
        _choice("correlation method", self.cor_method, CORRELATION_METHODS)
        if self.mode == "global" or self.permutation is not None:
            _instance(f"{self.mode} mode's permutation", self.permutation, PermutationConfig)
        _integer_fields(self, {"seed": None, "N": 1, "limit": 0},
                        optional=("N", "limit") if self.mode == "global" else ("limit",))


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
        """Rebuild a result from to_json_doc's output; a malformed document, or
        a field not of its kind, raises AspectraError. A global result reads
        no x_star, and a local one no losses."""
        try:
            mode, tree = _instance("document", doc, dict)["mode"], doc["tree"]
            _choice("mode", mode, ("global", "local"))
            metadata = dict(_instance("metadata", doc.get("metadata", {}), dict))
            keys = ("full_model_loss", "baseline_loss")
            x_star, losses = metadata.pop("x_star", None), [metadata.pop(k, None) for k in keys]
            if mode == "global":
                x_star, losses = None, [_real(k, v, *_FINITE) for k, v in zip(keys, losses)]
            else:
                x_star = [_real("x_star value", v, *_FINITE)
                          for v in _instance("x_star", x_star, list)]
                x_star, losses = np.array(x_star), [None, None]
            leaves = [_instance("leaf", d, dict) for d in _instance("leaves", doc["leaves"], list)]
            nodes = [_instance("node", d, dict) for d in _instance("nodes", doc["nodes"], list)]
            names = tuple(_names("leaf names", [d["name"] for d in leaves]))
            leaf_imp, node_imp = (np.array([_real("importance", d["importance"], *_FINITE)
                                            for d in ds]) for ds in (leaves, nodes))
        except (KeyError, AspectraError) as e:
            raise _malformed("triplot document", e) from None
        tree = MergeTree.from_json_doc(tree)
        if len(names) != tree.p or node_imp.shape[0] != len(tree.merges):
            raise AspectraError(f"triplot document has {len(names)} leaves and {node_imp.shape[0]} "
                                f"nodes for a tree over {tree.p} leaves")
        if mode == "local" and x_star.shape != (tree.p,):
            raise AspectraError("local triplot document needs metadata.x_star with "
                                f"{tree.p} values")
        return TriplotResult(mode=mode, tree=tree, leaf_names=names, leaf_importance=leaf_imp,
                             node_importance=node_imp, full_model_loss=losses[0],
                             baseline_loss=losses[1], x_star=x_star, metadata=metadata)


def _build_tree(table: NumericTable, cfg: TriplotConfig) -> MergeTree:
    C = correlation_matrix(table, cfg.cor_method)
    return _tree(table, cfg.cor_method, cfg.linkage, C)


def model_triplot(model: ModelAdapter, table: NumericTable, y, cfg: TriplotConfig) -> TriplotResult:
    """Dataset-level triplot: permutation importance across all merge levels;
    each argument is checked before any model call."""
    if _instance("cfg", cfg, TriplotConfig).mode != "global":
        raise AspectraError("model_triplot needs a global-mode config")
    tree = _build_tree(table, cfg)
    ctx = ImportanceContext(model, table, y, cfg.permutation)
    full, losses, baseline = ctx._query(_node_members(tree))
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
    """Single-prediction triplot: aspect contributions across all merge levels.

    Level t is the cut after t merges. One `aspects._designs` run plans the
    designs of all p levels over one sample A: only the flags differ, and a
    modified row that several levels draw is scored once. Each argument is
    checked before any model call."""
    _instance("x_star", x_star, Observation)
    if _instance("cfg", cfg, TriplotConfig).mode != "local":
        raise AspectraError("predict_triplot needs a local-mode config")
    tree = _build_tree(table, cfg)
    levels = []
    for design in _scored_designs(model, table, x_star, cfg.N, RngStream(cfg.seed), tree):
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
