"""Aspect-based model analysis: importance of groups of correlated variables.

The package answers two questions about a fitted black-box model:

* globally, how much does each group of variables matter, measured by the
  loss increase after jointly permuting the group's columns;
* locally, how much does each group contribute to one prediction, measured
  by a linear surrogate fitted to group-level replacement samples.

Groups ("aspects") can be supplied by hand or derived from the data by
hierarchical clustering of pairwise correlations.  Triplots combine the
cluster tree with importances at every tree level, and every result object
serializes to JSON/TSV and renders to standalone SVG.
"""

from .aspects import (
    AspectExplanation,
    AspectRow,
    DeltaPredictions,
    SampleDesign,
    SurrogateFit,
    build_design,
    delta_predictions,
    fit_lasso,
    fit_ols,
    predict_aspects,
)
from .cluster import (
    CorrelationMatrix,
    MergeRecord,
    MergeTree,
    agglomerative,
    cor_distance,
    correlation_matrix,
    cut_tree,
    group_variables,
    partition_after_merges,
)
from .data import (
    AspectPartition,
    NumericTable,
    Observation,
    RngStream,
    load_table,
    member_set_key,
    sample_rows,
    sampled_row_ids,
    save_table,
    validate_partition,
)
from .errors import (
    AspectraError,
    BadIndex,
    BadK,
    DuplicateColumn,
    EmptyGroup,
    EmptyTable,
    LengthMismatch,
    MissingTarget,
    NonNumericCell,
    NotCovering,
    OverlappingGroups,
    RankDeficient,
    SchemaMismatch,
    SingularDesign,
    SubprocessFailure,
    UnknownColumn,
    ZeroVarianceColumn,
)
from .global_importance import (
    GlobalImportance,
    GroupImportanceRow,
    ImportanceContext,
    PermutationConfig,
    group_importance,
    permutation_stream,
    permute_group,
    single_variable_importance,
)
from .models import (
    ConstantModel,
    KnnModel,
    LinearModel,
    ModelAdapter,
    SubprocessModel,
    fit_knn,
    fit_linear,
    loss,
    predict,
)
from .render import RenderSpec, render_aspects, render_triplot
from .triplot import (
    TriplotConfig,
    TriplotResult,
    model_triplot,
    predict_triplot,
)

__version__ = "0.1.0"

__all__ = [
    "AspectExplanation",
    "AspectPartition",
    "AspectRow",
    "AspectraError",
    "BadIndex",
    "BadK",
    "ConstantModel",
    "CorrelationMatrix",
    "DeltaPredictions",
    "DuplicateColumn",
    "EmptyGroup",
    "EmptyTable",
    "GlobalImportance",
    "GroupImportanceRow",
    "ImportanceContext",
    "KnnModel",
    "LengthMismatch",
    "LinearModel",
    "MergeRecord",
    "MergeTree",
    "MissingTarget",
    "ModelAdapter",
    "NonNumericCell",
    "NotCovering",
    "NumericTable",
    "Observation",
    "OverlappingGroups",
    "PermutationConfig",
    "RankDeficient",
    "RenderSpec",
    "RngStream",
    "SampleDesign",
    "SchemaMismatch",
    "SingularDesign",
    "SubprocessFailure",
    "SurrogateFit",
    "TriplotConfig",
    "TriplotResult",
    "UnknownColumn",
    "ZeroVarianceColumn",
    "agglomerative",
    "build_design",
    "cor_distance",
    "correlation_matrix",
    "cut_tree",
    "delta_predictions",
    "fit_knn",
    "fit_lasso",
    "fit_linear",
    "fit_ols",
    "group_importance",
    "group_variables",
    "load_table",
    "loss",
    "member_set_key",
    "model_triplot",
    "partition_after_merges",
    "permutation_stream",
    "permute_group",
    "predict",
    "predict_aspects",
    "predict_triplot",
    "render_aspects",
    "render_triplot",
    "sample_rows",
    "sampled_row_ids",
    "save_table",
    "single_variable_importance",
    "validate_partition",
]
