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

The root exports the entry points below. Every other name (the design and
surrogate steps, the clustering steps, the model classes, the finer-grained
errors) lives in its submodule: aspectra.aspects, aspectra.cluster,
aspectra.data, aspectra.errors, aspectra.global_importance, aspectra.models,
aspectra.render or aspectra.triplot.
"""

from .aspects import predict_aspects
from .cluster import correlation_matrix, group_variables
from .data import AspectPartition, NumericTable, Observation, load_table
from .errors import AspectraError, SchemaMismatch, SingularDesign, SubprocessFailure
from .global_importance import PermutationConfig, group_importance
from .models import ConstantModel, SubprocessModel, fit_knn, fit_linear
from .render import render_aspects, render_triplot
from .triplot import TriplotConfig, model_triplot, predict_triplot

__version__ = "0.1.0"

__all__ = [
    "AspectPartition",
    "AspectraError",
    "ConstantModel",
    "NumericTable",
    "Observation",
    "PermutationConfig",
    "SchemaMismatch",
    "SingularDesign",
    "SubprocessFailure",
    "SubprocessModel",
    "TriplotConfig",
    "correlation_matrix",
    "fit_knn",
    "fit_linear",
    "group_importance",
    "group_variables",
    "load_table",
    "model_triplot",
    "predict_aspects",
    "predict_triplot",
    "render_aspects",
    "render_triplot",
]
