"""Desk-scale laboratory for causally disentangled graph learning.

Pure numpy/scipy: graph containers and heterophily measures, synthetic
benchmark generators, a small reverse-mode autodiff engine, the two-branch
disentangled classifier with its losses, closed-form propagation-gain
analysis, and a training or experiment harness with a CLI.
"""

from .graphs import (Graph, GraphError, ego_subgraph, feature_heterophily,
                     label_heterophily, load_graph, save_graph)
from .synth import (PRESET_NAMES, planted_shortcut, preset,
                    relabel_to_heterophily)
from .autodiff import Tensor, adam_step, gradients, leaves
from .models import build_ego_cache, gcn_forward
from .disentangle import disentanglement_score, hsic, total_loss
from .gains import (GainParams, ImprovementReport, deep_layer_gain,
                    default_grid_cells, effective_homophily,
                    gain_improvement_check, monte_carlo_one_layer,
                    one_layer_gain, theory_check_grid)
from .harness import (AuditReport, RunConfig, RunRecord, assumption_audit,
                      evaluate, run_experiment, run_variants, split_nodes,
                      train_cdgnn, train_gcn_baseline)

__version__ = "0.1.0"

__all__ = [
    "Graph", "GraphError", "ego_subgraph", "feature_heterophily",
    "label_heterophily", "load_graph", "save_graph",
    "PRESET_NAMES", "planted_shortcut", "preset", "relabel_to_heterophily",
    "Tensor", "adam_step", "gradients", "leaves",
    "build_ego_cache", "gcn_forward",
    "disentanglement_score", "hsic", "total_loss",
    "GainParams", "ImprovementReport", "deep_layer_gain",
    "default_grid_cells", "effective_homophily", "gain_improvement_check",
    "monte_carlo_one_layer", "one_layer_gain", "theory_check_grid",
    "AuditReport", "RunConfig", "RunRecord", "assumption_audit", "evaluate",
    "run_experiment", "run_variants", "split_nodes", "train_cdgnn",
    "train_gcn_baseline",
    "__version__",
]
