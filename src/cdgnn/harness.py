"""Training, evaluation, and experiment bookkeeping.

Two trainable models: the disentangled two-branch classifier (mask pair,
per-branch encoders and readouts, two heads on the joint embedding) and a
plain GCN baseline run on the full graph. A trained CD-GNN can be audited
against the gain analysis's assumptions (assumption_audit). Experiments
produce RunRecords whose canonical form excludes wall time, so identical
seeds must reproduce identical records byte for byte.

A CD-GNN step's disentangle.total_loss computes and logs every loss term
on every batch regardless of ablation flags; flags only decide what enters
the optimized total. RNG draws (batch order, dropout, counterfactual
permutation, HSIC row sample) likewise happen unconditionally, so an
ablated run and a zero-weight run follow identical trajectories.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
import zipfile
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .disentangle import (LOSS_TERMS, hsic, init_cdgnn_params, total_loss,
                          two_branch_forward)
from .graphs import (Graph, feature_heterophily, graph_to_dict,
                     label_heterophily)
from .models import (EgoBatch, batch_from_cache, build_ego_cache, gcn_forward,
                     init_gcn_weights, init_head_params)

__all__ = [
    "RunConfig",
    "Split",
    "split_nodes",
    "TrainResult",
    "train_cdgnn",
    "train_gcn_baseline",
    "EvalResult",
    "evaluate",
    "AuditReport",
    "assumption_audit",
    "RunRecord",
    "run_experiment",
    "run_variants",
    "dataset_hash",
    "aggregate_runs",
    "save_sweep",
    "write_report_csv",
    "SavedModel",
    "save_model",
    "load_model",
]

_EVAL_CHUNK = 256


@dataclass(frozen=True)
class RunConfig:
    """Hyperparameters for one training run."""

    learning_rate: float = 1e-4
    scorer_learning_rate: float | None = None
    weight_decay: float = 5e-4
    hidden: int = 150
    dropout: float = 0.1
    layers: int = 2
    q: float = 0.7
    lambda_counterfactual: float = 10.0
    lambda_independence: float = 0.1
    epochs: int = 200
    patience: int = 30
    batch_size: int = 32
    ego_hops: int | None = None
    scorer_hidden: int = 16
    hsic_max_rows: int = 256
    no_shortcut_term: bool = False
    no_causal_term: bool = False
    no_counterfactual_term: bool = False
    no_independence_term: bool = False

    @property
    def resolved_hops(self) -> int:
        return self.layers if self.ego_hops is None else self.ego_hops

    @property
    def coefficients(self) -> tuple[float, float, float, float]:
        """Weights of the shortcut, causal, counterfactual and independence
        terms in the objective; an ablated term weighs 0."""
        return (0.0 if self.no_shortcut_term else 1.0,
                0.0 if self.no_causal_term else 1.0,
                0.0 if self.no_counterfactual_term else self.lambda_counterfactual,
                0.0 if self.no_independence_term else self.lambda_independence)

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.scorer_learning_rate is not None and self.scorer_learning_rate <= 0:
            raise ValueError(
                f"scorer_learning_rate must be positive, got {self.scorer_learning_rate}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be nonnegative, got {self.weight_decay}")
        if self.hidden < 1 or self.layers < 1 or self.scorer_hidden < 1:
            raise ValueError("hidden, layers, and scorer_hidden must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if not 0.0 < self.q <= 1.0:
            raise ValueError(f"q must be in (0, 1], got {self.q}")
        if self.lambda_counterfactual < 0 or self.lambda_independence < 0:
            raise ValueError("loss weights must be nonnegative")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not 0 <= self.patience <= self.epochs:
            raise ValueError(
                f"patience must be in [0, epochs], got {self.patience}")
        if self.batch_size < 2:
            raise ValueError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.ego_hops is not None and self.ego_hops < 1:
            raise ValueError(f"ego_hops must be >= 1, got {self.ego_hops}")
        if self.hsic_max_rows < 2:
            raise ValueError(f"hsic_max_rows must be >= 2, got {self.hsic_max_rows}")
        if (self.no_shortcut_term and self.no_causal_term
                and self.no_counterfactual_term and self.no_independence_term):
            raise ValueError("all loss terms ablated; nothing to optimize")


@dataclass(frozen=True)
class Split:
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray

    @property
    def sizes(self) -> tuple[int, int, int]:
        return (self.train.shape[0], self.val.shape[0], self.test.shape[0])


# split_nodes' shares of train and val nodes; test takes the rest.
TRAIN_FRACTION = 0.6
VAL_FRACTION = 0.2


def split_nodes(num_nodes: int, seed: int) -> Split:
    """Shuffled 60/20/20 split: floored train and val, remainder test."""
    if num_nodes < 5:
        raise ValueError(f"need at least 5 nodes to split, got {num_nodes}")
    order = np.random.default_rng(seed).permutation(num_nodes)
    n_train = int(np.floor(TRAIN_FRACTION * num_nodes))
    n_val = int(np.floor(VAL_FRACTION * num_nodes))
    return Split(
        train=np.sort(order[:n_train]),
        val=np.sort(order[n_train:n_train + n_val]),
        test=np.sort(order[n_train + n_val:]),
    )


@dataclass
class TrainResult:
    params: dict[str, np.ndarray]
    history: list[dict[str, float]]
    best_epoch: int
    best_val_accuracy: float

    @property
    def epochs_run(self) -> int:
        """The epochs trained: len(history)."""
        return len(self.history)


def _eval_batches(g: Graph, cache, nodes: np.ndarray) -> list[EgoBatch]:
    """The ego batches of `nodes`, in chunks of _EVAL_CHUNK egos."""
    return [batch_from_cache(g, cache, nodes[start:start + _EVAL_CHUNK])
            for start in range(0, nodes.shape[0], _EVAL_CHUNK)]


def _predict_cdgnn(batches: list[EgoBatch],
                   params: dict[str, np.ndarray]) -> np.ndarray:
    """Causal-head predictions for the egos of `batches`, in order."""
    preds = []
    for batch in batches:
        fwd = two_branch_forward(batch, params)
        probs = ad.softmax_head(fwd.joint, *fwd.head_causal)
        preds.append(np.argmax(probs.data, axis=1))
    return np.concatenate(preds)


def _train_batches(train_nodes: np.ndarray, batch_size: int,
                   rng: np.random.Generator) -> list[np.ndarray]:
    """Shuffled batches; a trailing singleton is merged into the previous
    batch because the counterfactual term needs at least two graphs."""
    order = rng.permutation(train_nodes)
    chunks = [order[i:i + batch_size] for i in range(0, order.shape[0], batch_size)]
    if len(chunks) > 1 and chunks[-1].shape[0] == 1:
        chunks[-2] = np.concatenate([chunks[-2], chunks[-1]])
        chunks.pop()
    return chunks


def _setup(config: RunConfig, seed: int, train_nodes, val_nodes):
    """Validate `config` and return the node arrays and the run's five
    streams: init, batch order, dropout, counterfactual permutation and
    HSIC rows. An empty val set is refused: early stopping scores it."""
    config.validate()
    train_nodes = np.asarray(train_nodes, dtype=np.int64).reshape(-1)
    val_nodes = np.asarray(val_nodes, dtype=np.int64).reshape(-1)
    if val_nodes.shape[0] == 0:
        raise ValueError("need at least 1 validation node")
    rngs = [np.random.default_rng(s)
            for s in np.random.SeedSequence(seed).spawn(5)]
    return train_nodes, val_nodes, rngs


def _check_finite(values: dict[str, float], epoch: int) -> None:
    """Refuse a loss breakdown with a non-finite entry, naming it."""
    for key, value in values.items():
        if not np.isfinite(value):
            raise FloatingPointError(
                f"non-finite {key} ({value}) at epoch {epoch}")


def _fit(config: RunConfig, state: ad.AdamState, step, predict,
         val_labels: np.ndarray) -> TrainResult:
    """The loop both models share: early stopping on val accuracy.

    `step(epoch)` trains one epoch, stepping `state` in place, and returns
    its loss row; `predict()` then labels the val nodes under the
    parameters the step left. The result's params are views into the
    state's buffer, holding the best epoch's.

    Overflow and invalid values raise no numpy warning here: a diverging
    run ends in _check_finite's error, which names the term and the epoch.
    """
    history: list[dict[str, float]] = []
    best = state.flat.copy()
    best_val, best_epoch, stale = -1.0, -1, 0
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            row = step(epoch)
            row["epoch"] = float(epoch)
            row["val_acc"] = val_acc = float((predict() == val_labels).mean())
            history.append(row)
            if val_acc > best_val:
                best_val, best_epoch, stale = val_acc, epoch, 0
                best = state.flat.copy()
            else:
                stale += 1
                if 0 < config.patience <= stale:
                    break
    state.flat[:] = best
    return TrainResult(state.params, history, best_epoch, best_val)


def train_cdgnn(g: Graph, config: RunConfig, seed: int,
                train_nodes: np.ndarray, val_nodes: np.ndarray,
                cache: dict | None = None) -> TrainResult:
    """Train the disentangled model with early stopping on val accuracy.

    `cache` is a build_ego_cache of at least the train and val nodes at
    config.resolved_hops; by default one is built for exactly those.
    """
    train_nodes, val_nodes, rngs = _setup(config, seed, train_nodes, val_nodes)
    if train_nodes.shape[0] < 2:
        raise ValueError("need at least 2 training nodes")
    rng_init, rng_batch, rng_dropout, rng_perm, rng_hsic = rngs
    params = init_cdgnn_params(rng_init, g.feature_dim, config.hidden,
                               config.layers, config.scorer_hidden,
                               g.num_classes)
    # The edge scorer can take its own (usually smaller) step size: a mask
    # that commits before the branch heads have settled locks in whatever
    # split the first noisy gradients suggest.
    scorer_lr = (config.learning_rate if config.scorer_learning_rate is None
                 else config.scorer_learning_rate)
    state = ad.AdamState(params, {
        k: scorer_lr if k.startswith("mask.") else config.learning_rate
        for k in params})
    # Made once per run: the leaves share the state's arrays, which every
    # step updates in place, and ad.gradients leaves them clear.
    leaves = ad.leaves(state.params)
    egos = cache if cache is not None else build_ego_cache(
        g, config.resolved_hops, np.concatenate([train_nodes, val_nodes]))
    val_batches = _eval_batches(g, egos, val_nodes)

    def step(epoch):
        sums: dict[str, float] = {}
        graphs_seen = 0
        for nodes in _train_batches(train_nodes, config.batch_size, rng_batch):
            batch = batch_from_cache(g, egos, nodes)
            perm = rng_perm.permutation(batch.num_graphs)
            rows = rng_hsic.permutation(
                batch.features.shape[0])[:config.hsic_max_rows]
            fwd = two_branch_forward(batch, leaves, config.dropout,
                                     rng_dropout)
            total, breakdown = total_loss(fwd, batch.ego_labels, config.q,
                                          config.coefficients, perm, rows)
            _check_finite(breakdown, epoch)
            ad.adam_step(state, ad.gradients(total, leaves),
                         config.weight_decay)
            for key, value in breakdown.items():
                if key != "total":
                    sums[key] = sums.get(key, 0.0) + value * batch.num_graphs
            graphs_seen += batch.num_graphs
        row = {key: value / graphs_seen for key, value in sums.items()}
        # Epoch total is recomposed from the epoch term means so the
        # recorded identity total = s + c + l1*cf + l2*hsic holds exactly
        # (averaging per-batch totals would break it to rounding).
        c_s, c_c, c_cf, c_hsic = config.coefficients
        row["total"] = (c_s * row["loss_s"] + c_c * row["loss_c"]
                        + c_cf * row["loss_cf"] + c_hsic * row["loss_hsic"])
        return row

    return _fit(config, state, step,
                lambda: _predict_cdgnn(val_batches, state.params),
                g.labels[val_nodes])


def _full_graph(g: Graph) -> tuple[ad.PropagationPlan, np.ndarray]:
    """The GCN baseline's fixed inputs on `g`: the full graph's plan and
    the propagation of the features, which every forward's first layer
    reads."""
    plan = ad.PropagationPlan.from_edges(g.edges, g.num_nodes)
    return plan, ad.propagate(g.features, plan)


def _gcn_hidden(full: tuple[ad.PropagationPlan, np.ndarray], params: dict,
                dropout: float = 0.0, rng=None):
    """The GCN baseline's last layer over every node from `full`, the
    graph's _full_graph, and `params`: leaves to train, arrays to infer."""
    plan, x = full
    depth = sum(k.startswith("gcn.w") for k in params)
    layers = [params[f"gcn.w{l}"] for l in range(depth)]
    return gcn_forward(plan, x, None, None, layers, dropout, rng,
                       propagated=True)[-1]


def _gcn_labels(rows, params: dict) -> np.ndarray:
    """The GCN baseline's predicted classes of the nodes whose last-layer
    values are `rows`."""
    probs = ad.softmax_head(rows, params["head.w"], params["head.b"])
    return np.argmax(probs.data, axis=1)


def train_gcn_baseline(g: Graph, config: RunConfig, seed: int,
                       train_nodes: np.ndarray, val_nodes: np.ndarray,
                       cache: tuple | None = None) -> TrainResult:
    """Full-batch GCN trained with cross-entropy; same stopping rule.

    `cache` holds the full graph's plan and propagated features, which
    run_variants shares between runs; by default they are built here.
    Without dropout the training forward is predict's, bit for bit, so
    predict runs it on the leaves and the next step differentiates it:
    a run makes one full-graph forward per epoch, plus the first step's.
    """
    train_nodes, val_nodes, rngs = _setup(config, seed, train_nodes, val_nodes)
    rng_init, rng_dropout = rngs[0], rngs[2]
    params = init_gcn_weights(rng_init, g.feature_dim, config.hidden,
                              config.layers, "gcn")
    params.update(init_head_params(rng_init, config.hidden, g.num_classes,
                                   "head"))
    state = ad.AdamState(params, config.learning_rate)
    leaves = ad.leaves(state.params)
    full = _full_graph(g) if cache is None else cache
    y_train = g.labels[train_nodes]
    kept = None  # predict's forward on the leaves, for the next step

    def step(epoch):
        nonlocal kept
        h = (_gcn_hidden(full, leaves, config.dropout, rng_dropout)
             if kept is None else kept)
        kept = None
        probs = ad.softmax_head(ad.take_rows(h, train_nodes),
                                leaves["head.w"], leaves["head.b"])
        loss = ad.mean(ad.nll_rows(probs, y_train))
        row = {"loss": loss.item()}
        _check_finite(row, epoch)
        ad.adam_step(state, ad.gradients(loss, leaves), config.weight_decay)
        return row

    def predict():
        nonlocal kept
        if config.dropout:
            h = _gcn_hidden(full, state.params)
        else:
            h = kept = _gcn_hidden(full, leaves)
        return _gcn_labels(h.data[val_nodes], state.params)

    return _fit(config, state, step, predict, g.labels[val_nodes])


@dataclass
class EvalResult:
    accuracy: float
    confusion: np.ndarray
    predictions: np.ndarray


def _predict(g: Graph, params: dict[str, np.ndarray], node_sets: list,
             hops: int | None, cache) -> list[np.ndarray]:
    """The predicted classes of each array of `node_sets`, as evaluate
    documents, from `cache` when given: a CD-GNN's ego cache covering them,
    or a GCN's _full_graph, which labels them all in one forward."""
    if _model_kind(g, params) == "cdgnn":
        if hops is None:
            raise ValueError("evaluate needs the ego hops a CD-GNN model was "
                             "trained at (SavedModel.hops)")
        if cache is None:
            cache = build_ego_cache(g, hops, np.concatenate(node_sets))
        return [_predict_cdgnn(_eval_batches(g, cache, nodes), params)
                for nodes in node_sets]
    h = _gcn_hidden(_full_graph(g) if cache is None else cache, params).data
    return [_gcn_labels(h[nodes], params) for nodes in node_sets]


def evaluate(g: Graph, params: dict[str, np.ndarray], nodes,
             hops: int | None = None) -> EvalResult:
    """Accuracy and confusion (rows true, cols predicted) on given nodes.

    Dispatches on the model kind the parameters hold: the disentangled
    model predicts via the causal head, on the ego subgraphs of `nodes` at
    `hops`, the hops it was trained at (SavedModel.hops), which have no
    default. The GCN baseline predicts on the full graph and ignores
    `hops`. Ties resolve to the lowest class id via argmax. Parameters
    that do not fit `g` (_model_kind) are refused.
    """
    nodes = np.asarray(nodes, dtype=np.int64).reshape(-1)
    if nodes.shape[0] == 0:
        raise ValueError("evaluate needs at least one node")
    if (nodes < 0).any() or (nodes >= g.num_nodes).any():
        raise ValueError(f"node outside [0, {g.num_nodes})")
    (predictions,) = _predict(g, params, [nodes], hops, None)
    truth = g.labels[nodes]
    confusion = np.zeros((g.num_classes, g.num_classes), dtype=np.int64)
    np.add.at(confusion, (truth, predictions), 1)
    return EvalResult(
        accuracy=float((predictions == truth).mean()),
        confusion=confusion,
        predictions=predictions,
    )


# assumption_audit's ego sample size, shortcut swaps and pass thresholds.
AUDIT_MAX_NODES = 256
AUDIT_PERMUTATIONS = 8
INDEPENDENCE_THRESHOLD = 0.01
SENSITIVITY_THRESHOLD = 0.25
DOMINANCE_THRESHOLD = 0.5


@dataclass(frozen=True)
class AuditReport:
    """Empirical check of the assumptions behind the gain analysis.

    dominance_share is one number for every encoder layer: the mask is
    shared across depth. cross_class_ratios are informational estimates of
    the cross-class signal ratio at each layer's embedding; no threshold
    applies to them.
    """

    independence: float
    independence_ok: bool
    sensitivity: float
    sensitivity_ok: bool
    dominance_share: float
    dominance_ok: bool
    cross_class_ratios: list[float]

    @property
    def passed(self) -> bool:
        return self.independence_ok and self.sensitivity_ok and self.dominance_ok


def _layer_cross_class_ratio(embedding: np.ndarray, endpoints: np.ndarray,
                             labels: np.ndarray) -> float:
    """|mean neighbor signal across classes| / |mean within class|.

    Signal is the embedding row mean; the directed edge list is both
    orientations of every undirected edge.
    """
    if endpoints.shape[0] == 0:
        return 0.0
    signal = embedding.mean(axis=1)
    src = np.concatenate([endpoints[:, 0], endpoints[:, 1]])
    dst = np.concatenate([endpoints[:, 1], endpoints[:, 0]])
    cross = labels[src] != labels[dst]
    same_mean = signal[dst[~cross]].mean() if (~cross).any() else 0.0
    cross_mean = signal[dst[cross]].mean() if cross.any() else 0.0
    if abs(same_mean) < 1e-12:
        return 0.0
    return float(abs(cross_mean) / abs(same_mean))


def assumption_audit(g: Graph, params: dict[str, np.ndarray], hops: int,
                     nodes: np.ndarray | None = None,
                     seed: int = 0) -> AuditReport:
    """Audit a trained model against the analysis assumptions.

    Checks, on a sample of ego graphs: HSIC between the branch embeddings
    (independence), how much the causal head's true-class probability moves
    when the shortcut embedding is swapped across the batch (counterfactual
    sensitivity), and the share of causal-branch propagation mass flowing
    through edges the mask assigns to the shortcut side (dominance). Also
    estimates the cross-class signal ratio at each encoder layer. A GCN's
    parameters, or a CD-GNN's that do not fit `g`, are refused.
    """
    if _model_kind(g, params) != "cdgnn":
        raise ValueError("audit needs a cdgnn model, the parameters hold a gcn")
    rng = np.random.default_rng(seed)
    if nodes is None:
        nodes = np.arange(g.num_nodes)
    nodes = np.asarray(nodes, dtype=np.int64).reshape(-1)
    if nodes.shape[0] > AUDIT_MAX_NODES:
        nodes = np.sort(rng.choice(nodes, size=AUDIT_MAX_NODES, replace=False))
    if nodes.shape[0] < 2:
        raise ValueError("audit needs at least 2 ego nodes")
    batch = batch_from_cache(g, build_ego_cache(g, hops, nodes), nodes)
    fwd = two_branch_forward(batch, params)
    h_c, h_s = fwd.graph_causal, fwd.graph_shortcut

    independence = hsic(h_c, h_s).item()

    base = ad.softmax_head(fwd.joint, *fwd.head_causal).data
    rows = np.arange(batch.num_graphs)
    labels = batch.ego_labels
    sensitivity = 0.0
    for _ in range(AUDIT_PERMUTATIONS):
        perm = rng.permutation(batch.num_graphs)
        swapped = ad.softmax_head(
            ad.concat_cols(h_c, ad.permute_rows(h_s, perm)),
            *fwd.head_causal).data
        delta = np.abs(base[rows, labels] - swapped[rows, labels])
        sensitivity = max(sensitivity, float(delta.max()))

    mask_vals = fwd.edge_mask.data.reshape(-1)
    # Dominance is the share of the causal branch's aggregate incoming edge
    # weight that flows through edges the mask pushes to the shortcut side.
    edge_mass = mask_vals.sum()
    leak = mask_vals[mask_vals < 0.5].sum()
    dominance = float(leak / edge_mass) if edge_mass > 1e-12 else 0.0

    node_labels = g.labels[batch.member_ids]
    ratios = [_layer_cross_class_ratio(h.data, batch.endpoints, node_labels)
              for h in fwd.layers_causal]

    return AuditReport(
        independence=independence,
        independence_ok=independence <= INDEPENDENCE_THRESHOLD,
        sensitivity=sensitivity,
        sensitivity_ok=sensitivity <= SENSITIVITY_THRESHOLD,
        dominance_share=dominance,
        dominance_ok=dominance <= DOMINANCE_THRESHOLD,
        cross_class_ratios=ratios,
    )


def dataset_hash(g: Graph) -> str:
    """Content hash of the canonical graph serialization."""
    payload = json.dumps(graph_to_dict(g), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class RunRecord:
    """Everything one run produced; canonical form excludes wall time."""

    dataset: str
    dataset_hash: str
    model: str
    seed: int
    config: dict
    split_sizes: tuple[int, int, int]
    label_heterophily: float
    feature_heterophily: float
    best_epoch: int
    epochs_run: int
    train_accuracy: float
    val_accuracy: float
    test_accuracy: float
    history: list[dict[str, float]]
    wall_time: float

    def canonical_dict(self) -> dict:
        d = asdict(self)
        d.pop("wall_time")
        d["split_sizes"] = list(self.split_sizes)
        return d

    def canonical_json(self) -> str:
        return json.dumps(self.canonical_dict(), sort_keys=True)

    def record_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    def save(self, out_dir) -> Path:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        payload = self.canonical_dict()
        # record_hash(), from the payload already built
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()).hexdigest()
        payload["wall_time"] = self.wall_time
        path = out / (f"run_{self.model}_{self.dataset}_"
                      f"{digest[:8]}_s{self.seed}.json")
        path.write_text(json.dumps(payload, indent=2))
        return path


def _check(g: Graph, model: str, configs) -> dict:
    """Refuse an unknown model, an invalid config or a graph without edges
    before any work; return the record fields `g` fixes: its dataset_hash
    and its label and feature heterophily, which raise without edges."""
    if model not in ("cdgnn", "gcn"):
        raise ValueError(f"unknown model {model!r}")
    for config in configs:
        config.validate()
    return {"dataset_hash": dataset_hash(g),
            "label_heterophily": label_heterophily(g),
            "feature_heterophily": feature_heterophily(g)}


def _run(g: Graph, config: RunConfig, seed: int, dataset: str, model: str,
         facts: dict, caches: dict) -> tuple[RunRecord, dict]:
    """Split, train, evaluate on train and test, and assemble the record
    from `facts` (_check's), with the trained parameters. The run takes its
    cache from `caches`, building and adding it when missing: a CD-GNN's
    all-node ego cache keyed by hops, a GCN's full-graph inputs by "gcn"."""
    sp = split_nodes(g.num_nodes, seed)
    start = time.perf_counter()
    hops = config.resolved_hops
    # Shared by training and both evaluations: one ego subgraph per node,
    # or the full graph's plan and propagated features.
    key = hops if model == "cdgnn" else "gcn"
    if key not in caches:
        caches[key] = (build_ego_cache(g, hops, np.arange(g.num_nodes))
                       if model == "cdgnn" else _full_graph(g))
    train = train_cdgnn if model == "cdgnn" else train_gcn_baseline
    result = train(g, config, seed, sp.train, sp.val, caches[key])
    on_train, on_test = _predict(g, result.params, [sp.train, sp.test], hops,
                                 caches[key])
    wall = time.perf_counter() - start
    record = RunRecord(
        dataset=dataset,
        model=model,
        seed=seed,
        config=asdict(config),
        split_sizes=sp.sizes,
        **facts,
        best_epoch=result.best_epoch,
        epochs_run=result.epochs_run,
        train_accuracy=float((on_train == g.labels[sp.train]).mean()),
        val_accuracy=result.best_val_accuracy,
        test_accuracy=float((on_test == g.labels[sp.test]).mean()),
        history=result.history,
        wall_time=wall,
    )
    return record, result.params


def run_experiment(g: Graph, config: RunConfig, seed: int,
                   dataset: str = "custom", model: str = "cdgnn",
                   return_params: bool = False):
    """Split, train, evaluate on test, and assemble the record.

    With return_params=True, returns (record, trained parameter dict).
    """
    facts = _check(g, model, [config])  # before the ego cache, which is slow
    record, params = _run(g, config, seed, dataset, model, facts, {})
    return (record, params) if return_params else record


def run_variants(g: Graph, variants: dict[str, RunConfig],
                 seeds: Sequence[int], dataset: str = "custom",
                 model: str = "cdgnn") -> dict[str, list[RunRecord]]:
    """Each variant's records, one per seed in seed order, keyed as
    `variants` (a name -> RunConfig map) and in its order.

    The model, every config, the seeds and `g` are checked before any run,
    and `g` is hashed and its heterophily measured once. A CD-GNN builds one
    all-node ego cache per distinct resolved_hops, and a GCN one full-graph
    plan with its propagated features, which every run reads and none
    writes. Each record equals run_experiment's for its config and seed,
    except the non-canonical wall_time, which excludes a shared cache.
    """
    seeds = list(seeds)
    if not variants:
        raise ValueError("run_variants needs at least one variant")
    if not seeds:
        raise ValueError("run_variants needs at least one seed")
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"seeds must be distinct, got {seeds}")
    facts = _check(g, model, variants.values())
    caches: dict = {}
    return {name: [_run(g, config, seed, dataset, model, facts,
                        caches)[0] for seed in seeds]
            for name, config in variants.items()}


def aggregate_runs(accuracies: Sequence[float]) -> tuple[float, float]:
    """Mean and population standard deviation of run accuracies."""
    a = np.asarray(accuracies, dtype=np.float64)
    if a.size == 0:
        raise ValueError("no accuracies to aggregate")
    return float(a.mean()), float(a.std(ddof=0))


def save_sweep(runs: dict[str, list[RunRecord]], out_dir) -> tuple[Path, Path]:
    """Write a loss-weight grid's run_variants records as sweep.csv, one
    row per variant, and sweep.json, one plot series per independence
    weight over the counterfactual weights, in variant order; each weight
    is read from the records' config."""
    rows = []
    series: dict[float, dict] = {}
    for records in runs.values():
        l1 = records[0].config["lambda_counterfactual"]
        l2 = records[0].config["lambda_independence"]
        mean, std = aggregate_runs([r.test_accuracy for r in records])
        rows.append({
            "lambda_counterfactual": l1,
            "lambda_independence": l2,
            "mean_accuracy": mean,
            "std_accuracy": std,
            "num_runs": len(records),
        })
        line = series.setdefault(l2, {"label": f"independence weight {l2}",
                                      "x": [], "y": [], "yerr": []})
        line["x"].append(l1)
        line["y"].append(mean)
        line["yerr"].append(std)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "sweep.csv"
    with csv_path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    json_path = out / "sweep.json"
    json_path.write_text(json.dumps({"series": list(series.values())},
                                    indent=2))
    return csv_path, json_path


def write_report_csv(records: Sequence[RunRecord], path) -> Path:
    """Flat per-run summary; loss columns come from the final epoch."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = ["dataset", "seed", "h_L", "h_F", "split", "accuracy",
              *LOSS_TERMS]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for r in records:
            last = r.history[-1] if r.history else {}
            writer.writerow([
                r.dataset, r.seed, r.label_heterophily, r.feature_heterophily,
                "test", r.test_accuracy,
                *(last.get(key, "") for key in LOSS_TERMS),
            ])
    return path


@dataclass(frozen=True)
class SavedModel:
    """A model archive: the parameters and the ego hops they were trained
    at (the GCN ignores them)."""

    params: dict[str, np.ndarray]
    hops: int


def _model_kind(g: Graph, params: dict[str, np.ndarray]) -> str:
    """The kind of model `params` hold, "cdgnn" or "gcn", by their names;
    parameters of neither, or whose feature width or class count is not
    `g`'s, are refused."""
    for kind, encoder, head in (("cdgnn", "gnn_c", "head_c"),
                                ("gcn", "gcn", "head")):
        if f"{encoder}.w0" in params and f"{head}.w" in params:
            width = params[f"{encoder}.w0"].shape[0]
            classes = params[f"{head}.w"].shape[1]
            if (width, classes) != (g.feature_dim, g.num_classes):
                raise ValueError(
                    f"the model takes {width} features and {classes} "
                    f"classes, the graph has {g.feature_dim} and "
                    f"{g.num_classes}")
            return kind
    raise ValueError("parameters hold neither a CD-GNN nor a GCN")


def save_model(params: dict[str, np.ndarray], path, hops: int) -> Path:
    """Write `params` and the ego hops they were trained at as one .npz."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, ego_hops=hops, **params)
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def load_model(path) -> SavedModel:
    try:
        data = np.load(path)
    except (ValueError, EOFError, zipfile.BadZipFile):
        # neither .npy nor zip: numpy takes the file for a pickle
        raise ValueError(f"{path} is not an .npz model archive") from None
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise ValueError(f"{path} holds one array, not an .npz model archive")
    with data:
        params = {k: data[k] for k in data.files}
    if "ego_hops" not in params:
        raise ValueError(f"{path} stores no ego hops (it predates archives "
                         f"that do); train the model again")
    hops = int(params.pop("ego_hops"))
    return SavedModel(params, hops)
