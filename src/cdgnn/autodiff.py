"""Reverse-mode differentiation on dense float64 matrices.

Every value is a 2-D array (scalars are (1, 1)). `leaves` makes the
tensors to differentiate; plain arrays enter operations as constants, so a
forward on raw parameter arrays records nothing. An operation's output
that depends on a leaf keeps its parents, its adjoint and a creation index.
`gradients` runs the adjoints of the operations the loss depends on once,
in reverse creation order, and spends each node as it goes. Links run only
from outputs to inputs, so a step's graph holds no reference cycle and is
freed by reference count. A first gradient is taken without a copy, so an
adjoint copies only an array that would otherwise reach two inputs.
Graph propagation and its adjoints run as CSR row sums over a
PropagationPlan, in scipy's compiled kernel (loaded without importing
scipy.sparse), so no dense adjacency matrix is ever materialized.
`propagate` runs the unweighted propagation of a constant input once; a
gcn_layer given no plan takes its input as propagated.

The elementary primitives are matmul, add, subtract, multiply, sigmoid
and dropout. The models' hot paths are fused primitives (gcn_layer,
edge_scorer, ego_readout, head_nll, two_head_loss, hsic_rbf): each records
one node whose backward repeats, in the same order, the float operations
of the chain it replaces, so results are bitwise the composed chain's.
edge_scorer is the CD-GNN mask's whole MLP, two_head_loss three terms of
its objective with both heads on both readouts and head_nll the GCN
baseline's whole loss, so that a training step records few nodes: on
batches this small each node costs more in bookkeeping than in arithmetic.
softmax_head is a head's forward on plain arrays, which inference calls;
head_nll takes its forward from it. two_head_loss reads both heads on both
passes as four blocks of one stacked array: each block's logits come from
its own matmul, and the bias add, softmax, picks, log and softmax adjoint
(_softmax_adjoint, which head_nll shares) run once over all four. A softmax
and its adjoint are row-local, so every block keeps its bits; one matmul
over the stacked rows would not (1955 of 3000 random shapes of 1-2 classes
changed bits). ego_readout sums each ego's rows as one CSR row sum and
edge_scorer gathers both endpoint orders in one index. hsic_rbf takes its
own row sample and works out each median-heuristic bandwidth in the pass
that builds its gram (_rbf). Small means skip ndarray.mean's dispatch
(_mean); a softmax takes each row's max a column at a time; a row gather's
adjoint with no repeated index writes the rows into zeros; sigmoid reads
one exp for both signs. Each gives the bits of the computation it replaced
(NaN signs aside in the softmax, see _softmax_rows).

Measured and left out, one BLAS thread, at the bench's batch of 16 egos:
building a batch's CSR plan from cached per-ego blocks (48 us a batch in a
prototype, against 26 us for PropagationPlan.from_edges); working out only
the upper triangle of the HSIC bandwidth's distances (2 of 135 us a gram);
and running both views' encoders as one stacked propagation (bitwise, but
795 us against 554 us in a sketch).

An AdamState holds one run's parameters in one flat buffer, as named views
(the table the model reads), with both moments and the per-entry learning
rates flat beside it. adam_step concatenates the gradient table and updates
the buffer and the moments in place with a few vector operations. Adam is
element-wise, so this gives the bits of a per-parameter loop.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass
from itertools import count
from operator import attrgetter

import numpy as np

__all__ = [
    "Tensor",
    "PropagationPlan",
    "matmul", "add", "subtract", "multiply", "sigmoid", "dropout",
    "propagate", "gcn_layer", "softmax_head", "edge_scorer", "ego_readout",
    "head_nll", "two_head_loss", "hsic_rbf",
    "AdamState", "adam_step", "leaves", "gradients",
]


def _load_sparsetools():
    """scipy's compiled CSR kernels, `scipy.sparse._sparsetools`, loaded
    from their extension file under that name. Importing `scipy.sparse` for
    them would also import numpy.f2py and scipy's array API layer, most of
    the cost of `import cdgnn`, and scipy's folder is found without running
    scipy's own __init__; the module is the same either way, and one
    already imported is reused."""
    name = "scipy.sparse._sparsetools"
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    folder = os.path.join(spec.submodule_search_locations[0], "sparse")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, "_sparsetools" + suffix)
        if os.path.isfile(path):
            break
    else:
        raise ImportError(f"scipy's compiled CSR kernel (_sparsetools) is not in {folder}")
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_file_location(name, path, loader=loader))
    loader.exec_module(module)
    sys.modules[name] = module
    return module


_sparsetools = _load_sparsetools()

LOG_CLAMP = 1e-12
# Creation order of the operations' outputs; the backward walk runs it in
# reverse, which is the order every gradient sum is pinned to.
_clock = count()


class Tensor:
    """A dense matrix; an operation's output that needs a gradient keeps
    its parents, its adjoint and its creation index."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward",
                 "_index")

    def __init__(self, data: np.ndarray, requires_grad: bool = False) -> None:
        self.data = data
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents = self._backward = None
        self._index = -1

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a single-entry tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def _accumulate(self, g: np.ndarray) -> None:
        """Add g, a float64 array no other input gets and the adjoint reads
        no more, into the gradient; a first g becomes the gradient, uncopied."""
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = g
        else:
            self.grad += g


def _as_matrix(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    if arr.ndim != 2:
        raise ValueError(f"tensors are 2-D; got array of shape {arr.shape}")
    return arr


def leaves(values: dict) -> dict:
    """One tensor that requires a gradient per entry of `values`, keyed
    alike; the arrays are shared, not copied."""
    return {k: Tensor(_as_matrix(v), requires_grad=True)
            for k, v in values.items()}


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(_as_matrix(x))


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
        out._index = next(_clock)
    return out


def _spent(g: np.ndarray) -> None:
    raise ValueError("gradients() already ran back through this tensor; "
                     "build the loss again")


def _unbroadcast(g: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    for ax in (0, 1):
        if shape[ax] == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def matmul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    data = a.data @ b.data

    def backward(g: np.ndarray) -> None:
        a._accumulate(g @ b.data.T)
        b._accumulate(a.data.T @ g)

    return _make(data, (a, b), backward)


def add(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    data = a.data + b.data

    def backward(g: np.ndarray) -> None:
        a._accumulate(_unbroadcast(g, a.data.shape))
        gb = _unbroadcast(g, b.data.shape)
        b._accumulate(gb.copy() if gb is g else gb)

    return _make(data, (a, b), backward)


def subtract(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    data = a.data - b.data

    def backward(g: np.ndarray) -> None:
        a._accumulate(_unbroadcast(g, a.data.shape))
        b._accumulate(_unbroadcast(-g, b.data.shape))

    return _make(data, (a, b), backward)


def multiply(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    data = a.data * b.data

    def backward(g: np.ndarray) -> None:
        a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _make(data, (a, b), backward)


def sigmoid(a) -> Tensor:
    """1/(1+e) where a >= 0, else e/(1+e), e = exp(min(a, -a)): no overflow."""
    a = _coerce(a)
    e = np.exp(np.minimum(a.data, -a.data))
    data = np.where(a.data >= 0, 1.0, e) / (1.0 + e)

    def backward(g: np.ndarray) -> None:
        a._accumulate(g * data * (1.0 - data))

    return _make(data, (a,), backward)


def _mean(x: np.ndarray, axis: int | None, keepdims: bool) -> np.ndarray:
    """x.mean(axis, keepdims=keepdims) of a float64 x, bit for bit: the sum
    and the division ndarray.mean performs, without its Python dispatch,
    which costs more than the arithmetic on arrays this small."""
    count = x.size if axis is None else x.shape[axis]
    return np.add.reduce(x, axis=axis, keepdims=keepdims) / count


def dropout(a, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; rate 0 is the identity (same tensor object)."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    a = _coerce(a)
    if rate == 0.0:
        return a
    mask = (rng.random(a.data.shape) >= rate) / (1.0 - rate)
    data = a.data * mask

    def backward(g: np.ndarray) -> None:
        a._accumulate(g * mask)

    return _make(data, (a,), backward)


def _row_scatter(da_shape, idx: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Adjoint of gathering rows `idx`: row r sums, from 0 and in index
    order, the rows of g gathered from r. Unique indices are written as
    g + 0.0, the bits of that one-term sum (-0.0 lands as +0.0)."""
    counts = np.bincount(idx, minlength=da_shape[0])
    if counts.max(initial=0) <= 1:
        out = np.zeros(da_shape)
        out[idx] = g + 0.0
        return out
    indptr = np.concatenate([[0], np.cumsum(counts)])
    return _csr_rowsum(indptr, np.argsort(idx, kind="stable"), np.ones(idx.shape[0]), g)


def _permutation(perm, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """`perm` as a checked permutation of `rows` row indices, and its
    inverse."""
    p = np.asarray(perm, dtype=np.int64).reshape(-1)
    if p.shape[0] != rows:
        raise ValueError(f"perm must cover the {rows} rows, got {p.shape[0]}")
    if not (np.sort(p) == np.arange(rows)).all():
        raise ValueError("perm must be a permutation of the row indices")
    inverse = np.empty_like(p)
    inverse[p] = np.arange(rows)
    return p, inverse


@dataclass
class PropagationPlan:
    """CSR layout of the renormalized propagation of one (possibly disjoint)
    graph, built once per node batch.

    Every undirected edge contributes both directions. The forward order
    lists the entries stable-sorted by destination row, the backward order
    stable-sorted by source row; both share `indptr`, since each node has
    as many in- as out-edges. Each entry keeps its undirected edge id (mask
    weights are shared by both directions), and each forward entry its
    destination row, for the edge-weight adjoint. inv_deg is 1/(deg+1)
    per node.
    """

    num_nodes: int
    indptr: np.ndarray
    fwd_cols: np.ndarray
    fwd_rows: np.ndarray
    fwd_und: np.ndarray
    bwd_cols: np.ndarray
    bwd_und: np.ndarray
    inv_deg: np.ndarray
    num_und_edges: int

    @classmethod
    def from_edges(cls, edges: np.ndarray, num_nodes: int) -> "PropagationPlan":
        e = np.asarray(edges, dtype=np.int64)
        if e.ndim != 2 or e.shape[1] != 2:
            raise ValueError(f"edges must be shaped (m, 2), got {e.shape}")
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
        if e.size and (e.min() < 0 or e.max() >= num_nodes):
            raise ValueError(f"edge endpoint outside [0, {num_nodes})")
        und = e.shape[0]
        src = np.concatenate([e[:, 0], e[:, 1]])
        dst = np.concatenate([e[:, 1], e[:, 0]])
        ids = np.concatenate([np.arange(und), np.arange(und)])
        deg = np.bincount(dst, minlength=num_nodes)
        indptr = np.concatenate([[0], np.cumsum(deg)])
        fwd = np.argsort(dst, kind="stable")
        bwd = np.argsort(src, kind="stable")
        return cls(num_nodes=num_nodes, indptr=indptr,
                   fwd_cols=src[fwd], fwd_rows=dst[fwd], fwd_und=ids[fwd],
                   bwd_cols=dst[bwd], bwd_und=ids[bwd],
                   inv_deg=(1.0 / (deg + 1.0))[:, None], num_und_edges=und)


def _csr_rowsum(indptr: np.ndarray, cols: np.ndarray, data: np.ndarray,
                x: np.ndarray) -> np.ndarray:
    """out[i] = sum over entries p of row i of data[p] * x[cols[p]], each row
    started at 0 and summed in stored order (the order of a bincount
    scatter). The kernel behind `csr_matrix @ dense`, without building one;
    it checks no bounds, so PropagationPlan.from_edges and the row gathers
    check their indices first."""
    rows = indptr.shape[0] - 1
    k = x.shape[1]
    out = np.zeros((rows, k))
    _sparsetools.csr_matvecs(rows, x.shape[0], k, indptr, cols, data,
                             np.ascontiguousarray(x).ravel(), out.ravel())
    return out


def _edge_data(w: Tensor | None, und: np.ndarray) -> np.ndarray:
    """Data of CSR entries given their undirected edge ids: w's rows, or
    ones for the unweighted operator."""
    return np.ones(und.shape[0]) if w is None else w.data[und, 0]


def _propagate(f: np.ndarray, w: Tensor | None,
               plan: PropagationPlan) -> np.ndarray:
    """Forward of one propagation step: (f + A_w f) / (deg + 1)."""
    if w is not None and w.data.shape != (plan.num_und_edges, 1):
        raise ValueError(
            f"weights must be shaped ({plan.num_und_edges}, 1), got {w.data.shape}"
        )
    if f.shape[0] != plan.num_nodes:
        raise ValueError(
            f"signal has {f.shape[0]} rows, plan expects {plan.num_nodes}"
        )
    if plan.num_und_edges == 0:
        return f * plan.inv_deg
    out = _csr_rowsum(plan.indptr, plan.fwd_cols,
                      _edge_data(w, plan.fwd_und), f)
    out += f
    out *= plan.inv_deg
    return out


def _propagate_backward(g: np.ndarray, f: Tensor, w: Tensor | None,
                        plan: PropagationPlan) -> None:
    """Accumulate the adjoint of _propagate into f, then into w."""
    go = g * plan.inv_deg
    if plan.num_und_edges == 0:
        f._accumulate(go)
        return
    if f.requires_grad:
        back = _csr_rowsum(plan.indptr, plan.bwd_cols,
                           _edge_data(w, plan.bwd_und), go)
        back += go
        f._accumulate(back)
    if w is not None and w.requires_grad:
        per_dir = np.einsum("ek,ek->e", f.data[plan.fwd_cols], go[plan.fwd_rows])
        dw = np.bincount(plan.fwd_und, weights=per_dir,
                         minlength=plan.num_und_edges)
        w._accumulate(dw[:, None])


def propagate(f, plan: PropagationPlan) -> np.ndarray:
    """The unweighted propagation (f + A f) / (deg + 1) of a constant f, as
    gcn_layer computes it: a layer over a fixed input can take it from here
    once and pass it with plan None."""
    return _propagate(_as_matrix(f), None, plan)


def gcn_layer(f, weights, layer_weight, plan: PropagationPlan | None,
              relu: bool) -> Tensor:
    """One GCN layer as one node: the propagation (f + A_w f) / (deg + 1),
    a matmul, then relu if `relu` (the last layer of an encoder has none).
    `weights` is a (num_und_edges, 1) tensor applied to both directions of
    every edge, or None for the unweighted operator. With plan None, f is
    a constant that holds the propagation already (see propagate)."""
    f, lw = _coerce(f), _coerce(layer_weight)
    w = None if weights is None else _coerce(weights)
    if plan is None and (w is not None or f.requires_grad):
        raise ValueError("a gcn_layer without a plan takes a constant, "
                         "propagated input and no edge weights")
    prop = f.data if plan is None else _propagate(f.data, w, plan)
    data = prop @ lw.data
    if relu:
        np.maximum(data, 0.0, out=data)

    def backward(g: np.ndarray) -> None:
        # relu's output is positive exactly where its input is
        gz = g * (data > 0) if relu else g
        if lw.requires_grad:
            lw._accumulate(prop.T @ gz)
        if f.requires_grad or (w is not None and w.requires_grad):
            _propagate_backward(gz @ lw.data.T, f, w, plan)

    parents = tuple(t for t in (f, w, lw) if t is not None)
    return _make(data, parents, backward)


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row softmax after subtracting each row's max, which is taken a
    column at a time: a reduce along rows this short is slower, and max is
    exact, so the result has the bits of subtracting logits.max(axis=1).
    (Only NaN signs may differ, in a row that starts with a negative NaN:
    the reduce returns a positive one there.)"""
    top = logits[:, 0]
    for j in range(1, logits.shape[1]):
        top = np.maximum(top, logits[:, j])
    e = np.exp(logits - top[:, None])
    return e / e.sum(axis=1, keepdims=True)


def softmax_head(x: np.ndarray, weight: np.ndarray,
                 bias: np.ndarray) -> np.ndarray:
    """The class distribution rows softmax(x @ weight + bias) of a head, on
    plain arrays; the softmax subtracts each row's max first. head_nll
    takes its forward from here, two_head_loss the same rows per block."""
    return _softmax_rows(x @ weight + bias)


def _softmax_adjoint(g: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Adjoint of the logits of softmax rows `probs` for their adjoint g."""
    return probs * (g - (g * probs).sum(axis=1, keepdims=True))


def _head_adjoint(g: np.ndarray, probs: np.ndarray, x: np.ndarray,
                  weight: Tensor, bias: Tensor) -> np.ndarray:
    """Adjoint of a head's rows `probs` = softmax_head(x, weight, bias) for
    their adjoint g, accumulated into weight, then bias; returns x's
    adjoint."""
    gl = _softmax_adjoint(g, probs)
    weight._accumulate(x.T @ gl)
    bias._accumulate(_unbroadcast(gl, bias.data.shape))
    return gl @ weight.data.T


def edge_scorer(endpoints, x, w1, b1, w2, b2) -> Tensor:
    """Symmetric edge logits as one node: the mean of s(x_u||x_v) and
    s(x_v||x_u) for each edge (u, v) of `endpoints` (rows into x), with the
    MLP s(p) = relu(p @ w1 + b1) @ w2 + b2. Both endpoint orders are scored
    as one stacked matrix, and the halves are averaged as
    (top + bottom) * 0.5. No edges give a constant (0, 1) tensor."""
    e = np.asarray(endpoints, dtype=np.int64).reshape(-1, 2)
    if e.shape[0] == 0:
        return Tensor(np.zeros((0, 1)))
    w1, b1, w2, b2 = _coerce(w1), _coerce(b1), _coerce(w2), _coerce(b2)
    pairs = x[np.concatenate([e, e[:, ::-1]])].reshape(-1, 2 * x.shape[1])
    pre = pairs @ w1.data + b1.data
    hidden = np.maximum(pre, 0.0)
    scores = hidden @ w2.data + b2.data
    half = e.shape[0]
    data = (scores[:half] + scores[half:]) * 0.5

    def backward(g: np.ndarray) -> None:
        gh = g * 0.5
        gs = np.vstack([gh, gh])
        b2._accumulate(_unbroadcast(gs, b2.data.shape))
        w2._accumulate(hidden.T @ gs)
        if w1.requires_grad or b1.requires_grad:
            # relu's input is positive exactly where it passes the adjoint
            gz = (gs @ w2.data.T) * (pre > 0)
            b1._accumulate(_unbroadcast(gz, b1.data.shape))
            w1._accumulate(pairs.T @ gz)

    return _make(data, (w1, b1, w2, b2), backward)


def ego_readout(h, sizes, projection) -> Tensor:
    """Per-graph embedding as one node: graph i is the next sizes[i] >= 1
    rows of h, its ego row first, and reads [ego row ; mean of its rows]
    @ projection. The means sum each graph's rows in order, from 0, as one
    CSR row sum."""
    h, projection = _coerce(h), _coerce(projection)
    sizes = np.asarray(sizes, dtype=np.int64).reshape(-1)
    rows, k = h.data.shape
    if (sizes < 1).any() or sizes.sum() != rows:
        raise ValueError(f"ego sizes must be >= 1 and sum to the {rows} rows "
                         f"of h, got {sizes.shape[0]} sizes summing to {sizes.sum()}")
    ends = np.cumsum(sizes)
    idx = ends - sizes
    sums = _csr_rowsum(np.concatenate([[0], ends]), np.arange(rows),
                       np.ones(rows), h.data)
    joined = np.hstack([h.data[idx], sums / sizes[:, None]])
    data = joined @ projection.data

    def backward(g: np.ndarray) -> None:
        projection._accumulate(joined.T @ g)
        if h.requires_grad:
            gj = g @ projection.data.T
            h._accumulate(np.repeat(gj[:, k:] / sizes[:, None], sizes, axis=0))
            h._accumulate(_row_scatter(h.data.shape, idx, gj[:, :k]))

    return _make(data, (h, projection), backward)


def _labels(labels, rows: int, classes: int) -> np.ndarray:
    """`labels` as validated class ids, one per row."""
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    if y.shape[0] != rows:
        raise ValueError("labels must match the number of rows")
    if y.size and (y.min() < 0 or y.max() >= classes):
        raise ValueError("label outside the class range")
    return y


def head_nll(h, rows, weight, bias, labels) -> Tensor:
    """Mean cross-entropy 0 - log p_y, clamped below at 1e-12, of the
    softmax head (weight, bias) on the rows `rows` of h, as one node with
    the bits of the chain of a row gather, softmax_head, the per-row
    cross-entropy and the mean; adjoints reach weight, bias, then h."""
    h, weight, bias = _coerce(h), _coerce(weight), _coerce(bias)
    idx = np.asarray(rows, dtype=np.int64).reshape(-1)
    if idx.size and (idx.min() < 0 or idx.max() >= len(h.data)):
        raise ValueError(f"row index outside [0, {len(h.data)})")
    x = h.data[idx]
    probs = softmax_head(x, weight.data, bias.data)
    y = _labels(labels, *probs.shape)
    picks = np.arange(y.shape[0])
    clamped = np.maximum(probs[picks, y][:, None], LOG_CLAMP)
    nll = 0.0 - np.log(clamped)
    data = np.array([[_mean(nll, None, False)]])

    def backward(g: np.ndarray) -> None:
        dp = np.zeros_like(probs)
        dp[picks, y] = -(g[0, 0] / nll.size) / clamped[:, 0]
        gx = _head_adjoint(dp, probs, x, weight, bias)
        if h.requires_grad:
            h._accumulate(_row_scatter(h.data.shape, idx, gx))

    return _make(data, (h, weight, bias), backward)


def _difficulty_weights(ce_shortcut: np.ndarray,
                        ce_causal: np.ndarray) -> np.ndarray:
    """Relative difficulty W = CE_s / (CE_s + CE_c) of detached per-sample
    cross-entropies (float arrays of one shape), a stop-gradient quantity;
    a denominator of at most 1e-12 (0/0 among them) resolves to 0.5."""
    denom = ce_shortcut + ce_causal
    return np.divide(ce_shortcut, denom, out=np.full(denom.shape, 0.5),
                     where=denom > 1e-12)


def two_head_loss(graph_causal, graph_shortcut, head_causal, head_shortcut, labels,
                  q: float, perm, coefficients) -> tuple[Tensor | None, dict[str, float]]:
    """The shortcut, causal and counterfactual terms of the CD-GNN
    objective, weighed and summed as one node, plus their raw values.

    With p_s and p_c the softmax heads (weight, bias) `head_shortcut` and
    `head_causal` on the factual pass [graph_causal ; graph_shortcut]:
    - loss_s, the mean GCE (1 - p_s[y]^q) / q, with q in (0, 1];
    - loss_c, the mean of W * CE(p_c), where W is the _difficulty_weights
      of the detached per-row cross-entropies ce_s and ce_c of both heads;
    - loss_cf, the mean of GCE(shortcut head, y[perm]) + W * CE(causal
      head, y) on the counterfactual pass [graph_causal ;
      graph_shortcut[perm]]; it needs a batch of at least 2 and a
      permutation `perm` of it.
    The readouts must have one row count, and both heads one class count
    C, a (1, C) bias and a weight with a row per joint column.
    Logs are clamped below at 1e-12. The node is the sum, left to right,
    of each term times its entry of the three `coefficients` (x * 1.0 is
    x, so a term weighed 1 has the bits of the term itself), a term
    weighed 0 entering not at all; with all three 0 there is no node
    (None). The dict holds the three raw terms and the mean ce_s and ce_c.

    The factual pass is the counterfactual one under the identity. The four
    (pass, head) reads share one stacked array: each block's logits come
    from its own matmul, and the softmax, the picks, their one log and the
    softmax adjoint then run once over all four, which is row-local and so
    gives each block's bits. The value and every adjoint are the bits of
    the chain of softmax_head, GCE and nll_rows, mean, concat_cols,
    permute_rows, multiply and add nodes this replaces: adjoints reach the
    heads, causal first, then graph_causal and graph_shortcut,
    counterfactual pass first, in that chain's order.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    h_c, h_s = _coerce(graph_causal), _coerce(graph_shortcut)
    heads = [tuple(map(_coerce, head)) for head in (head_causal, head_shortcut)]
    (w_c, b_c), (w_s, b_s) = heads
    n, split = h_c.data.shape
    width, classes = split + h_s.data.shape[1], w_s.data.shape[1]
    if (h_s.data.shape[0] != n
            or not w_c.data.shape == w_s.data.shape == (width, classes)
            or not b_c.data.shape == b_s.data.shape == (1, classes)):
        raise ValueError(
            f"two_head_loss needs readouts of one row count and two heads "
            f"of weight ({width}, C) and bias (1, C) alike; got readouts "
            f"{h_c.data.shape} and {h_s.data.shape}, heads {w_c.data.shape} "
            f"+ {b_c.data.shape} and {w_s.data.shape} + {b_s.data.shape}")
    y = _labels(labels, n, classes)
    if n < 2:
        raise ValueError("counterfactual loss needs a batch of at least 2")
    perm, inverse = _permutation(perm, n)
    qa, inv_q = _as_matrix(q), _as_matrix(1.0 / q)

    # pass 0 is factual, pass 1 counterfactual; head 0 causal, 1 shortcut
    x = np.empty((2, n, width))
    x[:, :, :split] = h_c.data
    x[0, :, split:] = h_s.data
    x[1, :, split:] = h_s.data[perm]
    logits = np.empty((2, 2, n, classes))
    for p in (0, 1):
        for head, (w, b) in enumerate(heads):
            np.matmul(x[p], w.data, out=logits[p, head])
    logits += np.concatenate([b_c.data, b_s.data])[:, None]
    probs = _softmax_rows(logits.reshape(-1, classes))
    # the flat entry of each block's picked class: y, but y[perm] for the
    # counterfactual shortcut head
    picks = np.concatenate([y, y, y, y[perm]])
    picks += np.arange(0, picks.size * classes, classes)
    picked = np.maximum(probs.reshape(-1)[picks], LOG_CLAMP).reshape(2, 2, n, 1)
    logs = np.log(picked)
    ce = 0.0 - logs
    powered = np.exp(qa * logs[:, 1])  # p^q of the shortcut head
    gce = (1.0 - powered) * inv_q
    ce_c, ce_s, ce_cx = ce[0, 0], ce[0, 1], ce[1, 0]
    weights = _difficulty_weights(ce_s, ce_c)

    terms = [np.array([[_mean(t, None, False)]])
             for t in (gce[0], ce_c * weights, gce[1] + ce_cx * weights)]
    values = dict(zip(("loss_s", "loss_c", "loss_cf"),
                      (float(t[0, 0]) for t in terms)))
    values["ce_s"] = float(_mean(ce_s.reshape(-1), None, False))
    values["ce_c"] = float(_mean(ce_c.reshape(-1), None, False))
    scales = [None if c == 0.0 else _as_matrix(c) for c in coefficients]
    data = None
    for term, scale in zip(terms, scales):
        if scale is not None:
            data = term * scale if data is None else data + term * scale
    if data is None:
        return None, values
    # which (pass, head) blocks a weighed term reads
    live = ((scales[1] is not None, scales[0] is not None),
            (scales[2] is not None,) * 2)

    def backward(g: np.ndarray) -> None:
        # the adjoint of each weighed term's per-row values, via its mean,
        # per (pass, head) block; 0 where no weighed term reads the block
        gs, gc, gcf = (0.0 if scale is None else (g * scale)[0, 0] / n
                       for scale in scales)
        g_rows = np.array([[gc, gs], [gcf, gcf]])[:, :, None, None]
        gp = np.empty_like(picked)
        gp[:, 0] = -(g_rows[:, 0] * weights)
        gp[:, 1] = -(g_rows[:, 1] * inv_q) * powered * qa
        gp /= picked
        dp = np.zeros(probs.size)
        dp[picks] = gp.reshape(-1)
        gl = _softmax_adjoint(dp.reshape(probs.shape), probs).reshape(logits.shape)
        gb = gl.sum(axis=2, keepdims=True)
        for p, back in ((1, inverse), (0, None)):
            gx = None
            for head, (w, b) in enumerate(heads):
                if live[p][head]:
                    w._accumulate(x[p].T @ gl[p, head])
                    b._accumulate(gb[p, head])
                    part = gl[p, head] @ w.data.T
                    gx = part if gx is None else gx + part
            if gx is not None:
                h_c._accumulate(gx[:, :split].copy())
                h_s._accumulate(gx[:, split:].copy() if back is None
                                else gx[:, split:][back])

    return _make(data, (h_c, h_s, w_c, b_c, w_s, b_s), backward), values


def _centered(k: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Double centering H K H with H = I - 11^T/n (self-adjoint, linear),
    written to `out` (which may be k itself) or to a new array."""
    row = _mean(k, 1, True)
    col = _mean(k, 0, True)
    mean = _mean(k, None, False)
    out = np.subtract(k, row, out=out)
    out -= col
    out += mean
    return out


# Inputs of up to this many rows share one cached upper-triangle mask;
# larger ones get a larger power-of-two mask.
_MASK_ROWS = 256


@functools.lru_cache(maxsize=1)
def _upper_mask(size: int) -> np.ndarray:
    """Read-only mask of the entries above the diagonal of a size x size
    matrix; its top-left n x n block is the mask of an n x n matrix."""
    mask = np.triu(np.ones((size, size), dtype=bool), k=1)
    mask.flags.writeable = False
    return mask


def _median(values: np.ndarray) -> float:
    """np.median of a 1-D array, bit for bit, from one selection: the lower
    middle value of an even count is the max of the part left of the upper
    one, and the two are averaged as np.mean averages them."""
    if np.isnan(values).any():
        return float("nan")
    half = values.size // 2
    part = np.partition(values, half)
    if values.size % 2:
        return float(part[half])
    return float((part[:half].max() + part[half]) / 2)


def _rbf(x: np.ndarray) -> tuple[np.ndarray, float]:
    """Gaussian gram exp(-max(|x_i|^2 + |x_j|^2 - 2 x_i.x_j, 0) / (2 bw^2))
    of the rows of x at bw = sqrt(median over i < j of that distance / 2),
    or 1 where the median is 0 or x has one row; and bw. The bandwidth's
    distances take (2x) @ x.T (gemm), the gram's x @ x.T (syrk): bits apart."""
    sq = (x * x).sum(axis=1, keepdims=True)
    k = sq + sq.T
    n = x.shape[0]
    upper = _upper_mask(max(_MASK_ROWS, 1 << (n - 1).bit_length()))[:n, :n]
    med = _median(np.maximum(k - 2.0 * x @ x.T, 0.0)[upper]) if n > 1 else 0.0
    bw = 1.0 if med <= 0.0 else float(np.sqrt(med / 2.0))
    dots = x @ x.T
    dots *= 2.0
    k -= dots
    np.maximum(k, 0.0, out=k)
    k /= -(2.0 * bw * bw)
    return np.exp(k, out=k), bw


def _rbf_backward(g: np.ndarray, x: np.ndarray, k: np.ndarray,
                  bw: float) -> np.ndarray:
    """Adjoint of _rbf at x for the gram adjoint g, which it overwrites."""
    m = np.multiply(g, k, out=g)
    m /= -(2.0 * bw * bw)
    s = m + m.T
    out = s.sum(axis=1, keepdims=True) * x
    out -= s @ x
    out *= 2.0
    return out


def hsic_rbf(x, y, rows=None) -> Tensor:
    """Biased HSIC sum(HKxH * HKyH) / (n-1)^2 of aligned rows as one node,
    with Gaussian kernels K_ij = exp(-|r_i - r_j|^2 / (2 bw^2)) at each
    input's median-heuristic bandwidth of the rows read (_rbf), a
    stop-gradient statistic.

    `rows`, when given, holds row indices: the estimate then reads those
    rows of both inputs, in that order, as take_rows of each would, and
    scatters the gradients back as its adjoint does.
    """
    x, y = _coerce(x), _coerce(y)
    total = x.data.shape[0]
    if y.data.shape[0] != total:
        raise ValueError(
            f"hsic_rbf needs two inputs with the same number of rows, got "
            f"{total} and {y.data.shape[0]}")
    xs, ys = x.data, y.data
    if rows is not None:
        rows = np.asarray(rows, dtype=np.int64).reshape(-1)
        if rows.size and (rows.min() < 0 or rows.max() >= total):
            raise ValueError(f"row index outside [0, {total})")
        xs, ys = xs[rows], ys[rows]
    n = xs.shape[0]
    if n < 2:
        raise ValueError(f"hsic_rbf needs at least 2 rows, got {n}")
    kx, bx = _rbf(xs)
    ky, by = _rbf(ys)
    kxc = _centered(kx)
    kyc = _centered(ky)
    scale = _as_matrix(1.0 / (n - 1.0) ** 2)
    data = np.array([[(kxc * kyc).sum()]]) * scale

    def backward(g: np.ndarray) -> None:
        gp = (g * scale)[0, 0]
        # y's part first: with x is y, the adds into it keep this order
        for t, kc, k, sample, bw in ((y, kxc, ky, ys, by), (x, kyc, kx, xs, bx)):
            if t.requires_grad:
                gk = np.multiply(gp, kc)
                gs = _rbf_backward(_centered(gk, out=gk), sample, k, bw)
                t._accumulate(gs if rows is None
                              else _row_scatter(t.data.shape, rows, gs))

    return _make(data, (x, y), backward)


class AdamState:
    """One run's Adam: the parameters as named views into one float64
    buffer (`params`, over `flat`), flat first and second moments beside
    it, the learning rate per entry and the step count.

    `lr` is one rate for every parameter or a dict of rates keyed like
    `params` (parameter groups stepping together). The state copies the
    table it starts from; adam_step updates `flat`, and so every view in
    `params`, in place.
    """

    def __init__(self, params: dict, lr: float | dict) -> None:
        rates = lr if isinstance(lr, dict) else dict.fromkeys(params, lr)
        missing = params.keys() - rates.keys()
        if missing:
            raise ValueError(f"no learning rate for {sorted(missing)}")
        for rate in rates.values():
            if rate <= 0:
                raise ValueError(f"learning rate must be positive, got {rate}")
        sizes = [p.size for p in params.values()]
        self.flat = np.concatenate([p.reshape(-1) for p in params.values()],
                                   dtype=np.float64)
        stops = np.cumsum(sizes).tolist()
        self.params = {name: self.flat[stop - size:stop].reshape(p.shape)
                       for (name, p), size, stop
                       in zip(params.items(), sizes, stops)}
        # element-wise, the products are those of the per-parameter rates
        self.lr = np.repeat([rates[k] for k in params], sizes)
        # -0.0 is the identity of +, so the first step's moments are
        # exactly (1 - beta) * g, sign bits included
        self.m = np.full_like(self.flat, -0.0)
        self.v = np.full_like(self.flat, -0.0)
        self.step = 0


# Adam's moment decays and the term that keeps its denominator off zero.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def adam_step(state: AdamState, grads: dict,
              weight_decay: float = 0.0) -> None:
    """One Adam update with decoupled weight decay (lr * wd * param), in
    place on `state`.

    Every parameter steps at once, on the flat buffers; Adam is
    element-wise, so the result is bitwise that of stepping them one by
    one. `grads` holds a gradient for every parameter.
    """
    parts = []
    for name, p in state.params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"{name} is shaped {g.shape}, its parameter "
                             f"{p.shape}")
        parts.append(g.reshape(-1))
    g = np.concatenate(parts, dtype=np.float64)
    state.step += 1
    correction1 = 1.0 - ADAM_BETA1**state.step
    correction2 = 1.0 - ADAM_BETA2**state.step
    m, v, flat = state.m, state.v, state.flat
    m *= ADAM_BETA1
    m += (1 - ADAM_BETA1) * g
    fresh = (1 - ADAM_BETA2) * g
    fresh *= g
    v *= ADAM_BETA2
    v += fresh
    denom = v / correction2
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    step = m / correction1
    step *= state.lr
    step /= denom
    decay = (state.lr * weight_decay) * flat
    np.subtract(flat, decay, out=flat)
    flat -= step


def _reached(loss: Tensor) -> list[Tensor]:
    """The operations' outputs `loss` depends on, itself included, in
    creation order."""
    ops, seen = [], set()
    stack = [] if loss._backward is None else [loss]
    while stack:
        t = stack.pop()
        ops.append(t)
        for p in t._parents or ():
            if p._backward is not None and p not in seen:
                seen.add(p)
                stack.append(p)
    ops.sort(key=attrgetter("_index"))
    return ops


def gradients(loss: Tensor, leaves: dict) -> dict:
    """d loss / d leaf for every tensor of `leaves` (made by `leaves()`),
    keyed alike; leaves that do not influence the loss get zeros.

    Each node walked is spent once its adjoint has run: its gradient,
    adjoint (with the forward arrays it kept) and parents are dropped, and
    a second walk through it raises. The leaves hand their gradients over
    and are left clear for the next step.
    """
    for name, t in leaves.items():
        if t._backward is not None:
            raise ValueError(f"{name} is an operation's output, not a leaf")
    if loss.data.shape != (1, 1):
        raise ValueError(f"loss must be scalar shaped (1, 1), got {loss.data.shape}")
    if not np.isfinite(loss.data[0, 0]):
        raise FloatingPointError(f"loss is not finite: {loss.data[0, 0]}")
    ops = _reached(loss)
    loss._accumulate(np.ones((1, 1)))
    while ops:
        node = ops.pop()
        if node.grad is not None:
            node._backward(node.grad)
        node.grad = node._parents = None
        node._backward = _spent
    grads = {name: np.zeros_like(t.data) if t.grad is None else t.grad
             for name, t in leaves.items()}
    for t in leaves.values():
        t.grad = None
    return grads
