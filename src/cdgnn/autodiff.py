"""Tape-based reverse-mode differentiation on dense float64 matrices.

Every value is a 2-D array (scalars are (1, 1)). Operations record onto the
tape of their inputs; Tape.backward walks the recorded nodes once in reverse
creation order and accumulates gradients into every tensor that requires
them. Graph propagation is expressed as gather-scatter over an edge list, so
no dense adjacency matrix is ever materialized.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Tape",
    "Tensor",
    "PropagationPlan",
    "matmul", "add", "subtract", "multiply", "exp", "log",
    "sigmoid", "relu", "row_softmax", "mean", "sum_all", "concat_cols",
    "dropout", "rbf_gram", "center_gram", "take_rows",
    "segment_mean_rows", "pick_class", "permute_rows", "masked_propagate",
    "AdamState", "adam_step", "gradients",
]

LOG_CLAMP = 1e-12


class Tape:
    """Ordered record of differentiable operations."""

    def __init__(self) -> None:
        self._nodes: list[Tensor] = []

    def leaf(self, data, requires_grad: bool = True) -> "Tensor":
        t = Tensor(_as_matrix(data), tape=self, requires_grad=requires_grad)
        if requires_grad:
            self._nodes.append(t)
        return t

    def _record(self, t: "Tensor") -> None:
        self._nodes.append(t)

    def backward(self, loss: "Tensor") -> None:
        """Accumulate d loss / d node into .grad for every recorded tensor.

        Re-running from the same forward state reproduces identical grads:
        all gradients are cleared first.
        """
        if loss.tape is not self:
            raise ValueError("loss does not live on this tape")
        if loss.data.shape != (1, 1):
            raise ValueError(f"loss must be scalar shaped (1, 1), got {loss.data.shape}")
        if not np.isfinite(loss.data[0, 0]):
            raise FloatingPointError(f"loss is not finite: {loss.data[0, 0]}")
        for node in self._nodes:
            node.grad = None
        loss.grad = np.ones((1, 1), dtype=np.float64)
        for node in reversed(self._nodes):
            if node.grad is None or node._backward is None:
                continue
            node._backward(node.grad)


class Tensor:
    """A dense matrix tracked (optionally) for reverse-mode gradients."""

    __slots__ = ("data", "grad", "requires_grad", "tape", "_backward")

    def __init__(self, data: np.ndarray, tape: Tape | None = None,
                 requires_grad: bool = False, backward=None) -> None:
        self.data = data
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.tape = tape
        self._backward = backward

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a single-entry tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def _accumulate(self, g: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g


def _as_matrix(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    if arr.ndim != 2:
        raise ValueError(f"tensors are 2-D; got array of shape {arr.shape}")
    return arr


def _coerce(x, tape: Tape | None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(_as_matrix(x), tape=tape, requires_grad=False)


def _shared_tape(*xs) -> Tape | None:
    tape = None
    for x in xs:
        if isinstance(x, Tensor) and x.tape is not None:
            if tape is None:
                tape = x.tape
            elif tape is not x.tape:
                raise ValueError("operands live on different tapes")
    return tape


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    tape = _shared_tape(*parents)
    needs = any(p.requires_grad for p in parents)
    out = Tensor(data, tape=tape, requires_grad=needs,
                 backward=backward if needs else None)
    if needs and tape is not None:
        tape._record(out)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    for ax in (0, 1):
        if shape[ax] == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def matmul(a, b) -> Tensor:
    a = _coerce(a, _shared_tape(a, b))
    b = _coerce(b, a.tape)
    data = a.data @ b.data

    def backward(g: np.ndarray) -> None:
        a._accumulate(g @ b.data.T)
        b._accumulate(a.data.T @ g)

    return _make(data, (a, b), backward)


def add(a, b) -> Tensor:
    a = _coerce(a, _shared_tape(a, b))
    b = _coerce(b, a.tape)
    data = a.data + b.data

    def backward(g: np.ndarray) -> None:
        a._accumulate(_unbroadcast(g, a.data.shape))
        b._accumulate(_unbroadcast(g, b.data.shape))

    return _make(data, (a, b), backward)


def subtract(a, b) -> Tensor:
    a = _coerce(a, _shared_tape(a, b))
    b = _coerce(b, a.tape)
    data = a.data - b.data

    def backward(g: np.ndarray) -> None:
        a._accumulate(_unbroadcast(g, a.data.shape))
        b._accumulate(_unbroadcast(-g, b.data.shape))

    return _make(data, (a, b), backward)


def multiply(a, b) -> Tensor:
    a = _coerce(a, _shared_tape(a, b))
    b = _coerce(b, a.tape)
    data = a.data * b.data

    def backward(g: np.ndarray) -> None:
        a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _make(data, (a, b), backward)


def exp(a) -> Tensor:
    a = _coerce(a, _shared_tape(a))
    data = np.exp(a.data)

    def backward(g: np.ndarray) -> None:
        a._accumulate(g * data)

    return _make(data, (a,), backward)


def log(a) -> Tensor:
    """Natural log with the argument clamped below at 1e-12."""
    a = _coerce(a, _shared_tape(a))
    clamped = np.maximum(a.data, LOG_CLAMP)
    data = np.log(clamped)

    def backward(g: np.ndarray) -> None:
        a._accumulate(g / clamped)

    return _make(data, (a,), backward)


def sigmoid(a) -> Tensor:
    a = _coerce(a, _shared_tape(a))
    data = np.empty_like(a.data)
    pos = a.data >= 0
    data[pos] = 1.0 / (1.0 + np.exp(-a.data[pos]))
    ex = np.exp(a.data[~pos])
    data[~pos] = ex / (1.0 + ex)

    def backward(g: np.ndarray) -> None:
        a._accumulate(g * data * (1.0 - data))

    return _make(data, (a,), backward)


def relu(a) -> Tensor:
    a = _coerce(a, _shared_tape(a))
    data = np.maximum(a.data, 0.0)

    def backward(g: np.ndarray) -> None:
        a._accumulate(g * (a.data > 0))

    return _make(data, (a,), backward)


def row_softmax(a) -> Tensor:
    """Softmax along each row, stabilized by max subtraction."""
    a = _coerce(a, _shared_tape(a))
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=1, keepdims=True)

    def backward(g: np.ndarray) -> None:
        dot = (g * data).sum(axis=1, keepdims=True)
        a._accumulate(data * (g - dot))

    return _make(data, (a,), backward)


def mean(a) -> Tensor:
    a = _coerce(a, _shared_tape(a))
    data = np.array([[a.data.mean()]])

    def backward(g: np.ndarray) -> None:
        a._accumulate(np.full_like(a.data, g[0, 0] / a.data.size))

    return _make(data, (a,), backward)


def sum_all(a) -> Tensor:
    a = _coerce(a, _shared_tape(a))
    data = np.array([[a.data.sum()]])

    def backward(g: np.ndarray) -> None:
        a._accumulate(np.full_like(a.data, g[0, 0]))

    return _make(data, (a,), backward)


def concat_cols(a, b) -> Tensor:
    a = _coerce(a, _shared_tape(a, b))
    b = _coerce(b, a.tape)
    if a.data.shape[0] != b.data.shape[0]:
        raise ValueError(
            f"concat_cols needs matching row counts, got {a.data.shape} and {b.data.shape}"
        )
    data = np.hstack([a.data, b.data])
    split = a.data.shape[1]

    def backward(g: np.ndarray) -> None:
        a._accumulate(g[:, :split])
        b._accumulate(g[:, split:])

    return _make(data, (a, b), backward)


def dropout(a, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; rate 0 is the identity (same tensor object)."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return a if isinstance(a, Tensor) else _coerce(a, None)
    a = _coerce(a, _shared_tape(a))
    mask = (rng.random(a.data.shape) >= rate) / (1.0 - rate)
    data = a.data * mask

    def backward(g: np.ndarray) -> None:
        a._accumulate(g * mask)

    return _make(data, (a,), backward)


def rbf_gram(a, bandwidth: float) -> Tensor:
    """Gaussian kernel gram matrix K_ij = exp(-|x_i - x_j|^2 / (2 bw^2))."""
    a = _coerce(a, _shared_tape(a))
    bw = float(bandwidth)
    if bw <= 0:
        raise ValueError(f"bandwidth must be positive, got {bw}")
    sq = (a.data * a.data).sum(axis=1, keepdims=True)
    d2 = np.maximum(sq + sq.T - 2.0 * (a.data @ a.data.T), 0.0)
    data = np.exp(-d2 / (2.0 * bw * bw))

    def backward(g: np.ndarray) -> None:
        m = -(g * data) / (2.0 * bw * bw)
        s = m + m.T
        a._accumulate(2.0 * (s.sum(axis=1, keepdims=True) * a.data - s @ a.data))

    return _make(data, (a,), backward)


def center_gram(k) -> Tensor:
    """Double centering H K H with H = I - 11^T/n (self-adjoint, linear)."""
    k = _coerce(k, _shared_tape(k))
    if k.data.shape[0] != k.data.shape[1]:
        raise ValueError(f"center_gram needs a square matrix, got {k.data.shape}")

    def centered(x: np.ndarray) -> np.ndarray:
        rm = x.mean(axis=1, keepdims=True)
        cm = x.mean(axis=0, keepdims=True)
        return x - rm - cm + x.mean()

    data = centered(k.data)

    def backward(g: np.ndarray) -> None:
        k._accumulate(centered(g))

    return _make(data, (k,), backward)


def take_rows(a, indices) -> Tensor:
    a = _coerce(a, _shared_tape(a))
    idx = np.asarray(indices, dtype=np.int64).reshape(-1)
    data = a.data[idx].copy()

    def backward(g: np.ndarray) -> None:
        da = np.zeros_like(a.data)
        np.add.at(da, idx, g)
        a._accumulate(da)

    return _make(data, (a,), backward)


def segment_mean_rows(a, segments, num_segments: int) -> Tensor:
    """Row means per segment id; every segment must be non-empty."""
    a = _coerce(a, _shared_tape(a))
    seg = np.asarray(segments, dtype=np.int64).reshape(-1)
    if seg.shape[0] != a.data.shape[0]:
        raise ValueError("segments must assign an id to every row")
    counts = np.bincount(seg, minlength=num_segments).astype(np.float64)
    if (counts == 0).any():
        raise ValueError("every segment must contain at least one row")
    k = a.data.shape[1]
    flat = seg[:, None] * k + np.arange(k)[None, :]
    sums = np.bincount(flat.ravel(), weights=a.data.ravel(),
                       minlength=num_segments * k).reshape(num_segments, k)
    data = sums / counts[:, None]

    def backward(g: np.ndarray) -> None:
        a._accumulate(g[seg] / counts[seg][:, None])

    return _make(data, (a,), backward)


def pick_class(probs, labels) -> Tensor:
    """Column vector of probs[i, labels[i]]."""
    probs = _coerce(probs, _shared_tape(probs))
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    if y.shape[0] != probs.data.shape[0]:
        raise ValueError("labels must match the number of rows")
    if y.size and ((y < 0).any() or (y >= probs.data.shape[1]).any()):
        raise ValueError("label outside the class range")
    rows = np.arange(y.shape[0])
    data = probs.data[rows, y][:, None].copy()

    def backward(g: np.ndarray) -> None:
        dp = np.zeros_like(probs.data)
        dp[rows, y] = g[:, 0]
        probs._accumulate(dp)

    return _make(data, (probs,), backward)


def permute_rows(a, perm) -> Tensor:
    a = _coerce(a, _shared_tape(a))
    p = np.asarray(perm, dtype=np.int64).reshape(-1)
    if sorted(p.tolist()) != list(range(a.data.shape[0])):
        raise ValueError("perm must be a permutation of the row indices")
    data = a.data[p].copy()
    inv = np.empty_like(p)
    inv[p] = np.arange(p.shape[0])

    def backward(g: np.ndarray) -> None:
        a._accumulate(g[inv])

    return _make(data, (a,), backward)


@dataclass
class PropagationPlan:
    """Static gather-scatter layout for one (possibly disjoint) graph.

    Built once per node batch; holds both edge directions, the map from
    directed edges back to undirected edge ids (mask weights are shared by
    both directions), and 1/(deg+1) per node.
    """

    num_nodes: int
    src: np.ndarray
    dst: np.ndarray
    dir_to_und: np.ndarray
    inv_deg: np.ndarray
    num_und_edges: int

    @classmethod
    def from_edges(cls, edges: np.ndarray, num_nodes: int) -> "PropagationPlan":
        e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        und = e.shape[0]
        src = np.concatenate([e[:, 0], e[:, 1]])
        dst = np.concatenate([e[:, 1], e[:, 0]])
        ids = np.concatenate([np.arange(und), np.arange(und)])
        deg = np.bincount(np.concatenate([e[:, 0], e[:, 1]]),
                          minlength=num_nodes).astype(np.float64)
        return cls(num_nodes=num_nodes, src=src, dst=dst, dir_to_und=ids,
                   inv_deg=(1.0 / (deg + 1.0))[:, None], num_und_edges=und)


def _scatter_rows(values: np.ndarray, dst: np.ndarray, num_rows: int) -> np.ndarray:
    k = values.shape[1]
    flat = dst[:, None] * k + np.arange(k)[None, :]
    return np.bincount(flat.ravel(), weights=values.ravel(),
                       minlength=num_rows * k).reshape(num_rows, k)


def masked_propagate(f, weights, plan: PropagationPlan) -> Tensor:
    """One renormalized propagation step with per-edge weights.

    out_i = (f_i + sum_j w_ij f_j) / (deg_i + 1). `weights` is a
    (num_und_edges, 1) tensor applied to both directions of every edge, or
    None for the unweighted operator.
    """
    f = _coerce(f, _shared_tape(f, weights))
    if f.data.shape[0] != plan.num_nodes:
        raise ValueError(
            f"signal has {f.data.shape[0]} rows, plan expects {plan.num_nodes}"
        )
    w = None if weights is None else _coerce(weights, f.tape)
    if w is not None and w.data.shape != (plan.num_und_edges, 1):
        raise ValueError(
            f"weights must be shaped ({plan.num_und_edges}, 1), got {w.data.shape}"
        )
    if plan.src.size == 0:
        data = f.data * plan.inv_deg

        def backward_empty(g: np.ndarray) -> None:
            f._accumulate(g * plan.inv_deg)

        parents = (f,) if w is None else (f, w)
        return _make(data, parents, backward_empty)

    w_dir = None if w is None else w.data[plan.dir_to_und, 0]
    gathered = f.data[plan.src]
    vals = gathered if w_dir is None else w_dir[:, None] * gathered
    data = (f.data + _scatter_rows(vals, plan.dst, plan.num_nodes)) * plan.inv_deg

    def backward(g: np.ndarray) -> None:
        go = g * plan.inv_deg
        go_dst = go[plan.dst]
        back = go_dst if w_dir is None else w_dir[:, None] * go_dst
        f._accumulate(go + _scatter_rows(back, plan.src, plan.num_nodes))
        if w is not None and w.requires_grad:
            per_dir = np.einsum("ek,ek->e", gathered, go_dst)
            dw = np.bincount(plan.dir_to_und, weights=per_dir,
                             minlength=plan.num_und_edges)
            w._accumulate(dw[:, None])

    parents = (f,) if w is None else (f, w)
    return _make(data, parents, backward)


@dataclass
class AdamState:
    """First/second moment accumulators, keyed like the parameter dict."""

    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: dict, grads: dict, state: AdamState | None,
              lr: float, weight_decay: float = 0.0, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> tuple[dict, AdamState]:
    """One Adam update with decoupled weight decay (lr * wd * param).

    Missing gradient entries are treated as zero. Returns fresh dicts; the
    inputs are not mutated.
    """
    if lr <= 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    if state is None:
        state = AdamState()
    t = state.step + 1
    new_params: dict = {}
    new_m: dict = {}
    new_v: dict = {}
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p)
        m = state.m.get(name)
        v = state.v.get(name)
        m = (1 - beta1) * g if m is None else beta1 * m + (1 - beta1) * g
        v = (1 - beta2) * g * g if v is None else beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        new_params[name] = p - lr * weight_decay * p - lr * m_hat / (np.sqrt(v_hat) + eps)
        new_m[name] = m
        new_v[name] = v
    return new_params, AdamState(step=t, m=new_m, v=new_v)


def gradients(tape: Tape, loss: Tensor, leaves: dict) -> dict:
    """Run backward and return a gradient table keyed like `leaves`.

    Leaves that do not influence the loss get zero gradients.
    """
    tape.backward(loss)
    out = {}
    for name, t in leaves.items():
        out[name] = np.zeros_like(t.data) if t.grad is None else t.grad.copy()
    return out
