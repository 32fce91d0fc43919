"""Composed oracles of the fused autodiff primitives.

Every fused primitive of cdgnn.autodiff records one node for a chain of
smaller primitives. The chains are written out here, node by node, so that
tests can require each fused op to reproduce its chain bit for bit, values
and gradients alike. The primitives that only these chains and the tests
use (exp, log, sum_all, relu, mean, take_rows, permute_rows,
segment_mean_rows, masked_propagate, rbf_gram, center_gram, row_softmax,
pick_class) live here too, as ops with their own adjoints, beside
gce_grad_identity_check, the GCE gradient identity.

gather_scatter_propagate is the oracle of the CSR propagation: the edge-list
gather and bincount scatter that PropagationPlan replaced. add_at_take_rows
is likewise the oracle of take_rows, whose adjoint runs as a CSR row sum.
adam_step is the per-parameter loop that the flat-buffer Adam replaced.
hsic_value is ad.hsic_rbf on plain arrays, and audit_cross_class_ratios is
assumption_audit's old per-layer loop, which propagated the causal branch
again from its masks instead of reading the forward's layers.
median_bandwidth and rbf are the bandwidth and the gram that ad._rbf now
computes in one pass, each from its own squared distances, and
masked_sigmoid the sigmoid that gathered and scattered its two signs.
ego_dict and batch_from_dict are the ego cache as one ego_subgraph per node
and its batch assembly, chunk by chunk, which the flat EgoTable and
batch_from_cache's gathers replaced; held_egos reads a table as that dict.
composed_objective_case is total_loss written out term by term, the
objective whose gradient acceptance criterion c01 checks. gce_rows and
mean_of_halves are chains with no fused op of their own left: the fused
two_head_loss and edge_scorer hold them. nll_rows is the per-row
cross-entropy 0 - log p_y, optionally weighted per row: unweighted, it is
the middle of head_nll's chain, and weighted, the causal CE of the
two_head_loss chain.
"""

import numpy as np

from cdgnn import autodiff as ad
from cdgnn.disentangle import (_SCORER_KEYS, init_mask_params, total_loss,
                               two_branch_forward)
from cdgnn.harness import _layer_cross_class_ratio
from cdgnn.graphs import Graph, ego_subgraph
from cdgnn.harness import RunConfig
from cdgnn.models import (EgoBatch, batch_from_cache, build_ego_cache,
                          init_gcn_weights, init_head_params,
                          init_readout_params)


def exp(a):
    a = ad._coerce(a)
    data = np.exp(a.data)

    def backward(g):
        a._accumulate(g * data)

    return ad._make(data, (a,), backward)


def log(a):
    """Natural log with the argument clamped below at 1e-12."""
    a = ad._coerce(a)
    clamped = np.maximum(a.data, ad.LOG_CLAMP)
    data = np.log(clamped)

    def backward(g):
        a._accumulate(g / clamped)

    return ad._make(data, (a,), backward)


def sum_all(a):
    a = ad._coerce(a)
    data = np.array([[a.data.sum()]])

    def backward(g):
        a._accumulate(np.full_like(a.data, g[0, 0]))

    return ad._make(data, (a,), backward)


def relu(a):
    a = ad._coerce(a)
    data = np.maximum(a.data, 0.0)

    def backward(g):
        a._accumulate(g * (a.data > 0))

    return ad._make(data, (a,), backward)


def mean(a):
    a = ad._coerce(a)
    data = np.array([[ad._mean(a.data, None, False)]])

    def backward(g):
        a._accumulate(np.full_like(a.data, g[0, 0] / a.data.size))

    return ad._make(data, (a,), backward)


def take_rows(a, indices):
    """Rows `indices` of a; the adjoint sums them back as a CSR row sum,
    which checks no bounds, so the indices are checked here."""
    a = ad._coerce(a)
    idx = np.asarray(indices, dtype=np.int64).reshape(-1)
    rows = a.data.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= rows):
        raise ValueError(f"row index outside [0, {rows})")
    data = a.data[idx]

    def backward(g):
        a._accumulate(ad._row_scatter(a.data.shape, idx, g))

    return ad._make(data, (a,), backward)


def permute_rows(a, perm):
    a = ad._coerce(a)
    p, inverse = ad._permutation(perm, a.data.shape[0])
    data = a.data[p]

    def backward(g):
        a._accumulate(g[inverse])

    return ad._make(data, (a,), backward)


def segment_mean_rows(a, segments, num_segments):
    """Row means per segment id; every segment must be non-empty."""
    a = ad._coerce(a)
    seg = np.asarray(segments, dtype=np.int64).reshape(-1)
    data, counts = ad._segment_means(a.data, seg, num_segments)

    def backward(g):
        a._accumulate(g[seg] / counts[seg][:, None])

    return ad._make(data, (a,), backward)


def masked_propagate(f, weights, plan):
    """One renormalized propagation step with per-edge weights.

    out_i = (f_i + sum_j w_ij f_j) / (deg_i + 1). `weights` is a
    (num_und_edges, 1) tensor applied to both directions of every edge, or
    None for the unweighted operator.
    """
    f = ad._coerce(f)
    w = None if weights is None else ad._coerce(weights)
    data = ad._propagate(f.data, w, plan)

    def backward(g):
        ad._propagate_backward(g, f, w, plan)

    parents = (f,) if w is None else (f, w)
    return ad._make(data, parents, backward)


def row_softmax(a):
    """Softmax along each row, stabilized by max subtraction."""
    a = ad._coerce(a)
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=1, keepdims=True)

    def backward(g):
        dot = (g * data).sum(axis=1, keepdims=True)
        a._accumulate(data * (g - dot))

    return ad._make(data, (a,), backward)


def pick_class(probs, labels):
    """Column vector of probs[i, labels[i]]."""
    probs = ad._coerce(probs)
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    if y.shape[0] != probs.data.shape[0]:
        raise ValueError("labels must match the number of rows")
    rows = np.arange(y.shape[0])
    data = probs.data[rows, y][:, None].copy()

    def backward(g):
        dp = np.zeros_like(probs.data)
        dp[rows, y] = g[:, 0]
        probs._accumulate(dp)

    return ad._make(data, (probs,), backward)


def rbf_gram(a, bandwidth):
    """Gaussian kernel gram matrix K_ij = exp(-|x_i - x_j|^2 / (2 bw^2))."""
    a = ad._coerce(a)
    bw = float(bandwidth)
    if bw <= 0:
        raise ValueError(f"bandwidth must be positive, got {bw}")
    sq = (a.data * a.data).sum(axis=1, keepdims=True)
    d2 = np.maximum(sq + sq.T - 2.0 * (a.data @ a.data.T), 0.0)
    data = np.exp(-d2 / (2.0 * bw * bw))

    def backward(g):
        m = -(g * data) / (2.0 * bw * bw)
        s = m + m.T
        a._accumulate(2.0 * (s.sum(axis=1, keepdims=True) * a.data - s @ a.data))

    return ad._make(data, (a,), backward)


def center_gram(k):
    """Double centering H K H with H = I - 11^T/n (self-adjoint, linear)."""
    k = ad._coerce(k)
    if k.data.shape[0] != k.data.shape[1]:
        raise ValueError(f"center_gram needs a square matrix, got {k.data.shape}")

    def centered(x):
        rm = x.mean(axis=1, keepdims=True)
        cm = x.mean(axis=0, keepdims=True)
        return x - rm - cm + x.mean()

    data = centered(k.data)

    def backward(g):
        k._accumulate(centered(g))

    return ad._make(data, (k,), backward)


def add_at_take_rows(a, indices):
    """take_rows with its adjoint as np.add.at into zeros."""
    a = ad._coerce(a)
    idx = np.asarray(indices, dtype=np.int64).reshape(-1)
    data = a.data[idx].copy()

    def backward(g):
        da = np.zeros(a.data.shape)
        np.add.at(da, idx, g)
        a._accumulate(da)

    return ad._make(data, (a,), backward)


def _scatter_rows(values, dst, num_rows):
    k = values.shape[1]
    flat = dst[:, None] * k + np.arange(k)[None, :]
    return np.bincount(flat.ravel(), weights=values.ravel(),
                       minlength=num_rows * k).reshape(num_rows, k)


def gather_scatter_propagate(f, weights, edges, num_nodes):
    """masked_propagate over an edge list: gather the source rows of both
    directions of every edge (the edges in input order, then reversed) and
    scatter them into the destination rows with one bincount; the adjoints
    gather and scatter the other way, and the weight adjoint sums the two
    directions of each edge with one more bincount."""
    f = ad._coerce(f)
    w = None if weights is None else ad._coerce(weights)
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    und = e.shape[0]
    src = np.concatenate([e[:, 0], e[:, 1]])
    dst = np.concatenate([e[:, 1], e[:, 0]])
    dir_to_und = np.concatenate([np.arange(und), np.arange(und)])
    deg = np.bincount(src, minlength=num_nodes).astype(np.float64)
    inv_deg = (1.0 / (deg + 1.0))[:, None]
    w_dir = None if w is None else w.data[dir_to_und, 0]
    if und == 0:
        data = f.data * inv_deg
    else:
        gathered = f.data[src]
        vals = gathered if w_dir is None else w_dir[:, None] * gathered
        data = (f.data + _scatter_rows(vals, dst, num_nodes)) * inv_deg

    def backward(g):
        go = g * inv_deg
        if und == 0:
            f._accumulate(go)
            return
        go_dst = go[dst]
        if f.requires_grad:
            back = go_dst if w_dir is None else w_dir[:, None] * go_dst
            f._accumulate(go + _scatter_rows(back, src, num_nodes))
        if w is not None and w.requires_grad:
            per_dir = np.einsum("ek,ek->e", gathered, go_dst)
            dw = np.bincount(dir_to_und, weights=per_dir, minlength=und)
            w._accumulate(dw[:, None])

    parents = (f,) if w is None else (f, w)
    return ad._make(data, parents, backward)


def gcn_layer(f, weights, layer_weight, plan, rectify):
    h = ad.matmul(masked_propagate(f, weights, plan), layer_weight)
    return relu(h) if rectify else h


def softmax_head(x, weight, bias):
    return row_softmax(ad.add(ad.matmul(x, weight), bias))


def mean_of_halves(a):
    half = a.data.shape[0] // 2
    top = take_rows(a, np.arange(half))
    bottom = take_rows(a, np.arange(half, 2 * half))
    return ad.multiply(ad.add(top, bottom), 0.5)


def ego_readout(h, ego_rows, segments, projection):
    ego = take_rows(h, ego_rows)
    means = segment_mean_rows(h, segments, len(ego_rows))
    return ad.matmul(ad.concat_cols(ego, means), projection)


def gce_rows(probs, labels, q):
    p = pick_class(probs, labels)
    amplified = exp(ad.multiply(q, log(p)))
    return ad.multiply(ad.subtract(1.0, amplified), 1.0 / q)


def nll_rows(probs, labels, weights=None):
    ce = ad.subtract(0.0, log(pick_class(probs, labels)))
    if weights is None:
        return ce
    return ad.multiply(ce, np.asarray(weights, dtype=np.float64).reshape(-1, 1))


def head_nll(h, rows, weight, bias, labels):
    """ad.head_nll as the GCN baseline's loss chain before it: take_rows,
    the fused softmax_head, nll_rows and mean."""
    return mean(nll_rows(ad.softmax_head(take_rows(h, rows), weight, bias),
                         labels))


def edge_scorer(endpoints, x, w1, b1, w2, b2):
    """ad.edge_scorer as the chain the mask scorer was before it: both
    endpoint orders through matmul, add, relu, matmul and add, then
    mean_of_halves."""
    e = np.asarray(endpoints, dtype=np.int64).reshape(-1, 2)
    if e.shape[0] == 0:
        return ad.Tensor(np.zeros((0, 1)))
    pairs = np.vstack([np.hstack([x[e[:, 0]], x[e[:, 1]]]),
                       np.hstack([x[e[:, 1]], x[e[:, 0]]])])
    hidden = relu(ad.add(ad.matmul(pairs, w1), b1))
    return mean_of_halves(ad.add(ad.matmul(hidden, w2), b2))


def two_head_loss(joint, graph_causal, graph_shortcut, head_causal,
                  head_shortcut, labels, q, perm, coefficients, weights=None):
    """ad.two_head_loss as the chain total_loss built before it: both
    softmax heads on `joint`, the GCE and weighted CE means, the
    counterfactual mean of GCE(shortcut head, labels[perm]) + W * CE(causal
    head, labels) on [graph_causal ; graph_shortcut[perm]], and each term
    weighed by a multiply node (none at weight 1, no term at weight 0) and
    summed left to right by add nodes. `weights`, when given, stand in for
    the difficulty weights W of the detached cross-entropies."""
    probs_s = ad.softmax_head(joint, *head_shortcut)
    probs_c = ad.softmax_head(joint, *head_causal)
    loss_s = mean(gce_rows(probs_s, labels, q))
    ce_s = nll_rows(probs_s.data, labels).data.reshape(-1)
    ce_c = nll_rows(probs_c.data, labels).data.reshape(-1)
    if weights is None:
        weights = ad._difficulty_weights(ce_s, ce_c)
    loss_c = mean(nll_rows(probs_c, labels, weights))
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    h_ct = ad.concat_cols(graph_causal, permute_rows(graph_shortcut, perm))
    probs_sx = ad.softmax_head(h_ct, *head_shortcut)
    probs_cx = ad.softmax_head(h_ct, *head_causal)
    loss_cf = mean(ad.add(gce_rows(probs_sx, y[perm], q),
                          nll_rows(probs_cx, y, weights)))
    terms = (loss_s, loss_c, loss_cf)
    values = {name: term.item()
              for name, term in zip(("loss_s", "loss_c", "loss_cf"), terms)}
    values["ce_s"] = float(ce_s.mean())
    values["ce_c"] = float(ce_c.mean())
    return weighted_sum(terms, coefficients), values


def weighted_sum(terms, coefficients):
    """Sum, left to right, of each term weighed by its coefficient: a term
    weighed 1 enters as it is, one weighed 0 not at all; None if none."""
    total = None
    for term, coeff in zip(terms, coefficients):
        if coeff != 0.0:
            piece = term if coeff == 1.0 else ad.multiply(term, coeff)
            total = piece if total is None else ad.add(total, piece)
    return total


def hsic_rbf(x, y, bandwidth_x, bandwidth_y):
    n = x.data.shape[0]
    kx = center_gram(rbf_gram(x, bandwidth_x))
    ky = center_gram(rbf_gram(y, bandwidth_y))
    return ad.multiply(sum_all(ad.multiply(kx, ky)), 1.0 / (n - 1.0) ** 2)


def gce_grad_identity_check(params, forward, label, q):
    """Max parameterwise deviation of grad GCE from p_y^q * grad CE.

    `forward(tensors)` must return a (1, C) probability row built from the
    given parameter tensors. The two gradients are taken on independent
    leaves from identical parameter values.
    """
    tensors_a = ad.leaves({k: v.copy() for k, v in params.items()})
    probs_a = forward(tensors_a)
    loss_a = mean(gce_rows(probs_a, [label], q))
    p_y = float(probs_a.data[0, label])
    grads_a = ad.gradients(loss_a, tensors_a)

    tensors_b = ad.leaves({k: v.copy() for k, v in params.items()})
    probs_b = forward(tensors_b)
    loss_b = mean(nll_rows(probs_b, [label]))
    grads_b = ad.gradients(loss_b, tensors_b)

    scale = p_y**q
    dev = 0.0
    for k in params:
        dev = max(dev, float(np.max(np.abs(grads_a[k] - scale * grads_b[k]))))
    return dev


def adam_step(params, grads, state, lr, weight_decay=0.0, beta1=0.9,
              beta2=0.999, eps=1e-8):
    """ad.adam_step one parameter at a time on fresh arrays; `state` is
    None or the (step, m, v) returned by the previous call, whose moments
    are dicts keyed like `params`."""
    rates = lr if isinstance(lr, dict) else dict.fromkeys(params, lr)
    step_count, prev_m, prev_v = state or (0, {}, {})
    t = step_count + 1
    correction1 = 1.0 - beta1**t
    correction2 = 1.0 - beta2**t
    new_params, new_m, new_v = {}, {}, {}
    for name, p in params.items():
        g = grads[name]
        m = (1 - beta1) * g
        if name in prev_m:
            m += beta1 * prev_m[name]
        v = (1 - beta2) * g
        v *= g
        if name in prev_v:
            v += beta2 * prev_v[name]
        denom = v / correction2
        np.sqrt(denom, out=denom)
        denom += eps
        step = m / correction1
        step *= rates[name]
        step /= denom
        new = (rates[name] * weight_decay) * p
        np.subtract(p, new, out=new)
        new -= step
        new_params[name] = new
        new_m[name] = m
        new_v[name] = v
    return new_params, (t, new_m, new_v)


def hsic_value(x, y):
    """ad.hsic_rbf of two plain arrays, which records nothing, as a float."""
    return ad.hsic_rbf(np.asarray(x, dtype=np.float64),
                       np.asarray(y, dtype=np.float64)).item()


def median_bandwidth(x):
    """Median-heuristic RBF bandwidth: sqrt(median squared distance / 2)."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 2:
        return 1.0
    sq = (arr * arr).sum(axis=1, keepdims=True)
    d2 = np.maximum(sq + sq.T - 2.0 * arr @ arr.T, 0.0)
    n = arr.shape[0]
    upper = ad._upper_mask(max(ad._MASK_ROWS, 1 << (n - 1).bit_length()))[:n, :n]
    med = ad._median(d2[upper])
    if med <= 0.0:
        return 1.0
    return float(np.sqrt(med / 2.0))


def rbf(x, bw):
    """Gaussian gram exp(-max(|x_i|^2 + |x_j|^2 - 2 x_i.x_j, 0) / (2 bw^2))."""
    sq = (x * x).sum(axis=1, keepdims=True)
    k = sq + sq.T
    dots = x @ x.T
    dots *= 2.0
    k -= dots
    np.maximum(k, 0.0, out=k)
    np.negative(k, out=k)
    k /= 2.0 * bw * bw
    return np.exp(k, out=k)


def masked_sigmoid(a):
    """The values of sigmoid, each sign's rows gathered and scattered."""
    data = np.empty_like(a)
    pos = a >= 0
    data[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
    ex = np.exp(a[~pos])
    data[~pos] = ex / (1.0 + ex)
    return data


def ego_dict(g, hops, nodes):
    """{node: (member ids, local edges)}: one ego_subgraph per node."""
    return {int(node): ego_subgraph(g, int(node), hops)
            for node in np.asarray(nodes, dtype=np.int64).reshape(-1)}


def held_egos(table):
    """An EgoTable as an ego_dict: {node: (member ids, local edges)} of
    every ego it holds, ascending by node."""
    return {v: (table.members[table.member_ptr[i]:table.member_ptr[i + 1]],
                table.edges[table.edge_ptr[i]:table.edge_ptr[i + 1]])
            for v, i in enumerate(table.row[:-1].tolist()) if i >= 0}


def batch_from_dict(g, cache, nodes):
    """Disjoint union of the egos of `nodes` in an ego_dict, in order."""
    nodes = np.asarray(nodes, dtype=np.int64).reshape(-1)
    sizes = np.array([cache[i][0].shape[0] for i in nodes], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    total = int(sizes.sum())
    member_ids = np.concatenate([cache[i][0] for i in nodes])
    edge_chunks = [cache[i][1] + off for i, off in zip(nodes, offsets)
                   if cache[i][1].size]
    edges = (np.vstack(edge_chunks) if edge_chunks
             else np.zeros((0, 2), dtype=np.int64))
    segments = np.repeat(np.arange(nodes.shape[0]), sizes)
    return EgoBatch(
        plan=ad.PropagationPlan.from_edges(edges, total),
        features=g.features[member_ids],
        endpoints=edges,
        segments=segments,
        member_ids=member_ids,
        ego_rows=offsets,
        ego_labels=g.labels[nodes],
        num_graphs=int(nodes.shape[0]),
    )


def audit_cross_class_ratios(g, params, hops, nodes):
    """assumption_audit's cross-class ratio of each causal layer on the egos
    of `nodes` (at most AUDIT_MAX_NODES, so the audit samples none): the
    masks rebuilt from the scorer and the layers propagated again."""
    batch = batch_from_cache(g, build_ego_cache(g, hops, nodes), nodes)
    edge = ad.sigmoid(ad.edge_scorer(batch.endpoints, batch.features,
                                     *(params[k] for k in _SCORER_KEYS)))
    depth = sum(k.startswith("gnn_c.w") for k in params)
    layers = [params[f"gnn_c.w{l}"] for l in range(depth)]
    h = ad.multiply(batch.features, ad.sigmoid(params["mask.feat"]))
    ratios = []
    for l, w in enumerate(layers):
        h = ad.gcn_layer(h, edge, w, batch.plan, relu=l < len(layers) - 1)
        ratios.append(_layer_cross_class_ratio(
            h.data, batch.endpoints, g.labels[batch.member_ids]))
    return ratios


def composed_objective_case(rng):
    """One random instance of the full four-term training objective, as
    (build, values, objective). `build(t)` is the objective at parameters
    `t`, composed from the two_head_loss and hsic_rbf chains and the
    weighted sum that total_loss forms; `values` are the parameters at the
    unperturbed point; `objective(t)` is total_loss of the same batch,
    permutation and coefficients at `t`, over every node row.

    In `build`, stop-gradient data (difficulty weights, counterfactual
    permutation, kernel bandwidths) is frozen at the unperturbed point,
    because that is the function whose gradient the optimizer follows.
    """
    n, dim, hidden = 6, 2, 2
    edges = np.array([(i, i + 1) for i in range(n - 1)] + [(0, 2)])
    g = Graph(n, edges, rng.normal(size=(n, dim)),
              rng.integers(0, 2, size=n), 2)
    nodes = np.arange(3)
    batch = batch_from_cache(g, build_ego_cache(g, 1, nodes), nodes)

    values = init_mask_params(rng, dim, scorer_hidden=2)
    values.update(init_gcn_weights(rng, dim, hidden, 2, "gnn_c"))
    values.update(init_gcn_weights(rng, dim, hidden, 2, "gnn_s"))
    values.update(init_readout_params(rng, hidden, "readout_c"))
    values.update(init_readout_params(rng, hidden, "readout_s"))
    values.update(init_head_params(rng, 2 * hidden, 2, "head_c"))
    values.update(init_head_params(rng, 2 * hidden, 2, "head_s"))
    perm = rng.permutation(batch.num_graphs)
    config = RunConfig(q=0.7, lambda_counterfactual=10.0,
                       lambda_independence=0.1)
    y = batch.ego_labels

    fwd0 = two_branch_forward(batch, values)
    probs_s0 = ad.softmax_head(fwd0.joint, *fwd0.head_shortcut)
    probs_c0 = ad.softmax_head(fwd0.joint, *fwd0.head_causal)
    weights = ad._difficulty_weights(nll_rows(probs_s0, y).data,
                                     nll_rows(probs_c0, y).data)
    bx = median_bandwidth(fwd0.layers_causal[-1].data)
    by = median_bandwidth(fwd0.layers_shortcut[-1].data)

    def build(t):
        fwd = two_branch_forward(batch, t)
        heads, _ = two_head_loss(fwd.joint, fwd.graph_causal,
                                 fwd.graph_shortcut, fwd.head_causal,
                                 fwd.head_shortcut, y, config.q, perm,
                                 config.coefficients[:3], weights)
        independence = hsic_rbf(fwd.layers_causal[-1],
                                fwd.layers_shortcut[-1], bx, by)
        return weighted_sum((heads, independence),
                            (1.0, config.coefficients[3]))

    def objective(t):
        fwd = two_branch_forward(batch, t)
        rows = np.arange(batch.features.shape[0])
        return total_loss(fwd, y, config.q, config.coefficients, perm,
                          rows)[0]

    return build, values, objective
