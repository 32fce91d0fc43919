"""Reverse-mode autodiff: build a loss, read gradients, check them.

Everything the models need is built from a small primitive set; the hot
chains (a softmax head with its cross-entropy, a GCN layer) are single
fused nodes. This script differentiates a tiny softmax classifier with one
sigmoid hidden layer, an elementary matmul and sigmoid followed by the
fused head_nll, by hand-rolled finite differences and by the backward
walk, then trains it for a few steps.
"""

import numpy as np

from cdgnn import autodiff as ad


def nll_loss(x: np.ndarray, y: np.ndarray, params: dict):
    """Mean negative log-likelihood of a softmax model on a sigmoid hidden
    layer, over every row of x; `params` holds leaves to differentiate, or
    plain arrays to only evaluate."""
    hidden = ad.sigmoid(ad.matmul(x, params["v"]))
    return ad.head_nll(hidden, np.arange(x.shape[0]), params["w"],
                       params["b"], y)


def main() -> None:
    rng = np.random.default_rng(0)
    x = rng.normal(size=(8, 3))
    y = np.array([0, 1, 2, 0, 1, 2, 0, 1])
    v0 = rng.normal(size=(3, 4))
    w0 = rng.normal(size=(4, 3)) * 0.1
    b0 = np.zeros((1, 3))

    leaves = ad.leaves({"v": v0, "w": w0, "b": b0})
    loss = nll_loss(x, y, leaves)
    grads = ad.gradients(loss, leaves)
    print(f"loss at init: {loss.data[0, 0]:.4f}")

    # Central finite differences on one entry agree with the adjoint.
    eps = 1e-6
    wp, wm = w0.copy(), w0.copy()
    wp[0, 0] += eps
    wm[0, 0] -= eps
    fd = (nll_loss(x, y, {"v": v0, "w": wp, "b": b0}).data
          - nll_loss(x, y, {"v": v0, "w": wm, "b": b0}).data) / (2 * eps)
    print(f"dL/dw[0,0]: backward {grads['w'][0, 0]:+.6f}  "
          f"finite difference {float(fd[0, 0]):+.6f}")

    # A few steps of Adam drive the loss down. The state holds the
    # parameters in one buffer and steps them in place, so the leaves made
    # from its table once see every update.
    state = ad.AdamState({"v": v0, "w": w0, "b": b0}, 0.1)
    leaves = ad.leaves(state.params)
    for step in range(30):
        loss = nll_loss(x, y, leaves)
        ad.adam_step(state, ad.gradients(loss, leaves))
        if step % 10 == 9:
            print(f"step {step + 1:>2}: loss {loss.data[0, 0]:.4f}")


if __name__ == "__main__":
    main()
