"""Dense numerics for the desk-scale client models.

The model is a fixed small architecture: input -> hidden (ReLU) -> feature
(ReLU) -> logits (linear).  The second ReLU sits on the feature layer on
purpose: per-class feature means can then contain exact zeros, which is what
the dead-unit diagnostics in :mod:`tinyproto.prototypes` measure.

Training uses plain minibatch SGD with exact hand-derived gradients of the
combined objective (cross-entropy plus a prototype-alignment penalty).  The
penalty compares the client's per-class feature means against scaled global
prototypes by squared L2 distance.  Both sets arrive as ``(ids, (n, d))``
pairs and are fixed for a whole update, so :func:`class_penalties` computes
every held class's term once per update, in one array pass over the classes
with both a mean and a target, into one ``(K,)`` vector indexed by class id,
and every batch adds the entries of its classes in ascending class order.
The penalty therefore shifts the loss value while the gradient is carried
entirely by the cross-entropy term.  All reductions run in
ascending index order, which makes repeated evaluations bit-identical.

A minibatch is passed as arrays: an (n, D) input block and its (n,) integer
labels, checked with a few cheap tests per call.  :func:`loss_and_grad`
writes the gradients into a block the caller may pass in, and
:func:`sgd_step` updates a parameter block in place and consumes the
gradient block it is given: each gradient is scaled by the learning rate in
place, so a caller that needs the raw gradients afterwards passes a copy.
A training loop therefore holds one gradient block, which every batch
fills, its step consumes and the next batch refills, and allocates no
parameter-sized array per batch.  Inference and training share one
definition of the feature layers.  A minibatch step costs more in numpy
calls and temporaries than in arithmetic, so each layer, the logits and
the softmax terms are built in the output of the call that makes them and
changed in place from there; every result keeps the bits of the form with
a temporary per operation.  A non-finite ``lam``, ``lr`` or ``mu`` is
refused, as nan would otherwise pass a ``< 0`` test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ShapeError",
    "ModelParams",
    "Gradients",
    "init_params",
    "forward_features",
    "class_penalties",
    "loss_and_grad",
    "sgd_step",
]


class ShapeError(ValueError):
    """An input's dimensions do not match the model's configuration."""


@dataclass(eq=False)
class ModelParams:
    """Weight block for input -> hidden (ReLU) -> feature (ReLU) -> logits.

    Shapes: w1 (D, h), b1 (h,), w2 (h, d), b2 (d,), wc (d, K), bc (K,).
    Equality is identity: two blocks of equal arrays are not ``==``.
    """

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    wc: np.ndarray
    bc: np.ndarray

    def arrays(self) -> tuple[np.ndarray, ...]:
        return (self.w1, self.b1, self.w2, self.b2, self.wc, self.bc)

    @property
    def dims(self) -> tuple[int, int, int, int]:
        """(input_dim, hidden_dim, feature_dim, n_classes)."""
        return (
            self.w1.shape[0],
            self.w1.shape[1],
            self.w2.shape[1],
            self.wc.shape[1],
        )


# Gradients share the parameter block layout exactly.
Gradients = ModelParams


def init_params(
    input_dim: int,
    hidden_dim: int,
    feature_dim: int,
    n_classes: int,
    seed: int,
) -> ModelParams:
    """He-style Gaussian init, deterministic per seed; biases start at zero."""
    dims = (input_dim, hidden_dim, feature_dim, n_classes)
    for name, dim in zip(("input_dim", "hidden_dim", "feature_dim", "n_classes"), dims):
        if dim < 1:  # He scaling divides by the fan-ins; no layer may be empty
            raise ValueError(f"{name} must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    w1 = rng.normal(0.0, np.sqrt(2.0 / input_dim), size=(input_dim, hidden_dim))
    w2 = rng.normal(0.0, np.sqrt(2.0 / hidden_dim), size=(hidden_dim, feature_dim))
    wc = rng.normal(0.0, np.sqrt(2.0 / feature_dim), size=(feature_dim, n_classes))
    return ModelParams(
        w1=w1,
        b1=np.zeros(hidden_dim),
        w2=w2,
        b2=np.zeros(feature_dim),
        wc=wc,
        bc=np.zeros(n_classes),
    )


def forward_features(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Feature-layer activations: relu(relu(x @ w1 + b1) @ w2 + b2).

    Accepts a single input of shape (D,) or a batch of shape (B, D); the
    output entries are always >= 0 because of the final ReLU.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != params.w1.shape[0]:
        raise ShapeError(
            f"input dim {x.shape[-1]} != model input dim {params.w1.shape[0]}"
        )
    return _activations(params, x)[1]


def _activations(params: ModelParams, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hidden and feature activations; the one definition of the feature net.

    Each layer is built in its matmul's output: the bias is added and the
    ReLU applied in place, which gives the same bits as
    ``np.maximum(x @ w + b, 0.0)`` without its two temporaries.
    """
    hidden = x @ params.w1
    hidden += params.b1
    np.maximum(hidden, 0.0, out=hidden)
    feats = hidden @ params.w2
    feats += params.b2
    np.maximum(feats, 0.0, out=feats)
    return hidden, feats


def class_penalties(
    local_protos: tuple[np.ndarray, np.ndarray],
    targets: tuple[np.ndarray, np.ndarray],
    mu: float,
    *,
    n_classes: int,
) -> np.ndarray:
    """The ``(K,)`` vector of each class's term ``|local[c] - mu * target[c]|^2``.

    Both arguments are ``(ids, (n, d))`` pairs, row i of class ``ids[i]``.
    A class that lacks a local prototype or a target gets 0.0, so it adds
    nothing to a batch's penalty.  Both sets are fixed for an update, so a
    client computes this once per update and every batch reads it.

    The (local, target) row pairs are gathered once and every term is one
    row of a stacked ``(1, d) @ (d, 1)`` product, which numpy computes as a
    vector dot: each term has the bits of ``diff @ diff`` for its class.
    """
    if not (math.isfinite(mu) and mu > 0):
        raise ValueError(f"mu must be finite and > 0, got {mu!r}")
    (local_ids, local_rows), (target_ids, target_rows) = local_protos, targets
    penalties = np.zeros(n_classes)
    target_row = np.full(n_classes, -1)  # -1: no target
    target_row[target_ids] = np.arange(len(target_ids))
    target_of = target_row[local_ids]
    paired = target_of >= 0
    diff = local_rows[paired] - mu * target_rows[target_of[paired]]
    # a vector dot per term; einsum or (diff * diff).sum(axis=1) would change its bits
    penalties[local_ids[paired]] = np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0]
    return penalties


def loss_and_grad(
    params: ModelParams,
    xs: np.ndarray,
    ys: np.ndarray,
    class_penalty: np.ndarray | None,
    lam: float,
    *,
    out: Gradients | None = None,
) -> tuple[float, Gradients]:
    """Combined loss over a minibatch and its exact parameter gradient.

    ``xs`` is the (n, D) input batch and ``ys`` its (n,) integer labels.
    The loss is mean cross-entropy of softmax(logits) against the labels,
    plus lam * the sum, over the classes present in the batch in ascending
    order, of ``class_penalty[c]``: the ``(K,)`` vector of
    :func:`class_penalties`, read only when lam > 0.  The penalty values are
    constants of the step, so the returned gradient is the cross-entropy
    gradient; it matches central finite differences of the returned loss.

    The gradients are written into ``out``, which is returned: a block of
    ``params``' shapes that shares no memory with it, as :func:`sgd_step`
    asks of ``grads``.  A caller that steps on every batch fills one block,
    lets :func:`sgd_step` consume it, and passes it in again.  With ``out``
    None a new block is allocated.  Every shape is checked before any
    array is written.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys)
    if xs.ndim != 2 or ys.shape != xs.shape[:1]:
        raise ShapeError(f"expected xs (n, D) and ys (n,), got {xs.shape} and {ys.shape}")
    n = xs.shape[0]
    if n == 0:
        raise ValueError("empty batch")
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError(f"lam must be finite and >= 0, got {lam!r}")
    din, n_classes = params.w1.shape[0], params.wc.shape[1]
    if xs.shape[1] != din:
        raise ShapeError(f"batch input dim {xs.shape[1]} != model input dim {din}")
    if ys.dtype.kind not in "iu":
        raise ValueError(f"labels must be integers, got dtype {ys.dtype}")
    # a few Python ints: cheaper than two array reductions at minibatch size
    classes = sorted(set(ys.tolist()))
    if classes[0] < 0 or classes[-1] >= n_classes:
        raise ValueError("label outside [0, K)")
    if out is None:
        out = Gradients(*(np.empty_like(p) for p in params.arrays()))
    else:
        _check_gradient_shapes(params, out)

    a1, a2 = _activations(params, xs)
    z3 = a2 @ params.wc
    z3 += params.bc

    # stable log-softmax cross-entropy, mean over the batch; each array is
    # made once and changed in place, and the negated terms are summed and
    # divided by n just as np.mean(-(z3[rows, ys] - log_norm[:, 0])) does, so
    # the loss keeps its bits, the sign of an exact zero included
    rows = np.arange(n)
    zmax = z3.max(axis=1, keepdims=True)
    ez = z3 - zmax
    np.exp(ez, out=ez)
    ez_sum = ez.sum(axis=1, keepdims=True)
    log_norm = np.log(ez_sum)
    log_norm += zmax
    terms = z3[rows, ys]
    terms -= log_norm[:, 0]
    np.negative(terms, out=terms)
    loss = terms.sum() / n  # an np.float64 until the return: np.errstate sees an overflow

    if lam > 0:
        if np.shape(class_penalty) != (n_classes,):
            raise ShapeError(
                f"class penalty shape {np.shape(class_penalty)}, expected (K,) for K={n_classes}"
            )
        loss = loss + lam * sum(class_penalty[cls] for cls in classes)

    # backprop of the cross-entropy term (the penalty is constant in params);
    # relu'(z) is 1 exactly where relu(z) > 0
    g3 = ez
    g3 /= ez_sum
    g3[rows, ys] -= 1.0
    g3 /= n
    np.matmul(a2.T, g3, out=out.wc)
    g3.sum(axis=0, out=out.bc)
    g2 = g3 @ params.wc.T
    g2 *= a2 > 0
    np.matmul(a1.T, g2, out=out.w2)
    g2.sum(axis=0, out=out.b2)
    g1 = g2 @ params.w2.T
    g1 *= a1 > 0
    np.matmul(xs.T, g1, out=out.w1)
    g1.sum(axis=0, out=out.b1)
    return float(loss), out


def sgd_step(params: ModelParams, grads: Gradients, lr: float) -> None:
    """One plain SGD update in place: ``p -= lr * g`` for every parameter array.

    Consumes ``grads``: each gradient is scaled by ``lr`` in place, so no
    temporary is made, and then subtracted; the parameters come out
    bit-equal to ``p - lr * g``.  ``grads`` must therefore share no memory
    with ``params``.  The consumed block is fit to be refilled by the next
    :func:`loss_and_grad` call's ``out``.  Every shape is checked before
    any array of either block changes.
    """
    if not (math.isfinite(lr) and lr >= 0):
        raise ValueError(f"lr must be finite and >= 0, got {lr!r}")
    _check_gradient_shapes(params, grads)
    for p, g in zip(params.arrays(), grads.arrays()):
        g *= lr
        p -= g


def _check_gradient_shapes(params: ModelParams, grads: Gradients) -> None:
    for p, g in zip(params.arrays(), grads.arrays()):
        if p.shape != g.shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.shape}")
