"""Dense numerics for the desk-scale client models.

The model is a fixed small architecture: input -> hidden (ReLU) -> feature
(ReLU) -> logits (linear).  The second ReLU sits on the feature layer on
purpose: per-class feature means can then contain exact zeros, which is what
the dead-unit diagnostics in :mod:`tinyproto.prototypes` measure.

Training uses plain minibatch SGD with exact hand-derived gradients of the
combined objective (cross-entropy plus a prototype-alignment penalty).  The
penalty compares the client's per-class feature means against scaled global
prototypes; both are supplied as fixed vectors for the current step, so the
penalty shifts the loss value while the gradient is carried entirely by the
cross-entropy term.  All reductions run in ascending index order, which makes
repeated evaluations bit-identical.

A minibatch is passed as arrays: an (n, D) input block and its (n,) integer
labels.  Inference and training share one definition of the feature layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

__all__ = [
    "ShapeError",
    "ModelParams",
    "Gradients",
    "init_params",
    "forward_features",
    "forward_logits",
    "loss_and_grad",
    "sgd_step",
    "RHO_CHOICES",
]

RHO_CHOICES = ("squared_l2", "l2_eps")

# epsilon under the root for the smoothed-l2 distance variant
_L2_EPS = 1e-8


class ShapeError(ValueError):
    """An input's dimensions do not match the model's configuration."""


@dataclass
class ModelParams:
    """Weight block for input -> hidden (ReLU) -> feature (ReLU) -> logits.

    Shapes: w1 (D, h), b1 (h,), w2 (h, d), b2 (d,), wc (d, K), bc (K,).
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

    def validate(self) -> None:
        din, hid, feat, ncls = self.dims
        expected = [
            (self.w1, (din, hid)),
            (self.b1, (hid,)),
            (self.w2, (hid, feat)),
            (self.b2, (feat,)),
            (self.wc, (feat, ncls)),
            (self.bc, (ncls,)),
        ]
        for arr, shape in expected:
            if arr.shape != shape:
                raise ShapeError(f"parameter shape {arr.shape} != expected {shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError("parameters contain non-finite entries")


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
    rng = np.random.default_rng(seed)
    w1 = rng.normal(0.0, np.sqrt(2.0 / input_dim), size=(input_dim, hidden_dim))
    w2 = rng.normal(0.0, np.sqrt(2.0 / hidden_dim), size=(hidden_dim, feature_dim))
    wc = rng.normal(0.0, np.sqrt(2.0 / feature_dim), size=(feature_dim, n_classes))
    params = ModelParams(
        w1=w1,
        b1=np.zeros(hidden_dim),
        w2=w2,
        b2=np.zeros(feature_dim),
        wc=wc,
        bc=np.zeros(n_classes),
    )
    params.validate()
    return params


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
    """Hidden and feature activations; the one definition of the feature net."""
    hidden = np.maximum(x @ params.w1 + params.b1, 0.0)
    return hidden, np.maximum(hidden @ params.w2 + params.b2, 0.0)


def forward_logits(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """Affine classifier head: features @ wc + bc."""
    features = np.asarray(features, dtype=np.float64)
    if features.shape[-1] != params.wc.shape[0]:
        raise ShapeError(
            f"feature dim {features.shape[-1]} != model feature dim {params.wc.shape[0]}"
        )
    return features @ params.wc + params.bc


def _rho(diff: np.ndarray, rho: str) -> float:
    if rho == "squared_l2":
        return float(diff @ diff)
    if rho == "l2_eps":
        return float(np.sqrt(diff @ diff + _L2_EPS))
    raise ValueError(f"unknown rho {rho!r}; expected one of {RHO_CHOICES}")


def loss_and_grad(
    params: ModelParams,
    xs: np.ndarray,
    ys: np.ndarray,
    global_protos: Mapping[int, np.ndarray],
    lam: float,
    mu: float,
    local_protos: Mapping[int, np.ndarray],
    rho: str = "squared_l2",
) -> tuple[float, Gradients]:
    """Combined loss over a minibatch and its exact parameter gradient.

    ``xs`` is the (n, D) input batch and ``ys`` its (n,) integer labels.
    The loss is mean cross-entropy of softmax(logits) against the labels,
    plus lam * sum over classes present in the batch of
    rho(local_proto[c], mu * global_proto[c]).  Classes with no global
    prototype contribute nothing to the penalty.  The prototype vectors are
    constants of the step (recomputed outside, once per epoch), so the
    returned gradient is the cross-entropy gradient; it matches central
    finite differences of the returned loss.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys)
    if xs.ndim != 2 or ys.shape != xs.shape[:1]:
        raise ShapeError(f"expected xs (n, D) and ys (n,), got {xs.shape} and {ys.shape}")
    n = xs.shape[0]
    if n == 0:
        raise ValueError("empty batch")
    if lam < 0:
        raise ValueError("lam must be >= 0")
    if mu <= 0:
        raise ValueError("mu must be > 0")

    din, _, _, ncls = params.dims
    if xs.shape[1] != din:
        raise ShapeError(f"batch input dim {xs.shape[1]} != model input dim {din}")
    if not np.issubdtype(ys.dtype, np.integer):
        raise ValueError(f"labels must be integers, got dtype {ys.dtype}")
    if np.any(ys < 0) or np.any(ys >= ncls):
        raise ValueError("label outside [0, K)")

    a1, a2 = _activations(params, xs)
    z3 = a2 @ params.wc + params.bc

    # stable log-softmax cross-entropy, mean over the batch
    zmax = z3.max(axis=1, keepdims=True)
    ez = np.exp(z3 - zmax)
    log_norm = np.log(ez.sum(axis=1, keepdims=True)) + zmax
    log_probs = z3 - log_norm
    loss = float(np.mean(-log_probs[np.arange(n), ys]))

    if lam > 0:
        penalty = 0.0
        for cls in sorted(set(ys.tolist())):
            if cls not in local_protos:
                raise ValueError(f"no local prototype for batch class {cls}")
            target = global_protos.get(cls)
            if target is None:
                continue
            diff = np.asarray(local_protos[cls], dtype=np.float64) - mu * np.asarray(
                target, dtype=np.float64
            )
            penalty += _rho(diff, rho)
        loss = loss + lam * penalty

    # backprop of the cross-entropy term (the penalty is constant in params);
    # relu'(z) is 1 exactly where relu(z) > 0
    g3 = ez / ez.sum(axis=1, keepdims=True)
    g3[np.arange(n), ys] -= 1.0
    g3 /= n
    grad_wc = a2.T @ g3
    grad_bc = g3.sum(axis=0)
    g2 = (g3 @ params.wc.T) * (a2 > 0)
    grad_w2 = a1.T @ g2
    grad_b2 = g2.sum(axis=0)
    g1 = (g2 @ params.w2.T) * (a1 > 0)
    grad_w1 = xs.T @ g1
    grad_b1 = g1.sum(axis=0)

    grads = Gradients(
        w1=grad_w1, b1=grad_b1, w2=grad_w2, b2=grad_b2, wc=grad_wc, bc=grad_bc
    )
    return loss, grads


def sgd_step(params: ModelParams, grads: Gradients, lr: float) -> ModelParams:
    """One plain SGD update: params - lr * grads, returned as a new block."""
    if lr < 0:
        raise ValueError("lr must be >= 0")
    updated = []
    for p, g in zip(params.arrays(), grads.arrays()):
        if p.shape != g.shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.shape}")
        updated.append(p - lr * g)
    return ModelParams(*updated)
