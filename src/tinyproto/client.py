"""Per-client behavior: local training, prototype generation, inference.

Each client owns an independently initialized model and a private shard.
During a round it rebuilds the dense global targets of the classes it holds,
runs E epochs of minibatch SGD on the combined loss, recomputes its
per-class feature means, and returns their masked entries: one path for
every client, as a dense client holds the all-ones ``(K, d)`` mask set.  The
caller builds the upload from them, count scaling included.  The training
settings are read from the run's :class:`~tinyproto.config.ExperimentConfig`,
which checked them when it was made.  Prediction is nearest-local-prototype
in feature space, restricted to classes the client actually holds.

The penalty terms are fixed for the whole update: when ``lam > 0`` and
some held class has a target, each held class's term is computed once,
before the first epoch, from the per-class feature means the update starts
with (otherwise every term is 0.0 and no starting means are read).  Those
are ``state.local_protos`` when it is set (when set, it describes
``state.params``), else one full-shard pass under ``state.params``.  The
means are computed once more after the last epoch, for the upload and
evaluation.  A client owns its parameter block, and an update trains it in
place with one gradient block: every batch fills that block, and its SGD
step consumes it to change ``state.params``.  Once the starting means are
read, ``state.local_protos`` is cleared until the update's new means are
set, so an update that fails mid-epoch leaves no means of older params.  A
lam = 0 update builds no target: the penalty reads none.

Every per-class quantity is a ``(K,)`` array indexed by class id or an
``(ids, (n, d))`` pair of class ids plus one row each.  The class counts are
the shard's histogram, read fresh each time.  The received globals are one
``(K, s)`` block, row c for class c, s its mask set's popcount (all zero in
the first round, so no class has a target).  The means are a read-only
pair; the dense targets (``reconstruct`` of the live received rows of held
classes) are a pair that lives only for one update, the penalty terms one
vector, and the update's result is :func:`~tinyproto.prototypes.compress`
of the means (``scaled`` rounds then multiply it by
``class_counts[ids, None]``).

Inference screens all test rows with one GEMM, ``|p|^2 - 2 f.p``.  Where
the best score beats the second by more than a rounding bound,
``8 (d + 2) eps (|f|^2 + max |p|^2)`` plus an underflow term (derived in
:func:`_nearest_local_class`), the exact distances have the same argmin; the other rows, near or exact ties,
fall back to the exact (n, c, d) distances, so every prediction is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aggregation import aggregate_mean
from .config import ExperimentConfig
from .datagen import Dataset
from .masking import MaskSet
from .numerics import (
    Gradients,
    ModelParams,
    class_penalties,
    forward_features,
    loss_and_grad,
    sgd_step,
)
from .prototypes import compress, reconstruct

__all__ = [
    "ClientState",
    "InferenceError",
    "compute_local_prototypes",
    "local_update",
    "evaluate_accuracy",
]


_F64 = np.finfo(np.float64)


class InferenceError(RuntimeError):
    """Prediction was requested before any local prototype existed."""


@dataclass(eq=False)
class ClientState:
    """Everything one client owns: model, data, masks, and latest means.

    :func:`local_update` trains ``params`` in place, so no two clients may
    share a block.  Equality is identity.
    """

    client_id: int
    params: ModelParams
    shard: Dataset
    test_shard: Dataset | None = None
    # set when first sampled: the delivered masks under cps, all ones (K, d) if dense
    mask_set: MaskSet | None = None
    # (ids, block): ascending ids of the classes with samples, their means
    local_protos: tuple[np.ndarray, np.ndarray] | None = None
    last_train_loss: float | None = None
    # accuracy on test_shard under the current params and local_protos, None
    # once local_update starts changing them; evaluation reads nothing else,
    # so if inference ever reads global prototypes, clear this when they change
    test_accuracy: float | None = None

    @property
    def class_counts(self) -> np.ndarray:
        """(K,) samples of each class in the shard, derived from it on each read."""
        return self.shard.class_histogram()

    @property
    def n_local_classes(self) -> int:
        return int(np.count_nonzero(self.class_counts))


def compute_local_prototypes(state: ClientState) -> tuple[np.ndarray, np.ndarray]:
    """Per-class mean feature vectors over the client's shard, read-only:
    ascending ``ids`` of the classes with samples, and row i is ``ids[i]``'s.
    They are the server's fold, :func:`~tinyproto.aggregation.aggregate_mean`,
    of the shard's labels and features, under its one summation rule.
    """
    ids, block = aggregate_mean(state.shard.y, forward_features(state.params, state.shard.x))
    ids.flags.writeable = block.flags.writeable = False
    return ids, block


def _dense_targets(state: ClientState, global_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full-length regularization targets for the classes the client holds,
    as an ``(ids, (n, d))`` pair, ids ascending.

    Row c of the ``(K, s)`` block ``global_values`` is class c's payload, as
    the caller has checked (rows of one width, finite values).  All-zero
    rows mean the server has not aggregated that class yet, as in the first
    round; they are dropped so the class contributes nothing to the penalty.
    Rows of classes with no samples are dropped too: the penalty reads only
    the classes of the client's shard.  The kept rows are reconstructed.
    """
    ids = np.flatnonzero(global_values.any(axis=1) & (state.class_counts > 0))
    return ids, reconstruct(state.mask_set, ids, global_values[ids])


def local_update(
    state: ClientState,
    global_values: np.ndarray,
    cfg: ExperimentConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Train locally and return this client's class means as ``(ids, block)``.

    Steps: rebuild dense targets of the held classes from the received
    ``(K, s)`` global block (row c is class c's), run ``cfg.local_epochs``
    epochs of minibatch SGD on ``state.params`` in place, recompute the
    per-class feature means, then keep each one's s masked entries.  Only
    locally present classes are returned, ids ascending, one unscaled block
    row each; the caller applies any count scaling.  Of ``cfg`` only
    ``lam``, ``mu``, ``lr``, ``batch_size`` and ``local_epochs`` are read.
    ``rng`` drives the per-epoch shuffles; the caller derives it from
    (experiment seed, client id, round).  K is the model's; a shard of
    another ``n_classes``, or a client that holds no mask set, is refused
    at once.  An error raised mid-training, such as an overflow, leaves
    ``state.params`` part-trained and ``state.local_protos`` None.  At
    ``lam = 0`` the first step is skipped: no target is built.
    """
    n = len(state.shard)
    if n == 0:
        raise ValueError(f"client {state.client_id} has an empty shard")

    n_classes = state.params.dims[3]
    if state.shard.n_classes != n_classes:
        raise ValueError(
            f"client {state.client_id}: shard has n_classes={state.shard.n_classes}, "
            f"model has K={n_classes}"
        )
    masks = state.mask_set
    if masks is None:
        raise ValueError(f"client {state.client_id} holds no mask set")
    if global_values.shape != (n_classes, masks.s):
        raise ValueError(
            f"client {state.client_id}: globals block has shape {global_values.shape}, "
            f"expected (K, s) = ({n_classes}, {masks.s})"
        )

    state.test_accuracy = None

    xs, ys = state.shard.x, state.shard.y
    # one gradient block per update: every batch fills it, and its step
    # consumes it to change state.params in place
    params = state.params
    grads = Gradients.empty(params.shapes)
    # at lam = 0 the penalty reads no target, so none is built; with no
    # target every term is 0.0, so the starting means are not needed
    penalty = np.zeros(n_classes)
    targets = _dense_targets(state, global_values) if cfg.lam > 0 else None
    if targets is not None and len(targets[0]):
        # the update's starting means and the targets fix each class's term
        # for every epoch; local_protos, when set, describes state.params
        # (set by the previous local_update or by run_round's evaluation)
        protos = state.local_protos
        if protos is None:
            protos = compute_local_prototypes(state)
        penalty = class_penalties(protos, targets, cfg.mu, n_classes=n_classes)
    # the first step changes the params, and a diverging one leaves them
    # mid-step: from here the old means describe them no more
    state.local_protos = None
    for _ in range(cfg.local_epochs):
        order = rng.permutation(n)
        batch_losses = []
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            loss, _ = loss_and_grad(params, xs[idx], ys[idx], penalty, cfg.lam, out=grads)
            sgd_step(params, grads, cfg.lr)
            batch_losses.append(loss)

    state.local_protos = compute_local_prototypes(state)
    state.last_train_loss = float(np.mean(batch_losses))

    ids, block = state.local_protos
    return ids, compress(masks, ids, block)


def _nearest_local_class(state: ClientState, x: np.ndarray) -> np.ndarray:
    """Class of the nearest local prototype (L2) for each row of ``x``.

    Only locally present classes compete; ties go to the lowest class id.
    The answer is the argmin of :func:`_l2_distances`, ties included, but
    that (n, c, d) computation runs only on rows a GEMM screen cannot settle.

    The screen scores ``|p|^2 - 2 f.p``, the squared distance less ``|f|^2``.
    With ``u = eps / 2`` and, per row, ``M = 2 (|f|^2 + max_k |p_k|^2)``,
    which is at least ``(|f| + |p_k|)^2`` for every k, each score is within
    ``(d + 2) u M`` of its exact value (dot products of ``d`` terms in any
    order, then one addition), and so is each squared sum of
    ``_l2_distances`` (``d`` non-negative terms, each rounded twice before
    the sum).  A row whose best score beats its second best by more than

        B = 4 (d + 2) eps M + 8 (d + 2) smallest_subnormal

    therefore has computed squared distances more than ``4 (d + 2) u M``
    apart, above the ``5 u M`` their correctly rounded square roots need to
    stay apart: the exact argmin is the screen's, and unique.  The subnormal
    term covers gradual underflow, and the margin the rounding of ``B``.
    ``B`` is computed from ``2 M``, so it is infinite wherever a score could
    overflow.  Every other row, a near or exact tie or one with a
    non-finite value, is ranked again by ``_l2_distances``.
    """
    if state.local_protos is None or len(state.local_protos[0]) == 0:
        raise InferenceError(f"client {state.client_id} has no local prototypes")
    ids, block = state.local_protos
    feats = forward_features(state.params, x)
    sq_norms = np.einsum("kj,kj->k", block, block)
    scores = sq_norms - 2.0 * (feats @ block.T)
    picked = np.argmin(scores, axis=1)
    if block.shape[0] > 1:
        best_two = np.partition(scores, 1, axis=1)
        d = block.shape[1]
        two_m = (np.einsum("ij,ij->i", feats, feats) + sq_norms.max()) * 4.0
        # from 2 M: infinite wherever a score could overflow
        bound = two_m * (2 * (d + 2) * _F64.eps) + 8 * (d + 2) * _F64.smallest_subnormal
        settled = best_two[:, 1] - best_two[:, 0] > bound
        if not settled.all():
            near = np.flatnonzero(~settled)
            picked[near] = np.argmin(_l2_distances(feats[near], block), axis=1)
    return ids[picked]


def _l2_distances(feats: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """(n, c) Euclidean distances between the rows of two arrays."""
    return np.linalg.norm(feats[:, None, :] - stack[None, :, :], axis=2)


def evaluate_accuracy(state: ClientState) -> float:
    """Accuracy of nearest-prototype prediction on the local test split."""
    if state.test_shard is None or len(state.test_shard) == 0:
        raise ValueError(f"client {state.client_id} has no test data")
    picked = _nearest_local_class(state, state.test_shard.x)
    return float(np.mean(picked == state.test_shard.y))
