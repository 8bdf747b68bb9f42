"""Per-client behavior: local training, prototype generation, inference.

Each client owns an independently initialized model and a private shard.
During a round it rebuilds the dense global targets of the classes it holds,
runs E epochs of minibatch SGD on the combined loss, recomputes its
per-class feature means, and uploads the masked entries (optionally
pre-multiplied by its per-class sample counts).  Prediction is
nearest-local-prototype in feature space, restricted to classes the client
actually holds.

Every batch of an epoch reuses one prototype snapshot: the per-class feature
means over the whole shard under the epoch's starting parameters.  Epoch 0
reuses ``state.local_protos`` when it is set (it always describes
``state.params``), and each later epoch reuses the means computed at the end
of the one before, so a round makes one full-shard pass per epoch.  The
snapshot and the targets are fixed for the epoch, so each held class's
penalty term is computed once per epoch, not once per batch.  An update
copies the parameters once and every SGD step changes that copy in place;
the caller's arrays are never written.

Prototypes and payloads are arrays throughout: a block of ascending class
ids plus one row per class.  ``compute_local_prototypes`` returns the
client's means as such an ``(ids, (c, d))`` pair, the upload is
:func:`~tinyproto.prototypes.compress` of that block through its classes'
mask rows, and the dense targets are ``reconstruct`` of the received
non-zero rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .datagen import Dataset
from .masking import MaskSet
from .numerics import (
    ModelParams,
    class_penalties,
    forward_features,
    loss_and_grad,
    sgd_step,
)
from .prototypes import compress, reconstruct

__all__ = [
    "TrainConfig",
    "ClientState",
    "InferenceError",
    "MaskMissingError",
    "compute_local_prototypes",
    "local_update",
    "predict",
    "evaluate_accuracy",
]


class InferenceError(RuntimeError):
    """Prediction was requested before any local prototype existed."""


class MaskMissingError(RuntimeError):
    """A compressed exchange was attempted before masks were delivered."""


@dataclass
class TrainConfig:
    """Local-training hyperparameters shared by all clients."""

    lam: float = 1.0
    mu: float = 1.0
    lr: float = 0.01
    batch_size: int = 32
    local_epochs: int = 1
    rho: str = "squared_l2"

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if self.mu <= 0:
            raise ValueError("mu must be > 0")
        if self.lr <= 0:
            raise ValueError("lr must be > 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.local_epochs < 1:
            raise ValueError("local_epochs must be >= 1")


@dataclass
class ClientState:
    """Everything one client owns: model, data, counts, and latest targets."""

    client_id: int
    params: ModelParams
    shard: Dataset
    class_counts: dict[int, int]
    test_shard: Dataset | None = None
    mask_set: MaskSet | None = None
    global_protos: dict[int, np.ndarray] = field(default_factory=dict)
    # (ids, block): ascending ids of the classes with samples, their means
    local_protos: tuple[np.ndarray, np.ndarray] | None = None
    last_train_loss: float | None = None
    # accuracy on test_shard under the current params and local_protos, None
    # once local_update starts changing them; evaluation reads nothing else,
    # so if inference ever reads global prototypes, clear this when they change
    test_accuracy: float | None = None

    @property
    def n_local_classes(self) -> int:
        return sum(1 for n in self.class_counts.values() if n > 0)


def compute_local_prototypes(state: ClientState) -> tuple[np.ndarray, np.ndarray]:
    """Per-class mean feature vectors over the client's shard, read-only:
    ascending ``ids`` of the classes with samples, and row i is ``ids[i]``'s."""
    feats = forward_features(state.params, state.shard.x)
    ids, means = [], []
    for cls in sorted(state.class_counts):
        rows = feats[state.shard.y == cls]
        if rows.shape[0] > 0:
            ids.append(cls)
            means.append(rows.mean(axis=0))
    ids = np.array(ids, dtype=np.int64)
    block = np.array(means).reshape(len(ids), feats.shape[1])
    ids.flags.writeable = block.flags.writeable = False
    return ids, block


def _dense_targets(
    state: ClientState,
    global_ids: np.ndarray,
    global_values: np.ndarray,
    cps: bool,
) -> dict[int, np.ndarray]:
    """Rebuild full-length regularization targets for the classes the client holds.

    Row i of ``global_values`` is the payload of class ``global_ids[i]``.
    All-zero rows mean the server has not aggregated that class yet; they
    are dropped so the class contributes nothing to the penalty, same as in
    the very first round.  Rows of classes outside ``state.class_counts``
    are dropped too: the penalty reads only the classes of the client's
    shard.  Every received row must have s values (the model's feature dim
    without ``cps``), every value must be finite, and every class id must
    lie in [0, K).  With ``cps`` the caller has checked that the client holds
    its masks, and the kept rows are reconstructed into one read-only array.
    """
    if cps:
        n_classes, want = state.mask_set.n_classes, state.mask_set.s
    else:
        n_classes, want = state.params.dims[3], state.params.dims[2]
    bad = (global_ids < 0) | (global_ids >= n_classes)
    if bad.any():
        raise ValueError(
            f"class id {int(global_ids[bad][0])} outside [0, K) for K={n_classes}"
        )
    if len(global_ids) == 0:
        return {}
    if global_values.shape[1] != want:
        raise ValueError(
            f"length mismatch for class {int(global_ids[0])}: payloads have "
            f"{global_values.shape[1]} values, expected {want} "
            f"({'mask popcount' if cps else 'feature dim'})"
        )
    finite = np.isfinite(global_values).all(axis=1)
    if not finite.all():
        raise ValueError(f"non-finite payload for class {int(global_ids[~finite][0])}")
    held = np.zeros(n_classes, dtype=bool)
    held[list(state.class_counts)] = True
    keep = global_values.any(axis=1) & held[global_ids]
    ids, values = global_ids[keep], global_values[keep]
    if cps:
        values = reconstruct(values, state.mask_set.bits[ids])
        values.flags.writeable = False
    return dict(zip(ids.tolist(), values))


def local_update(
    state: ClientState,
    global_ids: np.ndarray,
    global_values: np.ndarray,
    cfg: TrainConfig,
    first_round: bool,
    rng: np.random.Generator,
    *,
    cps: bool = True,
    scale_by_count: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Train locally and return this client's upload as ``(ids, block)``.

    Steps: rebuild dense targets of the held classes from the received
    global block, run ``cfg.local_epochs`` epochs of minibatch SGD on a copy
    of the params (the penalty weight is forced to 0 in the first round),
    recompute the per-class feature means, then keep each one's masked
    entries (when ``cps``) and multiply by the class sample count (when
    ``scale_by_count``).  Only locally present
    classes are returned, ids ascending, one block row each.  ``rng`` drives
    the per-epoch shuffles; the caller derives it from (experiment seed,
    client id, round).
    """
    n = len(state.shard)
    if n == 0:
        raise ValueError(f"client {state.client_id} has an empty shard")
    if cps and state.mask_set is None:
        raise MaskMissingError(f"client {state.client_id} has no masks yet")

    state.global_protos = _dense_targets(state, global_ids, global_values, cps)
    state.test_accuracy = None
    lam = 0.0 if first_round else cfg.lam

    xs, ys = state.shard.x, state.shard.y
    # one copy per update, which every batch's step then changes in place
    params = ModelParams(*(a.copy() for a in state.params.arrays()))
    # the snapshot always describes state.params: local_protos is set by the
    # previous local_update or by run_round's evaluation
    protos = state.local_protos
    if protos is None:
        protos = compute_local_prototypes(state)
    penalty: dict[int, float] = {}
    epoch_losses: list[float] = []
    for _ in range(cfg.local_epochs):
        if lam > 0:
            # the snapshot and the targets are fixed for the epoch, so is each
            # class's penalty term
            penalty = class_penalties(
                dict(zip(protos[0].tolist(), protos[1])),
                state.global_protos,
                cfg.mu,
                cfg.rho,
            )
        order = rng.permutation(n)
        batch_losses = []
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            loss, grads = loss_and_grad(params, xs[idx], ys[idx], penalty, lam)
            sgd_step(params, grads, cfg.lr)
            batch_losses.append(loss)
        epoch_losses.append(float(np.mean(batch_losses)))
        # the end-of-epoch means are the next epoch's snapshot
        state.params = params
        protos = compute_local_prototypes(state)

    state.local_protos = protos
    state.last_train_loss = epoch_losses[-1]

    ids, block = protos
    if cps:
        block = compress(block, state.mask_set.bits[ids])
    if scale_by_count:
        block = block * np.array([[float(state.class_counts[cls])] for cls in ids.tolist()])
    return ids, block


def _nearest_local_class(state: ClientState, x: np.ndarray) -> np.ndarray:
    """Class of the nearest local prototype (L2) for each row of ``x``.

    Only locally present classes compete; ties go to the lowest class id.
    """
    if state.local_protos is None or len(state.local_protos[0]) == 0:
        raise InferenceError(f"client {state.client_id} has no local prototypes")
    ids, block = state.local_protos
    feats = forward_features(state.params, x)
    return ids[np.argmin(_l2_distances(feats, block), axis=1)]


def _l2_distances(feats: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """(n, c) Euclidean distances between the rows of two arrays.

    Bit-identical to ``np.linalg.norm(feats[:, None] - stack[None], axis=2)``,
    with one (n, c, d) temporary instead of three: the difference is squared
    in place, then summed along the same axis.
    """
    diff = feats[:, None, :] - stack[None, :, :]
    diff *= diff
    return np.sqrt(np.add.reduce(diff, axis=2))


def predict(state: ClientState, x: np.ndarray) -> int:
    """Class of the nearest local prototype in feature space (L2).

    Only locally present classes compete; ties go to the lowest class id.
    """
    return int(_nearest_local_class(state, np.atleast_2d(x))[0])


def evaluate_accuracy(state: ClientState) -> float:
    """Accuracy of nearest-prototype prediction on the local test split."""
    if state.test_shard is None or len(state.test_shard) == 0:
        raise ValueError(f"client {state.client_id} has no test data")
    picked = _nearest_local_class(state, state.test_shard.x)
    return float(np.mean(picked == state.test_shard.y))
