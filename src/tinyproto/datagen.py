"""Synthetic blob datasets and label-skewed partitioning across clients.

Class clusters are isotropic Gaussians around seeded random centers on a
radius-4 sphere, which keeps classes well separated at small noise levels.
Partitioning draws, per class, client proportions from a Dirichlet
distribution and assigns that class's samples by largest-remainder rounding,
so label skew grows as the concentration alpha shrinks.  A client's shard
splits by a seeded shuffle: ``TRAIN_FRACTION`` (75%) trains, the rest tests.

Each sample is copied and checked as few times as the API allows:

* ``make_blobs`` draws every class's noise in one block and adds the
  centers to it in place; ``Dataset(...)`` checks it once.
* ``dirichlet_partition`` records each sample's client in one owner
  vector; one stable sort by owner then gives every client its rows, in
  ascending order.
* ``Dataset.subset`` trusts its parent's check: the rows of a checked
  dataset are finite and in range, and no dataset's arrays are edited in
  place, so a subset checks only its shape and that it is non-empty.

Shards are class-sorted: the blobs come in class order, and every shard and
every train or test split keeps its parent's rows in ascending order, so
each one's labels are non-decreasing.

Per-class counts are never stored beside a dataset: ``class_histogram()``
derives the one ``(K,)`` count vector from the labels whenever it is asked,
so no copy of the counts can disagree with the shard.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Dataset",
    "make_blobs",
    "dirichlet_partition",
    "split_train_test",
    "TRAIN_FRACTION",
]

# share of each client's shard it trains on; the rest is its test split
TRAIN_FRACTION = 0.75


@dataclass(eq=False)
class Dataset:
    """Feature matrix x (N, D), integer labels y (N,), and the class count.

    Equality is identity.
    """

    x: np.ndarray
    y: np.ndarray
    n_classes: int

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y)
        self._check_shape()
        # an int64 cast would truncate 0.5 to 0 and True to 1
        if self.y.dtype.kind not in "iu" or not np.can_cast(self.y.dtype, np.int64):
            raise ValueError(f"labels must be integers, got {self.y.dtype}")
        self.y = self.y.astype(np.int64, copy=False)
        if np.any(self.y < 0) or np.any(self.y >= self.n_classes):
            raise ValueError(f"labels must lie in [0, {self.n_classes})")
        if not np.all(np.isfinite(self.x)):
            raise ValueError("features contain non-finite entries")

    def _check_shape(self) -> None:
        if self.x.ndim != 2:
            raise ValueError(f"x must be 2-D, got shape {self.x.shape}")
        if self.y.shape != (self.x.shape[0],):
            raise ValueError("y must have one label per row of x")
        if len(self.y) == 0:
            raise ValueError("dataset must be non-empty")

    def __len__(self) -> int:
        return self.x.shape[0]

    def subset(self, indices: np.ndarray) -> "Dataset":
        """The selected rows, as a dataset of the same classes.

        Only the shape checks run again: the rows already passed this
        dataset's label and finiteness checks, and no dataset's arrays are
        edited in place.
        """
        sub = object.__new__(Dataset)
        sub.x, sub.y, sub.n_classes = self.x[indices], self.y[indices], self.n_classes
        sub._check_shape()
        return sub

    def class_histogram(self) -> np.ndarray:
        """(K,) samples per class, 0 for a class the dataset lacks."""
        return np.bincount(self.y, minlength=self.n_classes)


def make_blobs(
    n_classes: int, input_dim: int, per_class: int, sigma: float, seed: int
) -> Dataset:
    """Gaussian clusters around seeded random unit-sphere centers scaled by 4."""
    if n_classes < 1 or input_dim < 1 or per_class < 1:
        raise ValueError("n_classes, input_dim and per_class must all be >= 1")
    if sigma <= 0:
        raise ValueError("sigma must be > 0")
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(n_classes, input_dim))
    centers = 4.0 * centers / np.linalg.norm(centers, axis=1, keepdims=True)
    # one draw, class 0's rows first: the stream order of one draw per class
    x = rng.normal(scale=sigma, size=(n_classes, per_class, input_dim))
    x += centers[:, None, :]
    y = np.repeat(np.arange(n_classes, dtype=np.int64), per_class)
    try:
        return Dataset(x.reshape(-1, input_dim), y, n_classes)
    except ValueError:  # the labels and shape are right: the features overflowed
        raise ValueError(f"sigma={sigma!r} draws samples that overflow to inf") from None


def dirichlet_partition(
    ds: Dataset, n_clients: int, alpha: float, seed: int
) -> list[Dataset | None]:
    """Split a dataset into per-client shards with Dirichlet label skew.

    Per class, client proportions are drawn from Dir(alpha * ones(M)) and the
    class's samples are dealt out by largest-remainder rounding, so every
    sample lands on exactly one client (an alpha whose draw has no shares is
    refused).  A client that receives nothing gets a None shard, and the
    caller reports it.  A shard's per-class counts are its :meth:`Dataset.class_histogram`.
    """
    if n_clients < 1:
        raise ValueError("n_clients must be >= 1")
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    rng = np.random.default_rng(seed)
    class_sizes = ds.class_histogram()
    held = np.flatnonzero(class_sizes)
    # one row of shares per held class, in class order, as one draw per class
    shares = rng.dirichlet(np.full(n_clients, alpha), size=len(held))
    if not np.all(shares.sum(axis=1) > 0):  # all zero where alpha * M overflows
        raise ValueError(f"alpha={alpha!r} draws no client shares (alpha * n_clients overflows)")
    quotas = shares * class_sizes[held, None]
    floors = np.floor(quotas)
    # largest remainder: the shortfall goes to the largest fractions, ties to the lowest client
    rank = np.argsort(np.argsort(floors - quotas, axis=1, kind="stable"), axis=1)
    shortfall = class_sizes[held] - floors.sum(axis=1)
    # counts[c, i]: how many of class c's samples client i gets
    counts = np.zeros((ds.n_classes, n_clients), dtype=np.int64)
    counts[held] = floors + (rank < shortfall[:, None])
    # each class's rows, ascending, go to client 0 first, then client 1, ...
    by_class = np.argsort(ds.y, kind="stable")
    owner = np.empty(len(ds), dtype=np.int64)
    owner[by_class] = np.repeat(np.tile(np.arange(n_clients), ds.n_classes), counts.ravel())
    # stable, so each client's rows stay ascending
    rows = np.split(np.argsort(owner, kind="stable"), np.cumsum(counts.sum(axis=0))[:-1])
    return [ds.subset(idx) if len(idx) else None for idx in rows]


def split_train_test(shard: Dataset, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded shuffle, then ``TRAIN_FRACTION`` of the shard (rounded) to
    train and the rest to test; both sides stay non-empty."""
    n = len(shard)
    if n < 2:
        raise ValueError(f"cannot split a shard of {n} samples")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_train = int(round(n * TRAIN_FRACTION))
    n_train = min(max(n_train, 1), n - 1)
    train_idx = np.sort(perm[:n_train])
    test_idx = np.sort(perm[n_train:])
    return shard.subset(train_idx), shard.subset(test_idx)

