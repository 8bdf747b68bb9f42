"""Synthetic blob datasets and label-skewed partitioning across clients.

Class clusters are isotropic Gaussians around seeded random centers on a
radius-4 sphere, which keeps classes well separated at small noise levels.
Partitioning draws, per class, client proportions from a Dirichlet
distribution and assigns that class's samples by largest-remainder rounding,
so label skew grows as the concentration alpha shrinks.

Per-class counts are never stored beside a dataset: ``class_histogram()``
derives the one ``(K,)`` count vector from the labels whenever it is asked,
so no copy of the counts can disagree with the shard.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Dataset",
    "PartitionSpec",
    "make_blobs",
    "dirichlet_partition",
    "split_train_test",
    "load_csv",
]

log = logging.getLogger(__name__)


@dataclass
class Dataset:
    """Feature matrix x (N, D), integer labels y (N,), and the class count."""

    x: np.ndarray
    y: np.ndarray
    n_classes: int

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.x.ndim != 2:
            raise ValueError(f"x must be 2-D, got shape {self.x.shape}")
        if self.y.shape != (self.x.shape[0],):
            raise ValueError("y must have one label per row of x")
        if len(self.y) == 0:
            raise ValueError("dataset must be non-empty")
        if np.any(self.y < 0) or np.any(self.y >= self.n_classes):
            raise ValueError(f"labels must lie in [0, {self.n_classes})")
        if not np.all(np.isfinite(self.x)):
            raise ValueError("features contain non-finite entries")

    def __len__(self) -> int:
        return self.x.shape[0]

    @property
    def input_dim(self) -> int:
        return self.x.shape[1]

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.x[indices], self.y[indices], self.n_classes)

    def class_histogram(self) -> np.ndarray:
        """(K,) samples per class, 0 for a class the dataset lacks."""
        return np.bincount(self.y, minlength=self.n_classes)


@dataclass(frozen=True)
class PartitionSpec:
    """How to split a dataset across clients."""

    n_clients: int
    alpha: float
    seed: int
    train_fraction: float = 0.75

    def __post_init__(self):
        if self.n_clients < 1:
            raise ValueError("n_clients must be >= 1")
        if self.alpha <= 0:
            raise ValueError("alpha must be > 0")
        if not 0 < self.train_fraction < 1:
            raise ValueError("train_fraction must lie in (0, 1)")


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
    xs = []
    ys = []
    for cls in range(n_classes):
        noise = rng.normal(scale=sigma, size=(per_class, input_dim))
        xs.append(centers[cls] + noise)
        ys.append(np.full(per_class, cls, dtype=np.int64))
    return Dataset(np.concatenate(xs), np.concatenate(ys), n_classes)


def _largest_remainder(quotas: np.ndarray, total: int) -> np.ndarray:
    """Integer counts summing to total, closest to the fractional quotas."""
    base = np.floor(quotas).astype(np.int64)
    remainder = total - int(base.sum())
    if remainder > 0:
        # stable sort keeps the lowest client index first among ties
        order = np.argsort(-(quotas - base), kind="stable")
        base[order[:remainder]] += 1
    return base


def dirichlet_partition(ds: Dataset, spec: PartitionSpec) -> list[Dataset | None]:
    """Split a dataset into per-client shards with Dirichlet label skew.

    Per class, client proportions are drawn from Dir(alpha * ones(M)) and the
    class's samples are dealt out by largest-remainder rounding, so every
    sample lands on exactly one client.  Clients that receive nothing get a
    None shard (and a logged warning).  A shard's per-class counts are its
    :meth:`Dataset.class_histogram`.
    """
    rng = np.random.default_rng(spec.seed)
    assigned: list[list[np.ndarray]] = [[] for _ in range(spec.n_clients)]
    for cls in range(ds.n_classes):
        cls_idx = np.flatnonzero(ds.y == cls)
        if len(cls_idx) == 0:
            continue
        props = rng.dirichlet(np.full(spec.n_clients, spec.alpha))
        per_client = _largest_remainder(props * len(cls_idx), len(cls_idx))
        start = 0
        for client, n in enumerate(per_client):
            if n > 0:
                assigned[client].append(cls_idx[start : start + n])
            start += n
    shards: list[Dataset | None] = []
    for client in range(spec.n_clients):
        if not assigned[client]:
            log.warning("client %d received no samples; shard is empty", client)
            shards.append(None)
            continue
        idx = np.sort(np.concatenate(assigned[client]))
        shards.append(ds.subset(idx))
    return shards


def split_train_test(shard: Dataset, fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded shuffle then split; both sides stay non-empty."""
    if not 0 < fraction < 1:
        raise ValueError("fraction must lie in (0, 1)")
    n = len(shard)
    if n < 2:
        raise ValueError(f"cannot split a shard of {n} samples")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_train = int(round(n * fraction))
    n_train = min(max(n_train, 1), n - 1)
    train_idx = np.sort(perm[:n_train])
    test_idx = np.sort(perm[n_train:])
    return shard.subset(train_idx), shard.subset(test_idx)


def load_csv(path) -> Dataset:
    """Read `y,x_0,...,x_{D-1}` rows below a one-line header.

    Labels must be non-negative integers; any non-numeric cell is rejected
    with the offending data row and column in the message.
    """
    xs = []
    ys = []
    width = None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            next(reader)
        except StopIteration:
            raise ValueError("csv file is empty") from None
        for row_no, row in enumerate(reader, start=1):
            if not row:
                continue
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ValueError(f"row {row_no}: expected {width} cells, got {len(row)}")
            values = []
            for col_no, cell in enumerate(row):
                try:
                    values.append(float(cell))
                except ValueError:
                    raise ValueError(
                        f"row {row_no}: non-numeric cell {cell.strip()!r} in column {col_no}"
                    ) from None
            label = values[0]
            if label < 0 or label != int(label):
                raise ValueError(f"row {row_no}: label {label!r} is not a non-negative integer")
            ys.append(int(label))
            xs.append(values[1:])
    if not xs:
        raise ValueError("csv file has a header but no data rows")
    y = np.array(ys, dtype=np.int64)
    return Dataset(np.array(xs), y, int(y.max()) + 1)
