"""Server-side per-class combination of client prototype payloads.

Three variants, selectable per experiment:

* ``weighted``: each client's vector is weighted by its share of the class's
  samples, and the weighted sum is divided by the number of contributing
  clients.  Requires the raw per-client sample counts, so it leaks class
  distributions to the server; kept for A/B comparison only.
* ``simple``: plain unweighted mean over contributing clients.
* ``scaled``: clients pre-multiply their vectors by their own sample count
  before upload; the server just averages the received vectors and never
  sees a count on its own.

``simple`` and ``scaled`` differ only on the client (whether it scales by
its count), so the server runs the same :func:`aggregate_mean` for both.
Each call combines one class: an ``(m, w)`` array with one row per
contributing client, dense or compressed (the math is the same).  Sums start
from zeros and add the rows in the order given, then divide; the caller
passes them in ascending client-id order, so results are bit-identical
whatever order the uploads arrived in.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "AggregationError",
    "aggregate_weighted",
    "aggregate_mean",
    "AGGREGATOR_CHOICES",
]

AGGREGATOR_CHOICES = ("weighted", "simple", "scaled")


class AggregationError(ValueError):
    """A per-class aggregation received unusable contributions."""


def _rows(values) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise AggregationError(f"expected an (m, w) array of rows, got shape {values.shape}")
    if len(values) == 0:
        raise AggregationError("no contributions for class")
    return values


def aggregate_weighted(values, counts) -> np.ndarray:
    """Count-weighted combination, normalized by the number of contributors.

    With counts n_i and vectors v_i (the rows of ``values``) this returns
    (1/N) * sum_i (n_i / sum_j n_j) * v_i  where N is the number of clients
    contributing the class.  Note this is not a convex combination of the
    v_i: the output carries an extra 1/N factor relative to the simple mean.
    """
    values = _rows(values)
    counts = np.asarray(counts, dtype=np.float64)
    if counts.shape != (len(values),):
        raise AggregationError(f"{counts.shape} counts for {len(values)} rows")
    total = counts.sum()
    if total <= 0:
        raise AggregationError("weighted aggregation needs a positive total count")
    acc = np.zeros(values.shape[1])
    for row, n in zip(values, counts):
        acc += (n / total) * row
    acc /= len(values)
    return acc


def aggregate_mean(values) -> np.ndarray:
    """Unweighted mean of the rows over contributing clients.

    Serves both ``simple`` (raw vectors) and ``scaled`` (count * vector,
    scaled on the client); the server never receives a count for either.
    """
    values = _rows(values)
    acc = np.zeros(values.shape[1])
    for row in values:
        acc += row
    acc /= len(values)
    return acc
