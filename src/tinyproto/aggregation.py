"""Server-side combination of a round's client prototype payloads.

Two variants, selectable per experiment:

* ``simple``: plain unweighted mean over contributing clients.
* ``scaled``: clients pre-multiply their vectors by their own sample count
  before upload; the server just averages the received vectors and never
  sees a count on its own.

``simple`` and ``scaled`` differ only on the client (whether it scales by
its count), so the server runs the same :func:`aggregate_mean` for both.
Each call folds a whole round: ``rows`` holds every upload's rows, dense or
compressed (the math is the same), and row i belongs to class ``ids[i]``.
Each class's sum starts from zeros and adds its rows in the order given;
the caller passes them in ascending client-id order, so results are
bit-identical whatever order the uploads arrived in.  Each call returns
``(classes, combined)``: the ascending ids of the classes with a row, and
one combined row for each.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "AggregationError",
    "aggregate_mean",
    "AGGREGATORS",
    "AGGREGATOR_CHOICES",
]


class AggregationError(ValueError):
    """An aggregation received unusable rows."""


def _block(ids, rows) -> tuple[np.ndarray, np.ndarray]:
    ids, rows = np.asarray(ids), np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or len(rows) == 0 or ids.shape != (len(rows),):
        raise AggregationError(f"need n >= 1 ids and (n, w) rows, got {ids.shape} {rows.shape}")
    return ids, rows


def aggregate_mean(ids, rows) -> tuple[np.ndarray, np.ndarray]:
    """Unweighted mean of each class's rows over its contributing clients.

    Serves both ``simple`` (raw vectors) and ``scaled`` (count * vector,
    scaled on the client); the server never receives a count for either.
    """
    ids, rows = _block(ids, rows)
    contributors = np.bincount(ids)
    classes = np.flatnonzero(contributors)
    sums = np.zeros((len(contributors), rows.shape[1]))
    np.add.at(sums, ids, rows)
    return classes, sums[classes] / contributors[classes, None]


AGGREGATORS = {
    "simple": aggregate_mean,
    "scaled": aggregate_mean,
}
AGGREGATOR_CHOICES = tuple(AGGREGATORS)
