"""Server-side combination of a round's client prototype payloads.

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
    "aggregate_weighted",
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


def aggregate_weighted(ids, rows, counts) -> tuple[np.ndarray, np.ndarray]:
    """Count-weighted combination, normalized by the number of contributors.

    With counts n_i and vectors v_i (the rows of one class) this returns
    (1/N) * sum_i (n_i / sum_j n_j) * v_i  where N is the number of clients
    contributing the class.  Note this is not a convex combination of the
    v_i: the output carries an extra 1/N factor relative to the simple mean.
    """
    ids, rows = _block(ids, rows)
    counts = np.asarray(counts, dtype=np.float64)
    if counts.shape != ids.shape:
        raise AggregationError(f"{counts.shape} counts for {len(rows)} rows")
    # whole counts (the server checks uploads) sum exactly in any order
    totals = np.bincount(ids, weights=counts)[ids]
    if (totals <= 0).any():
        raise AggregationError(f"class {ids[totals <= 0].min()} has no positive total count")
    return aggregate_mean(ids, (counts / totals)[:, None] * rows)


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
    "weighted": aggregate_weighted,
    "simple": aggregate_mean,
    "scaled": aggregate_mean,
}
AGGREGATOR_CHOICES = tuple(AGGREGATORS)
