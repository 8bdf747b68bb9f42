"""The per-class mean of an ``(ids, rows)`` block: the server's combination
of a round's client prototype payloads, and each client's class means.

Two server variants, selectable per experiment, differ only on the client,
so the server runs :func:`aggregate_mean` for both:

* ``simple``: plain unweighted mean over contributing clients.
* ``scaled``: clients pre-multiply their vectors by their own sample count
  before upload; the server never sees a count on its own.

Each server call folds a whole round: ``rows`` holds every upload's rows,
dense or compressed (the math is the same), row i of class ``ids[i]``, in
ascending client-id order, so results are bit-identical whatever order the
uploads arrived in (the summation rule is stated on :func:`aggregate_mean`).
It returns ``(classes, combined)``: the ascending ids of the classes with a
row, and one combined row each.
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


def aggregate_mean(ids, rows) -> tuple[np.ndarray, np.ndarray]:
    """Unweighted mean of each class's rows, for the server and the clients.

    The one summation rule: each class's rows, in the order given, are
    reduced as numpy's ``rows[ids == c].mean(axis=0)`` reduces them, bit for
    bit: one after another when w > 1, but pairwise for a width-1 class of 9
    or more rows.  A one-row class is its row, the sign of a zero included.
    """
    ids, rows = np.asarray(ids), np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or len(rows) == 0 or ids.shape != (len(rows),):
        raise AggregationError(f"need n >= 1 ids and (n, w) rows, got {ids.shape} {rows.shape}")
    # bools would index as a mask; bincount reads no float, uint64 or negative id
    if ids.dtype.kind not in "iu" or not np.can_cast(ids.dtype, np.intp):
        raise AggregationError(f"class ids must be integers, got {ids.dtype} (first id {ids[0]})")
    if ids.min() < 0:
        raise AggregationError(f"class id {ids[ids < 0][0]} is negative")
    if (ids[1:] < ids[:-1]).any():
        rows = rows[np.argsort(ids, kind="stable")]
    else:
        # already in class order, as a client's class-sorted shard is: no
        # gather, but a C-ordered block, which sums its rows as a gather's does
        rows = np.ascontiguousarray(rows)
    held = np.bincount(ids)
    classes = np.flatnonzero(held)
    held = held[classes]
    ends = np.cumsum(held)
    starts = ends - held
    combined = rows[starts]  # the sum of a one-row class is its row
    for i in np.flatnonzero(held > 1).tolist():
        rows[starts[i] : ends[i]].sum(axis=0, out=combined[i])
    combined /= held[:, None]
    return classes, combined


AGGREGATORS = {
    "simple": aggregate_mean,
    "scaled": aggregate_mean,
}
AGGREGATOR_CHOICES = tuple(AGGREGATORS)
