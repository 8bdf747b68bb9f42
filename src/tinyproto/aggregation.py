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
Payloads are :class:`~tinyproto.prototypes.Prototype` values, dense or
compressed (the math is the same), and sums run in ascending client-id
order, so results are bit-identical regardless of arrival order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .prototypes import Prototype

__all__ = [
    "AggregationError",
    "ClassContribution",
    "aggregate_weighted",
    "aggregate_mean",
    "AGGREGATOR_CHOICES",
]

AGGREGATOR_CHOICES = ("weighted", "simple", "scaled")


class AggregationError(ValueError):
    """A per-class aggregation received unusable contributions."""


@dataclass(frozen=True)
class ClassContribution:
    """One client's payload for one class.

    ``sample_count`` is present only in the weighted variant; the mean
    must arrive without it (a scaled payload already folds it in).
    """

    client_id: int
    class_id: int
    payload: Prototype
    sample_count: int | None = None

    def __post_init__(self):
        if self.payload.class_id != self.class_id:
            raise ValueError(
                f"payload class {self.payload.class_id} != contribution class {self.class_id}"
            )
        if self.sample_count is not None and self.sample_count < 0:
            raise ValueError("sample_count must be >= 0")


def _checked_vectors(contribs: list[ClassContribution]) -> list[ClassContribution]:
    if not contribs:
        raise AggregationError("no contributions for class")
    cls = contribs[0].class_id
    dim = contribs[0].payload.dim
    for c in contribs:
        if c.class_id != cls:
            raise AggregationError(f"mixed classes in aggregation: {c.class_id} vs {cls}")
        if c.payload.dim != dim:
            raise AggregationError(
                f"payload length mismatch: {c.payload.dim} vs {dim} for class {cls}"
            )
    return sorted(contribs, key=lambda c: c.client_id)


def aggregate_weighted(contribs: list[ClassContribution]) -> Prototype:
    """Count-weighted combination, normalized by the number of contributors.

    With counts n_i and vectors v_i this returns
    (1/N) * sum_i (n_i / sum_j n_j) * v_i  where N is the number of clients
    contributing the class.  Note this is not a convex combination of the
    v_i: the output carries an extra 1/N factor relative to the simple mean.
    """
    ordered = _checked_vectors(contribs)
    counts = []
    for c in ordered:
        if c.sample_count is None:
            raise AggregationError(
                f"weighted aggregation needs sample_count (client {c.client_id})"
            )
        counts.append(c.sample_count)
    total = sum(counts)
    if total <= 0:
        raise AggregationError("weighted aggregation needs a positive total count")
    acc = np.zeros(ordered[0].payload.dim)
    for c, n in zip(ordered, counts):
        acc += (n / total) * c.payload.values
    acc /= len(ordered)
    return Prototype(ordered[0].class_id, acc)


def aggregate_mean(contribs: list[ClassContribution]) -> Prototype:
    """Unweighted mean of the payloads over contributing clients.

    Serves both ``simple`` (raw vectors) and ``scaled`` (count * vector,
    scaled on the client).  Contributions must not carry a standalone
    sample_count: the point of the scaled variant is that the server never
    receives one, and the simple variant never sends one.
    """
    ordered = _checked_vectors(contribs)
    for c in ordered:
        if c.sample_count is not None:
            raise AggregationError(
                "mean aggregation must not receive standalone sample counts"
            )
    acc = np.zeros(ordered[0].payload.dim)
    for c in ordered:
        acc += c.payload.values
    acc /= len(ordered)
    return Prototype(ordered[0].class_id, acc)
