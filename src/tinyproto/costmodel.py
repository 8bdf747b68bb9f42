"""Closed-form per-round communication costs for the compared algorithms.

Costs are raw parameter counts per federation round (uplink plus downlink),
matching the traffic the simulator measures for its own exchanges:

    LG-FedAvg   sum_i |phi_i| * 2
    FML         M * (|theta_aux| + |phi_aux|) * 2
    FedKD       M * (|theta_aux| + |phi_aux|) * 2 * r
    FedDistill  sum_i (K_i + K) * K
    FedProto    sum_i (K_i + K) * d        (FedTGP identical)
    TinyProto   sum_i (K_i + K) * s
    FedAvg      2 * M * full_model_params

K_i is the number of classes present on client i (only those travel uplink;
the server always answers with all K).  The FedAvg convention (full model
up and down per client) is stated here because the comparison figure
leaves it implicit.

Each query-file key is declared once, on its :class:`CostQuery` field,
with the kind of value it takes: a count, a real number, or a
comma-separated list of counts.  ``QUERY_KEYS`` (key -> field) is read from
those declarations, and both the query file's parser and :func:`cost`'s
checks go by the field's kind.  Every message about a missing or bad field
leads with its query-file key, as the config file's messages do.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from typing import Sequence

from .config import as_int

__all__ = ["ALGORITHMS", "QUERY_KEYS", "CostQuery", "cost", "cost_millions", "figure1_table", "millions"]

ALGORITHMS = (
    "LG-FedAvg",
    "FML",
    "FedKD",
    "FedDistill",
    "FedProto",
    "FedTGP",
    "TinyProto",
    "FedAvg",
)

def _query_key(key: str, kind: type = int, *, listed: bool = False):
    """An optional field read from query-file key ``key``: a value of
    ``kind`` (``int`` for a count, ``float`` for a real number), or with
    ``listed`` one or more of them, comma-separated in the file."""
    return field(default=None, metadata={"key": key, "kind": kind, "listed": listed})


@dataclass(frozen=True)
class CostQuery:
    """Inputs for one algorithm's per-round cost.

    Only the fields an algorithm actually uses must be present;
    ``classes_per_client`` accepts a single count (applied to all M clients)
    or an explicit per-client list.  Every count, each list entry included,
    must be an integer >= 0 (numpy's integers count, a bool does not);
    ``reduction_factor`` may be any finite real number >= 0 but a bool.
    """

    algorithm: str
    n_clients: int | None = _query_key("M")
    n_classes: int | None = _query_key("K")
    classes_per_client: int | Sequence[int] | None = _query_key("K_i", listed=True)
    proto_dim: int | None = _query_key("d")
    comp_dim: int | None = _query_key("s")
    classifier_params: int | None = _query_key("classifier_params")
    aux_extractor_params: int | None = _query_key("aux_extractor_params")
    aux_classifier_params: int | None = _query_key("aux_classifier_params")
    reduction_factor: float | None = _query_key("r", float)
    full_model_params: int | None = _query_key("full_model_params")

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; expected one of {', '.join(ALGORITHMS)}"
            )


# query-file key -> CostQuery field (a ``dataclasses.Field``), and field name -> field
QUERY_KEYS = {f.metadata["key"]: f for f in fields(CostQuery) if f.metadata}
_QUERY_FIELDS = {f.name: f for f in QUERY_KEYS.values()}


def _count(what: str, value) -> int:
    """``value`` as a Python int >= 0; refuse bools and anything not an integer."""
    value = as_int(what, value)
    if value < 0:
        raise ValueError(f"{what} must be >= 0, got {value}")
    return value


def _require(query: CostQuery, name: str):
    value = getattr(query, name)
    meta = _QUERY_FIELDS[name].metadata
    key = meta["key"]
    if value is None:
        raise ValueError(f"{key}: {query.algorithm} cost requires field {name!r}")
    what = f"{key}: field {name!r}"
    if meta["listed"] and hasattr(value, "__iter__"):
        return [_count(what, k) for k in value]
    if meta["kind"] is int:
        return _count(what, value)
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{key}: field {name!r} must be a real number, got {value!r}")
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{key}: field {name!r} must be finite and >= 0, got {value!r}")
    return value


def _per_client_classes(query: CostQuery) -> list[int]:
    counts = _require(query, "classes_per_client")
    if isinstance(counts, int):
        return [counts] * _require(query, "n_clients")
    if not counts:
        raise ValueError("K_i: classes_per_client must not be empty")
    if query.n_clients is not None and _require(query, "n_clients") != len(counts):
        raise ValueError(
            f"K_i, M: classes_per_client has {len(counts)} entries "
            f"but n_clients={query.n_clients}"
        )
    return counts


def cost(query: CostQuery) -> int:
    """Exact per-round parameter count for the queried algorithm."""
    algo = query.algorithm
    if algo == "LG-FedAvg":
        m = _require(query, "n_clients")
        phi = _require(query, "classifier_params")
        return m * phi * 2
    if algo in ("FML", "FedKD"):
        m = _require(query, "n_clients")
        theta = _require(query, "aux_extractor_params")
        phi = _require(query, "aux_classifier_params")
        base = m * (theta + phi) * 2
        if algo == "FML":
            return base
        r = _require(query, "reduction_factor")
        try:  # past the float range the product is inf, or base cannot convert
            return int(round(base * r))
        except OverflowError:
            raise ValueError(f"r: {algo} cost M * (theta + phi) * 2 * r is not finite") from None
    if algo == "FedDistill":
        k = _require(query, "n_classes")
        return sum((ki + k) * k for ki in _per_client_classes(query))
    if algo in ("FedProto", "FedTGP"):
        k = _require(query, "n_classes")
        d = _require(query, "proto_dim")
        return sum((ki + k) * d for ki in _per_client_classes(query))
    if algo == "TinyProto":
        k = _require(query, "n_classes")
        s = _require(query, "comp_dim")
        return sum((ki + k) * s for ki in _per_client_classes(query))
    if algo == "FedAvg":
        m = _require(query, "n_clients")
        full = _require(query, "full_model_params")
        return 2 * m * full
    raise ValueError(f"unknown algorithm {algo!r}")


def cost_millions(query: CostQuery) -> float:
    """Cost in millions of parameters, the usual comparison unit."""
    return millions(query.algorithm, cost(query))


def millions(algorithm: str, n: int) -> float:
    """``n`` parameters of ``algorithm`` in millions, divided exactly.

    A quotient past the float range raises ValueError naming the algorithm.
    """
    try:
        return n / 10**6
    except OverflowError:
        raise ValueError(f"{algorithm} cost in millions is past the float range") from None


def figure1_table(
    model_penultimate_params: int,
    k_range: Sequence[int],
    d_range: Sequence[int],
) -> list[dict]:
    """Per-client, per-direction cost grid: full model vs prototype exchange.

    For each (K, d) cell the full-model cost is the trunk parameters plus the
    d*K classifier, while the prototype cost is K*d alone, so the prototype
    route is always cheaper but its advantage shrinks as K*d grows.  Rows
    where the prototype cost reaches half the full-model cost are flagged as
    near-parity (the advantage has dropped below 2x).  Every count must be an
    integer >= 0 (numpy's integers count, a bool does not).
    """
    if not k_range or not d_range:
        raise ValueError("k_range and d_range must be non-empty")
    trunk = _count("model_penultimate_params", model_penultimate_params)
    ks = [_count("k_range entry", k) for k in k_range]
    ds = [_count("d_range entry", d) for d in d_range]
    rows = []
    for k in ks:
        for d in ds:
            fedavg = trunk + k * d
            pbfl = k * d
            rows.append(
                {
                    "n_classes": k,
                    "proto_dim": d,
                    "fedavg_params": fedavg,
                    "pbfl_params": pbfl,
                    "ratio": pbfl / fedavg,
                    "near_parity": 2 * pbfl >= fedavg,
                }
            )
    return rows
