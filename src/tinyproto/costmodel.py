"""Closed-form per-round communication costs for the compared algorithms.

Costs are raw parameter counts per federation round (uplink plus downlink),
matching the traffic the simulator measures for its own exchanges under the
``simple`` and ``scaled`` aggregators:

    LG-FedAvg   sum_i |phi_i| * 2
    FML         M * (|theta_aux| + |phi_aux|) * 2
    FedKD       M * (|theta_aux| + |phi_aux|) * 2 * r
    FedDistill  sum_i (K_i + K) * K
    FedProto    sum_i (K_i + K) * d        (FedTGP identical)
    TinyProto   sum_i (K_i + K) * s
    FedAvg      2 * M * full_model_params

K_i is the number of classes present on client i (only those travel uplink;
the server always answers with all K).  Under ``weighted`` every uploaded
class also carries its count, so the simulator's TinyProto uplink is
sum_i K_i * (s + 1), one value per class more than billed here.  The
FedAvg convention (full model up and down per client) is stated here
because the comparison figure leaves it implicit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = ["ALGORITHMS", "CostQuery", "cost", "cost_millions", "figure1_table"]

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


@dataclass(frozen=True)
class CostQuery:
    """Inputs for one algorithm's per-round cost.

    Only the fields an algorithm actually uses must be present;
    ``classes_per_client`` accepts a single count (applied to all M clients)
    or an explicit per-client list.
    """

    algorithm: str
    n_clients: int | None = None
    n_classes: int | None = None
    classes_per_client: int | Sequence[int] | None = None
    proto_dim: int | None = None
    comp_dim: int | None = None
    classifier_params: int | None = None
    aux_extractor_params: int | None = None
    aux_classifier_params: int | None = None
    reduction_factor: float | None = None
    full_model_params: int | None = None

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; expected one of {', '.join(ALGORITHMS)}"
            )


def _require(query: CostQuery, name: str):
    value = getattr(query, name)
    if value is None:
        raise ValueError(f"{query.algorithm} cost requires field {name!r}")
    if isinstance(value, (int, float)) and not (math.isfinite(value) and value >= 0):
        raise ValueError(f"field {name!r} must be finite and >= 0, got {value!r}")
    return value


def _per_client_classes(query: CostQuery) -> list[int]:
    raw = _require(query, "classes_per_client")
    if isinstance(raw, int):
        m = _require(query, "n_clients")
        return [raw] * m
    counts = [int(k) for k in raw]
    if not counts:
        raise ValueError("classes_per_client must not be empty")
    if any(k < 0 for k in counts):
        raise ValueError("classes_per_client entries must be >= 0")
    if query.n_clients is not None and query.n_clients != len(counts):
        raise ValueError(
            f"classes_per_client has {len(counts)} entries but n_clients={query.n_clients}"
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
        return int(round(base * r))
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
    return cost(query) / 1e6


def figure1_table(
    model_penultimate_params: int,
    k_range: Sequence[int],
    d_range: Sequence[int],
    near_parity_ratio: float = 0.5,
) -> list[dict]:
    """Per-client, per-direction cost grid: full model vs prototype exchange.

    For each (K, d) cell the full-model cost is the trunk parameters plus the
    d*K classifier, while the prototype cost is K*d alone, so the prototype
    route is always cheaper but its advantage shrinks as K*d grows.  Rows
    where the prototype cost reaches ``near_parity_ratio`` of the full-model
    cost are flagged as near-parity (the advantage has dropped below
    1/near_parity_ratio).
    """
    if not k_range or not d_range:
        raise ValueError("k_range and d_range must be non-empty")
    if model_penultimate_params < 0:
        raise ValueError("model_penultimate_params must be >= 0")
    rows = []
    for k in k_range:
        for d in d_range:
            fedavg = model_penultimate_params + k * d
            pbfl = k * d
            rows.append(
                {
                    "n_classes": int(k),
                    "proto_dim": int(d),
                    "fedavg_params": int(fedavg),
                    "pbfl_params": int(pbfl),
                    "ratio": pbfl / fedavg,
                    "near_parity": pbfl >= near_parity_ratio * fedavg,
                }
            )
    return rows
