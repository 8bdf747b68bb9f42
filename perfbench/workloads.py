"""Workload definitions for the tinyproto benchmark.

Every workload is a batch job: one ``run_experiment`` call per experiment,
each in a fresh worker process.  All of them use the ``scaled`` aggregator,
``cps = on`` and ``workers = 1``; the seed comes from the command line.
Why each workload was chosen is recorded in ``BENCHMARK.json``; which layer
each one exercises is in ``layers.json``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    # experiments every run makes, whatever --seconds says; sets the round
    # sample count that the tail percentile is chosen from
    min_experiments: int

    @property
    def rounds(self) -> int:
        return self.config["rounds"]

    @property
    def tail_percentile(self) -> int:
        """Highest whole percentile with at least 10 rounds beyond it.

        Fixed per workload from the guaranteed sample count, so that every
        run reports the same percentile however many experiments it fits.
        """
        n = self.min_experiments * self.rounds
        return math.floor(100 * (1 - 10 / n))


_COMMON = dict(aggregator="scaled", cps=True, workers=1)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk",
            config=dict(
                n_clients=6, n_classes=4, input_dim=8, proto_dim=16, comp_dim=4,
                alpha=0.5, per_class=400, participation=1.0, rounds=60, **_COMMON,
            ),
            min_experiments=10,
        ),
        Workload(
            name="fleet",
            config=dict(
                n_clients=100, n_classes=10, input_dim=16, proto_dim=64, comp_dim=8,
                alpha=0.5, per_class=2000, participation=0.5, rounds=10, **_COMMON,
            ),
            min_experiments=5,
        ),
        Workload(
            name="wide",
            config=dict(
                n_clients=40, n_classes=200, input_dim=8, proto_dim=512, comp_dim=64,
                hidden_dim=16, alpha=0.3, per_class=20, participation=0.5, rounds=10,
                **_COMMON,
            ),
            min_experiments=3,
        ),
    )
}

# run once before measuring, to load code paths (including the overlapping
# mask search, K*s > d) without paying a full workload's cost
WARMUP = dict(
    n_clients=4, n_classes=4, input_dim=8, proto_dim=8, comp_dim=4,
    per_class=50, rounds=2, **_COMMON,
)
