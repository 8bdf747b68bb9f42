"""Whole runs of the benchmark's desk, fleet and wide configs reproduce their
recorded ``rounds.csv`` byte for byte, at seeds 7 and 3.

The configs come from ``perfbench/workloads.py`` and the sha256 digests from
``perfbench/digests.json``; both are read, never written.  A change that
alters any training, wire or aggregation result fails here.  The benchmark
runs only ``scaled`` with ``cps`` on, so the desk config is also pinned under
two paths it never takes, with digests recorded in this file.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from tinyproto import ExperimentConfig, rounds_csv_text, run_experiment

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 7
# a second recorded seed, so a change that happens to keep seed 7's bytes
# is still caught
OTHER_SEED = 3


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize(
    "workload, seed",
    [
        pytest.param(workload, seed, id=workload if seed == SEED else f"{workload}-seed{seed}")
        for seed in (SEED, OTHER_SEED)
        for workload in ("desk", "fleet", "wide")
    ],
)
def test_rounds_csv_matches_recorded_digest(workload, seed):
    recorded = json.loads((PERFBENCH / "digests.json").read_text())[workload][str(seed)]
    config = ExperimentConfig(seed=seed, **_workloads()[workload].config).validate()
    text = rounds_csv_text(run_experiment(config))
    assert hashlib.sha256(text.encode()).hexdigest() == recorded


@pytest.mark.parametrize(
    "aggregator, cps, recorded",
    [
        ("simple", False, "b7e6a06ad9426a86a5b1e5d6912398e6a2f89e5dfd8739f4da263428d576cf63"),
    ],
    ids=["simple-cps-off"],
)
def test_desk_rounds_csv_off_benchmark_paths(aggregator, cps, recorded):
    desk = {**_workloads()["desk"].config, "aggregator": aggregator, "cps": cps}
    config = ExperimentConfig(seed=SEED, **desk).validate()
    text = rounds_csv_text(run_experiment(config))
    assert hashlib.sha256(text.encode()).hexdigest() == recorded


@pytest.mark.parametrize(
    "overrides, recorded",
    [
        (
            dict(aggregator="simple", cps=True),
            "888c08b7414f1dc3b0cd5bb2be456bc37e4ec033e6c175b2308e37f0dcc81f11",
        ),
        (
            dict(aggregator="scaled", cps=False),
            "14da601e05c9ad44cd989fb3857c23f1e50e194c16c0f863cb1dba6c0f87273b",
        ),
        (
            # K*s = 36 > d = 16: overlapping masks, and a penalty that moves the
            # loss only (a per-class constant: the params train as with lam = 0)
            dict(aggregator="scaled", cps=True, comp_dim=9, lam=0.3),
            "0ff690c7166f64e73623cfed55420c19ff8f26641838c23f89639ccde9a5f633",
        ),
        (
            # two epochs per update: the penalty terms come from the update's
            # starting means and the loss is the last epoch's
            dict(aggregator="scaled", cps=True, local_epochs=2, lam=0.3),
            "4df70bda00890dabe0db90eddbd98cc69601fe0a6bd0a2a7531f9c3f3a79c9c6",
        ),
    ],
    ids=[
        "simple-cps-on",
        "scaled-cps-off",
        "scaled-cps-on-overlap-lam",
        "scaled-cps-on-two-epochs-lam",
    ],
)
def test_desk_rounds_csv_every_other_exchange_path(overrides, recorded):
    # with the cases above and the benchmark's, both aggregators (simple and
    # scaled) are pinned with cps on and with cps off
    desk = {**_workloads()["desk"].config, **overrides}
    config = ExperimentConfig(seed=SEED, **desk).validate()
    text = rounds_csv_text(run_experiment(config))
    assert hashlib.sha256(text.encode()).hexdigest() == recorded
