"""Whole runs of the benchmark's desk, fleet and wide configs reproduce their
recorded ``rounds.csv`` byte for byte.

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


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize("workload", ["desk", "fleet", "wide"])
def test_rounds_csv_matches_recorded_digest(workload):
    recorded = json.loads((PERFBENCH / "digests.json").read_text())[workload][str(SEED)]
    config = ExperimentConfig(seed=SEED, **_workloads()[workload].config).validate()
    text = rounds_csv_text(run_experiment(config))
    assert hashlib.sha256(text.encode()).hexdigest() == recorded


@pytest.mark.parametrize(
    "aggregator, cps, recorded",
    [
        ("weighted", True, "2c4e7b110101e7dbd314a35ecc2cd954e6a87500fa24550e0db0b17bccad0d28"),
        ("simple", False, "b7e6a06ad9426a86a5b1e5d6912398e6a2f89e5dfd8739f4da263428d576cf63"),
    ],
    ids=["weighted-cps-on", "simple-cps-off"],
)
def test_desk_rounds_csv_off_benchmark_paths(aggregator, cps, recorded):
    desk = {**_workloads()["desk"].config, "aggregator": aggregator, "cps": cps}
    config = ExperimentConfig(seed=SEED, **desk).validate()
    text = rounds_csv_text(run_experiment(config))
    assert hashlib.sha256(text.encode()).hexdigest() == recorded
