"""Whole runs of the benchmark's desk, fleet and wide configs reproduce their
recorded ``rounds.csv`` byte for byte.

The configs come from ``perfbench/workloads.py`` and the sha256 digests from
``perfbench/digests.json``; both are read, never written.  A change that
alters any training, wire or aggregation result fails here.
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
