"""Every committed ``BENCH_<n>.json`` benchmark record parses and has the
keys a reader of the performance trajectory relies on."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
SUMMARY_KEYS = {"parent_median", "parent_quartiles", "change_median", "pairs", "pairs_won"}


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_bench_file_has_the_trajectory_keys(path):
    doc = json.loads(path.read_text())
    assert len(doc["parent_sha"]) == 40
    int(doc["parent_sha"], 16)
    assert {"nproc", "cpu_model", "python", "numpy"} <= doc["machine"].keys()
    # untraced end-to-end numbers and the traced per-phase split stay apart
    for key in ("end_to_end", "traced"):
        assert doc[key], key
        for run in doc[key]:
            assert {"workload", "seed", "seconds"} <= run.keys()
            assert run["metrics"], run["workload"]
            for name, summary in run["metrics"].items():
                assert SUMMARY_KEYS <= summary.keys(), name
                assert len(summary["parent_quartiles"]) == 2, name
                assert 0 <= summary["pairs_won"] <= summary["pairs"], name
    for run in doc["traced"]:
        assert {"client_training", "encode_decode", "aggregation", "evaluation",
                "mask_generation"} <= run["phases_s"].keys()


def test_a_bench_file_is_committed():
    assert BENCH_FILES
