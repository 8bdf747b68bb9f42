"""The benchmark's own correctness checks pass on what the library produces.

``perfbench/checks.py`` reads mask sets through ``n_classes``, ``masks`` and
each mask's ``class_id``/``dim``/``popcount``, and a finished run through its
reports, server and written files.  It is loaded here read-only, the way
``test_golden_runs.py`` loads ``workloads.py``, so a change to ``MaskSet`` or
to the run outputs that breaks the benchmark's checks fails in this suite.
``worker.py`` is loaded the same way, so a library name its tracer wraps
cannot disappear without failing here: a per-layer metric whose traced name
is gone would silently read 0.  Nor can a traced name stop being called (the
library calling the function some other way), which would read 0 just as
silently: a traced desk run must record calls to every training layer.
Each workload's traced benchmark experiment must also reproduce the
``rounds.csv`` digest recorded in ``digests.json``, so a kernel change that
flips one prediction fails here, not only in the benchmark's report.
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import tinyproto.protocol as protocol
from tinyproto import (
    ClientState,
    Dataset,
    ExperimentConfig,
    generate_masks,
    init_params,
    initial_server,
    run_experiment,
    run_round,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


checks = _perfbench_module("checks")


@pytest.mark.parametrize(
    "k, d, s", [(4, 16, 4), (10, 64, 8), (200, 512, 64), (12, 16, 4)],
    ids=["desk-disjoint", "fleet-disjoint", "wide-overlap", "small-overlap"],
)
def test_generated_masks_pass_the_mask_checks(k, d, s):
    assert checks.mask_problems(generate_masks(k, d, s, seed=7), k, d, s) == []


@pytest.mark.parametrize("k, d, s", [(4, 16, 4), (30, 24, 6)], ids=["disjoint", "overlap"])
def test_masks_rebuilt_from_a_frame_pass_the_mask_checks(k, d, s):
    # a client's first cps round delivers the masks frame; the client's set
    # is rebuilt from the decoded frame
    rng = np.random.default_rng(0)
    shard = Dataset(rng.normal(size=(8, 3)), np.arange(8) % 2, k)
    client = ClientState(0, init_params(3, 5, d, k, seed=1), shard, test_shard=shard)
    server = initial_server(generate_masks(k, d, s, seed=7), cps=True)
    run_round(server, [client], 1.0, ExperimentConfig(), seed=7)
    assert checks.mask_problems(client.mask_set, k, d, s) == []
    assert (client.mask_set.bits == server.mask_set.bits).all()


def test_desk_run_passes_the_experiment_checks(tmp_path):
    desk = _perfbench_module("workloads").WORKLOADS["desk"].config
    config = ExperimentConfig(seed=7, **desk).validate()
    result = run_experiment(config, out_dir=tmp_path)
    files = {p.name: p.read_text() for p in tmp_path.iterdir()}
    assert checks.experiment_problems(config, result, files) == []


def test_every_traced_name_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # worker imports its siblings by name
    targets = _perfbench_module("worker").layer_targets()
    missing = [
        (layer, key)
        for owner, key, layer, _ in targets
        if not (key in owner if isinstance(owner, dict) else hasattr(owner, key))
    ]
    assert missing == []
    assert any(layer == "aggregation" for _, _, layer, _ in targets)


def test_traced_desk_run_records_every_training_layer(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    worker = _perfbench_module("worker")
    desk = _perfbench_module("workloads").WORKLOADS["desk"].config
    config = ExperimentConfig(seed=7, **desk).validate()
    tracer = worker.Tracer()
    # the benchmark's own round wrapper: it checks each round's traffic, and
    # with a tracer also against the clients the tracer saw train
    gate = worker.RoundGate(config, tracer)
    monkeypatch.setattr(protocol, "run_round", gate)
    with tracer.installed(worker.layer_targets()):
        run_experiment(config, out_dir=tmp_path)
    for layer in (
        "client.local_update",
        "numerics.loss_and_grad",
        "numerics.sgd_step",
        "client.compute_local_prototypes",
    ):
        assert tracer.counts[f"{layer}.calls"] > 0, layer
    counts = tracer.counts
    assert counts["numerics.loss_and_grad.calls"] == counts["numerics.sgd_step.calls"]
    assert len(gate.rounds) == config.rounds
    assert [problems for _, _, problems in gate.rounds] == [[]] * config.rounds


@pytest.mark.parametrize("workload", ["desk", "fleet", "wide"])
def test_traced_benchmark_run_matches_recorded_digest(monkeypatch, tmp_path, workload):
    """One experiment as the benchmark's worker runs it: after a warm-up run
    in the same process, with every layer wrapped by the tracer and each
    round checked by the round gate."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    worker = _perfbench_module("worker")
    monkeypatch.setattr(worker, "HERE", tmp_path)  # its temporary run directories go here
    record = worker.run_once(workload, 7, trace=True, spans_path=None)
    recorded = json.loads((PERFBENCH / "digests.json").read_text())[workload]["7"]
    assert record["problems"] == []
    assert [problems for _, _, problems in record["rounds"]] == [[]] * len(record["rounds"])
    assert record["rounds_csv_sha256"] == recorded
