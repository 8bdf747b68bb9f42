"""One experiment of one workload, run in this process and printed as JSON.

    python3 perfbench/worker.py --workload desk --seed 7 --trace 0 [--spans FILE]

``run.py`` starts one worker per experiment, so each experiment starts from
a fresh interpreter and heap, as a user's single run does.  (Repeating
experiments in one process does not measure that: the wide workload's mask
search takes under half as long once an earlier experiment has grown the
heap.)  The worker expects ``run.py`` to have put ``src/`` on
``PYTHONPATH`` and pinned the BLAS thread count.

An untraced experiment wraps only ``protocol.run_round``, to time rounds and
check their traffic.  A traced one also wraps every layer's functions (see
``layer_targets``) and reports per-layer times and counts.  The last line of
output is the experiment record.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import math
import resource
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import tinyproto
import tinyproto.client as client_mod
import tinyproto.protocol as protocol_mod
from tinyproto import ExperimentConfig, min_pairwise_hamming, rounds_csv_text, run_experiment

import checks
from reference import reference_s
from tracer import ROUND_SPAN, Tracer
from workloads import WARMUP, WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUTPUT_FILES = ("rounds.csv", "summary.json", "masks.txt")
_DOWNLINK_TYPES = (1, 3)  # first byte of a frame: wire.FrameType.MASKS, .GLOBALS

# layers reported per traced experiment: calls, busy time and self time each
LAYERS = (
    ROUND_SPAN,
    "client.local_update",
    "client.compute_local_prototypes",
    "client.evaluate_accuracy",
    "numerics.loss_and_grad",
    "numerics.sgd_step",
    "numerics.forward_features",
    "numerics.init_params",
    "prototypes.compress",
    "wire.encode_frame",
    "wire.decode_frame",
    "aggregation",
    "masking.generate_masks",
    "datagen.make_blobs",
    "datagen.dirichlet_partition",
    "datagen.split_train_test",
)
COUNTS = (
    "numerics.loss_and_grad.rows",
    "numerics.forward_features.rows",
    "wire.encode_frame.bytes",
    "wire.decode_frame.bytes",
    "wire.downlink_decodes",
    "aggregation.contributions",
)


def _rows(batch) -> int:
    shape = getattr(batch, "shape", None)
    if shape is not None:
        return 1 if len(shape) == 1 else shape[0]
    return len(batch)


def _on_local_update(tracer, args, result) -> None:
    state = args[0]
    tracer.round_clients.append((state.client_id, state.n_local_classes))


def _on_loss_and_grad(tracer, args, result) -> None:
    tracer.count("numerics.loss_and_grad.rows", _rows(args[1]))


def _on_forward_features(tracer, args, result) -> None:
    tracer.count("numerics.forward_features.rows", _rows(args[1]))


def _on_encode(tracer, args, result) -> None:
    tracer.count("wire.encode_frame.bytes", len(result))


def _on_decode(tracer, args, result) -> None:
    tracer.count("wire.decode_frame.bytes", len(args[0]))
    if args[0][0] in _DOWNLINK_TYPES:
        tracer.count("wire.downlink_decodes")


def _on_aggregate(tracer, args, result) -> None:
    tracer.count("aggregation.contributions", len(args[0]))


def layer_targets() -> list:
    """Each traced function, at the name its caller looks it up by."""
    p, c = protocol_mod, client_mod
    targets = [
        (p, "local_update", "client.local_update", _on_local_update),
        (p, "compute_local_prototypes", "client.compute_local_prototypes", None),
        (p, "evaluate_accuracy", "client.evaluate_accuracy", None),
        (p, "encode_frame", "wire.encode_frame", _on_encode),
        (p, "decode_frame", "wire.decode_frame", _on_decode),
        (p, "generate_masks", "masking.generate_masks", None),
        (p, "make_blobs", "datagen.make_blobs", None),
        (p, "dirichlet_partition", "datagen.dirichlet_partition", None),
        (p, "split_train_test", "datagen.split_train_test", None),
        (p, "init_params", "numerics.init_params", None),
        (c, "loss_and_grad", "numerics.loss_and_grad", _on_loss_and_grad),
        (c, "sgd_step", "numerics.sgd_step", None),
        (c, "forward_features", "numerics.forward_features", _on_forward_features),
        (c, "compress", "prototypes.compress", None),
        (c, "compute_local_prototypes", "client.compute_local_prototypes", None),
    ]
    # protocol reaches the aggregators through its dispatch table
    table = getattr(p, "_AGGREGATORS", {})
    targets += [(table, key, "aggregation", _on_aggregate) for key in list(table)]
    return targets


class RoundGate:
    """Stands in for ``protocol.run_round``: times each round and checks its traffic."""

    def __init__(self, config: ExperimentConfig, tracer: Tracer | None) -> None:
        self.config = config
        self.tracer = tracer
        self.inner = protocol_mod.run_round
        self._signature = inspect.signature(self.inner)
        self.first_call: float | None = None
        # [seconds, n_sampled, problems] per round
        self.rounds: list[list] = []
        # reference kernel time just before each round (see reference.py),
        # and the time spent on it, which run_s leaves out
        self.reference: list[float] = []
        self.reference_total_s = 0.0

    def __call__(self, *args, **kwargs):
        if self.first_call is None:
            self.first_call = time.perf_counter()
        probe_started = time.perf_counter()
        self.reference.append(reference_s())
        self.reference_total_s += time.perf_counter() - probe_started
        bound = self._signature.bind(*args, **kwargs).arguments
        server, clients = bound["server"], bound["clients"]
        n_sampled = math.ceil(bound["participation"] * len(clients))
        before = set(server.selected_ever)
        inner = self.inner
        if self.tracer is not None:
            self.tracer.begin_round(server.round + 1)
            inner = self.tracer.wrap(ROUND_SPAN, inner)

        started = time.perf_counter()
        report = inner(*args, **kwargs)
        seconds = time.perf_counter() - started

        problems = checks.traffic_problems(
            self.config, report, n_sampled, len(server.selected_ever - before)
        )
        if self.tracer is not None:
            problems += checks.traced_traffic_problems(
                self.config, report, n_sampled, self.tracer.round_clients
            )
        self.rounds.append([seconds, n_sampled, problems])
        return report


def _layer_values(tracer: Tracer, rounds: list[list], summary: dict,
                  config: ExperimentConfig) -> dict:
    times = tracer.layer_times()
    counts = tracer.counts
    values = {}
    for name in LAYERS:
        values[f"{name}.calls"] = counts[f"{name}.calls"]
        values[f"{name}.s"] = times[name]["s"]
        values[f"{name}.self_s"] = times[name]["self_s"]
    for key in COUNTS:
        values[key] = counts[key]
    # every sampled client gets one globals frame and sends one upload;
    # a first-time participant also gets one masks frame
    sampled = sum(r[1] for r in rounds)
    down = sampled + summary["total_mask_params"] // (config.n_classes * config.proto_dim)
    values["wire.frames_delivered"] = down + sampled
    values["wire.decodes_per_delivery"] = counts["wire.decode_frame.calls"] / (down + sampled)
    values["wire.downlink_frames_delivered"] = down
    values["wire.downlink_decodes_per_delivery"] = counts["wire.downlink_decodes"] / down
    return values


def run_once(workload: str, seed: int, trace: bool, spans_path: Path | None) -> dict:
    config = ExperimentConfig(seed=seed, **WORKLOADS[workload].config).validate()
    tracer = Tracer() if trace else None
    gate = RoundGate(config, tracer)
    record = {"traced": trace, "raised": False, "problems": []}
    tmp_root = HERE / "out" / "tmp"
    tmp_root.mkdir(parents=True, exist_ok=True)

    # loads code paths (the overlapping-mask search too) with arrays too small
    # to change how the heap serves the workload's large temporaries
    with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
        run_experiment(ExperimentConfig(seed=seed, **WARMUP), out_dir=tmp)

    run = run_experiment
    installed = nullcontext()
    if tracer is not None:
        installed = tracer.installed(layer_targets())
        run = tracer.wrap("protocol.run_experiment", run_experiment)
    protocol_mod.run_round = gate
    try:
        with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
            with installed:
                reference_before = reference_s()
                started = time.perf_counter()
                result = run(config, tmp)
                record["run_s"] = time.perf_counter() - started - gate.reference_total_s
                reference_after = reference_s()
            files = {name: (Path(tmp) / name).read_text() for name in OUTPUT_FILES}
    except Exception:
        record["raised"] = True
        record["problems"].append("run_experiment raised:\n" + traceback.format_exc())
        record["rounds"] = gate.rounds
        return record
    finally:
        protocol_mod.run_round = gate.inner

    summary = result.summary
    record.update(
        rounds=gate.rounds,
        setup_s=gate.first_call - started,
        # the kernel's time before the experiment, before each round, after it
        reference_s=[reference_before, *gate.reference, reference_after],
        summary={k: summary[k] for k in (
            "best_mean_test_accuracy", "rounds", "total_prototype_params", "total_mask_params"
        )},
        rounds_csv_sha256=hashlib.sha256(rounds_csv_text(result).encode()).hexdigest(),
        min_hamming=min_pairwise_hamming(result.server.mask_set),
        presearch_min_hamming=result.server.mask_set.presearch_min_hamming,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    record["problems"] += checks.experiment_problems(config, result, files)
    if tracer is not None:
        record["problems"] += [
            f"round {r}: child spans add up to more than the run_round span"
            for r in tracer.overfull_rounds()
        ]
        record["layers"] = _layer_values(tracer, gate.rounds, summary, config)
        if spans_path is not None:
            tracer.dump(spans_path)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)
    if Path(tinyproto.__file__).resolve().parent != SRC / "tinyproto":
        print(f"tinyproto imported from {tinyproto.__file__}, not {SRC}", file=sys.stderr)
        return 2
    record = run_once(args.workload, args.seed, bool(args.trace), args.spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
