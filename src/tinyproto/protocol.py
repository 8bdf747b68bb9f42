"""Round orchestration, byte-level exchange, accounting, and the harness.

The simulator is in-process, but every exchange still passes through the
binary frame codec so traffic numbers measure real serialized payloads.
Per round: sample clients, deliver masks to first-time participants, send
every sampled client the full set of global payloads, run the local updates,
aggregate uploads per class, then report every client's accuracy on its own
test split.  A client is evaluated again only when it has never been
evaluated or has trained since; an unsampled client keeps its stored
accuracy, which is exact because evaluation reads only the client's params,
local prototypes and test split, and none of them changed.  Parameter counts
(values on the wire, not bytes) are the headline traffic metric; mask
delivery is tracked separately from prototype traffic.

``rounds.csv`` intentionally omits wall time so that identical config+seed
runs produce byte-identical files.
"""

from __future__ import annotations

import json
import logging
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .aggregation import ClassContribution, aggregate_mean, aggregate_weighted
from .client import (
    ClientState,
    TrainConfig,
    compute_local_prototypes,
    evaluate_accuracy,
    local_update,
)
from .config import ExperimentConfig
from .datagen import PartitionSpec, dirichlet_partition, make_blobs, split_train_test
from .masking import MaskSet, format_mask_rows, generate_masks
from .numerics import init_params
from .prototypes import Mask, Prototype
from .wire import Frame, FrameType, Record, decode_frame, encode_frame, frame_param_count

__all__ = [
    "RoundError",
    "ServerState",
    "RoundReport",
    "FrameLog",
    "ExperimentResult",
    "initial_server",
    "run_round",
    "run_experiment",
    "rounds_csv_text",
    "write_outputs",
]

log = logging.getLogger(__name__)

# seed-stream tags, so each randomness consumer gets an independent stream
_TAG_DATA = 11
_TAG_PARTITION = 12
_TAG_SPLIT = 13
_TAG_INIT = 14
_TAG_SAMPLE = 15
_TAG_SHUFFLE = 16

# simple and scaled differ only on the client (scale_by_count)
_AGGREGATORS = {
    "weighted": aggregate_weighted,
    "simple": aggregate_mean,
    "scaled": aggregate_mean,
}


class RoundError(RuntimeError):
    """A round could not be executed (e.g. nobody to sample)."""


def _child_seed(base: int, *tags: int) -> int:
    return int(np.random.SeedSequence([base, *tags]).generate_state(1)[0])


@dataclass
class ServerState:
    """Masks, latest global payloads, and the ever-selected client set."""

    mask_set: MaskSet
    global_comp: dict[int, Prototype]
    selected_ever: set[int] = field(default_factory=set)
    round: int = 0


@dataclass
class RoundReport:
    """Outcome of one round; params count transmitted values, not bytes."""

    round: int
    mean_test_accuracy: float
    per_client_accuracy: list[float]
    mean_train_loss: float
    uplink_params: int
    downlink_params: int
    mask_params: int
    wall_time: float


@dataclass
class FrameLog:
    """Raw bytes of every frame a round put on the (in-process) wire."""

    entries: list[tuple[int, str, int, bytes]] = field(default_factory=list)

    def add(self, round_no: int, direction: str, client_id: int, data: bytes) -> None:
        self.entries.append((round_no, direction, client_id, data))


def initial_server(mask_set: MaskSet, n_classes: int, cps: bool) -> ServerState:
    """Server with all-zero global payloads (length s compressed, d dense)."""
    dim = mask_set.s if cps else mask_set.d
    zeros = {c: Prototype(c, np.zeros(dim)) for c in range(n_classes)}
    return ServerState(mask_set=mask_set, global_comp=zeros)


def _masks_frame(mask_set: MaskSet, round_no: int) -> Frame:
    records = tuple(
        Record(m.class_id, m.bits.astype(np.float64)) for m in mask_set.masks
    )
    return Frame(FrameType.MASKS, round_no, records)


def _mask_set_from_frame(frame: Frame) -> MaskSet:
    masks = tuple(Mask(rec.class_id, rec.values.astype(np.uint8)) for rec in frame.records)
    return MaskSet(masks, d=masks[0].dim, s=masks[0].popcount, seed=None)


def _globals_frame(server: ServerState, round_no: int) -> Frame:
    records = tuple(
        Record(cls, server.global_comp[cls].values) for cls in sorted(server.global_comp)
    )
    return Frame(FrameType.GLOBALS, round_no, records)


def _globals_from_frame(frame: Frame) -> dict[int, Prototype]:
    return {rec.class_id: Prototype(rec.class_id, rec.values) for rec in frame.records}


def _upload_frame(
    payloads: dict[int, Prototype],
    class_counts: dict[int, int],
    round_no: int,
    aggregator: str,
) -> Frame:
    records = []
    for cls in sorted(payloads):
        values = payloads[cls].values
        if aggregator == "weighted":
            # the weighted variant ships the raw count as the leading value
            values = np.concatenate(([float(class_counts[cls])], values))
        records.append(Record(cls, values))
    return Frame(FrameType.UPLOAD, round_no, tuple(records))


def _contributions_from_frame(
    frame: Frame, client_id: int, aggregator: str
) -> list[ClassContribution]:
    out = []
    for rec in frame.records:
        count, values = None, rec.values
        if aggregator == "weighted":
            count, values = int(values[0]), values[1:]
        payload = Prototype(rec.class_id, values)
        out.append(ClassContribution(client_id, rec.class_id, payload, count))
    return out


def run_round(
    server: ServerState,
    clients: list[ClientState],
    participation: float,
    cfg: TrainConfig,
    seed: int,
    *,
    aggregator: str = "scaled",
    cps: bool = True,
    workers: int = 1,
    frame_log: FrameLog | None = None,
) -> RoundReport:
    """Execute one full round and report accuracy and exact traffic.

    ``seed`` is the experiment seed; the round's sampling and each client's
    minibatch shuffles derive their own streams from (seed, client, round).
    """
    if not 0 < participation <= 1:
        raise ValueError("participation must lie in (0, 1]")
    if not clients:
        raise RoundError("no clients available to sample")
    started = time.perf_counter()
    round_no = server.round + 1
    first_round = round_no == 1

    sample_rng = np.random.default_rng(
        np.random.SeedSequence([seed, _TAG_SAMPLE, round_no])
    )
    n_sampled = math.ceil(participation * len(clients))
    picked = sorted(sample_rng.choice(len(clients), size=n_sampled, replace=False))
    sampled = [clients[i] for i in picked]

    masks_bytes = encode_frame(_masks_frame(server.mask_set, round_no)) if cps else b""
    globals_bytes = encode_frame(_globals_frame(server, round_no))
    needs_masks = {
        st.client_id: cps and st.client_id not in server.selected_ever for st in sampled
    }

    def client_pass(state: ClientState) -> tuple[int, int, bytes]:
        """Train one client; return the param counts of the masks and globals
        frames it decoded (accounting reuses them) and its encoded upload."""
        masks_params = 0
        if needs_masks[state.client_id]:
            masks_frame = decode_frame(masks_bytes)
            masks_params = frame_param_count(masks_frame)
            state.mask_set = _mask_set_from_frame(masks_frame)
        globals_frame = decode_frame(globals_bytes)
        global_payloads = _globals_from_frame(globals_frame)
        shuffle_rng = np.random.default_rng(
            np.random.SeedSequence([seed, _TAG_SHUFFLE, state.client_id, round_no])
        )
        payloads = local_update(
            state,
            global_payloads,
            cfg,
            first_round,
            shuffle_rng,
            cps=cps,
            scale_by_count=(aggregator == "scaled"),
        )
        upload = encode_frame(
            _upload_frame(payloads, state.class_counts, round_no, aggregator)
        )
        return masks_params, frame_param_count(globals_frame), upload

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            passes = list(pool.map(client_pass, sampled))
    else:
        passes = [client_pass(st) for st in sampled]

    uplink = downlink = mask_params = 0
    by_class: dict[int, list[ClassContribution]] = {}
    # ascending client order fixes the aggregation order
    for state, (masks_params, globals_params, upload) in zip(sampled, passes):
        cid = state.client_id
        mask_params += masks_params
        if needs_masks[cid] and frame_log is not None:
            frame_log.add(round_no, "down", cid, masks_bytes)
        downlink += globals_params
        if frame_log is not None:
            frame_log.add(round_no, "down", cid, globals_bytes)
        upload_frame = decode_frame(upload)
        uplink += frame_param_count(upload_frame)
        if frame_log is not None:
            frame_log.add(round_no, "up", cid, upload)
        for contrib in _contributions_from_frame(upload_frame, cid, aggregator):
            by_class.setdefault(contrib.class_id, []).append(contrib)

    aggregate = _AGGREGATORS[aggregator]
    for cls in sorted(by_class):
        server.global_comp[cls] = aggregate(by_class[cls])

    server.selected_ever.update(st.client_id for st in sampled)
    server.round = round_no

    accuracies = []
    for state in clients:
        if state.test_accuracy is None:
            if state.local_protos is None:
                state.local_protos = compute_local_prototypes(state)
            state.test_accuracy = evaluate_accuracy(state)
        accuracies.append(state.test_accuracy)
    losses = [st.last_train_loss for st in sampled if st.last_train_loss is not None]

    return RoundReport(
        round=round_no,
        mean_test_accuracy=float(np.mean(accuracies)),
        per_client_accuracy=accuracies,
        mean_train_loss=float(np.mean(losses)) if losses else float("nan"),
        uplink_params=uplink,
        downlink_params=downlink,
        mask_params=mask_params,
        wall_time=time.perf_counter() - started,
    )


@dataclass
class ExperimentResult:
    """Everything a finished run produced, ready for inspection or dumping."""

    config: ExperimentConfig
    reports: list[RoundReport]
    summary: dict
    server: ServerState
    clients: list[ClientState]
    dropped_clients: list[int]


def _build_clients(config: ExperimentConfig) -> tuple[list[ClientState], list[int]]:
    data = make_blobs(
        config.n_classes,
        config.input_dim,
        config.per_class,
        config.sigma,
        seed=_child_seed(config.seed, _TAG_DATA),
    )
    spec = PartitionSpec(
        n_clients=config.n_clients,
        alpha=config.alpha,
        seed=_child_seed(config.seed, _TAG_PARTITION),
        train_fraction=config.train_fraction,
    )
    shards, _ = dirichlet_partition(data, spec)
    clients: list[ClientState] = []
    dropped: list[int] = []
    for cid in range(config.n_clients):
        shard = shards[cid]
        if shard is None or len(shard) < 2:
            log.warning("dropping client %d: shard too small to split", cid)
            dropped.append(cid)
            continue
        train, test = split_train_test(
            shard, config.train_fraction, seed=_child_seed(config.seed, _TAG_SPLIT, cid)
        )
        params = init_params(
            config.input_dim,
            config.hidden_dim,
            config.proto_dim,
            config.n_classes,
            seed=_child_seed(config.seed, _TAG_INIT, cid),
        )
        clients.append(
            ClientState(
                client_id=cid,
                params=params,
                shard=train,
                class_counts=train.class_counts(),
                test_shard=test,
            )
        )
    return clients, dropped


def run_experiment(
    config: ExperimentConfig,
    out_dir: str | Path | None = None,
    frame_log: FrameLog | None = None,
) -> ExperimentResult:
    """Run the configured number of rounds and summarize the best round."""
    config.validate()
    started = time.perf_counter()
    clients, dropped = _build_clients(config)
    if not clients:
        raise RoundError("every client was dropped; nothing to train")

    mask_set = generate_masks(
        config.n_classes, config.proto_dim, config.comp_dim, seed=config.seed
    )
    server = initial_server(mask_set, config.n_classes, config.cps)
    cfg = TrainConfig(
        lam=config.lam,
        mu=config.mu,
        lr=config.lr,
        batch_size=config.batch_size,
        local_epochs=config.local_epochs,
        rho=config.rho,
    )

    reports = []
    for _ in range(config.rounds):
        report = run_round(
            server,
            clients,
            config.participation,
            cfg,
            config.seed,
            aggregator=config.aggregator,
            cps=config.cps,
            workers=config.workers,
            frame_log=frame_log,
        )
        reports.append(report)
        log.info(
            "round %d: mean_test_accuracy=%.4f loss=%.4f up=%d down=%d masks=%d",
            report.round,
            report.mean_test_accuracy,
            report.mean_train_loss,
            report.uplink_params,
            report.downlink_params,
            report.mask_params,
        )

    best = max(range(len(reports)), key=lambda i: reports[i].mean_test_accuracy)
    summary = {
        "best_mean_test_accuracy": reports[best].mean_test_accuracy,
        "best_round": reports[best].round,
        "final_mean_test_accuracy": reports[-1].mean_test_accuracy,
        "rounds": len(reports),
        "total_uplink_params": sum(r.uplink_params for r in reports),
        "total_downlink_params": sum(r.downlink_params for r in reports),
        "total_mask_params": sum(r.mask_params for r in reports),
        "total_prototype_params": sum(r.uplink_params + r.downlink_params for r in reports),
        "clients_retained": [st.client_id for st in clients],
        "clients_dropped": dropped,
        "wall_time_sec": time.perf_counter() - started,
        "config": config.to_dict(),
    }
    result = ExperimentResult(config, reports, summary, server, clients, dropped)
    if out_dir is not None:
        write_outputs(result, out_dir)
    return result


def _fmt(value: float | int) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def rounds_csv_text(result: ExperimentResult) -> str:
    """Deterministic per-round CSV (no wall time, full float precision)."""
    client_ids = [st.client_id for st in result.clients]
    header = (
        "round,mean_test_accuracy,mean_train_loss,uplink_params,downlink_params,mask_params,"
        + ",".join(f"acc_client_{cid}" for cid in client_ids)
    )
    lines = [header]
    for rep in result.reports:
        cells = [
            str(rep.round),
            _fmt(rep.mean_test_accuracy),
            _fmt(rep.mean_train_loss),
            str(rep.uplink_params),
            str(rep.downlink_params),
            str(rep.mask_params),
        ]
        cells.extend(_fmt(a) for a in rep.per_client_accuracy)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def write_outputs(result: ExperimentResult, out_dir: str | Path) -> dict[str, Path]:
    """Write rounds.csv, summary.json, and masks.txt into out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "rounds": out / "rounds.csv",
        "summary": out / "summary.json",
        "masks": out / "masks.txt",
    }
    paths["rounds"].write_text(rounds_csv_text(result))
    paths["summary"].write_text(json.dumps(result.summary, indent=2, sort_keys=True) + "\n")
    paths["masks"].write_text(format_mask_rows(result.server.mask_set))
    return paths
