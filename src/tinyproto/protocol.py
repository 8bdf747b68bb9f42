"""Round orchestration, byte-level exchange, accounting, and the harness.

The simulator is in-process, but every exchange still passes through the
binary frame codec so traffic numbers measure real serialized payloads.  Per
round: sample clients, give first-time participants their masks, send every
sampled client the full set of global payloads, run the local updates one
client after another (one loop receives a client's frames, runs its update,
builds and receives its upload), fold all uploads in one aggregator call, then
report every client's accuracy on its own test split.  Every setting,
``cps`` and the aggregator included, comes from the run's frozen
:class:`~tinyproto.config.ExperimentConfig`; :func:`initial_server` builds
the server's masks and zero globals from the same config.  There is one
client path: every client compresses under the mask set it holds, the
server's in a ``cps`` run, delivered in a masks frame, and its model's
all-ones ``(K, d)`` set in a dense one, never sent.  ``scaled``'s count
scaling is applied where the upload frame is built.
Every frame is one block, a class-id vector plus one value row per class.
All three kinds pass through one receive step, which decodes the frame once,
checks it with :func:`_check_frame`, adds its values to the round's tally
for that kind and logs it; the client's ``MaskSet`` checks the mask values
when it is built.  A frame that does not decode or pass the checks, a
client without masks, or a local update that overflows raises
:class:`RoundError` naming the client, the class where one applies, and the
round.  The first round's globals are all zero, so no class has a target
and that round trains as with lam = 0.  A client is evaluated again only
when it has never been evaluated or has trained since; an unsampled client
keeps its stored accuracy, which is exact because evaluation reads only the
client's params, local prototypes and test split, and none of them changed.
Parameter counts (values on the wire, not bytes) are the headline traffic
metric; mask delivery is tracked separately from prototype traffic.

Set-up holds each sample in at most two arrays at once, a shard and its
split: see the lifetime rule in ``_build_clients``.

``rounds.csv`` intentionally omits wall time so that identical config+seed
runs produce byte-identical files.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .aggregation import AGGREGATORS as _AGGREGATORS
from .client import (
    ClientState,
    compute_local_prototypes,
    evaluate_accuracy,
    local_update,
)
from .config import ConfigError, ExperimentConfig
from .datagen import dirichlet_partition, make_blobs, split_train_test
from .masking import MaskSet, format_mask_rows, generate_masks
from .numerics import init_params
from .wire import Frame, FrameError, FrameType, decode_frame, encode_frame, frame_param_count

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


class RoundError(RuntimeError):
    """A round could not be executed (nobody to sample, a bad or undecodable
    frame, a client without masks, or a diverging update)."""


def _child_seed(base: int, *tags: int) -> int:
    return int(np.random.SeedSequence([base, *tags]).generate_state(1)[0])


@dataclass(eq=False)
class ServerState:
    """Masks, latest global payloads, the ever-selected client set, and the
    last round's number.

    ``global_comp`` is a (K, s) array whose row c is class c's payload.
    Equality is identity.
    """

    mask_set: MaskSet
    global_comp: np.ndarray
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


@dataclass
class FrameLog:
    """Raw bytes of every frame a round put on the (in-process) wire."""

    entries: list[tuple[int, str, int, bytes]] = field(default_factory=list)

    def add(self, round_no: int, direction: str, client_id: int, data: bytes) -> None:
        self.entries.append((round_no, direction, client_id, data))


def initial_server(cfg: ExperimentConfig) -> ServerState:
    """Server for the run ``cfg`` configures: its masks and all-zero global
    payloads, ``mask_set.s`` long.  A ``cps`` run draws (K, d, s) masks from
    ``cfg.seed``; a dense one holds the all-ones (K, d) set, CPS with s = d,
    which is FedProto's exchange, and never sends it."""
    if cfg.cps:
        mask_set = generate_masks(cfg.n_classes, cfg.proto_dim, cfg.comp_dim, seed=cfg.seed)
    else:
        mask_set = MaskSet(np.ones((cfg.n_classes, cfg.proto_dim)))
    return ServerState(mask_set, np.zeros((cfg.n_classes, mask_set.s)))


def _check_frame(
    frame: Frame,
    frame_type: FrameType,
    round_no: int,
    client_id: int,
    n_classes: int,
    width: int,
) -> None:
    """Reject a frame that is not this round's ``frame_type``, or whose block
    is malformed: rows must have ``width`` values, there must be at least
    one row, all finite, and ids must ascend strictly (so none repeats)
    inside [0, K).  A downlink frame (masks, globals) carries every class:
    its ids must be exactly 0..K-1, which implies both, and makes row c
    class c's.

    The row checks run as one vectorized pass over the whole block, which
    accepts exactly the blocks the per-row scan accepts; only a block it
    refuses is scanned row by row, to name the first faulty class for the
    first failed check in the order: order, range, non-finite."""
    if frame.frame_type != frame_type or frame.round != round_no:
        raise RoundError(
            f"client {client_id}, round {round_no}: expected a {frame_type.name} frame "
            f"of this round, got {frame.frame_type.name} of round {frame.round}"
        )
    kind = frame_type.name.lower()
    ids, values = frame.class_ids, frame.values
    if values.shape[1] != width:
        raise RoundError(
            f"client {client_id}, round {round_no}: {kind} rows have "
            f"{values.shape[1]} values, expected {width}"
        )
    if not len(ids):
        raise RoundError(f"client {client_id}, round {round_no}: {kind} frame has no records")
    downlink = frame_type != FrameType.UPLOAD
    if downlink and not np.array_equal(ids, np.arange(n_classes)):
        raise RoundError(
            f"client {client_id}, round {round_no}: {kind} frame class ids are not "
            f"0..K-1 in order for K={n_classes}"
        )
    ok = np.isfinite(values).all()
    if ok and not downlink:
        ok = ids[0] >= 0 and ids[-1] < n_classes and (ids[1:] > ids[:-1]).all()
    if ok:
        return
    problems = [] if downlink else [
        (np.diff(ids, prepend=-1) <= 0, "repeated or out of order"),
        (ids >= n_classes, f"outside [0, K) for K={n_classes}"),
    ]
    problems.append((~np.isfinite(values).all(axis=1), "has non-finite values"))
    for bad, what in problems:
        if bad.any():
            raise RoundError(
                f"client {client_id}, class {int(ids[bad][0])}, round {round_no}: {kind} {what}"
            )


def run_round(
    server: ServerState,
    clients: list[ClientState],
    participation: float,
    cfg: ExperimentConfig,
    *,
    frame_log: FrameLog | None = None,
) -> RoundReport:
    """Execute one full round and report accuracy and exact traffic.

    The round samples ``ceil(participation * len(clients))`` clients, the
    product taken of the decimal as written (0.28 of 25 clients is 7), so
    at least one.  The round's sampling and each client's minibatch
    shuffles derive their own streams from (``cfg.seed``, client, round).
    Every setting comes from ``cfg``: ``cps`` and ``aggregator`` say how
    prototypes travel, and a server built with the other ``cps`` holds
    globals of a width the clients refuse.  ``participation`` stays a
    parameter beside ``cfg.participation`` because callers that wrap a
    round (a benchmark's round timer, say) read it by name.
    """
    if not 0 < participation <= 1:
        raise ValueError("participation must lie in (0, 1]")
    if not clients:
        raise RoundError("no clients available to sample")
    round_no = server.round + 1

    sample_rng = np.random.default_rng(
        np.random.SeedSequence([cfg.seed, _TAG_SAMPLE, round_no])
    )
    # in binary, 0.28 * 25 is 7.000000000000001, which would sample 8
    n_sampled = math.ceil(Fraction(str(participation)) * len(clients))
    picked = sorted(sample_rng.choice(len(clients), size=n_sampled, replace=False))
    sampled = [clients[i] for i in picked]

    n_classes, dim = server.global_comp.shape
    # only first-time participants get masks: build the frame only for them
    needs_masks = {st.client_id for st in sampled if st.client_id not in server.selected_ever}
    masks_bytes = b""
    if cfg.cps and needs_masks:
        bits = server.mask_set.bits.astype(np.float64)
        masks_bytes = encode_frame(Frame(FrameType.MASKS, round_no, np.arange(len(bits)), bits))
    globals_bytes = encode_frame(
        Frame(FrameType.GLOBALS, round_no, np.arange(n_classes), server.global_comp)
    )

    tally = dict.fromkeys(FrameType, 0)  # values on the wire, per frame kind

    def receive(data, frame_type, cid, n_classes, width):
        """Decode, check, count and log one delivered frame."""
        try:
            frame = decode_frame(data)
        except FrameError as err:
            raise RoundError(
                f"client {cid}, round {round_no}: {frame_type.name.lower()} frame: {err}"
            ) from None
        _check_frame(frame, frame_type, round_no, cid, n_classes, width)
        tally[frame_type] += frame_param_count(frame)
        if frame_log is not None:
            way = "up" if frame_type == FrameType.UPLOAD else "down"
            frame_log.add(round_no, way, cid, data)
        return frame

    uploads = []
    for state in sampled:
        cid = state.client_id
        model_d, model_k = state.params.dims[2:]
        if cid in needs_masks:
            if cfg.cps:
                bits = receive(masks_bytes, FrameType.MASKS, cid, model_k, model_d).values
            else:  # a dense client builds its model's all-ones set: s = d, never sent
                bits = np.ones((model_k, model_d))
            try:  # MaskSet checks the values are 0/1 and the rows' popcounts agree
                mask_set = MaskSet(bits)
                if not mask_set.s:  # a set of empty masks is valid, an exchange of none is not
                    raise ValueError("mask for class 0 has no set bits")
            except ValueError as err:
                raise RoundError(f"client {cid}, round {round_no}: {err}") from None
            state.mask_set = mask_set
        if state.mask_set is None:
            raise RoundError(f"client {cid}, round {round_no}: no masks were delivered to it")
        width = state.mask_set.s
        global_values = receive(globals_bytes, FrameType.GLOBALS, cid, model_k, width).values
        shuffle_rng = np.random.default_rng(
            np.random.SeedSequence([cfg.seed, _TAG_SHUFFLE, cid, round_no])
        )
        try:
            # stop at the first overflow instead of training on inf and NaN
            with np.errstate(over="raise", invalid="raise"):
                ids, block = local_update(state, global_values, cfg, shuffle_rng)
        except FloatingPointError as err:
            raise RoundError(f"client {cid}, round {round_no}: training diverged: {err}") from None
        if cfg.aggregator == "scaled":
            block = block * state.class_counts[ids, None]
        upload = encode_frame(Frame(FrameType.UPLOAD, round_no, ids, block))
        uploads.append(receive(upload, FrameType.UPLOAD, cid, n_classes, dim))

    # uploads in ascending client order give every class its rows in
    # ascending client order: the summation order
    ids = np.concatenate([f.class_ids for f in uploads])
    rows = np.concatenate([f.values for f in uploads])
    # both aggregators fold with aggregate_mean, but the call goes through
    # the table: a benchmark tracer times aggregation by wrapping its entries
    classes, combined = _AGGREGATORS[cfg.aggregator](ids, rows)
    server.global_comp[classes] = combined

    server.selected_ever.update(st.client_id for st in sampled)
    server.round = round_no

    accuracies = []
    for state in clients:
        if state.test_accuracy is None:
            if state.local_protos is None:
                state.local_protos = compute_local_prototypes(state)
            state.test_accuracy = evaluate_accuracy(state)
        accuracies.append(state.test_accuracy)

    return RoundReport(
        round=round_no,
        mean_test_accuracy=float(np.mean(accuracies)),
        per_client_accuracy=accuracies,
        # every sampled client trained, or the round raised
        mean_train_loss=float(np.mean([st.last_train_loss for st in sampled])),
        uplink_params=tally[FrameType.UPLOAD],
        downlink_params=tally[FrameType.GLOBALS],
        mask_params=tally[FrameType.MASKS],
    )


@dataclass
class ExperimentResult:
    """Everything a finished run produced, ready for inspection or dumping."""

    config: ExperimentConfig
    reports: list[RoundReport]
    summary: dict
    server: ServerState
    clients: list[ClientState]


def _build_clients(config: ExperimentConfig) -> tuple[list[ClientState], list[int]]:
    try:
        data = make_blobs(
            config.n_classes,
            config.input_dim,
            config.per_class,
            config.sigma,
            seed=_child_seed(config.seed, _TAG_DATA),
        )
    except ValueError as err:  # the config's ranges leave only sigma's overflow
        raise ConfigError([f"sigma: {err}"]) from None
    try:
        shards = dirichlet_partition(
            data, config.n_clients, config.alpha, seed=_child_seed(config.seed, _TAG_PARTITION)
        )
    except ValueError as err:  # and only alpha's overflow here
        raise ConfigError([f"alpha: {err}"]) from None
    # Lifetime rule: set-up holds each sample in at most two arrays.  The blob
    # block goes once it is partitioned, and each shard leaves the list when
    # its client is reached, so it is freed once it is split (or dropped);
    # what stays is the train and test splits.
    del data
    clients: list[ClientState] = []
    dropped: list[int] = []
    for cid in range(config.n_clients):
        shard, shards[cid] = shards[cid], None
        n_samples = 0 if shard is None else len(shard)
        if n_samples < 2:
            log.warning("dropping client %d: %d sample(s), too few to split", cid, n_samples)
            dropped.append(cid)
            continue
        train, test = split_train_test(shard, seed=_child_seed(config.seed, _TAG_SPLIT, cid))
        params = init_params(
            config.input_dim,
            config.hidden_dim,
            config.proto_dim,
            config.n_classes,
            seed=_child_seed(config.seed, _TAG_INIT, cid),
        )
        clients.append(ClientState(client_id=cid, params=params, shard=train, test_shard=test))
    return clients, dropped


def run_experiment(
    config: ExperimentConfig,
    out_dir: str | Path | None = None,
    frame_log: FrameLog | None = None,
) -> ExperimentResult:
    """Run the configured number of rounds and summarize the best round."""
    started = time.perf_counter()
    clients, dropped = _build_clients(config)
    if not clients:
        raise RoundError("every client was dropped; nothing to train")

    server = initial_server(config)

    reports = []
    for _ in range(config.rounds):
        report = run_round(server, clients, config.participation, config, frame_log=frame_log)
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
    result = ExperimentResult(config, reports, summary, server, clients)
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
