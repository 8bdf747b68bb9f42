"""Round orchestration, traffic accounting, config parsing, experiment runs."""

import dataclasses
import json
import logging
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tinyproto.protocol as protocol
from tinyproto.client import ClientState, evaluate_accuracy
from tinyproto.config import _KEYS, ConfigError, ExperimentConfig, load_config, parse_config_text
from tinyproto.costmodel import CostQuery, cost
from tinyproto.datagen import Dataset
from tinyproto.masking import Mask, MaskSet
from tinyproto.numerics import ModelParams, init_params
from tinyproto.protocol import (
    FrameLog,
    RoundError,
    ServerState,
    initial_server,
    rounds_csv_text,
    run_experiment,
    run_round,
)
from tinyproto.wire import Frame, FrameType, decode_frame, encode_frame, frame_param_count


def _make_client(client_id, classes, n_classes=4, input_dim=3, feat=12, seed=None):
    """Client with 4 samples per listed class and a 2-sample test split."""
    rng = np.random.default_rng(100 + client_id if seed is None else seed)
    xs, ys = [], []
    for cls in classes:
        xs.append(rng.normal(size=(4, input_dim)) + 3.0 * cls)
        ys.append(np.full(4, cls))
    shard = Dataset(np.concatenate(xs), np.concatenate(ys), n_classes)
    test = Dataset(shard.x[::2], shard.y[::2], n_classes)
    params = init_params(input_dim, 6, feat, n_classes, seed=500 + client_id)
    return ClientState(
        client_id=client_id,
        params=params,
        shard=shard,
        test_shard=test,
    )


# the shape of the clients that _make_client builds: K = 4, d = 12, and s = 3
_CFG = ExperimentConfig(
    n_classes=4, proto_dim=12, comp_dim=3, lam=1.0, mu=1.0, lr=0.01, batch_size=4, local_epochs=1
)


@pytest.mark.parametrize(
    "make",
    [
        lambda: Mask(0, np.eye(2)[0]),
        lambda: MaskSet(np.eye(2)),
        lambda: Frame(FrameType.UPLOAD, 1, np.arange(2), np.eye(2)),
        lambda: init_params(2, 3, 4, 2, seed=0),
        lambda: Dataset(np.eye(2), np.arange(2), 2),
        lambda: _make_client(0, [0, 1]),
        lambda: ServerState(MaskSet(np.eye(2)), np.zeros((2, 1))),
    ],
    ids=["Mask", "MaskSet", "Frame", "ModelParams", "Dataset", "ClientState", "ServerState"],
)
def test_array_holders_compare_and_hash_by_identity(make):
    # a generated __eq__ would compare the arrays and raise numpy's
    # "truth value ... is ambiguous" error instead of answering
    a, b = make(), make()
    assert a == a and not a != a
    assert a != b and not a == b
    assert len({a, b, a}) == 2


class TestRunRound:
    def test_two_clients_two_classes_uplink(self):
        # two clients, two classes each, s=3: uplink must be 2 * 2 * 3
        clients = [_make_client(0, [0, 1]), _make_client(1, [2, 3])]
        cfg = dataclasses.replace(_CFG, seed=1)
        server = initial_server(cfg)
        report = run_round(server, clients, 1.0, cfg)
        assert report.uplink_params == 12
        assert report.downlink_params == 2 * 4 * 3  # all K classes down, both clients

    def test_masks_delivered_once(self):
        clients = [_make_client(0, [0, 1]), _make_client(1, [1, 2])]
        cfg = dataclasses.replace(_CFG, seed=1)
        server = initial_server(cfg)
        log = FrameLog()
        r1 = run_round(server, clients, 1.0, cfg, frame_log=log)
        assert r1.mask_params == 2 * 4 * 12  # K*d per first-time client
        r2 = run_round(server, clients, 1.0, cfg, frame_log=log)
        assert r2.mask_params == 0
        per_client_mask_frames = {}
        for round_no, direction, cid, data in log.entries:
            frame = decode_frame(data)
            if frame.frame_type == FrameType.MASKS:
                per_client_mask_frames[cid] = per_client_mask_frames.get(cid, 0) + 1
        assert all(n == 1 for n in per_client_mask_frames.values())

    def test_masks_frame_encoded_only_in_rounds_with_a_newcomer(self, monkeypatch):
        encoded = []

        def counting_encode(frame):
            encoded.append((frame.round, frame.frame_type))
            return encode_frame(frame)

        monkeypatch.setattr(protocol, "encode_frame", counting_encode)
        clients = [_make_client(i, [i % 4, (i + 1) % 4]) for i in range(4)]
        cfg = dataclasses.replace(_CFG, seed=1)
        server = initial_server(cfg)
        log = FrameLog()
        reports = [run_round(server, clients, 1.0, cfg, frame_log=log) for _ in range(3)]
        masks_encoded = [r for r, kind in encoded if kind == FrameType.MASKS]
        assert masks_encoded == [1]  # rounds 2 and 3 have no newcomer
        assert [r.mask_params for r in reports] == [4 * 4 * 12, 0, 0]
        masks_logged = [
            (r, cid) for r, _, cid, data in log.entries if data[0] == FrameType.MASKS
        ]
        assert masks_logged == [(1, 0), (1, 1), (1, 2), (1, 3)]

    def test_full_participation_runs_everyone(self):
        clients = [_make_client(i, [i % 4]) for i in range(20)]
        cfg = dataclasses.replace(_CFG, seed=2)
        server = initial_server(cfg)
        report = run_round(server, clients, 1.0, cfg)
        assert server.selected_ever == set(range(20))
        assert report.uplink_params == 20 * 1 * 3  # one class per client
        assert all(st.last_train_loss is not None for st in clients)

    def test_selected_set_grows_monotonically(self):
        clients = [_make_client(i, [i % 4]) for i in range(8)]
        cfg = dataclasses.replace(_CFG, seed=3)
        server = initial_server(cfg)
        seen = set()
        for _ in range(4):
            before = set(server.selected_ever)
            run_round(server, clients, 0.5, cfg)
            assert before <= server.selected_ever
            seen |= server.selected_ever
        assert server.selected_ever <= set(range(8))

    def test_round_runs_the_exchange_its_config_names(self):
        # the server holds the exchange's state, not its settings: a round
        # runs its own config's aggregator, and a config whose cps differs
        # from the server's is refused at the globals width
        cfg = dataclasses.replace(_CFG, seed=1)
        simple = dataclasses.replace(cfg, aggregator="simple")

        def uploads(server_cfg, round_cfg):
            clients = [_make_client(0, [0, 1]), _make_client(1, [1, 2, 3])]
            log = FrameLog()
            run_round(initial_server(server_cfg), clients, 1.0, round_cfg, frame_log=log)
            return [data for _, way, _, data in log.entries if way == "up"]

        assert uploads(cfg, simple) == uploads(simple, simple) != uploads(cfg, cfg)
        clients = [_make_client(0, [0, 1]), _make_client(1, [1, 2, 3])]
        dense = dataclasses.replace(cfg, cps=not cfg.cps)
        with pytest.raises(
            RoundError, match=r"^client 0, round 1: globals rows have 3 values, expected 12$"
        ):
            run_round(initial_server(cfg), clients, 1.0, dense)

    def test_dense_client_holds_its_own_all_ones_set_and_is_sent_none(self):
        # one client path: a dense round gives each newcomer its model's
        # all-ones (K, d) set in place of the masks frame
        cfg = dataclasses.replace(_CFG, seed=1, cps=False)
        clients = [_make_client(0, [0, 1]), _make_client(1, [1, 2, 3])]
        server, log = initial_server(cfg), FrameLog()
        report = run_round(server, clients, 1.0, cfg, frame_log=log)
        for st in clients:
            assert st.mask_set is not server.mask_set
            assert st.mask_set.bits.shape == (4, 12) and st.mask_set.bits.all()
        assert report.mask_params == 0
        assert all(data[0] != FrameType.MASKS for _, _, _, data in log.entries)
        assert report.uplink_params == (2 + 3) * 12

    def test_sampling_count_is_ceiling(self):
        clients = [_make_client(i, [i % 4]) for i in range(5)]
        cfg = dataclasses.replace(_CFG, seed=4)
        server = initial_server(cfg)
        run_round(server, clients, 0.5, cfg)
        assert len(server.selected_ever) == 3  # ceil(0.5 * 5)

    @pytest.mark.parametrize(
        "participation, n_clients, sampled",
        [
            (0.28, 25, 7), (0.55, 100, 55), (0.07, 100, 7),
            (0.5, 37, 19), (1e-12, 10, 1), (1.0, 6, 6),
        ],
    )
    def test_sampling_count_takes_the_decimal_as_written(self, participation, n_clients, sampled):
        # in binary 0.28 * 25 is 7.000000000000001, whose ceiling is 8
        clients = [_make_client(i, [i % 4]) for i in range(n_clients)]
        server = initial_server(_CFG)
        run_round(server, clients, participation, _CFG)
        assert len(server.selected_ever) == sampled

    def test_no_clients_is_round_error(self):
        cfg = dataclasses.replace(_CFG, seed=1)
        server = initial_server(cfg)
        with pytest.raises(RoundError):
            run_round(server, [], 1.0, cfg)

    @pytest.mark.parametrize("participation", [0, 1.5])
    def test_participation_outside_unit_interval_is_refused(self, participation):
        clients = [_make_client(0, [0, 1])]
        with pytest.raises(ValueError, match=r"^participation must lie in \(0, 1\]$"):
            run_round(initial_server(_CFG), clients, participation, _CFG)

    @pytest.mark.parametrize("cps", [True, False], ids=["cps", "dense"])
    @pytest.mark.parametrize("aggregator", ["scaled", "simple"])
    def test_accounting_matches_frame_recount(self, aggregator, cps):
        # round 1 delivers masks (cps) to both clients, round 2 to nobody
        clients = [_make_client(0, [0, 1]), _make_client(1, [1, 2, 3])]
        cfg = dataclasses.replace(_CFG, seed=5, cps=cps, aggregator=aggregator)
        # participation 1.0 samples both clients; the cost model bills the
        # compressed exchange as TinyProto and the dense one as FedProto
        shape = dict(
            n_classes=cfg.n_classes, classes_per_client=[st.n_local_classes for st in clients]
        )
        if cps:
            query = CostQuery(algorithm="TinyProto", comp_dim=cfg.comp_dim, **shape)
        else:
            query = CostQuery(algorithm="FedProto", proto_dim=cfg.proto_dim, **shape)
        server = initial_server(cfg)
        for round_no in (1, 2):
            log = FrameLog()
            report = run_round(server, clients, 1.0, cfg, frame_log=log)
            recount = dict.fromkeys(FrameType, 0)
            for _, direction, _, data in log.entries:
                frame = decode_frame(data)
                assert direction == ("up" if frame.frame_type == FrameType.UPLOAD else "down")
                recount[frame.frame_type] += frame_param_count(frame)
            assert (
                report.uplink_params,
                report.downlink_params,
                report.mask_params,
            ) == (
                recount[FrameType.UPLOAD],
                recount[FrameType.GLOBALS],
                recount[FrameType.MASKS],
            )
            assert (report.mask_params > 0) == (cps and round_no == 1)
            assert report.uplink_params > 0 and report.downlink_params > 0
            assert report.uplink_params + report.downlink_params == cost(query)

    def test_scaled_uploads_have_no_count_field(self):
        clients = [_make_client(0, [0, 1])]
        cfg = dataclasses.replace(_CFG, seed=6)
        server = initial_server(cfg)
        log = FrameLog()
        run_round(server, clients, 1.0, cfg, frame_log=log)
        for _, _, _, data in log.entries:
            frame = decode_frame(data)
            if frame.frame_type == FrameType.UPLOAD:
                assert frame.values.shape[1] == 3

    def test_each_delivered_frame_decoded_once(self, monkeypatch):
        decodes = []

        def counting_decode(data):
            decodes.append(data)
            return decode_frame(data)

        monkeypatch.setattr(protocol, "decode_frame", counting_decode)
        clients = [_make_client(i, [i % 4, (i + 1) % 4]) for i in range(4)]
        cfg = dataclasses.replace(_CFG, seed=8)
        server = initial_server(cfg)
        log = FrameLog()
        for _ in range(2):
            run_round(server, clients, 0.5, cfg, frame_log=log)
        kinds = [decode_frame(data).frame_type for _, _, _, data in log.entries]
        mask_deliveries = kinds.count(FrameType.MASKS)
        globals_deliveries = kinds.count(FrameType.GLOBALS)
        uploads = kinds.count(FrameType.UPLOAD)
        assert mask_deliveries > 0
        assert globals_deliveries == uploads == 2 * 2  # two rounds, two sampled
        assert len(decodes) == mask_deliveries + globals_deliveries + uploads

    def test_only_retrained_clients_are_evaluated(self, monkeypatch):
        evaluated = []

        def counting_evaluate(state):
            evaluated.append(state.client_id)
            return evaluate_accuracy(state)

        monkeypatch.setattr(protocol, "evaluate_accuracy", counting_evaluate)
        clients = [_make_client(i, [i % 4, (i + 1) % 4]) for i in range(4)]
        cfg = dataclasses.replace(_CFG, seed=8)
        server = initial_server(cfg)
        for round_no in (1, 2):
            evaluated.clear()
            log = FrameLog()
            report = run_round(server, clients, 0.5, cfg, frame_log=log)
            trained = {cid for _, direction, cid, _ in log.entries if direction == "up"}
            assert len(trained) == 2
            expected = set(range(4)) if round_no == 1 else trained
            assert sorted(evaluated) == sorted(expected)
            fresh = [evaluate_accuracy(st) for st in clients]
            assert report.per_client_accuracy == fresh

    def test_first_round_trains_as_with_lambda_zero(self):
        # the first round's globals are all zero, so the penalty adds nothing
        runs = []
        for lam in (_CFG.lam, 0.0):
            cfg = dataclasses.replace(_CFG, seed=1, lam=lam)
            clients = [_make_client(0, [0, 1]), _make_client(1, [1, 2, 3])]
            server = initial_server(cfg)
            report = run_round(server, clients, 1.0, cfg)
            runs.append((report, server, clients))
        (report_a, server_a, clients_a), (report_b, server_b, clients_b) = runs
        assert _CFG.lam > 0
        assert report_a == report_b
        assert server_a.global_comp.tobytes() == server_b.global_comp.tobytes()
        for a, b in zip(clients_a, clients_b):
            for pa, pb in zip(a.params.arrays(), b.params.arrays()):
                assert pa.tobytes() == pb.tobytes()

    def test_cps_round_for_a_client_without_masks_is_refused(self):
        # masks go to first-time participants of a cps round only, so a
        # client first sampled in a dense round never receives them
        clients = [_make_client(0, [0, 1]), _make_client(1, [1, 2, 3])]
        cfg = dataclasses.replace(_CFG, seed=1)
        server = initial_server(cfg)
        server.selected_ever = {0, 1}
        with pytest.raises(RoundError, match=r"client 0, round 1: no masks were delivered"):
            run_round(server, clients, 1.0, cfg)

    def test_dense_round_for_a_client_without_masks_is_refused(self):
        # a dense client builds its set when first sampled; one marked as
        # sampled before, but holding none, is refused as in a cps round
        clients = [_make_client(0, [0, 1]), _make_client(1, [1, 2, 3])]
        cfg = dataclasses.replace(_CFG, seed=1, cps=False)
        server = initial_server(cfg)
        server.selected_ever = {0, 1}
        with pytest.raises(RoundError, match=r"client 0, round 1: no masks were delivered"):
            run_round(server, clients, 1.0, cfg)

    @pytest.mark.parametrize("workers", [0, 2, 4])
    def test_workers_other_than_one_refused(self, workers):
        # client updates run serially: the key stays, and accepts only 1
        assert parse_config_text("workers = 1").workers == 1
        with pytest.raises(ConfigError, match="workers: must be 1"):
            parse_config_text(f"workers = {workers}")
        with pytest.raises(ConfigError, match="workers: must be 1"):
            ExperimentConfig(**{**_SMALL, "workers": workers})

    @pytest.mark.parametrize("aggregator", ["scaled", "simple"])
    def test_globals_sum_rows_in_ascending_client_order(self, aggregator):
        clients = [_make_client(i, [i % 4, (i + 1) % 4, (i + 2) % 4]) for i in range(12)]
        cfg = dataclasses.replace(_CFG, seed=9, aggregator=aggregator)
        server = initial_server(cfg)
        expected = np.zeros((4, 3))
        for _ in range(2):
            log = FrameLog()
            run_round(server, clients, 0.5, cfg, frame_log=log)
            uploads = [(cid, decode_frame(data)) for _, way, cid, data in log.entries if way == "up"]
            by_class: dict[int, list[np.ndarray]] = {}
            for _, frame in sorted(uploads, key=lambda entry: entry[0]):
                for cls, row in zip(frame.class_ids.tolist(), frame.values):
                    by_class.setdefault(cls, []).append(row)
            assert max(len(rows) for rows in by_class.values()) > 1
            for cls, rows in by_class.items():
                acc = np.zeros(3)
                for row in rows:
                    acc += row
                acc /= len(rows)
                expected[cls] = acc
            assert (server.global_comp == expected).all()


def _two_client_round():
    """Client 1 alone holds class 3, so a fault keyed on it hits client 1."""
    clients = [_make_client(0, [0, 1]), _make_client(1, [1, 2, 3])]
    cfg = dataclasses.replace(_CFG, seed=1)
    return run_round(initial_server(cfg), clients, 1.0, cfg)


def _fault_encoding(monkeypatch, frame_type, encode, only_class=None):
    """Encode each frame of ``frame_type`` (only those that carry
    ``only_class``, when it is given) as ``encode(real_encode, frame)``."""
    real = protocol.encode_frame

    def faulty(frame):
        hit = frame.frame_type == frame_type
        if only_class is not None:
            hit = hit and only_class in frame.class_ids.tolist()
        return encode(real, frame) if hit else real(frame)

    monkeypatch.setattr(protocol, "encode_frame", faulty)


def _fault_frames(monkeypatch, frame_type, fault, only_class=None):
    """Let ``fault`` rewrite each frame of ``frame_type`` before it is encoded
    (only those that carry ``only_class``, when it is given)."""
    _fault_encoding(monkeypatch, frame_type, lambda real, f: real(fault(f)), only_class)


def _fault_bytes(monkeypatch, frame_type, fault, only_class=None):
    """Let ``fault`` rewrite the bytes of each frame of ``frame_type`` after it
    is encoded (only those that carry ``only_class``, when it is given)."""
    _fault_encoding(monkeypatch, frame_type, lambda real, f: fault(real(f)), only_class)


def _fault_upload_block(monkeypatch, fault):
    """Let ``fault`` rewrite client 1's upload (ids, block) before it is encoded."""

    def rewrite(frame):
        ids, block = fault(frame.class_ids.copy(), frame.values.copy())
        return dataclasses.replace(frame, class_ids=ids, values=block)

    _fault_frames(monkeypatch, FrameType.UPLOAD, rewrite, only_class=3)


def _faults(ids=None, nan_row=None):
    """A block fault for ``_fault_upload_block``: new class ids, a NaN in the
    last value of one row."""

    def fault(old_ids, block):
        if nan_row is not None:
            block[nan_row, -1] = np.nan
        return (old_ids if ids is None else np.array(ids)), block

    return fault


def _reference_row_scan(frame, n_classes):
    """The per-row checks of an upload as one scan: the message of the first
    failed check in the order order, range, non-finite, naming the first
    faulty class, or None when the block is sound."""
    ids, values = frame.class_ids, frame.values
    problems = [
        (np.diff(ids, prepend=-1) <= 0, "repeated or out of order"),
        (ids >= n_classes, f"outside [0, K) for K={n_classes}"),
        (~np.isfinite(values).all(axis=1), "has non-finite values"),
    ]
    for bad, what in problems:
        if bad.any():
            return f"client 0, class {int(ids[bad][0])}, round 1: upload {what}"
    return None


_ODD_VALUES = st.sampled_from([0.5, 1.0, 2.0, 0.0, -1.0, np.nan, np.inf, -np.inf])


@given(
    ids=st.lists(st.integers(-1, 5), min_size=1, max_size=5),
    cells=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 2), _ODD_VALUES), max_size=3),
)
@settings(max_examples=300, deadline=None)
def test_upload_check_refuses_what_the_row_scan_refuses(ids, cells):
    """The vectorized pass accepts exactly the sound blocks, and a refused
    block gets the row scan's message."""
    n_classes = 4
    values = np.full((len(ids), 3), 2.0)  # sound everywhere
    for row, col, value in cells:
        values[row % len(ids), col] = value
    frame = Frame(FrameType.UPLOAD, 1, np.array(ids), values)
    want = _reference_row_scan(frame, n_classes)
    if want is None:
        protocol._check_frame(frame, FrameType.UPLOAD, 1, 0, n_classes, 3)
    else:
        with pytest.raises(RoundError, match=f"^{re.escape(want)}$"):
            protocol._check_frame(frame, FrameType.UPLOAD, 1, 0, n_classes, 3)


class TestFrameChecks:
    """Each side checks each frame it decodes; a bad one names client, class, round."""

    def test_upload_of_wrong_type_rejected(self, monkeypatch):
        _fault_frames(
            monkeypatch,
            FrameType.UPLOAD,
            lambda f: dataclasses.replace(f, frame_type=FrameType.GLOBALS),
            only_class=3,
        )
        with pytest.raises(RoundError, match=r"client 1, round 1: expected a UPLOAD"):
            _two_client_round()

    def test_upload_of_wrong_round_rejected(self, monkeypatch):
        _fault_frames(
            monkeypatch, FrameType.UPLOAD, lambda f: dataclasses.replace(f, round=5), only_class=3
        )
        with pytest.raises(RoundError, match=r"client 1, round 1: .* of round 5"):
            _two_client_round()

    def test_upload_class_outside_range_rejected(self, monkeypatch):
        def fault(ids, block):
            ids[-1] = 4  # K = 4
            return ids, block

        _fault_upload_block(monkeypatch, fault)
        with pytest.raises(RoundError, match=r"client 1, class 4, round 1: .*K=4"):
            _two_client_round()

    @pytest.mark.parametrize("ids", [[1, 2, 2], [1, 3, 2]], ids=["repeated", "descending"])
    def test_upload_ids_not_strictly_ascending_rejected(self, monkeypatch, ids):
        _fault_upload_block(monkeypatch, lambda _, block: (np.array(ids), block))
        with pytest.raises(RoundError, match=r"client 1, class 2, round 1: .*repeated or out of order"):
            _two_client_round()

    def test_upload_of_wrong_width_rejected(self, monkeypatch):
        _fault_upload_block(monkeypatch, lambda ids, block: (ids, block[:, :-1]))
        with pytest.raises(RoundError, match=r"client 1, round 1: .*2 values, expected 3"):
            _two_client_round()

    def test_upload_without_records_rejected(self, monkeypatch):
        _fault_upload_block(monkeypatch, lambda *_: (np.arange(0), np.zeros((0, 3))))
        with pytest.raises(RoundError, match=r"client 1, round 1"):
            _two_client_round()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_upload_with_non_finite_value_rejected(self, monkeypatch, bad):
        def fault(ids, block):
            block[1, 0] = bad  # class 2
            return ids, block

        _fault_upload_block(monkeypatch, fault)
        with pytest.raises(RoundError, match=r"client 1, class 2, round 1: .*non-finite"):
            _two_client_round()

    @pytest.mark.parametrize(
        "fault, want",
        [
            (_faults(ids=[1, 2, 2], nan_row=0), "class 2: upload repeated or out of order"),
            (_faults(ids=[1, 5, 3]), "class 3: upload repeated or out of order"),
            (_faults(ids=[1, 2, 4], nan_row=0), "class 4: upload outside [0, K) for K=4"),
        ],
        ids=["repeated-nan", "descending-out-of-range", "out-of-range-nan"],
    )
    def test_two_faults_name_the_first_failed_check(self, monkeypatch, fault, want):
        # checks run in the order: order, range, non-finite, whatever rows
        # the faults sit in
        _fault_upload_block(monkeypatch, fault)
        cls, what = want.split(": ")
        with pytest.raises(RoundError, match=f"^client 1, {cls}, round 1: {re.escape(what)}$"):
            _two_client_round()

    @pytest.mark.parametrize("frame_type", [FrameType.GLOBALS, FrameType.MASKS])
    def test_downlink_of_wrong_round_rejected(self, monkeypatch, frame_type):
        _fault_frames(monkeypatch, frame_type, lambda f: dataclasses.replace(f, round=0))
        with pytest.raises(RoundError, match=rf"client 0, round 1: expected a {frame_type.name}"):
            _two_client_round()

    @pytest.mark.parametrize("bad", [0.5, 1.7])
    def test_masks_with_non_binary_value_rejected(self, monkeypatch, bad):
        def fault(frame):
            values = frame.values.copy()
            values[2, np.flatnonzero(values[2])[0]] = bad
            return dataclasses.replace(frame, values=values)

        _fault_frames(monkeypatch, FrameType.MASKS, fault)
        with pytest.raises(RoundError, match=r"client 0, round 1: mask for class 2 has values other"):
            _two_client_round()

    def test_masks_row_with_wrong_popcount_rejected(self, monkeypatch):
        def fault(frame):
            values = frame.values.copy()
            values[3] = 1.0
            return dataclasses.replace(frame, values=values)

        _fault_frames(monkeypatch, FrameType.MASKS, fault)
        with pytest.raises(RoundError, match=r"client 0, round 1: mask for class 3 .*popcount 3"):
            _two_client_round()

    def test_masks_of_zeros_rejected_as_masks(self, monkeypatch):
        # blamed on the masks, not on the globals that follow them
        _fault_frames(
            monkeypatch, FrameType.MASKS, lambda f: dataclasses.replace(f, values=0 * f.values)
        )
        with pytest.raises(
            RoundError, match=r"^client 0, round 1: mask for class 0 has no set bits$"
        ):
            _two_client_round()

    def test_masks_frame_without_records_rejected(self, monkeypatch):
        _fault_frames(
            monkeypatch,
            FrameType.MASKS,
            lambda f: dataclasses.replace(f, class_ids=np.arange(0), values=np.empty((0, 0))),
        )
        with pytest.raises(RoundError, match=r"client 0, round 1: masks rows have 0 values"):
            _two_client_round()

    @pytest.mark.parametrize("ids", [[1, 2, 3, 4], [0, 1, 3, 2]], ids=["shifted", "swapped"])
    def test_masks_ids_not_zero_to_k_rejected(self, monkeypatch, ids):
        _fault_frames(
            monkeypatch, FrameType.MASKS, lambda f: dataclasses.replace(f, class_ids=np.array(ids))
        )
        with pytest.raises(RoundError, match=r"client 0, round 1: masks frame class ids are not"):
            _two_client_round()

    @pytest.mark.parametrize(
        "trim, want",
        [
            (lambda v: v[:-1], "masks frame class ids are not 0..K-1 in order for K=4"),
            (lambda v: v[:, :-1], "masks rows have 11 values, expected 12"),
        ],
        ids=["K", "d"],
    )
    def test_masks_disagreeing_with_the_model_rejected(self, monkeypatch, trim, want):
        _fault_frames(
            monkeypatch,
            FrameType.MASKS,
            lambda f: dataclasses.replace(
                f, class_ids=f.class_ids[: len(trim(f.values))], values=trim(f.values)
            ),
        )
        with pytest.raises(RoundError, match=rf"client 0, round 1: {want}"):
            _two_client_round()

    @pytest.mark.parametrize(
        "cut",
        [
            lambda ids, values: (np.array([0, 1, 1, 3]), values),
            lambda ids, values: (np.array([0, 1, 2, 4]), values),
            lambda ids, values: (ids[:2], values[:2]),
        ],
        ids=["repeated", "skipped", "short"],
    )
    def test_globals_ids_not_zero_to_k_rejected(self, monkeypatch, cut):
        def fault(frame):
            ids, values = cut(frame.class_ids, frame.values)
            return dataclasses.replace(frame, class_ids=ids, values=values)

        _fault_frames(monkeypatch, FrameType.GLOBALS, fault)
        with pytest.raises(
            RoundError, match=r"client 0, round 1: globals frame class ids are not 0..K-1 .*K=4"
        ):
            _two_client_round()

    @pytest.mark.parametrize("cps", [True, False], ids=["cps", "dense"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_globals_with_non_finite_value_rejected(self, bad, cps):
        # a live round: round 1 aggregates every class, then row 1 goes bad
        clients = [_make_client(0, [0, 1]), _make_client(1, [1, 2, 3])]
        cfg = dataclasses.replace(_CFG, seed=1, cps=cps)
        server = initial_server(cfg)
        run_round(server, clients, 1.0, cfg)
        assert server.global_comp.any(axis=1).all()
        server.global_comp[1, 0] = bad
        with pytest.raises(
            RoundError, match=r"client 0, class 1, round 2: globals has non-finite values"
        ):
            run_round(server, clients, 1.0, cfg)

    @pytest.mark.parametrize("live", [False, True], ids=["zero", "live"])
    @pytest.mark.parametrize(
        "cps, width, want",
        [(False, 3, "3 values, expected 12"), (True, 12, "12 values, expected 3")],
        ids=["dense-server-cps-round", "cps-server-dense-round"],
    )
    def test_globals_of_wrong_width_rejected(self, monkeypatch, cps, width, want, live):
        # a block as wide as the other mode's, all zero or live: every row of
        # a block has one width, so the whole block is refused
        def fault(frame):
            values = np.full((4, width), 1.0 if live else 0.0)
            return dataclasses.replace(frame, values=values)

        _fault_frames(monkeypatch, FrameType.GLOBALS, fault)
        clients = [_make_client(0, [0, 1]), _make_client(1, [1, 2, 3])]
        cfg = dataclasses.replace(_CFG, seed=1, cps=cps)
        with pytest.raises(RoundError, match=rf"client 0, round 1: globals rows have {want}"):
            run_round(initial_server(cfg), clients, 1.0, cfg)

    def test_globals_of_wrong_type_rejected(self, monkeypatch):
        _fault_frames(
            monkeypatch,
            FrameType.GLOBALS,
            lambda f: dataclasses.replace(f, frame_type=FrameType.UPLOAD),
        )
        with pytest.raises(RoundError, match=r"client 0, round 1: expected a GLOBALS .*got UPLOAD"):
            _two_client_round()

    def test_upload_with_flipped_crc_byte_rejected(self, monkeypatch):
        _fault_bytes(
            monkeypatch,
            FrameType.UPLOAD,
            lambda data: data[:-1] + bytes([data[-1] ^ 0xFF]),
            only_class=3,
        )
        with pytest.raises(RoundError, match=r"^client 1, round 1: upload frame: crc mismatch$"):
            _two_client_round()

    def test_truncated_globals_frame_rejected(self, monkeypatch):
        _fault_bytes(monkeypatch, FrameType.GLOBALS, lambda data: data[:10])
        with pytest.raises(
            RoundError, match=r"^client 0, round 1: globals frame: frame truncated: "
        ):
            _two_client_round()


# every field away from its default but workers, which accepts only 1
_NON_DEFAULT = ExperimentConfig(
    seed=3, n_clients=5, n_classes=4, input_dim=5, proto_dim=12, comp_dim=3, alpha=0.2,
    lam=0.5, mu=2.0, lr=0.05, batch_size=16, local_epochs=2, rounds=7, participation=0.5,
    aggregator="simple", cps=False, per_class=40, sigma=0.5, hidden_dim=24, workers=1,
)
_FIELDS = dataclasses.fields(ExperimentConfig)


class TestConfig:
    @pytest.mark.parametrize("field", _FIELDS, ids=[f.name for f in _FIELDS])
    def test_each_field_round_trips_through_its_file_key(self, field):
        text = "".join(f"{key} = {value}\n" for key, value in _NON_DEFAULT.to_dict().items())
        value = getattr(parse_config_text(text), field.name)
        assert value == getattr(_NON_DEFAULT, field.name) and type(value) is field.type
        assert value != field.default or field.name == "workers"

    @pytest.mark.parametrize("field", _FIELDS, ids=[f.name for f in _FIELDS])
    def test_each_field_names_a_value_of_the_wrong_type(self, field):
        kind = {int: "an integer", float: "a real number", str: "a string", bool: "a bool"}
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(**{field.name: None})
        key = field.metadata["key"]
        assert err.value.problems == [f"{key}: must be {kind[field.type]}, got None"]

    def test_every_file_key_is_unique(self):
        keys = [f.metadata["key"] for f in _FIELDS]
        assert len(set(keys)) == len(keys) == len(_KEYS)

    def test_parse_round_trip(self):
        text = """
        # comment
        seed = 3
        M = 5
        K = 4
        D = 8
        d = 16
        s = 4
        alpha = 0.2
        lambda = 0.5
        mu = 2.0
        lr = 0.05
        batch_size = 16
        local_epochs = 2
        rounds = 7
        participation = 0.5
        aggregator = simple
        cps = off
        """
        cfg = parse_config_text(text)
        assert cfg.n_clients == 5 and cfg.n_classes == 4
        assert cfg.lam == 0.5 and cfg.aggregator == "simple"
        assert cfg.cps is False and cfg.local_epochs == 2

    def test_unknown_key_listed(self):
        # rho too: the penalty is squared L2, with no key to choose another distance
        # and train_fraction: every client trains on 75% of its shard
        for key, value in [("bogus", "1"), ("rho", "squared_l2"), ("train_fraction", "0.75")]:
            with pytest.raises(ConfigError) as err:
                parse_config_text(f"{key} = {value}")
            assert err.value.problems == [f"{key}: unknown key"]

    def test_all_problems_reported_with_field_paths(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(comp_dim=50, proto_dim=16, alpha=-1, participation=2.0)
        message = str(err.value)
        assert "s: " in message
        assert "alpha: " in message
        assert "participation: " in message

    def test_bad_value_type_named(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config_text("seed = abc")

    @pytest.mark.parametrize(
        "attr, value, problem",
        [
            ("cps", "off", "cps: must be a bool, got 'off'"),
            ("cps", 1, "cps: must be a bool, got 1"),
            ("rounds", True, "rounds: must be an integer, got True"),
            ("n_clients", 2.5, "M: must be an integer, got 2.5"),
            ("seed", np.True_, "seed: must be an integer, got np.True_"),
            ("proto_dim", "16", "d: must be an integer, got '16'"),
            ("lam", "1", "lambda: must be a real number, got '1'"),
            ("alpha", False, "alpha: must be a real number, got False"),
            ("aggregator", 1, "aggregator: must be a string, got 1"),
        ],
        ids=[
            "cps-str", "cps-int", "rounds-bool", "M-float", "seed-numpy-bool",
            "d-str", "lambda-str", "alpha-bool", "aggregator-int",
        ],
    )
    def test_wrong_type_named_alone(self, attr, value, problem):
        # a value of the wrong type would run settings other than the ones
        # the summary reports, or fail deep inside the run
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(**{attr: value})
        assert err.value.problems == [problem]

    def test_any_integer_or_real_number_accepted(self):
        # and kept as the plain Python value, which a summary can hold
        cfg = ExperimentConfig(n_clients=np.int64(5), lam=1, mu=np.float64(0.5))
        assert (cfg.n_clients, cfg.lam, cfg.mu) == (5, 1, 0.5)
        assert type(cfg.n_clients) is int and type(cfg.lam) is float
        assert type(cfg.mu) is float

    def test_unknown_aggregator_rejected_before_training(self):
        # refused when the config is made, so no server or round can use it
        for name in ("bogus", "weighted"):
            with pytest.raises(ConfigError) as err:
                ExperimentConfig(aggregator=name)
            assert err.value.problems == ["aggregator: must be one of simple, scaled"]

    def test_bool_spellings(self):
        assert parse_config_text("cps = on").cps is True
        assert parse_config_text("cps = false").cps is False

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "key", ["alpha", "lambda", "mu", "lr", "participation", "sigma"]
    )
    def test_non_finite_float_named_alone(self, key, text):
        with pytest.raises(ConfigError) as err:
            parse_config_text(f"{key} = {text}")
        assert err.value.problems == [f"{key}: must be finite, got {float(text)}"]

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("attr", ["lam", "mu", "lr"])
    def test_non_finite_float_refused_when_made(self, attr, value):
        # refused when the config is made, not as a nan or inf training loss
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(**{attr: value})
        key = "lambda" if attr == "lam" else attr
        assert err.value.problems == [f"{key}: must be finite, got {value}"]

    def test_repeated_key_named_with_both_lines(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("lr = 0.5\n# a comment\nlr = 0.02\n")
        assert err.value.problems == ["lr: set more than once (lines 1 and 3)"]

    def test_load_config_reads_utf8_and_names_a_file_that_is_not(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# café\nseed = 3\n", encoding="utf-8")
        assert load_config(path).seed == 3
        path.write_bytes(b"# caf\xe9\nseed = 3\n")
        with pytest.raises(OSError, match="not UTF-8 text") as err:
            load_config(path)
        assert err.value.filename == str(path)


_SMALL = dict(
    seed=7,
    n_clients=4,
    n_classes=3,
    input_dim=6,
    proto_dim=12,
    comp_dim=3,
    alpha=0.5,
    rounds=3,
    per_class=30,
    batch_size=8,
)


class TestRunExperiment:
    def test_every_client_dropped_is_a_round_error(self):
        # 2 samples shared by 50 clients: none holds the 2 a train/test split needs
        cfg = ExperimentConfig(seed=1, n_clients=50, n_classes=2, per_class=1)
        with pytest.raises(RoundError, match="^every client was dropped; nothing to train$"):
            run_experiment(cfg)

    def test_first_round_exercises_lambda_zero(self):
        cfg = ExperimentConfig(**{**_SMALL, "rounds": 1})
        result = run_experiment(cfg)
        assert len(result.reports) == 1
        assert result.summary["rounds"] == 1

    def test_double_run_produces_identical_csv_bytes(self):
        cfg = ExperimentConfig(**_SMALL)
        a = rounds_csv_text(run_experiment(cfg))
        b = rounds_csv_text(run_experiment(cfg))
        assert a.encode() == b.encode()

    def test_compression_ratio_is_s_over_d(self):
        sparse_cfg = ExperimentConfig(**_SMALL)
        dense_cfg = ExperimentConfig(**{**_SMALL, "cps": False})
        sparse = run_experiment(sparse_cfg)
        dense = run_experiment(dense_cfg)
        for rs, rd in zip(sparse.reports, dense.reports):
            sparse_traffic = rs.uplink_params + rs.downlink_params
            dense_traffic = rd.uplink_params + rd.downlink_params
            # exact integer identity: sparse * d == dense * s
            assert sparse_traffic * dense_cfg.proto_dim == dense_traffic * sparse_cfg.comp_dim

    def test_output_files_written(self, tmp_path):
        cfg = ExperimentConfig(**_SMALL)
        run_experiment(cfg, out_dir=tmp_path)
        rounds = (tmp_path / "rounds.csv").read_text()
        assert rounds.startswith("round,mean_test_accuracy")
        assert "wall" not in rounds.split("\n")[0]
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["rounds"] == 3
        masks = (tmp_path / "masks.txt").read_text().strip().split("\n")
        assert len(masks) == 3 and all(len(row) == 12 for row in masks)

    def test_numpy_scalar_setting_runs_to_a_written_summary(self, tmp_path):
        cfg = ExperimentConfig(seed=7, n_clients=3, rounds=np.int64(1), per_class=20)
        run_experiment(cfg, out_dir=tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["rounds"] == summary["config"]["rounds"] == 1

    def test_config_cannot_change_after_it_is_checked(self):
        # a run executes exactly the settings that were checked
        cfg = ExperimentConfig(**_SMALL)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.comp_dim = 99
        with pytest.raises(ConfigError) as err:
            dataclasses.replace(cfg, comp_dim=99)
        assert err.value.problems == ["s: must be <= d (got s=99, d=12)"]

    def test_dropped_client_reported_once_with_its_sample_count(self, caplog):
        cfg = ExperimentConfig(seed=7, n_clients=12, alpha=0.05, per_class=5, rounds=1)
        with caplog.at_level(logging.WARNING):
            dropped = run_experiment(cfg).summary["clients_dropped"]
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        counts = []
        for cid in dropped:
            (message,) = [m for m in warnings if re.search(rf"\bclient {cid}\b", m)]
            counts.append(int(re.search(r": (\d+) sample", message).group(1)))
        assert len(warnings) == len(dropped)
        assert set(counts) == {0, 1}  # an empty shard, and one too small to split

    def test_simple_aggregator_and_dense_mode(self):
        cfg = ExperimentConfig(**{**_SMALL, "aggregator": "simple", "cps": False})
        result = run_experiment(cfg)
        assert result.reports[0].mask_params == 0
        globals_ = result.server.global_comp
        assert all(len(g) == cfg.proto_dim for g in globals_)

    def test_dense_run_sends_and_writes_all_ones_masks_without_a_search(
        self, monkeypatch, tmp_path
    ):
        calls = []
        real = protocol.generate_masks
        monkeypatch.setattr(
            protocol, "generate_masks", lambda *a, **kw: calls.append(a) or real(*a, **kw)
        )
        cfg = ExperimentConfig(
            seed=7, n_clients=4, n_classes=10, proto_dim=32, comp_dim=8, rounds=2,
            per_class=30, cps=False,
        )
        result = run_experiment(cfg, out_dir=tmp_path)
        assert calls == []
        assert (tmp_path / "masks.txt").read_text() == ("1" * 32 + "\n") * 10
        assert result.server.mask_set.s == 32
        assert result.summary["total_mask_params"] == 0
        run_experiment(dataclasses.replace(cfg, cps=True))
        assert len(calls) == 1  # the spy sees a cps run's search

    @pytest.mark.parametrize("aggregator", ["scaled", "simple"])
    def test_dense_run_is_a_cps_run_with_s_equal_d(self, aggregator, tmp_path):
        # FedProto's dense exchange is CPS with every mask all ones: the run
        # trains, uploads and evaluates alike, and differs only in sending
        # no masks
        cfg = ExperimentConfig(
            seed=7, n_clients=6, n_classes=4, input_dim=8, proto_dim=16, comp_dim=16,
            alpha=0.5, per_class=60, participation=0.5, rounds=4, aggregator=aggregator,
        )
        dense = run_experiment(dataclasses.replace(cfg, cps=False), out_dir=tmp_path / "off")
        cps = run_experiment(cfg, out_dir=tmp_path / "on")

        def table(run):
            text = (tmp_path / run / "rounds.csv").read_text()
            rows = [line.split(",") for line in text.splitlines()]
            column = rows[0].index("mask_params")
            return [row[:column] + row[column + 1 :] for row in rows], [r[column] for r in rows]

        (off_rest, off_masks), (on_rest, on_masks) = table("off"), table("on")
        assert off_rest == on_rest
        masks = (tmp_path / "off" / "masks.txt").read_text()
        assert masks == (tmp_path / "on" / "masks.txt").read_text() == ("1" * 16 + "\n") * 4
        assert off_masks[1:] == ["0"] * 4
        assert dense.summary["total_mask_params"] == 0
        sampled = len(cps.server.selected_ever)
        assert sampled == len(dense.server.selected_ever) > 1
        assert cps.summary["total_mask_params"] == sampled * 4 * 16
        assert sum(map(int, on_masks[1:])) == sampled * 4 * 16

    def test_diverging_client_ends_the_round_with_a_named_error(self):
        # the desk config of demos/03 with a learning rate that overflows the
        # features in the first round; training stops at the first overflow
        # and names the client, with no numpy warning on the way
        desk = dict(
            seed=7, n_clients=6, n_classes=4, input_dim=8, proto_dim=16, comp_dim=4,
            alpha=0.5, per_class=400, sigma=0.35, rounds=5, lr=1e9,
        )
        with pytest.raises(
            RoundError, match=r"client \d+, round \d+: training diverged: overflow encountered"
        ):
            run_experiment(ExperimentConfig(**desk))

    def test_overflowing_loss_ends_the_round_with_a_named_error(self):
        # the features stay finite, but lam times the round-2 penalty
        # overflows the loss: it must not be reported as an inf train loss
        cfg = ExperimentConfig(
            seed=7, n_clients=3, n_classes=3, rounds=3, per_class=20, lam=1e308
        )
        with pytest.raises(
            RoundError, match=r"client \d+, round 2: training diverged: overflow encountered"
        ):
            run_experiment(cfg)


# fleet's shape (perfbench/workloads.py), scaled down to 20 clients of 500 samples
# per class so that set-up takes a fraction of a second
_FLEET_SHAPED = dict(
    seed=7, n_clients=20, n_classes=10, input_dim=16, proto_dim=64, comp_dim=8,
    alpha=0.5, per_class=500, participation=0.5, rounds=1,
)


class TestBuildClients:
    def test_blob_block_and_split_shards_are_released_before_each_split(self, monkeypatch):
        blobs, shards, seen = [], [], []
        real_blobs = protocol.make_blobs
        real_partition = protocol.dirichlet_partition
        real_split = protocol.split_train_test

        def make_blobs(*args, **kwargs):
            data = real_blobs(*args, **kwargs)
            blobs.append(weakref.ref(data.x))
            return data

        def dirichlet_partition(*args, **kwargs):
            parts = real_partition(*args, **kwargs)
            shards.extend(None if p is None else weakref.ref(p.x) for p in parts)
            return parts

        def split_train_test(shard, seed):
            alive = [ref() is not None for ref in blobs]
            cid = next(i for i, ref in enumerate(shards) if ref and ref() is shard.x)
            earlier = [i for i, ref in enumerate(shards[:cid]) if ref and ref() is not None]
            seen.append((cid, alive, earlier))
            return real_split(shard, seed)

        monkeypatch.setattr(protocol, "make_blobs", make_blobs)
        monkeypatch.setattr(protocol, "dirichlet_partition", dirichlet_partition)
        monkeypatch.setattr(protocol, "split_train_test", split_train_test)
        clients, dropped = protocol._build_clients(ExperimentConfig(**_FLEET_SHAPED))
        assert len(seen) == len(clients) >= 2
        assert [cid for cid, _, _ in seen] == [st.client_id for st in clients]
        for cid, alive, earlier in seen:
            assert alive == [False], f"the blob block is alive at client {cid}'s split"
            assert earlier == [], f"shards {earlier} are alive at client {cid}'s split"

    def test_setup_peak_is_close_to_what_it_keeps(self):
        config = ExperimentConfig(**_FLEET_SHAPED)
        tracemalloc.start()
        try:
            clients, _ = protocol._build_clients(config)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert clients
        # at most two arrays hold a sample at once: a shard and its split
        assert peak <= 1.5 * kept, f"peak {peak} B against {kept} B kept"
