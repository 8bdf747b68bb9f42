"""Round orchestration, traffic accounting, config parsing, experiment runs."""

import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tinyproto.protocol as protocol
from tinyproto.client import ClientState, evaluate_accuracy
from tinyproto.config import ConfigError, ExperimentConfig, load_config, parse_config_text
from tinyproto.datagen import Dataset
from tinyproto.masking import generate_masks
from tinyproto.numerics import init_params
from tinyproto.protocol import (
    FrameLog,
    RoundError,
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


_CFG = ExperimentConfig(lam=1.0, mu=1.0, lr=0.01, batch_size=4, local_epochs=1)


class TestRunRound:
    def test_two_clients_two_classes_uplink(self):
        # two clients, two classes each, s=3: uplink must be 2 * 2 * 3
        clients = [_make_client(0, [0, 1]), _make_client(1, [2, 3])]
        mask_set = generate_masks(4, 12, 3, seed=0)
        server = initial_server(mask_set, cps=True)
        report = run_round(server, clients, 1.0, _CFG, seed=1)
        assert report.uplink_params == 12
        assert report.downlink_params == 2 * 4 * 3  # all K classes down, both clients

    def test_masks_delivered_once(self):
        clients = [_make_client(0, [0, 1]), _make_client(1, [1, 2])]
        mask_set = generate_masks(4, 12, 3, seed=0)
        server = initial_server(mask_set, cps=True)
        log = FrameLog()
        r1 = run_round(server, clients, 1.0, _CFG, seed=1, frame_log=log)
        assert r1.mask_params == 2 * 4 * 12  # K*d per first-time client
        r2 = run_round(server, clients, 1.0, _CFG, seed=1, frame_log=log)
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
        server = initial_server(generate_masks(4, 12, 3, seed=0), cps=True)
        log = FrameLog()
        reports = [run_round(server, clients, 1.0, _CFG, seed=1, frame_log=log) for _ in range(3)]
        masks_encoded = [r for r, kind in encoded if kind == FrameType.MASKS]
        assert masks_encoded == [1]  # rounds 2 and 3 have no newcomer
        assert [r.mask_params for r in reports] == [4 * 4 * 12, 0, 0]
        masks_logged = [
            (r, cid) for r, _, cid, data in log.entries if data[0] == FrameType.MASKS
        ]
        assert masks_logged == [(1, 0), (1, 1), (1, 2), (1, 3)]

    def test_full_participation_runs_everyone(self):
        clients = [_make_client(i, [i % 4]) for i in range(20)]
        mask_set = generate_masks(4, 12, 3, seed=0)
        server = initial_server(mask_set, cps=True)
        report = run_round(server, clients, 1.0, _CFG, seed=2)
        assert server.selected_ever == set(range(20))
        assert report.uplink_params == 20 * 1 * 3  # one class per client
        assert all(st.last_train_loss is not None for st in clients)

    def test_selected_set_grows_monotonically(self):
        clients = [_make_client(i, [i % 4]) for i in range(8)]
        mask_set = generate_masks(4, 12, 3, seed=0)
        server = initial_server(mask_set, cps=True)
        seen = set()
        for _ in range(4):
            before = set(server.selected_ever)
            run_round(server, clients, 0.5, _CFG, seed=3)
            assert before <= server.selected_ever
            seen |= server.selected_ever
        assert server.selected_ever <= set(range(8))

    def test_unknown_aggregator_rejected_before_training(self):
        # the server is refused, so no round can start, let alone train
        with pytest.raises(ValueError, match="aggregator must be one of weighted, simple, scaled"):
            initial_server(generate_masks(4, 12, 3, seed=0), cps=True, aggregator="bogus")

    def test_sampling_count_is_ceiling(self):
        clients = [_make_client(i, [i % 4]) for i in range(5)]
        mask_set = generate_masks(4, 12, 3, seed=0)
        server = initial_server(mask_set, cps=True)
        run_round(server, clients, 0.5, _CFG, seed=4)
        assert len(server.selected_ever) == 3  # ceil(0.5 * 5)

    def test_no_clients_is_round_error(self):
        mask_set = generate_masks(4, 12, 3, seed=0)
        server = initial_server(mask_set, cps=True)
        with pytest.raises(RoundError):
            run_round(server, [], 1.0, _CFG, seed=1)

    @pytest.mark.parametrize("cps", [True, False], ids=["cps", "dense"])
    @pytest.mark.parametrize("aggregator", ["scaled", "simple", "weighted"])
    def test_accounting_matches_frame_recount(self, aggregator, cps):
        # round 1 delivers masks (cps) to both clients, round 2 to nobody
        clients = [_make_client(0, [0, 1]), _make_client(1, [1, 2, 3])]
        mask_set = generate_masks(4, 12, 3, seed=0)
        server = initial_server(mask_set, cps=cps, aggregator=aggregator)
        for round_no in (1, 2):
            log = FrameLog()
            report = run_round(server, clients, 1.0, _CFG, seed=5, frame_log=log)
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

    def test_scaled_uploads_have_no_count_field(self):
        clients = [_make_client(0, [0, 1])]
        mask_set = generate_masks(4, 12, 3, seed=0)
        server = initial_server(mask_set, cps=True)
        log = FrameLog()
        run_round(server, clients, 1.0, _CFG, seed=6, frame_log=log)
        for _, _, _, data in log.entries:
            frame = decode_frame(data)
            if frame.frame_type == FrameType.UPLOAD:
                assert frame.values.shape[1] == 3

    def test_weighted_uploads_carry_leading_count(self):
        clients = [_make_client(0, [0, 1])]
        mask_set = generate_masks(4, 12, 3, seed=0)
        server = initial_server(mask_set, cps=True, aggregator="weighted")
        log = FrameLog()
        run_round(server, clients, 1.0, _CFG, seed=6, frame_log=log)
        uploads = [
            decode_frame(d)
            for _, _, _, d in log.entries
            if decode_frame(d).frame_type == FrameType.UPLOAD
        ]
        assert uploads, "expected an upload frame"
        for row in uploads[0].values:
            assert len(row) == 4  # count + s values
            assert row[0] == 4.0  # four samples per class in the fixture

    def test_weighted_uplink_carries_one_count_per_class(self):
        # under weighted every uploaded class also carries its count, so the
        # uplink is sum_i K_i * (s + 1), not the sum_i K_i * s of scaled
        k_i = [2, 2, 2, 3]
        uplinks = {}
        for aggregator in ("scaled", "weighted"):
            clients = [_make_client(i, [i, i + 1]) for i in range(3)]
            clients.append(_make_client(3, [0, 1, 2]))
            server = initial_server(
                generate_masks(4, 12, 3, seed=0), cps=True, aggregator=aggregator
            )
            uplinks[aggregator] = run_round(server, clients, 1.0, _CFG, seed=1).uplink_params
        assert [st.n_local_classes for st in clients] == k_i
        assert uplinks["scaled"] == sum(k * 3 for k in k_i) == 27
        assert uplinks["weighted"] == sum(k * (3 + 1) for k in k_i) == 36

    def test_each_delivered_frame_decoded_once(self, monkeypatch):
        decodes = []

        def counting_decode(data):
            decodes.append(data)
            return decode_frame(data)

        monkeypatch.setattr(protocol, "decode_frame", counting_decode)
        clients = [_make_client(i, [i % 4, (i + 1) % 4]) for i in range(4)]
        mask_set = generate_masks(4, 12, 3, seed=0)
        server = initial_server(mask_set, cps=True)
        log = FrameLog()
        for _ in range(2):
            run_round(server, clients, 0.5, _CFG, seed=8, frame_log=log)
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
        mask_set = generate_masks(4, 12, 3, seed=0)
        server = initial_server(mask_set, cps=True)
        for round_no in (1, 2):
            evaluated.clear()
            log = FrameLog()
            report = run_round(server, clients, 0.5, _CFG, seed=8, frame_log=log)
            trained = {cid for _, direction, cid, _ in log.entries if direction == "up"}
            assert len(trained) == 2
            expected = set(range(4)) if round_no == 1 else trained
            assert sorted(evaluated) == sorted(expected)
            fresh = [evaluate_accuracy(st) for st in clients]
            assert report.per_client_accuracy == fresh

    def test_first_round_trains_as_with_lambda_zero(self):
        # the first round's globals are all zero, so the penalty adds nothing
        runs = []
        for cfg in (_CFG, dataclasses.replace(_CFG, lam=0.0)):
            clients = [_make_client(0, [0, 1]), _make_client(1, [1, 2, 3])]
            server = initial_server(generate_masks(4, 12, 3, seed=0), cps=True)
            runs.append((run_round(server, clients, 1.0, cfg, seed=1), server, clients))
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
        server = initial_server(generate_masks(4, 12, 3, seed=0), cps=True)
        server.selected_ever = {0, 1}
        with pytest.raises(RoundError, match=r"client 0, round 1: no masks were delivered"):
            run_round(server, clients, 1.0, _CFG, seed=1)

    @pytest.mark.parametrize("workers", [0, 2, 4])
    def test_workers_other_than_one_refused(self, workers):
        # client updates run serially: the key stays, and accepts only 1
        assert parse_config_text("workers = 1").workers == 1
        with pytest.raises(ConfigError, match="workers: must be 1"):
            parse_config_text(f"workers = {workers}")
        with pytest.raises(ConfigError, match="workers: must be 1"):
            ExperimentConfig(**{**_SMALL, "workers": workers})

    @pytest.mark.parametrize("aggregator", ["scaled", "simple", "weighted"])
    def test_globals_sum_rows_in_ascending_client_order(self, aggregator):
        clients = [_make_client(i, [i % 4, (i + 1) % 4, (i + 2) % 4]) for i in range(12)]
        mask_set = generate_masks(4, 12, 3, seed=0)
        server = initial_server(mask_set, cps=True, aggregator=aggregator)
        expected = np.zeros((4, 3))
        for _ in range(2):
            log = FrameLog()
            run_round(server, clients, 0.5, _CFG, seed=9, frame_log=log)
            uploads = [(cid, decode_frame(data)) for _, way, cid, data in log.entries if way == "up"]
            by_class: dict[int, list[np.ndarray]] = {}
            for _, frame in sorted(uploads, key=lambda entry: entry[0]):
                for cls, row in zip(frame.class_ids.tolist(), frame.values):
                    by_class.setdefault(cls, []).append(row)
            assert max(len(rows) for rows in by_class.values()) > 1
            for cls, rows in by_class.items():
                acc = np.zeros(3)
                if aggregator == "weighted":
                    total = sum(row[0] for row in rows)
                    for row in rows:
                        acc += (row[0] / total) * row[1:]
                else:
                    for row in rows:
                        acc += row
                acc /= len(rows)
                expected[cls] = acc
            assert (server.global_comp == expected).all()


def _two_client_round(aggregator="scaled"):
    """Client 1 alone holds class 3, so a fault keyed on it hits client 1."""
    clients = [_make_client(0, [0, 1]), _make_client(1, [1, 2, 3])]
    server = initial_server(generate_masks(4, 12, 3, seed=0), cps=True, aggregator=aggregator)
    return run_round(server, clients, 1.0, _CFG, seed=1)


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


def _faults(ids=None, nan_row=None, count_row=None):
    """A block fault for ``_fault_upload_block``: new class ids, a NaN in the
    last value of one row, a count of 0.5 in one row (the leading value,
    which ``weighted`` uploads carry)."""

    def fault(old_ids, block):
        if nan_row is not None:
            block[nan_row, -1] = np.nan
        if count_row is not None:
            block[count_row, 0] = 0.5
        return (old_ids if ids is None else np.array(ids)), block

    return fault


def _reference_row_scan(frame, n_classes, counted):
    """The per-row checks of an upload as one scan: the message of the first
    failed check in the order order, range, non-finite, count, naming the
    first faulty class, or None when the block is sound."""
    ids, values = frame.class_ids, frame.values
    problems = [
        (np.diff(ids, prepend=-1) <= 0, "repeated or out of order"),
        (ids >= n_classes, f"outside [0, K) for K={n_classes}"),
        (~np.isfinite(values).all(axis=1), "has non-finite values"),
    ]
    if counted:
        counts = values[:, 0]
        problems.append(
            ((counts < 1) | (counts != np.floor(counts)), "count is not a whole number >= 1")
        )
    for bad, what in problems:
        if bad.any():
            return f"client 0, class {int(ids[bad][0])}, round 1: upload {what}"
    return None


_ODD_VALUES = st.sampled_from([0.5, 1.0, 2.0, 0.0, -1.0, np.nan, np.inf, -np.inf])


@given(
    ids=st.lists(st.integers(-1, 5), min_size=1, max_size=5),
    counted=st.booleans(),
    cells=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 2), _ODD_VALUES), max_size=3),
)
@settings(max_examples=300, deadline=None)
def test_upload_check_refuses_what_the_row_scan_refuses(ids, counted, cells):
    """The vectorized pass accepts exactly the sound blocks, and a refused
    block gets the row scan's message."""
    n_classes = 4
    values = np.full((len(ids), 3), 2.0)  # sound everywhere, counts included
    for row, col, value in cells:
        values[row % len(ids), col] = value
    frame = Frame(FrameType.UPLOAD, 1, np.array(ids), values)
    want = _reference_row_scan(frame, n_classes, counted)
    if want is None:
        protocol._check_frame(frame, FrameType.UPLOAD, 1, 0, n_classes, 3, counted=counted)
    else:
        with pytest.raises(RoundError, match=f"^{re.escape(want)}$"):
            protocol._check_frame(frame, FrameType.UPLOAD, 1, 0, n_classes, 3, counted=counted)


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

    @pytest.mark.parametrize("count", [2.5, -4.0, 0.0, 0.5])
    def test_weighted_count_not_whole_and_non_negative_rejected(self, monkeypatch, count):
        def fault(frame):
            values = frame.values.copy()
            values[1, 0] = count  # class 2
            return dataclasses.replace(frame, values=values)

        _fault_frames(monkeypatch, FrameType.UPLOAD, fault, only_class=3)
        with pytest.raises(RoundError, match=r"client 1, class 2, round 1: .*whole number >= 1"):
            _two_client_round(aggregator="weighted")

    def test_weighted_count_of_one_accepted(self, monkeypatch):
        def fault(ids, block):
            block[:, 0] = 1.0
            return ids, block

        _fault_upload_block(monkeypatch, fault)
        # 2 + 3 rows of 3 values plus the count: the round ran to its end
        assert _two_client_round(aggregator="weighted").uplink_params == 5 * 4

    @pytest.mark.parametrize(
        "aggregator, fault, want",
        [
            ("scaled", _faults(ids=[1, 2, 2], nan_row=0), "class 2: upload repeated or out of order"),
            ("scaled", _faults(ids=[1, 5, 3]), "class 3: upload repeated or out of order"),
            ("scaled", _faults(ids=[1, 2, 4], nan_row=0), "class 4: upload outside [0, K) for K=4"),
            ("weighted", _faults(ids=[1, 2, 4], count_row=0), "class 4: upload outside [0, K) for K=4"),
            ("weighted", _faults(nan_row=2, count_row=0), "class 3: upload has non-finite values"),
        ],
        ids=[
            "repeated-nan",
            "descending-out-of-range",
            "out-of-range-nan",
            "out-of-range-count",
            "nan-count",
        ],
    )
    def test_two_faults_name_the_first_failed_check(self, monkeypatch, aggregator, fault, want):
        # checks run in the order: order, range, non-finite, count, whatever
        # rows the faults sit in
        _fault_upload_block(monkeypatch, fault)
        cls, what = want.split(": ")
        with pytest.raises(RoundError, match=f"^client 1, {cls}, round 1: {re.escape(what)}$"):
            _two_client_round(aggregator=aggregator)

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
        server = initial_server(generate_masks(4, 12, 3, seed=0), cps=cps)
        run_round(server, clients, 1.0, _CFG, seed=1)
        assert server.global_comp.any(axis=1).all()
        server.global_comp[1, 0] = bad
        with pytest.raises(
            RoundError, match=r"client 0, class 1, round 2: globals has non-finite values"
        ):
            run_round(server, clients, 1.0, _CFG, seed=1)

    @pytest.mark.parametrize("live", [False, True], ids=["zero", "live"])
    @pytest.mark.parametrize(
        "server_cps, width, want",
        [(False, 3, "3 values, expected 12"), (True, 12, "12 values, expected 3")],
        ids=["dense-server-cps-round", "cps-server-dense-round"],
    )
    def test_globals_of_wrong_width_rejected(self, monkeypatch, server_cps, width, want, live):
        # a block as wide as the other mode's, all zero or live: every row of
        # a block has one width, so the whole block is refused
        def fault(frame):
            values = np.full((4, width), 1.0 if live else 0.0)
            return dataclasses.replace(frame, values=values)

        _fault_frames(monkeypatch, FrameType.GLOBALS, fault)
        clients = [_make_client(0, [0, 1]), _make_client(1, [1, 2, 3])]
        server = initial_server(generate_masks(4, 12, 3, seed=0), cps=server_cps)
        with pytest.raises(RoundError, match=rf"client 0, round 1: globals rows have {want}"):
            run_round(server, clients, 1.0, _CFG, seed=1)

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


class TestConfig:
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

    def test_invalid_config_rejected_before_running(self):
        # valid when made, then changed: run_experiment checks it again
        cfg = ExperimentConfig(**_SMALL)
        cfg.comp_dim = 99
        with pytest.raises(ConfigError):
            run_experiment(cfg)

    def test_simple_aggregator_and_dense_mode(self):
        cfg = ExperimentConfig(**{**_SMALL, "aggregator": "simple", "cps": False})
        result = run_experiment(cfg)
        assert result.reports[0].mask_params == 0
        globals_ = result.server.global_comp
        assert all(len(g) == cfg.proto_dim for g in globals_)

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

    def test_weighted_aggregator_runs(self):
        cfg = ExperimentConfig(**{**_SMALL, "aggregator": "weighted"})
        result = run_experiment(cfg)
        assert result.reports[-1].uplink_params > 0
