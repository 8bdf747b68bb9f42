"""Round orchestration, traffic accounting, config parsing, experiment runs."""

import json

import numpy as np
import pytest

import tinyproto.protocol as protocol
from tinyproto.client import ClientState, TrainConfig, evaluate_accuracy
from tinyproto.config import ConfigError, ExperimentConfig, parse_config_text
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
from tinyproto.wire import FrameType, decode_frame, frame_param_count


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
        class_counts=shard.class_counts(),
        test_shard=test,
    )


_CFG = TrainConfig(lam=1.0, mu=1.0, lr=0.01, batch_size=4, local_epochs=1)


class TestRunRound:
    def test_two_clients_two_classes_uplink(self):
        # two clients, two classes each, s=3: uplink must be 2 * 2 * 3
        clients = [_make_client(0, [0, 1]), _make_client(1, [2, 3])]
        mask_set = generate_masks(4, 12, 3, seed=0)
        server = initial_server(mask_set, 4, cps=True)
        report = run_round(server, clients, 1.0, _CFG, seed=1)
        assert report.uplink_params == 12
        assert report.downlink_params == 2 * 4 * 3  # all K classes down, both clients

    def test_masks_delivered_once(self):
        clients = [_make_client(0, [0, 1]), _make_client(1, [1, 2])]
        mask_set = generate_masks(4, 12, 3, seed=0)
        server = initial_server(mask_set, 4, cps=True)
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

    def test_full_participation_runs_everyone(self):
        clients = [_make_client(i, [i % 4]) for i in range(20)]
        mask_set = generate_masks(4, 12, 3, seed=0)
        server = initial_server(mask_set, 4, cps=True)
        report = run_round(server, clients, 1.0, _CFG, seed=2)
        assert server.selected_ever == set(range(20))
        assert report.uplink_params == 20 * 1 * 3  # one class per client
        assert all(st.last_train_loss is not None for st in clients)

    def test_selected_set_grows_monotonically(self):
        clients = [_make_client(i, [i % 4]) for i in range(8)]
        mask_set = generate_masks(4, 12, 3, seed=0)
        server = initial_server(mask_set, 4, cps=True)
        seen = set()
        for _ in range(4):
            before = set(server.selected_ever)
            run_round(server, clients, 0.5, _CFG, seed=3)
            assert before <= server.selected_ever
            seen |= server.selected_ever
        assert server.selected_ever <= set(range(8))

    def test_sampling_count_is_ceiling(self):
        clients = [_make_client(i, [i % 4]) for i in range(5)]
        mask_set = generate_masks(4, 12, 3, seed=0)
        server = initial_server(mask_set, 4, cps=True)
        run_round(server, clients, 0.5, _CFG, seed=4)
        assert len(server.selected_ever) == 3  # ceil(0.5 * 5)

    def test_no_clients_is_round_error(self):
        mask_set = generate_masks(4, 12, 3, seed=0)
        server = initial_server(mask_set, 4, cps=True)
        with pytest.raises(RoundError):
            run_round(server, [], 1.0, _CFG, seed=1)

    def test_accounting_matches_frame_recount(self):
        clients = [_make_client(0, [0, 1]), _make_client(1, [1, 2, 3])]
        mask_set = generate_masks(4, 12, 3, seed=0)
        server = initial_server(mask_set, 4, cps=True)
        log = FrameLog()
        report = run_round(server, clients, 1.0, _CFG, seed=5, frame_log=log)
        up = down = masks = 0
        for round_no, direction, cid, data in log.entries:
            frame = decode_frame(data)
            count = frame_param_count(frame)
            if frame.frame_type == FrameType.UPLOAD:
                up += count
            elif frame.frame_type == FrameType.GLOBALS:
                down += count
            else:
                masks += count
        assert (up, down, masks) == (
            report.uplink_params,
            report.downlink_params,
            report.mask_params,
        )

    def test_scaled_uploads_have_no_count_field(self):
        clients = [_make_client(0, [0, 1])]
        mask_set = generate_masks(4, 12, 3, seed=0)
        server = initial_server(mask_set, 4, cps=True)
        log = FrameLog()
        run_round(server, clients, 1.0, _CFG, seed=6, frame_log=log)
        for _, _, _, data in log.entries:
            frame = decode_frame(data)
            if frame.frame_type == FrameType.UPLOAD:
                assert all(len(rec.values) == 3 for rec in frame.records)

    def test_weighted_uploads_carry_leading_count(self):
        clients = [_make_client(0, [0, 1])]
        mask_set = generate_masks(4, 12, 3, seed=0)
        server = initial_server(mask_set, 4, cps=True)
        log = FrameLog()
        run_round(server, clients, 1.0, _CFG, seed=6, aggregator="weighted", frame_log=log)
        uploads = [
            decode_frame(d)
            for _, _, _, d in log.entries
            if decode_frame(d).frame_type == FrameType.UPLOAD
        ]
        assert uploads, "expected an upload frame"
        for rec in uploads[0].records:
            assert len(rec.values) == 4  # count + s values
            assert rec.values[0] == 4.0  # four samples per class in the fixture

    def test_each_delivered_frame_decoded_once(self, monkeypatch):
        decodes = []

        def counting_decode(data):
            decodes.append(data)
            return decode_frame(data)

        monkeypatch.setattr(protocol, "decode_frame", counting_decode)
        clients = [_make_client(i, [i % 4, (i + 1) % 4]) for i in range(4)]
        mask_set = generate_masks(4, 12, 3, seed=0)
        server = initial_server(mask_set, 4, cps=True)
        log = FrameLog()
        for _ in range(2):
            run_round(server, clients, 0.5, _CFG, seed=8, cps=True, frame_log=log)
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
        server = initial_server(mask_set, 4, cps=True)
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

    def test_report_independent_of_worker_count(self):
        def run(workers):
            clients = [_make_client(i, [i % 4, (i + 1) % 4]) for i in range(6)]
            mask_set = generate_masks(4, 12, 3, seed=0)
            server = initial_server(mask_set, 4, cps=True)
            reports = [
                run_round(server, clients, 1.0, _CFG, seed=7, workers=workers)
                for _ in range(2)
            ]
            return reports

        solo, pooled = run(1), run(4)
        for a, b in zip(solo, pooled):
            assert a.mean_test_accuracy == b.mean_test_accuracy
            assert a.per_client_accuracy == b.per_client_accuracy
            assert a.uplink_params == b.uplink_params


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
        rho = l2_eps
        """
        cfg = parse_config_text(text)
        assert cfg.n_clients == 5 and cfg.n_classes == 4
        assert cfg.lam == 0.5 and cfg.aggregator == "simple"
        assert cfg.cps is False and cfg.rho == "l2_eps"

    def test_unknown_key_listed(self):
        with pytest.raises(ConfigError, match="bogus: unknown key"):
            parse_config_text("bogus = 1")

    def test_all_problems_reported_with_field_paths(self):
        cfg = ExperimentConfig(comp_dim=50, proto_dim=16, alpha=-1, participation=2.0)
        with pytest.raises(ConfigError) as err:
            cfg.validate()
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
        cfg = ExperimentConfig(**{**_SMALL, "comp_dim": 99})
        with pytest.raises(ConfigError):
            run_experiment(cfg)

    def test_simple_aggregator_and_dense_mode(self):
        cfg = ExperimentConfig(**{**_SMALL, "aggregator": "simple", "cps": False})
        result = run_experiment(cfg)
        assert result.reports[0].mask_params == 0
        globals_ = result.server.global_comp
        assert all(g.dim == cfg.proto_dim for g in globals_.values())

    def test_weighted_aggregator_runs(self):
        cfg = ExperimentConfig(**{**_SMALL, "aggregator": "weighted"})
        result = run_experiment(cfg)
        assert result.reports[-1].uplink_params > 0
