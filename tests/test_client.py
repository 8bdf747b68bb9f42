"""Local training, prototype generation, and nearest-prototype inference."""

import dataclasses

import numpy as np
import pytest

import tinyproto.client as client_mod
from tinyproto.aggregation import aggregate_mean
from tinyproto.client import (
    ClientState,
    InferenceError,
    compute_local_prototypes,
    evaluate_accuracy,
    local_update,
)
from tinyproto.config import ExperimentConfig
from tinyproto.datagen import Dataset
from tinyproto.masking import MaskSet, generate_masks
from tinyproto.numerics import (
    ModelParams,
    class_penalties,
    forward_features,
    init_params,
    loss_and_grad,
    sgd_step,
)
from tinyproto.protocol import FrameLog, initial_server, run_round


def _state(seed=21, with_masks=True, dense=False):
    """A client of K=3, d=8 holding classes 0 and 1: under s=2 masks, or
    under the all-ones set of a dense exchange, or under none."""
    n_classes, din, hid, feat, ones = 3, 2, 3, 8, 2
    params = init_params(din, hid, feat, n_classes, seed=seed)
    x = np.array(
        [[0.5, -1.0], [1.5, 0.5], [-0.5, 2.0], [2.0, 1.0], [0.0, -2.0], [1.0, 1.0]]
    )
    y = np.array([0, 1, 1, 0, 0, 1])
    shard = Dataset(x, y, n_classes)
    if dense:
        masks = MaskSet(np.ones((n_classes, feat)))
    else:
        masks = generate_masks(n_classes, feat, ones, seed=9)
    return ClientState(
        client_id=0,
        params=params,
        shard=shard,
        mask_set=masks if with_masks else None,
    )


def _globals(feat_ones=2, seed=77, n_classes=3):
    """A received ``(K, w)`` globals block: row c is class c's payload."""
    rng = np.random.default_rng(seed)
    return np.array([rng.normal(size=feat_ones) for _ in range(n_classes)])


def _capture_targets(monkeypatch):
    """The targets pair of each ``class_penalties`` call, as a growing list."""
    real = client_mod.class_penalties
    seen = []

    def capturing(local, targets, *args, **kwargs):
        seen.append(targets)
        return real(local, targets, *args, **kwargs)

    monkeypatch.setattr(client_mod, "class_penalties", capturing)
    return seen


def _by_class(pair):
    """An ``(ids, block)`` upload or prototype snapshot as {class id: row}."""
    ids, block = pair
    return dict(zip(ids.tolist(), block))


def _count_scaled(state, pair):
    """A ``local_update`` result scaled as a ``scaled`` round uploads it."""
    ids, block = pair
    return ids, block * state.class_counts[ids, None]


_CFG = ExperimentConfig(lam=1.0, mu=0.5, lr=0.05, batch_size=4, local_epochs=2)


def _scripted_run(state, cfg, global_values):
    """Straight-line re-run of ``_state()``'s training trace under the shuffle
    seed (123, 0): the final (n, d) shard features and the last epoch's mean
    loss.

    The penalty is recomputed for every batch from the per-class feature
    means the update starts with and the dense targets (``global_values``
    row c scattered to class c's mask bits), in ascending batch-class order.
    """
    p = init_params(2, 3, 8, 3, seed=21)
    w1, b1, w2, b2, wc, bc = (a.copy() for a in p.arrays())
    x = np.array(
        [[0.5, -1.0], [1.5, 0.5], [-0.5, 2.0], [2.0, 1.0], [0.0, -2.0], [1.0, 1.0]]
    )
    y = np.array([0, 1, 1, 0, 0, 1])
    targets = {}
    for cls in (0, 1):
        targets[cls] = np.zeros(8)
        targets[cls][state.mask_set.bits[cls] == 1] = global_values[cls]
    rng = np.random.default_rng(np.random.SeedSequence([123, 0]))
    epoch_loss = None
    feats = np.maximum(np.maximum(x @ w1 + b1, 0) @ w2 + b2, 0)
    snapshot = {cls: feats[y == cls].mean(axis=0) for cls in (0, 1)}
    for _ in range(cfg.local_epochs):
        order = rng.permutation(len(x))
        batch_losses = []
        for start in range(0, len(x), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            xb, yb = x[idx], y[idx]
            nb = len(idx)
            z1 = xb @ w1 + b1
            a1 = np.maximum(z1, 0)
            z2 = a1 @ w2 + b2
            a2 = np.maximum(z2, 0)
            z3 = a2 @ wc + bc
            zmax = z3.max(axis=1, keepdims=True)
            ez = np.exp(z3 - zmax)
            log_norm = np.log(ez.sum(axis=1, keepdims=True)) + zmax
            loss = float(np.mean(-(z3 - log_norm)[np.arange(nb), yb]))
            penalty = 0.0
            for cls in sorted(set(yb.tolist())):
                diff = snapshot[cls] - cfg.mu * targets[cls]
                penalty += float(diff @ diff)
            batch_losses.append(loss + cfg.lam * penalty)
            g3 = ez / ez.sum(axis=1, keepdims=True)
            g3[np.arange(nb), yb] -= 1
            g3 /= nb
            g2 = (g3 @ wc.T) * (z2 > 0)
            g1 = (g2 @ w2.T) * (z1 > 0)
            wc -= cfg.lr * (a2.T @ g3)
            bc -= cfg.lr * g3.sum(0)
            w2 -= cfg.lr * (a1.T @ g2)
            b2 -= cfg.lr * g2.sum(0)
            w1 -= cfg.lr * (xb.T @ g1)
            b1 -= cfg.lr * g1.sum(0)
        epoch_loss = float(np.mean(batch_losses))
    feats = np.maximum(np.maximum(x @ w1 + b1, 0) @ w2 + b2, 0)
    return feats, epoch_loss


class TestComputeLocalPrototypes:
    def test_mean_of_two_feature_vectors(self):
        state = _state()
        eye = np.eye(2)
        zeros = np.zeros(2)
        state.params = ModelParams(eye, zeros, eye, zeros, np.eye(2), zeros)
        state.shard = Dataset(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([0, 0]), 2)
        protos = _by_class(compute_local_prototypes(state))
        np.testing.assert_array_equal(protos[0], [2.0, 3.0])

    def test_single_sample_is_its_own_feature(self):
        state = _state()
        state.shard = Dataset(state.shard.x[:1], state.shard.y[:1], 3)
        protos = _by_class(compute_local_prototypes(state))
        np.testing.assert_array_equal(
            protos[0], forward_features(state.params, state.shard.x[0])
        )

    def test_matches_brute_force_per_class_means(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            state = _state(seed=int(rng.integers(0, 1000)))
            protos = _by_class(compute_local_prototypes(state))
            for cls, proto in protos.items():
                rows = [
                    forward_features(state.params, x)
                    for x, y in zip(state.shard.x, state.shard.y)
                    if y == cls
                ]
                np.testing.assert_allclose(
                    proto, np.mean(rows, axis=0), atol=1e-12
                )

    def test_absent_classes_omitted(self):
        state = _state()
        ids, block = compute_local_prototypes(state)
        assert ids.tolist() == [0, 1]  # class 2 not in the shard
        assert block.shape == (2, 8)

    def test_bit_equal_to_masked_mean(self, monkeypatch):
        _features_are_inputs(monkeypatch)
        rng = np.random.default_rng(39)
        for case in range(300):
            k = int(rng.integers(1, 9))
            d = (1, 2, int(rng.integers(3, 70)))[case % 3]
            counts = rng.integers(0, 6, size=k)
            counts[int(rng.integers(k))] = 1  # a single-sample class
            if case % 5 == 0:
                counts[int(rng.integers(k))] = 300  # a long in-order sum
            labels = rng.permutation(np.repeat(np.arange(k), counts))  # shuffled
            x = rng.normal(size=(len(labels), d)) * (1e-3, 1.0, 1e3)[int(rng.integers(3))]
            # params are never read: the features are the inputs
            state = ClientState(client_id=0, params=None, shard=Dataset(x, labels, k))
            ids, block = compute_local_prototypes(state)
            assert ids.tolist() == np.flatnonzero(counts).tolist()
            reference = np.array([x[labels == c].mean(axis=0) for c in ids.tolist()])
            assert block.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 64])
    def test_is_the_servers_fold_of_the_features(self, d):
        # one rule for both sides: a one-sample class and a 40-sample class,
        # whose width-1 sum numpy takes pairwise
        rng = np.random.default_rng(d)
        labels = rng.permutation(np.repeat(np.arange(4), [1, 40, 0, 3]))
        x = rng.normal(size=(len(labels), 3))
        params = init_params(3, 8, d, 4, seed=d)
        state = ClientState(client_id=0, params=params, shard=Dataset(x, labels, 4))
        ids, block = compute_local_prototypes(state)
        classes, combined = aggregate_mean(state.shard.y, forward_features(params, state.shard.x))
        assert ids.tolist() == classes.tolist() == [0, 1, 3]
        assert block.tobytes() == combined.tobytes()

    def test_snapshot_is_read_only(self):
        ids, block = compute_local_prototypes(_state())
        with pytest.raises(ValueError):
            block[0, 0] = 5.0
        with pytest.raises(ValueError):
            ids[0] = 2


class TestLocalUpdate:
    def test_returns_exactly_local_classes(self):
        state = _state()
        ids, _ = local_update(
            state, _globals(), _CFG, rng=np.random.default_rng(0)
        )
        assert ids.tolist() == [0, 1]

    def test_payload_lengths_are_mask_popcount(self):
        state = _state()
        _, block = local_update(
            state, _globals(), _CFG, rng=np.random.default_rng(0)
        )
        assert block.shape == (2, 2)

    def test_count_scaling_identity_when_counts_are_one(self):
        # a round scales each upload row by its class count: with one sample
        # per class, a scaled round uploads the bits a simple round does
        uploads = []
        for aggregator in ("scaled", "simple"):
            state = _state(with_masks=False)  # the round delivers them
            state.shard = Dataset(state.shard.x[:2], np.array([0, 1]), 3)
            state.test_shard = state.shard
            cfg = dataclasses.replace(
                _CFG, seed=1, n_classes=3, proto_dim=8, comp_dim=2, aggregator=aggregator
            )
            log = FrameLog()
            run_round(initial_server(cfg), [state], 1.0, cfg, frame_log=log)
            uploads += [data for _, way, _, data in log.entries if way == "up"]
        assert len(uploads) == 2
        assert uploads[0] == uploads[1]

    def test_golden_trace(self):
        """Frozen from a step-by-step scripted re-execution of the SGD trace."""
        state = _state()
        payloads = _by_class(_count_scaled(state, local_update(
            state,
            _globals(),
            _CFG,
            rng=np.random.default_rng(np.random.SeedSequence([123, 0])),
        )))
        np.testing.assert_array_equal(
            payloads[0], [2.5408967120416546, 0.8474224997798309]
        )
        np.testing.assert_array_equal(
            payloads[1], [4.313737356370234, 7.1739106454232875]
        )

    def test_matches_scripted_reexecution(self):
        """Independent straight-line re-run of the same training trace."""
        state = _state()
        cfg = _CFG
        global_values = _globals()
        payloads = _by_class(_count_scaled(state, local_update(
            state,
            global_values,
            cfg,
            rng=np.random.default_rng(np.random.SeedSequence([123, 0])),
        )))

        feats, _ = _scripted_run(state, cfg, global_values)
        y = state.shard.y
        for cls in (0, 1):
            proto = feats[y == cls].mean(axis=0)
            comp = proto[state.mask_set.bits[cls] == 1]
            np.testing.assert_array_equal(
                payloads[cls], comp * int(np.sum(y == cls))
            )

    def test_train_loss_matches_scripted_reexecution(self):
        """Two epochs of a 4 + 2 batch split, penalty recomputed every batch."""
        state = _state()
        cfg = _CFG
        global_values = _globals()
        local_update(
            state,
            global_values,
            cfg,
            rng=np.random.default_rng(np.random.SeedSequence([123, 0])),
        )
        _, loss = _scripted_run(state, cfg, global_values)
        assert len(state.shard) % cfg.batch_size != 0  # the last batch is partial
        assert loss > 0
        assert state.last_train_loss == loss

    def test_first_round_trace_equals_lambda_zero(self):
        # the first round's globals are all zero: lam > 0 then adds exactly
        # 0.0 to every loss and nothing to any gradient
        state_a = _state()
        assert _CFG.lam > 0
        out_a = local_update(
            state_a,
            np.zeros((3, 2)),
            _CFG,
            rng=np.random.default_rng(np.random.SeedSequence([5])),
        )
        state_b = _state()
        cfg_zero = ExperimentConfig(lam=0.0, mu=0.5, lr=0.05, batch_size=4, local_epochs=2)
        out_b = local_update(
            state_b,
            _globals(),
            cfg_zero,
            rng=np.random.default_rng(np.random.SeedSequence([5])),
        )
        assert out_a[0].tolist() == out_b[0].tolist()
        assert out_a[1].tobytes() == out_b[1].tobytes()
        for pa, pb in zip(state_a.params.arrays(), state_b.params.arrays()):
            assert pa.tobytes() == pb.tobytes()
        assert state_a.last_train_loss == state_b.last_train_loss

    def test_zero_global_payloads_are_skipped_as_targets(self, monkeypatch):
        # no held class has a target, so every term is 0.0: the update
        # computes neither the penalties nor its starting means
        state = _state()
        assert _CFG.lam > 0 and state.local_protos is None
        seen = _capture_targets(monkeypatch)
        means = []
        real_means = compute_local_prototypes

        def counting_means(st):
            means.append(st.client_id)
            return real_means(st)

        monkeypatch.setattr(client_mod, "compute_local_prototypes", counting_means)
        local_update(state, np.zeros((3, 2)), _CFG, rng=np.random.default_rng(2))
        assert seen == []
        assert len(means) == 1  # the means after training, for the upload

    @pytest.mark.parametrize("preset", [True, False], ids=["preset", "unset"])
    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_means_and_penalties_computed_once_per_update(self, monkeypatch, lam, preset):
        state = _state()
        if preset:
            state.local_protos = compute_local_prototypes(state)
        calls = {"means": 0, "penalties": 0}
        real_means, real_penalties = compute_local_prototypes, class_penalties

        def counting_means(st):
            calls["means"] += 1
            return real_means(st)

        def counting_penalties(*args, **kwargs):
            calls["penalties"] += 1
            return real_penalties(*args, **kwargs)

        monkeypatch.setattr(client_mod, "compute_local_prototypes", counting_means)
        monkeypatch.setattr(client_mod, "class_penalties", counting_penalties)
        cfg = ExperimentConfig(lam=lam, mu=0.5, lr=0.05, batch_size=4, local_epochs=3)
        local_update(state, _globals(), cfg, rng=np.random.default_rng(0))
        # after training, plus the starting means only when the penalty reads them
        assert calls == {
            "means": 1 + (lam > 0 and not preset),
            "penalties": int(lam > 0),
        }

    def test_preset_snapshot_trains_like_a_fresh_one(self):
        fresh = _state()
        preset = _state()
        preset.local_protos = compute_local_prototypes(preset)
        outs = [
            _by_class(local_update(
                st, _globals(), _CFG, rng=np.random.default_rng(4)
            ))
            for st in (fresh, preset)
        ]
        assert sorted(outs[0]) == sorted(outs[1])
        for cls in outs[0]:
            np.testing.assert_array_equal(outs[0][cls], outs[1][cls])
        for pa, pb in zip(fresh.params.arrays(), preset.params.arrays()):
            np.testing.assert_array_equal(pa, pb)

    def test_trains_the_state_params_in_place(self):
        state, cfg = _state(), _CFG
        arrays = state.params.arrays()
        local_update(state, _globals(), cfg, rng=np.random.default_rng(6))
        # the client's own block is written: the same six arrays, trained
        assert all(got is before for got, before in zip(state.params.arrays(), arrays))

        # the same update, step by step, on a separate block of the same start
        ref = _state()
        params = ref.params
        targets = client_mod._dense_targets(ref, _globals())
        penalty = class_penalties(compute_local_prototypes(ref), targets, cfg.mu, n_classes=3)
        x, y = ref.shard.x, ref.shard.y
        rng = np.random.default_rng(6)
        for _ in range(cfg.local_epochs):
            order = rng.permutation(len(y))
            for start in range(0, len(y), cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                _, grads = loss_and_grad(params, x[idx], y[idx], penalty, cfg.lam)
                sgd_step(params, grads, cfg.lr)
        for got, want in zip(arrays, params.arrays()):
            assert got.tobytes() == want.tobytes()

    def test_failed_update_leaves_no_stale_means(self, monkeypatch):
        calls = []

        def failing_second(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise FloatingPointError("overflow encountered in matmul")
            return loss_and_grad(*args, **kwargs)

        monkeypatch.setattr(client_mod, "loss_and_grad", failing_second)
        state = _state()
        state.local_protos = compute_local_prototypes(state)
        with pytest.raises(FloatingPointError):
            local_update(state, _globals(), _CFG, rng=np.random.default_rng(6))
        # one step changed the params, so the starting means no longer describe them
        assert state.local_protos is None

    def test_every_batch_fills_one_gradient_block(self, monkeypatch):
        seen = []

        def spying(*args, **kwargs):
            seen.append(kwargs["out"])
            return loss_and_grad(*args, **kwargs)

        monkeypatch.setattr(client_mod, "loss_and_grad", spying)
        state, cfg = _state(), _CFG
        assert cfg.local_epochs == 2
        assert len(state.shard) % cfg.batch_size != 0  # the last batch is partial
        local_update(state, _globals(), cfg, rng=np.random.default_rng(8))
        assert len(seen) == 4  # 2 epochs of a 4 + 2 batch split
        assert isinstance(seen[0], ModelParams)
        assert all(out is seen[0] for out in seen)

        # the same update with a gradient block allocated on every batch
        ref = _state()
        params = ModelParams(*(a.copy() for a in ref.params.arrays()))
        targets = client_mod._dense_targets(ref, _globals())
        penalty = class_penalties(compute_local_prototypes(ref), targets, cfg.mu, n_classes=3)
        x, y = ref.shard.x, ref.shard.y
        rng = np.random.default_rng(8)
        for _ in range(cfg.local_epochs):
            order = rng.permutation(len(y))
            for start in range(0, len(y), cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                _, grads = loss_and_grad(params, x[idx], y[idx], penalty, cfg.lam)
                sgd_step(params, grads, cfg.lr)
        for got, want in zip(state.params.arrays(), params.arrays()):
            assert got.tobytes() == want.tobytes()

    def test_missing_masks_rejected(self):
        # a compressed (K, s) block cannot be read without masks: a client
        # that holds none is refused by name before anything changes
        state = _state(with_masks=False)
        state.local_protos = compute_local_prototypes(state)
        before = [a.copy() for a in state.params.arrays()]
        with pytest.raises(ValueError, match=r"^client 0 holds no mask set$"):
            local_update(
                state, _globals(), _CFG, rng=np.random.default_rng(0)
            )
        assert all(a.tobytes() == b.tobytes() for a, b in zip(state.params.arrays(), before))
        assert state.local_protos is not None
        # and a dense client, whose all-ones set reads (K, d) rows, refuses it
        state = _state(dense=True)
        want = r"client 0: globals block has shape \(3, 2\), expected \(K, s\) = \(3, 8\)"
        with pytest.raises(ValueError, match=want):
            local_update(
                state, _globals(), _CFG, rng=np.random.default_rng(0)
            )

    def test_dense_globals_for_a_client_with_masks_rejected(self):
        # a client with masks reads (K, s) rows: a dense block is refused, not misread
        state = _state()
        want = r"client 0: globals block has shape \(3, 8\), expected \(K, s\) = \(3, 2\)"
        with pytest.raises(ValueError, match=want):
            local_update(
                state, _globals(feat_ones=8), _CFG, rng=np.random.default_rng(0)
            )

    @pytest.mark.parametrize("n_rows", [3, 4])
    def test_shard_classes_other_than_the_models_rejected(self, n_rows):
        # one K per update: the model's four classes against a shard of three
        # is refused whichever K the block has, before anything changes
        state = _state()
        state.params = init_params(2, 3, 8, 4, seed=21)
        state.local_protos = compute_local_prototypes(state)
        state.test_accuracy = 0.5
        before = [a.copy() for a in state.params.arrays()]
        want = r"client 0: shard has n_classes=3, model has K=4"
        with pytest.raises(ValueError, match=want):
            local_update(
                state, _globals(n_classes=n_rows), _CFG, rng=np.random.default_rng(0)
            )
        assert all(a.tobytes() == b.tobytes() for a, b in zip(state.params.arrays(), before))
        assert state.local_protos is not None and state.test_accuracy == 0.5

    def test_out_of_range_global_class_rejected(self):
        # row c is class c's, so an eighth row would be class 7 with K=3
        state = _state()
        values = np.vstack((_globals(), np.ones((5, 2))))
        with pytest.raises(ValueError, match=r"shape \(8, 2\), expected \(K, s\) = \(3, 2\)"):
            local_update(state, values, _CFG, rng=np.random.default_rng(0))

    def test_empty_shard_rejected(self):
        state = _state()
        state.shard.x = np.zeros((0, 2))
        state.shard.y = np.zeros(0, dtype=np.int64)
        with pytest.raises(ValueError, match="empty"):
            local_update(
                state, _globals(), _CFG, rng=np.random.default_rng(0)
            )

    def test_dense_mode_returns_full_length(self):
        state = _state(dense=True)
        rng = np.random.default_rng(41)
        dense_globals = np.array([rng.normal(size=8) for _ in range(3)])
        _, block = local_update(
            state,
            dense_globals,
            _CFG,
            rng=np.random.default_rng(3),
        )
        assert block.shape[1] == 8


def _predict(state, x):
    """Nearest-local-prototype class of one input row."""
    return int(client_mod._nearest_local_class(state, np.atleast_2d(x))[0])


class TestPredict:
    """Nearest-local-prototype inference, one row at a time."""

    def _kitted_state(self, protos):
        state = _state()
        eye = np.eye(2)
        zeros = np.zeros(2)
        state.params = ModelParams(eye, zeros, eye, zeros, np.eye(2), zeros)
        class_ids = sorted(protos)
        state.local_protos = (
            np.array(class_ids), np.array([protos[c] for c in class_ids], dtype=np.float64)
        )
        return state

    def test_nearer_prototype_wins(self):
        state = self._kitted_state({0: [0.0, 0.0], 1: [4.0, 0.0]})
        assert _predict(state, np.array([1.0, 0.0])) == 0

    def test_exact_prototype_match(self):
        state = self._kitted_state({0: [1.0, 2.0], 1: [5.0, 0.5]})
        assert _predict(state, np.array([5.0, 0.5])) == 1

    def test_tie_breaks_to_lowest_class(self):
        state = self._kitted_state({1: [2.0, 0.0], 2: [0.0, 2.0]})
        assert _predict(state, np.array([1.0, 1.0])) == 1

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            protos = {c: rng.normal(size=2) for c in range(5)}
            state = self._kitted_state(protos)
            x = rng.normal(size=2)
            feats = forward_features(state.params, x)
            best = min(
                sorted(protos),
                key=lambda c: (float(np.linalg.norm(feats - protos[c])), c),
            )
            assert _predict(state, x) == best

    def test_common_scale_leaves_argmin_unchanged(self):
        rng = np.random.default_rng(32)
        protos = {c: rng.normal(size=2) for c in range(4)}
        state = self._kitted_state(protos)
        x = rng.normal(size=2)
        base = _predict(state, x)
        for scale in (0.5, 3.0, 17.0):
            scaled = self._kitted_state({c: scale * v for c, v in protos.items()})
            assert _predict(scaled, scale * x) == base

    def test_no_prototypes_is_an_error(self):
        state = _state()
        state.local_protos = None
        with pytest.raises(InferenceError):
            _predict(state, np.zeros(2))


class TestEvaluateAccuracy:
    def test_agrees_with_per_sample_predict(self):
        state = _state()
        state.test_shard = Dataset(state.shard.x, state.shard.y, 3)
        state.local_protos = compute_local_prototypes(state)
        acc = evaluate_accuracy(state)
        manual = np.mean(
            [
                _predict(state, x) == y
                for x, y in zip(state.test_shard.x, state.test_shard.y)
            ]
        )
        assert acc == manual

    def test_client_without_test_split_is_refused(self):
        state = _state()
        state.local_protos = compute_local_prototypes(state)
        assert state.test_shard is None
        with pytest.raises(ValueError, match="^client 0 has no test data$"):
            evaluate_accuracy(state)


class TestDenseTargets:
    def test_matches_per_class_reconstruct(self):
        rng = np.random.default_rng(33)
        for k, d, s in [(3, 8, 2), (6, 8, 3), (12, 16, 4), (30, 24, 6)]:
            state = _state()
            state.mask_set = generate_masks(k, d, s, seed=int(rng.integers(100)))
            received = {}
            for cls in rng.permutation(k):
                values = rng.normal(size=s) if rng.random() < 0.7 else np.zeros(s)
                received[int(cls)] = values
            values = np.array([received[c] for c in range(k)])  # row c is class c's
            held = {int(c) for c in rng.choice(k, size=k // 2 + 1, replace=False)}
            # one sample of each held class
            state.shard = Dataset(np.zeros((len(held), 2)), sorted(held), k)
            targets = _by_class(client_mod._dense_targets(state, values))
            # live classes the client holds, ascending
            kept = [c for c in range(k) if np.any(received[c]) and c in held]
            assert list(targets) == kept
            for cls in kept:
                # the i-th payload value belongs at the i-th set bit of the mask
                positions = [j for j, b in enumerate(state.mask_set.bits[cls]) if b]
                expected = np.zeros(d)
                for value, j in zip(received[cls], positions):
                    expected[j] = value
                np.testing.assert_array_equal(targets[cls], expected)

    @pytest.mark.parametrize("cps", [True, False], ids=["cps", "dense"])
    def test_live_class_not_held_gets_no_target(self, cps, monkeypatch):
        state = _state(dense=not cps)  # holds classes 0 and 1 of K=3
        values = _globals(feat_ones=2 if cps else 8)
        assert values.all()  # every row is live, class 2's too
        target_ids, _ = client_mod._dense_targets(state, values)
        assert target_ids.tolist() == [0, 1]
        seen = _capture_targets(monkeypatch)
        local_update(state, values, _CFG, rng=np.random.default_rng(0))
        assert [ids.tolist() for ids, _ in seen] == [[0, 1]]

    def test_no_live_payload_gives_no_targets(self):
        state = _state()
        zeros = np.zeros((3, 2))
        ids, block = client_mod._dense_targets(state, zeros)
        assert ids.shape == (0,) and block.shape == (0, 8)


class TestL2Distances:
    def test_equals_linalg_norm(self):
        rng = np.random.default_rng(34)
        for n, c, d in [(1, 1, 1), (5, 3, 2), (20, 50, 512), (60, 8, 64), (7, 9, 13)]:
            feats = rng.normal(size=(n, d))
            stack = rng.normal(size=(c, d))
            stack[c // 2] = stack[0]  # duplicate prototypes tie exactly
            reference = np.linalg.norm(feats[:, None, :] - stack[None, :, :], axis=2)
            dists = client_mod._l2_distances(feats, stack)
            assert dists.shape == (n, c)
            assert np.array_equal(dists, reference)

    def test_nearest_class_matches_linalg_norm_argmin(self):
        rng = np.random.default_rng(35)
        state = _state()
        for _ in range(20):
            class_ids = sorted(int(c) for c in rng.choice(10, size=4, replace=False))
            vecs = rng.random(size=(4, 8))
            vecs[2] = vecs[1]  # duplicate prototypes: the lower class id wins
            state.local_protos = (np.array(class_ids), vecs)
            x = rng.normal(size=(6, 2))
            feats = forward_features(state.params, x)
            reference = np.linalg.norm(feats[:, None, :] - vecs[None, :, :], axis=2)
            expected = np.array(class_ids)[np.argmin(reference, axis=1)]
            picked = client_mod._nearest_local_class(state, x)
            np.testing.assert_array_equal(picked, expected)


def _features_are_inputs(monkeypatch):
    """Make the model's features its inputs, so any real values can be drawn."""
    monkeypatch.setattr(client_mod, "forward_features", lambda params, x: x)


def _count_rechecks(monkeypatch):
    """The row count of each exact ``_l2_distances`` call, as a growing list."""
    exact = client_mod._l2_distances
    rechecked = []

    def counting(feats, stack):
        rechecked.append(len(feats))
        return exact(feats, stack)

    monkeypatch.setattr(client_mod, "_l2_distances", counting)
    return rechecked


class TestScreenedNearestClass:
    """The GEMM screen plus its exact fallback gives the argmin of
    ``_l2_distances``, ties included, on every draw."""

    def _draw(self, rng, case):
        d = (1, 2, 16, 512, int(rng.integers(3, 65)))[case % 5]
        c = 1 if case % 7 == 0 else int(rng.integers(2, 13))
        n = int(rng.integers(1, 9))
        scale = (1e-3, 1.0, 1e3)[int(rng.integers(3))]
        if rng.integers(2):
            feats, block = rng.normal(size=(n, d)), rng.normal(size=(c, d))
        else:  # ReLU-like: non-negative, with exact zeros
            feats = np.maximum(rng.normal(size=(n, d)), 0.0)
            block = np.maximum(rng.normal(size=(c, d)), 0.0)
        feats, block = scale * feats, scale * block
        kind = int(rng.integers(6))
        if kind == 0 and c > 1:
            block[c // 2] = block[0]  # duplicate prototypes
        elif kind == 1:
            block[int(rng.integers(c))] = 0.0  # an all-zero prototype
        elif kind == 2:
            feats[0] = block[int(rng.integers(c))]  # a row equal to a prototype
        elif kind == 3 and c > 1:
            # prototype 0's offset from row 0, permuted: as far but for rounding
            block[1] = feats[0] + (block[0] - feats[0])[rng.permutation(d)]
        elif kind == 4:
            feats[:] = 0.0
            block[: c // 2] = 0.0
        ids = np.sort(rng.choice(3 * c, size=c, replace=False))
        return feats, ids, block

    def test_matches_exact_argmin_on_seeded_draws(self, monkeypatch):
        _features_are_inputs(monkeypatch)
        exact = client_mod._l2_distances
        rechecked = _count_rechecks(monkeypatch)
        rng = np.random.default_rng(38)
        state = _state()
        rows = 0
        for case in range(2400):
            feats, ids, block = self._draw(rng, case)
            state.local_protos = (ids, block)
            expected = ids[np.argmin(exact(feats, block), axis=1)]
            np.testing.assert_array_equal(client_mod._nearest_local_class(state, feats), expected)
            rows += len(feats)
        # both paths ran: most rows settled by the screen, ties re-ranked
        assert 100 <= sum(rechecked) <= rows // 2

    def test_near_tie_takes_the_fallback(self, monkeypatch):
        _features_are_inputs(monkeypatch)
        f = np.array([0.6369616873214543, 0.2697867137638703])
        p0 = np.array([0.04097352393619469, 0.016527635528529094])
        # p0's offset from f with its coordinates swapped: as far from f but
        # for rounding
        p1 = f + (p0 - f)[::-1]
        block = np.array([p0, p1])
        state = _state()
        state.local_protos = (np.array([0, 1]), block)
        exact = client_mod._l2_distances
        rechecked = _count_rechecks(monkeypatch)
        picked = client_mod._nearest_local_class(state, f[None])
        assert rechecked == [1]
        assert picked.tolist() == [int(np.argmin(exact(f[None], block)[0]))]


def _reference_local_prototypes(state):
    """The per-class dict loop the array path replaced: {class id: mean}."""
    counts = {int(c): int(n) for c, n in enumerate(np.bincount(state.shard.y)) if n > 0}
    feats = forward_features(state.params, state.shard.x)
    return {cls: feats[state.shard.y == cls].mean(axis=0) for cls in sorted(counts)}


def _reference_targets(state, values, cps):
    """{class id: dense target} of the live rows of held classes, ascending;
    row c of ``values`` is class c's."""
    held = set(np.flatnonzero(np.bincount(state.shard.y)).tolist())
    targets = {}
    for cls, row in enumerate(values):
        if np.any(row) and cls in held:
            if cps:
                full = np.zeros(state.mask_set.d)
                full[state.mask_set.bits[cls] == 1] = row
                row = full
            targets[cls] = row
    return targets


def _reference_penalties(local_protos, targets, mu):
    """{class id: term} over the local classes; 0.0 for one without a target."""
    penalties = {}
    for cls, local in local_protos.items():
        target = targets.get(cls)
        if target is None:
            penalties[cls] = 0.0
            continue
        diff = np.asarray(local, dtype=np.float64) - mu * np.asarray(target, dtype=np.float64)
        penalties[cls] = float(diff @ diff)
    return penalties


class TestArrayPathMatchesDictReference:
    """Class-indexed arrays give the bits of the per-class dict loops they replaced."""

    def _draw(self, rng, case):
        k = int(rng.integers(2, 13))
        d = int(rng.integers(2, 17))
        s = int(rng.integers(1, d + 1))
        held = sorted(rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False).tolist())
        if case % 4 == 0:
            live = [c for c in range(k) if c not in held]  # no held class is live
        else:
            live = rng.choice(k, size=int(rng.integers(0, k + 1)), replace=False).tolist()
        labels = np.repeat(held, rng.integers(1, 5, size=len(held)))
        shard = Dataset(rng.normal(size=(len(labels), 3)), rng.permutation(labels), k)
        cps = case % 2 == 0
        ids = np.arange(k) if case % 3 else rng.permutation(k)
        drawn = rng.normal(size=(k, s if cps else d))
        drawn[~np.isin(ids, live)] = 0.0
        values = np.empty_like(drawn)
        values[ids] = drawn  # the (K, w) block: row c is class c's
        cfg = ExperimentConfig(
            lam=float(rng.uniform(0.1, 2.0)),
            mu=float(rng.uniform(0.1, 2.0)),
            lr=0.05,
            batch_size=int(rng.integers(1, 6)),
            local_epochs=2,
        )
        masks = generate_masks(k, d, s, seed=case)
        state = ClientState(
            client_id=case,
            params=init_params(3, 4, d, k, seed=case),
            shard=shard,
            # a dense client holds the all-ones set, CPS with s = d
            mask_set=masks if cps else MaskSet(np.ones((k, d))),
        )
        return state, masks, values, cps, cfg

    def test_dense_targets_penalties_and_count_scaling(self):
        rng = np.random.default_rng(36)
        overlapping = disjoint_live = 0
        for case in range(60):
            state, masks, values, cps, cfg = self._draw(rng, case)
            k = masks.n_classes
            overlapping += k * masks.s > masks.d
            counts = np.bincount(state.shard.y, minlength=k)

            target_ids, target_block = client_mod._dense_targets(state, values)
            targets = _reference_targets(state, values, cps)
            assert target_ids.tolist() == list(targets)
            assert target_block.shape == (len(targets), masks.d)
            assert all(np.array_equal(row, targets[c]) for c, row in zip(target_ids, target_block))
            disjoint_live += not targets

            local = compute_local_prototypes(state)
            local_ref = _reference_local_prototypes(state)
            assert local[0].tolist() == list(local_ref)
            assert all(np.array_equal(row, local_ref[c]) for c, row in zip(*local))

            penalty = class_penalties(local, (target_ids, target_block), cfg.mu, n_classes=k)
            expected = _reference_penalties(local_ref, targets, cfg.mu)
            for cls in range(k):
                assert penalty[cls] == expected.get(cls, 0.0)
            # the batch sum of the terms, classes ascending, as loss_and_grad adds it
            xs, ys = state.shard.x, state.shard.y
            ce, _ = loss_and_grad(state.params, xs, ys, None, 0.0)
            total = 0.0
            for cls in sorted(set(ys.tolist())):
                total += expected[cls]
            loss, _ = loss_and_grad(state.params, xs, ys, penalty, cfg.lam)
            assert loss == ce + cfg.lam * total

            # the update returns the unscaled (compressed) means; a scaled
            # round multiplies row i by the count of class ids[i]
            up_ids, plain = local_update(state, values, cfg, np.random.default_rng(case))
            assert up_ids.tolist() == np.flatnonzero(counts).tolist()
            means = state.local_protos[1]
            if cps:  # each row's entries at its mask's set bits, in order
                means = np.array([row[bits == 1] for row, bits in zip(means, masks.bits[up_ids])])
            assert np.array_equal(plain, means)
            _, scaled = _count_scaled(state, (up_ids, plain))
            column = np.array([[float(counts[c])] for c in up_ids.tolist()])
            assert np.array_equal(scaled, plain * column)
        assert overlapping >= 10 and disjoint_live >= 10
