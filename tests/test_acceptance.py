"""Acceptance suite: one test per exit criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import tinyproto as tp
from tinyproto.prototypes import compress, dead_unit_fraction, reconstruct, sparsify
from tinyproto.wire import FrameType, decode_frame, frame_param_count


@contextmanager
def _criterion(label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    print(f"[PASS] {label}")


# ---------------------------------------------------------------------------
# shared desk-scale runs
# ---------------------------------------------------------------------------

_LEARNING_CONFIG = dict(
    seed=7,
    n_clients=6,
    n_classes=4,
    input_dim=8,
    proto_dim=16,
    comp_dim=4,
    alpha=0.5,
    lam=1.0,
    mu=1.0,
    lr=0.01,
    batch_size=32,
    local_epochs=1,
    rounds=30,
    per_class=400,
    sigma=0.35,
)

_COST_CONFIG = dict(
    seed=13,
    n_clients=8,
    n_classes=6,
    input_dim=8,
    proto_dim=40,
    comp_dim=4,
    alpha=0.1,
    lam=1.0,
    mu=1.0,
    lr=0.01,
    batch_size=16,
    local_epochs=1,
    rounds=5,
    per_class=40,
    sigma=0.35,
)


@pytest.fixture(scope="module")
def learning_runs():
    started = time.perf_counter()
    result = tp.run_experiment(tp.ExperimentConfig(**_LEARNING_CONFIG))
    ablation = tp.run_experiment(tp.ExperimentConfig(**{**_LEARNING_CONFIG, "lam": 0.0}))
    return result, ablation, time.perf_counter() - started


@pytest.fixture(scope="module")
def cost_runs():
    log = tp.FrameLog()
    sparse = tp.run_experiment(tp.ExperimentConfig(**_COST_CONFIG), frame_log=log)
    dense = tp.run_experiment(tp.ExperimentConfig(**{**_COST_CONFIG, "cps": False}))
    return sparse, dense, log


# ---------------------------------------------------------------------------
# criterion 1: operator algebra, 1000 randomized cases each, < 5 s
# ---------------------------------------------------------------------------


def test_criterion_1_operator_algebra():
    with _criterion("criterion 1: operator algebra (5 properties x 1000 cases)"):
        rng = np.random.default_rng(101)
        started = time.perf_counter()
        for _ in range(1000):
            dim = int(rng.integers(1, 65))
            bits = np.zeros(dim, dtype=np.uint8)
            ones = int(rng.integers(0, dim + 1))
            bits[rng.choice(dim, size=ones, replace=False)] = 1
            a = rng.normal(size=dim)
            b = rng.normal(size=dim)

            sa = sparsify(a, bits)
            # fixed support
            assert np.all(sa[bits == 0] == 0)
            # non-expansiveness
            lhs = np.linalg.norm(sa - sparsify(b, bits))
            assert lhs <= np.linalg.norm(a - b) + 1e-12
            # linearity with a fixed mask
            qa, qb = rng.normal(), rng.normal()
            mixed = sparsify(qa * a + qb * b, bits)
            np.testing.assert_allclose(
                mixed, qa * sa + qb * sparsify(b, bits), atol=1e-12
            )
            # idempotence
            np.testing.assert_array_equal(sparsify(sa, bits), sa)
            # compress / reconstruct round-trip
            np.testing.assert_array_equal(reconstruct(compress(a, bits), bits), sa)
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"operator algebra took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# criterion 2: gradient check, 100 instances, < 30 s
# ---------------------------------------------------------------------------


def test_criterion_2_gradient_check():
    with _criterion("criterion 2: 100 gradient checks vs central finite differences"):
        rng = np.random.default_rng(202)
        started = time.perf_counter()
        step = 1e-5
        for case in range(100):
            din = int(rng.integers(1, 9))
            hid = int(rng.integers(1, 9))
            feat = int(rng.integers(1, 9))
            ncls = int(rng.integers(2, 9))
            params = tp.ModelParams(
                rng.normal(size=(din, hid)),
                rng.normal(size=hid),
                rng.normal(size=(hid, feat)),
                rng.normal(size=feat),
                rng.normal(size=(feat, ncls)),
                rng.normal(size=ncls),
            )
            nb = int(rng.integers(1, 5))
            xs = np.empty((nb, din))
            ys = np.empty(nb, dtype=np.int64)
            for i in range(nb):  # one row, then its label: the draw order
                xs[i] = rng.normal(size=din)
                ys[i] = rng.integers(0, ncls)
            classes = sorted(set(ys.tolist()))
            if case % 2 == 0:
                lam, mu, globals_, locals_ = 0.0, 1.0, {}, {}
            else:
                lam = float(rng.uniform(0.1, 2.0))
                mu = float(rng.uniform(0.1, 2.0))
                globals_ = {c: rng.normal(size=feat) for c in classes}
                locals_ = {c: rng.normal(size=feat) for c in classes}
            pairs = [  # as (ids, (n, d)) pairs
                (np.array(list(p), dtype=np.int64), np.reshape(list(p.values()), (len(p), feat)))
                for p in (locals_, globals_)
            ]
            penalty = tp.class_penalties(*pairs, mu, n_classes=ncls)
            _, grads = tp.loss_and_grad(params, xs, ys, penalty, lam)
            for arr, grad in zip(params.arrays(), grads.arrays()):
                flat, gflat = arr.reshape(-1), grad.reshape(-1)
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + step
                    up, _ = tp.loss_and_grad(params, xs, ys, penalty, lam)
                    flat[i] = orig - step
                    down, _ = tp.loss_and_grad(params, xs, ys, penalty, lam)
                    flat[i] = orig
                    fd = (up - down) / (2 * step)
                    assert np.isclose(gflat[i], fd, rtol=1e-4, atol=1e-7)
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"gradient check took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# criterion 3: aggregation oracle equivalence, 500 instances
# ---------------------------------------------------------------------------


def test_criterion_3_aggregation_oracles():
    with _criterion("criterion 3: aggregation vs brute force + end-to-end linearity"):
        rng = np.random.default_rng(303)
        for _ in range(500):
            n_clients = int(rng.integers(1, 6))
            dim = int(rng.integers(1, 7))
            vectors = [rng.normal(size=dim) for _ in range(n_clients)]
            counts = [int(rng.integers(1, 9)) for _ in range(n_clients)]

            # one row per contributing client, in ascending client order, all
            # of class 0: the fold returns that one class's combined row
            one_class = np.zeros(n_clients, dtype=np.int64)
            _, (simple,) = tp.aggregate_mean(one_class, np.array(vectors))
            np.testing.assert_allclose(simple, sum(vectors) / n_clients, atol=1e-12)

            _, (scaled,) = tp.aggregate_mean(
                one_class, np.array([n * v for v, n in zip(vectors, counts)])
            )
            np.testing.assert_allclose(
                scaled,
                sum(n * v for v, n in zip(vectors, counts)) / n_clients,
                atol=1e-12,
            )

        for _ in range(500):
            dim = int(rng.integers(2, 7))
            ones = int(rng.integers(1, dim + 1))
            bits = np.zeros(dim, dtype=np.uint8)
            bits[rng.choice(dim, size=ones, replace=False)] = 1
            n_clients = int(rng.integers(1, 6))
            protos = [rng.normal(size=dim) for _ in range(n_clients)]
            counts = [int(rng.integers(1, 6)) for _ in range(n_clients)]
            dense_mean = sum(n * p for p, n in zip(protos, counts)) / n_clients
            via_dense = compress(dense_mean, bits)
            _, (via_wire,) = tp.aggregate_mean(
                np.zeros(n_clients, dtype=np.int64),
                np.array([n * compress(p, bits) for p, n in zip(protos, counts)]),
            )
            np.testing.assert_allclose(via_wire, via_dense, atol=1e-10)


# ---------------------------------------------------------------------------
# criterion 4: cost exactness on a seeded run
# ---------------------------------------------------------------------------


def test_criterion_4_cost_exactness(cost_runs):
    with _criterion("criterion 4: measured traffic == formula == cost model; ratio s/d"):
        sparse, dense, log = cost_runs
        cfg = sparse.config
        k = cfg.n_classes
        class_counts = [st.n_local_classes for st in sparse.clients]
        formula = sum((ki + k) * cfg.comp_dim for ki in class_counts)
        predicted = tp.cost(
            tp.CostQuery(
                algorithm="TinyProto",
                n_classes=k,
                classes_per_client=class_counts,
                comp_dim=cfg.comp_dim,
            )
        )

        # independent recount straight from the logged frames
        per_round: dict[int, int] = {}
        for round_no, _, _, data in log.entries:
            frame = decode_frame(data)
            if frame.frame_type in (FrameType.UPLOAD, FrameType.GLOBALS):
                per_round[round_no] = per_round.get(round_no, 0) + frame_param_count(frame)

        for report in sparse.reports:
            measured = report.uplink_params + report.downlink_params
            assert measured == formula
            assert measured == predicted
            assert per_round[report.round] == measured

        predicted_dense = tp.cost(
            tp.CostQuery(
                algorithm="FedProto",
                n_classes=k,
                classes_per_client=[st.n_local_classes for st in dense.clients],
                proto_dim=cfg.proto_dim,
            )
        )
        for report in dense.reports:
            assert report.uplink_params + report.downlink_params == predicted_dense

        for rs, rd in zip(sparse.reports, dense.reports):
            sparse_traffic = rs.uplink_params + rs.downlink_params
            dense_traffic = rd.uplink_params + rd.downlink_params
            # ratio equals s/d exactly, checked as an integer identity
            assert sparse_traffic * cfg.proto_dim == dense_traffic * cfg.comp_dim
            assert cfg.comp_dim / cfg.proto_dim == 0.1


# ---------------------------------------------------------------------------
# criterion 5: desk-scale learning
# ---------------------------------------------------------------------------


def test_criterion_5_desk_scale_learning(learning_runs):
    with _criterion("criterion 5: best mean test accuracy >= 0.90 and >= ablation - 0.02"):
        result, ablation, elapsed = learning_runs
        best = result.summary["best_mean_test_accuracy"]
        best_ablation = ablation.summary["best_mean_test_accuracy"]
        assert best >= 0.90, f"best accuracy {best:.4f} below 0.90"
        assert best >= best_ablation - 0.02, (
            f"best {best:.4f} trails the no-penalty ablation {best_ablation:.4f}"
        )
        assert elapsed < 120.0, f"desk-scale runs took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 6: sparsity structure and dead units after the learning run
# ---------------------------------------------------------------------------


def test_criterion_6_sparsity_structure(learning_runs):
    with _criterion("criterion 6: globals have exactly s in-mask nonzeros; dead units exist"):
        result, _, _ = learning_runs
        mask_set = result.server.mask_set
        for comp, bits in zip(result.server.global_comp, mask_set.bits):
            full = np.zeros(mask_set.d)
            full[bits == 1] = comp
            assert int(np.sum(full != 0)) == mask_set.s
            assert np.all(full[bits == 0] == 0)
        for state in result.clients:
            ids, block = state.local_protos
            for cls, fraction in zip(ids.tolist(), dead_unit_fraction(block)):
                assert fraction > 0.0, (
                    f"client {state.client_id}, class {cls} has no dead units"
                )


# ---------------------------------------------------------------------------
# criterion 7: byte-identical rounds.csv across executions
# ---------------------------------------------------------------------------


def test_criterion_7_determinism(tmp_path):
    with _criterion("criterion 7: rounds.csv byte-identical across executions"):
        cfg = tp.ExperimentConfig(**_COST_CONFIG)
        tp.run_experiment(cfg, out_dir=tmp_path / "a")
        tp.run_experiment(cfg, out_dir=tmp_path / "b")
        first = (tmp_path / "a" / "rounds.csv").read_bytes()
        second = (tmp_path / "b" / "rounds.csv").read_bytes()
        assert first == second


# ---------------------------------------------------------------------------
# criterion 8: published-table shaped formula checks
# ---------------------------------------------------------------------------


def test_criterion_8_table_shape_sanity():
    with _criterion("criterion 8: logit-cost < 0.01M; dense-prototype cost 1.46M"):
        distill = tp.cost(
            tp.CostQuery(
                algorithm="FedDistill", n_clients=20, n_classes=10, classes_per_client=10
            )
        )
        assert distill == 4_000
        assert distill / 1e6 < 0.01

        # 20 clients, 100 classes, 46 locally present classes each:
        # sum of (K_i + K) over clients is 2920
        class_counts = [46] * 20
        assert sum(ki + 100 for ki in class_counts) == 2_920
        dense = tp.cost(
            tp.CostQuery(
                algorithm="FedProto",
                n_classes=100,
                classes_per_client=class_counts,
                proto_dim=500,
            )
        )
        assert dense == 1_460_000
        assert dense / 1e6 == 1.46
