"""Model forward passes, loss, exact gradients, and SGD."""

import numpy as np
import pytest

from tinyproto.numerics import (
    NO_LOCAL_PROTOTYPE,
    Gradients,
    ModelParams,
    ShapeError,
    class_penalties,
    forward_features,
    forward_logits,
    init_params,
    loss_and_grad,
    sgd_step,
)


def _identity_params(dim):
    eye = np.eye(dim)
    zero = np.zeros(dim)
    return ModelParams(eye.copy(), zero.copy(), eye.copy(), zero.copy(), eye.copy(), zero.copy())


def _random_instance(rng, max_dim=8, max_batch=4):
    din = int(rng.integers(1, max_dim + 1))
    hid = int(rng.integers(1, max_dim + 1))
    feat = int(rng.integers(1, max_dim + 1))
    ncls = int(rng.integers(2, max_dim + 1))
    params = ModelParams(
        rng.normal(size=(din, hid)),
        rng.normal(size=hid),
        rng.normal(size=(hid, feat)),
        rng.normal(size=feat),
        rng.normal(size=(feat, ncls)),
        rng.normal(size=ncls),
    )
    nb = int(rng.integers(1, max_batch + 1))
    xs = np.empty((nb, din))
    ys = np.empty(nb, dtype=np.int64)
    for i in range(nb):  # one row, then its label: the instances' draw order
        xs[i] = rng.normal(size=din)
        ys[i] = rng.integers(0, ncls)
    return params, xs, ys, feat, ncls


def _pair(by_class, width):
    """A {class id: row} dict as the ``(ids, (n, width))`` pair, ids ascending."""
    ids = sorted(by_class)
    block = np.array([by_class[c] for c in ids], dtype=np.float64).reshape(len(ids), width)
    return np.array(ids, dtype=np.int64), block


def _penalties(locals_, globals_, width, n_classes, mu, rho="squared_l2"):
    """``class_penalties`` of two {class id: row} dicts."""
    return class_penalties(
        _pair(locals_, width), _pair(globals_, width), mu, rho, n_classes=n_classes
    )


def _straight_line_features(params, x):
    """Independent re-computation with plain python loops."""
    din, hid = params.w1.shape
    feat = params.w2.shape[1]
    a1 = []
    for j in range(hid):
        acc = params.b1[j]
        for i in range(din):
            acc += x[i] * params.w1[i, j]
        a1.append(max(acc, 0.0))
    out = []
    for j in range(feat):
        acc = params.b2[j]
        for i in range(hid):
            acc += a1[i] * params.w2[i, j]
        out.append(max(acc, 0.0))
    return np.array(out)


class TestForwardFeatures:
    def test_identity_weights_relu_kills_negatives(self):
        params = _identity_params(2)
        np.testing.assert_array_equal(
            forward_features(params, np.array([1.0, -1.0])), [1.0, 0.0]
        )

    def test_zero_weights_give_zero_vector(self):
        zero = np.zeros
        params = ModelParams(zero((3, 4)), zero(4), zero((4, 2)), zero(2), zero((2, 5)), zero(5))
        np.testing.assert_array_equal(forward_features(params, np.ones(3)), np.zeros(2))

    def test_matches_straight_line_evaluator(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            params, xs, _, _, _ = _random_instance(rng)
            x = xs[0]
            got = forward_features(params, x)
            np.testing.assert_allclose(got, _straight_line_features(params, x), rtol=1e-12)

    def test_output_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            params, xs, _, _, _ = _random_instance(rng)
            assert np.all(forward_features(params, xs[0]) >= 0)

    def test_batch_input_supported(self):
        # batched and single-vector products take different BLAS paths, so
        # agreement is to rounding, not bit-for-bit
        rng = np.random.default_rng(2)
        params, xs, _, _, _ = _random_instance(rng)
        rows = forward_features(params, xs)
        for i, x in enumerate(xs):
            np.testing.assert_allclose(rows[i], forward_features(params, x), rtol=1e-12, atol=1e-14)

    def test_dimension_mismatch_raises(self):
        params = _identity_params(3)
        with pytest.raises(ShapeError):
            forward_features(params, np.zeros(4))


class TestForwardLogits:
    def test_identity_classifier_passes_basis_vector(self):
        params = _identity_params(3)
        e1 = np.array([1.0, 0.0, 0.0])
        np.testing.assert_array_equal(forward_logits(params, e1), e1)

    def test_zero_weights_return_bias(self):
        params = _identity_params(2)
        params.wc = np.zeros((2, 2))
        params.bc = np.array([0.3, -0.7])
        np.testing.assert_array_equal(forward_logits(params, np.ones(2)), params.bc)

    def test_matches_manual_affine(self):
        rng = np.random.default_rng(3)
        params, _, _, feat, ncls = _random_instance(rng)
        f = rng.normal(size=feat)
        manual = np.array(
            [sum(f[i] * params.wc[i, j] for i in range(feat)) + params.bc[j] for j in range(ncls)]
        )
        np.testing.assert_allclose(forward_logits(params, f), manual, rtol=1e-12)

    def test_dimension_mismatch_raises(self):
        params = _identity_params(3)
        with pytest.raises(ShapeError):
            forward_logits(params, np.zeros(5))


def _reference_cross_entropy(params, xs, ys):
    """Standalone cross-entropy with the same reduction order."""
    a1 = np.maximum(xs @ params.w1 + params.b1, 0.0)
    a2 = np.maximum(a1 @ params.w2 + params.b2, 0.0)
    z3 = a2 @ params.wc + params.bc
    zmax = z3.max(axis=1, keepdims=True)
    ez = np.exp(z3 - zmax)
    log_norm = np.log(ez.sum(axis=1, keepdims=True)) + zmax
    log_probs = z3 - log_norm
    return float(np.mean(-log_probs[np.arange(len(ys)), ys]))


class TestLossAndGrad:
    def test_lambda_zero_is_plain_cross_entropy_bitwise(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            params, xs, ys, _, _ = _random_instance(rng)
            loss, _ = loss_and_grad(params, xs, ys, None, 0.0)
            assert loss == _reference_cross_entropy(params, xs, ys)

    def test_penalty_zero_when_local_matches_scaled_global(self):
        rng = np.random.default_rng(5)
        params, xs, ys, feat, ncls = _random_instance(rng)
        mu = 0.7
        classes = sorted(set(ys.tolist()))
        globals_ = {c: rng.normal(size=feat) for c in classes}
        locals_ = {c: mu * globals_[c] for c in classes}
        penalty = _penalties(locals_, globals_, feat, ncls, mu)
        with_pen, _ = loss_and_grad(params, xs, ys, penalty, 2.5)
        without, _ = loss_and_grad(params, xs, ys, None, 0.0)
        assert with_pen == pytest.approx(without, abs=1e-15)

    def test_missing_global_contributes_nothing(self):
        rng = np.random.default_rng(6)
        params, xs, ys, feat, ncls = _random_instance(rng)
        classes = sorted(set(ys.tolist()))
        locals_ = {c: rng.normal(size=feat) for c in classes}
        penalty = _penalties(locals_, {}, feat, ncls, 1.0)
        loss_missing, _ = loss_and_grad(params, xs, ys, penalty, 1.0)
        loss_plain, _ = loss_and_grad(params, xs, ys, None, 0.0)
        assert loss_missing == loss_plain

    def test_missing_local_prototype_rejected(self):
        rng = np.random.default_rng(7)
        params, xs, ys, feat, ncls = _random_instance(rng)
        penalty = _penalties({}, {}, feat, ncls, 1.0)
        assert (penalty == NO_LOCAL_PROTOTYPE).all()
        with pytest.raises(ValueError, match=f"no local prototype for batch class {min(ys)}"):
            loss_and_grad(params, xs, ys, penalty, 1.0)

    @pytest.mark.parametrize(
        "penalty", [None, np.zeros(1), np.zeros(3)], ids=["none", "short", "long"]
    )
    def test_penalty_vector_not_of_length_k_rejected(self, penalty):
        params = _identity_params(2)
        with pytest.raises(ShapeError, match="class penalty"):
            loss_and_grad(params, np.ones((2, 2)), np.array([0, 1]), penalty, 1.0)

    def test_empty_batch_rejected(self):
        params = _identity_params(2)
        with pytest.raises(ValueError, match="empty"):
            loss_and_grad(params, np.empty((0, 2)), np.empty(0, dtype=np.int64), None, 0.0)

    def test_length_mismatch_rejected(self):
        params = _identity_params(2)
        with pytest.raises(ShapeError):
            loss_and_grad(params, np.ones((3, 2)), np.array([0, 1]), None, 0.0)
        with pytest.raises(ShapeError):
            loss_and_grad(params, np.ones((2, 2)), np.array([[0, 1]]), None, 0.0)

    def test_one_dimensional_inputs_rejected(self):
        params = _identity_params(2)
        with pytest.raises(ShapeError):
            loss_and_grad(params, np.ones(2), np.array([0, 1]), None, 0.0)
        with pytest.raises(ShapeError):
            loss_and_grad(params, np.ones(2), np.array([0]), None, 0.0)

    def test_non_integer_labels_rejected(self):
        params = _identity_params(2)
        with pytest.raises(ValueError, match="integers"):
            loss_and_grad(params, np.ones((2, 2)), np.array([0.0, 1.0]), None, 0.0)

    @pytest.mark.parametrize("label", [-1, 2], ids=["negative", "K"])
    def test_label_outside_range_rejected(self, label):
        params = _identity_params(2)
        with pytest.raises(ValueError, match=r"outside \[0, K\)"):
            loss_and_grad(params, np.ones((2, 2)), np.array([0, label]), None, 0.0)

    def test_input_dim_mismatch_rejected(self):
        params = _identity_params(2)
        with pytest.raises(ShapeError, match="input dim"):
            loss_and_grad(params, np.ones((2, 3)), np.array([0, 1]), None, 0.0)

    def test_negative_lambda_rejected(self):
        params = _identity_params(2)
        with pytest.raises(ValueError, match="lam"):
            loss_and_grad(params, np.ones((2, 2)), np.array([0, 1]), None, -1.0)

    def test_penalty_adds_batch_classes_in_ascending_order(self):
        """The per-batch sum the penalty used to be recomputed with, bit for bit."""
        rng = np.random.default_rng(12)
        for _ in range(50):
            params, xs, ys, feat, ncls = _random_instance(rng, max_batch=8)
            locals_ = {c: rng.normal(size=feat) for c in range(ncls)}
            globals_ = {c: rng.normal(size=feat) for c in range(ncls) if rng.random() < 0.7}
            lam, mu = float(rng.uniform(0.1, 2.0)), float(rng.uniform(0.1, 2.0))
            expected = 0.0
            for cls in sorted(set(ys.tolist())):
                if cls in globals_:
                    diff = locals_[cls] - mu * globals_[cls]
                    expected += float(diff @ diff)
            penalty = _penalties(locals_, globals_, feat, ncls, mu)
            loss, _ = loss_and_grad(params, xs, ys, penalty, lam)
            assert loss == _reference_cross_entropy(params, xs, ys) + lam * expected

    def test_penalty_value_both_rho_variants(self):
        rng = np.random.default_rng(8)
        params, xs, ys, feat, ncls = _random_instance(rng)
        classes = sorted(set(ys.tolist()))
        globals_ = {c: rng.normal(size=feat) for c in classes}
        locals_ = {c: rng.normal(size=feat) for c in classes}
        base = _reference_cross_entropy(params, xs, ys)
        lam, mu = 1.3, 0.4
        sq = sum(
            float(np.sum((locals_[c] - mu * globals_[c]) ** 2)) for c in classes
        )
        penalty = _penalties(locals_, globals_, feat, ncls, mu, rho="squared_l2")
        loss_sq, _ = loss_and_grad(params, xs, ys, penalty, lam)
        assert loss_sq == pytest.approx(base + lam * sq, rel=1e-12)
        smooth = sum(
            float(np.sqrt(np.sum((locals_[c] - mu * globals_[c]) ** 2) + 1e-8))
            for c in classes
        )
        penalty = _penalties(locals_, globals_, feat, ncls, mu, rho="l2_eps")
        loss_l2, _ = loss_and_grad(params, xs, ys, penalty, lam)
        assert loss_l2 == pytest.approx(base + lam * smooth, rel=1e-12)

    def test_gradients_match_central_finite_differences(self):
        """100 seeded instances, dims <= 8, batch <= 4, rtol 1e-4, atol 1e-7."""
        rng = np.random.default_rng(9)
        step = 1e-5
        for case in range(100):
            params, xs, ys, feat, ncls = _random_instance(rng)
            classes = sorted(set(ys.tolist()))
            if case % 2 == 0:
                lam, mu = 0.0, 1.0
                globals_, locals_ = {}, {}
            else:
                lam, mu = float(rng.uniform(0.1, 2.0)), float(rng.uniform(0.1, 2.0))
                globals_ = {c: rng.normal(size=feat) for c in classes}
                locals_ = {c: rng.normal(size=feat) for c in classes}
            penalty = _penalties(locals_, globals_, feat, ncls, mu)
            _, grads = loss_and_grad(params, xs, ys, penalty, lam)
            for arr, grad in zip(params.arrays(), grads.arrays()):
                flat = arr.reshape(-1)
                gflat = grad.reshape(-1)
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + step
                    up, _ = loss_and_grad(params, xs, ys, penalty, lam)
                    flat[i] = orig - step
                    down, _ = loss_and_grad(params, xs, ys, penalty, lam)
                    flat[i] = orig
                    fd = (up - down) / (2 * step)
                    assert np.isclose(gflat[i], fd, rtol=1e-4, atol=1e-7), (
                        f"case {case}: analytic {gflat[i]} vs fd {fd}"
                    )

    def test_deterministic_given_same_inputs(self):
        rng = np.random.default_rng(10)
        params, xs, ys, feat, ncls = _random_instance(rng)
        classes = sorted(set(ys.tolist()))
        globals_ = {c: rng.normal(size=feat) for c in classes}
        locals_ = {c: rng.normal(size=feat) for c in classes}
        penalty = _penalties(locals_, globals_, feat, ncls, 1.0)
        first = loss_and_grad(params, xs, ys, penalty, 1.0)
        second = loss_and_grad(params, xs, ys, penalty, 1.0)
        assert first[0] == second[0]
        for a, b in zip(first[1].arrays(), second[1].arrays()):
            np.testing.assert_array_equal(a, b)


class TestClassPenalties:
    def test_one_term_per_local_class(self):
        rng = np.random.default_rng(13)
        locals_ = {c: rng.normal(size=4) for c in (0, 2, 5)}
        globals_ = {c: rng.normal(size=4) for c in (2, 3, 5)}
        mu = 0.6
        penalty = _penalties(locals_, globals_, 4, 7, mu)
        assert penalty.shape == (7,)
        assert np.flatnonzero(penalty != NO_LOCAL_PROTOTYPE).tolist() == [0, 2, 5]
        assert penalty[0] == 0.0  # no global prototype: adds nothing
        for cls in (2, 5):
            diff = locals_[cls] - mu * globals_[cls]
            assert penalty[cls] == float(diff @ diff)

    def test_smoothed_l2_variant(self):
        local, target = np.array([3.0, 0.0]), np.array([0.0, 4.0])
        penalty = _penalties({1: local}, {1: target}, 2, 2, 1.0, rho="l2_eps")
        assert penalty[1] == float(np.sqrt(25.0 + 1e-8))

    @pytest.mark.parametrize("mu", [0.0, -1.0])
    def test_non_positive_mu_rejected(self, mu):
        with pytest.raises(ValueError, match="mu"):
            _penalties({0: np.ones(2)}, {0: np.ones(2)}, 2, 1, mu)

    def test_unknown_rho_rejected(self):
        with pytest.raises(ValueError, match="unknown rho"):
            _penalties({0: np.ones(2)}, {0: np.ones(2)}, 2, 1, 1.0, rho="l1")


class TestSgdStep:
    def test_zero_lr_keeps_params(self):
        params = _identity_params(2)
        before = [a.copy() for a in params.arrays()]
        grads = Gradients(*(np.ones_like(a) for a in params.arrays()))
        sgd_step(params, grads, 0.0)
        for a, b in zip(params.arrays(), before):
            np.testing.assert_array_equal(a, b)

    def test_zero_grads_keep_params(self):
        params = _identity_params(2)
        before = [a.copy() for a in params.arrays()]
        grads = Gradients(*(np.zeros_like(a) for a in params.arrays()))
        sgd_step(params, grads, 0.5)
        for a, b in zip(params.arrays(), before):
            np.testing.assert_array_equal(a, b)

    def test_single_entry_arithmetic(self):
        one = np.ones((1, 1))
        params = ModelParams(one.copy(), np.ones(1), one.copy(), np.ones(1), one.copy(), np.ones(1))
        grads = Gradients(*(2 * np.ones_like(a) for a in params.arrays()))
        sgd_step(params, grads, 0.5)
        assert params.w1[0, 0] == 0.0

    def test_in_place_update_equals_out_of_place_bitwise(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            params, _, _, _, _ = _random_instance(rng)
            grads = Gradients(*(rng.normal(size=a.shape) for a in params.arrays()))
            lr = float(rng.uniform(0.001, 1.0))
            expected = [p - lr * g for p, g in zip(params.arrays(), grads.arrays())]
            arrays = params.arrays()
            assert sgd_step(params, grads, lr) is None
            for before, after, want in zip(arrays, params.arrays(), expected):
                assert after is before  # updated in place, not replaced
                np.testing.assert_array_equal(after, want)

    def test_shape_mismatch_raises(self):
        params = _identity_params(2)
        grads = Gradients(*(np.zeros((3, 3)) for _ in range(6)))
        with pytest.raises(ShapeError):
            sgd_step(params, grads, 0.1)

    def test_shape_mismatch_leaves_every_array_unchanged(self):
        params = _identity_params(2)
        before = [a.copy() for a in params.arrays()]
        grads = Gradients(*(np.ones_like(a) for a in params.arrays()))
        grads.bc = np.ones(3)  # only the last array is wrong
        with pytest.raises(ShapeError):
            sgd_step(params, grads, 0.1)
        for a, b in zip(params.arrays(), before):
            np.testing.assert_array_equal(a, b)


class TestInitParams:
    def test_seed_determinism(self):
        a = init_params(4, 5, 3, 2, seed=42)
        b = init_params(4, 5, 3, 2, seed=42)
        for x, y in zip(a.arrays(), b.arrays()):
            np.testing.assert_array_equal(x, y)

    def test_shapes_validate(self):
        params = init_params(4, 5, 3, 2, seed=0)
        assert params.dims == (4, 5, 3, 2)
        params.validate()
