"""Model forward passes, loss, exact gradients, and SGD."""

import copy
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tinyproto.numerics import (
    Gradients,
    ModelParams,
    ShapeError,
    class_penalties,
    forward_features,
    init_params,
    loss_and_grad,
    sgd_step,
)


_FIELDS = ["w1", "b1", "w2", "b2", "wc", "bc"]


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


def _penalties(locals_, globals_, width, n_classes, mu):
    """``class_penalties`` of two {class id: row} dicts."""
    return class_penalties(_pair(locals_, width), _pair(globals_, width), mu, n_classes=n_classes)


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

    @pytest.mark.parametrize(
        "penalty", [None, np.zeros(1), np.zeros(3)], ids=["none", "short", "long"]
    )
    def test_penalty_vector_not_of_length_k_rejected(self, penalty):
        params = _identity_params(2)
        with pytest.raises(ShapeError, match="class penalty"):
            loss_and_grad(params, np.ones((2, 2)), np.array([0, 1]), penalty, 1.0)

    @pytest.mark.parametrize("field", _FIELDS)
    def test_out_of_other_shapes_rejected_before_any_write(self, field):
        params = _identity_params(2)
        arrays = [np.full_like(a, np.nan) for a in params.arrays()]
        arrays[_FIELDS.index(field)] = np.full(3, np.nan)  # one array of the wrong shape
        out = Gradients(*arrays)
        before = [a.copy() for a in params.arrays() + out.arrays()]
        with pytest.raises(ShapeError, match="gradient shape"):
            loss_and_grad(params, np.ones((2, 2)), np.array([0, 1]), None, 0.0, out=out)
        for a, b in zip(params.arrays() + out.arrays(), before):
            assert a.tobytes() == b.tobytes()  # nan included

    def test_out_that_is_params_refused_before_any_write(self):
        # the gradients would overwrite the params they are taken of
        params = _identity_params(2)
        before = [a.copy() for a in params.arrays()]
        with pytest.raises(ValueError, match="^out is params: "):
            loss_and_grad(params, np.ones((2, 2)), np.array([0, 1]), None, 0.0, out=params)
        for a, b in zip(params.arrays(), before):
            assert a.tobytes() == b.tobytes()

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

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_lambda_rejected(self, lam):
        # nan would pass a plain lam < 0 test and silently drop the penalty
        params = _identity_params(2)
        penalty = np.ones(2)
        want = re.escape(f"lam must be finite and >= 0, got {lam!r}")
        with pytest.raises(ValueError, match=want):
            loss_and_grad(params, np.ones((2, 2)), np.array([0, 1]), penalty, lam)

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

    def test_penalty_value_is_squared_l2(self):
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
        penalty = _penalties(locals_, globals_, feat, ncls, mu)
        loss_sq, _ = loss_and_grad(params, xs, ys, penalty, lam)
        assert loss_sq == pytest.approx(base + lam * sq, rel=1e-12)

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


def _reference_activations(params, x):
    """The feature net written with a temporary per operation: the reference
    that the in-place layers of ``_activations`` must match bit for bit."""
    hidden = np.maximum(x @ params.w1 + params.b1, 0.0)
    return hidden, np.maximum(hidden @ params.w2 + params.b2, 0.0)


def _reference_loss_and_grad(params, xs, ys, class_penalty, lam):
    """``loss_and_grad`` below its argument checks, written with a temporary
    per operation: the reference that the in-place kernel must match bit for
    bit."""
    n = xs.shape[0]
    n_classes = params.wc.shape[1]
    classes = sorted(set(ys.tolist()))

    a1, a2 = _reference_activations(params, xs)
    z3 = a2 @ params.wc + params.bc

    # stable log-softmax cross-entropy, mean over the batch
    rows = np.arange(n)
    zmax = z3.max(axis=1, keepdims=True)
    ez = np.exp(z3 - zmax)
    ez_sum = ez.sum(axis=1, keepdims=True)
    log_norm = np.log(ez_sum) + zmax
    loss = float(np.mean(-(z3[rows, ys] - log_norm[:, 0])))

    if lam > 0:
        if np.shape(class_penalty) != (n_classes,):
            raise ShapeError(
                f"class penalty shape {np.shape(class_penalty)}, expected (K,) for K={n_classes}"
            )
        penalty = 0.0
        for cls in classes:
            penalty += class_penalty[cls]
        loss = loss + lam * float(penalty)

    # backprop of the cross-entropy term (the penalty is constant in params);
    # relu'(z) is 1 exactly where relu(z) > 0
    g3 = ez
    g3 /= ez_sum
    g3[rows, ys] -= 1.0
    g3 /= n
    grad_wc = a2.T @ g3
    grad_bc = g3.sum(axis=0)
    g2 = g3 @ params.wc.T
    g2 *= a2 > 0
    grad_w2 = a1.T @ g2
    grad_b2 = g2.sum(axis=0)
    g1 = g2 @ params.w2.T
    g1 *= a1 > 0
    grad_w1 = xs.T @ g1
    grad_b1 = g1.sum(axis=0)

    grads = Gradients(
        w1=grad_w1, b1=grad_b1, w2=grad_w2, b2=grad_b2, wc=grad_wc, bc=grad_bc
    )
    return loss, grads


def _assert_same_bits(got, want):
    """Equal values and equal signs, so -0.0 and 0.0 count as different."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


class TestKernelBits:
    """The in-place kernel gives the reference's bits: loss, every gradient
    and the feature layer."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.integers(1, 6),
        n_classes=st.integers(2, 5),
        lam=st.sampled_from([0.0, 0.7]),
        # 1e4 spreads the logits far enough apart that exp underflows to 0
        logit_scale=st.sampled_from([1.0, 1e4]),
        labels_at_argmax=st.booleans(),
    )
    @example(
        seed=0, n_rows=1, n_classes=2, lam=0.0, logit_scale=1e4, labels_at_argmax=True
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, seed, n_rows, n_classes, lam, logit_scale, labels_at_argmax):
        rng = np.random.default_rng(seed)
        din, hid, feat = (int(v) for v in rng.integers(1, 7, size=3))
        params = ModelParams(
            rng.normal(size=(din, hid)),
            rng.normal(size=hid),
            rng.normal(size=(hid, feat)),
            rng.normal(size=feat),
            logit_scale * rng.normal(size=(feat, n_classes)),
            logit_scale * rng.normal(size=n_classes),
        )
        xs = rng.normal(size=(n_rows, din))
        ys = rng.integers(0, n_classes, size=n_rows)
        if labels_at_argmax:  # with a large scale, CE terms of exactly 0
            _, a2 = _reference_activations(params, xs)
            ys = np.argmax(a2 @ params.wc + params.bc, axis=1)
        penalty = rng.uniform(0.0, 2.0, size=n_classes)

        loss, grads = loss_and_grad(params, xs, ys, penalty, lam)
        want_loss, want_grads = _reference_loss_and_grad(params, xs, ys, penalty, lam)
        _assert_same_bits(loss, want_loss)
        for got, want in zip(grads.arrays(), want_grads.arrays()):
            _assert_same_bits(got, want)
        _assert_same_bits(forward_features(params, xs), _reference_activations(params, xs)[1])
        _assert_same_bits(
            forward_features(params, xs[0]), _reference_activations(params, xs[0])[1]
        )

    @pytest.mark.parametrize("seed", range(20))
    def test_one_out_block_refilled_across_batches(self, seed):
        # one block, filled with nan and -0.0 once, serves batches of 4, 4,
        # the partial 2 and a single row; each call must write every entry
        rng = np.random.default_rng(seed)
        params, _, _, _, ncls = _random_instance(rng)
        xs = rng.normal(size=(10, params.w1.shape[0]))
        ys = rng.integers(0, ncls, size=10)
        penalty = rng.uniform(0.0, 2.0, size=ncls)
        out = Gradients(*(np.empty_like(a) for a in params.arrays()))
        for a in out.arrays():
            a.flat[0::2], a.flat[1::2] = np.nan, -0.0
        for rows in (slice(0, 4), slice(4, 8), slice(8, 10), slice(3, 4)):
            loss, grads = loss_and_grad(params, xs[rows], ys[rows], penalty, 0.7, out=out)
            want_loss, want_grads = _reference_loss_and_grad(
                params, xs[rows], ys[rows], penalty, 0.7
            )
            assert grads is out
            _assert_same_bits(loss, want_loss)
            for got, want in zip(out.arrays(), want_grads.arrays()):
                _assert_same_bits(got, want)

    def test_exact_zero_cross_entropy_keeps_its_sign(self):
        # every label is its row's argmax and every other logit is 1000 below,
        # so exp underflows and every cross-entropy term is exactly 0; the
        # loss keeps the sign np.mean gives that zero (numpy 2 sums the
        # negated terms to +0.0, where -sum(terms) / n would be -0.0)
        params = _identity_params(2)
        xs = np.array([[1000.0, 0.0], [0.0, 1000.0], [1000.0, 0.0]])
        ys = np.array([0, 1, 0])
        loss, _ = loss_and_grad(params, xs, ys, None, 0.0)
        want, _ = _reference_loss_and_grad(params, xs, ys, None, 0.0)
        _assert_same_bits(loss, want)
        assert want == 0.0


class TestClassPenalties:
    @pytest.mark.parametrize(
        "width, n_classes, local_ids, target_ids",
        [
            # class 0 has no global prototype, class 3 no local one, and
            # classes 1, 4 and 6 have neither
            (4, 7, (0, 2, 5), (2, 3, 5)),
            # wide's shape: d = 512 and 50 held classes of K = 200, the first
            # 8 without a target, and a target for class 199, which none holds
            (512, 200, tuple(range(0, 150, 3)), tuple(range(24, 150, 3)) + (199,)),
        ],
        ids=["small", "wide"],
    )
    def test_one_term_per_local_class(self, width, n_classes, local_ids, target_ids):
        rng = np.random.default_rng(13)
        locals_ = {c: rng.normal(size=width) for c in local_ids}
        globals_ = {c: rng.normal(size=width) for c in target_ids}
        mu = 0.6
        penalty = _penalties(locals_, globals_, width, n_classes, mu)
        assert penalty.shape == (n_classes,)
        # 0.0 adds nothing: only a class with both a local row and a target has a term
        paired = sorted(set(local_ids) & set(target_ids))
        assert np.flatnonzero(penalty).tolist() == paired
        for cls in paired:
            diff = locals_[cls] - mu * globals_[cls]
            assert penalty[cls] == float(diff @ diff)

    @pytest.mark.parametrize("mu", [0.0, -1.0])
    def test_non_positive_mu_rejected(self, mu):
        with pytest.raises(ValueError, match="mu"):
            _penalties({0: np.ones(2)}, {0: np.ones(2)}, 2, 1, mu)

    @pytest.mark.parametrize("mu", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_mu_rejected(self, mu):
        # nan would pass a plain mu <= 0 test and make every penalty nan
        with pytest.raises(ValueError, match=re.escape(f"mu must be finite and > 0, got {mu!r}")):
            _penalties({0: np.ones(2)}, {0: np.ones(2)}, 2, 1, mu)


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
                assert after.tobytes() == want.tobytes()  # the sign of a zero included

    def test_grads_that_are_params_refused_before_any_change(self):
        # the block would scale itself by lr and then subtract itself: all zeros
        params = _identity_params(2)
        before = [a.copy() for a in params.arrays()]
        with pytest.raises(ValueError, match="^grads is params: "):
            sgd_step(params, params, 0.1)
        for a, b in zip(params.arrays(), before):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("lr", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_lr_rejected_before_any_change(self, lr):
        # nan would pass a plain lr < 0 test and turn every parameter into nan
        params = _identity_params(2)
        grads = Gradients(*(np.ones_like(a) for a in params.arrays()))
        before = [a.copy() for a in params.arrays() + grads.arrays()]
        with pytest.raises(ValueError, match=re.escape(f"lr must be finite and >= 0, got {lr!r}")):
            sgd_step(params, grads, lr)
        for a, b in zip(params.arrays() + grads.arrays(), before):
            np.testing.assert_array_equal(a, b)

    def test_shape_mismatch_raises(self):
        params = _identity_params(2)
        grads = Gradients(*(np.zeros((3, 3)) for _ in range(6)))
        with pytest.raises(ShapeError):
            sgd_step(params, grads, 0.1)

    def test_shape_mismatch_leaves_every_array_unchanged(self):
        params = _identity_params(2)
        before = [a.copy() for a in params.arrays()]
        # only the last array is wrong
        grads = Gradients(*(np.ones_like(a) for a in params.arrays()[:5]), np.ones(3))
        grads_before = [g.copy() for g in grads.arrays()]
        with pytest.raises(ShapeError):
            sgd_step(params, grads, 0.1)
        for a, b in zip(params.arrays() + grads.arrays(), before + grads_before):
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
        shapes = [(4, 5), (5,), (5, 3), (3,), (3, 2), (2,)]
        for arr, shape in zip(params.arrays(), shapes, strict=True):
            assert arr.shape == shape
            assert np.isfinite(arr).all()

    @pytest.mark.parametrize(
        "dims", [(1, 1, 1, 1), (4, 5, 3, 2), (8, 32, 16, 4), (16, 32, 64, 10), (3, 1, 7, 2)]
    )
    @pytest.mark.parametrize("seed", [0, 7, 12345, 2**63])
    def test_equals_three_normal_draws_bitwise(self, monkeypatch, dims, seed):
        # the reference form: one rng.normal call per weight, then zero biases
        din, hid, feat, ncls = dims
        ref = np.random.default_rng(seed)
        want = (
            ref.normal(0.0, np.sqrt(2.0 / din), size=(din, hid)),
            np.zeros(hid),
            ref.normal(0.0, np.sqrt(2.0 / hid), size=(hid, feat)),
            np.zeros(feat),
            ref.normal(0.0, np.sqrt(2.0 / feat), size=(feat, ncls)),
            np.zeros(ncls),
        )
        made = []
        default_rng = np.random.default_rng

        def recording_rng(seed):
            made.append(default_rng(seed))
            return made[-1]

        monkeypatch.setattr(np.random, "default_rng", recording_rng)
        params = init_params(*dims, seed=seed)
        for got, expected in zip(params.arrays(), want, strict=True):
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
        # the one draw took exactly the stream the three did
        (rng,) = made
        assert rng.bit_generator.state == ref.bit_generator.state
        assert rng.random() == ref.random()

    @pytest.mark.parametrize(
        "dims, name, value",
        [((4.0, 5, 3, 2), "input_dim", 4.0), ((4, True, 3, 2), "hidden_dim", True),
         ((4, 5, np.float64(3), 2), "feature_dim", np.float64(3)),
         ((4, 5, 3, "2"), "n_classes", "2")],
        ids=["float", "bool", "numpy-float", "str"],
    )
    def test_non_integer_dimension_named(self, dims, name, value):
        the_bool = "the bool " if isinstance(value, bool) else ""
        message = f"{name} must be an integer, got {the_bool}{value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            init_params(*dims, seed=0)

    @pytest.mark.parametrize(
        "seed, message",
        [(-1, "seed must be >= 0, got seed=-1"),
         (1.5, "seed must be an integer, got 1.5"),
         (False, "seed must be an integer, got the bool False")],
        ids=["negative", "float", "bool"],
    )
    def test_bad_seed_named(self, seed, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            init_params(4, 5, 3, 2, seed=seed)

    def test_numpy_integer_arguments_accepted(self):
        a = init_params(*(np.int64(v) for v in (4, 5, 3, 2)), seed=np.uint32(9))
        b = init_params(4, 5, 3, 2, seed=9)
        assert a.dims == (4, 5, 3, 2) and a.flat.tobytes() == b.flat.tobytes()

    @pytest.mark.parametrize(
        "dims, name",
        [((0, 5, 3, 2), "input_dim"), ((4, 0, 3, 2), "hidden_dim"),
         ((4, 5, 0, 2), "feature_dim"), ((4, 5, 3, 0), "n_classes"),
         ((4, -1, 3, 2), "hidden_dim")],
        ids=["input", "hidden", "feature", "classes", "negative"],
    )
    def test_dimension_below_one_refused(self, dims, name):
        # He scaling divides by each fan-in: 0 would raise ZeroDivisionError
        with pytest.raises(ValueError, match=rf"^{name} must be >= 1, got {min(dims)}$"):
            init_params(*dims, seed=0)


class TestModelParamsBlock:
    def _blocks(self):
        rng = np.random.default_rng(3)
        params, _, _, _, _ = _random_instance(rng)
        return {
            "init": init_params(4, 5, 3, 2, seed=1),
            "built": params,
            "empty": Gradients.empty(params.shapes),
            "grads": loss_and_grad(params, np.ones((1, params.dims[0])), [0], None, 0.0)[1],
        }

    @pytest.mark.parametrize("kind", ["init", "built", "empty", "grads"])
    def test_six_views_share_one_vector(self, kind):
        block = self._blocks()[kind]
        flat = block.flat
        assert flat.ndim == 1 and flat.dtype == np.float64 and flat.flags.c_contiguous
        assert flat.size == sum(a.size for a in block.arrays())
        for a in block.arrays():
            assert a.base is flat and a.dtype == np.float64
        # the views tile the vector: together they cover each entry once
        flat[:] = 0.0
        for a in block.arrays():
            a += 1.0
        assert (flat == 1.0).all()

    def test_blocks_never_share_memory(self):
        blocks = self._blocks()
        params = blocks["built"]
        arrays = [a.copy() for a in params.arrays()]
        built, copied = ModelParams(*arrays), copy.deepcopy(params)
        others = [*blocks.values(), built, copied, Gradients.empty(params.shapes)]
        for i, a in enumerate(others):
            for b in others[i + 1:]:
                assert not np.shares_memory(a.flat, b.flat)
        # building a block copies its arrays in, and a copy is built from its arrays
        assert not any(np.shares_memory(built.flat, a) for a in arrays)
        for block in (built, copied):
            assert all(x.tobytes() == y.tobytes() for x, y in zip(block.arrays(), arrays))

    def test_built_block_takes_each_shape_and_casts_to_float64(self):
        block = ModelParams(np.ones((2, 3), dtype=np.int32), [1, 2, 3], np.eye(3, 1),
                            np.zeros(1), np.ones((1, 4)), np.arange(4))
        assert block.shapes == ((2, 3), (3,), (3, 1), (1,), (1, 4), (4,))
        assert block.dims == (2, 3, 1, 4)
        assert block.b1.tolist() == [1.0, 2.0, 3.0] and block.bc.dtype == np.float64

    @pytest.mark.parametrize("name", [*_FIELDS, "flat"])
    def test_rebinding_a_view_raises(self, name):
        block = init_params(4, 5, 3, 2, seed=1)
        view = getattr(block, name)
        before = view.copy()
        with pytest.raises(AttributeError, match=f"cannot rebind ModelParams.{name}"):
            setattr(block, name, np.zeros_like(view))
        with pytest.raises(AttributeError, match=f"cannot delete ModelParams.{name}"):
            delattr(block, name)
        assert getattr(block, name) is view and view.tobytes() == before.tobytes()
        assert view.base is block.flat or view is block.flat

    def test_augmented_assignment_writes_in_place(self):
        # p.w1 -= g changes the view and rebinds it to itself, which is allowed
        block = init_params(4, 5, 3, 2, seed=1)
        w1, want = block.w1, block.w1 - 1.0
        block.w1 -= 1.0
        assert block.w1 is w1 and block.w1.tobytes() == want.tobytes()

    def test_shapes_and_other_attributes_cannot_be_set(self):
        block = init_params(4, 5, 3, 2, seed=1)
        assert block.shapes == tuple(a.shape for a in block.arrays())
        with pytest.raises(AttributeError, match="cannot rebind ModelParams.shapes"):
            block.shapes = ((1, 1), (1,), (1, 1), (1,), (1, 1), (1,))
        with pytest.raises(AttributeError):
            block.extra = None
        assert block.shapes == ((4, 5), (5,), (5, 3), (3,), (3, 2), (2,))
