import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcidc import gradcheck
from dcidc.activations import ActivationKind
from dcidc.autoencoder import (
    Gradients,
    apply_update,
    backward,
    constraint_deltas,
    forward,
    init,
    mirror_dims,
    validate_dims,
)
from dcidc.clusters import init_indicator
from dcidc.linalg import ShapeMismatchError

TANH = ActivationKind.TANH


def reference_loss(params, batch, assignments, centers, lam1, lam2):
    """Joint loss recomputed directly from the forward trace."""
    trace = forward(params, batch)
    j1 = 0.5 * float(((batch - trace.reconstruction) ** 2).sum())
    j2 = 0.0
    if lam1 != 0.0:
        one_hot = np.eye(centers.shape[1])[assignments]
        j2 = 0.5 * lam1 * float(((trace.code - one_hot @ centers.T) ** 2).sum())
    j3 = 0.5 * lam2 * (
        sum(float((w * w).sum()) for w in params.weights)
        + sum(float((b * b).sum()) for b in params.biases)
    )
    return j1 + j2 + j3


def numeric_gradients(params, batch, assignments, centers, lam1, lam2, h=1e-6):
    """Independent central-difference probe of every scalar parameter."""
    def probe(arr):
        grad = np.zeros_like(arr)
        for i in range(arr.size):
            orig = arr.flat[i]
            arr.flat[i] = orig + h
            up = reference_loss(params, batch, assignments, centers, lam1, lam2)
            arr.flat[i] = orig - h
            down = reference_loss(params, batch, assignments, centers, lam1, lam2)
            arr.flat[i] = orig
            grad.flat[i] = (up - down) / (2 * h)
        return grad

    return [probe(w) for w in params.weights], [probe(b) for b in params.biases]


def guarded_rel(a, n):
    return np.abs(a - n) / np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-3)


def random_instance(seed, dims, n, k, kind=TANH):
    rng = np.random.default_rng(seed)
    params = init(dims, kind, kind, seed)
    batch = rng.uniform(0.0, 1.0, size=(n, dims[0]))
    assignments = init_indicator(n, k, seed)
    centers = rng.normal(0.0, 0.5, size=(dims[len(dims) // 2], k))
    return params, batch, assignments, centers


class TestInit:
    def test_deterministic(self):
        a = init([4, 2, 4], TANH, TANH, seed=11)
        b = init([4, 2, 4], TANH, TANH, seed=11)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_deep_symmetric_shape_accepted(self):
        params = init([200, 128, 64, 32, 64, 128, 200], TANH, TANH, seed=0)
        assert params.code_dim == 32
        assert [w.shape for w in params.weights][:3] == [(128, 200), (64, 128), (32, 64)]

    def test_widening_encoder_rejected(self):
        with pytest.raises(ValueError, match="non-increasing"):
            init([4, 6, 4], TANH, TANH, seed=0)

    def test_odd_layer_count_rejected(self):
        with pytest.raises(ValueError, match="even"):
            validate_dims([4, 2])

    def test_input_output_width_must_match(self):
        with pytest.raises(ValueError, match="match"):
            validate_dims([4, 2, 3])

    def test_bias_zero_and_weights_bounded(self):
        params = init([6, 3, 6], TANH, TANH, seed=5)
        assert all(np.all(b == 0.0) for b in params.biases)
        for w, fan_in, fan_out in zip(params.weights, [6, 3], [3, 6]):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            assert np.all(np.abs(w) <= limit)

    def test_mirror_dims(self):
        assert mirror_dims([10, 6, 2]) == [10, 6, 2, 6, 10]


class TestForward:
    def test_zero_params_tanh_all_zero(self):
        params = init([4, 2, 4], TANH, TANH, seed=0)
        for w in params.weights:
            w[:] = 0.0
        trace = forward(params, np.random.default_rng(0).normal(size=(3, 4)))
        assert np.all(trace.code == 0.0)
        assert np.all(trace.reconstruction == 0.0)

    def test_identity_pair_linear_regime(self):
        params = init([4, 4, 4], TANH, TANH, seed=0)
        params.weights[0][:] = np.eye(4)
        params.weights[1][:] = np.eye(4)
        x = np.random.default_rng(1).uniform(-1e-3, 1e-3, size=(5, 4))
        trace = forward(params, x)
        # exact composition oracle, then the linear-regime approximation
        assert np.array_equal(trace.reconstruction, np.tanh(np.tanh(x)))
        assert np.allclose(trace.reconstruction, x, atol=1e-8)

    def test_trace_shapes_follow_dims(self):
        dims = [7, 5, 2, 5, 7]
        params = init(dims, TANH, TANH, seed=2)
        trace = forward(params, np.zeros((9, 7)))
        assert [z.shape for z in trace.activations] == [(9, d) for d in dims]
        assert trace.pre_activations == []
        assert trace.code is trace.activations[2]

    def test_rejects_wrong_width(self):
        params = init([4, 2, 4], TANH, TANH, seed=0)
        with pytest.raises(ShapeMismatchError):
            forward(params, np.zeros((3, 5)))

    def test_pure(self):
        params, batch, *_ = random_instance(3, [5, 3, 5], 4, 2)
        t1 = forward(params, batch)
        t2 = forward(params, batch)
        assert all(np.array_equal(a, b)
                   for a, b in zip(t1.activations, t2.activations))


class TestBackward:
    def test_zero_at_perfect_reconstruction(self):
        # zero weights + zero input: reconstruction equals input exactly
        params = init([4, 2, 4], TANH, TANH, seed=0)
        for w in params.weights:
            w[:] = 0.0
        batch = np.zeros((3, 4))
        grads = backward(params, forward(params, batch), None, None, 0.0, 0.0)
        assert all(np.all(dw == 0.0) for dw in grads.d_weights)
        assert all(np.all(db == 0.0) for db in grads.d_biases)

    def test_decoder_constraint_terms_structurally_zero(self):
        params, batch, assignments, centers = random_instance(4, [5, 3, 2, 3, 5], 6, 2)
        trace = forward(params, batch)
        assert constraint_deltas(params, trace, assignments, centers).shape == (6, 2)
        with_constraint = backward(params, trace, assignments, centers, 0.3, 3e-4)
        plain = backward(params, trace, assignments, centers, 0.0, 3e-4)
        half = params.num_layers // 2
        for m in range(half, params.num_layers):
            assert np.array_equal(with_constraint.d_weights[m], plain.d_weights[m])
            assert np.array_equal(with_constraint.d_biases[m], plain.d_biases[m])
        for m in range(half):
            assert not np.array_equal(with_constraint.d_weights[m], plain.d_weights[m])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_finite_differences(self, seed):
        params, batch, assignments, centers = random_instance(seed, [5, 3, 2, 3, 5], 5, 2)
        trace = forward(params, batch)
        grads = backward(params, trace, assignments, centers, 0.3, 3e-4)
        num_w, num_b = numeric_gradients(params, batch, assignments, centers, 0.3, 3e-4)
        worst = max(
            max(guarded_rel(a, n).max() for a, n in zip(grads.d_weights, num_w)),
            max(guarded_rel(a, n).max() for a, n in zip(grads.d_biases, num_b)),
        )
        assert worst <= 1e-5

    def test_small_net_finite_differences(self):
        params, batch, assignments, centers = random_instance(9, [3, 2, 3], 5, 2)
        trace = forward(params, batch)
        grads = backward(params, trace, assignments, centers, 0.5, 0.0)
        num_w, num_b = numeric_gradients(params, batch, assignments, centers, 0.5, 0.0)
        for a, n in zip(grads.d_weights + grads.d_biases, num_w + num_b):
            assert guarded_rel(a, n).max() <= 1e-5

    def test_rejects_mismatched_centers(self):
        params, batch, assignments, _ = random_instance(2, [5, 3, 2, 3, 5], 6, 2)
        wrong = np.zeros((3, 2))  # code width is 2, not 3
        with pytest.raises(ShapeMismatchError):
            backward(params, forward(params, batch), assignments, wrong, 0.3, 0.0)

    def test_rejects_mismatched_assignments(self):
        params, batch, assignments, centers = random_instance(2, [5, 3, 2, 3, 5], 6, 2)
        trace = forward(params, batch)
        for wrong in (assignments[:5], np.eye(2)[assignments]):
            with pytest.raises(ShapeMismatchError):
                backward(params, trace, wrong, centers, 0.3, 0.0)

    def test_lambda1_zero_equals_plain_autoencoder(self):
        params, batch, _, _ = random_instance(7, [6, 4, 2, 4, 6], 8, 3)
        trace = forward(params, batch)
        got = backward(params, trace, None, None, 0.0, 3e-4)
        want = self._plain_autoencoder_gradients(params, batch, 3e-4)
        for a, b in zip(got.d_weights, want.d_weights):
            assert np.array_equal(a, b)
        for a, b in zip(got.d_biases, want.d_biases):
            assert np.array_equal(a, b)

    @staticmethod
    def _plain_autoencoder_gradients(params, batch, lam2):
        """Reconstruction + L2 backprop of a tanh net written independently.

        Keeps its own pre-activations and takes tanh's derivative from them.
        """
        acts, pre = [batch], []
        for w, b in zip(params.weights, params.biases):
            pre.append(acts[-1] @ w.T + b)
            acts.append(np.tanh(pre[-1]))

        def tanh_prime(y):
            t = np.tanh(y)
            return 1.0 - t * t

        m_total = params.num_layers
        d_weights, d_biases = [None] * m_total, [None] * m_total
        sig = -(batch - acts[-1]) * tanh_prime(pre[m_total - 1])
        for m in range(m_total, 0, -1):
            if m < m_total:
                sig = (sig @ params.weights[m]) * tanh_prime(pre[m - 1])
            d_weights[m - 1] = sig.T @ acts[m - 1] + lam2 * params.weights[m - 1]
            d_biases[m - 1] = sig.sum(axis=0) + lam2 * params.biases[m - 1]
        return Gradients(d_weights, d_biases)


@st.composite
def backward_instances(draw):
    """A random net with M in {2, 4, 6}, a batch, assignments, centers and lambdas."""
    half = draw(st.sampled_from([1, 2, 3]))
    widths = draw(st.lists(st.integers(1, 5), min_size=half + 1, max_size=half + 1))
    dims = mirror_dims(sorted(widths, reverse=True))
    enc = draw(st.sampled_from(list(ActivationKind)))
    dec = draw(st.sampled_from(list(ActivationKind)))
    seed = draw(st.integers(0, 2**16))
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, n))
    rng = np.random.default_rng(seed)
    params = init(dims, enc, dec, seed)
    batch = rng.uniform(0.0, 1.0, size=(n, dims[0]))
    centers = rng.normal(0.0, 0.5, size=(params.code_dim, k))
    lam1 = draw(st.floats(0.0, 2.0))
    lam2 = draw(st.floats(0.0, 1e-2))
    return params, batch, init_indicator(n, k, seed), centers, lam1, lam2


@given(backward_instances())
@settings(max_examples=60, deadline=None)
def test_backward_matches_finite_differences_property(instance):
    params, batch, assignments, centers, lam1, lam2 = instance
    analytic = backward(params, forward(params, batch), assignments, centers, lam1, lam2)
    numeric = gradcheck.numeric_gradients(params, batch, assignments, centers, lam1, lam2)
    worst, where = gradcheck.max_relative_error(analytic, numeric)
    assert worst <= 1e-5, where


@pytest.mark.parametrize("kind", list(ActivationKind))
def test_float32_batch_computes_in_float32(kind):
    params, batch, assignments, centers = random_instance(
        4, mirror_dims([12, 8, 5]), 40, 3, kind
    )
    trace = forward(params, batch.astype(np.float32))
    assert [a.dtype for a in trace.activations] == [np.float32] * 5
    narrow = backward(params, trace, assignments, centers, 0.3, 3e-4)
    wide = backward(params, forward(params, batch), assignments, centers, 0.3, 3e-4)
    for a, b in zip(narrow.d_weights + narrow.d_biases, wide.d_weights + wide.d_biases):
        assert a.dtype == np.float64
        assert gradcheck.relative_error(a, b).max() <= 1e-4


class TestApplyUpdate:
    def test_zero_gradients_fixed_point(self):
        params = init([4, 2, 4], TANH, TANH, seed=1)
        before = [w.copy() for w in params.weights]
        zeros = Gradients([np.zeros_like(w) for w in params.weights],
                          [np.zeros_like(b) for b in params.biases])
        apply_update(params, zeros, 0.5)
        assert all(np.array_equal(a, b) for a, b in zip(params.weights, before))

    def test_unit_rate_cancels_weights(self):
        params = init([4, 2, 4], TANH, TANH, seed=1)
        grads = Gradients([w.copy() for w in params.weights],
                          [b.copy() for b in params.biases])
        apply_update(params, grads, 1.0)
        assert all(np.all(w == 0.0) for w in params.weights)

    def test_two_steps_equal_summed_gradients(self):
        rng = np.random.default_rng(8)
        g1 = Gradients([rng.normal(size=(2, 4)), rng.normal(size=(4, 2))],
                       [rng.normal(size=2), rng.normal(size=4)])
        g2 = Gradients([rng.normal(size=(2, 4)), rng.normal(size=(4, 2))],
                       [rng.normal(size=2), rng.normal(size=4)])
        a = init([4, 2, 4], TANH, TANH, seed=3)
        b = init([4, 2, 4], TANH, TANH, seed=3)
        apply_update(a, g1, 0.1)
        apply_update(a, g2, 0.1)
        summed = Gradients([x + y for x, y in zip(g1.d_weights, g2.d_weights)],
                           [x + y for x, y in zip(g1.d_biases, g2.d_biases)])
        apply_update(b, summed, 0.1)
        for wa, wb in zip(a.weights, b.weights):
            assert np.allclose(wa, wb, atol=1e-12)

    def test_rejects_nonpositive_rate(self):
        params = init([4, 2, 4], TANH, TANH, seed=1)
        grads = Gradients([np.zeros_like(w) for w in params.weights],
                          [np.zeros_like(b) for b in params.biases])
        with pytest.raises(ValueError):
            apply_update(params, grads, 0.0)
