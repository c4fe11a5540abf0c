import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dcidc import autoencoder, gradcheck
from dcidc.activations import ActivationKind, derivative
from dcidc.autoencoder import (
    ForwardTrace,
    Gradients,
    apply_update,
    backward,
    constraint_deltas,
    encode,
    forward,
    init,
    mirror_dims,
    reconstruction_deltas,
    validate_dims,
)
from dcidc.clusters import init_indicator
from dcidc.linalg import BLOCK_ROWS, ShapeMismatchError, column_sums, row_blocks
from oracles import (
    blocked_squared_error,
    guarded_rel,
    numeric_gradients,
    reference_loss,
    whole_array_backward,
    whole_array_signals,
)

TANH = ActivationKind.TANH


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
        assert params.dims == [200, 128, 64, 32, 64, 128, 200]
        assert params.code_dim == 32
        assert [w.shape for w in params.weights][:3] == [(128, 200), (64, 128), (32, 64)]

    def test_widening_encoder_rejected(self):
        with pytest.raises(ValueError, match="non-increasing"):
            init([4, 6, 4], TANH, TANH, seed=0)

    def test_odd_layer_count_rejected(self):
        with pytest.raises(ValueError, match="even"):
            validate_dims([4, 2])

    def test_input_output_width_must_match(self):
        with pytest.raises(ValueError, match="mirror"):
            validate_dims([4, 2, 3])

    def test_bias_zero_and_weights_bounded(self):
        params = init([6, 3, 6], TANH, TANH, seed=5)
        assert all(np.all(b == 0.0) for b in params.biases)
        for w, fan_in, fan_out in zip(params.weights, [6, 3], [3, 6]):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            assert np.all(np.abs(w) <= limit)

    def test_decoder_takes_encoder_activation_unless_given(self):
        assert init([4, 2, 4], ActivationKind.SOFTPLUS, None, seed=0).dec_activation \
            is ActivationKind.SOFTPLUS
        assert init([4, 2, 4], TANH, ActivationKind.SIGMOID, seed=0).dec_activation \
            is ActivationKind.SIGMOID

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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_out_trace_reused_bit_for_bit(self, dtype):
        params, batch, *_ = random_instance(5, [6, 4, 2, 4, 6], 11, 2)
        old = forward(params, batch.astype(dtype)[::-1].copy())
        arrays = old.activations[1:]
        batch = batch.astype(dtype)
        reused = forward(params, batch, out=old)
        fresh = forward(params, batch)
        assert reused.activations[0] is batch
        assert all(a is b for a, b in zip(reused.activations[1:], arrays))
        assert all(a.tobytes() == b.tobytes()
                   for a, b in zip(reused.activations, fresh.activations))


class TestBackward:
    def test_zero_at_perfect_reconstruction(self):
        # zero weights + zero input: reconstruction equals input exactly
        params = init([4, 2, 4], TANH, TANH, seed=0)
        for w in params.weights:
            w[:] = 0.0
        batch = np.zeros((3, 4))
        labels, centers = np.zeros(3, dtype=np.int64), np.zeros((2, 1))
        grads = backward(params, forward(params, batch), labels, centers, 0.0, 0.0)
        assert all(np.all(dw == 0.0) for dw in grads.d_weights)
        assert all(np.all(db == 0.0) for db in grads.d_biases)

    def test_decoder_constraint_terms_structurally_zero(self):
        params, batch, assignments, centers = random_instance(4, [5, 3, 2, 3, 5], 6, 2)
        trace = forward(params, batch)
        slope = derivative(params.enc_activation, trace.code)
        assert constraint_deltas(trace.code, assignments, centers, slope).shape == (6, 2)
        # backward consumes its trace, so each call takes a fresh one
        with_constraint = backward(params, trace, assignments, centers, 0.3, 3e-4)
        plain = backward(params, forward(params, batch), assignments, centers, 0.0, 3e-4)
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

    MISMATCHES = {  # name -> (assignments, centers) from the good ones
        "short assignments": lambda a, c: (a[:5], c),
        "one-hot assignments": lambda a, c: (np.eye(2)[a], c),
        "centers of the wrong width": lambda a, c: (a, np.zeros((3, 2))),
    }

    @pytest.mark.parametrize("mismatch", sorted(MISMATCHES))
    def test_refused_call_leaves_trace_unchanged(self, mismatch):
        """Shapes are checked before the pass writes its first signal."""
        params, batch, assignments, centers = random_instance(2, [5, 3, 2, 3, 5], 6, 2)
        trace = forward(params, batch)
        snapshot = [a.tobytes() for a in trace.activations]
        wrong = self.MISMATCHES[mismatch](assignments, centers)
        with pytest.raises(ShapeMismatchError):
            backward(params, trace, *wrong, 0.3, 0.0)
        assert [a.tobytes() for a in trace.activations] == snapshot

    @pytest.mark.parametrize("cut", [np.s_[:5], np.s_[:, :2]])
    def test_refused_trace_left_unchanged(self, cut):
        """A hidden layer short of a row or of a column."""
        params, batch, assignments, centers = random_instance(2, [5, 3, 2, 3, 5], 6, 2)
        trace = forward(params, batch)
        trace.activations[1] = trace.activations[1][cut]
        snapshot = [a.tobytes() for a in trace.activations]
        with pytest.raises(ShapeMismatchError, match="every layer's output"):
            backward(params, trace, assignments, centers, 0.3, 0.0)
        assert [a.tobytes() for a in trace.activations] == snapshot

    def test_lambda1_zero_equals_plain_autoencoder(self):
        self._assert_equals_plain_autoencoder([6, 4, 2, 4, 6], 8)

    # a width-1 code takes column_sums' one-column branch, 16-wide rows its
    # row-order branch; a few thousand rows tell either from another order
    @pytest.mark.parametrize("dims", [[3, 2, 1, 2, 3], [16, 16, 16]])
    def test_lambda1_zero_equals_plain_autoencoder_on_long_batches(self, dims):
        self._assert_equals_plain_autoencoder(dims, 3000)

    def _assert_equals_plain_autoencoder(self, dims, n):
        params, batch, assignments, centers = random_instance(7, dims, n, 3)
        trace = forward(params, batch)
        got = backward(params, trace, assignments, centers, 0.0, 3e-4)
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


@st.composite
def wide_range_instances(draw):
    """A 4-3-2-3-4 net of one activation kind with a float32 or float64 batch
    of mixed-sign values, some large enough to saturate the first layer."""
    kind = draw(st.sampled_from(list(ActivationKind)))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    width = 8 * np.dtype(dtype).itemsize
    seed = draw(st.integers(0, 2**16))
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, n))
    elements = st.one_of(st.floats(-6, 6, width=width),
                         st.floats(-1e3, 1e3, width=width))
    batch = draw(arrays(dtype, (n, 4), elements=elements))
    params = init(mirror_dims([4, 3, 2]), kind, kind, seed)
    centers = np.random.default_rng(seed).normal(0.0, 0.5, size=(2, k))
    return params, batch, init_indicator(n, k, seed), centers


@given(wide_range_instances())
@settings(max_examples=100, deadline=None)
def test_reconstruction_deltas_match_plain_expression(instance):
    params, batch, *_ = instance
    trace = forward(params, batch)
    out = trace.reconstruction
    plain = -(batch - out) * derivative(params.dec_activation, out)
    before = batch.tobytes()
    delta = reconstruction_deltas(params, trace)
    # out - x is -(x - out) bit for bit, but for the sign of exact zeros,
    # which array_equal does not see
    assert delta.dtype == plain.dtype and np.array_equal(delta, plain)
    assert delta is out and batch.tobytes() == before


@given(wide_range_instances())
@settings(max_examples=100, deadline=None)
def test_constraint_deltas_match_plain_expression(instance):
    params, batch, assignments, centers = instance
    trace = forward(params, batch)
    code = trace.code
    assigned = (np.eye(centers.shape[1])[assignments] @ centers.T).astype(code.dtype)
    slope = derivative(params.enc_activation, code)
    plain = (code - assigned) * slope
    delta = constraint_deltas(code, assignments, centers, slope)
    assert delta.dtype == plain.dtype and delta.tobytes() == plain.tobytes()
    # a block of rows, as backward passes it
    tail = constraint_deltas(code[1:], assignments[1:], centers, slope[1:])
    assert tail.tobytes() == plain[1:].tobytes()


def test_backward_takes_one_derivative_per_layer_block(monkeypatch):
    """The code layer's constraint signal reuses the slope backward has
    computed for the block, so each layer takes one derivative per block,
    and the gradients keep the bits of a constraint signal that computes
    its own."""
    n = 2 * BLOCK_ROWS + 5
    dims = mirror_dims([6, 4, 2])
    params, batch, assignments, centers = random_instance(8, dims, n, 3)
    batch = batch.astype(np.float32)
    # a constraint signal that takes its own derivative of the code block
    def own_slope(code, assignments, centers, slope):
        return constraint_deltas(code, assignments, centers,
                                 derivative(params.enc_activation, code))

    monkeypatch.setattr(autoencoder, "constraint_deltas", own_slope)
    want = backward(params, forward(params, batch), assignments, centers, 0.3, 1e-3)
    monkeypatch.undo()
    calls = []

    def spy(kind, z, out=None):
        calls.append(z.shape[0])
        return derivative(kind, z, out=out)

    monkeypatch.setattr(autoencoder, "derivative", spy)
    got = backward(params, forward(params, batch), assignments, centers, 0.3, 1e-3)
    blocks = [r.stop - r.start for r in row_blocks(n)]
    assert calls == blocks * params.num_layers
    for a, b in zip(got.d_weights + got.d_biases, want.d_weights + want.d_biases):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind", list(ActivationKind))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_passes_share_and_overwrite_no_trace_array(kind, dtype):
    """forward shares no array between layers and leaves the batch as it
    was; backward writes each layer's signal over that layer's output,
    never over the batch."""
    params, batch, assignments, centers = random_instance(
        6, mirror_dims([6, 4, 2]), 9, 2, kind
    )
    batch = batch.astype(dtype)
    before = batch.copy()
    trace = forward(params, batch)
    assert batch.tobytes() == before.tobytes()
    acts = trace.activations
    assert acts[0] is batch
    for i in range(1, len(acts)):
        for j in range(i):
            assert not np.shares_memory(acts[i], acts[j]), (i, j)
    signals = whole_array_signals(params, trace, assignments, centers, 0.3)
    backward(params, trace, assignments, centers, 0.3, 3e-4)
    assert acts[0] is batch and batch.tobytes() == before.tobytes()
    for m, signal in enumerate(signals, start=1):
        assert acts[m].dtype == signal.dtype and acts[m].tobytes() == signal.tobytes(), m


BLOCKED_NETS = {1: [1, 1, 1], 16: [16, 16, 16, 16, 16], 200: [200, 128, 64, 32]}


@pytest.mark.parametrize("width", sorted(BLOCKED_NETS))
@pytest.mark.parametrize("case", range(4))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_row_blocked_backward_equals_whole_array_oracle(width, case, dtype):
    """Row counts on both sides of the block boundaries."""
    n = [1, BLOCK_ROWS - 1, BLOCK_ROWS, 3 * BLOCK_ROWS + 7][case]
    kinds = list(ActivationKind)
    enc, dec = kinds[case], kinds[(case + width) % len(kinds)]
    dims = mirror_dims(BLOCKED_NETS[width])
    rng = np.random.default_rng(case)
    params = init(dims, enc, dec, case)
    batch = rng.uniform(0.0, 1.0, size=(n, width)).astype(dtype)
    k = min(n, 3)
    centers = rng.normal(0.0, 0.5, size=(params.code_dim, k))
    assignments = init_indicator(n, k, case)
    trace = forward(params, batch)
    want = whole_array_backward(params, trace, assignments, centers, 0.3, 3e-4)
    got = backward(params, trace, assignments, centers, 0.3, 3e-4)
    for a, b in zip(got.d_weights + got.d_biases, want.d_weights + want.d_biases):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dims", [[16, 16, 16], mirror_dims([200, 128, 64, 32])])
def test_backward_holds_a_few_blocks_besides_the_gradients(dims):
    """Each signal is written over the trace, so at the peak no n-row array
    is live: one block of derivatives of the widest layer, or at the code
    layer three blocks (the derivative, the constraint signal and its
    derivative), besides the gradients, their transient products (at most
    as large again) and slack."""
    n, slack = 20000, 16 * 1024
    params, batch, assignments, centers = random_instance(5, dims, n, 9)
    trace = forward(params, batch.astype(np.float32))
    tracemalloc.start()
    try:
        backward(params, trace, assignments, centers, 0.3, 3e-4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    gradients = sum(a.nbytes for a in params.weights + params.biases)
    blocks = BLOCK_ROWS * max(max(dims), 3 * params.code_dim) * 4
    assert peak <= blocks + 2 * gradients + slack


ENCODE_NETS = {"200-128-64-32": [200, 128, 64, 32], "16-16": [16, 16],
               "10-8-6": [10, 8, 6]}
# (j, t): n = BLOCK_ROWS * j + t rows; j = 0 is a batch below one block
ENCODE_ROWS = [(0, BLOCK_ROWS // 3), (1, 1), (3, 2), (1, 9), (3, 37), (1, 63),
               (2, BLOCK_ROWS - 1)]


@pytest.mark.parametrize("encoder", sorted(ENCODE_NETS))
@pytest.mark.parametrize("j, t", ENCODE_ROWS)
def test_encode_decode_equals_forward_byte_for_byte(encoder, j, t, monkeypatch):
    """Row counts just past block multiples, where a tail block would be
    short; encode's trace has the whole-batch forward's bits, every layer's
    or only the codes', and its error is j1's blocked sum over the whole
    batch's reconstruction."""
    n = BLOCK_ROWS * j + t
    dims = mirror_dims(ENCODE_NETS[encoder])
    params = init(dims, TANH, ActivationKind.SIGMOID, seed=t)
    batch = np.random.default_rng(t).uniform(0, 1, size=(n, dims[0])).astype(np.float32)
    whole = forward(params, batch)
    want_error = blocked_squared_error(batch, whole.reconstruction)
    calls = []

    def spy(params, batch, out=None):
        calls.append(batch.shape[0])
        return forward(params, batch, out=out)

    monkeypatch.setattr(autoencoder, "forward", spy)
    for every_layer in (True, False):
        calls.clear()
        trace, error = encode(params, batch, every_layer)
        rows = [n if every_layer or m in (0, len(dims) // 2) else 0
                for m in range(len(dims))]
        assert [z.shape[0] for z in trace.activations] == rows
        assert trace.activations[0] is batch and error == want_error
        for got, want in zip(trace.activations, whole.activations):
            assert got.dtype == want.dtype and got.shape[1] == want.shape[1]
            assert got.shape[0] == 0 or got.tobytes() == want.tobytes()
        assert calls == [r.stop - r.start for r in row_blocks(n)]
        assert len(calls) == -(-n // BLOCK_ROWS) and min(calls) >= min(n, BLOCK_ROWS // 2)
        again, again_error = encode(params, batch, every_layer, out=trace)
        assert again_error == error
        assert all(a is b for a, b in zip(again.activations, trace.activations))
        assert again.code.tobytes() == whole.code.tobytes()


def test_encode_codes_only_trace_cannot_reach_backward():
    """backward refuses a trace short of a layer, and encode's trace of the
    codes alone even where the code is the only hidden layer; encode's
    trace of every layer gives forward's gradients."""
    params, batch, assignments, centers = random_instance(3, mirror_dims([6, 4, 3]), 10, 2)
    whole = forward(params, batch)
    thin = ForwardTrace([batch, whole.code, whole.reconstruction])
    with pytest.raises(ShapeMismatchError, match="every layer's output"):
        backward(params, thin, assignments, centers, 0.3, 3e-4)
    params, batch, assignments, centers = random_instance(3, mirror_dims([6, 4]), 10, 2)
    codes_only, _ = encode(params, batch, every_layer=False)
    assert [z.shape[0] for z in codes_only.activations] == [10, 10, 0]
    with pytest.raises(ShapeMismatchError, match="every layer's output for all 10 rows"):
        backward(params, codes_only, assignments, centers, 0.3, 3e-4)
    got = backward(params, encode(params, batch, every_layer=True)[0],
                   assignments, centers, 0.3, 3e-4)
    want = backward(params, forward(params, batch), assignments, centers, 0.3, 3e-4)
    for a, b in zip(got.d_weights + got.d_biases, want.d_weights + want.d_biases):
        assert a.tobytes() == b.tobytes()


LOSS_KINDS = [(TANH, None), (TANH, ActivationKind.SIGMOID),
              (ActivationKind.SOFTPLUS, ActivationKind.NSSIGMOID),
              (ActivationKind.SIGMOID, TANH)]


@pytest.mark.parametrize("n", [1, 37, BLOCK_ROWS + 37])
@pytest.mark.parametrize("enc, dec", LOSS_KINDS)
@pytest.mark.parametrize("lam1", [0.0, 0.3])
def test_total_loss_matches_reference_loss(n, enc, dec, lam1):
    """The loss the gradient checks difference, on float64 batches of one
    row, a few rows and more than one block, against the oracle's."""
    dims = mirror_dims([6, 4, 3])
    rng = np.random.default_rng(n)
    params = init(dims, enc, dec, seed=n)
    batch = rng.uniform(0.0, 1.0, size=(n, dims[0]))
    assignments = rng.integers(0, 2, size=n)
    centers = rng.normal(0.0, 0.5, size=(3, 2))
    got = gradcheck.total_loss(params, batch, assignments, centers, lam1, 3e-4)
    want = reference_loss(params, batch, assignments, centers, lam1, 3e-4)
    assert abs(got - want) <= 1e-12 * abs(want)


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
