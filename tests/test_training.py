import math
import tracemalloc

import numpy as np
import pytest

from dcidc import autoencoder, clusters
from dcidc.activations import ActivationKind
from dcidc.autoencoder import ForwardTrace, forward, init, mirror_dims
from dcidc.clusters import ClusterState, init_indicator
from dcidc.data import normalize, synth_blobs
from dcidc.linalg import BLOCK_ROWS
from dcidc.training import DivergenceError, TrainConfig, loss_terms, train
from oracles import whole_array_backward, whole_batch_forward

TANH = ActivationKind.TANH


@pytest.fixture(params=["numpy", "short-rounds-up"])
def matmul(request, monkeypatch):
    """np.matmul as numpy has it, or as a BLAS that rounds a product over a
    short left operand (under 64 rows) otherwise than a long one's: numpy's
    product, then every entry moved one ulp up.  forward and backward call np.matmul
    through the numpy module, so the swap reaches every row block they
    multiply; a block cut short then shows in the bits."""
    if request.param == "short-rounds-up":
        exact = np.matmul

        def rounding(a, b, *args, **kwargs):
            product = exact(a, b, *args, **kwargs)
            if np.ndim(a) == 2 and np.shape(a)[0] < 64:
                np.nextafter(product, np.inf, out=product)
            return product

        monkeypatch.setattr(np, "matmul", rounding)


def scalar_loss_terms(params, trace, labels, centers, lam1, lam2):
    """Entry-by-entry loop oracle for the three loss terms."""
    x, r, code = trace.activations[0], trace.reconstruction, trace.code
    j1 = 0.0
    for i in range(x.shape[0]):
        for d in range(x.shape[1]):
            j1 += 0.5 * (x[i, d] - r[i, d]) ** 2
    j2 = 0.0
    for i in range(code.shape[0]):
        cluster = int(labels[i])
        for d in range(code.shape[1]):
            j2 += 0.5 * lam1 * (code[i, d] - centers[d, cluster]) ** 2
    j3 = 0.0
    for w in params.weights:
        for v in w.ravel():
            j3 += 0.5 * lam2 * v * v
    for b in params.biases:
        for v in b:
            j3 += 0.5 * lam2 * v * v
    return j1, j2, j3


def trace_loss_terms(params, trace, state, lam1, lam2):
    """loss_terms as an epoch calls it, with forward's error of the batch."""
    return loss_terms(params, trace.squared_error, trace.code, state, lam1, lam2)


def small_blobs(seed, sep=6.0):
    ds = synth_blobs(40, 3, 5, sep, 1.0, seed)
    return normalize(ds)


class TestLossTerms:
    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(12)
        params = init([6, 4, 2, 4, 6], TANH, TANH, seed=12)
        batch = rng.uniform(0, 1, size=(7, 6))
        trace = forward(params, batch)
        labels = init_indicator(7, 3, seed=12)
        centers = rng.normal(size=(2, 3))
        state = ClusterState(centers, labels)
        total, j1, j2, j3 = trace_loss_terms(params, trace, state, 0.3, 3e-4)
        o1, o2, o3 = scalar_loss_terms(params, trace, labels, centers, 0.3, 3e-4)
        assert j1 == pytest.approx(o1, abs=1e-10)
        assert j2 == pytest.approx(o2, abs=1e-10)
        assert j3 == pytest.approx(o3, abs=1e-10)
        assert total == j1 + j2 + j3

    def test_all_zero_at_global_optimum(self):
        params = init([4, 2, 4], TANH, TANH, seed=0)
        for w in params.weights:
            w[:] = 0.0
        batch = np.zeros((3, 4))
        trace = forward(params, batch)
        state = ClusterState(np.zeros((2, 2)), init_indicator(3, 2, 0))
        assert trace_loss_terms(params, trace, state, 0.3, 3e-4) == (0.0, 0.0, 0.0, 0.0)

    def test_lambda1_zero_kills_j2(self):
        rng = np.random.default_rng(3)
        params = init([4, 2, 4], TANH, TANH, seed=3)
        trace = forward(params, rng.uniform(0, 1, size=(5, 4)))
        state = ClusterState(rng.normal(size=(2, 2)), init_indicator(5, 2, 3))
        _, _, j2, _ = trace_loss_terms(params, trace, state, 0.0, 3e-4)
        assert j2 == 0.0

    def test_blocked_sums_match_fsum_oracle(self):
        """Three full blocks and a tail, in float32 as train runs: j1 and j2
        are within 1e-12 of the correctly rounded sums of their squares."""
        n = 3 * BLOCK_ROWS + 7
        rng = np.random.default_rng(13)
        params = init(mirror_dims([10, 8, 6]), TANH, TANH, seed=13)
        trace = forward(params, rng.uniform(0, 1, size=(n, 10)).astype(np.float32))
        labels = init_indicator(n, 4, seed=13)
        centers = rng.normal(size=(6, 4))
        _, j1, j2, _ = trace_loss_terms(params, trace, ClusterState(centers, labels),
                                        0.3, 3e-4)
        x, r, code = trace.activations[0], trace.reconstruction, trace.code
        # a float32 difference squares exactly in float64
        o1 = 0.5 * math.fsum((np.subtract(x, r).astype(np.float64) ** 2).ravel())
        o2 = 0.5 * 0.3 * math.fsum(((code - centers.T[labels]) ** 2).ravel())
        assert abs(j1 - o1) <= 1e-12 * o1 and abs(j2 - o2) <= 1e-12 * o2


class TestConfig:
    def test_rejects_negative_lambda1(self):
        with pytest.raises(ValueError):
            TrainConfig(k=2, lambda1=-1.0)

    def test_rejects_bad_lr_tol_batch(self):
        with pytest.raises(ValueError):
            TrainConfig(k=2, lr=0.0)
        with pytest.raises(ValueError):
            TrainConfig(k=2, tol=0.0)
        with pytest.raises(ValueError):
            TrainConfig(k=2, batch_size=0)


class TestTrain:
    def test_deterministic(self):
        ds = small_blobs(0)
        cfg = TrainConfig(k=3, max_epochs=20, seed=4)
        dims = mirror_dims([5, 4, 3])
        _, _, first = train(ds.features, cfg, dims, labels=ds.labels)
        _, _, second = train(ds.features, cfg, dims, labels=ds.labels)
        assert first == second

    def test_zero_epochs_returns_initialized_state(self):
        ds = small_blobs(1)
        cfg = TrainConfig(k=3, max_epochs=0, seed=1)
        params, state, reports = train(ds.features, cfg, mirror_dims([5, 4, 3]))
        assert len(reports) == 1 and reports[0].epoch == 0
        fresh = init(mirror_dims([5, 4, 3]), TANH, TANH, seed=1)
        assert all(np.array_equal(a, b)
                   for a, b in zip(params.weights, fresh.weights))
        assert np.array_equal(state.indicator, init_indicator(ds.n, 3, seed=1))

    def test_loss_decomposition_and_one_hot_every_epoch(self):
        ds = small_blobs(2)
        seen = []

        def check(report, params, state):
            h = state.indicator
            assert h.shape == (ds.n,) and np.issubdtype(h.dtype, np.integer)
            assert np.all((0 <= h) & (h < 3))
            assert report.j_total == report.j1 + report.j2 + report.j3
            seen.append(report.epoch)

        cfg = TrainConfig(k=3, max_epochs=15, seed=2)
        train(ds.features, cfg, mirror_dims([5, 4, 3]), labels=ds.labels,
              on_epoch=check)
        assert seen == list(range(16))

    def test_unconstrained_run_has_zero_j2_j3(self):
        ds = small_blobs(3)
        cfg = TrainConfig(k=3, lambda1=0.0, lambda2=0.0, max_epochs=10, seed=3)
        _, _, reports = train(ds.features, cfg, mirror_dims([5, 4, 3]))
        assert all(r.j2 == 0.0 for r in reports)
        assert all(r.j3 == 0.0 for r in reports)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("batch_size", [None, 16])
    def test_divergence_reports_epoch(self, batch_size):
        ds = small_blobs(4)
        cfg = TrainConfig(k=3, lr=1e6, max_epochs=50, seed=4, batch_size=batch_size)
        with pytest.raises(DivergenceError) as info:
            train(ds.features, cfg, mirror_dims([5, 4, 3]),
                  enc_activation=ActivationKind.SOFTPLUS)
        assert info.value.epoch >= 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_feature_beyond_float32_raises_value_error(self):
        """train runs in float32, so a value float32 cannot hold is bad
        input, refused before any epoch, without an overflow warning."""
        data = small_blobs(5).features.copy()
        data[4, 2] = 1e39
        with pytest.raises(ValueError, match="data: a feature value is beyond float32"):
            train(data, TrainConfig(k=3, max_epochs=3, seed=5), mirror_dims([5, 4, 3]))

    def test_minibatch_path_is_deterministic(self):
        ds = small_blobs(5)
        cfg = TrainConfig(k=3, max_epochs=10, seed=5, batch_size=32)
        dims = mirror_dims([5, 4, 3])
        _, _, a = train(ds.features, cfg, dims)
        _, _, b = train(ds.features, cfg, dims)
        assert a == b

    @pytest.mark.parametrize("batch_size", [None, 32])
    def test_autoencoder_sees_float32_batches(self, monkeypatch, batch_size):
        seen = []

        def spy(params, batch, every_layer=True, out=None):
            seen.append(batch.dtype)
            return forward(params, batch, every_layer, out)

        monkeypatch.setattr(autoencoder, "forward", spy)
        ds = small_blobs(5)
        assert ds.features.dtype == np.float64
        cfg = TrainConfig(k=3, max_epochs=3, seed=5, batch_size=batch_size)
        params, state, _ = train(ds.features, cfg, mirror_dims([5, 4, 3]))
        assert len(seen) == (4 if batch_size is None else 4 + 3 * 4)
        assert set(seen) == {np.dtype(np.float32)}
        assert {a.dtype for a in params.weights + params.biases} == {np.dtype(np.float64)}
        assert state.centers.dtype == np.float64

    def test_full_batch_forward_reuses_last_trace(self, monkeypatch):
        # the epoch's n-row arrays are written again, not freed and refaulted
        traces, given, backward_traces = [], [], []

        def spy(params, batch, every_layer=True, out=None):
            given.append(out)
            traces.append(forward(params, batch, every_layer, out))
            return traces[-1]

        def backward_spy(params, trace, *args):
            backward_traces.append(trace)
            return backward(params, trace, *args)

        backward = autoencoder.backward
        monkeypatch.setattr(autoencoder, "forward", spy)
        monkeypatch.setattr(autoencoder, "backward", backward_spy)
        ds, cfg = small_blobs(5), TrainConfig(k=3, max_epochs=3, seed=5)
        train(ds.features, cfg, mirror_dims([5, 4, 3]))
        assert len(given) == 4 and given[0] is None
        assert all(out is trace for out, trace in zip(given[1:], traces))
        assert len(backward_traces) == 3
        assert all(a is b for a, b in zip(backward_traces, traces))
        first = traces[0].activations[1:]
        assert all(z.shape[0] == ds.n for z in first)
        assert all(a is b for trace in traces for a, b in zip(trace.activations[1:], first))

    @pytest.mark.parametrize("batch_size", [None, 256])
    def test_column_sums_leave_train_byte_identical(self, monkeypatch, batch_size):
        ds = normalize(synth_blobs(1000, 3, 10, 6.0, 1.0, seed=6))
        cfg = TrainConfig(k=3, max_epochs=20, seed=6, batch_size=batch_size)
        dims = mirror_dims([10, 8, 6])
        fast = train(ds.features, cfg, dims, labels=ds.labels)
        summed = []

        def plain_sums(a):
            summed.append(a.shape)
            return a.sum(axis=0)

        for module in (autoencoder, clusters):
            monkeypatch.setattr(module, "column_sums", plain_sums)
        plain = train(ds.features, cfg, dims, labels=ds.labels)
        assert (256 if batch_size else 3000) in {shape[0] for shape in summed}

        def run_bytes(params, state, reports):
            arrays = params.weights + params.biases + [state.centers, state.indicator]
            return [a.tobytes() for a in arrays], repr(reports)

        assert run_bytes(*fast) == run_bytes(*plain)

    @pytest.mark.parametrize("batch_size", [None, 7, 64, 256])
    def test_blocked_epoch_forward_leaves_train_byte_identical(self, monkeypatch,
                                                               batch_size, matmul):
        """Rows enough for three forward blocks, so the codes of an epoch,
        and for a full batch the trace of its backward pass, come from
        several row blocks: train runs as with one whole-batch forward.  A
        mini-batch of at most 256 rows is one block."""
        n = 2 * BLOCK_ROWS + 37
        ds = normalize(synth_blobs(n // 3 + 1, 3, 10, 6.0, 1.0, seed=8))
        cfg = TrainConfig(k=3, max_epochs=3, seed=8, batch_size=batch_size)
        dims = mirror_dims([10, 8, 6])
        blocked = train(ds.features, cfg, dims, labels=ds.labels)

        calls = []

        def whole_batch(params, batch, every_layer=True, out=None):
            calls.append((batch.shape[0], every_layer))
            return whole_batch_forward(params, batch)

        monkeypatch.setattr(autoencoder, "forward", whole_batch)
        whole = train(ds.features, cfg, dims, labels=ds.labels)
        epoch = [(ds.n, batch_size is None)]
        if batch_size is not None:
            epoch += [(min(batch_size, ds.n - s), True) for s in range(0, ds.n, batch_size)]
        assert calls == epoch * 3 + epoch[:1]

        def run_bytes(params, state, reports):
            arrays = params.weights + params.biases + [state.centers, state.indicator]
            return [a.tobytes() for a in arrays], repr(reports)

        assert run_bytes(*blocked) == run_bytes(*whole)

    @pytest.mark.parametrize("batch_size", [None, 256])
    def test_in_place_backward_leaves_train_byte_identical(self, monkeypatch, batch_size,
                                                           matmul):
        """Rows enough for three row blocks in each full-batch signal: in
        both batch modes train runs as with the out-of-place whole-array
        backward, given a copy of each trace."""
        ds = normalize(synth_blobs((2 * BLOCK_ROWS + 37) // 3 + 1, 3, 10, 6.0, 1.0, seed=11))
        cfg = TrainConfig(k=3, max_epochs=3, seed=11, batch_size=batch_size)
        dims = mirror_dims([10, 8, 6])
        in_place = train(ds.features, cfg, dims, labels=ds.labels)

        rows = []

        def out_of_place(params, trace, *args):
            rows.append(trace.activations[0].shape[0])
            copy = ForwardTrace([a.copy() for a in trace.activations],
                                trace.squared_error)
            return whole_array_backward(params, copy, *args)

        monkeypatch.setattr(autoencoder, "backward", out_of_place)
        whole = train(ds.features, cfg, dims, labels=ds.labels)
        per_epoch = [ds.n] if batch_size is None else [256] * 16 + [ds.n % 256]
        assert rows == per_epoch * 3

        def run_bytes(params, state, reports):
            arrays = params.weights + params.biases + [state.centers, state.indicator]
            return [a.tobytes() for a in arrays], repr(reports)

        assert run_bytes(*in_place) == run_bytes(*whole)

    def test_minibatch_epoch_holds_no_whole_data_hidden_layer(self):
        """At the peak: the codes of all n rows and one forward block,
        besides arrays the size of the parameters or of a mini-batch
        (slack); never a hidden layer, the reconstruction or a difference
        of all rows.  The float32 input is made before tracing starts, and
        train takes it without a copy."""
        encoder, batch_size, slack = [200, 128, 64, 32], 256, 1024 * 1024
        n = 8 * BLOCK_ROWS + 3616
        dims = mirror_dims(encoder)
        data = np.random.default_rng(9).uniform(0, 1, size=(n, 200)).astype(np.float32)
        cfg = TrainConfig(k=16, max_epochs=2, seed=9, lr=1e-6, batch_size=batch_size)
        tracemalloc.start()
        try:
            train(data, cfg, dims)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        codes = n * 32 * 4
        forward_block = BLOCK_ROWS * sum(dims[1:]) * 4
        assert peak <= codes + forward_block + slack

    def test_full_batch_epoch_holds_trace_and_two_blocks(self):
        """At the peak: every layer's output for all n rows and two blocks
        of the widest layer, besides arrays the size of the parameters
        (slack); the backward pass writes its signals over the trace.  The
        float32 input is made before tracing starts, and train takes it
        without a copy."""
        encoder, slack = [200, 128, 64, 32], 1024 * 1024
        n = 8 * BLOCK_ROWS + 3616
        dims = mirror_dims(encoder)
        data = np.random.default_rng(9).uniform(0, 1, size=(n, 200)).astype(np.float32)
        cfg = TrainConfig(k=16, max_epochs=2, seed=9, lr=1e-6)
        tracemalloc.start()
        try:
            train(data, cfg, dims)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        trace = n * sum(dims[1:]) * 4
        blocks = 2 * BLOCK_ROWS * max(dims) * 4
        assert peak <= trace + blocks + slack

    def test_full_batch_and_minibatch_losses_equal_bit_for_bit(self):
        """The same parameters at epoch 0: the full batch's forward keeps
        every layer and the mini-batch epoch's only the codes, and both sum
        j1 to the same bits."""
        n = 2 * BLOCK_ROWS + 37
        ds = normalize(synth_blobs(n // 3 + 1, 3, 10, 6.0, 1.0, seed=10))
        dims = mirror_dims([10, 8, 6])
        reports = [
            train(ds.features, TrainConfig(k=3, max_epochs=0, seed=10,
                                           batch_size=batch_size), dims)[2]
            for batch_size in (None, 256)
        ]
        assert reports[0] == reports[1] and reports[0][0].j1 > 0.0

    def test_loss_drops_in_first_epochs_across_seeds(self):
        wins = 0
        for seed in range(5):
            ds = normalize(synth_blobs(200, 3, 10, 6.0, 1.0, seed))
            cfg = TrainConfig(k=3, max_epochs=5, seed=seed)
            _, _, reports = train(ds.features, cfg, mirror_dims([10, 6, 3]))
            wins += reports[5].j_total < reports[0].j_total
        assert wins >= 4

    def test_blob_benchmark_narrow_code(self):
        # three well-separated 10-D blobs, bottleneck of width 2
        ds = normalize(synth_blobs(200, 3, 10, 6.0, 1.0, seed=0))
        cfg = TrainConfig(k=3, seed=0)
        _, state, reports = train(
            ds.features, cfg, mirror_dims([10, 6, 2]), labels=ds.labels
        )
        assert reports[-1].accuracy >= 0.95
        # the instance is easy in the raw space too: nearest true center wins
        # a noise-0 draw of the same seed puts each point on its center
        centers = synth_blobs(200, 3, 10, 6.0, 0.0, 0).features[::200]
        raw = synth_blobs(200, 3, 10, 6.0, 1.0, 0).features
        nearest = np.argmin(
            ((raw[:, None, :] - centers[None]) ** 2).sum(axis=2), axis=1
        )
        assert (nearest == ds.labels).mean() > 0.9

    def test_convergence_stops_early(self):
        # constant data reconstructs quickly; the run should stop well
        # before max_epochs once j_total flattens
        data = np.full((20, 4), 0.5)
        cfg = TrainConfig(k=2, max_epochs=5000, tol=1e-4, seed=0, lr=1e-2)
        _, _, reports = train(data, cfg, mirror_dims([4, 3, 2]))
        assert reports[-1].epoch < 5000
