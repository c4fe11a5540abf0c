"""Symmetric fully-connected autoencoder with hand-derived gradients.

The network applies M nonlinear layers (M even): the first M/2 form the
encoder, whose final output is the low-dimensional code, and the last M/2
form the decoder producing the reconstruction.  Layer m computes
``z_m = g_m(W_m z_{m-1} + b_m)`` with ``W_m`` of shape
``(dims[m], dims[m-1])``.  Batches are row-major: one sample per row, so the
batch form of a layer is ``Z_m = g_m(Z_{m-1} W_m^T + b_m)``.

Gradients of the joint loss (reconstruction + weighted intra-class distance
of the codes + L2 regularizer) are computed by one backward pass from layer
M down to layer 1, started by the reconstruction signal at the output.  The
loss is linear in its two error signals, so the cluster constraint's signal
joins the running one at the code layer, formed only when the pass gets
there.  Activation derivatives are taken from layer outputs, so a forward
trace keeps only those.  Cluster assignments and centers are constants
here, updated elsewhere in closed form.

A trace is every layer's output: what ``backward`` needs.  Both batch
modes take an epoch's forward over all samples from ``encode``, which runs
``forward`` one row block at a time (``linalg.row_blocks``) and sums the
squared reconstruction error, one float64 partial sum per block, as it
goes.  For a full batch it keeps every layer's n rows, the trace the
backward pass then takes; for a mini-batch epoch it keeps only the codes,
which is what the cluster updates and the loss read.  The backward pass
consumes its trace: a layer's output is dead once the layer above has
formed its gradients from it, so each layer's signal is written over it,
one row block at a time, and the pass allocates no batch-sized array.

Parameters are float64 master weights.  A pass computes in the float type of
its batch: training feeds float32, so the bulk arithmetic runs in float32,
while the gradients come back float64 (the regularizer term adds the
float64 parameters) and the update is applied in float64.  A float64 batch,
as the gradient checks pass, runs wholly in float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import clusters
from .activations import ActivationKind, apply, derivative
from .linalg import BLOCK_ROWS, ShapeMismatchError, column_sums, frobenius_sq, row_blocks
from .seeding import substream


@dataclass
class NetworkParams:
    """Weights, biases, and activation choices."""

    weights: list[np.ndarray]          # weights[i] maps layer i to layer i+1
    biases: list[np.ndarray]
    enc_activation: ActivationKind
    dec_activation: ActivationKind

    @property
    def dims(self) -> list[int]:
        """Layer widths, the input first, read off the weight shapes."""
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    @property
    def code_dim(self) -> int:
        return self.dims[len(self.dims) // 2]

    def layer_activation(self, m: int) -> ActivationKind:
        """Activation of 1-indexed layer m (encoder half vs decoder half)."""
        return self.enc_activation if m <= self.num_layers // 2 else self.dec_activation


@dataclass
class ForwardTrace:
    """Every layer's output for one batch, from forward.

    activations[0] is the input batch and activations[m] the output of
    layer m, so the code sits in the middle and the reconstruction last.
    backward consumes a trace: it writes its signals over the outputs.
    """

    activations: list[np.ndarray]

    @property
    def pre_activations(self) -> list[np.ndarray]:
        """Always empty.  Exists only for the benchmark tracer, which reads it;
        goes when the next benchmark change drops that read."""
        return []

    @property
    def code(self) -> np.ndarray:
        return self.activations[(len(self.activations) - 1) // 2]

    @property
    def reconstruction(self) -> np.ndarray:
        return self.activations[-1]


@dataclass
class Gradients:
    d_weights: list[np.ndarray]
    d_biases: list[np.ndarray]


def mirror_dims(encoder_dims: list[int]) -> list[int]:
    """Expand encoder widths [D, d1, ..., dk] to the full symmetric net."""
    if len(encoder_dims) < 2:
        raise ValueError("need at least an input width and one encoder width")
    return list(encoder_dims) + list(reversed(encoder_dims[:-1]))


def default_dims(d: int, k: int) -> list[int]:
    """Encoder widths incl. the input: the standard wide shapes by band count.
    A run given no dims trains these, so an edit here is an engine change."""
    known = {200: [200, 128, 64, 32], 100: [100, 72, 36, 25]}
    return known.get(d, [d, max(d // 2, k), max(d // 4, k), max(d // 8, k)])


def validate_dims(dims: list[int]) -> None:
    m = len(dims) - 1
    if m < 2 or m % 2 != 0:
        raise ValueError(f"layer count must be even and >= 2, got M={m}")
    if any(d < 1 for d in dims):
        raise ValueError(f"layer widths must be positive, got {dims}")
    encoder = dims[:m // 2 + 1]
    if any(a < b for a, b in zip(encoder, encoder[1:])):
        raise ValueError(f"encoder widths must be non-increasing, got {encoder}")
    if list(dims) != mirror_dims(encoder):
        raise ValueError(f"the decoder must mirror the encoder {encoder}, got {dims}")


def init(
    dims: list[int],
    enc_activation: ActivationKind,
    dec_activation: ActivationKind | None,
    seed: int,
) -> NetworkParams:
    """Fan-based uniform weight init, zero biases, deterministic from seed.
    The decoder takes the encoder's activation unless dec_activation is given."""
    validate_dims(dims)
    if dec_activation is None:
        dec_activation = enc_activation
    rng = substream(seed, "init")
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return NetworkParams(weights, biases, enc_activation, dec_activation)


def forward(params: NetworkParams, batch: np.ndarray,
            out: ForwardTrace | None = None) -> ForwardTrace:
    """Layer outputs for batch, computed in its float type (float64 for an
    integer batch); the weights and biases are cast to that type per call.
    Each activation overwrites the layer's pre-activation array: a fresh
    one, or with out (a trace whose arrays have this batch's row count and
    type, such as the trace of an earlier batch) that layer's array of out.
    The batch itself is never written."""
    if batch.ndim != 2 or batch.shape[1] != params.dims[0]:
        raise ShapeMismatchError(
            f"forward: batch of shape {batch.shape} does not match input "
            f"width {params.dims[0]}"
        )
    dtype = np.result_type(batch.dtype, np.float32)
    acts = [batch]
    for m, (w, b) in enumerate(zip(params.weights, params.biases), start=1):
        y = np.matmul(acts[-1], w.astype(dtype, copy=False).T,
                      out=None if out is None else out.activations[m])
        y += b.astype(dtype, copy=False)
        acts.append(apply(params.layer_activation(m), y))
    return ForwardTrace(acts)


def encode(params: NetworkParams, batch: np.ndarray, every_layer: bool,
           out: ForwardTrace | None = None) -> tuple[ForwardTrace, float]:
    """The trace of batch, with the bits of one whole-batch forward, and its
    summed squared reconstruction error, in float64.

    forward runs once per row block (``linalg.row_blocks``) and writes each
    block's code, and with every_layer every layer's output, straight into
    an n-row array: the trace backward takes.  Without every_layer the
    other layers are held for one block only and the trace has a 0-row
    array in their place, which backward refuses.  out, an earlier call's
    trace for a batch of this shape and type and the same every_layer, is
    written over.  The error adds one float64 partial sum per block, in row
    order, each block's difference formed in one block-sized buffer.  No
    block is short: a product over a few rows may round otherwise than the
    whole batch's.
    """
    n, last, half = batch.shape[0], params.num_layers, params.num_layers // 2
    dtype = np.result_type(batch.dtype, np.float32)
    keep = [every_layer or m == half for m in range(last + 1)]
    if out is None:
        out = ForwardTrace([batch] + [np.empty((n if keep[m] else 0, params.dims[m]), dtype)
                                      for m in range(1, last + 1)])
    layers = out.activations
    # one block of each layer not kept, and of x - reconstruction: the
    # reconstruction's own block when that is not kept
    scratch = {m: np.empty((min(n, BLOCK_ROWS), params.dims[m]), dtype)
               for m in range(1, last + 1) if not keep[m] or m == last}
    error = 0.0
    for rows in row_blocks(n):
        x, size = batch[rows], rows.stop - rows.start
        block = [x] + [layers[m][rows] if keep[m] else scratch[m][:size]
                       for m in range(1, last + 1)]
        # called by its module name, so a wrapper of forward sees every block
        forward(params, x, out=ForwardTrace(block))
        error += frobenius_sq(np.subtract(x, block[-1], out=scratch[last][:size]))
    return ForwardTrace([batch, *layers[1:]]), error


def reconstruction_deltas(params: NetworkParams, trace: ForwardTrace) -> np.ndarray:
    """Backward signal of the reconstruction error at the output layer,
    N x dims[M], written over the reconstruction one row block at a time:
    the block's derivative first, then (out - x) times it.  Returns that
    array, trace.reconstruction; the input is not written."""
    x, out = trace.activations[0], trace.reconstruction
    kind = params.layer_activation(params.num_layers)
    slopes = np.empty((min(out.shape[0], BLOCK_ROWS), out.shape[1]), out.dtype)
    for rows in row_blocks(out.shape[0]):
        block = out[rows]
        slope = derivative(kind, block, out=slopes[:block.shape[0]])
        block -= x[rows]  # -(x - out), up to the sign of exact zeros
        block *= slope
    return out


def constraint_deltas(
    code: np.ndarray, assignments: np.ndarray, centers: np.ndarray, slope: np.ndarray
) -> np.ndarray:
    """Backward signal of the intra-class distance term at the code layer,
    for one block of code rows: (code - assigned center) times slope, the
    activation derivative at those rows, in the code's type, in a fresh
    array.  assignments holds each row's cluster label; backward weights
    the signal by lambda1."""
    delta = clusters.residuals(code, assignments, centers, code.dtype)
    delta *= slope
    return delta


def backward(
    params: NetworkParams,
    trace: ForwardTrace,
    assignments: np.ndarray,
    centers: np.ndarray,
    lambda1: float,
    lambda2: float,
) -> Gradients:
    """Gradients of the joint loss summed over the batch.

    The loss is the half-scaled sum of squared reconstruction errors, plus
    lambda1/2 times the squared distance of each code to its assigned
    center, plus lambda2/2 times the squared norms of all weights and
    biases.  The regularizer contributes once per call, not per sample.
    assignments holds one cluster label per batch row and centers one
    column per cluster; their shapes are checked whatever lambda1 is, and
    with lambda1 == 0 the constraint term is skipped entirely.

    The pass consumes the trace: each layer's signal is written over that
    layer's output, which is dead once the layer above has formed its
    gradients from it, so no batch-sized array is allocated.  Layer m's
    gradients are formed while the output below it is intact; then the
    signal below is written over that output one row block at a time (the
    block's derivative, the block's product with W_m, and at the code
    layer the block's constraint signal, scaled by that same derivative).
    The input, activations[0], is never written, and a call refused for
    its arguments writes nothing.
    """
    m_total, half = params.num_layers, params.num_layers // 2
    z = trace.activations
    n, shapes = z[0].shape[0], [a.shape for a in z]
    if shapes != [(n, d) for d in params.dims]:
        raise ShapeMismatchError(
            f"backward: the trace holds arrays of shapes {shapes}, a net of "
            f"{m_total} layers needs every layer's output for all {n} rows, "
            f"of widths {params.dims}"
        )
    if assignments.shape != (n,) or centers.shape[0] != params.code_dim:
        raise ShapeMismatchError(
            f"backward: assignments {assignments.shape} and centers "
            f"{centers.shape} for {n} codes of width {params.code_dim}"
        )
    d_weights, d_biases = [], []
    delta = reconstruction_deltas(params, trace)
    for m in range(m_total, 0, -1):
        below = z[m - 1]
        # lambda2 * W + delta^T z_{m-1}: addition commutes bit for bit
        dw = lambda2 * params.weights[m - 1]
        dw += delta.T @ below
        db = lambda2 * params.biases[m - 1]
        db += column_sums(delta)
        d_weights.append(dw)
        d_biases.append(db)
        if m == 1:
            break
        kind = params.layer_activation(m - 1)
        w = params.weights[m - 1].astype(delta.dtype, copy=False)
        slopes = np.empty((min(n, BLOCK_ROWS), below.shape[1]), below.dtype)
        constrained = m - 1 == half and lambda1 != 0.0
        for rows in row_blocks(n):
            block = below[rows]
            slope = derivative(kind, block, out=slopes[:block.shape[0]])
            if constrained:
                constraint = constraint_deltas(block, assignments[rows], centers, slope)
                constraint *= lambda1
            # blocks are never short, so this has the whole product's bits
            np.matmul(delta[rows], w, out=block)
            block *= slope
            if constrained:
                block += constraint
                del constraint  # freed before the next block's is formed
        delta = below
    return Gradients(d_weights[::-1], d_biases[::-1])


def apply_update(params: NetworkParams, grads: Gradients, lr: float) -> None:
    """One gradient-descent step, in place."""
    if lr <= 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    for w, dw in zip(params.weights, grads.d_weights):
        w -= lr * dw
    for b, db in zip(params.biases, grads.d_biases):
        b -= lr * db
