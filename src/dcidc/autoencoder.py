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
joins the running one at the code layer.  Activation derivatives are taken
from layer outputs, so a forward trace keeps only those.  Cluster
assignments and centers are constants here, updated elsewhere in closed form.

Parameters are float64 master weights.  A pass computes in the float type of
its batch: training feeds float32, so the bulk arithmetic runs in float32,
while the gradients come back float64 (the regularizer term adds the
float64 parameters) and the update is applied in float64.  A float64 batch,
as the gradient checks pass, runs wholly in float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .activations import ActivationKind, apply, derivative
from .linalg import ShapeMismatchError
from .seeding import substream


@dataclass
class NetworkParams:
    """Layer widths, weights, biases, and activation choices."""

    dims: list[int]
    weights: list[np.ndarray]          # weights[i] maps layer i to layer i+1
    biases: list[np.ndarray]
    enc_activation: ActivationKind
    dec_activation: ActivationKind

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
    """Per-layer outputs for one batch.

    activations[0] is the input batch, activations[m] the output of layer m.
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


def validate_dims(dims: list[int]) -> None:
    m = len(dims) - 1
    if m < 2 or m % 2 != 0:
        raise ValueError(f"layer count must be even and >= 2, got M={m}")
    if any(d < 1 for d in dims):
        raise ValueError(f"layer widths must be positive, got {dims}")
    if dims[0] != dims[-1]:
        raise ValueError(
            f"input and output widths must match, got {dims[0]} vs {dims[-1]}"
        )
    half = m // 2
    for i in range(1, half + 1):
        if dims[i] > dims[i - 1]:
            raise ValueError(
                f"encoder widths must be non-increasing, got {dims[:half + 1]}"
            )
    for j in range(half + 1, m + 1):
        if dims[j] < dims[j - 1]:
            raise ValueError(
                f"decoder widths must be non-decreasing, got {dims[half:]}"
            )


def init(
    dims: list[int],
    enc_activation: ActivationKind,
    dec_activation: ActivationKind,
    seed: int,
) -> NetworkParams:
    """Fan-based uniform weight init, zero biases, deterministic from seed."""
    validate_dims(dims)
    rng = substream(seed, "init")
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return NetworkParams(list(dims), weights, biases, enc_activation, dec_activation)


def forward(params: NetworkParams, batch: np.ndarray) -> ForwardTrace:
    """Layer outputs for batch, computed in its float type (float64 for an
    integer batch); the weights and biases are cast to that type per call."""
    if batch.ndim != 2 or batch.shape[1] != params.dims[0]:
        raise ShapeMismatchError(
            f"forward: batch of shape {batch.shape} does not match input "
            f"width {params.dims[0]}"
        )
    dtype = np.result_type(batch.dtype, np.float32)
    acts = [batch]
    for m, (w, b) in enumerate(zip(params.weights, params.biases), start=1):
        y = acts[-1] @ w.astype(dtype, copy=False).T
        y += b.astype(dtype, copy=False)
        acts.append(apply(params.layer_activation(m), y))
    return ForwardTrace(acts)


def reconstruction_deltas(params: NetworkParams, trace: ForwardTrace) -> np.ndarray:
    """Backward signal of the reconstruction error at the output layer, N x dims[M]."""
    x, out = trace.activations[0], trace.reconstruction
    return -(x - out) * derivative(params.layer_activation(params.num_layers), out)


def constraint_deltas(
    params: NetworkParams,
    trace: ForwardTrace,
    assignments: np.ndarray,
    centers: np.ndarray,
) -> np.ndarray:
    """Backward signal of the intra-class distance term at the code layer.

    assignments holds each sample's cluster label.  (code - assigned center)
    scaled by the activation derivative, N x code width; backward weights it
    by lambda1.
    """
    n = trace.activations[0].shape[0]
    if assignments.shape != (n,):
        raise ShapeMismatchError(
            f"constraint_deltas: assignments {assignments.shape} do not match "
            f"batch size {n}"
        )
    if centers.shape[0] != params.code_dim:
        raise ShapeMismatchError(
            f"constraint_deltas: centers {centers.shape} do not match code "
            f"width {params.code_dim}"
        )
    code, dtype = trace.code, trace.code.dtype
    assigned = centers.T.astype(dtype)[assignments]
    return (code - assigned) * derivative(params.enc_activation, code)


def backward(
    params: NetworkParams,
    trace: ForwardTrace,
    assignments: np.ndarray | None,
    centers: np.ndarray | None,
    lambda1: float,
    lambda2: float,
) -> Gradients:
    """Gradients of the joint loss summed over the batch.

    The loss is the half-scaled sum of squared reconstruction errors, plus
    lambda1/2 times the squared distance of each code to its assigned
    center, plus lambda2/2 times the squared norms of all weights and
    biases.  The regularizer contributes once per call, not per sample.
    assignments holds one cluster label per batch row.  With lambda1 == 0
    the constraint term is skipped entirely and assignments/centers may be
    None.  Each layer's gradients are formed as soon as its delta is known;
    only the current delta is kept.
    """
    m_total = params.num_layers
    constraint = None
    if lambda1 != 0.0:
        if assignments is None or centers is None:
            raise ValueError("backward: lambda1 != 0 requires assignments and centers")
        constraint = constraint_deltas(params, trace, assignments, centers)
    z = trace.activations
    d_weights, d_biases = [], []
    delta = reconstruction_deltas(params, trace)
    for m in range(m_total, 0, -1):
        if m == m_total // 2 and constraint is not None:
            delta += lambda1 * constraint
        d_weights.append(delta.T @ z[m - 1] + lambda2 * params.weights[m - 1])
        d_biases.append(delta.sum(axis=0) + lambda2 * params.biases[m - 1])
        if m > 1:
            delta = delta @ params.weights[m - 1].astype(delta.dtype, copy=False)
            delta *= derivative(params.layer_activation(m - 1), z[m - 1])
    return Gradients(d_weights[::-1], d_biases[::-1])


def apply_update(params: NetworkParams, grads: Gradients, lr: float) -> None:
    """One gradient-descent step, in place."""
    if lr <= 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    for w, dw in zip(params.weights, grads.d_weights):
        w -= lr * dw
    for b, db in zip(params.biases, grads.d_biases):
        b -= lr * db
