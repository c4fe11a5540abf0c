"""Joint optimization of the autoencoder parameters and the cluster state.

Each epoch, in order: forward all samples, recompute the centers from the
current assignments (per-cluster code means), evaluate the loss terms,
recompute the assignments from the centers (least-squares + binarize, which
yields one cluster label per sample), then take one gradient-descent step
on every weight and bias, or one per mini-batch of the shuffled samples.
Assignments and centers are constants inside the gradient steps.  Every
forward pass is ``autoencoder.forward``, which runs in row blocks and sums
the squared reconstruction errors in float64.  The epoch's pass over all
samples keeps every layer's output for a full batch, whose one step's
backward pass writes its signals over them; a mini-batch epoch keeps only
the codes, and each mini-batch runs its own forward.  Both cluster updates
read the float32 codes as they are and widen them to float64 one member
set or row block at a time, so an epoch keeps no float64 copy of the
codes.  Every row block is cut by ``linalg.row_blocks``.

The loss decomposes as j_total = j1 + j2 + j3 with

    j1 = 1/2 * sum of squared reconstruction errors
    j2 = lambda1/2 * sum of squared code-to-center distances
    j3 = lambda2/2 * (squared norms of all weights and biases)

The sums of j1 and j2 add one float64 partial sum per row block, and
both batch modes take j1 from the epoch's ``forward``, so they give it the
same bits for the same parameters.

Gradients are summed (not averaged) over the batch, so the learning rate
should be chosen relative to the sample count; the default 1e-3 suits the
desk-scale benchmarks shipped with the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autoencoder as net
from . import clusters, metrics
from .activations import DEFAULT_ACTIVATION, ActivationKind
from .data import as_float32
from .linalg import frobenius_sq
from .seeding import substream

CONVERGENCE_WINDOW = 3


class DivergenceError(RuntimeError):
    """Loss became non-finite; carries the offending epoch."""

    def __init__(self, epoch: int, value: float):
        super().__init__(f"loss diverged to {value} at epoch {epoch}")
        self.epoch = epoch


@dataclass
class TrainConfig:
    k: int
    lambda1: float = 0.3
    lambda2: float = 0.0003
    lr: float = 1e-3
    max_epochs: int = 300
    tol: float = 1e-5
    seed: int = 0
    batch_size: int | None = None  # None means full batch

    def __post_init__(self):
        for name in ("lambda1", "lambda2", "lr", "tol"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ValueError(
                f"trade-off weights must be >= 0, got lambda1={self.lambda1}, "
                f"lambda2={self.lambda2}"
            )
        if self.lr <= 0:
            raise ValueError(f"learning rate must be positive, got {self.lr}")
        if self.tol <= 0:
            raise ValueError(f"tolerance must be positive, got {self.tol}")
        for name in ("max_epochs", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {self.batch_size}")


@dataclass
class EpochReport:
    epoch: int
    j_total: float
    j1: float
    j2: float
    j3: float
    accuracy: float | None = None
    nmi: float | None = None
    empty_cluster_events: int = 0


def loss_terms(
    params: net.NetworkParams,
    reconstruction_error: float,
    codes: np.ndarray,
    state: clusters.ClusterState,
    lambda1: float,
    lambda2: float,
) -> tuple[float, float, float, float]:
    """(j_total, j1, j2, j3) for one batch under the half-scaled convention,
    given the batch's summed squared reconstruction error and its codes."""
    j1 = 0.5 * reconstruction_error
    j2 = 0.5 * lambda1 * clusters.intra_class_error(codes, state.indicator, state.centers)
    j3 = 0.5 * lambda2 * (
        sum(frobenius_sq(w) for w in params.weights)
        + sum(float(b @ b) for b in params.biases)
    )
    return j1 + j2 + j3, j1, j2, j3


def check_fit(shape: tuple[int, int], dims: list[int], k: int) -> None:
    """Raise ValueError unless k clusters fit data of shape (rows, features)
    on the mirrored widths dims: k at most the rows, dims[0] the features, and
    k at most the code width + 1, as k centers span k - 1 dimensions."""
    (n, d), code = shape, dims[len(dims) // 2]
    if k > n:
        raise ValueError(f"--k {k} is above the {n} rows to train on")
    if dims[0] != d:
        raise ValueError(f"--dims starts at {dims[0]} but the data has {d} features")
    if k > code + 1:
        raise ValueError(f"--k {k} is above the code width {code} + 1")


def train(
    data: np.ndarray,
    config: TrainConfig,
    dims: list[int],
    enc_activation: ActivationKind = DEFAULT_ACTIVATION,
    dec_activation: ActivationKind | None = None,
    labels: np.ndarray | None = None,
    on_epoch=None,
) -> tuple[net.NetworkParams, clusters.ClusterState, list[EpochReport]]:
    """Run the joint loop and return (params, cluster state, epoch history).

    The history always contains an epoch-0 report describing the freshly
    initialized model; epoch e then reflects e completed update steps.
    A k that ``check_fit`` refuses raises first.  Training stops at
    max_epochs, or earlier once the relative change of j_total stays below
    config.tol for CONVERGENCE_WINDOW consecutive epochs.  Supplied labels
    are only ever used for per-epoch accuracy/NMI reporting, never for the
    optimization itself.

    The autoencoder passes run in float32, on data ``data.as_float32``
    narrows; the parameters, centers, assignment solve and loss sums stay float64.
    """
    check_fit(np.shape(data), dims, config.k)
    data = as_float32(data, "data")
    if labels is not None:  # once, not per epoch: np.unique sorts
        labels = metrics.dense_labels(labels)
    n = data.shape[0]
    full_batch = config.batch_size is None or config.batch_size >= n
    params = net.init(dims, enc_activation, dec_activation, config.seed)
    assigned = clusters.init_indicator(n, config.k, config.seed)
    shuffle_rng = substream(config.seed, "shuffle")
    centers = trace = None
    reports: list[EpochReport] = []
    prev_total = None
    flat_epochs = 0
    # Overflow and NaN are let through silently: every update is followed
    # by a forward pass and the j_total check below, so a non-finite value
    # ends the run as a divergence before the indicator solve sees it.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.max_epochs + 1):
            # every layer for the full batch's backward pass, else only the
            # codes; written over the last trace, so no n-row array is freed
            # to the heap top, trimmed and faulted in again each epoch
            trace = net.forward(params, data, full_batch, out=trace)
            codes = trace.code
            centers, reseeded = clusters.update_centers(codes, assigned, config.k, centers)
            state = clusters.ClusterState(centers, assigned)
            j_total, j1, j2, j3 = loss_terms(
                params, trace.squared_error, codes, state, config.lambda1, config.lambda2
            )
            if not math.isfinite(j_total):
                raise DivergenceError(epoch, j_total)
            report = EpochReport(epoch, j_total, j1, j2, j3,
                                 empty_cluster_events=len(reseeded))
            if labels is not None:
                table = metrics.contingency_table(assigned, labels)
                report.accuracy = metrics.accuracy(table)
                report.nmi = metrics.nmi(table)
            reports.append(report)
            if on_epoch is not None:
                on_epoch(report, params, state)
            if epoch == config.max_epochs:
                break
            if prev_total is not None:
                rel = abs(j_total - prev_total) / max(abs(prev_total), 1e-300)
                flat_epochs = flat_epochs + 1 if rel < config.tol else 0
                if flat_epochs >= CONVERGENCE_WINDOW:
                    break
            prev_total = j_total
            assigned = clusters.update_indicator(codes, centers)
            # one step on the epoch's trace, or one per shuffled mini-batch
            order = None if full_batch else shuffle_rng.permutation(n)
            for start in range(0, n, n if full_batch else config.batch_size):
                idx = slice(None) if full_batch else order[start : start + config.batch_size]
                sub = trace if full_batch else net.forward(params, data[idx])
                grads = net.backward(
                    params, sub, assigned[idx], centers, config.lambda1, config.lambda2
                )
                net.apply_update(params, grads, config.lr)
            # the next epoch's forward, cluster step and loss are its peak
            del order, idx, sub, grads
    return params, state, reports
