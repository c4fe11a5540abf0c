"""Joint optimization of the autoencoder parameters and the cluster state.

Each epoch, in order: forward all samples, recompute the centers from the
current assignments (per-cluster code means), evaluate the loss terms,
recompute the assignments from the centers (least-squares + binarize, which
yields one cluster label per sample), then take one gradient-descent step
on every weight and bias.  Assignments and centers are constants inside the
gradient step.

The loss decomposes as j_total = j1 + j2 + j3 with

    j1 = 1/2 * sum of squared reconstruction errors
    j2 = lambda1/2 * sum of squared code-to-center distances
    j3 = lambda2/2 * (squared norms of all weights and biases)

Gradients are summed (not averaged) over the batch, so the learning rate
should be chosen relative to the sample count; the default 1e-3 suits the
desk-scale benchmarks shipped with the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import autoencoder as net
from . import clusters, metrics
from .activations import DEFAULT_ACTIVATION, ActivationKind
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
        if self.max_epochs < 0:
            raise ValueError(f"max_epochs must be >= 0, got {self.max_epochs}")
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
    trace: net.ForwardTrace,
    state: clusters.ClusterState,
    lambda1: float,
    lambda2: float,
) -> tuple[float, float, float, float]:
    """(j_total, j1, j2, j3) for one batch under the half-scaled convention."""
    j1 = 0.5 * frobenius_sq(trace.activations[0] - trace.reconstruction)
    j2 = 0.5 * lambda1 * clusters.intra_class_error(
        trace.code, state.indicator, state.centers
    )
    j3 = 0.5 * lambda2 * (
        sum(frobenius_sq(w) for w in params.weights)
        + sum(float(b @ b) for b in params.biases)
    )
    return j1 + j2 + j3, j1, j2, j3


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
    Training stops at max_epochs, or earlier once the relative change of
    j_total stays below config.tol for CONVERGENCE_WINDOW consecutive
    epochs.  Supplied labels are only ever used for per-epoch accuracy/NMI
    reporting, never for the optimization itself.

    The autoencoder passes run in float32 on a float32 copy of data; the
    parameters, centers, assignment solve and loss sums stay float64.
    """
    if dec_activation is None:
        dec_activation = enc_activation
    data = np.asarray(data, dtype=np.float32)
    n = data.shape[0]
    params = net.init(dims, enc_activation, dec_activation, config.seed)
    assigned = clusters.init_indicator(n, config.k, config.seed)
    shuffle_rng = substream(config.seed, "shuffle")
    centers = None
    reports: list[EpochReport] = []
    prev_total = None
    flat_epochs = 0
    # Overflow and NaN are let through silently: every update is followed
    # by a forward pass and the j_total check below, or by the indicator
    # solve, so a non-finite value still ends the run as a divergence.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.max_epochs + 1):
            trace = net.forward(params, data)
            codes = trace.code.astype(np.float64)  # widened once per epoch
            centers, reseeded = clusters.update_centers(
                codes, assigned, config.k, centers
            )
            state = clusters.ClusterState(centers, assigned, config.k)
            j_total, j1, j2, j3 = loss_terms(
                params, trace, state, config.lambda1, config.lambda2
            )
            if not math.isfinite(j_total):
                raise DivergenceError(epoch, j_total)
            report = EpochReport(epoch, j_total, j1, j2, j3,
                                 empty_cluster_events=len(reseeded))
            if labels is not None:
                report.accuracy = metrics.accuracy(assigned, labels)
                report.nmi = metrics.nmi(assigned, labels)
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
            try:
                assigned = clusters.update_indicator(codes, centers)
            except clusters.DegenerateCentersError:
                # an exploding run can overflow the indicator solve before
                # j_total itself goes non-finite; report that as divergence
                if not np.all(np.isfinite(centers)):
                    raise DivergenceError(epoch, float("inf"))
                raise
            del codes  # not live at the backward pass's memory peak
            state = clusters.ClusterState(centers, assigned, config.k)
            # drop this epoch's trace before any other forward pass runs
            if config.batch_size is None or config.batch_size >= n:
                grads = net.backward(
                    params, trace, assigned, centers, config.lambda1, config.lambda2
                )
                del trace
                net.apply_update(params, grads, config.lr)
            else:
                del trace
                order = shuffle_rng.permutation(n)
                for start in range(0, n, config.batch_size):
                    idx = order[start : start + config.batch_size]
                    sub = net.forward(params, data[idx])
                    grads = net.backward(
                        params, sub, assigned[idx], centers,
                        config.lambda1, config.lambda2,
                    )
                    net.apply_update(params, grads, config.lr)
    return params, state, reports


@dataclass
class SweepRow:
    lambda1: float
    accuracy: float
    nmi: float
    error: str | None = None


def lambda1_sweep(
    data: np.ndarray,
    config: TrainConfig,
    dims: list[int],
    grid,
    labels: np.ndarray,
    enc_activation: ActivationKind = DEFAULT_ACTIVATION,
    dec_activation: ActivationKind | None = None,
) -> list[SweepRow]:
    """One full train run per grid value; failures are recorded per cell."""
    if labels is None:
        raise ValueError("lambda1_sweep needs ground-truth labels")
    rows = []
    for value in grid:
        cell = replace(config, lambda1=float(value))
        try:
            _, state, _ = train(
                data, cell, dims, enc_activation, dec_activation, labels=labels
            )
            rows.append(
                SweepRow(
                    float(value),
                    metrics.accuracy(state.indicator, labels),
                    metrics.nmi(state.indicator, labels),
                )
            )
        except (DivergenceError, clusters.DegenerateCentersError) as exc:
            rows.append(SweepRow(float(value), float("nan"), float("nan"), str(exc)))
    return rows
