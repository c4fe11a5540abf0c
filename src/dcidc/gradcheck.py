"""Central finite-difference verification of the analytic gradients.

Perturbs every scalar weight and bias of a network by +/-step, evaluates
the full joint loss, and compares the resulting slope to the analytic
gradient.  Relative error uses a guarded denominator so that entries whose
magnitude is below ERROR_FLOOR are compared absolutely at floor scale.
"""

from __future__ import annotations

import numpy as np

from . import autoencoder as net
from .clusters import ClusterState
from .training import loss_terms

DEFAULT_STEP = 1e-6
ERROR_FLOOR = 1e-3


def total_loss(
    params: net.NetworkParams,
    batch: np.ndarray,
    assignments: np.ndarray,
    centers: np.ndarray,
    lambda1: float,
    lambda2: float,
) -> float:
    trace = net.forward(params, batch, every_layer=False)
    state = ClusterState(centers, assignments)
    return loss_terms(params, trace.squared_error, trace.code, state, lambda1, lambda2)[0]


def numeric_gradients(
    params: net.NetworkParams,
    batch: np.ndarray,
    assignments: np.ndarray,
    centers: np.ndarray,
    lambda1: float,
    lambda2: float,
    step: float = DEFAULT_STEP,
) -> net.Gradients:
    def probe(array: np.ndarray) -> np.ndarray:
        grad = np.zeros_like(array)
        flat = array.ravel()
        gflat = grad.ravel()
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + step
            up = total_loss(params, batch, assignments, centers, lambda1, lambda2)
            flat[i] = saved - step
            down = total_loss(params, batch, assignments, centers, lambda1, lambda2)
            flat[i] = saved
            gflat[i] = (up - down) / (2.0 * step)
        return grad

    return net.Gradients(
        [probe(w) for w in params.weights],
        [probe(b) for b in params.biases],
    )


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> np.ndarray:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), ERROR_FLOOR)
    return np.abs(analytic - numeric) / denom


def max_relative_error(
    analytic: net.Gradients, numeric: net.Gradients
) -> tuple[float, str]:
    """Worst guarded relative error and the coordinate where it occurs; a
    NaN error is the worst, and the first one is reported."""
    worst, where = 0.0, ""
    for name, a_list, n_list in (
        ("W", analytic.d_weights, numeric.d_weights),
        ("b", analytic.d_biases, numeric.d_biases),
    ):
        for m, (a, n) in enumerate(zip(a_list, n_list), start=1):
            err = relative_error(a, n)
            idx = int(np.argmax(err))  # the first NaN, if err has one
            if not np.isnan(worst) and not err.ravel()[idx] <= worst:
                worst = float(err.ravel()[idx])
                coords = tuple(int(c) for c in np.unravel_index(idx, a.shape))
                where = f"{name}{m}{list(coords)}"
    return worst, where


def check(
    params: net.NetworkParams,
    batch: np.ndarray,
    assignments: np.ndarray,
    centers: np.ndarray,
    lambda1: float,
    lambda2: float,
    step: float = DEFAULT_STEP,
) -> tuple[float, str]:
    """(worst relative error, its coordinate) of the analytic gradients,
    which come from one backward pass; that pass consumes a forward trace
    of its own, and the batch itself is never written."""
    # an overflow in either pass reads as a non-finite error, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        trace = net.forward(params, batch)
        analytic = net.backward(params, trace, assignments, centers, lambda1, lambda2)
        numeric = numeric_gradients(
            params, batch, assignments, centers, lambda1, lambda2, step
        )
        return max_relative_error(analytic, numeric)
