"""Reference implementations the tests compare the package against, one per
quantity: each is written out from its definition, independently of the
code under test, and every test that needs it imports it from here."""

import itertools
import math
from collections import Counter

import numpy as np

from dcidc.activations import apply, derivative
from dcidc.autoencoder import ForwardTrace, Gradients
from dcidc.linalg import column_sums, frobenius_sq, row_blocks


def blocked_squared_error(x, y):
    """Sum of (x - y)**2 as j1 defines it: one float64 partial sum per row
    block, added in row order, so its bits are the package's."""
    error = 0.0
    for rows in row_blocks(x.shape[0]):
        error += frobenius_sq(x[rows] - y[rows])
    return error


def whole_batch_forward(params, batch):
    """Every layer's output as the forward pass defines it: one np.matmul
    per layer over all rows, in the batch's float type, so a test that
    swaps np.matmul swaps it here too; the trace's error is j1's blocked
    sum."""
    dtype = np.result_type(batch.dtype, np.float32)
    acts = [batch]
    for m, (w, b) in enumerate(zip(params.weights, params.biases), start=1):
        y = np.matmul(acts[-1], w.astype(dtype).T) + b.astype(dtype)
        acts.append(apply(params.layer_activation(m), y))
    return ForwardTrace(acts, blocked_squared_error(batch, acts[-1]))


def reference_loss(params, batch, assignments, centers, lam1, lam2):
    """Joint loss recomputed directly from the whole-batch trace."""
    trace = whole_batch_forward(params, batch)
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
    """Independent central-difference probe of every scalar parameter:
    (weight gradients, bias gradients)."""
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
    """Elementwise relative error, its denominator kept at 1e-3 or above."""
    return np.abs(a - n) / np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-3)


def whole_array_signals(params, trace, assignments, centers, lam1):
    """Each layer's backward signal, delta_1 .. delta_M, each taken over the
    whole batch out of place, with every derivative over the whole batch
    and the constraint signal formed before the pass and scaled out of
    place.  Each product with a layer's weights goes through np.matmul, as
    backward's do, so a test that swaps np.matmul swaps it in both.  The
    trace is only read."""
    z = trace.activations
    m_total = params.num_layers
    out = z[-1]
    delta = np.subtract(out, z[0]) * derivative(params.layer_activation(m_total), out)
    code = trace.code
    rows = np.ascontiguousarray(centers.T, dtype=code.dtype)
    constraint = (code - rows[assignments]) * derivative(params.enc_activation, code)
    signals = [delta]
    for m in range(m_total, 1, -1):
        w = params.weights[m - 1].astype(delta.dtype)
        delta = np.matmul(delta, w) * derivative(params.layer_activation(m - 1), z[m - 1])
        if m - 1 == m_total // 2:
            delta = delta + lam1 * constraint
        signals.append(delta)
    return signals[::-1]


def whole_array_backward(params, trace, assignments, centers, lam1, lam2):
    """backward's gradients from whole_array_signals, with the regularizer
    added last; the trace is only read."""
    signals = whole_array_signals(params, trace, assignments, centers, lam1)
    z = trace.activations
    return Gradients(
        [d.T @ a + lam2 * w for d, a, w in zip(signals, z, params.weights)],
        [column_sums(d) + lam2 * b for d, b in zip(signals, params.biases)],
    )


def brute_force_accuracy(predicted, truth):
    """Enumerate every one-to-one cluster-to-class matching."""
    predicted, truth = list(predicted), list(truth)
    clusters = sorted(set(predicted))
    classes = sorted(set(truth))
    wide, narrow = (clusters, classes) if len(clusters) >= len(classes) else (classes, clusters)
    best = 0
    for perm in itertools.permutations(wide, len(narrow)):
        pairing = dict(zip(narrow, perm))
        if len(clusters) >= len(classes):
            matched = sum(1 for p, t in zip(predicted, truth) if pairing.get(t) == p)
        else:
            matched = sum(1 for p, t in zip(predicted, truth) if pairing.get(p) == t)
        best = max(best, matched)
    return best / len(predicted)


def brute_force_nmi(predicted, truth):
    """Direct entropy sums over the joint distribution."""
    n = len(predicted)
    joint = Counter(zip(predicted, truth))
    pc = Counter(predicted)
    tc = Counter(truth)
    h_p = -sum((c / n) * math.log(c / n) for c in pc.values())
    h_t = -sum((c / n) * math.log(c / n) for c in tc.values())
    if h_p == 0.0 and h_t == 0.0:
        return 1.0
    if h_p == 0.0 or h_t == 0.0:
        return 0.0
    mi = sum(
        (c / n) * math.log((c / n) / ((pc[p] / n) * (tc[t] / n)))
        for (p, t), c in joint.items()
    )
    return mi / math.sqrt(h_p * h_t)


def brute_force_means(codes, labels, k):
    """Per-cluster mean oracle: explicit row collection, same reduction."""
    centers = np.zeros((codes.shape[1], k))
    for i in range(k):
        rows = [codes[r] for r in range(codes.shape[0]) if labels[r] == i]
        centers[:, i] = np.array(rows).sum(axis=0) / len(rows)
    return centers


def pseudoinverse_assignment(codes, centers):
    """Independent per-sample least-squares + argmax oracle."""
    pinv = np.linalg.pinv(centers)
    return np.array([int(np.argmax(pinv @ code)) for code in codes])
