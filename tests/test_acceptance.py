"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them inline)."""

import itertools
import math
import os
import time
from collections import Counter

import numpy as np
import pytest

from dcidc.activations import ActivationKind
from dcidc.autoencoder import backward, forward, init, mirror_dims
from dcidc.cli import main as cli_main
from dcidc.clusters import init_indicator, update_centers, update_indicator
from dcidc.data import normalize, synth_blobs
from dcidc.metrics import accuracy, nmi
from dcidc.training import TrainConfig, train


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {status}{suffix}")
    assert ok, f"{name} failed{suffix}"


# --- criterion 1: gradient fidelity ---------------------------------------

def joint_loss(params, batch, assignments, centers, lam1, lam2):
    trace = forward(params, batch)
    value = 0.5 * float(((batch - trace.reconstruction) ** 2).sum())
    if lam1 != 0.0:
        one_hot = np.eye(centers.shape[1])[assignments]
        value += 0.5 * lam1 * float(((trace.code - one_hot @ centers.T) ** 2).sum())
    value += 0.5 * lam2 * (
        sum(float((w * w).sum()) for w in params.weights)
        + sum(float((b * b).sum()) for b in params.biases)
    )
    return value


def central_differences(params, batch, assignments, centers, lam1, lam2, h=1e-6):
    grads = []
    for arr in params.weights + params.biases:
        grad = np.zeros_like(arr)
        for i in range(arr.size):
            orig = arr.flat[i]
            arr.flat[i] = orig + h
            up = joint_loss(params, batch, assignments, centers, lam1, lam2)
            arr.flat[i] = orig - h
            down = joint_loss(params, batch, assignments, centers, lam1, lam2)
            arr.flat[i] = orig
            grad.flat[i] = (up - down) / (2 * h)
        grads.append(grad)
    return grads


def test_gradient_fidelity():
    start = time.monotonic()
    dims = [5, 3, 2, 3, 5]
    worst = 0.0
    for seed, kind, lam1, lam2 in itertools.product(
        range(5), ActivationKind, (0.0, 0.3), (0.0, 3e-4)
    ):
        rng = np.random.default_rng(10_000 + seed)
        params = init(dims, kind, kind, seed)
        batch = rng.uniform(0.0, 1.0, size=(6, 5))
        assignments = init_indicator(6, 2, seed)
        centers = rng.normal(0.0, 0.5, size=(2, 2))
        analytic = backward(params, forward(params, batch), assignments,
                            centers, lam1, lam2)
        numeric = central_differences(params, batch, assignments, centers,
                                      lam1, lam2)
        for a, n in zip(analytic.d_weights + analytic.d_biases, numeric):
            rel = np.abs(a - n) / np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-3)
            worst = max(worst, float(rel.max()))
    elapsed = time.monotonic() - start
    report(
        "gradient-fidelity",
        worst <= 1e-5 and elapsed < 30.0,
        f"max rel err {worst:.2e}, {elapsed:.1f}s",
    )


# --- criterion 2: cluster sub-problem oracles ------------------------------

def test_cluster_subproblem_oracles():
    start = time.monotonic()
    rng = np.random.default_rng(77)
    centers_exact = 0
    indicator_exact = 0
    for _ in range(100):
        n = int(rng.integers(5, 51))
        k = int(rng.integers(2, 6))
        d = int(rng.integers(1, 9))
        if n < k:
            n = k
        codes = rng.normal(size=(n, d))
        labels = init_indicator(n, k, int(rng.integers(0, 1_000_000)))
        got, reseeded = update_centers(codes, labels, k)
        assert reseeded == []
        expected = np.zeros((d, k))
        for i in range(k):
            rows = [codes[r] for r in range(n) if labels[r] == i]
            expected[:, i] = np.array(rows).sum(axis=0) / len(rows)
        centers_exact += np.array_equal(got, expected)

        centers = rng.normal(size=(d, k))
        got_h = update_indicator(codes, centers)
        pinv = np.linalg.pinv(centers)
        expected_h = [int(np.argmax(pinv @ codes[r])) for r in range(n)]
        indicator_exact += np.array_equal(got_h, expected_h)
    elapsed = time.monotonic() - start
    report(
        "cluster-subproblem-oracles",
        centers_exact == 100 and indicator_exact == 100 and elapsed < 5.0,
        f"centers {centers_exact}/100, indicator {indicator_exact}/100, "
        f"{elapsed:.2f}s",
    )


# --- criterion 3: structural invariants ------------------------------------

def test_structural_invariants():
    params = init([6, 4, 2, 4, 6], ActivationKind.TANH, ActivationKind.TANH, 1)
    rng = np.random.default_rng(1)
    trace = forward(params, rng.uniform(0, 1, size=(8, 6)))
    assignments, centers = init_indicator(8, 3, 1), rng.normal(size=(2, 3))
    constrained = backward(params, trace, assignments, centers, 0.3, 0.0)
    plain = backward(params, trace, assignments, centers, 0.0, 0.0)
    # the constraint reaches the encoder only: decoder gradients are untouched
    decoder_zero = all(
        np.array_equal(constrained.d_weights[m], plain.d_weights[m])
        and np.array_equal(constrained.d_biases[m], plain.d_biases[m])
        for m in range(2, 4)
    ) and any(
        not np.array_equal(constrained.d_weights[m], plain.d_weights[m])
        for m in range(2)
    )

    ds = normalize(synth_blobs(50, 3, 6, 6.0, 1.0, seed=2))
    labelled = []
    decomposition = []

    def watch(rep, params_, state):
        h = state.indicator
        labelled.append(
            h.shape == (ds.n,) and np.issubdtype(h.dtype, np.integer)
            and bool(np.all((h >= 0) & (h < 3)))
        )
        decomposition.append(
            abs(rep.j_total - (rep.j1 + rep.j2 + rep.j3))
            <= 1e-9 * max(abs(rep.j_total), 1.0)
        )

    _, _, _ = train(ds.features, TrainConfig(k=3, max_epochs=40, seed=2),
                    mirror_dims([6, 4, 3]), labels=ds.labels, on_epoch=watch)
    _, _, zero_run = train(
        ds.features, TrainConfig(k=3, lambda1=0.0, max_epochs=20, seed=2),
        mirror_dims([6, 4, 3]),
    )
    j2_zero = all(r.j2 == 0.0 for r in zero_run)
    report(
        "structural-invariants",
        decoder_zero and all(labelled) and all(decomposition) and j2_zero,
        f"decoder-zero={decoder_zero}, labelled epochs={sum(labelled)}/"
        f"{len(labelled)}, j2-zero={j2_zero}",
    )


# --- criterion 4: desk-scale clustering ------------------------------------

def test_desk_scale_clustering():
    start = time.monotonic()
    passing = 0
    early_drop = []
    for seed in range(5):
        ds = normalize(synth_blobs(200, 3, 10, 6.0, 1.0, seed))
        config = TrainConfig(k=3, seed=seed)
        _, _, reports = train(
            ds.features, config, mirror_dims([10, 6, 3]), labels=ds.labels
        )
        final = reports[-1]
        if final.accuracy >= 0.95 and final.nmi >= 0.85:
            passing += 1
            horizon = min(10, len(reports) - 1)
            early_drop.append(
                min(r.j_total for r in reports[1 : horizon + 1])
                < reports[0].j_total
            )
    elapsed = time.monotonic() - start
    report(
        "desk-scale-clustering",
        passing >= 4 and all(early_drop) and elapsed < 120.0,
        f"{passing}/5 seeds passed, early loss drop in all passing seeds, "
        f"{elapsed:.1f}s",
    )


# --- criterion 5: metric oracles -------------------------------------------

def enumerate_accuracy(predicted, truth):
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


def entropy_nmi(predicted, truth):
    n = len(predicted)
    joint = Counter(zip(predicted, truth))
    pc, tc = Counter(predicted), Counter(truth)
    h_p = -sum(c / n * math.log(c / n) for c in pc.values())
    h_t = -sum(c / n * math.log(c / n) for c in tc.values())
    if h_p == 0.0 and h_t == 0.0:
        return 1.0
    if h_p == 0.0 or h_t == 0.0:
        return 0.0
    mi = sum(
        c / n * math.log((c / n) / ((pc[p] / n) * (tc[t] / n)))
        for (p, t), c in joint.items()
    )
    return mi / math.sqrt(h_p * h_t)


def test_metric_oracles():
    rng = np.random.default_rng(55)
    acc_exact = 0
    nmi_close = 0
    for _ in range(50):
        n = int(rng.integers(2, 13))
        k = int(rng.integers(1, 5))
        predicted = rng.integers(0, k, size=n).tolist()
        truth = rng.integers(0, int(rng.integers(1, 5)), size=n).tolist()
        acc_exact += accuracy(predicted, truth) == enumerate_accuracy(predicted, truth)
        nmi_close += abs(nmi(predicted, truth) - entropy_nmi(predicted, truth)) <= 1e-10
    report(
        "metric-oracles",
        acc_exact == 50 and nmi_close == 50,
        f"accuracy exact {acc_exact}/50, nmi within 1e-10 {nmi_close}/50",
    )


# --- criterion 6: determinism ----------------------------------------------

def test_manifest_replay_determinism(tmp_path):
    blob = tmp_path / "blobs.dcmx"
    assert cli_main(["synth", "--out", str(blob), "--k", "3", "--dim", "8",
                     "--n-per-cluster", "40", "--separation", "7",
                     "--seed", "3"]) == 0
    first = tmp_path / "run1"
    assert cli_main([
        "train", "--data", str(blob), "--k", "3", "--dims", "8,5,3",
        "--epochs", "60", "--seed", "3", "--out-dir", str(first),
    ]) == 0
    second = tmp_path / "run2"
    assert cli_main(["replay", str(first / "manifest.json"),
                     "--out-dir", str(second)]) == 0
    identical = all(
        (first / name).read_bytes() == (second / name).read_bytes()
        for name in ("epoch_log.csv", "labels.csv", "labels.dcmx")
    )
    report("manifest-replay-determinism", identical,
           "epoch log and label files byte-identical")


# --- criterion 7: full-scale harness (informational, not gating) -----------

def test_hyperspectral_harness_available():
    data_dir = os.environ.get("DCIDC_HSI_DATA")
    if not data_dir:
        print("ACCEPTANCE full-scale-reproduction: SKIP (informational; "
              "set DCIDC_HSI_DATA to converted dcmx datasets and run "
              "scripts/run_hyperspectral.py)")
        pytest.skip("external hyperspectral data not supplied")
    report("full-scale-reproduction", os.path.isdir(data_dir))
