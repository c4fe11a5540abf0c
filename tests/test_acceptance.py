"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them inline)."""

import itertools
import os
import time

import numpy as np
import pytest

from dcidc.activations import ActivationKind
from dcidc.autoencoder import backward, forward, init, mirror_dims
from dcidc.cli import main as cli_main
from dcidc.clusters import init_indicator, update_centers, update_indicator
from dcidc.data import normalize, synth_blobs
from dcidc.metrics import accuracy, contingency_table, nmi
from dcidc.training import TrainConfig, train
from oracles import (
    brute_force_accuracy,
    brute_force_means,
    brute_force_nmi,
    guarded_rel,
    numeric_gradients,
    pseudoinverse_assignment,
)


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {status}{suffix}")
    assert ok, f"{name} failed{suffix}"


# --- criterion 1: gradient fidelity ---------------------------------------

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
        num_w, num_b = numeric_gradients(params, batch, assignments, centers,
                                         lam1, lam2)
        for a, n in zip(analytic.d_weights + analytic.d_biases, num_w + num_b):
            worst = max(worst, float(guarded_rel(a, n).max()))
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
        centers_exact += np.array_equal(got, brute_force_means(codes, labels, k))

        centers = rng.normal(size=(d, k))
        got_h = update_indicator(codes, centers)
        indicator_exact += np.array_equal(got_h, pseudoinverse_assignment(codes, centers))
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
    batch = rng.uniform(0, 1, size=(8, 6))
    assignments, centers = init_indicator(8, 3, 1), rng.normal(size=(2, 3))
    # backward consumes its trace, so each call takes a fresh one
    constrained = backward(params, forward(params, batch), assignments, centers, 0.3, 0.0)
    plain = backward(params, forward(params, batch), assignments, centers, 0.0, 0.0)
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

def test_metric_oracles():
    rng = np.random.default_rng(55)
    acc_exact = 0
    nmi_close = 0
    for _ in range(50):
        n = int(rng.integers(2, 13))
        k = int(rng.integers(1, 5))
        predicted = rng.integers(0, k, size=n).tolist()
        truth = rng.integers(0, int(rng.integers(1, 5)), size=n).tolist()
        table = contingency_table(predicted, truth)
        acc_exact += accuracy(table) == brute_force_accuracy(predicted, truth)
        nmi_close += abs(nmi(table) - brute_force_nmi(predicted, truth)) <= 1e-10
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
              "dcidc sweep --mask-unlabeled --seeds 5 on each)")
        pytest.skip("external hyperspectral data not supplied")
    report("full-scale-reproduction", os.path.isdir(data_dir))
