"""The benchmark's workloads: synthetic blob data and the training settings.

Every workload draws its data from ``dcidc.data.synth_blobs`` (noise sigma
1.0), normalizes it per band to [0, 1], and trains a tanh autoencoder with
lambda1 = 0.3 and lambda2 = 3e-4, passing the synthetic labels to ``train``
so that each epoch report carries accuracy and NMI.  Gradients are summed
over the batch, so the learning rate is scaled to the sample count.

``epochs`` is the training budget.  The epoch at which accuracy first
reaches 0.95 has a long tail over seeds, so each budget is about twice the
latest crossing seen in a sweep of seeds (noted per workload); a session
that stops short of 0.95 is then a rare seed, and still counts as failed.
BENCHMARK.json says why each workload is there.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

LAMBDA1 = 0.3
LAMBDA2 = 3e-4
NOISE_SIGMA = 1.0
# Accuracy a run must reach, and end at; training.time_to_acc95_s times the first.
ACC_TARGET = 0.95


@dataclass(frozen=True)
class Workload:
    name: str
    n_per_cluster: int
    k: int
    dim: int
    separation: float
    encoder_dims: tuple[int, ...]  # the decoder mirrors it
    lr: float
    epochs: int
    batch: int | None = None  # None means full batch
    via_cli: bool = False     # run `dcidc train` in-process, artifacts included


WORKLOADS = {
    w.name: w
    for w in (
        # The README's 300x10 blobs, but a 10-8-6 net and separation 12.
        # With 10-6-3 (code width equal to k) 16 of 300 seeds end below 0.95
        # accuracy, as the clusters erode late in training.  With 10-8-6 at
        # separation 6, about one seed in 1500 sticks in a local minimum
        # with two blobs in one cluster (seed 404017 ends at 0.62), some
        # need up to 299 epochs, and some erode after epoch 400.  At
        # separation 12 (as on the other workloads) 0.95 was first reached
        # at epoch 1-120 on 3000 seeds, none was below it after epoch 183
        # up to 600, and the slow, stuck and eroding seeds of separation 6
        # all end at 0.99 or above.
        Workload("desk", 100, 3, 10, 12.0, (10, 8, 6), lr=1e-3, epochs=500,
                 via_cli=True),
        # 0.95 first reached at epoch 3-11 on 83 seeds.
        Workload("pixel-200", 1250, 16, 200, 12.0, (200, 128, 64, 32), lr=1e-6,
                 epochs=20),
        # 0.95 first reached at epoch 3-8 on 103 seeds.
        Workload("pixel-200-mb256", 1250, 16, 200, 12.0, (200, 128, 64, 32),
                 lr=1e-6, epochs=16, batch=256),
        # 0.95 first reached at epoch 2-8 on 389 seeds, and at 15 on one
        # more.  k is 9, not 16: with 16 clusters in a 16-wide code the
        # least-squares assignment plateaus at 0.91-0.94 accuracy on most
        # seeds.
        Workload("scene-pca16", 12500, 9, 16, 12.0, (16, 16), lr=1e-6, epochs=30),
    )
}

# Small enough for a smoke test of the benchmark itself; the learning rate
# grows as the sample count shrinks.
TINY = {
    "desk": {},
    "pixel-200": dict(n_per_cluster=40, lr=3e-5),
    "pixel-200-mb256": dict(n_per_cluster=40, lr=3e-5, batch=64),
    "scene-pca16": dict(n_per_cluster=200, lr=5e-5),
}


def get(name: str, tiny: bool = False) -> Workload:
    workload = WORKLOADS[name]
    return replace(workload, **TINY[name]) if tiny else workload
