"""One sha256 of train()'s result per benchmark workload, to show that two
source trees train with the same bits.

    python3 scripts/train_digest.py [--seed N]

Run it from the root of the tree to digest, which holds ``src/`` and
``perfbench/``: that tree's dcidc and workloads are imported, so the same
script digests any tree, and two trees compare by their output.  The first
line names numpy's version, its BLAS and ``OPENBLAS_NUM_THREADS``, on
which the bits depend.  Then each workload of ``perfbench/workloads.py``
gets one ``workload size sha256`` line at full and at tiny size.  Each
run builds its data and ``TrainConfig`` as ``perfbench/session.py``'s
``run_train`` does, trains for the workload's epoch budget, and hashes
the weights, biases, centers, labels and epoch reports that ``train``
returns.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import os
import sys
from pathlib import Path


def load_workloads(root: Path):
    """perfbench/workloads.py of the tree at root, as a module."""
    spec = importlib.util.spec_from_file_location("workloads", root / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def digest(workloads, name: str, tiny: bool, seed: int) -> str:
    """sha256 over what train returns for workload name at seed."""
    from dcidc import autoencoder, data, training

    wl = workloads.get(name, tiny)
    ds = data.synth_blobs(wl.n_per_cluster, wl.k, wl.dim, wl.separation,
                          workloads.NOISE_SIGMA, seed)
    ds = data.normalize(ds)
    config = training.TrainConfig(
        k=wl.k, lambda1=workloads.LAMBDA1, lambda2=workloads.LAMBDA2, lr=wl.lr,
        max_epochs=wl.epochs, seed=seed, batch_size=wl.batch,
    )
    dims = autoencoder.mirror_dims(list(wl.encoder_dims))
    params, state, reports = training.train(ds.features, config, dims, labels=ds.labels)
    sha = hashlib.sha256()
    for array in params.weights + params.biases + [state.centers, state.indicator]:
        sha.update(array.tobytes())
    sha.update(repr(reports).encode())
    return sha.hexdigest()


def environment() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        blas = "unknown"
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    return f"numpy {np.__version__} blas {blas} OPENBLAS_NUM_THREADS={threads}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=41)
    args = parser.parse_args(argv)
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    workloads = load_workloads(root)
    print(environment(), flush=True)
    for name in workloads.WORKLOADS:
        for tiny in (False, True):
            size = "tiny" if tiny else "full"
            print(name, size, digest(workloads, name, tiny, args.seed), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
