#!/usr/bin/env python3
"""Full-scale pixel-clustering harness for hyperspectral-style datasets.

Expects a converted feature file (dcmx or csv, one row per pixel) plus a
label file where class 0 marks unlabeled background.  Runs the joint
training over several seeds with the standard wide-network shapes and
reports mean and standard deviation of accuracy and NMI.  Results depend
heavily on the learning rate and epoch budget; treat them as a comparison
harness, not a fixed target.
"""

import argparse

import numpy as np

from dcidc.autoencoder import mirror_dims
from dcidc.data import load, mask_unlabeled, normalize
from dcidc.training import TrainConfig, train

# encoder shapes used for the common band counts
KNOWN_SHAPES = {
    200: [200, 128, 64, 32],
    100: [100, 72, 36, 25],
}


def default_dims(d: int, k: int) -> list[int]:
    if d in KNOWN_SHAPES:
        return KNOWN_SHAPES[d]
    return [d, max(d // 2, k), max(d // 4, k), max(d // 8, k)]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--data", required=True)
    ap.add_argument("--labels", default=None,
                    help="label csv; defaults to <data stem>.labels.csv")
    ap.add_argument("--k", type=int, required=True)
    ap.add_argument("--dims", default=None,
                    help="encoder widths incl. input (default by band count)")
    ap.add_argument("--lambda1", type=float, default=0.3)
    ap.add_argument("--lambda2", type=float, default=0.0003)
    ap.add_argument("--lr", type=float, default=1e-3)
    ap.add_argument("--epochs", type=int, default=300)
    ap.add_argument("--batch", type=int, default=None)
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--keep-background", action="store_true",
                    help="cluster all pixels instead of dropping class 0")
    args = ap.parse_args()

    ds = load(args.data, labels_file=args.labels)
    if ds.labels is None:
        raise SystemExit("ground-truth labels are required for this harness")
    if not args.keep_background:
        ds = mask_unlabeled(ds)
    ds = normalize(ds)
    encoder = ([int(t) for t in args.dims.split(",")] if args.dims
               else default_dims(ds.dim, args.k))
    dims = mirror_dims(encoder)
    print(f"{ds.n} pixels, {ds.dim} bands, k={args.k}, dims={dims}")

    accs, nmis = [], []
    for seed in range(args.seeds):
        config = TrainConfig(
            k=args.k, lambda1=args.lambda1, lambda2=args.lambda2,
            lr=args.lr, max_epochs=args.epochs, seed=seed,
            batch_size=args.batch,
        )
        _, _, reports = train(ds.features, config, dims, labels=ds.labels)
        final = reports[-1]
        accs.append(final.accuracy)
        nmis.append(final.nmi)
        print(f"seed={seed} epochs={final.epoch} "
              f"accuracy={100 * final.accuracy:.2f} nmi={100 * final.nmi:.2f}")
    print(f"accuracy {100 * np.mean(accs):.2f} +/- {100 * np.std(accs):.2f}   "
          f"nmi {100 * np.mean(nmis):.2f} +/- {100 * np.std(nmis):.2f}")


if __name__ == "__main__":
    main()
