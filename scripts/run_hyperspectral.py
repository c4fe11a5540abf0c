#!/usr/bin/env python3
"""Full-scale pixel-clustering harness for hyperspectral-style datasets.

Expects a converted feature file (dcmx or csv, one row per pixel) plus a
label file where class 0 marks unlabeled background.  Runs `dcidc train`
once per seed, with the standard wide-network shapes, into the replayable
run directory <out-dir>/seed<N>, and reports mean and standard deviation of
the final accuracy and NMI.  Other flags (--lr, --epochs, ...) go unchanged
to `dcidc train`.  Results depend heavily on the learning rate and epoch
budget; treat them as a comparison harness, not a fixed target.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from dcidc import cli
from dcidc.data import load

def default_dims(d: int, k: int) -> list[int]:
    """Encoder widths incl. the input: the standard wide shapes by band count."""
    known = {200: [200, 128, 64, 32], 100: [100, 72, 36, 25]}
    return known.get(d, [d, max(d // 2, k), max(d // 4, k), max(d // 8, k)])


def main(argv=None) -> int:
    # no abbreviations: a forwarded --seed must not read as --seeds
    ap = argparse.ArgumentParser(description=__doc__, allow_abbrev=False)
    ap.add_argument("--data", required=True)
    ap.add_argument("--labels", default=None,
                    help="label csv; defaults to <data stem>.labels.csv")
    ap.add_argument("--k", type=int, required=True)
    ap.add_argument("--dims", default=None,
                    help="encoder widths incl. input (default by band count)")
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--keep-background", action="store_true",
                    help="cluster all pixels instead of dropping class 0")
    ap.add_argument("--out-dir", default="dcidc-hsi", help="parent of the seed<N> runs")
    args, train_flags = ap.parse_known_args(argv)

    if args.seeds < 1:
        ap.error(f"--seeds must be at least 1, got {args.seeds}")
    out_dir = Path(args.out_dir)
    if out_dir.exists() and not (out_dir.is_dir() and not any(out_dir.iterdir())):
        ap.error(f"--out-dir {out_dir} exists and is not an empty directory")
    try:
        ds = load(args.data, labels_file=args.labels)
    except (OSError, ValueError) as exc:  # DataFormatError too
        ap.error(str(exc))
    if ds.labels is None:
        ap.error("ground-truth labels are required for this harness")
    dims = args.dims or ",".join(map(str, default_dims(ds.dim, args.k)))
    print(f"{ds.n} pixels ({np.count_nonzero(ds.labels)} labeled), {ds.dim} bands, "
          f"k={args.k}, encoder dims={dims}")
    del ds  # each seed's run loads the data itself
    flags = ["--data", args.data, "--k", str(args.k), "--dims", dims]
    flags += [] if args.labels is None else ["--labels", args.labels]
    flags += [] if args.keep_background else ["--mask-unlabeled"]
    flags += train_flags

    accs, nmis = [], []
    for seed in range(args.seeds):
        run_dir = out_dir / f"seed{seed}"
        code = cli.main(["train", *flags, "--seed", str(seed), "--out-dir", str(run_dir)])
        if code != 0:
            return code
        header, *_, last = (run_dir / "epoch_log.csv").read_text().splitlines()
        final = dict(zip(header.split(","), map(float, last.split(","))))
        accs.append(final["accuracy"])
        nmis.append(final["nmi"])
        print(f"seed={seed} accuracy={100 * accs[-1]:.2f} nmi={100 * nmis[-1]:.2f}")
    print(f"accuracy {100 * np.mean(accs):.2f} +/- {100 * np.std(accs):.2f}   "
          f"nmi {100 * np.mean(nmis):.2f} +/- {100 * np.std(nmis):.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
