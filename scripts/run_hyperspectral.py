#!/usr/bin/env python3
"""Full-scale pixel-clustering harness for hyperspectral-style datasets.

Expects a converted feature file (dcmx or csv, one row per pixel) plus a
label file where class 0 marks unlabeled background.  Runs `dcidc train`
once per seed into the replayable run directory <out-dir>/seed<N>, and
reports mean and standard deviation of the final accuracy and NMI.  The
harness reads only --data, --labels, --seeds, --keep-background and
--out-dir; every other flag (--k, --dims, --lr, --epochs, ...) goes
unchanged to `dcidc train`, which picks the standard wide network shape for
the data's band count when --dims is omitted.  Results depend heavily on
the learning rate and epoch budget; treat them as a comparison harness, not
a fixed target.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from dcidc import cli
from dcidc.data import labels_path


def main(argv=None) -> int:
    # no abbreviations: a forwarded --seed must not read as --seeds
    ap = argparse.ArgumentParser(description=__doc__, allow_abbrev=False)
    ap.add_argument("--data", required=True)
    ap.add_argument("--labels", default=None,
                    help="label csv; defaults to <data stem>.labels.csv")
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
    # a missing --data is left to seed 0's `dcidc train`, which names the file
    if Path(args.data).exists() and labels_path(args.data, args.labels) is None:
        ap.error("ground-truth labels are required for this harness")
    flags = ["--data", args.data]
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
