"""Train at the acceptance settings over seeds 0, 1, ... and list the
seeds whose clustering ends below the acceptance accuracy.

    python3 scripts/seed_sweep.py [--lambda1 L ...] [--count N] [--out SEEDS.json]

Run it from the root of the tree to sweep, which holds ``src/``: that
tree's dcidc is imported, so two trees compare by their output.  Each
seed trains ``train()`` on 3 x 200 Gaussian blobs in 10 bands at
separation 6 (the seed draws the blobs too), min-max normalized, on a
10-6-3 net with every other ``TrainConfig`` default, as the desk-scale
acceptance test does.  The first line names numpy's version, its BLAS and
``OPENBLAS_NUM_THREADS``.  Then each seed gets one ``lambda1 seed final
best stop reached`` line: the final and best epoch accuracy, the epoch
training stopped at, and whether any epoch reached 0.99.  Each lambda1
ends with the seeds whose final accuracy is below 0.95.  ``--out`` also
writes every line's figures as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from train_digest import environment

PASS_ACCURACY = 0.95
REACHED_ACCURACY = 0.99


def sweep_seed(seed: int, lambda1: float) -> dict:
    """Final and best accuracy, stop epoch and whether 0.99 was reached."""
    from dcidc import autoencoder, data, training

    ds = data.normalize(data.synth_blobs(200, 3, 10, 6.0, 1.0, seed))
    config = training.TrainConfig(k=3, lambda1=lambda1, seed=seed)
    _, _, reports = training.train(ds.features, config, autoencoder.mirror_dims([10, 6, 3]),
                                   labels=ds.labels)
    best = max(r.accuracy for r in reports)
    return {"seed": seed, "final": reports[-1].accuracy, "best": best,
            "stop": reports[-1].epoch, "reached": best >= REACHED_ACCURACY}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--lambda1", type=float, action="append",
                        help="repeatable; 0.3, the TrainConfig default, if not given")
    parser.add_argument("--count", type=int, default=300, help="seeds 0 to count - 1")
    parser.add_argument("--out", type=Path, help="also write the figures as JSON")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path.cwd() / "src"))
    record = {"environment": environment(), "sweeps": []}
    print(record["environment"], flush=True)
    for lambda1 in args.lambda1 or [0.3]:
        runs = []
        for seed in range(args.count):
            run = sweep_seed(seed, lambda1)
            runs.append(run)
            print(f"lambda1={lambda1:g} seed={seed} final={run['final']:.4f} "
                  f"best={run['best']:.4f} stop={run['stop']} "
                  f"reached={'yes' if run['reached'] else 'no'}", flush=True)
        failing = [run["seed"] for run in runs if run["final"] < PASS_ACCURACY]
        print(f"lambda1={lambda1:g} failing {len(failing)}/{len(runs)}:"
              + "".join(f" {seed}" for seed in failing), flush=True)
        record["sweeps"].append({"lambda1": lambda1, "failing": failing, "runs": runs})
    if args.out is not None:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
