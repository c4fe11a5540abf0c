"""One training session of a benchmark workload, in a fresh process.

    python3 perfbench/session.py --workload NAME --seed N --epochs E
        [--trace 0|1] [--workdir DIR] [--spans FILE] [--replay-check] [--tiny]

The parent sets the BLAS thread variables before this process starts, so
they hold when numpy is imported.  The session times the program only from
outside: a CLOCK_MONOTONIC reading at every ``on_epoch`` call and one when
the run returns, comparable with the parent's reading at spawn.  With
``--epochs 0`` it stops after the epoch-0 report, which times set-up alone.

After the timed part it checks the run: every j_total finite, final
accuracy >= 0.95 and NMI >= 0.85, 0.95 reached at some epoch, and a
directional finite-difference check of ``autoencoder.backward`` on the
trained parameters; on request it also replays a CLI run and compares the
replayed files byte for byte.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (same directory)
from tracer import Tracer  # noqa: E402

NMI_MIN = 0.85
GRADCHECK_ROWS = 32
GRADCHECK_DIRECTIONS = 8
GRADCHECK_TOL = 1e-5
# Along a unit direction: at 1e-4 truncation reaches 1e-5 on some desk
# seeds, at 1e-6 rounding reaches 2.5e-7 at pixel-200; 1e-5 keeps both
# near 1e-7 or below.
GRADCHECK_STEP = 1e-5
REPLAY_FILES = ("epoch_log.csv", "labels.csv", "labels.dcmx")


class Recorder:
    """Epoch timestamps and reports, taken through the on_epoch callback."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.times: list[float] = []
        self.reports: list[list] = []
        self.features = None
        self.result = None

    def on_epoch(self, report, params, state) -> None:
        self.times.append(time.monotonic())
        self.reports.append([
            report.epoch, report.j_total, report.j1, report.j2, report.j3,
            report.accuracy, report.nmi, report.empty_cluster_events,
        ])

    def hook(self, train):
        """train wrapped so that a caller's on_epoch also reports here."""

        def hooked(features, *args, on_epoch=None, **kwargs):
            if on_epoch is not None and self.tracer is not None:
                on_epoch = self.tracer.span("artifacts.epoch_log", on_epoch)

            def both(report, params, state):
                if on_epoch is not None:
                    on_epoch(report, params, state)
                self.on_epoch(report, params, state)

            self.features = features
            self.result = train(features, *args, on_epoch=both, **kwargs)
            return self.result

        return hooked


def run_train(wl, seed: int, epochs: int, rec: Recorder):
    from dcidc import autoencoder, data, training

    ds = data.synth_blobs(wl.n_per_cluster, wl.k, wl.dim, wl.separation,
                          workloads.NOISE_SIGMA, seed)
    ds = data.normalize(ds, "minmax_per_band")
    config = training.TrainConfig(
        k=wl.k, lambda1=workloads.LAMBDA1, lambda2=workloads.LAMBDA2, lr=wl.lr,
        max_epochs=epochs, seed=seed, batch_size=wl.batch,
    )
    dims = autoencoder.mirror_dims(list(wl.encoder_dims))
    rec.hook(training.train)(ds.features, config, dims, labels=ds.labels,
                             on_epoch=None)


def run_cli(wl, seed: int, epochs: int, rec: Recorder, workdir: Path):
    """Exit code of `dcidc train` and the unhooked train, for the replay."""
    from dcidc import cli, data

    ds = data.synth_blobs(wl.n_per_cluster, wl.k, wl.dim, wl.separation,
                          workloads.NOISE_SIGMA, seed)
    data_path = workdir / "blobs.dcmx"
    data.save_dcmx(data_path, ds.features)
    data.save_label_csv(data.companion_label_path(data_path), ds.labels)
    unhooked = cli.train
    cli.train = rec.hook(unhooked)
    return unhooked, cli.main([
        "train", "--data", str(data_path), "--k", str(wl.k),
        "--dims", ",".join(map(str, wl.encoder_dims)),
        "--lambda1", repr(workloads.LAMBDA1), "--lambda2", repr(workloads.LAMBDA2),
        "--lr", repr(wl.lr), "--epochs", str(epochs), "--seed", str(seed),
        "--out-dir", str(workdir / "run"),
    ])


def directional_gradcheck(params, features, state, seed: int) -> float:
    """Worst relative error of backward against central differences.

    Compares the analytic directional derivative <grad, v> with
    (L(p + h v) - L(p - h v)) / 2h along random unit directions v, on a
    random sub-batch, with gradcheck's guarded relative error.
    """
    import numpy as np
    from dcidc import autoencoder, gradcheck

    rng = np.random.default_rng(seed)
    rows = rng.choice(features.shape[0], size=GRADCHECK_ROWS, replace=False)
    batch, assignments = features[rows], state.indicator[rows]
    l1, l2 = workloads.LAMBDA1, workloads.LAMBDA2
    trace = autoencoder.forward(params, batch)
    grads = autoencoder.backward(params, trace, assignments, state.centers, l1, l2)
    flat_grad = np.concatenate([g.ravel() for g in grads.d_weights + grads.d_biases])
    shapes = [a.shape for a in params.weights + params.biases]
    h = GRADCHECK_STEP
    worst = 0.0
    for _ in range(GRADCHECK_DIRECTIONS):
        v = rng.standard_normal(flat_grad.size)
        v /= np.linalg.norm(v)
        losses = []
        for sign in (1.0, -1.0):
            arrays, offset = [], 0
            for array, shape in zip(params.weights + params.biases, shapes):
                size = array.size
                arrays.append(array + sign * h * v[offset:offset + size].reshape(shape))
                offset += size
            moved = replace(params, weights=arrays[:len(params.weights)],
                            biases=arrays[len(params.weights):])
            losses.append(gradcheck.total_loss(moved, batch, assignments,
                                               state.centers, l1, l2))
        numeric = (losses[0] - losses[1]) / (2.0 * h)
        err = float(gradcheck.relative_error(np.float64(flat_grad @ v), np.float64(numeric)))
        worst = max(worst, err)
    return worst


def replay_matches(workdir: Path, cli_train) -> bool:
    """`dcidc replay` of the run's manifest rewrites the same bytes."""
    from dcidc import cli

    cli.train = cli_train
    code = cli.main(["replay", str(workdir / "run" / "manifest.json"),
                     "--out-dir", str(workdir / "replay")])
    return code == 0 and all(
        (workdir / "run" / name).read_bytes() == (workdir / "replay" / name).read_bytes()
        for name in REPLAY_FILES
    )


def blas_versions() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def os_threads() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--epochs", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, default=None)
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("--replay-check", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    wl = workloads.get(args.workload, args.tiny)

    from dcidc import clusters, training  # import time is part of set-up

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    rec = Recorder(tracer)
    failure = None
    try:
        if wl.via_cli:
            unhooked, code = run_cli(wl, args.seed, args.epochs, rec, args.workdir)
            if code != 0:
                failure = f"dcidc train exited with {code}"
        else:
            run_train(wl, args.seed, args.epochs, rec)
    except (training.DivergenceError, clusters.DegenerateCentersError) as exc:
        failure = f"{type(exc).__name__}: {exc}"
    t_end = time.monotonic()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out = {
        "t_epochs": rec.times,
        "t_end": t_end,
        "reports": rec.reports,
        "peak_rss_mib": peak_rss_mib,
        "os_threads": os_threads(),
        **blas_versions(),
        "failure": failure,
        "checks": {},
    }
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        if args.spans is not None:
            tracer.write(args.spans)
    if args.epochs > 0 and failure is None:
        checks = out["checks"]
        final = rec.reports[-1]
        checks["finite_loss"] = all(math.isfinite(r[1]) for r in rec.reports)
        checks["accuracy"] = final[5] >= workloads.ACC_TARGET
        checks["nmi"] = final[6] >= NMI_MIN
        checks["reached_acc95"] = any(r[5] >= workloads.ACC_TARGET for r in rec.reports)
        params, state, _ = rec.result
        checks["gradcheck_max_err"] = directional_gradcheck(
            params, rec.features, state, args.seed)
        checks["gradcheck"] = checks["gradcheck_max_err"] <= GRADCHECK_TOL
        if args.replay_check:
            checks["replay"] = replay_matches(args.workdir, unhooked)
        failed = [name for name, ok in checks.items() if ok is False]
        if failed:
            out["failure"] = "failed checks: " + ", ".join(failed)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
