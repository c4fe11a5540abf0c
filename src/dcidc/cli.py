"""Command-line surface: train / replay / gradcheck / evaluate / sweep / synth.

train and sweep turn their flags into one RunSpec; train writes it into the
run's manifest and replay runs it again from there.

Exit codes: 0 success, 2 for bad input (I/O, parsing, validation), 1 for
runtime failures (divergence, collapsed centers, gradient check over
tolerance, a sweep whose every cell failed).  BLAS threads are capped by
OPENBLAS_NUM_THREADS / OMP_NUM_THREADS, set before the process starts.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import uuid
from pathlib import Path

import numpy as np

from . import artifacts as art
from . import autoencoder as net
from . import clusters, data, gradcheck, metrics
from .activations import ActivationKind, parse_kind
from .training import DivergenceError, TrainConfig, lambda1_sweep, train

KINDS = tuple(kind.value for kind in ActivationKind)


def _parse_dims(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"--dims expects comma-separated integers, got {text!r}")


def _parse_batch(text: str) -> int | None:
    if text == "full":
        return None
    return int(text)


def _parse_map_shape(text: str) -> list[int]:
    try:
        h, w = (int(tok) for tok in text.lower().split("x"))
    except ValueError:
        raise ValueError(f"--map-shape expects HEIGHTxWIDTH, got {text!r}")
    if h < 1 or w < 1:
        raise ValueError(f"--map-shape needs positive sides, got {text!r}")
    return [h, w]


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    """Flags shared by train and sweep; each one is a RunSpec field."""
    p.add_argument("--data", required=True, help="feature file (csv or dcmx)")
    p.add_argument("--format", choices=("csv", "dcmx"), default=None)
    p.add_argument("--k", type=int, required=True, help="number of clusters")
    p.add_argument("--dims", required=True,
                   help="encoder widths incl. input, e.g. 10,6,2; decoder mirrors")
    p.add_argument("--activation", default="tanh", choices=KINDS)
    p.add_argument("--dec-activation", default=None, choices=KINDS)
    p.add_argument("--lambda2", type=float, default=0.0003)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--epochs", type=int, default=300)
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--batch", default="full", help="mini-batch size or 'full'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--labels", default=None,
                   help="label csv (defaults to <data stem>.labels.csv if present)")
    p.add_argument("--normalize", default="minmax", choices=tuple(art.NORMALIZE_MODES))
    p.add_argument("--mask-unlabeled", action="store_true",
                   help="drop rows labeled 0 and re-index the rest")


def _spec_from_args(args) -> art.RunSpec:
    return art.RunSpec(
        data=args.data,
        format=args.format,
        labels=args.labels,
        normalize=args.normalize,
        mask_unlabeled=args.mask_unlabeled,
        map_shape=None if args.map_shape is None else _parse_map_shape(args.map_shape),
        dims=_parse_dims(args.dims),
        activation=args.activation,
        dec_activation=args.dec_activation,
        config=TrainConfig(
            k=args.k,
            lambda1=args.lambda1,
            lambda2=args.lambda2,
            lr=args.lr,
            max_epochs=args.epochs,
            tol=args.tol,
            seed=args.seed,
            batch_size=_parse_batch(args.batch),
        ),
    )


def _load_dataset(spec: art.RunSpec) -> data.Dataset:
    ds = data.load(spec.data, spec.format, spec.labels)
    if spec.mask_unlabeled:
        ds = data.mask_unlabeled(ds)
    if spec.normalize != "none":
        ds = data.normalize(ds, art.NORMALIZE_MODES[spec.normalize])
    return ds


def _prepare(spec: art.RunSpec):
    """(dataset, mirrored dims, encoder and decoder activations) of a spec."""
    ds = _load_dataset(spec)
    if spec.dims[0] != ds.dim:
        raise ValueError(
            f"--dims starts at {spec.dims[0]} but the data has {ds.dim} features"
        )
    enc = parse_kind(spec.activation)
    dec = enc if spec.dec_activation is None else parse_kind(spec.dec_activation)
    return ds, net.mirror_dims(spec.dims), enc, dec


def _run_training(spec: art.RunSpec, out_dir: Path) -> None:
    """Train a spec into out_dir, which must be absent or empty.

    The artifacts go to a sibling directory, renamed to out_dir once all are
    written, so a failed run leaves no out_dir.  A sibling shares out_dir's
    parent, so the manifest's relative paths hold after the rename.
    """
    out_dir = Path(os.path.abspath(out_dir))
    if out_dir.exists() and not (out_dir.is_dir() and not any(out_dir.iterdir())):
        raise ValueError(f"--out-dir {out_dir} exists and is not an empty directory")
    ds, dims, enc, dec = _prepare(spec)
    if spec.map_shape is not None:
        h, w = spec.map_shape
        full_size = ds.meta["full_size"]
        if h * w != full_size:
            raise ValueError(
                f"--map-shape {h}x{w} holds {h * w} pixels, the image has {full_size}"
            )
    out_dir.parent.mkdir(parents=True, exist_ok=True)
    staging = out_dir.with_name(f".{out_dir.name}.{uuid.uuid4().hex[:12]}.partial")
    staging.mkdir()
    try:
        final = _write_run(spec, ds, dims, enc, dec, staging)
        os.replace(staging, out_dir)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    line = f"epochs={final.epoch} j_total={final.j_total:.6g}"
    if final.accuracy is not None:
        line += f" accuracy={final.accuracy:.4f} nmi={final.nmi:.4f}"
    print(line)


def _write_run(spec: art.RunSpec, ds: data.Dataset, dims, enc, dec, out_dir: Path):
    """Train and write every artifact of the run into out_dir; the last report."""
    with open(out_dir / "epoch_log.csv", "w", encoding="ascii") as log:
        log.write(art.EPOCH_LOG_HEADER + "\n")

        def stream(report, params, state):
            log.write(art.epoch_csv_line(report) + "\n")
            log.flush()

        params, state, reports = train(
            ds.features, spec.config, dims, enc, dec, labels=ds.labels, on_epoch=stream
        )
    labels_out = state.indicator
    data.save_label_csv(out_dir / "labels.csv", labels_out)
    data.save_dcmx(out_dir / "labels.dcmx", labels_out.reshape(-1, 1).astype(np.float64))
    paths = {
        "labels_csv": "labels.csv",
        "labels_dcmx": "labels.dcmx",
        "epoch_log": "epoch_log.csv",
        "checkpoint": "checkpoint.bin",
    }
    if ds.mask is not None:
        full = data.scatter_labels(labels_out, ds.mask, ds.meta["full_size"], sentinel=-1)
        data.save_label_csv(out_dir / "labels_full.csv", full)
        paths["labels_full_csv"] = "labels_full.csv"
        if spec.map_shape is not None:
            h, w = spec.map_shape
            grid = np.where(full < 0, 255, full)
            art.write_pgm(out_dir / "label_map.pgm", grid, w, h)
            paths["label_map_pgm"] = "label_map.pgm"
    art.save_checkpoint(out_dir / "checkpoint.bin", params, reports[-1].epoch)
    art.RunManifest.build(spec, paths).save(out_dir / "manifest.json")
    return reports[-1]


def cmd_train(args) -> int:
    _run_training(_spec_from_args(args), Path(args.out_dir))
    return 0


def cmd_replay(args) -> int:
    manifest = art.RunManifest.load(args.manifest)
    manifest.check_inputs()
    _run_training(manifest.spec, Path(args.out_dir))
    return 0


def cmd_gradcheck(args) -> int:
    dims = net.mirror_dims(_parse_dims(args.dims))
    enc = parse_kind(args.activation)
    dec = enc if args.dec_activation is None else parse_kind(args.dec_activation)
    rng = np.random.default_rng(args.seed)
    params = net.init(dims, enc, dec, args.seed)
    batch = rng.uniform(0.0, 1.0, size=(args.samples, dims[0]))
    assignments = clusters.init_indicator(args.samples, args.k, args.seed)
    centers = rng.normal(0.0, 0.5, size=(params.code_dim, args.k))
    worst, where, _, _ = gradcheck.check(
        params, batch, assignments, centers, args.lambda1, args.lambda2, args.step
    )
    print(f"max relative error {worst:.3e} at {where} (tolerance {args.tolerance:g})")
    return 0 if worst <= args.tolerance else 1


def cmd_evaluate(args) -> int:
    predicted = data.load_label_csv(args.predicted)
    truth = data.load_label_csv(args.truth)
    print(f"accuracy {metrics.accuracy(predicted, truth):.6f}")
    print(f"nmi {metrics.nmi(predicted, truth):.6f}")
    return 0


def cmd_sweep(args) -> int:
    spec = _spec_from_args(args)
    ds, dims, enc, dec = _prepare(spec)
    if ds.labels is None:
        raise ValueError("sweep needs labels (companion file or --labels)")
    grid = [float(tok) for tok in args.grid.split(",")]
    rows = lambda1_sweep(ds.features, spec.config, dims, grid, ds.labels, enc, dec)
    lines = ["lambda1,accuracy,nmi"]
    for row in rows:
        lines.append(f"{row.lambda1:g},{row.accuracy:.6f},{row.nmi:.6f}")
        if row.error:
            print(f"lambda1={row.lambda1:g} failed: {row.error}", file=sys.stderr)
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 1 if all(row.error for row in rows) else 0


def cmd_synth(args) -> int:
    ds = data.synth_blobs(
        args.n_per_cluster, args.k, args.dim, args.separation, args.noise_sigma,
        args.seed,
    )
    data.save_dcmx(args.out, ds.features)
    data.save_label_csv(data.companion_label_path(args.out), ds.labels)
    print(f"wrote {ds.n}x{ds.dim} samples to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcidc",
        description="Joint autoencoder + intra-class distance constrained clustering",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train and write run artifacts")
    _add_run_flags(p)
    p.add_argument("--lambda1", type=float, default=0.3)
    p.add_argument("--out-dir", default="dcidc-out")
    p.add_argument("--map-shape", default=None,
                   help="HEIGHTxWIDTH of the unmasked image, enables PGM label map;"
                        " needs --mask-unlabeled")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("replay", help="re-run a recorded manifest")
    p.add_argument("manifest")
    p.add_argument("--out-dir", default="dcidc-replay")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("gradcheck", help="verify gradients by finite differences")
    p.add_argument("--dims", default="5,3,2")
    p.add_argument("--activation", default="tanh", choices=KINDS)
    p.add_argument("--dec-activation", default=None, choices=KINDS)
    p.add_argument("--lambda1", type=float, default=0.3)
    p.add_argument("--lambda2", type=float, default=0.0003)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=6)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--step", type=float, default=gradcheck.DEFAULT_STEP)
    p.add_argument("--tolerance", type=float, default=1e-5)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("evaluate", help="accuracy and NMI of two label files")
    p.add_argument("predicted")
    p.add_argument("truth")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="one train run per lambda1 grid value")
    _add_run_flags(p)
    p.add_argument("--grid", default="0,0.1,0.3,1.0")
    p.add_argument("--out", default=None, help="sweep CSV path (default stdout)")
    # the grid sets lambda1 per cell; a sweep writes no label map
    p.set_defaults(func=cmd_sweep, lambda1=TrainConfig.lambda1, map_shape=None)

    p = sub.add_parser("synth", help="generate a Gaussian-blob benchmark")
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--dim", type=int, default=10)
    p.add_argument("--n-per-cluster", type=int, default=200)
    p.add_argument("--separation", type=float, default=6.0)
    p.add_argument("--noise-sigma", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # DataFormatError and ShapeMismatchError too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DivergenceError, clusters.DegenerateCentersError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
