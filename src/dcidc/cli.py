"""Command-line surface: train / replay / gradcheck / evaluate / sweep / synth.

train and sweep turn their flags into one RunSpec.  train, replay and every
cell of a sweep (one lambda1 value and one seed) go through _run_training,
which writes a run directory from what train returns; its manifest replays
byte for byte and maps every other file there, keyed by name with "." as "_".
A sweep loads its data once and shares it among its cells.

Exit codes: 0 success, 2 for bad input (I/O, parsing, validation), 1 for
runtime failures (divergence, collapsed centers, gradient check over
tolerance, a sweep whose every cell failed).  BLAS threads are capped by
OPENBLAS_NUM_THREADS / OMP_NUM_THREADS, set before the process starts.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import shutil
import sys
import uuid
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import artifacts as art
from . import autoencoder as net
from . import clusters, data, gradcheck, metrics
from .activations import DEFAULT_ACTIVATION, KIND_NAMES, parse_kind
from .training import DivergenceError, EpochReport, TrainConfig, train


def _flag_type(convert, expects: str):
    """An argparse type= that converts a flag's text, or exits 2 saying what
    the flag expects."""
    def parse(text: str):
        try:
            return convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expects {expects}, got {text!r}") from None
    return parse


_dims = _flag_type(lambda text: [int(tok) for tok in text.split(",")],
                   "comma-separated integers")
_batch = _flag_type(lambda text: None if text == "full" else int(text),
                    "a mini-batch size or 'full'")
_map_shape = _flag_type(lambda text: [int(tok) for tok in text.lower().split("x")],
                        "HEIGHTxWIDTH")
_grid = _flag_type(lambda text: [float(tok) for tok in text.split(",")],
                   "comma-separated numbers")


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    """Flags shared by train and sweep; each one's dest names a RunSpec or
    TrainConfig field, and its type parses the field's value."""
    p.add_argument("--data", required=True,
                   help="feature file: dcmx if it begins with DCMX, else csv")
    p.add_argument("--k", type=int, required=True, help="number of clusters")
    p.add_argument("--dims", type=_dims, help="encoder widths incl. input, e.g. "
                   "10,6,2 (default by band count); decoder mirrors")
    p.add_argument("--activation", default=DEFAULT_ACTIVATION.value, choices=KIND_NAMES)
    p.add_argument("--dec-activation", default=None, choices=KIND_NAMES)
    p.add_argument("--lambda2", type=float, default=TrainConfig.lambda2)
    p.add_argument("--lr", type=float, default=TrainConfig.lr)
    p.add_argument("--epochs", dest="max_epochs", type=int,
                   default=TrainConfig.max_epochs)
    p.add_argument("--tol", type=float, default=TrainConfig.tol)
    p.add_argument("--batch", dest="batch_size", type=_batch,
                   default=TrainConfig.batch_size, help="mini-batch size or 'full'")
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--labels", default=None,
                   help="label csv (defaults to <data stem>.labels.csv if present)")
    p.add_argument("--normalize", default="minmax", choices=tuple(art.NORMALIZE_MODES))
    p.add_argument("--mask-unlabeled", action="store_true",
                   help="drop rows labeled 0")
    p.add_argument("--map-shape", type=_map_shape, default=None,
                   help="HEIGHTxWIDTH of the unmasked image, enables PGM label map;"
                        " needs --mask-unlabeled")


def _spec_from_args(args) -> art.RunSpec:
    flags = dict(vars(args))
    flags["config"] = TrainConfig(**{f.name: flags[f.name] for f in fields(TrainConfig)})
    return art.RunSpec(**{f.name: flags[f.name] for f in fields(art.RunSpec)})


def _prepare(spec: art.RunSpec, check=None):
    """(dataset, mirrored dims, encoder and decoder activations, input
    digests) of a spec, the decoder's None unless given; the digests are
    taken just before the files are read, and check, if given, sees them
    before any file is parsed."""
    digests = art.input_digests(spec)
    if check is not None:
        check(digests)
    ds = data.load(spec.data, spec.labels)
    if spec.mask_unlabeled:
        ds = data.mask_unlabeled(ds)
    if spec.config.k > ds.n:
        raise ValueError(f"--k {spec.config.k} is above the {ds.n} rows to train on")
    if spec.normalize != "none":  # minmax lies in [0, 1], a z-score within sqrt(n - 1)
        ds = data.normalize(ds, art.NORMALIZE_MODES[spec.normalize])
    else:  # train's float32 check, before any directory exists; train still
        # gets the float64 features, on which the benchmark checks gradients
        data.as_float32(ds.features, spec.data)
    dims = net.default_dims(ds.dim, spec.config.k) if spec.dims is None else spec.dims
    if spec.dims is None and dims[1] > ds.dim:  # the defaults widen when k > d
        raise ValueError(
            f"--k {spec.config.k} is above the data's {ds.dim} bands, which the "
            f"default widths cannot narrow from; give --dims"
        )
    if dims[0] != ds.dim:
        raise ValueError(
            f"--dims starts at {dims[0]} but the data has {ds.dim} features"
        )
    if spec.map_shape is not None:
        h, w = spec.map_shape
        if h * w != ds.mask.size:
            raise ValueError(
                f"--map-shape {h}x{w} holds {h * w} pixels, the image has {ds.mask.size}"
            )
    enc = parse_kind(spec.activation)
    dec = None if spec.dec_activation is None else parse_kind(spec.dec_activation)
    return ds, net.mirror_dims(dims), enc, dec, digests


def _fresh_dir(out_dir) -> Path:
    """out_dir made absolute, once it is known to be absent or empty."""
    out_dir = Path(os.path.abspath(out_dir))
    if out_dir.exists() and not (out_dir.is_dir() and not any(out_dir.iterdir())):
        raise ValueError(f"--out-dir {out_dir} exists and is not an empty directory")
    return out_dir


def _print_final(final: EpochReport) -> None:
    line = f"epochs={final.epoch} j_total={final.j_total:.6g}"
    if final.accuracy is not None:
        line += f" accuracy={final.accuracy:.4f} nmi={final.nmi:.4f}"
    print(line)


def _run_training(spec: art.RunSpec, out_dir: Path, prepared) -> EpochReport:
    """Train a spec and write every artifact of the run into out_dir, which
    _fresh_dir has passed; the last report.  prepared is _prepare(spec).

    The artifacts go to a sibling directory, renamed to out_dir once all are
    written, so a failed run leaves no out_dir, and it removes the parents of
    out_dir that it created.  A sibling shares out_dir's parent, so the
    manifest's relative paths hold after the rename.
    """
    ds, dims, enc, dec, digests = prepared
    made = [parent for parent in out_dir.parents if not parent.exists()]  # innermost first
    staging = out_dir.with_name(f".{out_dir.name}.{uuid.uuid4().hex[:12]}.partial")
    try:
        staging.mkdir(parents=True)
        params, state, reports = train(ds.features, spec.config, dims, enc, dec,
                                       labels=ds.labels)
        log = [art.EPOCH_LOG_HEADER, *map(art.epoch_csv_line, reports)]
        (staging / "epoch_log.csv").write_text("\n".join(log) + "\n", encoding="ascii")
        labels_out = state.indicator
        data.save_label_csv(staging / "labels.csv", labels_out)
        data.save_dcmx(staging / "labels.dcmx", labels_out.reshape(-1, 1))
        if ds.mask is not None:
            full = data.scatter_labels(labels_out, ds.mask)
            data.save_label_csv(staging / "labels_full.csv", full)
            if spec.map_shape is not None:
                h, w = spec.map_shape
                grid = np.where(full < 0, 255, full)
                art.write_pgm(staging / "label_map.pgm", grid, w, h)
        art.save_checkpoint(staging / "checkpoint.bin", params, reports[-1].epoch)
        paths = {p.name.replace(".", "_"): p.name for p in sorted(staging.iterdir())}
        art.RunManifest.build(spec, paths, digests).save(staging / "manifest.json")
        os.replace(staging, out_dir)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        with contextlib.suppress(OSError):  # a parent another process wrote to stays
            for parent in made:
                parent.rmdir()
        raise
    return reports[-1]


def cmd_train(args) -> int:
    spec = _spec_from_args(args)
    out_dir = _fresh_dir(args.out_dir)
    _print_final(_run_training(spec, out_dir, _prepare(spec)))
    return 0


def cmd_replay(args) -> int:
    manifest = art.RunManifest.load(args.manifest)
    manifest.check_engine()
    out_dir = _fresh_dir(args.out_dir)  # checked before the inputs are read
    prepared = _prepare(manifest.spec, manifest.check_inputs)
    _print_final(_run_training(manifest.spec, out_dir, prepared))
    return 0


def cmd_gradcheck(args) -> int:
    if not (np.isfinite(args.step) and args.step != 0):
        raise ValueError(f"--step must be finite and nonzero, got {args.step}")
    if not (np.isfinite(args.tolerance) and args.tolerance >= 0):
        raise ValueError(f"--tolerance must be finite and >= 0, got {args.tolerance}")
    config = TrainConfig(k=args.k, lambda1=args.lambda1, lambda2=args.lambda2,
                         seed=args.seed)
    if args.samples < config.k:  # every cluster needs a sample
        raise ValueError(f"--samples must be at least --k ({config.k}), got {args.samples}")
    dims = net.mirror_dims(args.dims)
    dec = None if args.dec_activation is None else parse_kind(args.dec_activation)
    rng = np.random.default_rng(config.seed)
    params = net.init(dims, parse_kind(args.activation), dec, config.seed)
    batch = rng.uniform(0.0, 1.0, size=(args.samples, dims[0]))
    assignments = clusters.init_indicator(args.samples, config.k, config.seed)
    centers = rng.normal(0.0, 0.5, size=(params.code_dim, config.k))
    worst, where = gradcheck.check(
        params, batch, assignments, centers, config.lambda1, config.lambda2, args.step
    )
    print(f"max relative error {worst:.3e} at {where} (tolerance {args.tolerance:g})")
    return 0 if worst <= args.tolerance else 1


def cmd_evaluate(args) -> int:
    predicted, truth = (metrics.dense_labels(data.load_label_csv(path))
                        for path in (args.predicted, args.truth))
    if predicted.size != truth.size:
        raise ValueError(f"{args.predicted} holds {predicted.size} labels, "
                         f"{args.truth} holds {truth.size}")
    table = metrics.contingency_table(predicted, truth)
    print(f"accuracy {metrics.accuracy(table):.6f}")
    print(f"nmi {metrics.nmi(table):.6f}")
    return 0


def cmd_sweep(args) -> int:
    spec = _spec_from_args(args)
    if args.seeds < 1:
        raise ValueError(f"--seeds must be at least 1, got {args.seeds}")
    names = [f"lambda1={value:g}" for value in args.grid]
    if len(set(names)) < len(names):
        raise ValueError(f"--grid names a cell directory twice: {', '.join(names)}")
    seeds = range(spec.config.seed, spec.config.seed + args.seeds)
    # every cell is validated before the first one trains
    cells = [(name, replace(spec, config=replace(spec.config, lambda1=value, seed=seed)))
             for name, value in zip(names, args.grid) for seed in seeds]
    out_dir = _fresh_dir(args.out_dir)
    prepared = _prepare(spec)
    if prepared[0].labels is None:
        raise ValueError("sweep needs labels (companion file or --labels)")
    finished = {name: [] for name in names}  # (accuracy, nmi) of each finished cell
    out_dir.mkdir(parents=True, exist_ok=True)
    table = out_dir / "sweep.csv"  # a row as each cell ends, so an error keeps the rest
    table.write_text("lambda1,seed,accuracy,nmi\n")
    for name, cell in cells:
        lambda1, seed = cell.config.lambda1, cell.config.seed
        try:
            final = _run_training(cell, out_dir / name / f"seed{seed}", prepared)
        except (DivergenceError, clusters.DegenerateCentersError) as exc:
            print(f"{name} seed={seed} failed: {exc}", file=sys.stderr)
            row = f"{lambda1:g},{seed},nan,nan"
        else:
            finished[name].append((final.accuracy, final.nmi))
            row = f"{lambda1:g},{seed},{final.accuracy:.6f},{final.nmi:.6f}"
        with open(table, "a", encoding="ascii") as fh:
            fh.write(row + "\n")
    for name, results in finished.items():
        line = f"{name} {len(results)}/{len(seeds)} cells finished"
        if results:
            accs, nmis = zip(*results)
            line += (f"  accuracy {100 * np.mean(accs):.2f} +/- {100 * np.std(accs):.2f}"
                     f"  nmi {100 * np.mean(nmis):.2f} +/- {100 * np.std(nmis):.2f}")
        print(line)
    return 0 if any(finished.values()) else 1


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
    p.add_argument("--lambda1", type=float, default=TrainConfig.lambda1)
    p.add_argument("--out-dir", default="dcidc-out")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("replay", help="re-run a recorded manifest")
    p.add_argument("manifest")
    p.add_argument("--out-dir", default="dcidc-replay")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("gradcheck", help="verify gradients by finite differences")
    p.add_argument("--dims", type=_dims, default="5,3,2")
    p.add_argument("--activation", default=DEFAULT_ACTIVATION.value, choices=KIND_NAMES)
    p.add_argument("--dec-activation", default=None, choices=KIND_NAMES)
    p.add_argument("--lambda1", type=float, default=TrainConfig.lambda1)
    p.add_argument("--lambda2", type=float, default=TrainConfig.lambda2)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--samples", type=int, default=6)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--step", type=float, default=gradcheck.DEFAULT_STEP)
    p.add_argument("--tolerance", type=float, default=1e-5)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("evaluate", help="accuracy and NMI of two label files")
    p.add_argument("predicted")
    p.add_argument("truth")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="one train run per lambda1 grid value and seed")
    _add_run_flags(p)
    p.add_argument("--grid", type=_grid, default="0,0.1,0.3,1.0",
                   help="lambda1 values, e.g. 0,0.3")
    p.add_argument("--seeds", type=int, default=1,
                   help="seeds per grid value, counting up from --seed")
    p.add_argument("--out-dir", default="dcidc-sweep",
                   help="parent of the lambda1=<v>/seed<s> run directories and sweep.csv")
    # the grid sets lambda1 per cell
    p.set_defaults(func=cmd_sweep, lambda1=TrainConfig.lambda1)

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
