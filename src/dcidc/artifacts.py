"""Run artifacts: epoch logs, checkpoints, label maps, and run manifests.

A checkpoint is one JSON header line (dims, activations, epoch) followed by
the dcmx blocks of each layer's weight matrix and bias row, concatenated.
A run manifest records everything needed to reproduce a training run
byte-for-byte: the run's RunSpec, the fingerprints of its data and labels
files, and the artifact paths.
"""

from __future__ import annotations

import hashlib
import json
import os
import types
import typing
from dataclasses import asdict, dataclass, fields, is_dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .activations import KIND_NAMES, parse_kind
from .autoencoder import NetworkParams, mirror_dims, validate_dims
from .data import DataFormatError, dcmx_bytes, labels_path, read_dcmx
from .training import EpochReport, TrainConfig

EPOCH_LOG_COLUMNS = tuple(f.name for f in fields(EpochReport))
EPOCH_LOG_HEADER = ",".join(EPOCH_LOG_COLUMNS)


def _fmt(value: float | int | None) -> str:
    if value is None:
        return ""
    return str(value) if isinstance(value, int) else f"{value:.17g}"


def epoch_csv_line(report: EpochReport) -> str:
    return ",".join(_fmt(getattr(report, name)) for name in EPOCH_LOG_COLUMNS)


def save_checkpoint(path, params: NetworkParams, epoch: int) -> None:
    header = {
        "dims": params.dims,
        "enc_activation": params.enc_activation.value,
        "dec_activation": params.dec_activation.value,
        "epoch": epoch,
    }
    blob = json.dumps(header, sort_keys=True).encode("ascii") + b"\n"
    for w, b in zip(params.weights, params.biases):
        blob += dcmx_bytes(w)
        blob += dcmx_bytes(b.reshape(1, -1))
    Path(path).write_bytes(blob)


def load_checkpoint(path) -> tuple[NetworkParams, int]:
    raw = Path(path).read_bytes()
    newline = raw.index(b"\n")
    header = json.loads(raw[:newline])
    offset, blocks = newline + 1, []
    while offset < len(raw):
        block, offset = read_dcmx(raw, offset, str(path))
        blocks.append(block)
    dims = header["dims"]
    shapes = [s for i, o in zip(dims[:-1], dims[1:]) for s in ((o, i), (1, o))]
    if [b.shape for b in blocks] != shapes:
        raise DataFormatError(
            f"{path}: blocks of shapes {[b.shape for b in blocks]} disagree with "
            f"the header's dims {dims}"
        )
    params = NetworkParams(
        blocks[0::2],
        [b.ravel() for b in blocks[1::2]],
        parse_kind(header["enc_activation"]),
        parse_kind(header["dec_activation"]),
    )
    return params, int(header["epoch"])


def write_pgm(path, values: np.ndarray, width: int, height: int) -> None:
    """8-bit binary PGM with each pixel's gray level equal to its label value."""
    grid = np.asarray(values, dtype=np.int64)
    if grid.size != width * height:
        raise ValueError(f"{grid.size} values cannot fill a {width}x{height} image")
    if grid.min() < 0 or grid.max() > 255:
        raise ValueError("PGM gray levels must lie in [0, 255]")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(grid.astype(np.uint8).tobytes())


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


NORMALIZE_MODES = {"minmax": "minmax_per_band", "zscore": "zscore_per_band", "none": None}


@dataclass
class RunSpec:
    """Everything a training run reads: train, sweep and replay run from it."""

    data: str
    labels: str | None
    normalize: str  # a key of NORMALIZE_MODES
    mask_unlabeled: bool
    map_shape: list[int] | None  # [height, width] of the unmasked image
    dims: list[int] | None  # encoder widths incl. the input, None for default_dims
    activation: str
    dec_activation: str | None
    config: TrainConfig

    def __post_init__(self):
        if self.normalize not in NORMALIZE_MODES:
            raise ValueError(
                f"unknown normalize mode {self.normalize!r}; choose one of: "
                + ", ".join(NORMALIZE_MODES)
            )
        # the flags' choices, spelled exactly
        for name, allowed in (("activation", KIND_NAMES),
                              ("dec_activation", (None, *KIND_NAMES))):
            if getattr(self, name) not in allowed:
                raise ValueError(f"unknown {name} {getattr(self, name)!r}; choose one "
                                 f"of: {', '.join(KIND_NAMES)}")
        if self.dims is not None:
            validate_dims(mirror_dims(self.dims))
        if self.map_shape is not None and not (
            len(self.map_shape) == 2 and min(self.map_shape) >= 1
        ):
            raise ValueError(f"--map-shape needs two positive sides, got {self.map_shape}")
        if self.map_shape is not None and not self.mask_unlabeled:
            raise ValueError("--map-shape needs --mask-unlabeled")
        if self.map_shape is not None and self.config.k > 255:
            # gray 255 marks background, so clusters must stay within 0..254
            raise ValueError(
                f"--map-shape draws at most 255 clusters, got --k {self.config.k}"
            )


def _fits(value, hint) -> bool:
    """Whether a JSON value fits a field's type hint; ints pass as floats."""
    if isinstance(hint, types.UnionType):
        return any(_fits(value, h) for h in typing.get_args(hint))
    if typing.get_origin(hint) is list:
        (item,) = typing.get_args(hint)
        return isinstance(value, list) and all(_fits(v, item) for v in value)
    return type(value) in ((int, float) if hint is float else (hint,))


def _checked(record, cls, where: str) -> dict:
    """record as a dict, once it holds exactly the fields of dataclass cls,
    each fitting its type (nested dataclasses are the caller's to check)."""
    if not isinstance(record, dict):
        raise ValueError(f"{where}: expected an object, got {type(record).__name__}")
    expected = {f.name for f in fields(cls)}
    unknown, missing = sorted(set(record) - expected), sorted(expected - set(record))
    if unknown or missing:
        raise ValueError(f"{where}: unknown keys {unknown}, missing keys {missing}")
    hints = typing.get_type_hints(cls)
    for f in fields(cls):
        value = record[f.name]
        if not is_dataclass(hints[f.name]) and not _fits(value, hints[f.name]):
            raise ValueError(f"{where}.{f.name}: expected {f.type}, got {value!r}")
    return dict(record)


_SPEC_PATHS = ("data", "labels")


def input_digests(spec: RunSpec) -> list[tuple]:
    """(path, sha256) of the data file and of the labels file the run reads;
    both are None when it reads no labels file.  Take them just before the
    files are read, so they fingerprint the bytes the run trained on."""
    labels = labels_path(spec.data, spec.labels)
    return [(spec.data, sha256_file(spec.data)),
            (labels, None if labels is None else sha256_file(labels))]


@dataclass
class RunManifest:
    """A run's spec beside its input digests and artifact paths.

    On disk the spec's data and labels paths are relative to the manifest's
    own directory, so a run directory replays from any working directory.
    labels_sha256 is None when the run read no labels file.
    """

    engine_version: str
    spec: RunSpec
    data_sha256: str
    labels_sha256: str | None
    artifacts: dict

    @classmethod
    def build(cls, spec: RunSpec, artifacts: dict, digests: list[tuple]) -> "RunManifest":
        """digests: input_digests(spec), as taken when the run read its inputs."""
        (_, data_digest), (_, labels_digest) = digests
        return cls(__version__, spec, data_digest, labels_digest, artifacts)

    def check_engine(self) -> None:
        """Raise ValueError if the run used another engine version."""
        if self.engine_version != __version__:
            raise ValueError(
                f"manifest was written by engine {self.engine_version}, this is "
                f"engine {__version__}; its numbers differ between versions"
            )

    def check_inputs(self, digests: list[tuple]) -> None:
        """Raise ValueError if digests, input_digests(self.spec) as a replay
        takes them, show the data or labels file changed since the run."""
        recorded = (self.data_sha256, self.labels_sha256)
        for (path, digest), want in zip(digests, recorded):
            if digest != want:
                raise ValueError(
                    f"{path or 'no labels file'}: fingerprint {str(digest)[:12]} "
                    f"does not match manifest {str(want)[:12]}"
                )

    def save(self, path) -> None:
        base = os.path.dirname(os.path.abspath(path))
        record = asdict(self)
        for key in _SPEC_PATHS:
            if record["spec"][key] is not None:
                record["spec"][key] = os.path.relpath(record["spec"][key], base)
        Path(path).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path) -> "RunManifest":
        record = _checked(json.loads(Path(path).read_text()), cls, str(path))
        spec = _checked(record["spec"], RunSpec, f"{path}: spec")
        config = _checked(spec["config"], TrainConfig, f"{path}: spec.config")
        base = os.path.dirname(os.path.abspath(path))
        for key in _SPEC_PATHS:
            if spec[key] is not None:
                spec[key] = os.path.normpath(os.path.join(base, spec[key]))
        record["spec"] = RunSpec(**{**spec, "config": TrainConfig(**config)})
        return cls(**record)
