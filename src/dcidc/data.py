"""Dataset ingestion, normalization, label masking, and synthetic benchmarks.

Two on-disk feature formats are supported; a file that begins with the
dcmx magic bytes is read as dcmx, any other file as CSV, whatever its name:

* ``dcmx`` binary matrices: magic bytes ``DCMX``, version byte 0x01, then
  little-endian u32 row and column counts (both at least 1), then
  rows*cols little-endian IEEE-754 32-bit floats in row-major order, checked
  finite before they widen to 64-bit on load; saving narrows to 32-bit, so
  a load/save cycle of a finite dcmx file is byte-exact while float64 data
  may lose precision on first save.  ``as_float32`` makes every narrowing to
  float32 (dcmx, the synthetic box, training's input) and refuses a finite
  value beyond float32's range.
* CSV: comma-separated finite decimal floats, one sample per line, no header.

A companion label file (same stem, ``.labels.csv``, one integer in
0..2**63-1 per line) is picked up automatically when present and no other
labels file is given.  A CSV line that does not parse, a label out of that
range included, fails naming ``path:line``; blank lines are skipped but
counted.  Numbers are plain decimal text: Python's digit-group underscores
(``1_0``) fail as a parse error does.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .seeding import substream

_MAGIC = b"DCMX"
_VERSION = 1
_HEADER = struct.Struct("<4sBII")


class DataFormatError(ValueError):
    """File did not parse as the format its first bytes select."""


@dataclass
class Dataset:
    features: np.ndarray                 # n x d, one row per sample
    labels: np.ndarray | None = None     # int labels, length n
    mask: np.ndarray | None = None       # bool per original row: True if kept

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def as_float32(values, source: str) -> np.ndarray:
    """values in float32, uncopied if they already are; ValueError naming
    source if a finite value is beyond float32's range (inf and NaN pass)."""
    with np.errstate(over="raise"):
        try:
            return np.asarray(values, dtype=np.float32)
        except FloatingPointError:
            raise ValueError(f"{source}: a feature value is beyond float32's range") from None


def dcmx_bytes(matrix: np.ndarray) -> bytes:
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"dcmx stores 2-D matrices, got shape {matrix.shape}")
    stored = as_float32(matrix, f"dcmx stores 32-bit floats; the {matrix.shape} matrix")
    header = _HEADER.pack(_MAGIC, _VERSION, matrix.shape[0], matrix.shape[1])
    return header + stored.astype("<f4", copy=False).tobytes()


def read_dcmx(raw: bytes, offset: int, source: str) -> tuple[np.ndarray, int]:
    """Decode one dcmx block from raw[offset:]; returns (matrix, next offset)."""
    if len(raw) - offset < _HEADER.size:
        raise DataFormatError(
            f"{source}: dcmx header needs {_HEADER.size} bytes at byte {offset}, "
            f"only {len(raw) - offset} available"
        )
    magic, version, rows, cols = _HEADER.unpack_from(raw, offset)
    if magic != _MAGIC:
        raise DataFormatError(f"{source}: bad magic {magic!r} at byte {offset}")
    if version != _VERSION:
        raise DataFormatError(f"{source}: unsupported dcmx version {version}")
    if rows == 0 or cols == 0:
        raise DataFormatError(f"{source}: empty {rows}x{cols} dcmx matrix")
    expected = rows * cols * 4
    start = offset + _HEADER.size
    actual = len(raw) - start
    if actual < expected:
        raise DataFormatError(
            f"{source}: payload of {rows}x{cols} floats needs {expected} bytes, "
            f"found {actual}"
        )
    values = np.frombuffer(raw, dtype="<f4", count=rows * cols, offset=start)
    if not np.all(np.isfinite(values)):  # before widening, which warns on a signaling NaN
        raise DataFormatError(f"{source}: non-finite feature values")
    return values.astype(np.float64).reshape(rows, cols), start + expected


def save_dcmx(path, matrix: np.ndarray) -> None:
    Path(path).write_bytes(dcmx_bytes(matrix))


def load_dcmx(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    matrix, end = read_dcmx(raw, 0, str(path))
    if end != len(raw):
        raise DataFormatError(
            f"{path}: {len(raw) - end} trailing bytes after a "
            f"{matrix.shape[0]}x{matrix.shape[1]} payload"
        )
    return matrix


def _parsed_lines(path, parse):
    """(line number, parse(stripped text)) of each non-blank line of an ASCII
    file; a ValueError from parse, or an underscore anywhere in the line,
    fails naming the file and line."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            for lineno, line in enumerate(fh, start=1):
                text = line.strip()
                if text:
                    try:
                        if "_" in text:  # int() and float() skip digit-group underscores
                            raise ValueError(f"digit-group underscore in {text!r}")
                        value = parse(text)
                    except ValueError as exc:
                        raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
                    yield lineno, value
    except UnicodeDecodeError as exc:
        raise DataFormatError(
            f"{path}: not ASCII CSV text (byte 0x{exc.object[exc.start]:02x})"
        ) from None


def load_feature_csv(path) -> np.ndarray:
    rows = []
    lines = _parsed_lines(path, lambda text: [float(tok) for tok in text.split(",")])
    for lineno, row in lines:
        if rows and len(row) != len(rows[0]):
            raise DataFormatError(
                f"{path}:{lineno}: expected {len(rows[0])} columns, found {len(row)}"
            )
        if not all(np.isfinite(row)):
            raise DataFormatError(f"{path}:{lineno}: non-finite value")
        rows.append(row)
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    return np.array(rows, dtype=np.float64)


_LABEL_MAX = np.iinfo(np.int64).max


def _label(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(f"negative label {text}")
    if value > _LABEL_MAX:
        raise ValueError(f"label {text} is above {_LABEL_MAX}")
    return value


def load_label_csv(path) -> np.ndarray:
    """The labels of a file, one per line, each an integer in 0..2**63-1."""
    labels = np.array([label for _, label in _parsed_lines(path, _label)], dtype=np.int64)
    if not labels.size:
        raise DataFormatError(f"{path}: no labels")
    return labels


def save_label_csv(path, labels) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for value in np.asarray(labels).ravel():
            fh.write(f"{int(value)}\n")


def companion_label_path(path) -> Path:
    return Path(path).with_suffix("").with_suffix(".labels.csv")


def labels_path(path, labels_file=None) -> Path | None:
    """The labels file read with feature file path: labels_file when given,
    else the companion file when it exists."""
    if labels_file is not None:
        return Path(labels_file)
    companion = companion_label_path(path)
    return companion if companion.exists() else None


def load(path, labels_file=None) -> Dataset:
    """Load a feature file, dcmx if it begins with the dcmx magic bytes and
    CSV otherwise, and the non-negative labels of the file labels_path picks."""
    path = Path(path)
    with open(path, "rb") as fh:
        is_dcmx = fh.read(len(_MAGIC)) == _MAGIC
    features = load_dcmx(path) if is_dcmx else load_feature_csv(path)
    labels, label_path = None, labels_path(path, labels_file)
    if label_path is not None:
        labels = load_label_csv(label_path)
        if labels.size != features.shape[0]:
            raise DataFormatError(
                f"{label_path}: {labels.size} labels for {features.shape[0]} rows"
            )
    return Dataset(features, labels=labels)


def normalize(dataset: Dataset, mode: str = "minmax_per_band") -> Dataset:
    """Per-column rescaling of finite features (``load`` refuses others).

    Each column is divided by the power of two at its largest magnitude,
    exactly, so no sum or square of it leaves float64's range; minmax then
    maps it to [0, 1], zscore to zero mean and unit variance, and a column
    whose min equals its max to zeros.  The scaled data is the one array of
    the data's size: the offset is subtracted and the span divided in place.
    """
    if mode not in ("minmax_per_band", "zscore_per_band"):
        raise ValueError(
            f"unknown mode {mode!r}, expected 'minmax_per_band' or 'zscore_per_band'"
        )
    x = dataset.features
    lo, hi = x.min(axis=0), x.max(axis=0)
    unit = np.ldexp(1.0, np.frexp(np.maximum(-lo, hi))[1] - 1)
    scaled = np.divide(x, unit)
    lo, hi = lo / unit, hi / unit
    constant = lo == hi
    if mode == "minmax_per_band":
        scaled -= lo
        span = hi - lo
    else:  # a constant column's mean need not be its value; its min is
        scaled -= np.where(constant, lo, scaled.mean(axis=0))
        span = np.sqrt(np.einsum("ij,ij->j", scaled, scaled) / x.shape[0])
    span[constant] = 1.0
    scaled /= span
    return Dataset(scaled, labels=dataset.labels, mask=dataset.mask)


def mask_unlabeled(dataset: Dataset) -> Dataset:
    """Drop rows labeled 0 (background); the kept rows keep their label ids,
    and the mask marks them among the original rows."""
    if dataset.labels is None:
        raise ValueError("mask_unlabeled needs labels")
    keep = dataset.labels != 0
    if not keep.any():
        raise ValueError("mask_unlabeled would remove every row")
    return Dataset(dataset.features[keep], labels=dataset.labels[keep], mask=keep)


def scatter_labels(labels, mask) -> np.ndarray:
    """Spread masked-subset labels back onto the original rows, given the
    boolean row mask of mask_unlabeled; dropped rows get -1."""
    labels = np.asarray(labels)
    kept = np.count_nonzero(mask)
    if labels.size != kept:
        raise ValueError(f"{labels.size} labels for {kept} kept rows")
    full = np.full(mask.size, -1, dtype=np.int64)
    full[mask] = labels
    return full


def synth_blobs(
    n_per_cluster: int,
    k: int,
    dim: int,
    separation: float,
    noise_sigma: float,
    seed: int,
) -> Dataset:
    """Isotropic Gaussian clusters with centers at mutual distance >= separation."""
    if k < 2:
        raise ValueError(f"need at least 2 clusters, got {k}")
    if n_per_cluster < 1 or dim < 1:
        raise ValueError(f"need n_per_cluster, dim >= 1, got {n_per_cluster}, {dim}")
    if not (np.isfinite(separation) and separation > 0):
        raise ValueError(f"separation must be positive and finite, got {separation}")
    if not np.isfinite(noise_sigma):
        raise ValueError(f"noise sigma must be finite, got {noise_sigma}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = substream(seed, "synth")
    side = separation * max(2.0, k ** (1.0 / dim))
    as_float32(np.array(side), f"dcmx stores 32-bit floats; separation {separation:g} "
               f"needs a box of side {side:.3g}")
    centers = None
    for _ in range(100):
        candidate = rng.uniform(0.0, side, size=(k, dim))
        diff = candidate[:, None, :] - candidate[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=2))
        dist[np.diag_indices(k)] = np.inf
        if dist.min() >= separation:
            centers = candidate
            break
    if centers is None:
        raise ValueError(
            f"could not place {k} centers at mutual distance {separation} "
            f"in a box of side {side:.3g} after 100 tries"
        )
    points = rng.standard_normal((k, n_per_cluster, dim))
    points *= noise_sigma  # in place, so no second array of the data's size
    points += centers[:, None, :]
    labels = np.repeat(np.arange(k, dtype=np.int64), n_per_cluster)
    return Dataset(points.reshape(k * n_per_cluster, dim), labels=labels)
