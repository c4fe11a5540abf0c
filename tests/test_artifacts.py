import json
import re
from pathlib import Path

import numpy as np
import pytest

from dcidc import __version__
from dcidc.activations import ActivationKind
from dcidc.artifacts import (
    EPOCH_LOG_HEADER,
    RunManifest,
    RunSpec,
    epoch_csv_line,
    load_checkpoint,
    save_checkpoint,
    sha256_file,
    write_pgm,
)
from dcidc.autoencoder import init
from dcidc.training import EpochReport, TrainConfig


def test_epoch_csv_line_with_metrics():
    report = EpochReport(3, 10.5, 8.0, 2.0, 0.5, accuracy=0.75, nmi=0.5,
                         empty_cluster_events=1)
    line = epoch_csv_line(report)
    assert line.split(",")[0] == "3"
    assert line.split(",")[-1] == "1"
    assert float(line.split(",")[1]) == 10.5
    assert EPOCH_LOG_HEADER.count(",") == line.count(",")


def test_epoch_csv_line_without_metrics():
    report = EpochReport(0, 1.0, 1.0, 0.0, 0.0)
    fields = epoch_csv_line(report).split(",")
    assert fields[5] == "" and fields[6] == ""


def test_checkpoint_roundtrip(tmp_path):
    params = init([6, 4, 2, 4, 6], ActivationKind.TANH, ActivationKind.SIGMOID, seed=3)
    # narrow to float32 first so the dcmx payload is lossless
    for w in params.weights:
        w[:] = w.astype(np.float32)
    for b in params.biases:
        b[:] = b.astype(np.float32)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, params, epoch=42)
    loaded, epoch = load_checkpoint(path)
    assert epoch == 42
    assert loaded.dims == params.dims
    assert loaded.enc_activation is ActivationKind.TANH
    assert loaded.dec_activation is ActivationKind.SIGMOID
    for a, b in zip(loaded.weights, params.weights):
        assert np.array_equal(a, b)
    for a, b in zip(loaded.biases, params.biases):
        assert np.array_equal(a, b)


def test_write_pgm(tmp_path):
    path = tmp_path / "map.pgm"
    write_pgm(path, np.array([0, 1, 2, 255, 4, 5]), width=3, height=2)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n3 2\n255\n")
    assert raw[-6:] == bytes([0, 1, 2, 255, 4, 5])


def test_write_pgm_validates(tmp_path):
    with pytest.raises(ValueError):
        write_pgm(tmp_path / "x.pgm", np.arange(5), width=2, height=2)
    with pytest.raises(ValueError):
        write_pgm(tmp_path / "x.pgm", np.array([300, 0, 0, 0]), width=2, height=2)


def test_manifest_roundtrip(tmp_path):
    data_file = tmp_path / "d.csv"
    data_file.write_text("1,2\n3,4\n")
    spec = RunSpec(
        data=str(data_file), format="csv", labels=None, normalize="minmax",
        mask_unlabeled=False, map_shape=None, dims=[2, 1], activation="tanh",
        dec_activation=None, config=TrainConfig(k=2),
    )
    manifest = RunManifest.build(spec, {"labels_csv": "labels.csv"})
    path = tmp_path / "run" / "manifest.json"
    path.parent.mkdir()
    manifest.save(path)
    assert json.loads(path.read_text())["spec"]["data"] == "../d.csv"
    loaded = RunManifest.load(path)
    assert loaded == manifest
    assert loaded.data_sha256 == sha256_file(data_file)


def test_engine_version_matches_pyproject():
    # a regex, not tomllib, which Python 3.10 lacks
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert match is not None and match.group(1) == __version__
