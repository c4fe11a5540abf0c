import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dcidc import __version__, artifacts, autoencoder, cli, clusters, data
from dcidc.artifacts import epoch_csv_line, load_checkpoint
from dcidc.autoencoder import default_dims, mirror_dims
from dcidc.cli import main
from dcidc.data import (load, load_label_csv, mask_unlabeled, normalize, save_label_csv,
                        synth_blobs)
from dcidc.training import TrainConfig, train


@pytest.fixture()
def blob_file(tmp_path):
    path = tmp_path / "blobs.dcmx"
    assert main(["synth", "--out", str(path), "--k", "3", "--dim", "6",
                 "--n-per-cluster", "30", "--separation", "8",
                 "--seed", "5"]) == 0
    return path


@pytest.fixture()
def eight_band_file(tmp_path):
    path = tmp_path / "bands.dcmx"
    assert main(["synth", "--out", str(path), "--k", "3", "--dim", "8",
                 "--n-per-cluster", "30", "--separation", "8", "--seed", "2"]) == 0
    return path


def image_file(directory):
    """A 12-pixel, 4-band image whose pixels 0, 3 and 8 are background."""
    rng = np.random.default_rng(0)
    data = directory / "img.csv"
    rows = rng.uniform(0, 1, size=(12, 4))
    data.write_text("\n".join(",".join(f"{v:.6f}" for v in r) for r in rows) + "\n")
    save_label_csv(directory / "img.labels.csv",
                   [0, 1, 2, 0, 1, 2, 1, 2, 0, 1, 2, 1])
    return data


@pytest.fixture()
def scene(tmp_path):
    """A 75-pixel, 8-band CSV whose 15 background pixels (class 0) are noise;
    the three classes have the non-consecutive ids 3, 7 and 12."""
    blobs = synth_blobs(20, 3, 8, 6.0, 1.0, seed=4)
    rng = np.random.default_rng(4)
    features = np.vstack([blobs.features, rng.uniform(0, 12, size=(15, 8))])
    labels = np.concatenate([np.array([3, 7, 12])[blobs.labels],
                             np.zeros(15, dtype=np.int64)])
    order = rng.permutation(len(labels))
    path = tmp_path / "scene.csv"
    rows = features[order].tolist()
    path.write_text("".join(",".join(map(repr, row)) + "\n" for row in rows))
    save_label_csv(tmp_path / "scene.labels.csv", labels[order])
    return path


def image_args(data, out_dir, *extra):
    return [
        "train", "--data", str(data), "--k", "2", "--dims", "4,3,2",
        "--epochs", "5", "--mask-unlabeled", "--out-dir", str(out_dir), *extra,
    ]


def train_args(blob_file, out_dir, *extra):
    return [
        "train", "--data", str(blob_file), "--k", "3", "--dims", "6,4,3",
        "--epochs", "40", "--seed", "5", "--out-dir", str(out_dir), *extra,
    ]


class TestSynth:
    def test_writes_features_and_labels(self, blob_file):
        assert blob_file.exists()
        labels = load_label_csv(blob_file.parent / "blobs.labels.csv")
        assert labels.size == 90

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.dcmx", tmp_path / "b.dcmx"
        for path in (a, b):
            main(["synth", "--out", str(path), "--seed", "9",
                  "--n-per-cluster", "10"])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("flag, value", [
        ("--n-per-cluster", "0"), ("--dim", "0"), ("--noise-sigma", "nan"),
        ("--separation", "inf"), ("--separation", "nan"), ("--seed", "-1"),
    ])
    def test_unreadable_output_exits_2_writing_nothing(self, tmp_path, capsys,
                                                       flag, value):
        out = tmp_path / "blobs.dcmx"
        assert main(["synth", "--out", str(out), flag, value]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        if flag == "--seed":
            assert "seed must be >= 0, got -1" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag, value", [("--separation", "1e300"),
                                             ("--noise-sigma", "1e39")])
    def test_values_beyond_float32_exit_2_writing_nothing(self, tmp_path, capsys,
                                                          flag, value):
        """dcmx stores 32-bit floats, so data it would store as inf is refused
        before either file is written, without an overflow warning."""
        out = tmp_path / "blobs.dcmx"
        assert main(["synth", "--out", str(out), "--k", "3", flag, value]) == 2
        assert "32-bit float" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestTrain:
    def test_end_to_end_writes_artifacts(self, blob_file, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(train_args(blob_file, out)) == 0
        for name in ("labels.csv", "labels.dcmx", "epoch_log.csv",
                     "checkpoint.bin", "manifest.json"):
            assert (out / name).exists(), name
        log = (out / "epoch_log.csv").read_text().splitlines()
        assert log[0].startswith("epoch,j_total")
        assert len(log) == 42  # header + epochs 0..40
        assert "accuracy" in capsys.readouterr().out

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = main(["train", "--data", str(tmp_path / "nope.dcmx"),
                     "--k", "2", "--dims", "4,2"])
        assert code == 2
        assert "nope.dcmx" in capsys.readouterr().err

    def test_negative_lambda1_exits_2(self, blob_file, tmp_path, capsys):
        code = main(train_args(blob_file, tmp_path / "x", "--lambda1", "-1"))
        assert code == 2
        assert "lambda1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--lambda1", "nan"), ("--lambda2", "inf"), ("--lr", "inf"), ("--tol", "nan"),
    ])
    def test_non_finite_value_exits_2(self, blob_file, tmp_path, capsys, flag, value):
        out = tmp_path / "run"
        assert main(train_args(blob_file, out, flag, value)) == 2
        assert f"{flag[2:]} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, value", [
        ("train", "--dims", "abc"), ("train", "--batch", "abc"),
        ("train", "--map-shape", "3by4"), ("gradcheck", "--dims", "5,x"),
    ])
    def test_malformed_flag_text_exits_2_naming_the_flag(self, tmp_path, capsys,
                                                          command, flag, value):
        out = tmp_path / "run"
        args = image_args(image_file(tmp_path), out) if command == "train" else [command]
        with pytest.raises(SystemExit) as exit_info:
            main([*args, flag, value])
        assert exit_info.value.code == 2
        assert f"argument {flag}: expects" in capsys.readouterr().err
        assert not out.exists()

    def test_dims_must_match_data(self, blob_file, tmp_path, capsys):
        code = main(["train", "--data", str(blob_file), "--k", "3",
                     "--dims", "9,4,3", "--out-dir", str(tmp_path / "y")])
        assert code == 2
        assert "9" in capsys.readouterr().err

    def test_without_dims_trains_the_standard_shape(self, eight_band_file, tmp_path):
        out = tmp_path / "run"
        assert main(["train", "--data", str(eight_band_file), "--k", "3",
                     "--epochs", "20", "--out-dir", str(out)]) == 0
        params, _ = load_checkpoint(out / "checkpoint.bin")
        assert params.dims == mirror_dims(default_dims(8, 3)) == [8, 4, 3, 3, 3, 4, 8]
        assert json.loads((out / "manifest.json").read_text())["spec"]["dims"] is None
        copy = tmp_path / "copy"
        assert main(["replay", str(out / "manifest.json"), "--out-dir", str(copy)]) == 0
        for path in out.iterdir():
            assert path.read_bytes() == (copy / path.name).read_bytes(), path.name

    def test_k_above_band_count_without_dims_exits_2(self, eight_band_file, tmp_path,
                                                     capsys, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("trained")

        monkeypatch.setattr(cli, "train", no_training)
        assert main(["train", "--data", str(eight_band_file), "--k", "9",
                     "--epochs", "1", "--out-dir", str(tmp_path / "wide")]) == 2
        err = capsys.readouterr().err
        assert "--k 9" in err and "8 bands" in err and "--dims" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["bands.dcmx", "bands.labels.csv"]

    def test_collapsed_centers_exit_1_leaving_no_out_dir(self, blob_file, tmp_path,
                                                          capsys, monkeypatch):
        def collapsed(*args, **kwargs):
            raise clusters.DegenerateCentersError("collapsed (injected)")

        monkeypatch.setattr(clusters, "update_indicator", collapsed)
        out = tmp_path / "run"
        assert main(train_args(blob_file, out)) == 1
        assert "collapsed (injected)" in capsys.readouterr().err
        assert not out.exists()

    def test_mask_and_map_artifacts(self, tmp_path):
        data = image_file(tmp_path)
        out = tmp_path / "run"
        assert main(image_args(data, out, "--map-shape", "3x4")) == 0
        full = np.loadtxt(out / "labels_full.csv", dtype=np.int64)  # -1 is no label
        assert full.size == 12
        assert np.all(full[[0, 3, 8]] == -1)  # background rows stay sentinel
        raw = (out / "label_map.pgm").read_bytes()
        assert raw.startswith(b"P5\n4 3\n255\n")
        assert raw[-12:][0] == 255  # first pixel was masked out

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_failed_run_leaves_no_out_dir(self, blob_file, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(train_args(blob_file, out, "--lr", "1e300", "--lambda2", "1")) == 1
        assert "diverged" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["blobs.dcmx", "blobs.labels.csv"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_failed_run_leaves_no_parent_it_created(self, blob_file, tmp_path, capsys):
        (tmp_path / "nest").mkdir()
        out = tmp_path / "nest" / "deeper" / "run"
        assert main(train_args(blob_file, out, "--lr", "1e300", "--lambda2", "1")) == 1
        assert "diverged" in capsys.readouterr().err
        assert list((tmp_path / "nest").iterdir()) == []  # nest was there before

    def test_nonempty_out_dir_rejected_before_training(self, blob_file, tmp_path,
                                                       capsys):
        out = tmp_path / "run"
        out.mkdir()
        (out / "notes.txt").write_text("keep me")
        assert main(train_args(blob_file, out)) == 2
        assert "not an empty directory" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["notes.txt"]
        assert (out / "notes.txt").read_text() == "keep me"

    def test_map_shape_needs_mask_unlabeled(self, tmp_path, capsys):
        out = tmp_path / "run"
        args = image_args(image_file(tmp_path), out, "--map-shape", "3x4")
        args.remove("--mask-unlabeled")
        assert main(args) == 2
        assert "--mask-unlabeled" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("k", ["256", "257"])
    def test_map_shape_needs_k_within_gray_levels(self, tmp_path, capsys, k):
        # gray 255 marks background, so cluster 255 would be drawn as background
        out = tmp_path / "run"
        args = image_args(image_file(tmp_path), out, "--map-shape", "3x4",
                          "--epochs", "0")
        args[args.index("--k") + 1] = k
        assert main(args) == 2
        assert f"got --k {k}" in capsys.readouterr().err
        assert not out.exists()

    def test_map_shape_must_fit_image_before_training(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(image_args(image_file(tmp_path), out, "--map-shape", "5x5")) == 2
        assert "5x5" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("kind", ["plain", "masked", "sweep cell"])
    def test_manifest_maps_every_other_file_of_the_run(self, blob_file, tmp_path, kind):
        run = tmp_path / "run"
        if kind == "plain":
            assert main(train_args(blob_file, run, "--epochs", "3")) == 0
        elif kind == "masked":
            assert main(image_args(image_file(tmp_path), run, "--map-shape", "3x4")) == 0
        else:
            assert main(sweep_args(blob_file, tmp_path / "sw", "--grid", "0.3",
                                   "--epochs", "3")) == 0
            run = tmp_path / "sw" / "lambda1=0.3" / "seed5"
        files = sorted(p.name for p in run.iterdir() if p.name != "manifest.json")
        if kind == "masked":
            assert {"labels_full.csv", "label_map.pgm"} <= set(files)
        artifacts_map = json.loads((run / "manifest.json").read_text())["artifacts"]
        assert artifacts_map == {name.replace(".", "_"): name for name in files}

    @pytest.mark.parametrize("batch", ["full", "32"])
    def test_epoch_log_holds_the_reports_train_returned(self, blob_file, tmp_path,
                                                        monkeypatch, batch):
        calls = []

        def spy(*args, **kwargs):
            result = train(*args, **kwargs)
            calls.append((kwargs, result[2]))
            return result

        monkeypatch.setattr(cli, "train", spy)
        out = tmp_path / "run"
        assert main(train_args(blob_file, out, "--batch", batch)) == 0
        ((kwargs, reports),) = calls
        assert kwargs.get("on_epoch") is None
        lines = [artifacts.EPOCH_LOG_HEADER, *map(epoch_csv_line, reports)]
        assert (out / "epoch_log.csv").read_bytes() == \
            "".join(line + "\n" for line in lines).encode("ascii")

    def test_out_dir_below_a_file_exits_2_before_training(self, blob_file, tmp_path,
                                                         capsys, monkeypatch):
        monkeypatch.setattr(cli, "train", untouched)
        (tmp_path / "plain.txt").write_text("a file, not a directory")
        assert main(train_args(blob_file, tmp_path / "plain.txt" / "run")) == 2
        assert "plain.txt" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["blobs.dcmx", "blobs.labels.csv", "plain.txt"]

    @pytest.mark.parametrize("name", ["x.csv", "x.bin"])
    def test_dcmx_bytes_train_whatever_the_name(self, blob_file, tmp_path, name):
        labels = ("--labels", str(blob_file.parent / "blobs.labels.csv"))
        assert main(train_args(blob_file, tmp_path / "ref", *labels)) == 0
        renamed = tmp_path / name
        renamed.write_bytes(blob_file.read_bytes())
        assert main(train_args(renamed, tmp_path / "run", *labels)) == 0
        for artifact in ("epoch_log.csv", "labels.csv", "checkpoint.bin"):
            assert (tmp_path / "ref" / artifact).read_bytes() == \
                (tmp_path / "run" / artifact).read_bytes(), artifact

    def test_csv_text_named_dcmx_trains_as_csv(self, tmp_path):
        data = image_file(tmp_path)
        renamed = tmp_path / "img.dcmx"  # the same companion img.labels.csv
        renamed.write_text(data.read_text())
        assert main(image_args(data, tmp_path / "ref")) == 0
        assert main(image_args(renamed, tmp_path / "run")) == 0
        for artifact in ("epoch_log.csv", "labels_full.csv", "checkpoint.bin"):
            assert (tmp_path / "ref" / artifact).read_bytes() == \
                (tmp_path / "run" / artifact).read_bytes(), artifact

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_feature_beyond_float32_exits_2_naming_the_file(self, tmp_path, capsys):
        data = tmp_path / "big.csv"
        data.write_text("0.5,1e39\n0.25,0.5\n0.75,0.25\n")
        out = tmp_path / "run"
        code = main(["train", "--data", str(data), "--k", "1", "--dims", "2,1",
                     "--normalize", "none", "--out-dir", str(out)])
        assert code == 2
        assert f"{data}: a feature value is beyond float32" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["big.csv"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_minmax_of_overflowing_span_trains(self, tmp_path, monkeypatch):
        """-1e308..1e308 spans more than float64 holds, yet train gets
        values in [0, 1] and the run ends with exit 0."""
        seen = []

        def spy(features, *args, **kwargs):
            seen.append(features)
            return train(features, *args, **kwargs)

        monkeypatch.setattr(cli, "train", spy)
        data = tmp_path / "big.csv"
        data.write_text("0.5,-1e308\n0.25,1e308\n0.75,0\n")
        assert main(["train", "--data", str(data), "--k", "1", "--dims", "2,1",
                     "--epochs", "1", "--normalize", "minmax",
                     "--out-dir", str(tmp_path / "run")]) == 0
        assert np.all((seen[0] >= 0.0) & (seen[0] <= 1.0))
        assert np.array_equal(seen[0][:, 1], [0.0, 1.0, 0.5])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zscore_of_overflowing_squares_trains(self, tmp_path, monkeypatch):
        """+/-1e200 squares past float64, yet its z-score is finite: train
        gets z-scores within sqrt(n - 1) and the run ends with exit 0."""
        seen = []

        def spy(features, *args, **kwargs):
            seen.append(features)
            return train(features, *args, **kwargs)

        monkeypatch.setattr(cli, "train", spy)
        data = tmp_path / "big.csv"
        data.write_text("0.5,-1e200\n0.25,1e200\n0.75,0\n")
        assert main(["train", "--data", str(data), "--k", "1", "--dims", "2,1",
                     "--epochs", "1", "--normalize", "zscore",
                     "--out-dir", str(tmp_path / "run")]) == 0
        assert np.all(np.abs(seen[0]) <= np.sqrt(2) * (1 + 1e-12))
        assert np.allclose(seen[0][:, 1], [-np.sqrt(1.5), np.sqrt(1.5), 0.0], atol=1e-12)

    def test_k_above_rows_exits_2_before_any_directory(self, tmp_path, capsys,
                                                       monkeypatch):
        """The 12-pixel image keeps 9 rows under --mask-unlabeled, so --k 10
        is refused naming both numbers, before training or any directory."""
        def no_training(*args, **kwargs):
            raise AssertionError("trained")

        monkeypatch.setattr(cli, "train", no_training)
        out = tmp_path / "run"
        assert main(image_args(image_file(tmp_path), out, "--k", "10")) == 2
        assert "--k 10 is above the 9 rows to train on" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["img.csv", "img.labels.csv"]

    def test_zero_layer_width_exits_2(self, blob_file, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--data", str(blob_file), "--k", "1", "--dims", "2,0",
                     "--out-dir", str(out)]) == 2
        assert "layer widths must be positive, got [2, 0, 2]" in capsys.readouterr().err
        assert not out.exists()


@given(hnp.arrays(np.float64, st.tuples(st.integers(2, 12), st.integers(1, 4)),
                  elements=st.floats(allow_nan=False, allow_infinity=False)),
       st.sampled_from(["minmax", "zscore"]))
@settings(max_examples=40, deadline=None)
def test_train_on_any_finite_csv_exits_0_or_2_cleanly(tmp_path_factory, matrix, mode):
    """A CSV of 2-12 rows and 1-4 columns of finite float64, written with
    repr, trains for one epoch (exit 0) or is refused as bad input (exit 2)
    leaving neither the run directory nor its staging sibling; no warning
    escapes either way."""
    root = tmp_path_factory.mktemp("any")
    data = root / "m.csv"
    data.write_text("".join(",".join(map(repr, row)) + "\n" for row in matrix.tolist()))
    out = root / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["train", "--data", str(data), "--k", "1",
                     "--dims", f"{matrix.shape[1]},1", "--epochs", "1",
                     "--normalize", mode, "--out-dir", str(out)])
    assert code == 0 or (code == 2 and sorted(p.name for p in root.iterdir()) == ["m.csv"])


FLOAT32_SPECIALS = [0x7FA00000, 0x7FC00000, 0x7F800000, 0xFF800000,  # sNaN, qNaN, +/-inf
                    0x7F7FFFFF, 0x00000001, 0x807FFFFF]  # FLT_MAX, subnormals
float32_words = st.one_of(
    st.sampled_from(FLOAT32_SPECIALS).map(lambda bits: bits.to_bytes(4, "little")),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(
        lambda value: np.float32(value).astype("<f4").tobytes()),
)


@given(st.integers(0, 4), st.integers(0, 4), st.one_of(st.just(1), st.integers(0, 2)),
       st.data(), st.one_of(st.just(0), st.integers(-3, 3)),
       st.sampled_from(["none", "minmax", "zscore"]))
@settings(max_examples=100, deadline=None)
def test_train_on_any_dcmx_bytes_exits_cleanly(tmp_path_factory, rows, cols, version,
                                               draw, resize, mode):
    """A dcmx file of 0-4 rows and columns, version byte 0-2, whose float32
    payload mixes finite values with NaNs, infinities, FLT_MAX and
    subnormals, cut or padded by 0-3 bytes, trains for one epoch with exit 0,
    1 or 2; exit 2 leaves neither the run directory nor its staging sibling,
    and no warning escapes."""
    words = draw.draw(st.lists(float32_words, min_size=rows * cols, max_size=rows * cols))
    payload = b"".join(words)
    payload = payload[:len(payload) + resize] if resize < 0 else payload + bytes(resize)
    root = tmp_path_factory.mktemp("dcmx")
    data = root / "m.dcmx"
    data.write_bytes(b"DCMX" + bytes([version]) + rows.to_bytes(4, "little")
                     + cols.to_bytes(4, "little") + payload)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["train", "--data", str(data), "--k", "1", "--dims", f"{max(cols, 1)},1",
                     "--epochs", "1", "--normalize", mode, "--out-dir", str(root / "run")])
    assert code in (0, 1, 2)
    if code == 2:
        assert sorted(p.name for p in root.iterdir()) == ["m.dcmx"]


@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(1, 3)),
                  elements=st.floats(allow_nan=False, allow_infinity=False)),
       st.data(), st.integers(1, 6), st.booleans(),
       st.sampled_from(["none", "minmax", "zscore"]))
@settings(max_examples=50, deadline=None)
def test_sweep_on_any_labelled_csv_exits_cleanly(tmp_path_factory, matrix, draw, k,
                                                 masked, mode):
    """A two-cell sweep of one epoch on a labelled CSV of 1-8 rows and 1-3
    columns of finite float64 exits 0, 1 or 2, whatever --k and the labels
    (0-3, 0 being background under --mask-unlabeled); exit 2 leaves no
    --out-dir, and no warning escapes."""
    root = tmp_path_factory.mktemp("sweep")
    data = root / "m.csv"
    data.write_text("".join(",".join(map(repr, row)) + "\n" for row in matrix.tolist()))
    labels = draw.draw(st.lists(st.integers(0, 3), min_size=len(matrix),
                                max_size=len(matrix)))
    save_label_csv(root / "m.labels.csv", labels)
    out = root / "sweep"
    args = ["sweep", "--data", str(data), "--k", str(k), "--dims", f"{matrix.shape[1]},1",
            "--grid", "0,0.3", "--epochs", "1", "--normalize", mode,
            "--out-dir", str(out)] + (["--mask-unlabeled"] if masked else [])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(args)
    assert code in (0, 1, 2)
    if code == 2:
        assert sorted(p.name for p in root.iterdir()) == ["m.csv", "m.labels.csv"]


class TestReplay:
    def test_byte_identical_outputs(self, blob_file, tmp_path):
        first = tmp_path / "run1"
        assert main(train_args(blob_file, first)) == 0
        second = tmp_path / "run2"
        assert main(["replay", str(first / "manifest.json"),
                     "--out-dir", str(second)]) == 0
        for name in ("epoch_log.csv", "labels.csv", "labels.dcmx"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_minibatch_run_replays_byte_identical(self, blob_file, tmp_path):
        first = tmp_path / "run1"
        assert main(train_args(blob_file, first, "--batch", "32")) == 0
        manifest = json.loads((first / "manifest.json").read_text())
        assert manifest["spec"]["config"]["batch_size"] == 32
        second = tmp_path / "run2"
        assert main(["replay", str(first / "manifest.json"),
                     "--out-dir", str(second)]) == 0
        for name in ("epoch_log.csv", "labels.csv", "labels.dcmx"):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_manifest_with_former_artifact_keys_replays(self, blob_file, tmp_path):
        first = tmp_path / "run1"
        assert main(train_args(blob_file, first, "--epochs", "5")) == 0
        manifest = first / "manifest.json"
        record = json.loads(manifest.read_text())
        # epoch_log and checkpoint: the keys written before the map was read off the files
        record["artifacts"] = {"labels_csv": "labels.csv", "labels_dcmx": "labels.dcmx",
                               "epoch_log": "epoch_log.csv", "checkpoint": "checkpoint.bin"}
        manifest.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        second = tmp_path / "run2"
        assert main(["replay", str(manifest), "--out-dir", str(second)]) == 0
        for name in ("epoch_log.csv", "labels.csv", "labels.dcmx", "checkpoint.bin"):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_fingerprint_mismatch_exits_2(self, blob_file, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(train_args(blob_file, out)) == 0
        blob_file.write_bytes(blob_file.read_bytes()[:-4] + bytes(4))
        code = main(["replay", str(out / "manifest.json"),
                     "--out-dir", str(tmp_path / "replayed")])
        assert code == 2
        assert "fingerprint" in capsys.readouterr().err

    def test_data_rewritten_during_training_fails_replay(self, blob_file, tmp_path,
                                                         capsys, monkeypatch):
        """The manifest fingerprints the bytes the run read, not the file as it
        is once training ends."""
        def train_then_rewrite(*args, **kwargs):
            result = train(*args, **kwargs)
            data.save_dcmx(blob_file, data.load_dcmx(blob_file)[::-1])
            return result

        monkeypatch.setattr(cli, "train", train_then_rewrite)
        out = tmp_path / "run"
        assert main(train_args(blob_file, out)) == 0
        monkeypatch.undo()
        copy = tmp_path / "copy"
        assert main(["replay", str(out / "manifest.json"), "--out-dir", str(copy)]) == 2
        err = capsys.readouterr().err
        assert "blobs.dcmx: fingerprint" in err and "does not match" in err
        assert not copy.exists()

    def test_replay_fingerprints_each_input_once(self, blob_file, tmp_path, capsys,
                                                 monkeypatch):
        out = tmp_path / "run"
        assert main(train_args(blob_file, out)) == 0
        hashed, sha256_file = [], artifacts.sha256_file

        def counted(path):
            hashed.append(Path(path).name)
            return sha256_file(path)

        monkeypatch.setattr(artifacts, "sha256_file", counted)
        replay = ["replay", str(out / "manifest.json"), "--out-dir"]
        assert main([*replay, str(tmp_path / "copy")]) == 0
        assert sorted(hashed) == ["blobs.dcmx", "blobs.labels.csv"]
        # a data file rewritten after the run is refused before it is parsed
        hashed.clear()
        blob_file.write_bytes(blob_file.read_bytes()[:-4] + bytes(4))

        def no_parse(*args, **kwargs):
            raise AssertionError("replay parsed a file whose fingerprint changed")

        monkeypatch.setattr(data, "load", no_parse)
        changed = tmp_path / "changed"
        assert main([*replay, str(changed)]) == 2
        err = capsys.readouterr().err
        assert "blobs.dcmx: fingerprint" in err and "does not match" in err
        assert len(hashed) == 2 and not changed.exists()

    @pytest.mark.parametrize("field, value", [("activation", "relu"),
                                              ("activation", "TANH"),
                                              ("dec_activation", "Sigmoid")])
    def test_activation_not_a_flag_choice_exits_2_before_reading(
            self, blob_file, tmp_path, capsys, monkeypatch, field, value):
        """Spelled exactly as the flags' choices, checked before any input
        is hashed or parsed."""
        assert main(train_args(blob_file, tmp_path / "run")) == 0
        path = tmp_path / "run" / "manifest.json"
        record = json.loads(path.read_text())
        record["spec"][field] = value
        path.write_text(json.dumps(record))
        monkeypatch.setattr(artifacts, "sha256_file", untouched)
        monkeypatch.setattr(data, "load", untouched)
        assert main(["replay", str(path), "--out-dir", str(tmp_path / "copy")]) == 2
        assert f"unknown {field} {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "copy").exists()

    def test_other_engine_version_exits_2_before_training(
        self, blob_file, tmp_path, capsys, monkeypatch
    ):
        out = tmp_path / "run"
        assert main(train_args(blob_file, out)) == 0
        path = out / "manifest.json"
        record = json.loads(path.read_text())
        record["engine_version"] = "0.3.0"  # the engine of scipy's Cholesky
        path.write_text(json.dumps(record))

        def no_training(*args, **kwargs):
            raise AssertionError("replay trained a manifest of another engine")

        monkeypatch.setattr(cli, "train", no_training)
        copy = tmp_path / "copy"
        assert main(["replay", str(path), "--out-dir", str(copy)]) == 2
        err = capsys.readouterr().err
        assert "0.3.0" in err and __version__ in err
        assert not copy.exists()


class TestReplayAnywhere:
    ARTIFACTS = ("epoch_log.csv", "labels.csv", "labels.dcmx", "labels_full.csv",
                 "label_map.pgm", "checkpoint.bin")

    def test_masked_run_from_another_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        image_file(tmp_path)
        assert main(image_args("img.csv", "run", "--labels", "img.labels.csv",
                               "--map-shape", "3x4")) == 0
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        assert main(["replay", "../run/manifest.json", "--out-dir", "copy"]) == 0
        for name in self.ARTIFACTS:
            assert (tmp_path / "run" / name).read_bytes() == \
                (elsewhere / "copy" / name).read_bytes(), name

    def test_changed_labels_rejected(self, tmp_path, capsys):
        data = image_file(tmp_path)
        assert main(image_args(data, tmp_path / "run")) == 0
        labels = tmp_path / "img.labels.csv"
        flipped = labels.read_text().splitlines()
        flipped[0] = "1"  # pixel 0 leaves the background
        labels.write_text("\n".join(flipped) + "\n")
        copy = tmp_path / "copy"
        assert main(["replay", str(tmp_path / "run" / "manifest.json"),
                     "--out-dir", str(copy)]) == 2
        assert "img.labels.csv: fingerprint" in capsys.readouterr().err
        assert not copy.exists()

    @pytest.mark.parametrize("edit", ["extra", "format", "missing", "config", "value",
                                      "type", "nan", "no_dims", "widening_dims",
                                      "negative_map", "three_sided_map", "list"])
    def test_manifest_keys_checked(self, blob_file, tmp_path, capsys, edit):
        out = tmp_path / "run"
        assert main(train_args(blob_file, out)) == 0
        path = out / "manifest.json"
        record = json.loads(path.read_text())
        if edit == "extra":
            record["note"] = "hand-edited"
        elif edit == "format":  # written before the first bytes chose the format
            record["spec"]["format"] = None
        elif edit == "missing":
            del record["spec"]["normalize"]
        elif edit == "config":
            record["spec"]["config"]["momentum"] = 0.9
        elif edit == "type":
            record["spec"]["config"]["k"] = "3"
        elif edit == "nan":
            record["spec"]["config"]["tol"] = float("nan")  # written as NaN
        elif edit == "no_dims":
            record["spec"]["dims"] = []
        elif edit == "widening_dims":
            record["spec"]["dims"] = [10, 12]
        elif edit == "negative_map":
            record["spec"]["map_shape"] = [-2, -3]
        elif edit == "three_sided_map":
            record["spec"]["map_shape"] = [2, 2, 2]
        elif edit == "list":
            record = [record]
        else:
            record["spec"]["normalize"] = "l2"
        path.write_text(json.dumps(record))
        assert main(["replay", str(path), "--out-dir", str(tmp_path / "copy")]) == 2
        assert not (tmp_path / "copy").exists()
        err = capsys.readouterr().err
        expected = {"extra": "note", "format": "unknown keys ['format']",
                    "missing": "normalize", "config": "momentum",
                    "value": "'l2'", "type": "spec.config.k: expected int, got '3'",
                    "nan": "tol must be finite",
                    "no_dims": "need at least an input width",
                    "widening_dims": "encoder widths must be non-increasing",
                    "negative_map": "two positive sides",
                    "three_sided_map": "two positive sides",
                    "list": "expected an object, got list"}
        assert expected[edit] in err


class TestGradcheck:
    def test_default_passes(self, capsys):
        assert main(["gradcheck"]) == 0
        assert "max relative error" in capsys.readouterr().out

    def test_other_activation_and_lambda(self):
        assert main(["gradcheck", "--lambda1", "0.7",
                     "--activation", "softplus"]) == 0

    def test_perturb_hook_detected(self, monkeypatch, capsys):
        exact = autoencoder.backward

        def flipped(*args, **kwargs):
            grads = exact(*args, **kwargs)
            target = max(grads.d_weights, key=lambda w: np.abs(w).max())
            target[np.unravel_index(np.argmax(np.abs(target)), target.shape)] *= -1
            return grads

        monkeypatch.setattr(autoencoder, "backward", flipped)
        assert main(["gradcheck"]) == 1
        assert " at W" in capsys.readouterr().out

    def test_nan_gradient_detected_at_its_coordinate(self, monkeypatch, capsys):
        exact = autoencoder.backward

        def poisoned(*args, **kwargs):
            grads = exact(*args, **kwargs)
            grads.d_weights[1][0, 1] = np.nan
            return grads

        monkeypatch.setattr(autoencoder, "backward", poisoned)
        assert main(["gradcheck"]) == 1
        assert "max relative error nan at W2[0, 1]" in capsys.readouterr().out

    def test_overflowing_step_fails_without_a_warning(self, capsys):
        # every probe's loss overflows; a RuntimeWarning is an error here
        assert main(["gradcheck", "--step", "1e300"]) == 1
        assert "max relative error nan" in capsys.readouterr().out

    def test_overflowing_analytic_pass_fails_without_a_warning(self, capsys):
        # lambda1 = 1e308 overflows the analytic backward pass as well
        assert main(["gradcheck", "--lambda1", "1e308"]) == 1
        assert "max relative error nan" in capsys.readouterr().out

    BAD_SETTINGS = {  # (flag, value) -> what stderr must say
        **{("--step", v): "--step must be finite" for v in ("0", "nan", "inf")},
        **{("--tolerance", v): "--tolerance must be finite"
           for v in ("-0.5", "nan", "inf")},
        ("--lambda1", "nan"): "lambda1 must be finite",
        ("--lambda1", "-1"): "trade-off weights must be >= 0",
        ("--lambda2", "-0.5"): "trade-off weights must be >= 0",
        **{("--samples", v): f"--samples must be at least --k (2), got {v}"
           for v in ("-3", "0", "1")},
    }

    @pytest.mark.parametrize("flag, value", BAD_SETTINGS)
    def test_bad_step_or_tolerance_exits_2_before_probing(self, monkeypatch, capsys,
                                                          flag, value):
        def no_probe(*args, **kwargs):
            raise AssertionError("gradcheck probed with a bad setting")

        monkeypatch.setattr(autoencoder, "forward", no_probe)
        assert main(["gradcheck", flag, value]) == 2
        assert self.BAD_SETTINGS[flag, value] in capsys.readouterr().err


class TestEvaluate:
    def test_identical_files(self, tmp_path, capsys):
        path = tmp_path / "labels.csv"
        save_label_csv(path, [0, 1, 2, 1, 0])
        assert main(["evaluate", str(path), str(path)]) == 0
        out = capsys.readouterr().out
        assert "accuracy 1.000000" in out
        assert "nmi 1.000000" in out

    def test_length_mismatch_exits_2(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        save_label_csv(a, [0, 1])
        save_label_csv(b, [0, 1, 1])
        assert main(["evaluate", str(a), str(b)]) == 2
        assert f"{a} holds 2 labels, {b} holds 3" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["", "\n\n"])
    @pytest.mark.parametrize("empty", [("predicted",), ("truth",), ("predicted", "truth")],
                             ids=["predicted", "truth", "both"])
    def test_file_without_labels_exits_2_naming_it(self, tmp_path, capsys, empty, text):
        paths = {name: tmp_path / f"{name}.csv" for name in ("predicted", "truth")}
        for name, path in paths.items():
            path.write_text(text if name in empty else "0\n1\n")
        assert main(["evaluate", str(paths["predicted"]), str(paths["truth"])]) == 2
        assert f"{empty[0]}.csv: no labels" in capsys.readouterr().err

    @pytest.mark.parametrize("signed", ["predicted", "truth"])
    def test_negative_label_exits_2_naming_file_and_line(self, tmp_path, capsys, signed):
        paths = {name: tmp_path / f"{name}.csv" for name in ("predicted", "truth")}
        for name, path in paths.items():
            path.write_text("0\n1\n-1\n" if name == signed else "0\n1\n1\n")
        assert main(["evaluate", str(paths["predicted"]), str(paths["truth"])]) == 2
        assert f"{signed}.csv:3: negative label -1" in capsys.readouterr().err

    def test_label_above_int64_exits_2_naming_file_and_line(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text("0\n1\n")
        b.write_text("0\n99999999999999999999\n")
        assert main(["evaluate", str(a), str(b)]) == 2
        assert "b.csv:2: label 99999999999999999999 is above" in capsys.readouterr().err


def sweep_args(data, out_dir, *extra):
    return ["sweep", "--data", str(data), "--k", "3", "--dims", "6,4,3",
            "--epochs", "20", "--seed", "5", "--out-dir", str(out_dir), *extra]


def scene_args(scene, out_dir, *extra):
    return ["sweep", "--data", str(scene), "--k", "3", "--epochs", "40", "--seeds", "2",
            "--lr", "0.01", "--grid", "0.3", "--mask-unlabeled",
            "--out-dir", str(out_dir), *extra]


def sweep_rows(out_dir):
    header, *rows = (out_dir / "sweep.csv").read_text().splitlines()
    assert header == "lambda1,seed,accuracy,nmi"
    return [row.split(",") for row in rows]


REPLAYED = ("epoch_log.csv", "labels.csv", "labels.dcmx", "labels_full.csv")

SWEEP_BAD_INPUT = {  # problem -> what stderr must say
    "nonempty out dir": "not an empty directory",
    "no labels": "needs labels",  # --mask-unlabeled says so before sweep does
    "missing data": "No such file or directory",
    "malformed data": "could not convert",
    "zero seeds": "--seeds must be at least 1, got 0",
    "grid text": "argument --grid: expects comma-separated numbers",
    "repeated grid value": "names a cell directory twice",
    "equal grid values": "names a cell directory twice",
    "map shape off the image": "the image has 75",
    "k above rows": "--k 61 is above the 60 rows to train on",
    "flag train rejects": "unrecognized arguments: --momentum 0.9",
}


class TestSweep:
    def test_singleton_grid_matches_train(self, blob_file, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert main(sweep_args(blob_file, out, "--epochs", "40", "--grid", "0.3")) == 0
        # at the cell's depth below tmp_path, so the manifest's data path agrees
        run_dir = tmp_path / "ref" / "lambda1=0.3" / "seed5"
        assert main(train_args(blob_file, run_dir)) == 0
        cell = out / "lambda1=0.3" / "seed5"
        assert sorted(p.name for p in cell.iterdir()) == \
            sorted(p.name for p in run_dir.iterdir())
        for path in run_dir.iterdir():
            assert path.read_bytes() == (cell / path.name).read_bytes(), path.name
        final = (run_dir / "epoch_log.csv").read_text().splitlines()[-1].split(",")
        assert sweep_rows(out) == [["0.3", "5", f"{float(final[5]):.6f}",
                                    f"{float(final[6]):.6f}"]]

    def test_without_dims_matches_train(self, eight_band_file, tmp_path, capsys):
        args = ["--data", str(eight_band_file), "--k", "3", "--epochs", "20"]
        assert main(["sweep", *args, "--grid", "0.3",
                     "--out-dir", str(tmp_path / "sweep")]) == 0
        (row,) = sweep_rows(tmp_path / "sweep")
        run_dir = tmp_path / "ref"
        assert main(["train", *args, "--out-dir", str(run_dir)]) == 0
        final = (run_dir / "epoch_log.csv").read_text().splitlines()[-1].split(",")
        assert row == ["0.3", "0", f"{float(final[5]):.6f}", f"{float(final[6]):.6f}"]

    def test_grid_with_zero_baseline(self, blob_file, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert main(sweep_args(blob_file, out, "--grid", "0,0.3")) == 0
        assert [row[:2] for row in sweep_rows(out)] == [["0", "5"], ["0.3", "5"]]
        assert sorted(p.name for p in out.iterdir()) == \
            ["lambda1=0", "lambda1=0.3", "sweep.csv"]
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == ["lambda1=0", "lambda1=0.3"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_every_cell_diverging_exits_1(self, blob_file, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert main(sweep_args(blob_file, out, "--grid", "0,0.3",
                               "--lr", "1e300", "--lambda2", "1")) == 1
        assert capsys.readouterr().err.count("failed") == 2
        assert sweep_rows(out) == [["0", "5", "nan", "nan"], ["0.3", "5", "nan", "nan"]]
        assert [p.name for p in out.iterdir()] == ["sweep.csv"]  # no cell directory

    def test_io_error_in_a_cell_keeps_the_table(self, blob_file, tmp_path, capsys,
                                                monkeypatch):
        calls = []

        def full_disk(*args, **kwargs):
            calls.append(kwargs)
            if len(calls) == 2:
                raise OSError(28, "No space left on device")
            return train(*args, **kwargs)

        monkeypatch.setattr(cli, "train", full_disk)
        out = tmp_path / "sweep"
        assert main(sweep_args(blob_file, out, "--grid", "0,0.3")) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert [row[:2] for row in sweep_rows(out)] == [["0", "5"]]
        assert sorted(p.name for p in out.iterdir()) == ["lambda1=0", "sweep.csv"]

    def test_two_sweeps_identical(self, blob_file, tmp_path, capsys):
        extra = ("--epochs", "12", "--seed", "7", "--grid", "0,0.1,0.3,1.0")
        assert main(sweep_args(blob_file, tmp_path / "a", *extra)) == 0
        first = capsys.readouterr().out
        assert main(sweep_args(blob_file, tmp_path / "b", *extra)) == 0
        assert capsys.readouterr().out == first
        rows = sweep_rows(tmp_path / "a")
        assert (tmp_path / "b" / "sweep.csv").read_bytes() == \
            (tmp_path / "a" / "sweep.csv").read_bytes()
        assert [row[0] for row in rows] == ["0", "0.1", "0.3", "1"]
        assert all(np.isfinite(float(v)) for row in rows for v in row[2:])

    def test_without_labels_exits_2(self, blob_file, tmp_path, capsys):
        (blob_file.parent / "blobs.labels.csv").unlink()
        out = tmp_path / "sweep"
        assert main(sweep_args(blob_file, out, "--grid", "0.3")) == 2
        assert "sweep needs labels" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_cell_rejects_grid_before_training(self, blob_file, tmp_path, capsys,
                                                       monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("a cell trained before the grid was checked")

        monkeypatch.setattr(cli, "train", no_training)
        monkeypatch.setattr(autoencoder, "init", no_training)
        out = tmp_path / "sweep"
        assert main(sweep_args(blob_file, out, "--grid", "0.3,-1")) == 2
        assert "lambda1" in capsys.readouterr().err
        assert not out.exists()

    def test_seeds_match_direct_train_and_replay(self, scene, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert main(scene_args(scene, out)) == 0
        (summary,) = capsys.readouterr().out.splitlines()
        ds = normalize(mask_unlabeled(load(scene)))
        dims = mirror_dims(default_dims(8, 3))
        accs, nmis = [], []
        for seed in (0, 1):
            config = TrainConfig(k=3, lr=0.01, max_epochs=40, seed=seed)
            _, _, reports = train(ds.features, config, dims, labels=ds.labels)
            cell = out / "lambda1=0.3" / f"seed{seed}"
            last = (cell / "epoch_log.csv").read_text().splitlines()[-1]
            assert last == epoch_csv_line(reports[-1])
            accs.append(reports[-1].accuracy)
            nmis.append(reports[-1].nmi)
            copy = tmp_path / f"replay{seed}"
            assert main(["replay", str(cell / "manifest.json"),
                         "--out-dir", str(copy)]) == 0
            for name in REPLAYED:
                assert (cell / name).read_bytes() == (copy / name).read_bytes(), name
        assert sweep_rows(out) == [["0.3", str(seed), f"{acc:.6f}", f"{nmi:.6f}"]
                                   for seed, acc, nmi in zip((0, 1), accs, nmis)]
        assert summary == (
            f"lambda1=0.3 2/2 cells finished"
            f"  accuracy {100 * np.mean(accs):.2f} +/- {100 * np.std(accs):.2f}"
            f"  nmi {100 * np.mean(nmis):.2f} +/- {100 * np.std(nmis):.2f}")

    def test_scene_is_parsed_once_per_sweep(self, scene, tmp_path, monkeypatch):
        calls, parse = [], data.load_feature_csv

        def counted(path):
            calls.append(path)
            return parse(path)

        monkeypatch.setattr(data, "load_feature_csv", counted)
        assert main(scene_args(scene, tmp_path / "sweep", "--epochs", "2")) == 0
        assert len(calls) == 1
        assert len(sweep_rows(tmp_path / "sweep")) == 2

    def test_without_mask_unlabeled_clusters_every_pixel(self, scene, tmp_path):
        out = tmp_path / "sweep"
        args = scene_args(scene, out, "--epochs", "5", "--seeds", "1")
        args.remove("--mask-unlabeled")
        assert main(args) == 0
        cell = out / "lambda1=0.3" / "seed0"
        assert not (cell / "labels_full.csv").exists()
        assert len((cell / "labels.csv").read_text().splitlines()) == 75

    def test_train_flags_reach_every_cell(self, scene, tmp_path):
        out = tmp_path / "sweep"
        assert main(scene_args(scene, out, "--tol", "1e-3", "--lambda2", "0.001",
                               "--epochs", "3", "--grid", "0,0.3")) == 0
        for lambda1 in ("0", "0.3"):
            for seed in (0, 1):
                manifest = out / f"lambda1={lambda1}" / f"seed{seed}" / "manifest.json"
                config = json.loads(manifest.read_text())["spec"]["config"]
                assert (config["tol"], config["lambda2"], config["max_epochs"],
                        config["lr"], config["lambda1"], config["seed"]) == \
                    (1e-3, 1e-3, 3, 0.01, float(lambda1), seed)

    @pytest.mark.parametrize("problem", SWEEP_BAD_INPUT)
    def test_bad_input_exits_2_before_training(self, scene, tmp_path, capsys,
                                               monkeypatch, problem):
        out = tmp_path / "sweep"
        args = scene_args(scene, out)
        if problem == "nonempty out dir":
            out.mkdir()
            (out / "notes.txt").write_text("keep me")
        elif problem == "no labels":
            (tmp_path / "scene.labels.csv").unlink()
        elif problem == "missing data":
            args[args.index("--data") + 1] = str(tmp_path / "nope.csv")
        elif problem == "malformed data":
            scene.write_text("1.0,2.0\nfoo,3.0\n")
        elif problem == "zero seeds":
            args += ["--seeds", "0"]
        else:
            args += {"grid text": ["--grid", "0.3,x"],
                     "repeated grid value": ["--grid", "0.3,0.3"],
                     "equal grid values": ["--grid", "0.3,0.30"],
                     "map shape off the image": ["--map-shape", "5x5"],
                     "k above rows": ["--k", "61", "--dims", "8,4,3"],
                     "flag train rejects": ["--momentum", "0.9"]}[problem]

        def no_training(*args, **kwargs):
            raise AssertionError("a cell trained on bad input")

        monkeypatch.setattr(cli, "train", no_training)
        monkeypatch.setattr(autoencoder, "init", no_training)
        try:
            code = main(args)
        except SystemExit as exc:  # argparse's own checks
            code = exc.code
        assert code == 2
        assert SWEEP_BAD_INPUT[problem] in capsys.readouterr().err
        assert not out.exists() or [p.name for p in out.iterdir()] == ["notes.txt"]

    def test_map_shape_draws_every_cell(self, tmp_path):
        data_file = image_file(tmp_path)
        out = tmp_path / "sweep"
        assert main(["sweep", "--data", str(data_file), "--k", "2", "--dims", "4,3,2",
                     "--epochs", "5", "--mask-unlabeled", "--map-shape", "3x4",
                     "--grid", "0,0.3", "--out-dir", str(out)]) == 0
        for lambda1 in ("0", "0.3"):
            raw = (out / f"lambda1={lambda1}" / "seed0" / "label_map.pgm").read_bytes()
            assert raw.startswith(b"P5\n4 3\n255\n")


def untouched(*args, **kwargs):
    raise AssertionError("called after a bad setting")


OUT_OF_RANGE = {  # flag -> (bad value, what stderr must say)
    "--seed": ("-1", "seed must be >= 0, got -1"),
    "--k": ("0", "k must be >= 1, got 0"),
    "--epochs": ("-1", "max_epochs must be >= 0, got -1"),
}


@pytest.mark.parametrize("command, flag", [
    ("train", "--seed"), ("sweep", "--seed"), ("replay", "--seed"),
    ("gradcheck", "--seed"), ("train", "--k"), ("train", "--epochs"),
])
def test_out_of_range_config_exits_2_before_reading_data(blob_file, tmp_path, capsys,
                                                         monkeypatch, command, flag):
    value, message = OUT_OF_RANGE[flag]
    run_flags = ["--data", str(blob_file), "--k", "3", "--dims", "6,4,3",
                 "--epochs", "5"]
    if command == "replay":
        assert main(["train", *run_flags, "--out-dir", str(tmp_path / "run")]) == 0
        path = tmp_path / "run" / "manifest.json"
        record = json.loads(path.read_text())
        record["spec"]["config"][flag[2:]] = int(value)
        path.write_text(json.dumps(record))
        argv = ["replay", str(path), "--out-dir", str(tmp_path / "copy")]
    elif command == "train":
        argv = ["train", *run_flags, flag, value, "--out-dir", str(tmp_path / "copy")]
    elif command == "sweep":
        argv = ["sweep", *run_flags, flag, value, "--grid", "0.3",
                "--out-dir", str(tmp_path / "copy")]
    else:
        argv = ["gradcheck", flag, value]
    monkeypatch.setattr(data, "load", untouched)
    monkeypatch.setattr(autoencoder, "init", untouched)
    before = sorted(tmp_path.iterdir())
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_negative_label_exits_2_before_training(blob_file, tmp_path, capsys,
                                                monkeypatch, command):
    labels = tmp_path / "signed.csv"
    labels.write_text("\n".join(["-1"] + ["0"] * 89) + "\n")
    out = tmp_path / "out"
    argv = [command, "--data", str(blob_file), "--labels", str(labels), "--k", "3",
            "--dims", "6,4,3", "--epochs", "5", "--out-dir", str(out)]
    monkeypatch.setattr(autoencoder, "init", untouched)
    assert main(argv) == 2
    assert "signed.csv:1: negative label -1" in capsys.readouterr().err
    assert not out.exists()


def test_label_above_int64_exits_2_before_training(blob_file, tmp_path, capsys,
                                                   monkeypatch):
    labels = tmp_path / "huge.csv"
    labels.write_text("\n".join(["0", str(2**64)] + ["1"] * 88) + "\n")
    out = tmp_path / "nest" / "out"
    monkeypatch.setattr(autoencoder, "init", untouched)
    assert main(train_args(blob_file, out, "--labels", str(labels))) == 2
    assert f"huge.csv:2: label {2**64} is above" in capsys.readouterr().err
    assert not (tmp_path / "nest").exists()


def test_large_label_ids_score_as_their_rank(blob_file, tmp_path, capsys):
    """Metrics see labels by rank only: class 1 named 10**12 trains and scores
    as it does named 3, the next free id, with no table sized by the id."""
    truth = load_label_csv(blob_file.parent / "blobs.labels.csv")
    logs, scores = [], []
    for name in (10**12, 3):
        labels = tmp_path / f"labels{name}.csv"
        save_label_csv(labels, np.where(truth == 1, name, truth))
        out = tmp_path / f"run{name}"
        assert main(train_args(blob_file, out, "--labels", str(labels))) == 0
        logs.append((out / "epoch_log.csv").read_bytes())
        capsys.readouterr()
        assert main(["evaluate", str(out / "labels.csv"), str(labels)]) == 0
        scores.append(capsys.readouterr().out)
    assert logs[0] == logs[1]
    assert scores[0] == scores[1]
    assert scores[0].startswith("accuracy ")


def test_cli_import_loads_no_scipy():
    """scipy is only the tests' oracle: a fresh process importing the CLI
    must not load it (nor the second BLAS it brings)."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, dcidc.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
