import json

import numpy as np
import pytest

from dcidc import __version__, autoencoder, cli
from dcidc.cli import main
from dcidc.data import load_label_csv, save_label_csv


@pytest.fixture()
def blob_file(tmp_path):
    path = tmp_path / "blobs.dcmx"
    assert main(["synth", "--out", str(path), "--k", "3", "--dim", "6",
                 "--n-per-cluster", "30", "--separation", "8",
                 "--seed", "5"]) == 0
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

    def test_dims_must_match_data(self, blob_file, tmp_path, capsys):
        code = main(["train", "--data", str(blob_file), "--k", "3",
                     "--dims", "9,4,3", "--out-dir", str(tmp_path / "y")])
        assert code == 2
        assert "9" in capsys.readouterr().err

    def test_mask_and_map_artifacts(self, tmp_path):
        data = image_file(tmp_path)
        out = tmp_path / "run"
        assert main(image_args(data, out, "--map-shape", "3x4")) == 0
        full = load_label_csv(out / "labels_full.csv")
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

    def test_map_shape_must_fit_image_before_training(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(image_args(image_file(tmp_path), out, "--map-shape", "5x5")) == 2
        assert "5x5" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())


class TestReplay:
    def test_byte_identical_outputs(self, blob_file, tmp_path):
        first = tmp_path / "run1"
        assert main(train_args(blob_file, first)) == 0
        second = tmp_path / "run2"
        assert main(["replay", str(first / "manifest.json"),
                     "--out-dir", str(second)]) == 0
        for name in ("epoch_log.csv", "labels.csv", "labels.dcmx"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_fingerprint_mismatch_exits_2(self, blob_file, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(train_args(blob_file, out)) == 0
        blob_file.write_bytes(blob_file.read_bytes()[:-4] + bytes(4))
        code = main(["replay", str(out / "manifest.json"),
                     "--out-dir", str(tmp_path / "replayed")])
        assert code == 2
        assert "fingerprint" in capsys.readouterr().err

    def test_other_engine_version_exits_2_before_training(
        self, blob_file, tmp_path, capsys, monkeypatch
    ):
        out = tmp_path / "run"
        assert main(train_args(blob_file, out)) == 0
        path = out / "manifest.json"
        record = json.loads(path.read_text())
        record["engine_version"] = "0.0.9"
        path.write_text(json.dumps(record))

        def no_training(*args, **kwargs):
            raise AssertionError("replay trained a manifest of another engine")

        monkeypatch.setattr(cli, "train", no_training)
        copy = tmp_path / "copy"
        assert main(["replay", str(path), "--out-dir", str(copy)]) == 2
        err = capsys.readouterr().err
        assert "0.0.9" in err and __version__ in err
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

    @pytest.mark.parametrize("edit", ["extra", "missing", "config", "value", "type"])
    def test_manifest_keys_checked(self, blob_file, tmp_path, capsys, edit):
        out = tmp_path / "run"
        assert main(train_args(blob_file, out)) == 0
        path = out / "manifest.json"
        record = json.loads(path.read_text())
        if edit == "extra":
            record["note"] = "hand-edited"
        elif edit == "missing":
            del record["spec"]["normalize"]
        elif edit == "config":
            record["spec"]["config"]["momentum"] = 0.9
        elif edit == "type":
            record["spec"]["config"]["k"] = "3"
        else:
            record["spec"]["normalize"] = "l2"
        path.write_text(json.dumps(record))
        assert main(["replay", str(path), "--out-dir", str(tmp_path / "copy")]) == 2
        err = capsys.readouterr().err
        expected = {"extra": "note", "missing": "normalize", "config": "momentum",
                    "value": "'l2'", "type": "spec.config.k: expected int, got '3'"}
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


class TestSweep:
    def test_singleton_grid_matches_train(self, blob_file, tmp_path, capsys):
        out_csv = tmp_path / "sweep.csv"
        assert main([
            "sweep", "--data", str(blob_file), "--k", "3", "--dims", "6,4,3",
            "--epochs", "40", "--seed", "5", "--grid", "0.3",
            "--out", str(out_csv),
        ]) == 0
        header, row = out_csv.read_text().splitlines()
        assert header == "lambda1,accuracy,nmi"
        run_dir = tmp_path / "ref"
        assert main(train_args(blob_file, run_dir)) == 0
        final = (run_dir / "epoch_log.csv").read_text().splitlines()[-1].split(",")
        assert float(row.split(",")[1]) == pytest.approx(float(final[5]), abs=1e-6)
        assert float(row.split(",")[2]) == pytest.approx(float(final[6]), abs=1e-6)

    def test_grid_with_zero_baseline(self, blob_file, tmp_path, capsys):
        assert main([
            "sweep", "--data", str(blob_file), "--k", "3", "--dims", "6,4,3",
            "--epochs", "20", "--seed", "5", "--grid", "0,0.3",
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("0,")
        assert lines[2].startswith("0.3,")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_every_cell_diverging_exits_1(self, blob_file, capsys):
        assert main([
            "sweep", "--data", str(blob_file), "--k", "3", "--dims", "6,4,3",
            "--epochs", "20", "--seed", "5", "--grid", "0,0.3",
            "--lr", "1e300", "--lambda2", "1",
        ]) == 1
        assert capsys.readouterr().err.count("failed") == 2
