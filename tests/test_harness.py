import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from dcidc import autoencoder, cli, data
from dcidc.autoencoder import default_dims, mirror_dims
from dcidc.data import load, mask_unlabeled, normalize, save_label_csv, synth_blobs
from dcidc.training import TrainConfig, train

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_hyperspectral.py"
_spec = importlib.util.spec_from_file_location("run_hyperspectral", SCRIPT)
harness = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(harness)

REPLAYED = ("epoch_log.csv", "labels.csv", "labels.dcmx", "labels_full.csv")


@pytest.fixture()
def scene(tmp_path):
    """A 75-pixel, 8-band CSV whose 15 background pixels (class 0) are noise."""
    blobs = synth_blobs(20, 3, 8, 6.0, 1.0, seed=4)
    rng = np.random.default_rng(4)
    features = np.vstack([blobs.features, rng.uniform(0, 12, size=(15, 8))])
    labels = np.concatenate([blobs.labels + 1, np.zeros(15, dtype=np.int64)])
    order = rng.permutation(len(labels))
    path = tmp_path / "scene.csv"
    rows = features[order].tolist()
    path.write_text("".join(",".join(map(repr, row)) + "\n" for row in rows))
    save_label_csv(tmp_path / "scene.labels.csv", labels[order])
    return path


def harness_args(scene, out_dir, *extra):
    return ["--data", str(scene), "--k", "3", "--epochs", "40", "--seeds", "2",
            "--lr", "0.01", "--out-dir", str(out_dir), *extra]


def final_row(run_dir):
    header, *_, last = (run_dir / "epoch_log.csv").read_text().splitlines()
    return dict(zip(header.split(","), map(float, last.split(","))))


def test_seeds_match_direct_train_and_replay(scene, tmp_path, capsys):
    out = tmp_path / "runs"
    assert harness.main(harness_args(scene, out)) == 0
    summary = capsys.readouterr().out.splitlines()[-1]
    ds = normalize(mask_unlabeled(load(scene)))
    dims = mirror_dims(default_dims(8, 3))
    accs, nmis = [], []
    for seed in (0, 1):
        config = TrainConfig(k=3, lr=0.01, max_epochs=40, seed=seed)
        _, _, reports = train(ds.features, config, dims, labels=ds.labels)
        final = final_row(out / f"seed{seed}")
        assert (final["accuracy"], final["nmi"]) == \
            (reports[-1].accuracy, reports[-1].nmi)
        accs.append(reports[-1].accuracy)
        nmis.append(reports[-1].nmi)
        copy = tmp_path / f"replay{seed}"
        assert cli.main(["replay", str(out / f"seed{seed}" / "manifest.json"),
                         "--out-dir", str(copy)]) == 0
        for name in REPLAYED:
            assert (out / f"seed{seed}" / name).read_bytes() == \
                (copy / name).read_bytes(), name
    assert summary.startswith(f"accuracy {100 * np.mean(accs):.2f} +/- "
                              f"{100 * np.std(accs):.2f}   nmi {100 * np.mean(nmis):.2f}")


def test_each_seed_parses_the_scene_once(scene, tmp_path, monkeypatch):
    calls, parse = [], data.load_feature_csv

    def counted(path):
        calls.append(path)
        return parse(path)

    monkeypatch.setattr(data, "load_feature_csv", counted)
    assert harness.main(harness_args(scene, tmp_path / "runs", "--epochs", "2")) == 0
    assert len(calls) == 2


def test_keep_background_clusters_every_pixel(scene, tmp_path):
    out = tmp_path / "runs"
    assert harness.main(harness_args(scene, out, "--keep-background",
                                     "--epochs", "5", "--seeds", "1")) == 0
    assert not (out / "seed0" / "labels_full.csv").exists()
    assert len((out / "seed0" / "labels.csv").read_text().splitlines()) == 75


def test_train_flags_forwarded_to_every_seed(scene, tmp_path):
    out = tmp_path / "runs"
    assert harness.main(harness_args(scene, out, "--tol", "1e-3", "--lambda2", "0.001",
                                     "--epochs", "3")) == 0
    for seed in (0, 1):
        config = json.loads((out / f"seed{seed}" / "manifest.json").read_text())[
            "spec"]["config"]
        assert (config["tol"], config["lambda2"], config["max_epochs"], config["seed"],
                config["lr"]) == (1e-3, 1e-3, 3, seed, 0.01)


BAD_INPUT = {  # problem -> what stderr must say
    "nonempty out dir": "not an empty directory",
    "no labels": "labels are required",
    "missing data": "No such file or directory",
    "malformed data": "could not convert",
    "zero seeds": "--seeds must be at least 1",
    "flag train rejects": "unrecognized arguments: --momentum 0.9",
}


@pytest.mark.parametrize("problem", BAD_INPUT)
def test_bad_input_exits_2_before_training(scene, tmp_path, capsys, monkeypatch,
                                           problem):
    out = tmp_path / "runs"
    args = harness_args(scene, out)
    if problem == "nonempty out dir":
        out.mkdir()
        (out / "notes.txt").write_text("keep me")
    elif problem == "no labels":
        (tmp_path / "scene.labels.csv").unlink()
    elif problem == "missing data":
        args[1] = str(tmp_path / "nope.csv")
    elif problem == "malformed data":
        scene.write_text("1.0,2.0\nfoo,3.0\n")
    elif problem == "flag train rejects":
        args += ["--momentum", "0.9"]
    else:
        args += ["--seeds", "0"]

    def no_training(*args, **kwargs):
        raise AssertionError("the harness trained on bad input")

    monkeypatch.setattr(cli, "train", no_training)
    monkeypatch.setattr(autoencoder, "init", no_training)
    # the harness's own checks exit through argparse; bad data is reported by
    # seed 0's `dcidc train`, whose exit code the harness returns
    try:
        code = harness.main(args)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert BAD_INPUT[problem] in capsys.readouterr().err
    assert not out.exists() or [p.name for p in out.iterdir()] == ["notes.txt"]
