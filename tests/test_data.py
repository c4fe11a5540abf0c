import numpy as np
import pytest

from dcidc.data import (
    DataFormatError,
    Dataset,
    companion_label_path,
    load,
    load_dcmx,
    load_label_csv,
    mask_unlabeled,
    normalize,
    save_dcmx,
    save_label_csv,
    scatter_labels,
    synth_blobs,
)


class TestDcmx:
    def test_roundtrip_float32_values_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        original = rng.normal(size=(7, 3)).astype(np.float32).astype(np.float64)
        path = tmp_path / "m.dcmx"
        save_dcmx(path, original)
        assert np.array_equal(load_dcmx(path), original)

    def test_file_roundtrip_byte_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        first = tmp_path / "a.dcmx"
        second = tmp_path / "b.dcmx"
        save_dcmx(first, rng.normal(size=(5, 4)))
        save_dcmx(second, load_dcmx(first))
        assert first.read_bytes() == second.read_bytes()

    def test_truncated_payload_names_byte_counts(self, tmp_path):
        path = tmp_path / "t.dcmx"
        save_dcmx(path, np.ones((4, 4)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DataFormatError, match="64 bytes.*56"):
            load_dcmx(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.dcmx"
        path.write_bytes(b"NOPE" + bytes(9))
        with pytest.raises(DataFormatError, match="magic"):
            load_dcmx(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "g.dcmx"
        save_dcmx(path, np.ones((2, 2)))
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(DataFormatError, match="trailing"):
            load_dcmx(path)


class TestCsv:
    def test_parse_small_matrix(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("1,2\n3,4\n5,6\n")
        ds = load(path)
        assert np.array_equal(ds.features, [[1, 2], [3, 4], [5, 6]])
        assert ds.labels is None

    def test_non_numeric_names_line(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(DataFormatError, match="f.csv:2"):
            load(path)

    def test_non_finite_names_line(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("1,2\n3,inf\n")
        with pytest.raises(DataFormatError, match="f.csv:2"):
            load(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(DataFormatError, match="expected 2 columns"):
            load(path)

    def test_companion_labels_loaded(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("1,2\n3,4\n")
        companion_label_path(path).write_text("0\n1\n")
        ds = load(path)
        assert np.array_equal(ds.labels, [0, 1])

    def test_labels_file_replaces_companion(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("1,2\n3,4\n")
        companion_label_path(path).write_text("0\n1\n2\n")  # stale, wrong length
        given = tmp_path / "given.csv"
        given.write_text("1\n0\n")
        assert np.array_equal(load(path, labels_file=given).labels, [1, 0])
        with pytest.raises(DataFormatError, match="3 labels for 2 rows"):
            load(path)
        with pytest.raises(OSError):
            load(path, labels_file=tmp_path / "missing.csv")

    def test_label_roundtrip(self, tmp_path):
        path = tmp_path / "l.labels.csv"
        save_label_csv(path, [2, 0, 1])
        assert np.array_equal(load_label_csv(path), [2, 0, 1])


class TestNormalize:
    def test_minmax_column(self):
        ds = Dataset(np.array([[0.0], [5.0], [10.0]]))
        out = normalize(ds, "minmax_per_band")
        assert np.array_equal(out.features, [[0.0], [0.5], [1.0]])

    def test_constant_column_maps_to_zero(self):
        ds = Dataset(np.array([[3.0, 1.0], [3.0, 2.0]]))
        out = normalize(ds, "minmax_per_band")
        assert np.array_equal(out.features[:, 0], [0.0, 0.0])

    def test_zscore_statistics(self):
        rng = np.random.default_rng(9)
        ds = Dataset(rng.normal(3.0, 2.5, size=(200, 4)))
        out = normalize(ds, "zscore_per_band")
        assert np.all(np.abs(out.features.mean(axis=0)) < 1e-10)
        assert np.all(np.abs(out.features.var(axis=0) - 1.0) < 1e-9)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            normalize(Dataset(np.ones((2, 2))), "other")


class TestMaskUnlabeled:
    def test_filter_and_densify(self):
        ds = Dataset(np.arange(8.0).reshape(4, 2), labels=np.array([0, 1, 0, 2]))
        out = mask_unlabeled(ds)
        assert np.array_equal(out.features, [[2.0, 3.0], [6.0, 7.0]])
        assert np.array_equal(out.labels, [0, 1])
        assert np.array_equal(out.mask, [1, 3])

    def test_no_zeros_keeps_rows(self):
        ds = Dataset(np.arange(6.0).reshape(3, 2), labels=np.array([4, 2, 4]))
        out = mask_unlabeled(ds)
        assert np.array_equal(out.features, ds.features)
        assert np.array_equal(out.labels, [1, 0, 1])

    def test_all_removed_is_error(self):
        ds = Dataset(np.ones((2, 2)), labels=np.zeros(2, dtype=np.int64))
        with pytest.raises(ValueError):
            mask_unlabeled(ds)

    def test_requires_labels(self):
        with pytest.raises(ValueError):
            mask_unlabeled(Dataset(np.ones((2, 2))))

    def test_scatter_roundtrip(self):
        ds = Dataset(np.arange(10.0).reshape(5, 2),
                     labels=np.array([0, 2, 0, 1, 2]))
        out = mask_unlabeled(ds)
        predicted = np.array([1, 0, 1])
        full = scatter_labels(predicted, out.mask, ds.n, sentinel=-1)
        assert np.array_equal(full, [-1, 1, -1, 0, 1])
        assert np.array_equal(full[out.mask], predicted)


class TestSynthBlobs:
    def test_zero_noise_puts_points_on_centers(self):
        ds = synth_blobs(5, 3, 4, 2.0, 0.0, seed=0)
        centers = np.asarray(ds.meta["centers"])
        assert np.array_equal(ds.features, centers[ds.labels])

    def test_deterministic(self):
        a = synth_blobs(10, 3, 6, 4.0, 1.0, seed=3)
        b = synth_blobs(10, 3, 6, 4.0, 1.0, seed=3)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_wide_separation_nearest_center_oracle(self):
        ds = synth_blobs(100, 4, 5, 10.0, 1.0, seed=1)
        centers = np.asarray(ds.meta["centers"])
        dist = ((ds.features[:, None, :] - centers[None]) ** 2).sum(axis=2)
        nearest = np.argmin(dist, axis=1)
        assert (nearest == ds.labels).mean() >= 0.999

    def test_minimum_separation_holds(self):
        ds = synth_blobs(2, 5, 3, 3.0, 0.5, seed=2)
        centers = np.asarray(ds.meta["centers"])
        diff = centers[:, None, :] - centers[None]
        dist = np.sqrt((diff**2).sum(axis=2))
        dist[np.diag_indices(5)] = np.inf
        assert dist.min() >= 3.0

    def test_infeasible_placement_errors(self):
        with pytest.raises(ValueError, match="could not place"):
            synth_blobs(1, 40, 1, 1.0, 0.1, seed=0)

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            synth_blobs(5, 1, 3, 1.0, 0.1, seed=0)
        with pytest.raises(ValueError):
            synth_blobs(5, 3, 3, 0.0, 0.1, seed=0)
