import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dcidc.data import (
    DataFormatError,
    Dataset,
    companion_label_path,
    dcmx_bytes,
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
from dcidc.seeding import substream


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

    @pytest.mark.parametrize("shape", [(0, 3), (4, 0), (0, 0)])
    def test_empty_matrix_rejected_naming_file(self, tmp_path, shape):
        path = tmp_path / "empty.dcmx"
        save_dcmx(path, np.zeros(shape))
        with pytest.raises(DataFormatError, match=f"empty.dcmx: empty {shape[0]}x{shape[1]}"):
            load_dcmx(path)


float32_matrices = hnp.arrays(
    np.float32,
    hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
    elements=st.floats(width=32, allow_nan=False),
)


@given(float32_matrices)
@settings(max_examples=60, deadline=None)
def test_dcmx_roundtrip_exact_property(tmp_path_factory, matrix):
    path = tmp_path_factory.mktemp("dcmx") / "m.dcmx"
    save_dcmx(path, matrix)
    loaded = load_dcmx(path)
    assert loaded.shape == matrix.shape
    assert np.array_equal(loaded, matrix)
    assert dcmx_bytes(loaded) == path.read_bytes()  # signed zeros too


@given(float32_matrices, st.data())
@settings(max_examples=60, deadline=None)
def test_dcmx_proper_prefix_rejected_property(tmp_path_factory, matrix, data):
    raw = dcmx_bytes(matrix)
    cut = data.draw(st.integers(0, len(raw) - 1))
    path = tmp_path_factory.mktemp("dcmx") / "cut.dcmx"
    path.write_bytes(raw[:cut])
    with pytest.raises(DataFormatError):
        load_dcmx(path)


@given(st.one_of(st.binary(max_size=64),
                 st.binary(max_size=48).map(lambda tail: b"DCMX\x01" + tail)))
@settings(max_examples=100, deadline=None)
def test_dcmx_random_bytes_rejected_property(tmp_path_factory, raw):
    """Random bytes raise DataFormatError unless they happen to be a valid
    file: magic, version, and a payload of exactly rows * cols floats."""
    path = tmp_path_factory.mktemp("dcmx") / "noise.dcmx"
    path.write_bytes(raw)
    try:
        rows, cols = load_dcmx(path).shape
    except DataFormatError:
        return
    assert raw[:5] == b"DCMX\x01" and len(raw) == 13 + 4 * rows * cols


finite_float64_matrices = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
    elements=st.floats(allow_nan=False, allow_infinity=False),
)
blank_lines = st.lists(st.sampled_from(["", " ", "\t", "  \t "]), max_size=2)


def csv_lines(matrix, blanks):
    """The rows of matrix as repr-written CSV lines, blanks[i] before row i;
    also the 1-based line number of each row."""
    lines, row_lines = [], []
    for row, before in zip(matrix, blanks):
        lines += before
        lines.append(",".join(repr(float(v)) for v in row))
        row_lines.append(len(lines))
    return lines, row_lines


@given(finite_float64_matrices, st.data())
@settings(max_examples=60, deadline=None)
def test_csv_roundtrip_bit_exact_property(tmp_path_factory, matrix, data):
    blanks = [data.draw(blank_lines) for _ in matrix]
    lines, _ = csv_lines(matrix, blanks)
    path = tmp_path_factory.mktemp("csv") / "m.csv"
    path.write_text("\n".join(lines) + "\n")
    loaded = load(path).features
    assert loaded.shape == matrix.shape
    assert loaded.tobytes() == matrix.tobytes()  # signed zeros too


@given(finite_float64_matrices, st.data())
@settings(max_examples=60, deadline=None)
def test_csv_bad_row_names_its_line_property(tmp_path_factory, matrix, data):
    """A non-numeric token, or a row one column short after the first row,
    fails naming the row's line, blank lines counted."""
    blanks = [data.draw(blank_lines) for _ in matrix]
    lines, row_lines = csv_lines(matrix, blanks)
    rows, cols = matrix.shape
    short = rows > 1 and cols > 1 and data.draw(st.booleans())
    row = data.draw(st.integers(1 if short else 0, rows - 1))
    tokens = lines[row_lines[row] - 1].split(",")
    if short:
        del tokens[data.draw(st.integers(0, cols - 1))]
    else:
        bad = data.draw(st.sampled_from(["oops", "1..2", "--1", "0x10", "1e", "1 2"]))
        tokens[data.draw(st.integers(0, cols - 1))] = bad
    lines[row_lines[row] - 1] = ",".join(tokens)
    path = tmp_path_factory.mktemp("csv") / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError, match=re.escape(f"bad.csv:{row_lines[row]}:")):
        load(path)


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


@pytest.mark.parametrize("case", ["dcmx_version_2", "empty_csv", "label_not_integer",
                                  "dcmx_nan", "label_negative", "label_above_int64",
                                  "label_underscore", "feature_underscore", "labels_blank"])
def test_malformed_input_rejected_naming_file(tmp_path, case):
    path = tmp_path / "f.dcmx"
    if case == "dcmx_version_2":
        raw = bytearray(dcmx_bytes(np.ones((2, 2))))
        raw[4] = 2  # the version byte follows the 4 magic bytes
        path.write_bytes(bytes(raw))
        expected = "f.dcmx: unsupported dcmx version 2"
    elif case == "empty_csv":
        path = tmp_path / "f.csv"
        path.write_text("")
        expected = "f.csv: no data rows"
    elif case == "label_not_integer":
        save_dcmx(path, np.ones((2, 2)))
        companion_label_path(path).write_text("0\n1.5\n")
        expected = "f.labels.csv:2: "
    elif case == "label_negative":  # the blank line counts, as in a parse error
        save_dcmx(path, np.ones((2, 2)))
        companion_label_path(path).write_text("0\n\n-1\n")
        expected = "f.labels.csv:3: negative label -1"
    elif case == "label_above_int64":
        save_dcmx(path, np.ones((2, 2)))
        companion_label_path(path).write_text("0\n9223372036854775808\n")
        expected = "f.labels.csv:2: label 9223372036854775808 is above 9223372036854775807"
    elif case == "label_underscore":  # int() would read 10
        save_dcmx(path, np.ones((2, 2)))
        companion_label_path(path).write_text("0\n1_0\n")
        expected = "f.labels.csv:2: digit-group underscore in '1_0'"
    elif case == "feature_underscore":  # float() would read 10.5
        path = tmp_path / "f.csv"
        path.write_text("1,2\n1_0.5,3\n")
        expected = "f.csv:2: digit-group underscore in '1_0.5,3'"
    elif case == "labels_blank":
        save_dcmx(path, np.ones((2, 2)))
        companion_label_path(path).write_text("\n\n")
        expected = "f.labels.csv: no labels"
    else:
        save_dcmx(path, np.array([[1.0, np.nan]]))
        expected = "f.dcmx: non-finite feature values"
    with pytest.raises(DataFormatError, match=re.escape(expected)):
        load(path)


class TestFormatByFirstBytes:
    @pytest.mark.parametrize("name", ["x.csv", "x.bin", "x"])
    def test_dcmx_bytes_load_as_dcmx_whatever_the_name(self, tmp_path, name):
        matrix = np.arange(6.0).reshape(3, 2)
        path = tmp_path / name
        path.write_bytes(dcmx_bytes(matrix))
        assert np.array_equal(load(path).features, matrix)

    def test_csv_text_named_dcmx_loads_as_csv(self, tmp_path):
        path = tmp_path / "x.dcmx"
        path.write_text("1,2\n3,4\n")
        assert np.array_equal(load(path).features, [[1, 2], [3, 4]])

    def test_binary_file_read_as_csv_names_file(self, tmp_path):
        path = tmp_path / "x.dcmx"
        path.write_bytes(b"DCMY" + bytes([0xCB]) * 9)
        with pytest.raises(DataFormatError, match=r"x\.dcmx: not ASCII CSV text \(byte 0xcb\)"):
            load(path)


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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("mode, big", [("minmax_per_band", 1e308)])
    def test_overflowed_statistics_rejected_naming_the_column(self, mode, big):
        """A span of -1e308..1e308 overflows; the column is named, counted
        from 1, without an overflow warning."""
        features = np.array([[0.0, 1.0, -big], [1.0, 2.0, big], [2.0, 3.0, big]])
        with pytest.raises(ValueError, match=re.escape("columns [3] overflow float64")):
            normalize(Dataset(features), mode)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("big", [1.4e154, 1e200, 1.7e308])
    def test_overflowing_zscore_taken_in_a_unit(self, big):
        """The squares of +/-1.4e154 and +/-1e200 and the sum of two 1.7e308
        overflow float64, but their z-scores are those of -1, 1, 1; the
        other columns keep the bits they get alone, with no warning."""
        features = np.array([[0.0, 1.0, -big], [1.0, 2.0, big], [2.0, 3.0, big]])
        out = normalize(Dataset(features), "zscore_per_band").features
        alone = normalize(Dataset(features[:, :2]), "zscore_per_band").features
        assert out[:, :2].tobytes() == alone.tobytes()
        assert np.allclose(out[:, 2], [-np.sqrt(2), np.sqrt(0.5), np.sqrt(0.5)],
                           rtol=1e-12, atol=0)

    @pytest.mark.parametrize("mode", ["minmax_per_band", "zscore_per_band"])
    def test_holds_only_its_output_array(self, mode):
        """Besides the result, only per-band vectors and Python objects
        (slack), never a second array of the data's size."""
        n, bands, slack = 4000, 50, 128 * 1024
        features = np.random.default_rng(4).normal(size=(n, bands))
        features[:, 3] = 1.0  # a constant band
        tracemalloc.start()
        try:
            out = normalize(Dataset(features), mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= n * bands * 8 + slack
        offset = features.min(axis=0) if mode == "minmax_per_band" else features.mean(axis=0)
        span = np.ptp(features, axis=0) if mode == "minmax_per_band" else features.std(axis=0)
        want = (features - offset) / np.where(span == 0.0, 1.0, span)
        want[:, 3] = 0.0
        assert out.features.tobytes() == want.tobytes()


class TestMaskUnlabeled:
    def test_filter_keeps_label_ids(self):
        ds = Dataset(np.arange(8.0).reshape(4, 2), labels=np.array([0, 1, 0, 2]))
        out = mask_unlabeled(ds)
        assert np.array_equal(out.features, [[2.0, 3.0], [6.0, 7.0]])
        assert np.array_equal(out.labels, [1, 2])
        assert np.array_equal(np.flatnonzero(out.mask), [1, 3])

    def test_no_zeros_keeps_rows(self):
        ds = Dataset(np.arange(6.0).reshape(3, 2), labels=np.array([4, 2, 4]))
        out = mask_unlabeled(ds)
        assert np.array_equal(out.features, ds.features)
        assert np.array_equal(out.labels, [4, 2, 4])

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
        full = scatter_labels(predicted, out.mask)
        assert np.array_equal(full, [-1, 1, -1, 0, 1])
        assert np.array_equal(full[np.flatnonzero(out.mask)], predicted)


def blob_centers(n_per_cluster, k, dim, separation, seed):
    """The k centers synth_blobs draws for these settings: the centers are
    drawn before the noise, so a noise-0 draw puts every point on one."""
    ds = synth_blobs(n_per_cluster, k, dim, separation, 0.0, seed)
    return ds.features[::n_per_cluster]


class TestSynthBlobs:
    def test_zero_noise_puts_points_on_centers(self):
        ds = synth_blobs(5, 3, 4, 2.0, 0.0, seed=0)
        centers = blob_centers(5, 3, 4, 2.0, seed=0)
        assert np.array_equal(ds.features, centers[ds.labels])
        assert len(np.unique(centers, axis=0)) == 3
        # with noise, the same seed scatters the points about the same centers
        noisy = synth_blobs(5, 3, 4, 2.0, 0.5, seed=0)
        assert 0.35 < np.std(noisy.features - centers[noisy.labels]) < 0.65

    @pytest.mark.parametrize("noise_sigma", [1.0, 0.0])
    def test_points_equal_the_two_temporary_expression(self, noise_sigma):
        """The bytes of centers[labels] + noise_sigma * draws, the expression
        the in-place scaling and shift replaced, from the same generator."""
        n_per_cluster, k, dim, separation, seed = 50, 4, 7, 3.0, 6
        centers = blob_centers(n_per_cluster, k, dim, separation, seed)
        rng = substream(seed, "synth")
        side = separation * max(2.0, k ** (1.0 / dim))
        for _ in range(100):  # the rejected placements draw before the accepted one
            if np.array_equal(rng.uniform(0.0, side, size=(k, dim)), centers):
                break
        else:
            pytest.fail("no placement drew the centers")
        labels = np.repeat(np.arange(k), n_per_cluster)
        want = centers[labels] + noise_sigma * rng.standard_normal((k * n_per_cluster, dim))
        got = synth_blobs(n_per_cluster, k, dim, separation, noise_sigma, seed)
        assert got.features.tobytes() == want.tobytes()

    def test_holds_only_its_output_array(self):
        """Besides the result, only the labels, the centers and Python
        objects (slack), never a second array of the data's size."""
        n_per_cluster, k, dim, slack = 1000, 4, 50, 128 * 1024
        synth_blobs(1, 2, 1, 1.0, 1.0, seed=0)  # the first call imports modules
        tracemalloc.start()
        try:
            synth_blobs(n_per_cluster, k, dim, 6.0, 1.0, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= n_per_cluster * k * dim * 8 + slack

    def test_deterministic(self):
        a = synth_blobs(10, 3, 6, 4.0, 1.0, seed=3)
        b = synth_blobs(10, 3, 6, 4.0, 1.0, seed=3)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_wide_separation_nearest_center_oracle(self):
        ds = synth_blobs(100, 4, 5, 10.0, 1.0, seed=1)
        centers = blob_centers(100, 4, 5, 10.0, seed=1)
        dist = ((ds.features[:, None, :] - centers[None]) ** 2).sum(axis=2)
        nearest = np.argmin(dist, axis=1)
        assert (nearest == ds.labels).mean() >= 0.999

    def test_minimum_separation_holds(self):
        centers = blob_centers(2, 5, 3, 3.0, seed=2)
        diff = centers[:, None, :] - centers[None]
        dist = np.sqrt((diff**2).sum(axis=2))
        dist[np.diag_indices(5)] = np.inf
        assert dist.min() >= 3.0

    def test_infeasible_placement_errors(self):
        with pytest.raises(ValueError, match="could not place"):
            synth_blobs(1, 40, 1, 1.0, 0.1, seed=0)

    @pytest.mark.parametrize("n_per_cluster, dim, separation, noise_sigma, message", [
        (0, 10, 6.0, 1.0, "n_per_cluster, dim >= 1, got 0, 10"),
        (5, 0, 6.0, 1.0, "n_per_cluster, dim >= 1, got 5, 0"),
        (5, 10, float("inf"), 1.0, "separation must be positive and finite"),
        (5, 10, float("nan"), 1.0, "separation must be positive and finite"),
        (5, 10, 6.0, float("nan"), "noise sigma must be finite"),
        (5, 10, 6.0, float("inf"), "noise sigma must be finite"),
    ])
    def test_rejects_unwritable_settings(self, n_per_cluster, dim, separation,
                                         noise_sigma, message):
        with pytest.raises(ValueError, match=message):
            synth_blobs(n_per_cluster, 3, dim, separation, noise_sigma, seed=0)

    def test_rejects_negative_seed(self):
        # the settings table above fixes the seed, so this case stands apart
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            synth_blobs(5, 3, 10, 6.0, 1.0, seed=-1)

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            synth_blobs(5, 1, 3, 1.0, 0.1, seed=0)
        with pytest.raises(ValueError):
            synth_blobs(5, 3, 3, 0.0, 0.1, seed=0)
