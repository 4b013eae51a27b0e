import gzip
import struct

import numpy as np
import pytest

from clwb import data as dt


def label_stream(values):
    return struct.pack(">II", dt.LABEL_MAGIC, len(values)) + bytes(values)


def image_stream(arr_u8):
    n, h, w = arr_u8.shape
    return struct.pack(">I3I", dt.IMAGE_MAGIC, n, h, w) + arr_u8.tobytes()


class TestIdx:
    def test_label_header(self):
        labels = dt.parse_idx(label_stream([5, 0, 4]))
        np.testing.assert_array_equal(labels, [5, 0, 4])

    def test_image_dims_and_scaling(self):
        raw = np.arange(24, dtype=np.uint8).reshape(2, 3, 4)
        raw[0, 0, 0] = 255
        imgs = dt.parse_idx(image_stream(raw))
        assert imgs.shape == (2, 3, 4)
        assert imgs[0, 0, 0] == 1.0
        assert imgs.min() >= 0.0 and imgs.max() <= 1.0

    def test_bad_magic(self):
        with pytest.raises(dt.FormatError):
            dt.parse_idx(struct.pack(">II", 0x00000999, 1) + b"\x00")

    def test_truncated(self):
        with pytest.raises(dt.FormatError):
            dt.parse_idx(label_stream([1, 2, 3])[:-1])
        with pytest.raises(dt.FormatError):
            dt.parse_idx(label_stream([1, 2, 3]) + b"\x00")

    def test_a_byte_count_past_int64_is_a_format_error(self):
        # 2^21 * 2^21 * 2^22 = 2^64 bytes, which an int64 product wraps to 0
        stream = struct.pack(">I3I", dt.IMAGE_MAGIC, 2**21, 2**21, 2**22)
        with pytest.raises(dt.FormatError, match="^expected "
                           "18446744073709551616 data bytes, found 0$"):
            dt.parse_idx(stream)

    def test_roundtrip_byte_identical(self):
        rng = np.random.default_rng(0)
        raw = rng.integers(0, 256, size=(5, 4, 4), dtype=np.uint8)
        stream = image_stream(raw)
        assert dt.serialize_idx(dt.parse_idx(stream)) == stream
        lbl = label_stream([9, 1, 3, 7])
        assert dt.serialize_idx(dt.parse_idx(lbl)) == lbl

    def test_load_gzip_and_raw(self, tmp_path):
        stream = label_stream([2, 4, 6])
        (tmp_path / "plain.idx").write_bytes(stream)
        (tmp_path / "packed.idx.gz").write_bytes(gzip.compress(stream))
        np.testing.assert_array_equal(dt.load_idx(tmp_path / "plain.idx"),
                                      [2, 4, 6])
        np.testing.assert_array_equal(dt.load_idx(tmp_path / "packed.idx.gz"),
                                      [2, 4, 6])


def toy_set(n_classes=4, per_class=6, seed=0):
    rng = np.random.default_rng(seed)
    images = rng.uniform(size=(n_classes * per_class, 2, 2))
    labels = np.repeat(np.arange(n_classes), per_class)
    return dt.LabeledImageSet(images, labels, n_classes)


class TestSplitTasks:
    def test_consecutive_layout(self):
        seq = dt.split_tasks(toy_set(), toy_set(seed=1), 2)
        assert seq.n_tasks == 2
        assert seq.class_map == [[0, 1], [2, 3]]
        assert seq.topology.sizes == (2, 2)
        for train, _ in seq.tasks:
            assert set(np.unique(train.labels)) == {0, 1}

    def test_single_task_flat(self):
        seq = dt.split_tasks(toy_set(), toy_set(seed=1), 4)
        assert seq.n_tasks == 1
        assert len(seq.tasks[0][0]) == len(toy_set())

    def test_partition_exact(self):
        base = toy_set()
        seq = dt.split_tasks(base, toy_set(seed=1), 2)
        assert sum(len(t) for t, _ in seq.tasks) == len(base)
        # disjoint: every global class appears in exactly one task
        flat = [c for group in seq.class_map for c in group]
        assert sorted(flat) == list(range(4))

    def test_non_divisible(self):
        with pytest.raises(ValueError):
            dt.split_tasks(toy_set(3), toy_set(3, seed=1), 2)

    def test_shuffled_is_seed_deterministic(self):
        a = dt.split_tasks(toy_set(), toy_set(seed=1), 2, shuffle_seed=5)
        b = dt.split_tasks(toy_set(), toy_set(seed=1), 2, shuffle_seed=5)
        assert a.class_map == b.class_map


def _loop_remap(subset, classes):
    """_remap as it was with a per-row dict lookup, the oracle."""
    lookup = {g: j for j, g in enumerate(classes)}
    mask = np.isin(subset.labels, classes)
    labels = np.array([lookup[int(y)] for y in subset.labels[mask]],
                      dtype=np.intp)
    return subset.images[mask], labels


class TestRemap:
    def shuffled_set(self, n_classes=8, seed=2):
        rng = np.random.default_rng(seed)
        labels = rng.permutation(np.repeat(np.arange(n_classes), 5))
        return dt.LabeledImageSet(rng.uniform(size=(labels.size, 2, 2)),
                                  labels, n_classes)

    def assert_as_loop(self, subset, classes):
        got = dt._remap(subset, classes)
        images, labels = _loop_remap(subset, classes)
        assert got.labels.dtype == labels.dtype
        np.testing.assert_array_equal(got.labels, labels)
        np.testing.assert_array_equal(got.images, images)
        assert got.n_classes == len(classes)

    @pytest.mark.parametrize("dropped", [[], [0], [3, 5], [7], [1, 2, 6]])
    def test_drop_classes_keep_list(self, dropped):
        # build_tasks' list: every class but the dropped ones, in order
        subset = self.shuffled_set()
        self.assert_as_loop(subset, [c for c in range(8) if c not in dropped])

    @pytest.mark.parametrize("shuffle_seed", [None, 0, 5, 11])
    def test_split_tasks_groups(self, shuffle_seed):
        train, test = self.shuffled_set(), self.shuffled_set(seed=3)
        seq = dt.split_tasks(train, test, 2, shuffle_seed=shuffle_seed)
        for (got_train, got_test), group in zip(seq.tasks, seq.class_map):
            for got, subset in ((got_train, train), (got_test, test)):
                images, labels = _loop_remap(subset, group)
                np.testing.assert_array_equal(got.labels, labels)
                np.testing.assert_array_equal(got.images, images)
            self.assert_as_loop(train, group)

    def test_unordered_numpy_class_ids(self):
        subset = self.shuffled_set()
        self.assert_as_loop(subset, list(np.array([6, 1, 4])))
        self.assert_as_loop(subset, [])


class TestSynthetic:
    def test_deterministic(self):
        a = dt.synth_gaussian_tasks(3, 2, 4, 10.0, 20, seed=7,
                                    n_test_per_class=5)
        b = dt.synth_gaussian_tasks(3, 2, 4, 10.0, 20, seed=7,
                                    n_test_per_class=5)
        for (ta, _), (tb, _) in zip(a.tasks, b.tasks):
            np.testing.assert_array_equal(ta.images, tb.images)

    def test_separable_by_nearest_center(self):
        seq = dt.synth_gaussian_tasks(2, 2, 2, 10.0, 200, seed=3,
                                      n_test_per_class=50)
        train = seq.tasks[0][0]
        flat = train.images.reshape(len(train), -1)
        centers = np.stack([flat[train.labels == c].mean(axis=0)
                            for c in range(2)])
        d = np.linalg.norm(flat[:, None, :] - centers[None], axis=2)
        acc = (d.argmin(axis=1) == train.labels).mean()
        assert acc >= 0.999

    def test_low_separation_near_chance(self):
        seq = dt.synth_gaussian_tasks(1, 2, 2, 0.1, 2000, seed=4,
                                      n_test_per_class=500)
        train = seq.tasks[0][0]
        # Bayes rate for two unit Gaussians at distance 0.1: Phi(0.05) ~ 0.52
        flat = train.images.reshape(len(train), -1)
        centers = np.stack([flat[train.labels == c].mean(axis=0)
                            for c in range(2)])
        d = np.linalg.norm(flat[:, None, :] - centers[None], axis=2)
        acc = (d.argmin(axis=1) == train.labels).mean()
        assert acc < 0.60

    def test_rejects_bad_separation(self):
        with pytest.raises(ValueError):
            dt.synth_gaussian_tasks(1, 2, 2, 0.0, 5, seed=0,
                                    n_test_per_class=1)


class TestValidationSplit:
    def test_sizes_and_stratification(self):
        base = toy_set(n_classes=2, per_class=50)
        train, val = dt.validation_split(base, 0.1, seed=0)
        assert len(val) == 10 and len(train) == 90
        for c in range(2):
            assert (val.labels == c).sum() == 5

    def test_disjoint_exhaustive(self):
        base = toy_set(n_classes=2, per_class=10)
        train, val = dt.validation_split(base, 0.2, seed=1)
        combined = np.concatenate([train.images, val.images])
        assert combined.shape[0] == len(base)
        key = np.sort(combined.reshape(combined.shape[0], -1)[:, 0])
        np.testing.assert_array_equal(
            key, np.sort(base.images.reshape(len(base), -1)[:, 0]))

    def test_deterministic(self):
        base = toy_set()
        a_tr, a_va = dt.validation_split(base, 0.25, seed=9)
        b_tr, b_va = dt.validation_split(base, 0.25, seed=9)
        np.testing.assert_array_equal(a_va.images, b_va.images)

    def test_empty_stratum_error(self):
        base = toy_set(n_classes=2, per_class=2)
        with pytest.raises(ValueError):
            dt.validation_split(base, 0.1, seed=0)
