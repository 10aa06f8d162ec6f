"""IDX I/O, class filtering, split protocol, normalization, synthetic fixture."""

import struct

import numpy as np
import pytest

from xferlearn.data import (IdxParseError, LabeledDataset, SplitError, filter_classes,
                            load_idx, make_splits, normalize_batch, resize_bilinear,
                            rgb_to_grayscale, synth_digits, write_idx)


def small_dataset(n=30, classes=(0, 1, 2), size=8, seed=0):
    rng = np.random.default_rng(seed)
    images = rng.integers(0, 256, (n, 1, size, size), dtype=np.uint8)
    labels = np.array([classes[i % len(classes)] for i in range(n)], dtype=np.int64)
    return LabeledDataset(images=images, labels=labels, name="small")


class TestIdxIO:
    def test_roundtrip_byte_identical(self, tmp_path):
        ds = small_dataset()
        ip, lp = tmp_path / "imgs.idx", tmp_path / "lbls.idx"
        write_idx(ip, ds.images, lp, ds.labels)
        back = load_idx(ip, lp)
        np.testing.assert_array_equal(back.images, ds.images)
        np.testing.assert_array_equal(back.labels, ds.labels)
        # second write produces identical bytes
        ip2, lp2 = tmp_path / "imgs2.idx", tmp_path / "lbls2.idx"
        write_idx(ip2, back.images, lp2, back.labels)
        assert ip.read_bytes() == ip2.read_bytes()
        assert lp.read_bytes() == lp2.read_bytes()

    def test_header_is_big_endian_with_standard_magics(self, tmp_path):
        ds = small_dataset(n=3)
        ip, lp = tmp_path / "i.idx", tmp_path / "l.idx"
        write_idx(ip, ds.images, lp, ds.labels)
        magic, n, h, w = struct.unpack(">IIII", ip.read_bytes()[:16])
        assert (magic, n, h, w) == (2051, 3, 8, 8)
        lmagic, ln = struct.unpack(">II", lp.read_bytes()[:8])
        assert (lmagic, ln) == (2049, 3)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.idx"
        p.write_bytes(struct.pack(">IIII", 0xDEADBEEF, 1, 2, 2) + bytes(4))
        with pytest.raises(IdxParseError, match="magic"):
            load_idx(p, tmp_path / "never-opened.idx")

    def test_truncated_payload_rejected(self, tmp_path):
        p = tmp_path / "trunc.idx"
        p.write_bytes(struct.pack(">IIII", 2051, 2, 4, 4) + bytes(10))
        with pytest.raises(IdxParseError, match="bytes"):
            load_idx(p, tmp_path / "never-opened.idx")

    @pytest.mark.parametrize("header", [bytes([0, 0, 8, 3, 0, 0]),
                                        struct.pack(">III", 2051, 2, 4)],
                             ids=["inside_a_dim", "a_dim_missing"])
    def test_truncated_dims_rejected(self, tmp_path, header):
        p = tmp_path / "short.idx"
        p.write_bytes(header)
        with pytest.raises(IdxParseError, match="truncated header$"):
            load_idx(p, tmp_path / "never-opened.idx")

    @pytest.mark.parametrize("h, w", [(0, 0), (0, 4), (4, 0)])
    def test_images_without_pixels_rejected(self, tmp_path, h, w):
        p = tmp_path / "empty.idx"
        p.write_bytes(struct.pack(">IIII", 2051, 4, h, w))
        with pytest.raises(IdxParseError, match=f"{h}x{w} have no pixels"):
            load_idx(p, tmp_path / "never-opened.idx")

    def test_label_count_mismatch_rejected(self, tmp_path):
        ds = small_dataset(n=4)
        ip, lp = tmp_path / "i.idx", tmp_path / "l.idx"
        write_idx(ip, ds.images)
        lp.write_bytes(struct.pack(">II", 2049, 3) + bytes(3))
        with pytest.raises(IdxParseError, match="count"):
            load_idx(ip, lp)


class TestGrayscale:
    def test_luminance_weights_round_half_up(self):
        rgb = np.array([[[[255, 0, 0], [0, 255, 0]],
                         [[0, 0, 255], [100, 100, 100]]]], dtype=np.uint8)
        out = rgb_to_grayscale(rgb)
        assert out.shape == (1, 1, 2, 2)
        assert out[0, 0, 0, 0] == round(0.299 * 255)
        assert out[0, 0, 0, 1] == round(0.587 * 255)
        assert out[0, 0, 1, 0] == 29  # floor(0.114*255 + 0.5)
        assert out[0, 0, 1, 1] == 100


class TestFilterAndSplits:
    def test_filter_remaps_ascending(self):
        ds = small_dataset(n=40, classes=(5, 7, 9))
        out = filter_classes(ds, [9, 5])
        assert out.classes == (0, 1)
        assert set(np.unique(out.labels)) == {0, 1}
        # class 5 -> 0, class 9 -> 1
        assert (out.labels[ds.labels[np.isin(ds.labels, [5, 9])] == 5] == 0).all()

    def test_filter_labels_equal_a_dict_remap(self):
        ds = small_dataset(n=50, classes=(8, 2, 6, 4, 0))
        keep = [6, 0, 8]  # unsorted
        remap = {c: i for i, c in enumerate(sorted(keep))}
        out = filter_classes(ds, keep)
        want = np.array([remap[c] for c in ds.labels if c in remap], dtype=np.int64)
        assert out.labels.dtype == want.dtype and out.labels.tobytes() == want.tobytes()
        assert out.classes == (0, 1, 2)

    def test_filter_preserves_image_bytes(self):
        ds = small_dataset(n=30, classes=(0, 1, 2))
        out = filter_classes(ds, [1])
        np.testing.assert_array_equal(out.images, ds.images[ds.labels == 1])

    def test_filter_missing_class_rejected(self):
        with pytest.raises(SplitError):
            filter_classes(small_dataset(), [9])

    def test_split_sizes_exact(self):
        ds = small_dataset(n=60, classes=(0, 1, 2))
        for k in (2, 5):
            d2, d3 = make_splits(ds, k=k, seed=0)
            assert len(d2) == 3 * k
            assert len(d3) == 60 - 3 * k
            counts = np.bincount(d2.labels, minlength=3)
            assert (counts == k).all()

    def test_split_is_partition(self):
        ds = small_dataset(n=30)
        d2, d3 = make_splits(ds, k=3, seed=1)
        combined = np.concatenate([d2.images, d3.images]).reshape(30, -1)
        original = ds.images.reshape(30, -1)
        # same multiset of rows
        assert sorted(r.tobytes() for r in combined) == sorted(
            r.tobytes() for r in original)

    def test_split_deterministic_per_seed(self):
        ds = small_dataset(n=60)
        a2, _ = make_splits(ds, k=4, seed=7)
        b2, _ = make_splits(ds, k=4, seed=7)
        c2, _ = make_splits(ds, k=4, seed=8)
        np.testing.assert_array_equal(a2.images, b2.images)
        assert (a2.images != c2.images).any()

    def test_insufficient_class_examples_rejected(self):
        ds = small_dataset(n=6, classes=(0, 1, 2))
        with pytest.raises(SplitError, match="class"):
            make_splits(ds, k=3, seed=0)

    def test_split_leaving_no_unlabeled_rest_rejected(self):
        ds = small_dataset(n=6, classes=(0, 1, 2))
        with pytest.raises(SplitError, match="no unlabeled"):
            make_splits(ds, k=2, seed=0)


class TestBatching:
    def test_normalize_range_endpoints(self):
        x = normalize_batch(np.array([[[[0, 255]]]], dtype=np.uint8)).data
        assert x[0, 0, 0, 0] == -1.0
        assert x[0, 0, 0, 1] == 1.0



class TestResize:
    def test_identity_when_sizes_match(self):
        imgs = small_dataset(n=2).images
        out = resize_bilinear(imgs, 8)
        np.testing.assert_array_equal(out, imgs)
        assert out is not imgs

    def test_constant_image_stays_constant(self):
        imgs = np.full((1, 1, 28, 28), 137, dtype=np.uint8)
        out = resize_bilinear(imgs, 32)
        assert out.shape == (1, 1, 32, 32)
        assert (out == 137).all()

    def test_upscale_preserves_gradient_direction(self):
        ramp = np.tile(np.linspace(0, 255, 16, dtype=np.uint8), (16, 1))
        out = resize_bilinear(ramp[None, None], 32)[0, 0]
        diffs = np.diff(out.astype(int), axis=1)
        assert (diffs >= 0).all()
        assert out[:, 0].max() <= 16 and out[:, -1].min() >= 239


def per_image_synth_digits(n_per_class, classes, image_size=16, seed=0, domain_shift=False):
    """The fixture as one loop over images: the reference that synth_digits's
    array passes must reproduce byte for byte."""
    classes = sorted(classes)
    rng = np.random.default_rng(seed)
    grid = np.linspace(-1, 1, image_size)
    yy, xx = np.meshgrid(grid, grid, indexing="ij")
    templates = {}
    for c in classes:
        r = np.random.default_rng(1000 + c)
        pattern = np.zeros((image_size, image_size))
        for _ in range(3):
            cy, cx = r.uniform(-0.6, 0.6, 2)
            s = r.uniform(0.15, 0.35)
            pattern += np.exp(-(((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * s * s)))
        templates[c] = pattern / pattern.max()
    images = np.empty((n_per_class * len(classes), 1, image_size, image_size), dtype=np.uint8)
    labels = np.empty(n_per_class * len(classes), dtype=np.int64)
    i = 0
    for c in classes:
        for _ in range(n_per_class):
            img = templates[c] + rng.normal(0, 0.08, (image_size, image_size))
            dy, dx = rng.integers(-1, 2, 2)
            img = np.roll(np.roll(img, dy, axis=0), dx, axis=1)
            if domain_shift:
                img = 0.3 + 0.55 * img
                img = np.roll(img, 2, axis=1)
            images[i, 0] = (img.clip(0, 1) * 255).astype(np.uint8)
            labels[i] = c
            i += 1
    return LabeledDataset(images=images, labels=labels,
                          name="synth" + ("-shift" if domain_shift else ""),
                          classes=tuple(classes))


class TestSynthFixture:
    @pytest.mark.parametrize("seed", [0, 41])
    @pytest.mark.parametrize("classes", [[3], [4, 0, 2], [9, 1, 7, 5]],
                             ids=["one_class", "unsorted", "unsorted_four"])
    @pytest.mark.parametrize("domain_shift", [False, True], ids=["plain", "shift"])
    @pytest.mark.parametrize("image_size", [16, 28, 32])
    def test_bytes_equal_the_per_image_loop(self, image_size, domain_shift, classes, seed):
        got = synth_digits(7, classes, image_size=image_size, seed=seed,
                           domain_shift=domain_shift)
        want = per_image_synth_digits(7, classes, image_size=image_size, seed=seed,
                                      domain_shift=domain_shift)
        for a, b in ((got.images, want.images), (got.labels, want.labels)):
            assert a.dtype == b.dtype and a.shape == b.shape and a.flags.c_contiguous
            assert a.tobytes() == b.tobytes()
        assert (got.name, got.classes) == (want.name, want.classes)

    def test_deterministic_per_seed(self):
        a = synth_digits(5, range(4), seed=3)
        b = synth_digits(5, range(4), seed=3)
        np.testing.assert_array_equal(a.images, b.images)

    def test_domain_shift_changes_pixels_not_labels(self):
        a = synth_digits(5, range(4), seed=3)
        b = synth_digits(5, range(4), seed=3, domain_shift=True)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert (a.images != b.images).any()

    def test_classes_are_linearly_separable_enough(self):
        # nearest-template classification should be near-perfect by design
        ds = synth_digits(20, range(5), seed=0)
        templates = np.stack([
            ds.images[ds.labels == c].mean(axis=0)[0].astype(float) for c in range(5)
        ])
        flat = ds.images[:, 0].reshape(len(ds), -1).astype(float)
        dists = ((flat[:, None, :] - templates.reshape(5, -1)[None]) ** 2).sum(axis=-1)
        acc = (np.argmin(dists, axis=1) == ds.labels).mean()
        # jitter costs the naive matcher a few examples; a trained net does better
        assert acc >= 0.90
