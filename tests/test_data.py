"""File-format parsing, stratified subsets, batching, augmentation."""

import hashlib
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binwidth import data as dm
from binwidth import synth
from binwidth.errors import FormatError, InputError


def gray_dataset(per_class=6, seed=0):
    images, labels = synth.synth_gray_images(per_class, seed)
    return dm.Dataset(images, labels, class_count=10)


def rgb_dataset(per_class=6, seed=0):
    images, labels = synth.synth_rgb_images(per_class, seed)
    return dm.Dataset(images, labels, class_count=10)


class TestDatasetValidation:
    def test_rejects_bad_rank(self):
        with pytest.raises(InputError):
            dm.Dataset(np.zeros((2, 28, 28), dtype=np.uint8), np.zeros(2, dtype=np.int64), 10)

    def test_rejects_count_mismatch(self):
        with pytest.raises(InputError):
            dm.Dataset(np.zeros((2, 1, 4, 4), dtype=np.uint8), np.zeros(3, dtype=np.int64), 10)

    def test_rejects_label_out_of_range(self):
        with pytest.raises(InputError):
            dm.Dataset(
                np.zeros((2, 1, 4, 4), dtype=np.uint8), np.array([0, 10]), class_count=10
            )

    def test_rejects_unknown_split(self):
        with pytest.raises(InputError):
            dm.Dataset(np.zeros((1, 1, 4, 4), dtype=np.uint8), np.zeros(1, dtype=np.int64), 10, split="dev")

    def test_arrays_read_only(self):
        d = gray_dataset(per_class=1)
        with pytest.raises(ValueError):
            d.images[0, 0, 0, 0] = 0

    def test_callers_arrays_stay_writable(self):
        images, labels = np.zeros((2, 1, 4, 4), np.float32), np.array([0, 1], np.int64)
        d = dm.Dataset(images, labels, class_count=2)
        for frozen in (d.images, d.labels):
            with pytest.raises(ValueError):
                frozen[0] = 1
        images[0] = 1.0
        labels[0] = 1
        assert d.images[0].min() == 1.0 and d.labels[0] == 1  # views of the caller's arrays, not copies


class TestIdxFormat:
    def test_round_trip_byte_identical(self):
        pixels, labels = synth.synth_gray_images(per_class=4, seed=1)
        d = dm.parse_mnist_idx(*synth.idx_bytes(per_class=4, seed=1))
        np.testing.assert_array_equal(d.images, pixels.astype(np.float32) / 255)
        np.testing.assert_array_equal(d.labels, labels)

    def test_header_fields(self):
        image_bytes, label_bytes = synth.idx_bytes(per_class=2, seed=0)
        magic, n, h, w = struct.unpack(">IIII", image_bytes[:16])
        assert magic == 0x803
        assert (n, h, w) == (20, 28, 28)
        lmagic, ln = struct.unpack(">II", label_bytes[:8])
        assert lmagic == 0x801
        assert ln == 20

    def test_pixel_placement(self):
        # One crafted 2x3 image: payload order must be row-major.
        img_payload = bytes([1, 2, 3, 4, 5, 6])
        image_bytes = struct.pack(">IIII", 0x803, 1, 2, 3) + img_payload
        label_bytes = struct.pack(">II", 0x801, 1) + bytes([7])
        d = dm.parse_mnist_idx(image_bytes, label_bytes)
        assert d.images.shape == (1, 1, 2, 3)
        expect = np.array([[1, 2, 3], [4, 5, 6]], dtype=np.float32) / 255.0
        np.testing.assert_allclose(d.images[0, 0], expect, rtol=1e-6)
        assert d.labels[0] == 7

    def test_bad_image_magic(self):
        image_bytes, label_bytes = synth.idx_bytes(per_class=1, seed=0)
        with pytest.raises(FormatError) as e:
            dm.parse_mnist_idx(b"\xff" + image_bytes[1:], label_bytes)
        assert e.value.offset == 0

    def test_count_mismatch_between_files(self):
        image_bytes, _ = synth.idx_bytes(per_class=2, seed=0)
        _, label_bytes = synth.idx_bytes(per_class=1, seed=0)
        with pytest.raises(FormatError):
            dm.parse_mnist_idx(image_bytes, label_bytes)

    def test_truncated_payload_offset(self):
        image_bytes, label_bytes = synth.idx_bytes(per_class=1, seed=0)
        with pytest.raises(FormatError) as e:
            dm.parse_mnist_idx(image_bytes[:-5], label_bytes)
        assert e.value.offset == len(image_bytes[:-5])

    def test_label_over_nine(self):
        image_bytes = struct.pack(">IIII", 0x803, 1, 2, 2) + bytes(4)
        label_bytes = struct.pack(">II", 0x801, 1) + bytes([11])
        with pytest.raises(FormatError) as e:
            dm.parse_mnist_idx(image_bytes, label_bytes)
        assert e.value.offset == 8

    def test_serialize_rejects_rgb(self):
        with pytest.raises(InputError):
            dm.pack_mnist_idx(*synth.synth_rgb_images(per_class=1, seed=0))


class TestRecordFormat:
    def test_round_trip_byte_identical(self):
        pixels, labels = synth.synth_rgb_images(per_class=3, seed=2)
        d = dm.parse_cifar10_bin(synth.rgb_record_bytes(per_class=3, seed=2))
        np.testing.assert_array_equal(d.images, pixels.astype(np.float32) / 255)
        np.testing.assert_array_equal(d.labels, labels)

    def test_plane_order(self):
        # One record: label then 1024 red, 1024 green, 1024 blue bytes.
        rec = bytes([5]) + bytes([10] * 1024) + bytes([20] * 1024) + bytes([30] * 1024)
        d = dm.parse_cifar10_bin(rec)
        assert d.labels[0] == 5
        assert d.images.shape == (1, 3, 32, 32)
        assert d.images[0, 0, 0, 0] == pytest.approx(10 / 255)
        assert d.images[0, 1, 16, 16] == pytest.approx(20 / 255)
        assert d.images[0, 2, 31, 31] == pytest.approx(30 / 255)

    def test_non_multiple_length_rejected(self):
        blob = synth.rgb_record_bytes(per_class=1, seed=0)
        with pytest.raises(FormatError):
            dm.parse_cifar10_bin(blob[:-1])

    def test_bad_label_reports_record_offset(self):
        rec0 = bytes([1]) + bytes(3072)
        rec1 = bytes([77]) + bytes(3072)
        with pytest.raises(FormatError) as e:
            dm.parse_cifar10_bin(rec0 + rec1)
        assert e.value.offset == 3073

    def test_serialize_rejects_gray(self):
        with pytest.raises(InputError):
            dm.pack_cifar10_bin(*synth.synth_gray_images(per_class=1, seed=0))


# sha256 of each file the synthetic writers produce at (8, 2, seed 0); the
# golden and acceptance runs train on these bytes.
SYNTH_FILE_HASHES = {
    "write_gray_files": {
        "train-images.idx": "ed1bdf4af73c9bea60e68afa79d9d59808b0ff61ddca18514025a7844aeba7a7",
        "train-labels.idx": "2e2d4901dd7d2d4dfd2ad1b65cf197be4ca845fcc941dadb519d932b2e5b517b",
        "test-images.idx": "c4eef05c1d0f2673dce66ff4580454bb5e4a6e214a0e1163e8684a0246f6b321",
        "test-labels.idx": "50143c08f8b63ef3f61dc5cf0d8724ea26262006335a4d74c8c7fe4fc1f099e1",
    },
    "write_rgb_files": {
        "train.bin": "8b726698b8e9e8c1bc6aa68d6099aa7f407c60bb96bd509583cf0ece3eb288ee",
        "test.bin": "94f355474167fad7a6937595fc13299a3ac7c471276adf5550a0aa3f23f7731b",
    },
}


@pytest.mark.parametrize("writer", sorted(SYNTH_FILE_HASHES))
def test_synthetic_files_keep_their_bytes(tmp_path, writer):
    paths = getattr(synth, writer)(str(tmp_path), 8, 2, 0)
    assert sorted(os.listdir(tmp_path)) == sorted(SYNTH_FILE_HASHES[writer])
    got = {}
    for key, path in paths.items():
        assert os.path.dirname(path) == str(tmp_path)
        with open(path, "rb") as f:
            got[os.path.basename(path)] = hashlib.sha256(f.read()).hexdigest()
    assert got == SYNTH_FILE_HASHES[writer]
    assert list(got) == list(SYNTH_FILE_HASHES[writer])  # the returned keys keep train before test


class TestStratified:
    def test_split_deterministic(self):
        d = gray_dataset(per_class=8, seed=3)
        a = dm.stratified_split(d, per_class_a=3, per_class_b=2, seed=5)
        b = dm.stratified_split(d, per_class_a=3, per_class_b=2, seed=5)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.images, y.images)
            np.testing.assert_array_equal(x.labels, y.labels)

    def test_split_disjoint_and_sized(self):
        d = gray_dataset(per_class=10, seed=4)
        a, b = dm.stratified_split(d, per_class_a=6, per_class_b=3, seed=1)
        np.testing.assert_array_equal(np.bincount(a.labels, minlength=10), 6)
        np.testing.assert_array_equal(np.bincount(b.labels, minlength=10), 3)
        assert b.split == "val"
        # Disjointness: no image of a appears in b.
        flat_a = {bytes(img.tobytes()) for img in a.images}
        assert all(bytes(img.tobytes()) not in flat_a for img in b.images)

    def test_split_insufficient_raises(self):
        d = gray_dataset(per_class=5, seed=4)
        with pytest.raises(InputError):
            dm.stratified_split(d, per_class_a=4, per_class_b=2, seed=0)

    def test_subset_insufficient_class_named(self):
        d = gray_dataset(per_class=2, seed=3)
        with pytest.raises(InputError) as e:
            dm.stratified_split(d, per_class_a=4, per_class_b=1, seed=0)
        assert "class 0 has 2 samples, need 5" in str(e.value)

    def test_split_keeps_its_samples(self, tmp_path):
        # The golden run's train file and split sizes, then classes of 12 down to 3 samples.
        synth.write_gray_files(str(tmp_path), 8, 2, 0)
        even = dm.parse_mnist_idx(*((tmp_path / f"train-{part}.idx").read_bytes() for part in ("images", "labels")))
        images, labels = synth.synth_gray_images(12, 3)
        keep = np.sort(np.concatenate([np.flatnonzero(labels == c)[c:] for c in range(10)]))
        uneven = dm.Dataset(images[keep], labels[keep], class_count=10)
        got = [hashlib.sha256(s.images.tobytes() + s.labels.tobytes()).hexdigest()
               for d, a, b, seed in ((even, 5, 2, 0), (uneven, 2, 1, 7)) for s in dm.stratified_split(d, a, b, seed)]
        assert got == [
            "078a60ca23f29b3697fbe0164e00d84d9a0dcef72ec485f9f559f9349ffa4595",
            "608a3532edfcdff79bddb63ce66c67a12d07b0ee393631cb01b00fe8b7a6a59f",
            "ed76b73689e814b274b5416a7b0435abec99fa4ecda5c7b4c808c38ccc791169",
            "e5ba47c11f8fcf064662a727890e9010d42ae6a9c423cac467a4f62ed76eb08a",
        ]


class TestBatching:
    def test_batch_sizes_with_remainder(self):
        d = gray_dataset(per_class=1, seed=0)  # 10 images
        sizes = [img.shape[0] for img, _ in dm.make_batches(d, 3, seed=0)]
        assert sizes == [3, 3, 3, 1]

    def test_standardization_gray(self):
        d = gray_dataset(per_class=2, seed=1)
        images, _ = next(dm.make_batches(d, 20, seed=0, shuffle=False))
        expect = (d.images[:20] - 0.1307) / 0.3081
        np.testing.assert_allclose(images, expect, rtol=1e-5)

    def test_standardization_rgb_per_channel(self):
        d = rgb_dataset(per_class=2, seed=1)
        images, _ = next(dm.make_batches(d, 20, seed=0, shuffle=False))
        raw = d.images[:20]
        mean = np.array([0.4914, 0.4822, 0.4465], dtype=np.float32).reshape(1, 3, 1, 1)
        std = np.array([0.2470, 0.2435, 0.2616], dtype=np.float32).reshape(1, 3, 1, 1)
        np.testing.assert_allclose(images, (raw - mean) / std, rtol=1e-4)

    def test_unshuffled_preserves_order(self):
        d = gray_dataset(per_class=2, seed=2)
        _, labels = next(dm.make_batches(d, 20, seed=9, shuffle=False))
        np.testing.assert_array_equal(labels, d.labels[:20])

    def test_shuffle_is_seeded(self):
        d = gray_dataset(per_class=4, seed=2)
        order_a = [l for _, lab in dm.make_batches(d, 8, seed=3) for l in lab]
        order_b = [l for _, lab in dm.make_batches(d, 8, seed=3) for l in lab]
        order_c = [l for _, lab in dm.make_batches(d, 8, seed=4) for l in lab]
        assert order_a == order_b
        assert order_a != order_c

    def test_shuffle_covers_every_image(self):
        d = gray_dataset(per_class=3, seed=2)
        labels = sorted(l for _, lab in dm.make_batches(d, 7, seed=1) for l in lab)
        assert labels == sorted(d.labels.tolist())

    def test_augmented_batches_differ_but_reproduce(self):
        d = rgb_dataset(per_class=3, seed=5)
        plain, _ = next(dm.make_batches(d, 30, seed=6, augment=False, shuffle=False))
        aug_a, _ = next(dm.make_batches(d, 30, seed=6, augment=True, shuffle=False))
        aug_b, _ = next(dm.make_batches(d, 30, seed=6, augment=True, shuffle=False))
        assert not np.array_equal(plain, aug_a)
        np.testing.assert_array_equal(aug_a, aug_b)

    def test_augment_preserves_shape_and_range(self):
        d = rgb_dataset(per_class=3, seed=5)
        plain, _ = next(dm.make_batches(d, 30, seed=6, augment=False, shuffle=False))
        aug, _ = next(dm.make_batches(d, 30, seed=6, augment=True, shuffle=False))
        assert aug.shape == plain.shape
        assert abs(aug).max() <= abs(plain).max() + 5  # same standardized scale

    def test_bad_batch_size(self):
        with pytest.raises(InputError):
            next(dm.make_batches(gray_dataset(1), 0, seed=0))


class TestAugmentGeometry:
    def test_flip_is_an_involution(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(size=(2, 3, 8, 8)).astype(np.float32)
        np.testing.assert_array_equal(x[..., ::-1][..., ::-1], x)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_augmented_content_comes_from_padded_original(self, seed):
        # Every augmented crop must be a window of the reflect-padded image
        # or its mirror, so pixel values can only come from the original.
        rng = np.random.default_rng(seed)
        x = rng.uniform(size=(1, 1, 6, 6)).astype(np.float32)
        out = dm._augment(x, np.random.default_rng(seed))
        values = set(np.round(x.ravel(), 6).tolist())
        assert set(np.round(out.ravel(), 6).tolist()) <= values
