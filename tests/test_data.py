import bz2
import gzip
import struct

import numpy as np
import pytest

from labelalign.data import (
    BatchSampler,
    DataFormatError,
    ImageDataset,
    load_mnist,
    load_usps,
    make_synthetic,
    next_batch,
    resize_bilinear,
    split_target,
    standardize,
)


def write_idx_images(path, images: np.ndarray):
    count, rows, cols = images.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x803, count, rows, cols))
        fh.write(images.astype(np.uint8).tobytes())


def write_idx_labels(path, labels: np.ndarray):
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", 0x801, len(labels)))
        fh.write(labels.astype(np.uint8).tobytes())


def usps_line(label: int, values: np.ndarray) -> str:
    pairs = " ".join(f"{i + 1}:{v:.6f}" for i, v in enumerate(values))
    return f"{label} {pairs}"


@pytest.fixture
def idx_pair(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(10, 28, 28), dtype=np.uint8)
    labels = rng.integers(0, 10, size=10, dtype=np.uint8)
    img_path = tmp_path / "images-idx3-ubyte"
    lbl_path = tmp_path / "labels-idx1-ubyte"
    write_idx_images(img_path, images)
    write_idx_labels(lbl_path, labels)
    return img_path, lbl_path, images, labels


# ---------------------------------------------------------------------------
# IDX loading
# ---------------------------------------------------------------------------


def test_load_mnist_parses_header_and_scales(idx_pair):
    img_path, lbl_path, images, labels = idx_pair
    ds = load_mnist(img_path, lbl_path)
    assert ds.images.shape == (10, 1, 28, 28)
    assert ds.images.dtype == np.float32
    np.testing.assert_allclose(ds.images[:, 0], images / 255.0, atol=1e-7)
    np.testing.assert_array_equal(ds.labels, labels)
    assert ds.labels.min() >= 0 and ds.labels.max() <= 9
    assert 0.0 <= ds.images.min() and ds.images.max() <= 1.0


def test_load_mnist_gzip_transparent(idx_pair, tmp_path):
    img_path, lbl_path, _, _ = idx_pair
    gz_img = tmp_path / "images.gz"
    gz_lbl = tmp_path / "labels.gz"
    gz_img.write_bytes(gzip.compress(img_path.read_bytes()))
    gz_lbl.write_bytes(gzip.compress(lbl_path.read_bytes()))
    plain = load_mnist(img_path, lbl_path)
    zipped = load_mnist(gz_img, gz_lbl)
    np.testing.assert_array_equal(plain.images, zipped.images)
    np.testing.assert_array_equal(plain.labels, zipped.labels)


def test_load_mnist_rejects_bad_magic(idx_pair, tmp_path):
    _, lbl_path, _, _ = idx_pair
    bad = tmp_path / "bad"
    bad.write_bytes(struct.pack(">IIII", 0, 1, 2, 2) + b"\x00" * 4)
    with pytest.raises(DataFormatError, match="bad magic 0x00000000 at byte 0"):
        load_mnist(bad, lbl_path)


def test_load_mnist_rejects_truncation(idx_pair, tmp_path):
    img_path, lbl_path, _, _ = idx_pair
    clipped = tmp_path / "clipped"
    raw = img_path.read_bytes()
    clipped.write_bytes(raw[:-5])
    with pytest.raises(DataFormatError, match=rf"expected {len(raw)} bytes, found {len(raw) - 5}"):
        load_mnist(clipped, lbl_path)


def gzip_cut_and_flipped(raw: bytes):
    """A gzip stream of ``raw`` without its last 4 bytes, and one with a run
    of corrupted bytes inside the deflate data."""
    whole = gzip.compress(raw, mtime=0)
    flipped = bytearray(whole)
    flipped[12:20] = bytes(255 - v for v in flipped[12:20])
    return whole[:-4], bytes(flipped)


def test_load_mnist_rejects_truncated_or_corrupt_gzip_images(idx_pair, tmp_path):
    img_path, lbl_path, _, _ = idx_pair
    for raw in gzip_cut_and_flipped(img_path.read_bytes()):
        bad = tmp_path / "images.gz"
        bad.write_bytes(raw)
        with pytest.raises(DataFormatError, match=r"images.gz: corrupt or truncated gzip data"):
            load_mnist(bad, lbl_path)


def test_load_mnist_rejects_truncated_or_corrupt_gzip_labels(idx_pair, tmp_path):
    img_path, lbl_path, _, _ = idx_pair
    for raw in gzip_cut_and_flipped(lbl_path.read_bytes()):
        bad = tmp_path / "labels.gz"
        bad.write_bytes(raw)
        with pytest.raises(DataFormatError, match=r"labels.gz: corrupt or truncated gzip data"):
            load_mnist(img_path, bad)


def test_load_mnist_rejects_count_mismatch(idx_pair, tmp_path):
    img_path, _, _, _ = idx_pair
    short = tmp_path / "short-labels"
    write_idx_labels(short, np.zeros(7, dtype=np.uint8))
    with pytest.raises(DataFormatError, match="count mismatch"):
        load_mnist(img_path, short)


def test_loading_is_idempotent(idx_pair):
    img_path, lbl_path, _, _ = idx_pair
    a = load_mnist(img_path, lbl_path)
    b = load_mnist(img_path, lbl_path)
    np.testing.assert_array_equal(a.images, b.images)
    np.testing.assert_array_equal(a.labels, b.labels)


# ---------------------------------------------------------------------------
# sparse text loading
# ---------------------------------------------------------------------------


def test_load_usps_basic(tmp_path):
    rng = np.random.default_rng(1)
    path = tmp_path / "target.txt"
    lines = []
    for label in range(1, 11):
        values = rng.uniform(-1, 1, size=256)
        lines.append(usps_line(label, values))
    path.write_text("\n".join(lines) + "\n")
    ds = load_usps(path)
    assert ds.images.shape == (10, 1, 28, 28)
    np.testing.assert_array_equal(ds.labels, np.arange(10))
    assert 0.0 <= ds.images.min() and ds.images.max() <= 1.0


def test_load_usps_bz2(tmp_path):
    rng = np.random.default_rng(2)
    text = "\n".join(usps_line(3, rng.uniform(-1, 1, 256)) for _ in range(4)) + "\n"
    plain = tmp_path / "u.txt"
    packed = tmp_path / "u.bz2"
    plain.write_text(text)
    packed.write_bytes(bz2.compress(text.encode()))
    a = load_usps(plain)
    b = load_usps(packed)
    np.testing.assert_array_equal(a.images, b.images)


def test_load_usps_rejects_truncated_or_corrupt_bz2_and_undecodable_text(tmp_path):
    rng = np.random.default_rng(3)
    text = "\n".join(usps_line(3, rng.uniform(-1, 1, 256)) for _ in range(40)) + "\n"
    packed = bz2.compress(text.encode())
    flipped = bytearray(packed)
    flipped[40:60] = bytes(20)
    cases = {
        "cut.bz2": packed[: len(packed) // 2],
        "flipped.bz2": bytes(flipped),
        "binary.txt": b"3 1:0.5\n\xff\xfe\x00\n",
    }
    for name, raw in cases.items():
        path = tmp_path / name
        path.write_bytes(raw)
        with pytest.raises(DataFormatError, match=rf"{name}: corrupt or truncated text data"):
            load_usps(path)


def test_load_usps_all_negative_is_black(tmp_path):
    path = tmp_path / "dark.txt"
    path.write_text(usps_line(5, -np.ones(256)) + "\n")
    ds = load_usps(path)
    np.testing.assert_array_equal(ds.images, np.zeros((1, 1, 28, 28), dtype=np.float32))
    assert ds.labels[0] == 4  # label 5 -> digit 4


def test_load_usps_constant_input_stays_constant(tmp_path):
    path = tmp_path / "flat.txt"
    path.write_text(usps_line(1, np.full(256, 0.25)) + "\n")
    ds = load_usps(path)
    np.testing.assert_allclose(ds.images, (0.25 + 1) / 2, atol=1e-7)


def test_load_usps_rejects_bad_attribute_index(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3 1:0.5 257:0.5\n")
    with pytest.raises(DataFormatError, match=r"bad.txt:1: attribute index 257"):
        load_usps(path)


def test_load_usps_rejects_unparsable_line(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("3 1:0.5\nnot-a-label 1:0.5\n")
    with pytest.raises(DataFormatError, match=r"junk.txt:2"):
        load_usps(path)


def test_load_usps_rejects_out_of_range_label(tmp_path):
    path = tmp_path / "lbl.txt"
    path.write_text("11 1:0.0\n")
    with pytest.raises(DataFormatError, match="label 11 outside"):
        load_usps(path)


def test_resize_bilinear_corner_alignment():
    img = np.arange(4, dtype=np.float64).reshape(1, 2, 2)
    out = resize_bilinear(img, 3, 3)
    expected = np.array([[0.0, 0.5, 1.0], [1.0, 1.5, 2.0], [2.0, 2.5, 3.0]])
    np.testing.assert_allclose(out[0], expected, atol=1e-12)


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------


def test_split_target_standard_sizes():
    train = make_synthetic(7291, seed=0)
    test = make_synthetic(2007, seed=1)
    adapt, val, held = split_target(train, test, seed=3)
    assert len(adapt) == 7291 and adapt.labels is None
    assert len(val) == 1003 and len(held) == 1004
    assert val.labels is not None and held.labels is not None


def test_split_target_deterministic_partition():
    train = make_synthetic(50, seed=0)
    test = make_synthetic(21, seed=1)
    # tag images by index so membership is observable
    test.images[:, 0, 0, 0] = np.arange(21) / 21.0
    a = split_target(train, test, seed=9)
    b = split_target(train, test, seed=9)
    np.testing.assert_array_equal(a[1].images, b[1].images)
    np.testing.assert_array_equal(a[2].images, b[2].images)
    ids = np.concatenate([a[1].images[:, 0, 0, 0], a[2].images[:, 0, 0, 0]])
    assert len(np.unique(np.round(ids * 21))) == 21  # disjoint and exhaustive


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------


def test_batches_are_always_full_size():
    sampler = BatchSampler(count=10, batch_size=4, seed=0)
    for _ in range(10):
        assert sampler.next_indices().shape == (4,)


def test_batch_equal_to_dataset_size_is_a_permutation():
    sampler = BatchSampler(count=6, batch_size=6, seed=1)
    batch = sampler.next_indices()
    assert sorted(batch.tolist()) == list(range(6))


def test_concatenated_stream_is_per_epoch_permutations():
    n, b = 10, 4
    sampler = BatchSampler(count=n, batch_size=b, seed=2)
    stream = np.concatenate([sampler.next_indices() for _ in range(5)])  # 2 epochs
    assert sorted(stream[:n].tolist()) == list(range(n))
    assert sorted(stream[n : 2 * n].tolist()) == list(range(n))


def test_sampler_deterministic():
    a = BatchSampler(count=20, batch_size=7, seed=5)
    b = BatchSampler(count=20, batch_size=7, seed=5)
    for _ in range(6):
        np.testing.assert_array_equal(a.next_indices(), b.next_indices())


def test_sampler_validates_batch_size():
    with pytest.raises(ValueError):
        BatchSampler(count=3, batch_size=4, seed=0)


def test_next_batch_pairs_domains():
    src = make_synthetic(16, seed=0)
    tgt = make_synthetic(12, seed=1).drop_labels()
    s1 = BatchSampler(16, 5, seed=2)
    s2 = BatchSampler(12, 5, seed=3)
    batch = next_batch(s1, src, s2, tgt)
    assert batch.source_images.shape == (5, 1, 28, 28)
    assert batch.source_labels.shape == (5,)
    assert batch.target_images.shape == (5, 1, 28, 28)
    solo = next_batch(BatchSampler(16, 5, seed=2), src)
    assert solo.target_images is None


# ---------------------------------------------------------------------------
# synthetic data and helpers
# ---------------------------------------------------------------------------


def test_make_synthetic_deterministic_and_in_range():
    a = make_synthetic(32, seed=7, domain_shift=0.3)
    b = make_synthetic(32, seed=7, domain_shift=0.3)
    np.testing.assert_array_equal(a.images, b.images)
    np.testing.assert_array_equal(a.labels, b.labels)
    assert a.images.min() >= 0.0 and a.images.max() <= 1.0
    assert a.provenance == "synthetic"


def test_dataset_invariants_enforced():
    with pytest.raises(DataFormatError, match="pixel range"):
        ImageDataset(np.full((1, 1, 2, 2), 1.5, dtype=np.float32), None, "synthetic", "train")
    with pytest.raises(DataFormatError, match="label count"):
        ImageDataset(
            np.zeros((2, 1, 2, 2), dtype=np.float32), np.zeros(3, dtype=np.int64),
            "synthetic", "train",
        )


def test_standardize_zero_mean_unit_variance():
    ds = make_synthetic(64, seed=3)
    out = standardize(ds)
    assert abs(out.images.mean()) < 1e-5
    assert abs(out.images.std() - 1.0) < 1e-4
    assert out.standardized



def test_subset_and_split_keep_standardized_flag():
    train = standardize(make_synthetic(40, seed=5))
    test = standardize(make_synthetic(30, seed=6))
    assert train.images.min() < 0.0  # outside [0, 1], so the flag must carry over

    part = test.subset(np.arange(10), split="val")
    assert part.standardized and len(part) == 10 and part.split == "val"
    np.testing.assert_array_equal(part.images, test.images[:10])

    adapt, val, held = split_target(train, test, seed=1)
    assert adapt.standardized and val.standardized and held.standardized
    assert len(val) + len(held) == len(test)
