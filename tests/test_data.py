import bz2
import gzip
import re
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelalign import data as data_module
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
    synthetic_domains,
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
    img_path, lbl_path, _, _ = idx_pair
    bad = tmp_path / "bad"
    bad.write_bytes(struct.pack(">IIII", 0, 1, 2, 2) + b"\x00" * 4)
    with pytest.raises(DataFormatError, match="bad magic 0x00000000 at byte 0"):
        load_mnist(bad, lbl_path)
    message = r"bad magic 0x00000803 at byte 0 \(expected 0x00000801\)"
    with pytest.raises(DataFormatError, match=message):
        load_mnist(img_path, img_path)


def test_load_mnist_rejects_truncation(idx_pair, tmp_path):
    img_path, lbl_path, _, _ = idx_pair
    clipped = tmp_path / "clipped"
    raw = img_path.read_bytes()
    clipped.write_bytes(raw[:-5])
    with pytest.raises(DataFormatError, match=rf"expected {len(raw)} bytes, found {len(raw) - 5}"):
        load_mnist(clipped, lbl_path)
    clipped.write_bytes(raw[:15])
    with pytest.raises(DataFormatError, match="truncated header, only 15 bytes"):
        load_mnist(clipped, lbl_path)
    raw = lbl_path.read_bytes()
    for kept, message in (
        (len(raw) - 1, rf"expected {len(raw)} bytes, found {len(raw) - 1}"),
        (7, "truncated header, only 7 bytes"),
    ):
        clipped.write_bytes(raw[:kept])
        with pytest.raises(DataFormatError, match=message):
            load_mnist(img_path, clipped)


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


MALFORMED_LINES = [
    ("1:0.5 2:0.5", "unparsable label '1:0.5'"),
    ("3 1 :0.5", "unparsable pair '1'"),
    ("3 1:0.5 7", "unparsable pair '7'"),
    ("3 1:0.5:2", "unparsable pair '1:0.5:2'"),
    ("3 :0.5", "unparsable pair ':0.5'"),
    ("3 1: 2:0.5", "unparsable pair '1:'"),
    ("3 1.0:0.5", "unparsable pair '1.0:0.5'"),
    ("3 2e0:0.5", "unparsable pair '2e0:0.5'"),
    ("3 1x2:0.5", "unparsable pair '1x2:0.5'"),
    ("3 +:0.5", "unparsable pair '+:0.5'"),
    ("3 +-1:0.5", "unparsable pair '+-1:0.5'"),
    ("3 .5:0.5", "unparsable pair '.5:0.5'"),
    ("3 1+:0.5", "unparsable pair '1+:0.5'"),
    ("3 12a4:0.5", "unparsable pair '12a4:0.5'"),
    ("3 +12:0.5 1a:0", "unparsable pair '1a:0'"),
    ("3 1:0.5-0.25 2:", "unparsable pair '1:0.5-0.25'"),
    ("3 1:0.5\x00", "unparsable pair '1:0.5\x00'"),
    ("3 007:0.5 -0:0.5", "attribute index 0 outside"),
    ("3 1:0.5 2:0.5 99999999999999999999:0", "attribute index 99999999999999999999 outside"),
    ("-0.5 1:0", "label 0 outside 1..10"),
    ("3 1:0.5 2:0.5x", "unparsable pair '2:0.5x'"),
]


@pytest.mark.parametrize("line, message", MALFORMED_LINES)
def test_load_usps_names_the_line_and_the_first_bad_token(tmp_path, line, message):
    path = tmp_path / "bad.txt"
    # a later bad line must not hide the first one
    path.write_bytes(f"3 1:0.5\r\n\n{line}\n5 1:0.5 x\n".encode())
    with pytest.raises(DataFormatError, match=rf"bad.txt:3: {re.escape(message)}"):
        load_usps(path)


def fromstring_that_warns(text, sep):
    """``np.fromstring`` as NumPy 1.x has it: text it cannot read gives a
    DeprecationWarning and the numbers before it, not a ValueError."""
    numbers = []
    for token in text.split():
        try:
            numbers.append(float(token))
        except ValueError:
            warnings.warn("string or file could not be read to its end", DeprecationWarning)
            break
    return np.array(numbers)


@pytest.mark.parametrize("line, message", MALFORMED_LINES)
def test_load_usps_names_the_first_bad_token_where_fromstring_only_warns(tmp_path, monkeypatch, line, message):
    monkeypatch.setattr(np, "fromstring", fromstring_that_warns)
    path = tmp_path / "bad.txt"
    # the bad line comes last, so its last token may be the file's last
    path.write_bytes(f"3 1:0.5\r\n\n{line}\n".encode())
    with pytest.raises(DataFormatError, match=rf"bad.txt:3: {re.escape(message)}"):
        load_usps(path)
    path.write_bytes(b"3 1:0.5\n\n4 2:-0.25 1:1\n")
    assert load_usps(path).labels.tolist() == [2, 3]


@pytest.mark.parametrize("label", ["inf", "-inf", "1e400", "nan"])
def test_load_usps_rejects_a_label_that_is_no_integer(tmp_path, label):
    path = tmp_path / "huge.txt"
    path.write_text(f"3 1:0.5\n{label} 1:0.5\n")
    with pytest.raises(DataFormatError, match=rf"huge.txt:2: unparsable label '{re.escape(label)}'"):
        load_usps(path)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_load_usps_rejects_non_finite_values(tmp_path, value):
    path = tmp_path / "odd.txt"
    path.write_text(f"3 1:0.5\n\n4 2:0.25 1:{value}\n")
    with pytest.raises(DataFormatError, match=rf"odd.txt:3: attribute value in pair '1:{value}' is not finite"):
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
    test = make_synthetic(2007, seed=1)
    val, held = split_target(test, seed=3)
    assert len(val) == 1003 and len(held) == 1004
    assert (val.split, held.split) == ("val", "test")
    assert val.labels is not None and held.labels is not None


def test_split_target_deterministic_partition():
    test = make_synthetic(21, seed=1)
    # tag images by index so membership is observable
    test.images[:, 0, 0, 0] = np.arange(21) / 21.0
    a = split_target(test, seed=9)
    b = split_target(test, seed=9)
    np.testing.assert_array_equal(a[0].images, b[0].images)
    np.testing.assert_array_equal(a[1].images, b[1].images)
    ids = np.concatenate([a[0].images[:, 0, 0, 0], a[1].images[:, 0, 0, 0]])
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


def class_means(dataset):
    return np.stack([dataset.images[dataset.labels == c, 0].mean(axis=0) for c in range(10)])


def test_synthetic_sets_share_the_class_templates_of_their_template_seed():
    a = class_means(make_synthetic(400, seed=1, template_seed=5))
    b = class_means(make_synthetic(400, seed=2, template_seed=5))
    other = class_means(make_synthetic(400, seed=2, template_seed=6))
    assert np.abs(a - b).max() < 0.05
    assert np.abs(a - other).max() > 0.5
    # every split of one split_seed draws the same templates, so each class
    # mean of the warped target test set lies closest to its own source class
    source, _, _, test = synthetic_domains(3)
    flat_source, flat_test = class_means(source).reshape(10, -1), class_means(test).reshape(10, -1)
    corr = np.corrcoef(flat_source, flat_test)[:10, 10:]
    np.testing.assert_array_equal(corr.argmax(axis=0), np.arange(10))


def test_dataset_invariants_enforced():
    with pytest.raises(DataFormatError, match="pixel range"):
        ImageDataset(np.full((1, 1, 2, 2), 1.5, dtype=np.float32), None, "synthetic", "train")
    with pytest.raises(DataFormatError, match="pixel range"):
        ImageDataset(np.full((1, 1, 2, 2), np.nan, dtype=np.float32), None, "synthetic", "train")
    with pytest.raises(DataFormatError, match="label count"):
        ImageDataset(
            np.zeros((2, 1, 2, 2), dtype=np.float32), np.zeros(3, dtype=np.int64),
            "synthetic", "train",
        )


# ---------------------------------------------------------------------------
# fuzzed parsers
# ---------------------------------------------------------------------------


def reference_usps(path):
    """(images, labels) from the per-token parse and out-of-place resize that
    ``load_usps`` once ran, for differential tests on valid files."""
    raw = Path(path).read_bytes()
    text = (bz2.decompress(raw) if raw[:3] == b"BZh" else raw).decode()
    rows, labels = [], []
    for line in text.replace("\r\n", "\n").split("\n"):
        tokens = line.split()
        if not tokens:
            continue
        labels.append(int(float(tokens[0])) - 1)
        row = np.zeros(256)
        for token in tokens[1:]:
            key, value = token.split(":", 1)
            row[int(key) - 1] = float(value)
        rows.append(row)
    grid = (np.asarray(rows).reshape(-1, 16, 16) + 1.0) / 2.0
    pos = np.arange(28) * 15 / 27
    lo = np.minimum(np.floor(pos).astype(np.int64), 14)
    f, hi = pos - lo, lo + 1
    grid = grid[:, lo, :] + f[None, :, None] * (grid[:, hi, :] - grid[:, lo, :])
    big = grid[:, :, lo] + f[None, None, :] * (grid[:, :, hi] - grid[:, :, lo])
    return np.clip(big, 0.0, 1.0).astype(np.float32)[:, None], np.asarray(labels, dtype=np.int64)


values = st.floats(-1.0, 1.0).flatmap(lambda v: st.sampled_from([f"{v:.6f}", repr(v)]))
pairs = st.lists(st.tuples(st.integers(1, 256), values), max_size=40)  # any order, repeats
digit_labels = st.integers(1, 10).flatmap(
    lambda k: st.sampled_from([str(k), f"{k}.0", f"{k}.75", f"{k}e0", f"+{k}"])
)
gaps = st.sampled_from([" ", "  ", "\t", " \t "])
sample_lines = st.tuples(digit_labels, pairs, gaps).map(
    lambda t: t[0] + "".join(f"{t[2]}{i}:{v}" for i, v in t[1])
)
sparse_texts = st.tuples(
    st.lists(sample_lines | st.sampled_from(["", "  ", "\t"]), min_size=1, max_size=6).filter(
        lambda lines: any(line.strip() for line in lines)
    ),
    st.sampled_from(["\n", "\r\n"]),
    st.booleans(),
).map(lambda t: t[1].join(t[0]) + (t[1] if t[2] else ""))


def on_files(call, *raws: bytes):
    """``call`` on temporary files holding ``raws``."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / f"file{i}" for i in range(len(raws))]
        for path, raw in zip(paths, raws):
            path.write_bytes(raw)
        return call(*paths)


@given(sparse_texts, st.booleans())
@settings(deadline=None)  # example count from the hypothesis profile
def test_load_usps_matches_the_per_token_reference_bitwise(text, packed):
    raw = bz2.compress(text.encode()) if packed else text.encode()
    ds, (images, labels) = on_files(lambda p: (load_usps(p), reference_usps(p)), raw)
    assert ds.images.tobytes() == images.tobytes()
    assert ds.labels.tobytes() == labels.tobytes()


@given(sparse_texts, st.integers(1, 300))
@settings(deadline=None)  # example count from the hypothesis profile
def test_load_usps_in_small_blocks_matches_the_per_token_reference_bitwise(text, block_bytes):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data_module, "_USPS_BLOCK_BYTES", block_bytes)
        ds, (images, labels) = on_files(lambda p: (load_usps(p), reference_usps(p)), text.encode())
    assert ds.images.tobytes() == images.tobytes()
    assert ds.labels.tobytes() == labels.tobytes()


@pytest.mark.parametrize("block_bytes", [1, 12, 1 << 20])
def test_load_usps_in_blocks_names_the_file_line(tmp_path, monkeypatch, block_bytes):
    monkeypatch.setattr(data_module, "_USPS_BLOCK_BYTES", block_bytes)
    path = tmp_path / "bad.txt"
    path.write_bytes(b"3 1:0.5\r\n\n4 2:0.25\n\n5 1:0.5 x\n")
    with pytest.raises(DataFormatError, match=r"bad.txt:5: unparsable pair 'x'"):
        load_usps(path)
    path.write_bytes(b"\n  \n\t\n\n")
    with pytest.raises(DataFormatError, match=r"bad.txt: no samples found"):
        load_usps(path)


def loads_or_refuses(call, *raws: bytes):
    """``call`` on files holding ``raws``; any error but DataFormatError fails."""
    try:
        ds = on_files(call, *raws)
    except DataFormatError:
        return
    assert np.all((ds.images >= 0.0) & (ds.images <= 1.0))
    assert np.all((ds.labels >= 0) & (ds.labels <= 9))


def mutated(raw: bytes, flips, cut: int) -> bytes:
    out = bytearray(raw)
    for pos, value in flips:
        out[pos % len(out)] = value
    return bytes(out[: cut % (len(out) + 1)])


flips = st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)), min_size=1, max_size=4)
cuts = st.integers(0, 10**6)
text_bytes = st.binary(max_size=200) | st.text("0123456789+-.:eE \t\n\rinfa", max_size=120).map(str.encode)


@given(text_bytes, st.booleans())
@settings(deadline=None)  # example count from the hypothesis profile
def test_load_usps_on_arbitrary_bytes_raises_only_data_format_error(raw, packed):
    loads_or_refuses(load_usps, bz2.compress(raw) if packed else raw)


@given(sparse_texts, flips, cuts, st.sampled_from(["text", "bz2", "packed_text"]))
@settings(deadline=None)  # example count from the hypothesis profile
def test_load_usps_on_mutated_or_cut_files_raises_only_data_format_error(text, flips, cut, form):
    raw = text.encode()
    if form == "text":
        raw = mutated(raw, flips, cut)
    elif form == "bz2":
        raw = mutated(bz2.compress(raw), flips, cut)
    else:
        raw = bz2.compress(mutated(raw, flips, cut))
    loads_or_refuses(load_usps, raw)


# bytes that the parser reads as whitespace besides those bytes.split() splits at
FIELD_SPACES = bytes.maketrans(b"\x1c\x1d\x1e\x1f", b"    ")


def key_of(pair: bytes) -> str:
    key = pair.partition(b":")[0].decode()
    try:
        return str(int(key))
    except ValueError:
        return key


def assert_names_its_line(message: str, raw: bytes):
    """``message`` is one of load_usps's messages for the text ``raw``, and a
    token message names a line of the newline-normalized text that holds the
    token it quotes (for an index, a pair with that key)."""
    found = re.fullmatch(r".*?/file0(?::(\d+))?: (.*)", message, re.S)
    assert found, message
    line, what = found.groups()
    if line is None:
        assert what == "no samples found" or what.startswith("corrupt or truncated text data"), message
        return
    lines = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n").split(b"\n")
    assert 1 <= int(line) <= len(lines), message
    tokens = lines[int(line) - 1].translate(FIELD_SPACES).split()
    assert tokens, message
    if quoted := re.fullmatch(r"unparsable label '(.*)'", what, re.S):
        assert tokens[0] == quoted[1].encode(), message
    elif number := re.fullmatch(r"label (-?\d+) outside 1\.\.10", what):
        assert int(float(tokens[0])) == int(number[1]), message
    elif quoted := re.fullmatch(r"unparsable pair '(.*)'", what, re.S):
        assert quoted[1].encode() in tokens[1:], message
    elif key := re.fullmatch(r"attribute index (\S+) outside \[1, 256\]", what):
        assert key[1] in map(key_of, tokens[1:]), message
    else:
        quoted = re.fullmatch(r"attribute value in pair '(.*)' is not finite", what, re.S)
        assert quoted and quoted[1].encode() in tokens[1:], message


# flips to bytes of the format itself, which leave more of a text readable
format_flips = st.lists(
    st.tuples(st.integers(0, 10**6), st.sampled_from(b"0123456789:+-.eE \t\r\n\x1cxinfa")), min_size=1, max_size=4
)


@given(sparse_texts, format_flips | flips, st.none() | cuts, st.booleans())
@settings(deadline=None)  # example count from the hypothesis profile
def test_load_usps_on_mutated_or_cut_files_names_a_line_that_holds_the_bad_token(text, flips, cut, packed):
    raw = mutated(text.encode(), flips, len(text) if cut is None else cut)
    try:
        on_files(load_usps, bz2.compress(raw) if packed else raw)
    except DataFormatError as exc:
        assert_names_its_line(str(exc), raw)


IDX_IMAGES = struct.pack(">IIII", 0x803, 3, 2, 2) + bytes(range(0, 240, 20))
IDX_LABELS = struct.pack(">II", 0x801, 3) + bytes([0, 9, 4])


def load_mnist_with(raw: bytes, as_images: bool):
    loads_or_refuses(load_mnist, *((raw, IDX_LABELS) if as_images else (IDX_IMAGES, raw)))


@given(st.binary(max_size=64), st.booleans(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_load_mnist_on_arbitrary_bytes_raises_only_data_format_error(raw, as_images, packed):
    load_mnist_with(gzip.compress(raw, mtime=0) if packed else raw, as_images)


@given(flips, cuts, st.booleans(), st.sampled_from(["plain", "gzip", "packed_plain"]))
@settings(max_examples=300, deadline=None)
def test_load_mnist_on_mutated_or_cut_files_raises_only_data_format_error(flips, cut, as_images, form):
    raw = IDX_IMAGES if as_images else IDX_LABELS
    if form == "plain":
        raw = mutated(raw, flips, cut)
    elif form == "gzip":
        raw = mutated(gzip.compress(raw, mtime=0), flips, cut)
    else:
        raw = gzip.compress(mutated(raw, flips, cut), mtime=0)
    load_mnist_with(raw, as_images)
