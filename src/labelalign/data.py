"""Dataset ingestion, normalization, splitting and deterministic batching.

Source images arrive as big-endian IDX files (magic 0x803 for images, 0x801
for labels, unsigned bytes scaled to [0, 1]).  Target images arrive in the
sparse attribute text format (one sample per line: label then ``index:value``
pairs, 256 attributes for 16x16 pixels in [-1, 1], labels 1..10); they are
range-mapped to [0, 1], relabeled to digits 0..9 and upsampled to 28x28 with
corner-aligned bilinear interpolation.  The text is parsed in blocks of whole
lines: numpy checks a whole block at once (its token spans, colons and keys,
one ``np.fromstring`` of its numbers, their ranges), and only a block that
fails a check is read again, one token at a time, to name its first bad token.
A synthetic generator provides seeded, learnable stand-in datasets for tests
and smoke runs.
"""

from __future__ import annotations

import bz2
import ctypes
import gzip
import math
import struct
import warnings
import zlib
from dataclasses import dataclass, replace

import numpy as np

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


class DataFormatError(Exception):
    pass


@dataclass
class ImageDataset:
    """Images (count x 1 x h x w, floats in [0, 1]) with optional labels;
    pixels outside [0, 1], NaN included, are refused."""

    images: np.ndarray
    labels: np.ndarray | None
    provenance: str  # mnist | usps | synthetic
    split: str  # train | val | test

    def __post_init__(self):
        if self.images.ndim != 4:
            raise DataFormatError(f"images must be NCHW, got shape {self.images.shape}")
        if self.images.size and not (self.images.min() >= 0.0 and self.images.max() <= 1.0):
            raise DataFormatError(
                f"pixel range violated: [{self.images.min():.4g}, {self.images.max():.4g}]"
            )
        if self.labels is not None and len(self.labels) != len(self.images):
            raise DataFormatError(
                f"label count {len(self.labels)} does not match image count {len(self.images)}"
            )

    def __len__(self) -> int:
        return self.images.shape[0]

    def subset(self, indices, split: str | None = None) -> "ImageDataset":
        return replace(
            self,
            images=self.images[indices],
            labels=None if self.labels is None else self.labels[indices],
            split=split or self.split,
        )

    def drop_labels(self) -> "ImageDataset":
        return replace(self, labels=None)


# what a gzip or bzip2 stream raises when it is cut short or corrupt
_CODEC_ERRORS = (EOFError, zlib.error, OSError)


# The readers hand freed heap pages back to the OS once a file is read: glibc
# keeps them resident, so a load's peak (a 47 MB IDX payload to a 188 MB float
# array) stacked on the decompressor's chunks and on the holes earlier work
# left, and the same MNIST/USPS set-up peaked 20 MB higher in some runs.
try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):  # a C library without it
    _malloc_trim = lambda pad: 0  # noqa: E731


def _read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        head = fh.read(2)
        fh.seek(0)
        if head == b"\x1f\x8b":
            try:
                with gzip.open(fh) as gz:
                    return gz.read()
            except _CODEC_ERRORS as exc:
                raise DataFormatError(f"{path}: corrupt or truncated gzip data: {exc}") from exc
        return fh.read()


def _read_idx(path, magic: int, ndim: int) -> tuple[np.ndarray, list[int]]:
    """(payload bytes, dimensions) of an IDX file whose header, magic and
    payload size check out."""
    raw = _read_bytes(path)
    header = 4 + 4 * ndim
    if len(raw) < header:
        raise DataFormatError(f"{path}: truncated header, only {len(raw)} bytes")
    found, *dims = struct.unpack_from(f">{1 + ndim}I", raw, 0)
    if found != magic:
        raise DataFormatError(
            f"{path}: bad magic 0x{found:08x} at byte 0 (expected 0x{magic:08x})"
        )
    expected = header + math.prod(dims)
    if len(raw) != expected:
        raise DataFormatError(
            f"{path}: truncated payload, expected {expected} bytes, found {len(raw)}"
        )
    return np.frombuffer(raw, dtype=np.uint8, offset=header), dims


def load_idx_images(path) -> np.ndarray:
    pixels, (count, rows, cols) = _read_idx(path, IMAGE_MAGIC, 3)
    _malloc_trim(0)
    images = pixels.reshape(count, 1, rows, cols).astype(np.float32)
    images /= np.float32(255.0)
    return images


def load_idx_labels(path) -> np.ndarray:
    return _read_idx(path, LABEL_MAGIC, 1)[0].astype(np.int64)


def load_mnist(image_path, label_path, split: str = "train") -> ImageDataset:
    images = load_idx_images(image_path)
    labels = load_idx_labels(label_path)
    if len(labels) != len(images):
        raise DataFormatError(
            f"count mismatch: {image_path} holds {len(images)} images but "
            f"{label_path} holds {len(labels)} labels"
        )
    if labels.size and labels.max() > 9:
        at = int(labels.argmax())
        raise DataFormatError(f"{label_path}: label {labels[at]} at index {at} outside 0..9")
    return ImageDataset(images=images, labels=labels, provenance="mnist", split=split)


# ---------------------------------------------------------------------------
# sparse-attribute text format (target domain)
# ---------------------------------------------------------------------------

# bytes other than space and newline that str.split() counts as whitespace
_OTHER_SPACES = b"\t\x0b\x0c\x1c\x1d\x1e\x1f"
_TO_SPACE = bytes.maketrans(_OTHER_SPACES, b" " * len(_OTHER_SPACES))


def _read_text(path) -> bytes:
    """The bytes of a plain or bzip2 text file, with universal newlines; a
    corrupt, truncated or non-UTF-8 file ends in :class:`DataFormatError`."""
    with open(path, "rb") as fh:
        compressed = fh.read(3) == b"BZh"
        fh.seek(0)
        try:
            text = bz2.open(fh).read() if compressed else fh.read()
            if not text.isascii():
                text.decode()
        except (*_CODEC_ERRORS, UnicodeDecodeError) as exc:
            raise DataFormatError(f"{path}: corrupt or truncated text data: {exc}") from exc
    if b"\r" in text:
        text = text.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    _malloc_trim(0)
    return text


def _read_numbers(text: bytes) -> np.ndarray | None:
    """Every number in space-separated ``text``, or None if some token is not
    one number."""
    # older NumPy only warns on text it cannot read and returns the numbers
    # before it, where newer NumPy raises ValueError
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        try:
            return np.fromstring(text, sep=" ")
        except (ValueError, DeprecationWarning):
            return None


def _signed_digits(first: np.ndarray, later: np.ndarray) -> bool:
    """Whether keys with first bytes ``first`` and later bytes ``later``
    (uint8 codes) are each an optional sign, then digits."""
    digits = np.concatenate((first[(first != ord("+")) & (first != ord("-"))], later))
    return bool(np.all((digits >= ord("0")) & (digits <= ord("9"))))


def _read_sparse(text: bytes):
    """(labels, rows, indices, values) of sparse ``label index:value`` text:
    each non-blank line's label, and each pair's line among those, index and
    value; None if the text fails a check.  Each check covers the whole text
    at once and only answers yes or no."""
    # framed by newlines, the token spans alternate start, end
    framed = b"".join((b"\n", text.translate(_TO_SPACE), b"\n"))
    buf = np.frombuffer(framed, dtype=np.uint8)
    space = (buf == ord(" ")) | (buf == ord("\n"))
    starts, ends = (np.flatnonzero(space[1:] != space[:-1]) + 1).reshape(-1, 2).T
    del space
    if not len(starts):  # np.fromstring reads bare whitespace as [-1.]
        return np.zeros(0), np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0)
    # a line's first token is its label and every other token a pair
    first = np.searchsorted(starts, np.flatnonzero(buf == ord("\n")))
    is_pair = np.ones(len(starts), dtype=bool)
    is_pair[first[first < len(starts)]] = False
    pairs, colons = starts[is_pair], np.flatnonzero(buf == ord(":"))
    # pair i holds colon i after its first byte and before its last, so no
    # label holds a colon and no pair two
    if len(colons) != len(pairs) or np.any((colons <= pairs) | (colons >= ends[is_pair] - 1)):
        return None
    rest = colons - pairs - 1  # key bytes after the first
    later = np.repeat(colons - np.cumsum(rest), rest) + np.arange(rest.sum())
    if not _signed_digits(buf[pairs], buf[later]):
        return None
    numbers = _read_numbers(framed.replace(b":", b" "))
    if numbers is None or len(numbers) != len(starts) + len(pairs):
        return None
    of_pair = np.repeat(is_pair, np.where(is_pair, 2, 1))
    labels = numbers[~of_pair]
    index, value = numbers[of_pair].reshape(-1, 2).T
    label_ok = (labels >= 1.0) & (labels < 11.0)  # int(float(label)) in 1..10
    if not (label_ok.all() and np.all((index >= 1.0) & (index <= 256.0) & np.isfinite(value))):
        return None
    labels_at = np.flatnonzero(~is_pair)
    rows = np.repeat(np.arange(len(labels_at)), np.diff(labels_at, append=len(starts)) - 1)
    return labels, rows, index, value


def _fault(path, text: bytes, lines_before: int) -> DataFormatError:
    """The error naming the first bad token of sparse ``text``: the first line
    that fails :func:`_read_sparse` is read again one token at a time."""
    for line, row in enumerate(text.split(b"\n"), lines_before + 1):
        # a 1 MB block read token by token takes seconds; a line, milliseconds
        if _read_sparse(row) is not None:
            continue
        where = f"{path}:{line}"
        for t, token in enumerate(row.translate(_TO_SPACE).split()):
            shown = token.decode("utf-8", "replace")
            if t == 0:
                label = _read_numbers(token)
                if label is None or not np.isfinite(label[0]):
                    return DataFormatError(f"{where}: unparsable label '{shown}'")
                if not 1.0 <= label[0] < 11.0:
                    return DataFormatError(f"{where}: label {int(label[0])} outside 1..10")
                continue
            # one colon, after the key's first byte and before the value's last
            key, _, value = token.partition(b":")
            codes = np.frombuffer(key, dtype=np.uint8)
            well_formed = key and value and b":" not in value and _signed_digits(codes[:1], codes[1:])
            numbers = _read_numbers(key + b" " + value) if well_formed else None
            if numbers is None:
                return DataFormatError(f"{where}: unparsable pair '{shown}'")
            if not 1.0 <= numbers[0] <= 256.0:
                try:
                    index = int(key)
                except ValueError:  # more digits than int() reads
                    index = key.decode()
                return DataFormatError(f"{where}: attribute index {index} outside [1, 256]")
            if not np.isfinite(numbers[1]):
                return DataFormatError(f"{where}: attribute value in pair '{shown}' is not finite")


def _parse_sparse(path, text: bytes, lines_before: int = 0):
    """(digits, attributes) of sparse ``label index:value`` text: one int64 digit and
    one float64 row of 256 attributes per non-blank line after ``lines_before``.
    Text that fails a check of :func:`_read_sparse` ends in the
    :class:`DataFormatError` that :func:`_fault` finds for it."""
    parsed = _read_sparse(text)
    if parsed is None:
        raise _fault(path, text, lines_before)
    labels, rows, index, value = parsed
    cell = rows * 256 + index.astype(np.int64) - 1
    # a repeated index keeps the later value
    last = np.zeros(len(labels) * 256, dtype=np.int64)
    np.maximum.at(last, cell, np.arange(1, len(cell) + 1))
    attrs = np.zeros(len(labels) * 256)
    hit = last > 0
    attrs[hit] = value[last[hit] - 1]
    return labels.astype(np.int64) - 1, attrs.reshape(-1, 256)


# text bytes parsed at a time: parsed whole, a 7,291- and a 2,007-line file
# took a process that loads only them to a 260 MB peak (108 MB in blocks)
_USPS_BLOCK_BYTES = 1 << 20


def load_usps(path, split: str = "train") -> ImageDataset:
    """Parse label + index:value lines into 28x28 images.

    Attribute values live in [-1, 1] and map linearly onto [0, 1]; omitted
    attributes default to 0 (midpoint gray) per the sparse-format convention.
    Labels 1..10 map to digits 0..9; blank lines are skipped.  Blocks of whole
    lines are parsed and resized one at a time, with a whole-file pass's bits.
    """
    text, digits, images = _read_text(path), [], []
    start = lines_before = 0
    while start < len(text):
        stop = text.find(b"\n", start + _USPS_BLOCK_BYTES) + 1 or len(text)
        block_digits, attrs = _parse_sparse(path, text[start:stop], lines_before)
        big = resize_bilinear((attrs.reshape(-1, 16, 16) + 1.0) / 2.0, 28, 28)
        digits.append(block_digits)
        images.append(np.clip(big, 0.0, 1.0, out=big).astype(np.float32))
        lines_before += text.count(b"\n", start, stop)
        start = stop
    if not sum(map(len, digits)):
        raise DataFormatError(f"{path}: no samples found")
    return ImageDataset(
        images=np.concatenate(images)[:, None, :, :],
        labels=np.concatenate(digits),
        provenance="usps",
        split=split,
    )


def resize_bilinear(images: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Corner-aligned bilinear resize of a stack of (n, h, w) images."""
    n, h, w = images.shape

    def axis_coords(size_in, size_out):
        pos = np.arange(size_out) * (size_in - 1) / (size_out - 1)
        lo = np.minimum(np.floor(pos).astype(np.int64), size_in - 2)
        return lo, lo + 1, pos - lo

    y0, y1, fy = axis_coords(h, out_h)
    x0, x1, fx = axis_coords(w, out_w)
    # lo + f * (hi - lo) along each axis; the larger second pass runs in place,
    # which gives the same bits with fewer temporaries
    lo = np.take(images, y0, axis=1)
    rows = lo + fy[None, :, None] * (np.take(images, y1, axis=1) - lo)
    lo, out = np.take(rows, x0, axis=2), np.take(rows, x1, axis=2)
    out -= lo
    out *= fx[None, None, :]
    out += lo
    return out


# ---------------------------------------------------------------------------
# splits and batching
# ---------------------------------------------------------------------------


def split_target(test: ImageDataset, seed: int) -> tuple[ImageDataset, ImageDataset]:
    """(labeled val, labeled test): ``test`` shuffled by the seed and split
    half/half (floor to val, ceil to test)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    perm = rng.permutation(len(test))
    n_val = len(test) // 2
    return test.subset(perm[:n_val], split="val"), test.subset(perm[n_val:], split="test")


class BatchSampler:
    """Deterministic full-size batches from a stream of epoch permutations.

    Consecutive seeded permutations are concatenated and sliced into batches
    of exactly ``batch_size``; an epoch boundary may fall inside a batch, so
    no short batches are ever emitted and every index appears exactly once
    per epoch.
    """

    def __init__(self, count: int, batch_size: int, seed: int):
        if batch_size > count:
            raise ValueError(f"batch size {batch_size} exceeds dataset size {count}")
        if batch_size < 1:
            raise ValueError("batch size must be positive")
        self.count = count
        self.batch_size = batch_size
        self._rng = np.random.Generator(np.random.PCG64(seed))
        self._pending = np.empty(0, dtype=np.int64)

    def next_indices(self) -> np.ndarray:
        while self._pending.shape[0] < self.batch_size:
            self._pending = np.concatenate([self._pending, self._rng.permutation(self.count)])
        batch = self._pending[: self.batch_size]
        self._pending = self._pending[self.batch_size :]
        return batch


@dataclass
class DomainBatch:
    source_images: np.ndarray
    source_labels: np.ndarray
    target_images: np.ndarray | None


def next_batch(
    source_sampler: BatchSampler,
    source: ImageDataset,
    target_sampler: BatchSampler | None = None,
    target: ImageDataset | None = None,
) -> DomainBatch:
    idx = source_sampler.next_indices()
    tgt = None
    if target is not None and target_sampler is not None:
        tgt = target.images[target_sampler.next_indices()]
    return DomainBatch(source.images[idx], source.labels[idx], tgt)


# ---------------------------------------------------------------------------
# synthetic stand-ins
# ---------------------------------------------------------------------------


def make_synthetic(
    count: int,
    seed: int,
    template_seed: int = 0,
    hw: tuple[int, int] = (28, 28),
    domain_shift: float = 0.0,
    split: str = "train",
) -> ImageDataset:
    """Seeded, learnable fake digits: one random blob template per class,
    drawn from ``template_seed``, plus pixel noise; labels and noise come from
    ``seed``.  Sets built with one ``template_seed`` hold the same ten classes.
    ``domain_shift`` warps intensities to fake a second domain."""
    h, w = hw
    templates = np.random.Generator(np.random.PCG64(template_seed)).random((10, h, w)) ** 3
    rng = np.random.Generator(np.random.PCG64(seed))
    labels = rng.integers(0, len(templates), size=count)
    images = templates[labels] + 0.15 * rng.random((count, h, w))
    if domain_shift:
        images = images ** (1.0 + domain_shift)
    images = np.clip(images / images.max(), 0.0, 1.0).astype(np.float32)[:, None]
    return ImageDataset(images, labels.astype(np.int64), "synthetic", split)


def synthetic_domains(split_seed: int) -> tuple[ImageDataset, ...]:
    """(labeled source, unlabeled target pool, labeled target val, labeled
    target test) of the synthetic domain pair: 512, 512, 256 and 256 images,
    each split seeded from ``split_seed``, all four drawing the same class
    templates, and the three target sets shifted by 0.35."""
    *seeds, template_seed = (int(s) for s in np.random.SeedSequence(split_seed).generate_state(5))
    source = make_synthetic(512, seeds[0], template_seed, split="train")
    target, val, test = (
        make_synthetic(size, seed, template_seed, domain_shift=0.35, split=split)
        for size, seed, split in zip((512, 256, 256), seeds[1:], ("train", "val", "test"))
    )
    return source, target.drop_labels(), val, test
