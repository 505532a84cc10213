"""Dataset ingestion, normalization, splitting and deterministic batching.

Source images arrive as big-endian IDX files (magic 0x803 for images, 0x801
for labels, unsigned bytes scaled to [0, 1]).  Target images arrive in the
sparse attribute text format (one sample per line: label then ``index:value``
pairs, 256 attributes for 16x16 pixels in [-1, 1], labels 1..10); they are
range-mapped to [0, 1], relabeled to digits 0..9 and upsampled to 28x28 with
corner-aligned bilinear interpolation.  The text is parsed in blocks of whole
lines: numpy finds a block's token spans and colons and checks their shape,
and one ``np.fromstring`` reads every number of the block.  A synthetic
generator provides seeded, learnable stand-in datasets for tests and smoke runs.
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
_DIGIT = np.zeros(256, dtype=bool)
_DIGIT[ord("0") : ord("9") + 1] = True
_SIGN = np.zeros(256, dtype=bool)
_SIGN[[ord("+"), ord("-")]] = True


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


def _read_numbers(text: bytes) -> np.ndarray:
    """Every number in space-separated ``text``; ValueError if some token is
    not one number."""
    # older NumPy only warns on text it cannot read and returns the numbers
    # before it, where newer NumPy raises ValueError
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        try:
            return np.fromstring(text, sep=" ")
        except DeprecationWarning as exc:
            raise ValueError(str(exc)) from exc


def _first_true(mask: np.ndarray) -> int:
    """Index of the first True in ``mask``, or its length if there is none."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else mask.size


class _Tokens:
    """Whitespace-separated tokens of a sparse text: byte spans and lines.

    The text is framed by newlines, so spans alternate start, end; each line's
    first token is its label and every other token an ``index:value`` pair.
    """

    def __init__(self, text: bytes):
        self.text = b"".join((b"\n", text.translate(_TO_SPACE), b"\n"))
        self.buf = np.frombuffer(self.text, dtype=np.uint8)
        space = (self.buf == ord(" ")) | (self.buf == ord("\n"))
        edges = np.flatnonzero(space[1:] != space[:-1]) + 1
        del space
        self.starts, self.ends = edges[0::2], edges[1::2]
        # the first token after a newline is a line's label
        first = np.searchsorted(self.starts, np.flatnonzero(self.buf == ord("\n")))
        self.is_label = np.zeros(len(self.starts), dtype=bool)
        self.is_label[first[first < len(self.starts)]] = True

    def __len__(self) -> int:
        return len(self.starts)

    def line(self, t: int) -> int:
        """The 1-based line number of token ``t``."""
        return self.text.count(b"\n", 0, self.starts[t])

    def span(self, first: int, stop: int) -> bytes:
        """Tokens ``first`` to ``stop - 1`` with the pair colons as spaces."""
        if stop <= first:
            return b""
        return self.text[self.starts[first] : self.ends[stop - 1]].replace(b":", b" ")

    def token(self, t: int) -> str:
        return self.text[self.starts[t] : self.ends[t]].decode("utf-8", "replace")

    def first_malformed(self) -> int:
        """The first label holding a colon, or pair not shaped ``key:value``
        with one colon, a signed-digits key and a value; ``len(self)`` if none."""
        pairs = np.flatnonzero(~self.is_label)
        colons = np.flatnonzero(self.buf == ord(":"))
        # while the text is well formed, pair i holds colon i after its first
        # byte and before its last, so no label holds a colon and no pair two;
        # the first fault is pair i or the token holding colon i
        n = min(len(pairs), len(colons))
        starts, at = self.starts[pairs[:n]], colons[:n]
        i = _first_true((at <= starts) | (at >= self.ends[pairs[:n]] - 1))
        bad = min(
            int(pairs[i]) if i < len(pairs) else len(self),
            int(np.searchsorted(self.starts, colons[i], "right")) - 1 if i < len(colons) else len(self),
        )
        # a key is an optional sign, then digits (a lone sign is no number):
        # check its first byte, then gather every later one
        starts, rest = starts[:i], at[:i] - starts[:i] - 1  # key bytes after the first
        del colons, at
        ok = _DIGIT[self.buf[starts]] | _SIGN[self.buf[starts]]
        later = np.repeat(starts + 1 - np.cumsum(rest) + rest, rest)
        later += np.arange(len(later))
        ok[np.searchsorted(starts, later[~_DIGIT[self.buf[later]]], "right") - 1] = False
        j = _first_true(~ok)
        return min(bad, int(pairs[j])) if j < i else bad

    def numbers(self, stop: int):
        """(numbers, count) of the first ``count`` tokens, where ``count`` is
        ``stop`` unless a label, index or value among them is not one number
        (sep=" " needs a space between numbers); the span that fails is
        halved until one token is left."""
        try:
            return _read_numbers(self.span(0, stop)), stop
        except ValueError:
            first = 0
        while stop - first > 1:
            mid = (first + stop) // 2
            try:
                _read_numbers(self.span(first, mid))
                first = mid
            except ValueError:
                stop = mid
        return _read_numbers(self.span(0, first)), first


def _parse_sparse(path, text: bytes, lines_before: int = 0):
    """(digits, attributes) of sparse ``label index:value`` text: one int64 digit and
    one float64 row of 256 attributes per non-blank line after ``lines_before``."""
    tokens = _Tokens(text)
    del text
    if not len(tokens):
        return np.zeros(0, dtype=np.int64), np.zeros((0, 256))
    # every well-formed token before the first fault holds one number if it
    # is a label and two if it is a pair
    numbers, stop = tokens.numbers(tokens.first_malformed())
    is_label = tokens.is_label[:stop]
    of_label = np.repeat(is_label, np.where(is_label, 1, 2))
    labels = numbers[of_label]
    index, value = numbers[~of_label].reshape(-1, 2).T
    del numbers, of_label
    label_ok = (labels >= 1.0) & (labels < 11.0)  # int(float(label)) in 1..10
    pair_ok = (index >= 1.0) & (index <= 256.0) & np.isfinite(value)
    label_tokens = np.flatnonzero(is_label)
    pair_tokens = np.flatnonzero(~is_label)
    i, j = _first_true(~label_ok), _first_true(~pair_ok)
    bad = min(
        int(label_tokens[i]) if i < len(labels) else stop,
        int(pair_tokens[j]) if j < len(index) else stop,
    )
    if bad < len(tokens):
        where, token = f"{path}:{lines_before + tokens.line(bad)}", tokens.token(bad)
        if tokens.is_label[bad]:
            if bad == stop or not np.isfinite(labels[i]):
                raise DataFormatError(f"{where}: unparsable label '{token}'")
            raise DataFormatError(f"{where}: label {int(labels[i])} outside 1..10")
        if bad == stop:
            raise DataFormatError(f"{where}: unparsable pair '{token}'")
        if not 1.0 <= index[j] <= 256.0:
            key = token.split(":", 1)[0]
            try:
                key = int(key)
            except ValueError:  # more digits than int() reads
                pass
            raise DataFormatError(f"{where}: attribute index {key} outside [1, 256]")
        raise DataFormatError(f"{where}: attribute value in pair '{token}' is not finite")
    rows = np.cumsum(is_label)[pair_tokens] - 1
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
        if size_out == 1 or size_in == 1:
            return np.zeros(size_out, dtype=np.int64), np.zeros(size_out, dtype=np.int64), np.zeros(size_out)
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
