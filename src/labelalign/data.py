"""Dataset ingestion, normalization, splitting and deterministic batching.

Source images arrive as big-endian IDX files (magic 0x803 for images, 0x801
for labels, unsigned bytes scaled to [0, 1]).  Target images arrive in the
sparse attribute text format (one sample per line: label then ``index:value``
pairs, 256 attributes for 16x16 pixels in [-1, 1], labels 1..10); they are
range-mapped to [0, 1], relabeled to digits 0..9 and upsampled to 28x28 with
corner-aligned bilinear interpolation.  A synthetic generator provides
seeded, learnable stand-in datasets for tests and smoke runs.
"""

from __future__ import annotations

import bz2
import gzip
import struct
from dataclasses import dataclass, replace

import numpy as np

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


class DataFormatError(Exception):
    pass


@dataclass
class ImageDataset:
    """Images (count x 1 x h x w, floats in [0, 1]) with optional labels.

    ``standardized`` marks datasets rescaled to zero mean / unit variance;
    only then may pixels leave [0, 1].
    """

    images: np.ndarray
    labels: np.ndarray | None
    provenance: str  # mnist | usps | synthetic
    split: str  # train | val | test
    standardized: bool = False

    def __post_init__(self):
        if self.images.ndim != 4:
            raise DataFormatError(f"images must be NCHW, got shape {self.images.shape}")
        if (
            not self.standardized
            and self.images.size
            and (self.images.min() < 0.0 or self.images.max() > 1.0)
        ):
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


def _read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        head = fh.read(2)
        fh.seek(0)
        if head == b"\x1f\x8b":
            with gzip.open(fh) as gz:
                return gz.read()
        return fh.read()


def load_idx_images(path) -> np.ndarray:
    raw = _read_bytes(path)
    if len(raw) < 16:
        raise DataFormatError(f"{path}: truncated header, only {len(raw)} bytes")
    magic, count, rows, cols = struct.unpack_from(">IIII", raw, 0)
    if magic != IMAGE_MAGIC:
        raise DataFormatError(
            f"{path}: bad magic 0x{magic:08x} at byte 0 (expected 0x{IMAGE_MAGIC:08x})"
        )
    expected = 16 + count * rows * cols
    if len(raw) != expected:
        raise DataFormatError(
            f"{path}: truncated payload, expected {expected} bytes, found {len(raw)}"
        )
    pixels = np.frombuffer(raw, dtype=np.uint8, offset=16)
    images = pixels.reshape(count, 1, rows, cols).astype(np.float32) / np.float32(255.0)
    return images


def load_idx_labels(path) -> np.ndarray:
    raw = _read_bytes(path)
    if len(raw) < 8:
        raise DataFormatError(f"{path}: truncated header, only {len(raw)} bytes")
    magic, count = struct.unpack_from(">II", raw, 0)
    if magic != LABEL_MAGIC:
        raise DataFormatError(
            f"{path}: bad magic 0x{magic:08x} at byte 0 (expected 0x{LABEL_MAGIC:08x})"
        )
    expected = 8 + count
    if len(raw) != expected:
        raise DataFormatError(
            f"{path}: truncated payload, expected {expected} bytes, found {len(raw)}"
        )
    return np.frombuffer(raw, dtype=np.uint8, offset=8).astype(np.int64)


def load_mnist(image_path, label_path, split: str = "train") -> ImageDataset:
    images = load_idx_images(image_path)
    labels = load_idx_labels(label_path)
    if len(labels) != len(images):
        raise DataFormatError(
            f"count mismatch: {image_path} holds {len(images)} images but "
            f"{label_path} holds {len(labels)} labels"
        )
    return ImageDataset(images=images, labels=labels, provenance="mnist", split=split)


# ---------------------------------------------------------------------------
# sparse-attribute text format (target domain)
# ---------------------------------------------------------------------------


def _open_text(path):
    with open(path, "rb") as fh:
        head = fh.read(3)
    if head == b"BZh":
        return bz2.open(path, "rt")
    return open(path, "r")


def load_usps(path, split: str = "train") -> ImageDataset:
    """Parse label + index:value lines into 28x28 images.

    Attribute values live in [-1, 1] and map linearly onto [0, 1]; omitted
    attributes default to 0 (midpoint gray) per the sparse-format convention.
    Labels 1..10 map to digits 0..9.
    """
    attrs = []
    labels = []
    with _open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            tokens = line.split()
            try:
                label = int(float(tokens[0]))
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: unparsable label '{tokens[0]}'") from exc
            digit = label - 1
            if not 0 <= digit <= 9:
                raise DataFormatError(f"{path}:{lineno}: label {label} outside 1..10")
            row = np.zeros(256, dtype=np.float64)
            for tok in tokens[1:]:
                try:
                    key, val = tok.split(":", 1)
                    index = int(key)
                    value = float(val)
                except ValueError as exc:
                    raise DataFormatError(f"{path}:{lineno}: unparsable pair '{tok}'") from exc
                if not 1 <= index <= 256:
                    raise DataFormatError(
                        f"{path}:{lineno}: attribute index {index} outside [1, 256]"
                    )
                row[index - 1] = value
            attrs.append(row)
            labels.append(digit)
    if not attrs:
        raise DataFormatError(f"{path}: no samples found")
    grid = (np.asarray(attrs).reshape(-1, 16, 16) + 1.0) / 2.0
    big = resize_bilinear(grid, 28, 28)
    images = np.clip(big, 0.0, 1.0).astype(np.float32)[:, None, :, :]
    return ImageDataset(
        images=images,
        labels=np.asarray(labels, dtype=np.int64),
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
        lo = np.floor(pos).astype(np.int64)
        lo = np.minimum(lo, size_in - 2)
        return lo, lo + 1, pos - lo

    y0, y1, fy = axis_coords(h, out_h)
    x0, x1, fx = axis_coords(w, out_w)
    rows = images[:, y0, :] + fy[None, :, None] * (images[:, y1, :] - images[:, y0, :])
    out = rows[:, :, x0] + fx[None, None, :] * (rows[:, :, x1] - rows[:, :, x0])
    return out


# ---------------------------------------------------------------------------
# splits and batching
# ---------------------------------------------------------------------------


def split_target(train: ImageDataset, test: ImageDataset, seed: int):
    """(unlabeled adaptation pool, labeled val, labeled test).

    The train set loses its labels; the test set is shuffled by the seed and
    split half/half (floor to val, ceil to test).
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    perm = rng.permutation(len(test))
    n_val = len(test) // 2
    adapt = replace(train.drop_labels(), split="train")
    val = test.subset(perm[:n_val], split="val")
    held = test.subset(perm[n_val:], split="test")
    return adapt, val, held


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
            self._pending = np.concatenate(
                [self._pending, self._rng.permutation(self.count)]
            )
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
    return DomainBatch(
        source_images=source.images[idx],
        source_labels=source.labels[idx],
        target_images=tgt,
    )


# ---------------------------------------------------------------------------
# synthetic stand-ins
# ---------------------------------------------------------------------------


def make_synthetic(
    count: int,
    seed: int,
    classes: int = 10,
    hw: tuple[int, int] = (28, 28),
    domain_shift: float = 0.0,
    noise: float = 0.15,
    split: str = "train",
) -> ImageDataset:
    """Seeded, learnable fake digits: one random blob template per class plus
    pixel noise; ``domain_shift`` warps intensities to fake a second domain."""
    h, w = hw
    rng = np.random.Generator(np.random.PCG64(seed))
    template_rng = np.random.Generator(np.random.PCG64(seed ^ 0x5EED))
    templates = template_rng.random((classes, h, w)) ** 3
    labels = rng.integers(0, classes, size=count)
    images = templates[labels] + noise * rng.random((count, h, w))
    if domain_shift:
        images = images ** (1.0 + domain_shift)
    images = np.clip(images / images.max(), 0.0, 1.0).astype(np.float32)[:, None]
    return ImageDataset(
        images=images, labels=labels.astype(np.int64), provenance="synthetic", split=split
    )


def standardize(ds: ImageDataset) -> ImageDataset:
    """Rescale to zero mean and unit variance using the dataset's own stats."""
    mean = float(ds.images.mean())
    std = float(ds.images.std())
    if std == 0.0:
        std = 1.0
    images = ((ds.images - mean) / std).astype(np.float32)
    return replace(ds, images=images, standardized=True)

