"""Seeded stand-ins for the MNIST and USPS files, written in the real formats.

MNIST is four gzip-compressed IDX files (60,000 training and 10,000 test
images of 28x28, unsigned bytes); USPS is two bzip2-compressed sparse-text
files (7,291 training and 2,007 test lines, one label in 1..10 followed by
256 ``index:value`` pairs in [-1, 1]).  The pixel arrays are a pure function
of the seed, so the round-trip check can rebuild them in memory instead of
trusting the files on disk.

Images are digit-like rather than uniform noise: a few smooth class templates,
shifted and scaled per sample, on a zero background for MNIST (as in the real
files, which compress about 5:1) and on a -1 background for USPS.
"""

from __future__ import annotations

import bz2
import gzip
import os
import shutil
import struct
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MNIST_TRAIN, MNIST_TEST = 60_000, 10_000
USPS_TRAIN, USPS_TEST = 7_291, 2_007
MNIST_HW, USPS_HW = 28, 16
CLASSES = 10
# printed digits after the decimal point for USPS attribute values
USPS_DECIMALS = 6

# Relative paths under the data directory; they match the config defaults, so
# the run configuration only has to name the directory.
FILES = {
    "mnist_train_images": "mnist/train-images-idx3-ubyte.gz",
    "mnist_train_labels": "mnist/train-labels-idx1-ubyte.gz",
    "mnist_test_images": "mnist/t10k-images-idx3-ubyte.gz",
    "mnist_test_labels": "mnist/t10k-labels-idx1-ubyte.gz",
    "usps_train": "usps/usps.bz2",
    "usps_test": "usps/usps.t.bz2",
}
# bump when the generated content changes so stale caches are rebuilt
FORMAT_VERSION = 1


@dataclass
class Split:
    pixels: np.ndarray  # (count, hw, hw) uint8
    labels: np.ndarray  # (count,) digits 0..9


@dataclass
class GeneratedData:
    mnist_train: Split
    mnist_test: Split
    usps_train: Split
    usps_test: Split


def _templates(rng: np.random.Generator, hw: int) -> np.ndarray:
    """(classes, hw, hw) smooth blobs in [0, 1]: box-blurred noise, thresholded
    so that about a fifth of the pixels are ink, as in MNIST."""
    field = rng.random((CLASSES, hw + 4, hw + 4))
    blur = sum(field[:, i : i + hw, j : j + hw] for i in range(5) for j in range(5)) / 25.0
    lo = np.quantile(blur, 0.8, axis=(1, 2), keepdims=True)
    hi = blur.max(axis=(1, 2), keepdims=True)
    return np.clip((blur - lo) / (hi - lo), 0.0, 1.0).astype(np.float32)


def _digits(rng: np.random.Generator, count: int, hw: int) -> Split:
    """Templates shifted by up to two pixels, scaled in [0.6, 1], with three
    levels of stroke noise."""
    templates = _templates(rng, hw)
    shifts = [(dy, dx) for dy in range(-2, 3) for dx in range(-2, 3)]
    variants = np.stack(
        [np.roll(templates, s, axis=(1, 2)) for s in shifts], axis=1
    )  # (classes, shifts, hw, hw)
    labels = rng.integers(0, CLASSES, size=count)
    which = rng.integers(0, len(shifts), size=count)
    gain = rng.uniform(0.6, 1.0, size=(count, 1, 1)).astype(np.float32)
    noise = rng.integers(0, 3, size=(count, hw, hw), dtype=np.uint8)
    pixels = np.empty((count, hw, hw), dtype=np.uint8)
    for lo in range(0, count, 8192):
        hi = min(lo + 8192, count)
        values = variants[labels[lo:hi], which[lo:hi]] * gain[lo:hi]
        values *= 1.0 - 0.05 * noise[lo:hi]
        pixels[lo:hi] = np.rint(values * 255.0)
    return Split(pixels=pixels, labels=labels.astype(np.int64))


def generate(seed: int) -> GeneratedData:
    """The pixel and label arrays for ``seed``; no files are touched."""
    streams = np.random.SeedSequence([seed, FORMAT_VERSION]).spawn(4)
    rngs = [np.random.Generator(np.random.PCG64(s)) for s in streams]
    return GeneratedData(
        mnist_train=_digits(rngs[0], MNIST_TRAIN, MNIST_HW),
        mnist_test=_digits(rngs[1], MNIST_TEST, MNIST_HW),
        usps_train=_digits(rngs[2], USPS_TRAIN, USPS_HW),
        usps_test=_digits(rngs[3], USPS_TEST, USPS_HW),
    )


def usps_values(pixels: np.ndarray) -> np.ndarray:
    """Attribute values in [-1, 1] for uint8 pixels (0 -> -1, 255 -> 1)."""
    return pixels.astype(np.float64) / 127.5 - 1.0


def _idx_images(pixels: np.ndarray) -> bytes:
    count, rows, cols = pixels.shape
    return struct.pack(">IIII", 0x803, count, rows, cols) + pixels.tobytes()


def _idx_labels(labels: np.ndarray) -> bytes:
    return struct.pack(">II", 0x801, len(labels)) + labels.astype(np.uint8).tobytes()


def _usps_text(split: Split) -> bytes:
    printed = [f"{v:.{USPS_DECIMALS}f}" for v in usps_values(np.arange(256, dtype=np.uint8))]
    tokens = [[f"{i + 1}:{p}" for p in printed] for i in range(USPS_HW * USPS_HW)]
    lines = []
    for label, row in zip(split.labels.tolist(), split.pixels.reshape(len(split.labels), -1).tolist()):
        lines.append(f"{label + 1} " + " ".join([t[v] for t, v in zip(tokens, row)]))
    return ("\n".join(lines) + "\n").encode("ascii")


def write_files(data: GeneratedData, directory: Path) -> None:
    payloads = {
        "mnist_train_images": lambda: gzip.compress(_idx_images(data.mnist_train.pixels), 1, mtime=0),
        "mnist_train_labels": lambda: gzip.compress(_idx_labels(data.mnist_train.labels), 6, mtime=0),
        "mnist_test_images": lambda: gzip.compress(_idx_images(data.mnist_test.pixels), 1, mtime=0),
        "mnist_test_labels": lambda: gzip.compress(_idx_labels(data.mnist_test.labels), 6, mtime=0),
        "usps_train": lambda: bz2.compress(_usps_text(data.usps_train), 9),
        "usps_test": lambda: bz2.compress(_usps_text(data.usps_test), 9),
    }
    for key, make in payloads.items():
        path = directory / FILES[key]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(make())


def ensure_files(seed: int, cache_root: Path) -> Path:
    """Directory holding the files for ``seed``, written on first use.

    The files are written by a child process, so that the memory spent on
    writing them does not count in the peak RSS of the measured process.
    Only the newest seed is kept: the files of one seed take about 20 MB.
    A directory appears under its final name only once complete, so an
    interrupted run never leaves a half-written cache behind.
    """
    final = cache_root / f"seed-{seed}-v{FORMAT_VERSION}"
    if not final.is_dir():
        subprocess.run([sys.executable, __file__, str(seed), str(cache_root)], check=True)
    return final


def _write_cache(seed: int, cache_root: Path):
    cache_root.mkdir(parents=True, exist_ok=True)
    for stale in cache_root.iterdir():
        shutil.rmtree(stale, ignore_errors=True)
    staging = cache_root / f".staging-{os.getpid()}"
    write_files(generate(seed), staging)
    os.replace(staging, cache_root / f"seed-{seed}-v{FORMAT_VERSION}")


if __name__ == "__main__":
    _write_cache(int(sys.argv[1]), Path(sys.argv[2]))
