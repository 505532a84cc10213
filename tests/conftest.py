import os
from pathlib import Path

import numpy as np
import pytest


def rel_err(a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-300)
    return float(np.abs(a - b).max() / denom)


def numeric_grad(fn, arrays, eps=1e-6):
    """Central finite differences of a scalar-valued ``fn(*arrays)`` w.r.t.
    every entry of every array, at 64-bit."""
    grads = []
    for target in range(len(arrays)):
        base = np.array(arrays[target], dtype=np.float64)
        g = np.zeros_like(base)
        flat = base.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            step = eps * max(1.0, abs(flat[i]))
            orig = flat[i]
            flat[i] = orig + step
            hi = fn(*[base if j == target else arrays[j] for j in range(len(arrays))])
            flat[i] = orig - step
            lo = fn(*[base if j == target else arrays[j] for j in range(len(arrays))])
            flat[i] = orig
            gflat[i] = (hi - lo) / (2 * step)
        grads.append(g)
    return grads


def data_root() -> Path:
    return Path(os.environ.get("LABELALIGN_DATA_DIR", "data"))


def real_data_files() -> dict[str, Path]:
    root = data_root()
    return {
        "mnist_train_images": root / "mnist/train-images-idx3-ubyte.gz",
        "mnist_train_labels": root / "mnist/train-labels-idx1-ubyte.gz",
        "mnist_test_images": root / "mnist/t10k-images-idx3-ubyte.gz",
        "mnist_test_labels": root / "mnist/t10k-labels-idx1-ubyte.gz",
        "usps_train": root / "usps/usps.bz2",
        "usps_test": root / "usps/usps.t.bz2",
    }


def have_real_data() -> bool:
    return all(p.exists() for p in real_data_files().values())


requires_real_data = pytest.mark.skipif(
    not have_real_data(),
    reason="MNIST/USPS files not present under "
    f"{data_root()} (see the \"Data files\" section of README.md)",
)
