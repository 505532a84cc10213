"""Output correctness checks.

Every check returns None when the output is right and a one-line reason when
it is not; the workloads count a failed check as a failed operation.  The
oracles here are written independently of the program: a float64 numpy
forward pass and a bilinear resize done as two small matrix products.
"""

from __future__ import annotations

import math

import numpy as np

import datagen

# |float32 scores - float64 reference| allowed, relative to the score scale
SCORE_RTOL = 1e-4
# learning check: mean loss over this many final steps must beat step 1
LOSS_END_STEPS = 5


class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, attempted: int, failed: int = 0, reason: str | None = None):
        self.attempted += attempted
        self.failed += failed
        if reason is not None and len(self.reasons) < 10:
            self.reasons.append(reason)

    def check(self, reason: str | None):
        """Count one checked operation; it fails when ``reason`` is set."""
        self.add(1, int(reason is not None), reason)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def step_failures(losses, ks) -> list[str | None]:
    """Per step: None, or why the step's output is wrong (non-finite total
    loss, or a gate position outside (0, 1))."""
    out = []
    for step, (loss, k) in enumerate(zip(losses, ks), start=1):
        if not math.isfinite(loss):
            out.append(f"step {step}: non-finite loss {loss}")
        elif not 0.0 < k < 1.0:
            out.append(f"step {step}: gate position k={k} outside (0, 1)")
        else:
            out.append(None)
    return out


def loss_end(losses) -> float:
    return float(np.mean(losses[-LOSS_END_STEPS:]))


def learning_failure(losses) -> str | None:
    """None when the mean loss over the final steps is below the step-1 loss."""
    end = loss_end(losses)
    if not end < losses[0]:
        return f"loss did not fall: final {LOSS_END_STEPS}-step mean {end:.6g} vs step 1 {losses[0]:.6g}"
    return None


def episode_failures(losses, ks, planned: int, reference=None) -> tuple[int, str | None]:
    """(failed steps, first reason) for one training run of ``planned`` steps.

    Steps never reached after an abort count as failed.  A run that does not
    learn, or whose losses differ from ``reference`` (an earlier run of the
    same configuration, which must repeat bit for bit), fails as a whole.
    """
    per_step = step_failures(losses, ks)
    reasons = [r for r in per_step if r is not None]
    failed = len(reasons) + (planned - len(losses))
    if len(losses) < planned:
        reasons.append(f"aborted after {len(losses)} of {planned} steps")
    elif not reasons:
        whole = learning_failure(losses)
        if whole is None and reference is not None and list(losses) != list(reference):
            whole = "losses differ from an earlier run of the same seed"
        if whole is not None:
            failed, reasons = planned, [whole]
    return failed, (reasons[0] if reasons else None)


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------


def reference_scores(params: dict, spec, images: np.ndarray) -> np.ndarray:
    """Class scores in float64: 'same' conv, relu, 2x2 max pool per stage,
    then the two dense layers.  ``params`` maps names to arrays."""
    x = np.asarray(images, dtype=np.float64)
    pad = spec.kernel_size // 2
    for i in range(len(spec.conv_channels)):
        w = np.asarray(params[f"conv{i}_w"], dtype=np.float64)
        b = np.asarray(params[f"conv{i}_b"], dtype=np.float64)
        n, _, h, wd = x.shape
        o, _, kh, kw = w.shape
        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        acc = np.zeros((n, h, wd, o))
        for di in range(kh):
            for dj in range(kw):
                acc += np.tensordot(xp[:, :, di : di + h, dj : dj + wd], w[:, :, di, dj], axes=([1], [1]))
        act = np.maximum(acc.transpose(0, 3, 1, 2) + b[None, :, None, None], 0.0)
        h2, w2 = h // 2, wd // 2
        x = act[:, :, : 2 * h2, : 2 * w2].reshape(n, o, h2, 2, w2, 2).max(axis=(3, 5))
    flat = x.reshape(x.shape[0], -1)
    feat = flat @ np.asarray(params["feat_w"], np.float64) + np.asarray(params["feat_b"], np.float64)
    return feat @ np.asarray(params["head_w"], np.float64) + np.asarray(params["head_b"], np.float64)


def forward_failure(scores: np.ndarray, reference: np.ndarray, labels: np.ndarray, accuracy: float) -> str | None:
    """None when float32 ``scores`` match the float64 ``reference`` and the
    evaluated ``accuracy`` equals the reference argmax accuracy.

    Rows whose two best reference scores are closer than the tolerance may
    go either way, so they widen the accepted accuracy range.
    """
    tol = SCORE_RTOL * max(1.0, float(np.abs(reference).max()))
    err = float(np.abs(np.asarray(scores, np.float64) - reference).max())
    if not err <= tol:
        return f"scores differ from the float64 reference by {err:.3g} (tolerance {tol:.3g})"
    top2 = np.sort(reference, axis=1)[:, -2:]
    ambiguous = (top2[:, 1] - top2[:, 0]) <= 2 * tol
    hits = reference.argmax(axis=1) == labels
    lo = int((hits & ~ambiguous).sum())
    hi = lo + int(ambiguous.sum())
    got = accuracy * len(labels)
    if not lo - 1e-9 <= got <= hi + 1e-9:
        return f"evaluate accuracy {accuracy:.6g} outside the reference range [{lo}, {hi}]/{len(labels)}"
    return None


# ---------------------------------------------------------------------------
# file round trips
# ---------------------------------------------------------------------------


def idx_failure(dataset, split: datagen.Split) -> str | None:
    """Loaded IDX images must equal the generated bytes / 255 exactly."""
    count, rows, cols = split.pixels.shape
    if dataset.images.shape != (count, 1, rows, cols):
        return f"IDX images have shape {dataset.images.shape} ({dataset.split})"
    for lo in range(0, count, 4096):  # in slices, to keep the check out of the peak RSS
        expected = split.pixels[lo : lo + 4096].astype(np.float32)[:, None] / np.float32(255.0)
        if not np.array_equal(dataset.images[lo : lo + 4096], expected):
            return f"IDX images differ from the generated pixels ({dataset.split})"
    if not np.array_equal(dataset.labels, split.labels):
        return f"IDX labels differ from the generated labels ({dataset.split})"
    return None


def _resize_matrix(size_in: int, size_out: int) -> np.ndarray:
    """Corner-aligned linear interpolation as a (size_out, size_in) matrix."""
    pos = np.arange(size_out) * (size_in - 1) / (size_out - 1)
    lo = np.minimum(np.floor(pos).astype(np.int64), size_in - 2)
    frac = pos - lo
    m = np.zeros((size_out, size_in))
    m[np.arange(size_out), lo] = 1.0 - frac
    m[np.arange(size_out), lo + 1] += frac
    return m


def usps_expected(split: datagen.Split, hw: int) -> np.ndarray:
    """(count, 1, hw, hw) images the loader should produce for ``split``."""
    grid = (datagen.usps_values(split.pixels) + 1.0) / 2.0
    r = _resize_matrix(grid.shape[1], hw)
    return np.clip(np.einsum("ij,njk,lk->nil", r, grid, r), 0.0, 1.0)[:, None]


def usps_failure(images: np.ndarray, split: datagen.Split, hw: int) -> str | None:
    """Loaded USPS images must match within the printed precision."""
    expected = usps_expected(split, hw)
    if images.shape != expected.shape:
        return f"USPS images have shape {images.shape}, expected {expected.shape}"
    err = float(np.abs(images - expected).max())
    if not err <= 10.0 ** -datagen.USPS_DECIMALS:
        return f"USPS images differ from the generated values by {err:.3g}"
    return None


def split_failure(val, test, split: datagen.Split) -> str | None:
    """The held-out USPS lines are split floor/ceil into val and test."""
    n = len(split.labels)
    if (len(val), len(test)) != (n // 2, n - n // 2):
        return f"split sizes {len(val)}/{len(test)} for {n} test lines"
    if not np.array_equal(np.sort(np.concatenate([val.labels, test.labels])), np.sort(split.labels)):
        return "val and test labels are not the generated test labels"
    return None
