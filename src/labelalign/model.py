"""The image classification network: convolutional feature extractor ``f``
mapping images to a flat feature row per sample, and a dense head ``g``
mapping features to class scores.

Default architecture: conv 3x3x16 (stride 1, pad 1) -> maxpool 2 -> bias ->
ReLU -> conv 3x3x32 (pad 1) -> maxpool 2 -> bias -> ReLU -> flatten -> dense to
128 features, head dense 128 -> 10.  A per-channel bias add and ReLU are
monotone, also after float rounding, so they commute with max: the values
are those of conv -> bias -> ReLU -> maxpool per stage, with the add and the
ReLU on 4x fewer elements.  Sized so that a 128-sample batch yields a
128x128 feature matrix for the per-batch SVD.

The conv stages run on CHWN activations (channels, height, width, batch),
batch innermost.  The flatten reads them in NCHW order, one ``c*h*w`` row
per sample, so the rows of ``feat_w``, the parameters and checkpoints do
not depend on the stage layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


class ModelError(Exception):
    pass


@dataclass(frozen=True)
class ModelSpec:
    image_hw: tuple[int, int] = (28, 28)
    in_channels: int = 1
    conv_channels: tuple[int, ...] = (16, 32)
    kernel_size: int = 3
    feature_dim: int = 128
    classes: int = 10

    def __post_init__(self):
        if self.feature_dim < 1 or self.classes < 2:
            raise ModelError("feature_dim must be >= 1 and classes >= 2")
        h, w = self.image_hw
        for _ in self.conv_channels:
            h, w = h // 2, w // 2
            if h < 1 or w < 1:
                raise ModelError(f"image {self.image_hw} too small for {len(self.conv_channels)} pooling stages")

    @property
    def flat_dim(self) -> int:
        h, w = self.image_hw
        for _ in self.conv_channels:
            h, w = h // 2, w // 2
        channels = self.conv_channels[-1] if self.conv_channels else self.in_channels
        return channels * h * w

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        shapes: dict[str, tuple[int, ...]] = {}
        c = self.in_channels
        k = self.kernel_size
        for i, o in enumerate(self.conv_channels):
            shapes[f"conv{i}_w"] = (o, c, k, k)
            shapes[f"conv{i}_b"] = (o,)
            c = o
        shapes["feat_w"] = (self.flat_dim, self.feature_dim)
        shapes["feat_b"] = (self.feature_dim,)
        shapes["head_w"] = (self.feature_dim, self.classes)
        shapes["head_b"] = (self.classes,)
        shapes["k_hat"] = ()
        return shapes


DEFAULT_SPEC = ModelSpec()


def _init_std(shape) -> float:
    fan_in = shape[1] * shape[2] * shape[3] if len(shape) == 4 else shape[0]
    return float(np.sqrt(2.0 / fan_in))


def build_model(spec: ModelSpec, seed: int, dtype=np.float32) -> dict[str, Tensor]:
    """Seeded initialization; identical seeds give bitwise-identical weights.

    Weight matrices/kernels draw from a zero-mean normal scaled by the He fan-in
    rule, biases start at zero, and the gate parameter ``k_hat`` draws from a
    standard normal.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    params = {}
    for name, shape in spec.param_shapes().items():
        if name == "k_hat":
            value = rng.standard_normal()
        elif name.endswith("_b"):
            value = np.zeros(shape)
        else:
            value = rng.standard_normal(shape) * _init_std(shape)
        params[name] = Tensor(np.asarray(value, dtype=dtype), requires_grad=True)
    return params


def forward_features(params: dict[str, Tensor], spec: ModelSpec, x: Tensor) -> Tensor:
    """f: image batch (b, c, h, w) -> feature matrix (b, feature_dim); the
    stages run CHWN, the flatten reads NCHW order (the rows of ``feat_w``).

    Once a stage's ReLU has run, the stage releases (:func:`autodiff.release`)
    its conv, pool and bias-add outputs: no backward closure reads them, and
    a 128-sample batch would otherwise keep 14.4 MB of them on the tape.  It
    also releases its input, the previous stage's ReLU output, once its conv
    has read it: the conv keeps its padded input, the ReLU a one-byte mask.  The
    nodes stay, so gradients are unchanged; without a tape (as in
    ``evaluate``) the calls do nothing."""
    pad = spec.kernel_size // 2
    out = ad.transpose(x, (1, 2, 3, 0))
    for i in range(len(spec.conv_channels)):
        conv = ad.conv2d(out, params[f"conv{i}_w"], stride=1, padding=pad)
        ad.release(out)
        pooled = ad.maxpool2x2(conv)
        biased = ad.add(pooled, params[f"conv{i}_b"].reshape(-1, 1, 1, 1))
        out = ad.relu(biased)
        for stage_value in (conv, pooled, biased):
            ad.release(stage_value)
        # without a tape the names are all that hold these arrays; kept into
        # the next stage, they made evaluate about 10% slower per batch
        del conv, pooled, biased
    # (c*h*w, b) rows are in NCHW flatten order; BLAS reads the transposed view as is
    flat = ad.transpose(out.reshape(-1, out.shape[-1]), (1, 0))
    return ad.add(ad.matmul(flat, params["feat_w"]), params["feat_b"])


def forward_head(params: dict[str, Tensor], phi: Tensor) -> Tensor:
    """g: feature matrix (b, feature_dim) -> class scores (b, classes)."""
    return ad.add(ad.matmul(phi, params["head_w"]), params["head_b"])


def forward_scores(params: dict[str, Tensor], spec: ModelSpec, x: Tensor) -> Tensor:
    return forward_head(params, forward_features(params, spec, x))
