"""The adaptation objective and the training loop.

Per step: sample a labeled source batch and an unlabeled target batch, build
a gate ``w`` from the learnable cut ``k = sigmoid(k_hat)``, filter the source
features spectrally with ``w`` and the target features with ``1 - w``, then
minimize

    CE(g(F_w(source))) + lam * ||softmax(g(F_{1-w}(target)))||^2 + gamma * k^2

where ``F_w`` is :func:`spectral.spectral_filter` with weights ``w``, ``CE``
is the softmax cross-entropy and ``k`` is the normalized gate position.  The
source keeps its leading spectrum, the target its trailing spectrum; the
alignment term, smallest at a uniform softmax, drives ``g`` to no class
preference there, suppressing directions carrying no label variation.

The two domains share only the weights and the gate, so :func:`dla_loss`
builds one domain's terms on their own tape, and a step walks the source's
cross-entropy before it builds the target's ``lam * align + gamma * k^2``
(:func:`walk_domains`): a step never holds both feature passes, and the
parameter gradients add up across the two walks.

Imani et al.'s linear method (arXiv 2211.14960), which this generalises,
penalises a regressor's bias-free ``||bottom(phi_t) @ w||^2``.  Here the head
is a classifier with a bias and a softmax, and a penalty on class
probabilities stays at most 1 per row whatever the scale of the features or
the head, so ``lam`` alone sets its weight against the cross-entropy; the
price is a weak gradient near a uniform softmax.  :mod:`.linearlab` runs
``spectral_filter`` with a hard 0/1 gate and its complement, so its identity
suite verifies the filter and the split, not this objective (softmax, bias,
soft gate).

Modes:

* ``dla``        the full objective above.
* ``no_adapt``   source-only baseline: no spectral filter runs, the gate
  parameter is not trained, and the alignment and rank terms are zero.

Evaluation always bypasses the filter: a per-batch SVD is ill-defined for
single-example inference, so accuracy is measured on raw features.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import spectral
from .autodiff import Tensor
from .data import BatchSampler, DomainBatch, ImageDataset, next_batch
from .model import DEFAULT_SPEC, ModelSpec, build_model, forward_features, forward_head
from .optim import Adam
from .spectral import GRADIENT_MODES, spectral_filter

MODES = ("dla", "no_adapt")
DTYPES = {"float32": np.float32, "float64": np.float64}


class ConfigError(Exception):
    pass


class TrainingAborted(Exception):
    """A run stopped at a step by a failure it cannot continue past."""


@dataclass(frozen=True)
class TrainConfig:
    lam: float = 1e-3
    gamma: float = 1e-3
    beta: float = 5.0
    alpha: float = 1e-3
    batch_size: int = 128
    steps: int = 2100
    seed: int = 0
    mode: str = "dla"
    gradient_mode: str = "projected"
    dtype: str = "float32"
    val_every: int = 50
    timing: bool = True

    def validate(self):
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {self.steps}")
        if not 0 <= self.lam < math.inf:
            raise ConfigError(f"lam must be finite and >= 0, got {self.lam}")
        if not 0 <= self.gamma < math.inf:
            raise ConfigError(f"gamma must be finite and >= 0, got {self.gamma}")
        if not 0 < self.beta < math.inf:
            raise ConfigError(f"beta must be finite and > 0, got {self.beta}")
        if not 0 < self.alpha < math.inf:
            raise ConfigError(f"alpha must be finite and > 0, got {self.alpha}")
        if self.val_every < 0:
            raise ConfigError(f"val_every must be >= 0, got {self.val_every}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for name, value, allowed in (
            ("mode", self.mode, MODES),
            ("gradient_mode", self.gradient_mode, GRADIENT_MODES),
        ):
            if value not in allowed:
                raise ConfigError(f"{name} must be one of {allowed}, got '{value}'")
        if self.dtype not in DTYPES:
            raise ConfigError(f"dtype must be one of {tuple(DTYPES)}, got '{self.dtype}'")
        # the weights and the gate sharpness are cast to the run's dtype, where a larger value is inf
        largest = float(np.finfo(self.np_dtype).max)
        for name, value in (("lam", self.lam), ("gamma", self.gamma), ("beta", self.beta)):
            if value > largest:
                raise ConfigError(f"{name} must be at most {largest:.6g} in {self.dtype}, got {value}")
        return self

    @property
    def np_dtype(self):
        return DTYPES[self.dtype]


@dataclass
class DlaLossParts:
    """Raw (unweighted) loss terms; total applies the lam/gamma weights."""

    cls: float
    align: float
    k_reg: float
    total: float
    k: float


@dataclass
class MetricsRecord:
    step: int
    parts: DlaLossParts
    src_acc: float
    val_acc: float | None = None
    wall_ms: float | None = None


@dataclass
class TrainData:
    source: ImageDataset
    target: ImageDataset | None = None
    val: ImageDataset | None = None
    test: ImageDataset | None = None


@dataclass
class TrainResult:
    params: dict[str, Tensor]
    records: list[MetricsRecord] = field(default_factory=list)


def dla_loss(
    params: dict[str, Tensor],
    spec: ModelSpec,
    images: np.ndarray,
    labels: np.ndarray | None,
    cfg: TrainConfig,
) -> tuple[Tensor, DlaLossParts, np.ndarray | None]:
    """One domain's terms of the objective, on their own tape; returns their
    weighted sum as a tensor, the raw loss parts (the other domain's reading
    0), and the detached source probabilities (for batch accuracy).

    With ``labels``, the batch is the source's and the tensor is ``cls``,
    through the gate ``w`` in ``dla`` mode.  Without, it is the target's and
    the tensor is ``lam * align + gamma * k^2``, through ``1 - w``, with None
    for the probabilities; ``no_adapt`` mode has no target term.
    """
    domain = "target" if labels is None else "source"
    adapt = cfg.mode == "dla"
    if domain == "target" and not adapt:
        raise ConfigError("no_adapt mode has no target term")
    if len(images) == 0:
        raise ConfigError(f"{domain} batch is empty")

    dtype = cfg.np_dtype
    k = ad.sigmoid(params["k_hat"])
    phi = forward_features(params, spec, Tensor(np.asarray(images, dtype=dtype)))
    if adapt:
        w = spectral.gate_weights(k, cfg.beta, min(phi.shape))
        if domain == "target":
            w = ad.sub(np.ones((), dtype), w)
        phi = spectral_filter(phi, w, cfg.gradient_mode)
    scores = forward_head(params, phi)
    if domain == "source":
        total_t, probs = ad.softmax_cross_entropy(scores, labels)
        cls = float(total_t.data)
        return total_t, DlaLossParts(cls, 0.0, 0.0, cls, float(k.data)), probs.data

    align_t = ad.mean_squared_norm(ad.softmax(scores))
    kreg_t = ad.mul(k, k)
    total_t = ad.add(ad.scale(align_t, cfg.lam), ad.scale(kreg_t, cfg.gamma))
    parts = DlaLossParts(0.0, float(align_t.data), float(kreg_t.data), float(total_t.data), float(k.data))
    return total_t, parts, None


def walk_domains(
    params: dict[str, Tensor], spec: ModelSpec, batch: DomainBatch, cfg: TrainConfig, step: int
) -> tuple[DlaLossParts, np.ndarray]:
    """Fill the gradients of one step's objective a domain at a time: build
    the source term with :func:`dla_loss` and walk it, then, with a target
    batch, build the target's terms and walk them.  Returns the loss parts,
    with ``total = (cls + lam * align) + gamma * k^2`` rounded in the run's
    dtype, and the source probabilities.

    Raises :class:`TrainingAborted`, naming ``step`` and the domain, on a
    non-finite term before walking it.
    """

    def walk(domain, images, labels):
        total_t, parts, probs = dla_loss(params, spec, images, labels, cfg)
        if not np.isfinite(parts.total):
            raise TrainingAborted(f"step {step}: the {domain} loss went non-finite: {parts.total}")
        ad.backward(total_t)
        return parts, probs

    source, probs = walk("source", batch.source_images, batch.source_labels)
    if batch.target_images is None:
        return source, probs
    target, _ = walk("target", batch.target_images, None)
    dtype = cfg.np_dtype
    lam_align = dtype(target.align) * dtype(cfg.lam)
    gamma_kreg = dtype(target.k_reg) * dtype(cfg.gamma)
    total = float((dtype(source.cls) + lam_align) + gamma_kreg)
    return DlaLossParts(source.cls, target.align, target.k_reg, total, source.k), probs


def trainable_names(params: dict[str, Tensor], cfg: TrainConfig) -> list[str]:
    """All weights, plus the gate parameter whenever the filter runs."""
    names = [n for n in params if n != "k_hat"]
    if cfg.mode == "dla":
        names.append("k_hat")
    return names


def check_run(cfg: TrainConfig, data: TrainData, spec: ModelSpec = DEFAULT_SPEC):
    """Raise :class:`ConfigError` for a run that cannot start: an invalid
    config, ``dla`` without a target dataset, images of another shape than
    the model takes, a batch larger than a dataset the run draws from, or
    an empty validation set that ``val_every`` would score."""
    cfg.validate()
    expected = (spec.in_channels, *spec.image_hw)
    for name in ("source", "target", "val", "test"):
        dataset = getattr(data, name)
        if dataset is not None and dataset.images.shape[1:] != expected:
            raise ConfigError(
                f"{name} images have shape {dataset.images.shape[1:]}, the model takes {expected}"
            )
    if cfg.mode == "dla" and data.target is None:
        raise ConfigError("dla mode needs an unlabeled target dataset")
    if cfg.val_every and data.val is not None and len(data.val) == 0:
        raise ConfigError("the val dataset is empty, so val_every must be 0")
    target = data.target if cfg.mode == "dla" else None
    for name, dataset in (("source", data.source), ("target", target)):
        if dataset is not None and cfg.batch_size > len(dataset):
            raise ConfigError(
                f"batch_size {cfg.batch_size} exceeds the {name} dataset size {len(dataset)}"
            )


def train(
    cfg: TrainConfig,
    data: TrainData,
    spec: ModelSpec = DEFAULT_SPEC,
    on_step=None,
) -> TrainResult:
    """Run the configured number of steps and record metrics for each; each
    step walks one domain's tape before building the next
    (:func:`walk_domains`).

    Aborts with :class:`TrainingAborted`, naming the step, on a spectral
    failure, a non-finite loss or non-finite weights rather than skipping the
    step; gradient-mode blowups should surface, not hide.
    """
    check_run(cfg, data, spec)
    target = data.target if cfg.mode == "dla" else None
    seeds = np.random.SeedSequence(cfg.seed).generate_state(4)
    params = build_model(spec, int(seeds[0]), dtype=cfg.np_dtype)
    optimizer = Adam(cfg.alpha)
    trainable = {name: params[name] for name in trainable_names(params, cfg)}

    src_sampler = BatchSampler(len(data.source), cfg.batch_size, int(seeds[1]))
    tgt_sampler = None
    if target is not None:
        tgt_sampler = BatchSampler(len(target), cfg.batch_size, int(seeds[2]))

    records: list[MetricsRecord] = []
    # full-mode walks clamp on most steps: report the first step and the
    # run's total on the spectral logger rather than a line per walk
    clamps_at_start = spectral.clamped_terms
    clamping_steps = 0
    for step in range(1, cfg.steps + 1):
        t0 = time.perf_counter() if cfg.timing else 0.0
        batch = next_batch(src_sampler, data.source, tgt_sampler, target)
        clamps_before = spectral.clamped_terms
        try:
            parts, probs = walk_domains(params, spec, batch, cfg, step)
        except spectral.SpectralError as exc:
            raise TrainingAborted(f"step {step}: {exc}") from exc
        if spectral.clamped_terms > clamps_before:
            if not clamping_steps:
                spectral.logger.warning(
                    "step %d: clamped cross terms: %d SVD cross-term denominators clamped "
                    "(the run's total follows at its end)",
                    step,
                    spectral.clamped_terms - clamps_before,
                )
            clamping_steps += 1
        optimizer.step(trainable)
        overflowed = [name for name, p in trainable.items() if not np.isfinite(p.data).all()]
        if overflowed:
            raise TrainingAborted(f"step {step}: the weights went non-finite: {', '.join(overflowed)}")
        src_acc = float((probs.argmax(axis=1) == batch.source_labels).mean())
        wall_ms = (time.perf_counter() - t0) * 1000.0 if cfg.timing else None

        val_acc = None
        if data.val is not None and cfg.val_every and step % cfg.val_every == 0:
            val_acc = evaluate(params, spec, data.val)

        record = MetricsRecord(
            step=step, parts=parts, src_acc=src_acc, val_acc=val_acc, wall_ms=wall_ms
        )
        records.append(record)
        if on_step is not None:
            on_step(record, params)
    if clamping_steps:
        spectral.logger.warning(
            "clamped cross terms: %d SVD cross-term denominators clamped on %d of %d steps",
            spectral.clamped_terms - clamps_at_start,
            clamping_steps,
            cfg.steps,
        )
    return TrainResult(params=params, records=records)


def evaluate(
    params: dict[str, Tensor],
    spec: ModelSpec,
    dataset: ImageDataset,
    batch_size: int = 256,
) -> float:
    """Accuracy of argmax(g(f(x))) on a labeled dataset; no spectral filter,
    so the result is invariant to the gate parameter."""
    if dataset.labels is None:
        raise ConfigError("evaluation needs a labeled dataset")
    if len(dataset) == 0:
        raise ConfigError("evaluation dataset is empty")
    frozen = {name: Tensor(p.data) for name, p in params.items()}  # no grad, so no tape
    dtype = params["feat_w"].data.dtype
    hits = 0
    for start in range(0, len(dataset), batch_size):
        stop = min(start + batch_size, len(dataset))
        x = Tensor(np.asarray(dataset.images[start:stop], dtype=dtype))
        scores = forward_head(frozen, forward_features(frozen, spec, x))
        hits += int((scores.data.argmax(axis=1) == dataset.labels[start:stop]).sum())
    return hits / len(dataset)
