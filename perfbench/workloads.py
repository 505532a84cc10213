"""The four workloads and the metrics they report.

Training workloads repeat a fixed-length ``train`` run (an episode) until the
time is up; each step is timed by the gap between consecutive ``on_step``
callbacks, so the first step of every episode, which also pays for building
the model, is not a timed step.  The evaluation workload loads the MNIST/USPS
stand-in files through ``build_datasets`` and then calls ``evaluate`` on one
256-image batch at a time, over the USPS test split and the MNIST test set.

With tracing on, timed steps (or evaluation batches) alternate between
untraced and traced, which gives the trace overhead from the same run.
"""

from __future__ import annotations

import contextlib
import resource
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from labelalign import cli, config, data, model, spectral, training
from labelalign.autodiff import Tensor
from labelalign.data import ImageDataset

import checks
import datagen
import stats
import tracing

BATCH = 128
EVAL_BATCH = 256
# steps per training episode; long enough that the mean loss over the final
# steps fell below the step-1 loss on every seed measured
EPISODE_STEPS = 20
TRAIN_SETUPS = 7
EVAL_SETUPS = 3

TRAINING = {
    "source_only": ("no_adapt", "projected"),
    "dla_projected": ("dla", "projected"),
    "dla_full": ("dla", "full"),
}
WORKLOADS = (*TRAINING, "mnist_usps_eval")

# (name, unit, better); BENCHMARK.json lists the same metrics
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("samples_per_s", "1/s", "higher"),
    ("step_ms_tail", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

_LAYERS = {
    "conv": ["autodiff.conv2d.conv0", "autodiff.conv2d.conv1"],
    "fwd_bwd": [
        "autodiff.conv2d.conv0",
        "autodiff.conv2d.conv1",
        "autodiff.add.conv_bias",
        "autodiff.relu",
        "autodiff.maxpool2x2.pool0",
        "autodiff.maxpool2x2.pool1",
        "autodiff.matmul.feat",
        "autodiff.matmul.head",
    ],
    "loads": ["data.load_idx", "data.load_usps", "data.split_target"],
}
# (span, time metric, call-count metric) of layers timed as a whole
_WHOLE = [
    ("data.next_batch", "data.next_batch.ms", "data.next_batch.calls"),
    ("spectral.thin_svd", "spectral.thin_svd.ms", "spectral.thin_svd.calls"),
    ("training.dla_loss", "training.dla_loss.ms", "training.dla_loss.calls"),
    ("optim.adam.step", "optim.adam.step_ms", "optim.adam.calls"),
]


def _per_layer_spec():
    out = []
    for name in _LAYERS["loads"]:
        out += [(f"{name}.s", "s", "lower"), (f"{name}.calls", "count", "lower")]
    for _, time_name, calls_name in _WHOLE:
        out += [(time_name, "ms", "lower"), (calls_name, "count", "lower")]
    for name in _LAYERS["fwd_bwd"]:
        out += [
            (f"{name}.fwd_ms", "ms", "lower"),
            (f"{name}.bwd_ms", "ms", "lower"),
            (f"{name}.calls", "count", "lower"),
        ]
    out += [(f"{name}.gflops", "GFLOP/s", "higher") for name in _LAYERS["conv"]]
    out += [
        ("autodiff.backward.ms", "ms", "lower"),
        ("autodiff.backward.walk_ms", "ms", "lower"),
        ("autodiff.backward.calls", "count", "lower"),
        ("autodiff.tape_nodes", "count", "lower"),
        ("spectral.gate.ms", "ms", "lower"),
        ("spectral.gate.calls", "count", "lower"),
        ("spectral.filter.fwd_ms", "ms", "lower"),
        ("spectral.filter.bwd_ms", "ms", "lower"),
        ("spectral.filter.calls", "count", "lower"),
        ("spectral.clamp_warnings", "count", "lower"),
        ("training.loss_head.ms", "ms", "lower"),
        ("training.evaluate.batch_ms", "ms", "lower"),
        ("training.evaluate.calls", "count", "lower"),
        ("untraced_share", "ratio", "lower"),
        ("trace_overhead_ms", "ms", "lower"),
    ]
    return out


PER_LAYER = _per_layer_spec()


@dataclass
class Outcome:
    """What one workload run measured."""

    metrics: dict[str, tuple[float | None, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    tally: checks.Tally = field(default_factory=checks.Tally)
    tracer: tracing.Tracer | None = None


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------


def _write_config(path: Path, sections: dict) -> Path:
    lines = []
    for section, values in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{k} = {v}" for k, v in values.items()]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    return path


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _step_metrics(out: Outcome, steps_s: list[float], samples: int, busy_s: float, unit_label: str):
    """Throughput over ``busy_s`` seconds and percentiles of per-step wall times."""
    ms = [g * 1000.0 for g in steps_s]
    tail, p = stats.tail(ms)
    out.metrics["samples_per_s"] = (samples / busy_s if busy_s else None, "1/s")
    out.metrics["step_ms_tail"] = (tail, "ms")
    out.notes.append(f"step_ms_tail is p{p} of {len(ms)} {unit_label}")
    out.notes.append(f"step_ms_p50 {stats.median(ms):.6g} ms (not a gated metric)")


def _layer_metrics(
    out: Outcome,
    tracer: tracing.Tracer,
    windows: list[tuple[float, float]],
    steps: int,
    setup_windows: list[tuple[float, float]],
    warnings: tracing.WarningCounter,
    untraced_p50: float | None,
    traced_p50: float | None,
    evaluating: list[tuple[float, float]] = (),
):
    """Per-layer metrics: per timed step (or evaluation batch) of the traced
    ``windows``, except the load times, which are per set-up."""
    n = max(1, steps)
    window_time = sum(b - a for a, b in windows)
    totals, covered = tracing.summarize(tracer.spans, windows)
    empty = tracing.Totals()

    def t(name):
        return totals.get(name, empty)

    m = {}
    setup_totals, _ = tracing.summarize(tracer.spans, setup_windows)
    n_setup = max(1, len(setup_windows))
    for name in _LAYERS["loads"]:
        s = setup_totals.get(name, empty)
        m[f"{name}.s"] = (s.time / n_setup, "s")
        m[f"{name}.calls"] = (s.calls / n_setup, "count")
    for name, time_name, calls_name in _WHOLE:
        m[time_name] = (1000.0 * t(name).time / n, "ms")
        m[calls_name] = (t(name).calls / n, "count")
    for name in _LAYERS["fwd_bwd"]:
        m[f"{name}.fwd_ms"] = (1000.0 * t(name).time / n, "ms")
        m[f"{name}.bwd_ms"] = (1000.0 * t(f"{name}.bwd").time / n, "ms")
        m[f"{name}.calls"] = (t(name).calls / n, "count")
    for name in _LAYERS["conv"]:
        fwd, bwd = t(name), t(f"{name}.bwd")
        busy = fwd.time + bwd.time
        m[f"{name}.gflops"] = ((fwd.flops + bwd.flops) / busy / 1e9 if busy else 0.0, "GFLOP/s")
    backward = t("autodiff.backward")
    m["autodiff.backward.ms"] = (1000.0 * backward.time / n, "ms")
    m["autodiff.backward.walk_ms"] = (1000.0 * backward.self_time / n, "ms")
    m["autodiff.backward.calls"] = (backward.calls / n, "count")
    nodes = [c for when, c in tracer.tape_nodes if tracing.in_windows(when, windows)]
    m["autodiff.tape_nodes"] = (sum(nodes) / n, "count")
    gate_ms = t("spectral.gate").time + t("spectral.gate.bwd").time
    m["spectral.gate.ms"] = (1000.0 * gate_ms / n, "ms")
    m["spectral.gate.calls"] = (t("spectral.gate").calls / n, "count")
    m["spectral.filter.fwd_ms"] = (1000.0 * t("spectral.filter").self_time / n, "ms")
    m["spectral.filter.bwd_ms"] = (1000.0 * t("spectral.filter.bwd").time / n, "ms")
    m["spectral.filter.calls"] = (t("spectral.filter").calls / n, "count")
    clamps = [w for w in warnings.times if tracing.in_windows(w, windows)]
    m["spectral.clamp_warnings"] = (len(clamps) / n, "count")
    head = t("training.dla_loss").self_time + t("training.dla_loss.bwd").time
    m["training.loss_head.ms"] = (1000.0 * head / n, "ms")
    m["training.evaluate.batch_ms"] = (
        1000.0 * sum(b - a for a, b in evaluating) / len(evaluating) if evaluating else 0.0,
        "ms",
    )
    m["training.evaluate.calls"] = (len(evaluating) / n, "count")
    m["untraced_share"] = (1.0 - covered / window_time if window_time else None, "ratio")
    overhead = None
    if untraced_p50 is not None and traced_p50 is not None:
        overhead = traced_p50 - untraced_p50
    m["trace_overhead_ms"] = (overhead, "ms")
    out.metrics = m


# ---------------------------------------------------------------------------
# training workloads
# ---------------------------------------------------------------------------


@dataclass
class Episode:
    """One ``train`` run.  With a tracer, tracing is switched on and off at
    every ``on_step``, so traced and untraced steps interleave; ``traced[i]``
    tells whether the step after callback ``i`` ran traced."""

    tracer: tracing.Tracer | None = None
    times: list[float] = field(default_factory=list)
    losses: list[float] = field(default_factory=list)
    ks: list[float] = field(default_factory=list)
    traced: list[bool] = field(default_factory=list)

    def on_step(self, record, params):
        self.times.append(time.perf_counter())
        self.losses.append(record.parts.total)
        self.ks.append(record.parts.k)
        if self.tracer is not None:
            self.tracer.remove() if self.tracer.active else self.tracer.install()
            self.traced.append(self.tracer.active)

    def steps(self, traced: bool) -> list[tuple[float, float]]:
        """(start, end) of the timed steps that ran traced, or untraced."""
        flags = self.traced or [False] * len(self.times)
        return [(a, b) for a, b, t in zip(self.times, self.times[1:], flags) if t == traced]


def _run_episode(cfg, bundle, tracer=None) -> tuple[Episode, Exception | None]:
    ep = Episode(tracer)
    try:
        training.train(cfg, bundle, model.DEFAULT_SPEC, on_step=ep.on_step)
    except (training.TrainingAborted, spectral.SpectralError) as exc:
        return ep, exc
    finally:
        if tracer is not None:
            tracer.remove()
    return ep, None


def run_training(name: str, seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    mode, gradient_mode = TRAINING[name]
    ini = _write_config(
        work / f"{name}.ini",
        {
            "train": {
                "mode": mode,
                "gradient_mode": gradient_mode,
                "batch_size": BATCH,
                "steps": EPISODE_STEPS,
                "seed": seed,
                "val_every": 0,
            },
            "data": {"dataset": "synthetic", "split_seed": seed},
        },
    )
    out = Outcome()
    tracer = tracing.Tracer() if trace else None
    warnings = tracing.WarningCounter()
    with warnings.attached():
        setups, setup_windows = [], []
        for _ in range(TRAIN_SETUPS):
            t0 = time.perf_counter()
            with tracer.installed() if trace else contextlib.nullcontext():
                cfg = config.load_run_config(ini)
                bundle = cli.build_datasets(cfg)
                training.train(replace(cfg.train, steps=1), bundle, model.DEFAULT_SPEC)
            t1 = time.perf_counter()
            setups.append(t1 - t0)
            setup_windows.append((t0, t1))
        out.metrics["setup_s"] = (stats.median(setups), "s")

        deadline = time.perf_counter() + seconds
        plain, windows = [], []
        reference = None
        index = 0
        while index < 1 or time.perf_counter() < deadline:
            ep, error = _run_episode(cfg.train, bundle, tracer)
            index += 1
            failed, reason = checks.episode_failures(ep.losses, ep.ks, EPISODE_STEPS, reference)
            if error is not None:
                reason = f"{type(error).__name__}: {error}"
            out.tally.add(EPISODE_STEPS, failed, reason)
            if reference is None and error is None:
                reference = ep.losses
            plain += ep.steps(traced=False)
            windows += ep.steps(traced=True)

    plain_gaps = [b - a for a, b in plain]
    if trace:
        _layer_metrics(
            out, tracer, windows, len(windows), setup_windows, warnings,
            stats.median([g * 1000 for g in plain_gaps]),
            stats.median([(b - a) * 1000 for a, b in windows]),
        )
        out.tracer = tracer
        return out
    _step_metrics(out, plain_gaps, BATCH * len(plain_gaps), sum(plain_gaps), "training steps")
    out.metrics["peak_rss_mb"] = (_peak_rss_mb(), "MB")
    if reference is not None:
        out.notes.append(
            f"loss_end {checks.loss_end(reference):.6g} (mean total loss over the final "
            f"{checks.LOSS_END_STEPS} of {EPISODE_STEPS} steps; not a gated metric)"
        )
    out.notes.append(f"spectral.clamp_warnings {len(warnings.times)} in the whole run")
    return out


# ---------------------------------------------------------------------------
# evaluation workload
# ---------------------------------------------------------------------------


def _batches(ds: ImageDataset) -> list[ImageDataset]:
    return [
        ImageDataset(
            images=ds.images[i : i + EVAL_BATCH],
            labels=ds.labels[i : i + EVAL_BATCH],
            provenance=ds.provenance,
            split=ds.split,
        )
        for i in range(0, len(ds), EVAL_BATCH)
    ]


def run_eval(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    files = datagen.ensure_files(seed, work / "data")
    ini = _write_config(
        work / "mnist_usps_eval.ini",
        {
            "data": {"dataset": "mnist-usps", "dir": str(files), "split_seed": seed},
        },
    )
    spec = model.DEFAULT_SPEC
    out = Outcome()
    tracer = tracing.Tracer() if trace else None

    setups, setup_windows = [], []
    for _ in range(EVAL_SETUPS):
        bundle = mnist_test = params = batches = None  # release the previous set-up first
        t0 = time.perf_counter()
        with tracer.installed() if trace else contextlib.nullcontext():
            cfg = config.load_run_config(ini)
            bundle = cli.build_datasets(cfg)
            mnist_test = data.load_mnist(
                cfg.data_path("mnist_test_images"), cfg.data_path("mnist_test_labels"), split="test"
            )
            params = model.build_model(spec, seed)
            batches = _batches(bundle.test) + _batches(mnist_test)
            training.evaluate(params, spec, batches[0])
        t1 = time.perf_counter()
        setups.append(t1 - t0)
        setup_windows.append((t0, t1))
    out.metrics["setup_s"] = (stats.median(setups), "s")

    # one batch at a time, cycling through the batches until the time is up
    deadline = time.perf_counter() + seconds
    plain, traced_times, evaluating = [], [], []
    images, busy = 0, 0.0
    first_accuracy: dict[int, float] = {}
    index = 0
    while index < (2 if trace else 1) or time.perf_counter() < deadline:
        which = index % len(batches)
        batch = batches[which]
        traced = trace and index % 2 == 1
        with tracer.installed() if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            acc = training.evaluate(params, spec, batch)
            t1 = time.perf_counter()
        index += 1
        if len(batch) == EVAL_BATCH:
            (traced_times if traced else plain).append(t1 - t0)
        if traced:
            evaluating.append((t0, t1))
        images += len(batch)
        busy += t1 - t0
        expected_acc = first_accuracy.setdefault(which, acc)
        out.tally.check(
            None if acc == expected_acc else f"batch {which}: accuracy {acc} differs from {expected_acc} earlier"
        )

    # read before the checks, whose generated copies of the data are the
    # benchmark's memory, not the program's
    peak_rss_mb = _peak_rss_mb()
    expected = datagen.generate(seed)
    out.tally.check(checks.idx_failure(bundle.source, expected.mnist_train))
    out.tally.check(checks.idx_failure(mnist_test, expected.mnist_test))
    out.tally.check(checks.usps_failure(bundle.target.images, expected.usps_train, spec.image_hw[0]))
    out.tally.check(checks.split_failure(bundle.val, bundle.test, expected.usps_test))
    del expected

    checked = batches[0]
    scores = model.forward_scores(params, spec, Tensor(checked.images)).data
    arrays = {name: t.data for name, t in params.items()}
    reference = checks.reference_scores(arrays, spec, checked.images)
    accuracy = training.evaluate(params, spec, checked)
    out.tally.check(checks.forward_failure(scores, reference, checked.labels, accuracy))

    if trace:
        _layer_metrics(
            out, tracer, evaluating, len(evaluating), setup_windows, tracing.WarningCounter(),
            stats.median([g * 1000 for g in plain]),
            stats.median([g * 1000 for g in traced_times]),
            evaluating,
        )
        out.tracer = tracer
        return out
    _step_metrics(out, plain, images, busy, "evaluation batches of 256")
    out.metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    return out
