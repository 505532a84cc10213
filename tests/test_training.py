import logging
import platform
import resource
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import numeric_grad, rel_err
from labelalign import autodiff as ad
from labelalign import spectral, training
from labelalign.autodiff import Tensor
from labelalign.data import DomainBatch, make_synthetic, synthetic_domains
from labelalign.model import DEFAULT_SPEC, ModelSpec, build_model, forward_features, forward_head
from labelalign.training import ConfigError, TrainConfig, TrainData, TrainingAborted, check_run, dla_loss, evaluate, train

SPEC = ModelSpec(image_hw=(8, 8), conv_channels=(2,), feature_dim=4, classes=3)
BATCH = 6


def batches(seed=0):
    rng = np.random.default_rng(seed)
    source = rng.standard_normal((BATCH, 1, 8, 8))
    labels = rng.integers(0, SPEC.classes, BATCH)
    target = rng.standard_normal((BATCH, 1, 8, 8))
    return source, labels, target


def worst_gradient_error(mode, gradient_mode, names=None):
    """Largest relative error between the gradients ``walk_domains`` fills
    and float64 central differences of the sum of its per-domain
    ``dla_loss`` totals, over the named parameters (default: all of them)."""
    cfg = TrainConfig(lam=0.5, batch_size=BATCH, mode=mode, gradient_mode=gradient_mode, dtype="float64")
    params = build_model(SPEC, seed=4, dtype=np.float64)
    source, labels, target = batches()
    domains = [(source, labels), (target, None)] if mode == "dla" else [(source, labels)]
    batch = DomainBatch(source, labels, target if mode == "dla" else None)
    training.walk_domains(params, SPEC, batch, cfg, step=1)

    worst = 0.0
    for name in names or params:
        tensor = params[name]
        original = tensor.data

        def loss_at(value):
            tensor.data = value
            return sum(dla_loss(params, SPEC, x, y, cfg)[1].total for x, y in domains)

        (numeric,) = numeric_grad(loss_at, [original])
        tensor.data = original
        worst = max(worst, rel_err(tensor.grad, numeric))
    return worst


@pytest.mark.parametrize("mode", ["dla", "no_adapt"])
def test_full_mode_matches_finite_differences_on_every_parameter(mode):
    assert worst_gradient_error(mode, "full") < 1e-6


def test_projected_mode_matches_on_parameters_the_factors_do_not_depend_on():
    assert worst_gradient_error("dla", "projected", ["head_w", "head_b"]) < 1e-6


def test_no_adapt_matches_finite_differences_on_every_parameter_in_projected_mode():
    assert worst_gradient_error("no_adapt", "projected") < 1e-6


def test_the_split_is_at_the_class_count():
    # SPEC's 3 classes cut the 4 spectrum directions of a 6 x 4 feature
    # matrix: the source keeps the leading 3, the target the last one
    cfg = TrainConfig(lam=0.5, batch_size=BATCH, dtype="float64")
    params = build_model(SPEC, seed=4, dtype=np.float64)
    source, labels, target = batches()
    filtered = []

    def recording_head(params, phi):
        filtered.append(phi.data)
        return forward_head(params, phi)

    for images, y in ((source, labels), (target, None)):
        raw = forward_features(params, SPEC, Tensor(images)).data
        u, s, vt = np.linalg.svd(raw, full_matrices=False)
        kept = slice(0, 3) if y is not None else slice(3, 4)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(training, "forward_head", recording_head)
            _, parts, _ = dla_loss(params, SPEC, images, y, cfg)
        assert parts.k == 3 / 4
        assert rel_err(filtered[-1], (u[:, kept] * s[kept]) @ vt[kept]) < 1e-12


@pytest.mark.parametrize("mode", ["dla", "no_adapt"])
def test_the_reported_k_is_the_class_count_over_the_spectrum_length(mode):
    # k = C / min(batch, feature width) in both modes and both domains, so
    # it lies in (0, 1) whenever check_run lets a dla run start
    spec = replace(SPEC, feature_dim=6)
    params = build_model(spec, seed=4, dtype=np.float64)
    cfg = TrainConfig(lam=0.5, batch_size=BATCH, mode=mode, dtype="float64")
    rng = np.random.default_rng(5)
    images = rng.standard_normal((8, 1, 8, 8))
    labels = rng.integers(0, spec.classes, 8)
    for batch, r in ((4, 4), (5, 5), (6, 6), (8, 6)):
        domains = [labels[:batch], None] if mode == "dla" else [labels[:batch]]
        for y in domains:
            _, parts, _ = dla_loss(params, spec, images[:batch], y, cfg)
            assert parts.k == 3 / r
            assert 0 < parts.k < 1


def test_dla_loss_looks_the_cut_up_on_the_spectral_module(monkeypatch):
    # a tracer that wraps spectral.gate_weights must see every cut dla_loss makes
    calls = []
    real = spectral.gate_weights

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(spectral, "gate_weights", recording)
    cfg = TrainConfig(lam=0.5, batch_size=BATCH, dtype="float64")
    params = build_model(SPEC, seed=4, dtype=np.float64)
    source, labels, target = batches()
    dla_loss(params, SPEC, source, labels, cfg)
    dla_loss(params, SPEC, target, None, cfg)
    assert calls == [(3, 4, np.float64), (3, 4, np.float64)]


def test_dla_loss_passes_the_filter_positional_arguments_only(monkeypatch):
    # a tracer that wraps training.spectral_filter with ``def f(*args)`` must
    # be able to stand in for it
    calls = []
    real = training.spectral_filter

    def positional_only(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(training, "spectral_filter", positional_only)
    source, labels, target = batches()
    for gradient_mode in ("projected", "full"):
        cfg = TrainConfig(lam=0.5, batch_size=BATCH, gradient_mode=gradient_mode, dtype="float64")
        params = build_model(SPEC, seed=4, dtype=np.float64)
        dla_loss(params, SPEC, source, labels, cfg)
        dla_loss(params, SPEC, target, None, cfg)
    assert [args[2] for args in calls] == ["projected", "projected", "full", "full"]
    assert [args[1].tolist() for args in calls[:2]] == [[1, 1, 1, 0], [0, 0, 0, 1]]


def test_evaluate_records_no_tape_and_keeps_the_accuracy(monkeypatch):
    params = build_model(DEFAULT_SPEC, seed=2)
    dataset = make_synthetic(40, 3)
    scores = forward_head(params, forward_features(params, DEFAULT_SPEC, Tensor(dataset.images)))
    expected = float((scores.data.argmax(axis=1) == dataset.labels).mean())

    outputs = []

    def recording_head(*args):
        outputs.append(forward_head(*args))
        return outputs[-1]

    monkeypatch.setattr(training, "forward_head", recording_head)
    assert evaluate(params, DEFAULT_SPEC, dataset, batch_size=16) == expected
    assert len(outputs) == 3
    assert not any(out.requires_grad or out._parents for out in outputs)
    assert all(p.grad is None for p in params.values())


# (total, k, src_acc) per step of a float64 run at batch 16 on synthetic data,
# recorded when the spectrum split moved to the fixed cut at the class count
# (k = 10 / 16; the no_adapt totals are those of the learnable gate before
# it); a reordered sum moves these by ~1e-14, well inside the tolerance,
# while a change to the math moves them far beyond it
GOLDEN = {
    "dla": [
        (3.1603556407184406, 0.625, 0.0),
        (2.51537270422525, 0.625, 0.1875),
        (2.158611999699271, 0.625, 0.375),
        (2.26018379426703, 0.625, 0.1875),
        (2.536700774691393, 0.625, 0.125),
    ],
    "no_adapt": [
        (3.1609771638135777, 0.625, 0.0),
        (3.1384212092053114, 0.625, 0.25),
        (4.122567615846815, 0.625, 0.0625),
        (2.0505043245463295, 0.625, 0.1875),
        (2.82286318163208, 0.625, 0.375),
    ],
}


@pytest.mark.parametrize("mode", sorted(GOLDEN))
def test_float64_golden_run(mode):
    cfg = TrainConfig(
        mode=mode, batch_size=16, steps=5, seed=0, dtype="float64", val_every=0, timing=False
    )
    data = TrainData(
        source=make_synthetic(48, 1), target=make_synthetic(48, 2, domain_shift=0.35).drop_labels()
    )
    got = [(r.parts.total, r.parts.k, r.src_acc) for r in train(cfg, data).records]
    np.testing.assert_allclose(got, GOLDEN[mode], rtol=1e-9, atol=0)


@pytest.mark.parametrize("split_seed", [0, 1, 2])
def test_short_source_only_run_classifies_the_synthetic_target(split_seed):
    # the splits share their class templates, and the 0.35 warp keeps each
    # class apart; when every split drew its own templates this scored chance
    source, _, _, test = synthetic_domains(split_seed)
    cfg = TrainConfig(mode="no_adapt", batch_size=32, steps=20, val_every=0, timing=False)
    result = train(cfg, TrainData(source=source))
    assert evaluate(result.params, DEFAULT_SPEC, test) >= 0.9


@pytest.mark.skipif(
    sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
    reason="the heap setting is glibc's; other allocators keep their own policy",
)
def test_steady_training_steps_fault_in_no_fresh_pages():
    # a batch-128 dla step frees and reallocates tens of MB of tape arrays;
    # with glibc's default thresholds they went back to the OS and about
    # 12,000 pages were faulted in again per step
    cfg = TrainConfig(steps=7, val_every=0, timing=False)
    data = TrainData(
        source=make_synthetic(512, 1), target=make_synthetic(512, 2, domain_shift=0.35).drop_labels()
    )
    faults = []

    def count_faults(record, params):
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)

    train(cfg, data, on_step=count_faults)
    per_step = np.diff(faults[1:])  # from the end of the second warm-up step
    assert per_step.mean() < 1000, per_step


# either domain's call at batch 128, float32, peaks at about 13.3 MB, its walk
# no higher; a feature pass that kept each stage's conv, pool and bias-add
# outputs (read by no backward closure) peaked at 22.4 MB, its walk at 26.9 MB
PASS_PEAK_MB = 16


def dla_step_peaks(domain):
    """Traced allocation peaks, in MB, of one domain's ``dla_loss`` call at
    batch 128, float32, and its walk: (forward pass, forward and walk)."""
    cfg = TrainConfig()
    dataset = make_synthetic(128, 1 if domain == "source" else 2, domain_shift=0.35)
    labels = dataset.labels if domain == "source" else None
    params = build_model(DEFAULT_SPEC, seed=0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        total, _, _ = dla_loss(params, DEFAULT_SPEC, dataset.images, labels, cfg)
        forward_peak = tracemalloc.get_traced_memory()[1]
        ad.backward(total)
        step_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(np.isfinite(p.grad).all() for p in params.values())
    return (forward_peak - before) / 1e6, (step_peak - before) / 1e6


@pytest.mark.parametrize("domain", ["source", "target"])
def test_a_domains_feature_pass_keeps_only_what_its_backward_pass_reads(domain):
    _, peak = dla_step_peaks(domain)
    assert peak < PASS_PEAK_MB


@pytest.mark.parametrize("domain", ["source", "target"])
def test_a_domains_backward_pass_peaks_no_higher_than_its_forward(domain):
    # the walk frees each gradient once its operands have theirs; a walk
    # that kept every node to its end peaked at 20.7 MB, against 13.3 MB for
    # the forward pass
    forward_peak, step_peak = dla_step_peaks(domain)
    assert step_peak - forward_peak <= 2, (forward_peak, step_peak)
    assert step_peak < PASS_PEAK_MB


def steady_step_peak(mode):
    """Traced allocation peak, in MB, of steps 2-3 of a batch-128 float32
    run, above what is held after step 1."""
    cfg = TrainConfig(mode=mode, steps=3, val_every=0, timing=False)
    data = TrainData(
        source=make_synthetic(256, 1), target=make_synthetic(256, 2, domain_shift=0.35).drop_labels()
    )
    held = []

    def after_step(record, params):
        if record.step == 1:
            held.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()

    tracemalloc.start()
    try:
        train(cfg, data, on_step=after_step)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - held[0]) / 1e6


def test_a_dla_step_in_train_holds_one_feature_pass_at_a_time():
    # train walks the source's tape before it builds the target's, so a dla
    # step peaks at about 14.2 MB against 13.3 MB for a no_adapt step; one
    # tape holding both feature passes peaked at 19.5 MB
    dla, no_adapt = steady_step_peak("dla"), steady_step_peak("no_adapt")
    assert dla - no_adapt <= 2, (dla, no_adapt)


def test_one_domain_calls_return_that_domains_terms():
    cfg = TrainConfig(lam=0.5, batch_size=BATCH, dtype="float64")
    params = build_model(SPEC, seed=4, dtype=np.float64)
    source, labels, target = batches()
    _, src, probs = dla_loss(params, SPEC, source, labels, cfg)
    _, tgt, no_probs = dla_loss(params, SPEC, target, None, cfg)
    assert (src.align, src.total) == (0.0, src.cls)
    assert tgt.cls == 0.0 and tgt.total == pytest.approx(0.5 * tgt.align, rel=1e-15)
    assert probs is not None and no_probs is None
    walked, walked_probs = training.walk_domains(params, SPEC, DomainBatch(source, labels, target), cfg, 1)
    assert (walked.cls, walked.align, walked.k) == (src.cls, tgt.align, src.k)
    assert walked.total == pytest.approx(src.total + tgt.total, rel=1e-15)
    assert walked_probs.tobytes() == probs.tobytes()
    with pytest.raises(ConfigError, match="no_adapt mode has no target term"):
        dla_loss(params, SPEC, target, None, TrainConfig(mode="no_adapt"))


@pytest.mark.parametrize("mode", ["dla", "no_adapt"])
def test_a_non_finite_source_term_aborts_the_run_naming_the_source(mode):
    def overflow_head(record, params):
        params["head_w"].data[...] = 3e38

    cfg = TrainConfig(mode=mode, batch_size=16, steps=3, val_every=0, timing=False)
    data = TrainData(
        source=make_synthetic(64, 1), target=make_synthetic(64, 2, domain_shift=0.35).drop_labels()
    )
    with np.errstate(all="ignore"), pytest.raises(TrainingAborted, match="^step 2: the source loss went non-finite"):
        train(cfg, data, on_step=overflow_head)


def test_a_non_finite_target_term_aborts_the_run_naming_the_target(monkeypatch):
    # the target's term is lam, which validate keeps finite in the run's
    # dtype, times a mean of squared probabilities, so only non-finite scores
    # make it non-finite: here the second head call of step 1, the target's,
    # returns an inf score, while the source's cross-entropy stays finite
    calls = []

    def inf_in_the_first_target_scores(params, phi):
        scores = forward_head(params, phi)
        calls.append(scores)
        if len(calls) == 2:
            scores.data[0, 0] = np.inf
        return scores

    monkeypatch.setattr(training, "forward_head", inf_in_the_first_target_scores)
    cfg = TrainConfig(batch_size=16, steps=3, val_every=0, timing=False)
    data = TrainData(
        source=make_synthetic(64, 1), target=make_synthetic(64, 2, domain_shift=0.35).drop_labels()
    )
    with np.errstate(all="ignore"), pytest.raises(TrainingAborted, match="^step 1: the target loss went non-finite: nan"):
        train(cfg, data)
    assert np.isfinite(calls[0].data).all()


@pytest.mark.parametrize("batch_size, feature_dim", [(3, 4), (6, 3), (2, 2)])
def test_dla_refuses_a_spectrum_no_longer_than_the_class_count(batch_size, feature_dim):
    # the target keeps the directions after the first `classes`; with none
    # left its term would be a constant
    spec = ModelSpec(image_hw=(8, 8), conv_channels=(2,), feature_dim=feature_dim, classes=3)
    data = TrainData(
        source=make_synthetic(8, 1, hw=(8, 8)), target=make_synthetic(8, 2, hw=(8, 8)).drop_labels()
    )
    cfg = TrainConfig(batch_size=batch_size, steps=1, val_every=0, timing=False)
    message = rf"\(the class count\).*min\(batch_size {batch_size}, feature width {feature_dim}\) must be above 3$"
    with pytest.raises(ConfigError, match=message):
        check_run(cfg, data, spec)
    # no_adapt runs no filter
    check_run(replace(cfg, mode="no_adapt"), data, spec)


@pytest.mark.parametrize("batch_size, feature_dim", [(11, 11), (11, 14), (14, 11)])
def test_dla_starts_with_one_spectrum_direction_past_the_class_count(batch_size, feature_dim):
    # the least spectrum the refusal above lets through leaves the target
    # one direction, and a run on it trains
    spec = ModelSpec(image_hw=(8, 8), conv_channels=(2,), feature_dim=feature_dim, classes=10)
    data = TrainData(
        source=make_synthetic(16, 1, hw=(8, 8)), target=make_synthetic(16, 2, hw=(8, 8)).drop_labels()
    )
    cfg = TrainConfig(batch_size=batch_size, steps=2, val_every=0, timing=False)
    check_run(cfg, data, spec)
    result = train(cfg, data, spec)
    assert [r.step for r in result.records] == [1, 2]
    assert all(0 < r.parts.k < 1 and np.isfinite(r.parts.total) for r in result.records)


def test_a_clamping_run_logs_its_first_clamp_and_its_total(caplog):
    # full-mode filter backwards clamp on every step of this run; each used
    # to log its own warning, two per step
    cfg = TrainConfig(steps=3, gradient_mode="full", val_every=0, timing=False)
    data = TrainData(
        source=make_synthetic(256, 1), target=make_synthetic(256, 2, domain_shift=0.35).drop_labels()
    )
    with caplog.at_level(logging.WARNING, logger="labelalign.spectral"):
        train(cfg, data)
    lines = [m for m in caplog.messages if "clamped cross terms" in m]
    assert len(lines) == 2, lines
    assert lines[0].startswith("step 1: ")
    assert lines[1].endswith("clamped on 3 of 3 steps")


def test_train_refuses_images_the_model_cannot_take():
    cfg = TrainConfig(mode="no_adapt", batch_size=4, steps=1, val_every=0, timing=False)
    with pytest.raises(ConfigError, match=r"source images have shape \(1, 28, 28\), the model takes \(1, 8, 8\)"):
        train(cfg, TrainData(source=make_synthetic(8, 1)), SPEC)
    val = make_synthetic(8, 2, hw=(8, 9))
    with pytest.raises(ConfigError, match=r"val images have shape \(1, 8, 9\)"):
        train(cfg, TrainData(source=make_synthetic(8, 1, hw=(8, 8)), val=val), SPEC)
