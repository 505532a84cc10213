import logging
import platform
import resource
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import numeric_grad, rel_err
from labelalign import autodiff as ad
from labelalign import training
from labelalign.autodiff import Tensor
from labelalign.data import DomainBatch, make_synthetic, synthetic_domains
from labelalign.model import DEFAULT_SPEC, ModelSpec, build_model, forward_features, forward_head
from labelalign.training import ConfigError, TrainConfig, TrainData, TrainingAborted, dla_loss, evaluate, train, trainable_names

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
    ``dla_loss`` totals, over the named parameters (default: the trainable
    ones)."""
    cfg = TrainConfig(
        lam=0.5, gamma=0.1, batch_size=BATCH, mode=mode, gradient_mode=gradient_mode,
        dtype="float64",
    )
    params = build_model(SPEC, seed=4, dtype=np.float64)
    source, labels, target = batches()
    domains = [(source, labels), (target, None)] if mode == "dla" else [(source, labels)]
    batch = DomainBatch(source, labels, target if mode == "dla" else None)
    training.walk_domains(params, SPEC, batch, cfg, step=1)

    worst = 0.0
    for name in names or trainable_names(params, cfg):
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
    assert worst_gradient_error("dla", "projected", ["head_w", "head_b", "k_hat"]) < 1e-6


def test_no_adapt_matches_on_weights_and_leaves_the_gate_untrained():
    params = build_model(SPEC, seed=4, dtype=np.float64)
    names = trainable_names(params, TrainConfig(mode="no_adapt"))
    assert "k_hat" not in names
    assert sorted(names) == sorted(n for n in params if n != "k_hat")
    assert worst_gradient_error("no_adapt", "projected") < 1e-6


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
# recorded when make_synthetic began drawing every set's class templates from
# one template_seed; a reordered sum moves these by ~1e-14, well inside the
# tolerance, while a change to the math moves them far beyond it
GOLDEN = {
    "dla": [
        (3.160489595313907, 0.5989873728494957, 0.0),
        (2.3767786520003003, 0.5987471518292687, 0.25),
        (2.1838430330408496, 0.5985598755213859, 0.1875),
        (2.1927487627046176, 0.5983767535232077, 0.3125),
        (2.4383236639619064, 0.5981841050463722, 0.1875),
    ],
    "no_adapt": [
        (3.1609771638135777, 0.5989873728494957, 0.0),
        (3.1384212092053114, 0.5989873728494957, 0.25),
        (4.122567615846815, 0.5989873728494957, 0.0625),
        (2.0505043245463295, 0.5989873728494957, 0.1875),
        (2.82286318163208, 0.5989873728494957, 0.375),
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
    assert all(np.isfinite(params[name].grad).all() for name in trainable_names(params, cfg))
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
    cfg = TrainConfig(lam=0.5, gamma=0.1, batch_size=BATCH, dtype="float64")
    params = build_model(SPEC, seed=4, dtype=np.float64)
    source, labels, target = batches()
    _, src, probs = dla_loss(params, SPEC, source, labels, cfg)
    _, tgt, no_probs = dla_loss(params, SPEC, target, None, cfg)
    assert (src.align, src.k_reg, src.total) == (0.0, 0.0, src.cls)
    assert tgt.cls == 0.0 and tgt.k_reg == pytest.approx(tgt.k**2, rel=1e-15)
    assert tgt.total == pytest.approx(0.5 * tgt.align + 0.1 * tgt.k_reg, rel=1e-15)
    assert probs is not None and no_probs is None
    walked, walked_probs = training.walk_domains(params, SPEC, DomainBatch(source, labels, target), cfg, 1)
    assert (walked.cls, walked.align, walked.k_reg, walked.k) == (src.cls, tgt.align, tgt.k_reg, src.k)
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


def test_a_non_finite_target_term_aborts_the_run_naming_the_target():
    # 1e39 is a finite lam, but it overflows float32, so the target's
    # lam * align is inf while the source's cross-entropy stays finite
    cfg = TrainConfig(lam=1e39, batch_size=16, steps=3, val_every=0, timing=False)
    data = TrainData(
        source=make_synthetic(64, 1), target=make_synthetic(64, 2, domain_shift=0.35).drop_labels()
    )
    with np.errstate(all="ignore"), pytest.raises(TrainingAborted, match="^step 1: the target loss went non-finite"):
        train(cfg, data)


def test_a_clamping_run_logs_its_first_clamp_and_its_total(caplog):
    # full-mode filter backwards clamp on every step of this run; each used
    # to log its own warning, two per step
    cfg = TrainConfig(steps=3, gradient_mode="full", val_every=0, timing=False)
    data = TrainData(
        source=make_synthetic(256, 1), target=make_synthetic(256, 2, domain_shift=0.35).drop_labels()
    )
    with caplog.at_level(logging.WARNING, logger="labelalign.spectral"):
        train(cfg, data)
    lines = [m for m in caplog.messages if "degenerate spectrum" in m]
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
