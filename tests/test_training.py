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
from labelalign.data import make_synthetic, synthetic_domains
from labelalign.model import DEFAULT_SPEC, ModelSpec, build_model, forward_features, forward_head
from labelalign.spectral import SpectralError
from labelalign.training import ConfigError, TrainConfig, TrainData, dla_loss, evaluate, train, trainable_names

SPEC = ModelSpec(image_hw=(8, 8), conv_channels=(2,), feature_dim=4, classes=3)
BATCH = 6


def batches(seed=0):
    rng = np.random.default_rng(seed)
    source = rng.standard_normal((BATCH, 1, 8, 8))
    labels = rng.integers(0, SPEC.classes, BATCH)
    target = rng.standard_normal((BATCH, 1, 8, 8))
    return source, labels, target


def worst_gradient_error(mode, gradient_mode, names=None):
    """Largest relative error between the backward pass of ``dla_loss`` and
    float64 central differences, over the named parameters (default: the
    trainable ones)."""
    cfg = TrainConfig(
        lam=0.5, gamma=0.1, batch_size=BATCH, mode=mode, gradient_mode=gradient_mode,
        dtype="float64",
    )
    params = build_model(SPEC, seed=4, dtype=np.float64)
    source, labels, target = batches()
    total, _, _ = dla_loss(params, SPEC, source, labels, target, cfg)
    ad.backward(total)

    worst = 0.0
    for name in names or trainable_names(params, cfg):
        tensor = params[name]
        original = tensor.data

        def loss_at(value):
            tensor.data = value
            return dla_loss(params, SPEC, source, labels, target, cfg)[1].total

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


def test_target_batch_with_another_spectrum_length_is_refused():
    # one gate serves both filters, so the target's min(rows, features) must
    # match the source's: 3 target rows give 3 singular values, not 4
    cfg = TrainConfig(batch_size=BATCH, dtype="float64")
    params = build_model(SPEC, seed=4, dtype=np.float64)
    source, labels, target = batches()
    dla_loss(params, SPEC, source, labels, target[:5], cfg)  # 5 rows, still 4 values
    with pytest.raises(SpectralError, match="does not match spectrum length 3"):
        dla_loss(params, SPEC, source, labels, target[:3], cfg)


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


def dla_step_peaks():
    """Traced allocation peaks, in MB, of one batch-128 float32 ``dla`` step:
    (forward pass, whole step)."""
    cfg = TrainConfig()
    source, target = make_synthetic(128, 1), make_synthetic(128, 2, domain_shift=0.35)
    params = build_model(DEFAULT_SPEC, seed=0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        total, _, _ = dla_loss(params, DEFAULT_SPEC, source.images, source.labels, target.images, cfg)
        forward_peak = tracemalloc.get_traced_memory()[1]
        ad.backward(total)
        step_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(np.isfinite(params[name].grad).all() for name in trainable_names(params, cfg))
    return (forward_peak - before) / 1e6, (step_peak - before) / 1e6


def test_a_dla_step_keeps_only_what_its_backward_pass_reads():
    # the step holds two feature passes at once and peaks at about 19.5 MB;
    # keeping each stage's conv, pool and bias-add outputs (14.4 MB per pass
    # at batch 128, read by no backward closure) would add about 29 MB
    _, peak = dla_step_peaks()
    assert peak < 50


def test_a_dla_steps_backward_pass_peaks_no_higher_than_its_forward():
    # the backward pass frees each gradient once its operands have theirs;
    # a walk that kept every node to its end grew the live set from 14 to
    # 35 MB and peaked at 40 MB, against 20 MB for the forward pass
    forward_peak, step_peak = dla_step_peaks()
    assert step_peak - forward_peak <= 2, (forward_peak, step_peak)
    assert step_peak < 24


def test_train_refuses_images_the_model_cannot_take():
    cfg = TrainConfig(mode="no_adapt", batch_size=4, steps=1, val_every=0, timing=False)
    with pytest.raises(ConfigError, match=r"source images have shape \(1, 28, 28\), the model takes \(1, 8, 8\)"):
        train(cfg, TrainData(source=make_synthetic(8, 1)), SPEC)
    val = make_synthetic(8, 2, hw=(8, 9))
    with pytest.raises(ConfigError, match=r"val images have shape \(1, 8, 9\)"):
        train(cfg, TrainData(source=make_synthetic(8, 1, hw=(8, 8)), val=val), SPEC)
