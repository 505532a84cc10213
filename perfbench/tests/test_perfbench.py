"""Tests of the benchmark itself: inputs, statistics, checks and the metric list.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import checks
import datagen
import run
import stats
import tracing
import workloads
from labelalign import autodiff, model, spectral, training
from labelalign.autodiff import Tensor
from labelalign.data import ImageDataset, load_usps, make_synthetic

ROOT = Path(__file__).resolve().parents[2]


# ---------------------------------------------------------------------------
# generated inputs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def generated():
    return datagen.generate(7), datagen.generate(7), datagen.generate(8)


def test_same_seed_gives_identical_inputs(generated):
    a, b, _ = generated
    for name in ("mnist_train", "mnist_test", "usps_train", "usps_test"):
        assert np.array_equal(getattr(a, name).pixels, getattr(b, name).pixels)
        assert np.array_equal(getattr(a, name).labels, getattr(b, name).labels)


def test_different_seed_gives_different_inputs(generated):
    a, _, c = generated
    for name in ("mnist_train", "mnist_test", "usps_train", "usps_test"):
        assert not np.array_equal(getattr(a, name).pixels, getattr(c, name).pixels)


def test_generated_sizes_match_the_real_files(generated):
    a, _, _ = generated
    assert a.mnist_train.pixels.shape == (60_000, 28, 28)
    assert a.mnist_test.pixels.shape == (10_000, 28, 28)
    assert a.usps_train.pixels.shape == (7_291, 16, 16)
    assert a.usps_test.pixels.shape == (2_007, 16, 16)


def test_usps_text_is_deterministic_and_round_trips(tmp_path, generated):
    a, b, _ = generated
    small = datagen.Split(pixels=a.usps_test.pixels[:40], labels=a.usps_test.labels[:40])
    text = datagen._usps_text(small)
    assert text == datagen._usps_text(datagen.Split(b.usps_test.pixels[:40], b.usps_test.labels[:40]))
    path = tmp_path / "usps.txt"
    path.write_bytes(text)
    ds = load_usps(path)
    assert checks.usps_failure(ds.images, small, 28) is None
    assert np.array_equal(ds.labels, small.labels)


def test_usps_round_trip_detects_a_changed_pixel(tmp_path, generated):
    a, _, _ = generated
    small = datagen.Split(pixels=a.usps_test.pixels[:5].copy(), labels=a.usps_test.labels[:5])
    path = tmp_path / "usps.txt"
    path.write_bytes(datagen._usps_text(small))
    ds = load_usps(path)
    small.pixels[2, 8, 8] ^= 1
    assert checks.usps_failure(ds.images, small, 28) is not None


# ---------------------------------------------------------------------------
# tail percentile
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "n, p",
    [(5, None), (10, None), (11, 9), (20, 50), (40, 75), (57, 82), (100, 90), (200, 95), (1000, 99)],
)
def test_tail_percentile_keeps_ten_samples_above(n, p):
    assert stats.tail_percentile(n) == p


@pytest.mark.parametrize("n", [11, 12, 19, 20, 21, 37, 57, 99, 100, 101, 333])
def test_tail_value_has_ten_samples_above_and_is_the_highest_such(n):
    samples = list(range(n))
    value, p = stats.tail(samples)
    assert sum(s > value for s in samples) >= stats.TAIL_MIN_ABOVE
    # one percentile higher would leave fewer than ten above
    higher = stats.nearest_rank(samples, p + 1)
    assert sum(s > higher for s in samples) < stats.TAIL_MIN_ABOVE or p + 1 > 100 * (n - 10) / n


# ---------------------------------------------------------------------------
# correctness checks count failures
# ---------------------------------------------------------------------------


def _learning_losses(steps=20):
    return [2.5 - 0.1 * i for i in range(steps)]


def test_good_episode_passes():
    losses = _learning_losses()
    failed, reason = checks.episode_failures(losses, [0.5] * 20, 20)
    assert (failed, reason) == (0, None)


def test_nan_loss_fails_the_step_and_counts():
    losses = _learning_losses()
    losses[7] = math.nan
    failed, reason = checks.episode_failures(losses, [0.5] * 20, 20)
    assert failed == 1 and "non-finite" in reason
    tally = checks.Tally()
    tally.add(20, failed, reason)
    assert tally.failed / tally.attempted == pytest.approx(0.05)


def test_gate_outside_unit_interval_fails():
    failed, reason = checks.episode_failures(_learning_losses(), [0.5] * 19 + [1.0], 20)
    assert failed == 1 and "outside (0, 1)" in reason


def test_abort_counts_unreached_steps():
    failed, reason = checks.episode_failures(_learning_losses(6), [0.5] * 6, 20)
    assert failed == 14 and "aborted" in reason


def test_episode_that_does_not_learn_fails_whole():
    failed, reason = checks.episode_failures([1.0] * 20, [0.5] * 20, 20)
    assert failed == 20 and "did not fall" in reason


def test_episode_that_differs_from_the_same_seed_fails_whole():
    losses = _learning_losses()
    other = list(losses)
    other[3] += 1e-7
    failed, reason = checks.episode_failures(other, [0.5] * 20, 20, reference=losses)
    assert failed == 20 and "differ" in reason


@pytest.fixture(scope="module")
def eval_slice():
    spec = model.DEFAULT_SPEC
    params = model.build_model(spec, 3)
    rng = np.random.default_rng(0)
    images = rng.random((64, 1, 28, 28)).astype(np.float32)
    labels = rng.integers(0, 10, size=64)
    scores = model.forward_scores(params, spec, Tensor(images)).data
    reference = checks.reference_scores({k: t.data for k, t in params.items()}, spec, images)
    ds = ImageDataset(images=images, labels=labels, provenance="synthetic", split="test")
    return scores, reference, labels, training.evaluate(params, spec, ds)


def test_forward_matches_reference(eval_slice):
    scores, reference, labels, accuracy = eval_slice
    assert checks.forward_failure(scores, reference, labels, accuracy) is None


def test_perturbed_logit_fails_the_check_and_counts(eval_slice):
    scores, reference, labels, accuracy = eval_slice
    bad = scores.copy()
    bad[5, 3] += 0.01 * max(1.0, float(np.abs(reference).max()))
    reason = checks.forward_failure(bad, reference, labels, accuracy)
    assert reason is not None and "reference" in reason
    tally = checks.Tally()
    tally.check(reason)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_wrong_accuracy_fails_the_check(eval_slice):
    scores, reference, labels, accuracy = eval_slice
    assert checks.forward_failure(scores, reference, labels, accuracy + 2 / len(labels)) is not None


# ---------------------------------------------------------------------------
# BENCHMARK.json
# ---------------------------------------------------------------------------


def test_benchmark_json_lists_the_metrics_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOADS)
    for key, listed in (("end_to_end", workloads.END_TO_END), ("per_layer", workloads.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in spec[key]] == listed


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


def test_traced_training_labels_every_backward_closure_and_restores_the_program():
    originals = (autodiff.conv2d, autodiff.backward, training.dla_loss, spectral.thin_svd)
    source = make_synthetic(32, 1)
    target = make_synthetic(32, 2).drop_labels()
    cfg = training.TrainConfig(batch_size=8, steps=2, val_every=0, gradient_mode="full")
    tracer = tracing.Tracer()
    with tracer.installed():
        training.train(cfg, training.TrainData(source=source, target=target), model.DEFAULT_SPEC)
    assert (autodiff.conv2d, autodiff.backward, training.dla_loss, spectral.thin_svd) == originals

    names = {s.name for s in tracer.spans}
    for expected in (
        "autodiff.conv2d.conv0",
        "autodiff.conv2d.conv1.bwd",
        "autodiff.maxpool2x2.pool1.bwd",
        "autodiff.matmul.head.bwd",
        "spectral.thin_svd",
        "spectral.filter.bwd",
        "spectral.gate.bwd",
        "training.dla_loss.bwd",
        "optim.adam.step",
    ):
        assert expected in names
    assert not any(n.startswith("autodiff.unlabelled") for n in names)
    # two feature passes per dla step, each with two convolutions
    assert sum(s.name.startswith("autodiff.conv2d.conv") and not s.name.endswith(".bwd") for s in tracer.spans) == 8
    for span in tracer.spans:
        assert 0.0 <= span.child_time <= span.end - span.start + 1e-9
