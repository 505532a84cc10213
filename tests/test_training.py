import numpy as np
import pytest

from conftest import numeric_grad, rel_err
from labelalign import autodiff as ad
from labelalign import training
from labelalign.autodiff import Tensor
from labelalign.data import make_synthetic
from labelalign.model import DEFAULT_SPEC, ModelSpec, build_model, forward_features, forward_head
from labelalign.spectral import SpectralError
from labelalign.training import TrainConfig, TrainData, dla_loss, evaluate, train, trainable_names

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


@pytest.mark.parametrize("mode", ["dla", "partial_la"])
def test_full_mode_matches_finite_differences_on_every_parameter(mode):
    assert worst_gradient_error(mode, "full") < 1e-6


def test_projected_mode_matches_on_parameters_the_factors_do_not_depend_on():
    assert worst_gradient_error("dla", "projected", ["head_w", "head_b", "k_hat"]) < 1e-6


def test_no_adapt_matches_on_weights_and_leaves_the_gate_untrained():
    params = build_model(SPEC, seed=4, dtype=np.float64)
    names = trainable_names(params, TrainConfig(mode="no_adapt"))
    assert "k_hat" not in names
    assert sorted(names) == sorted(n for n in params.names() if n != "k_hat")
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
    assert all(p.grad is None for p in params.tensors())


# (total, k, src_acc) per step of a float64 run at batch 16 on synthetic data,
# recorded at commit d0847ce; a reordered sum moves these by ~1e-14, well
# inside the tolerance, while a change to the math moves them far beyond it
GOLDEN = {
    "dla": [
        (3.24067517126862, 0.5989873728494957, 0.0),
        (2.8590528384905154, 0.5987471494348179, 0.0625),
        (2.625514579803377, 0.5985627361130906, 0.125),
        (2.430635892125545, 0.5983553406030397, 0.125),
        (3.079794420219808, 0.5981596302254049, 0.125),
    ],
    "no_adapt": [
        (3.242059390854008, 0.5989873728494957, 0.0),
        (3.2268023730611186, 0.5989873728494957, 0.1875),
        (4.298950300330786, 0.5989873728494957, 0.0625),
        (2.0087595849918927, 0.5989873728494957, 0.375),
        (3.263034812000712, 0.5989873728494957, 0.3125),
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
