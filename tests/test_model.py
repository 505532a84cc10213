import numpy as np
import pytest

from labelalign.autodiff import Tensor
from labelalign.model import DEFAULT_SPEC, ModelError, ModelSpec, build_model, forward_features, forward_head


def test_same_seed_same_bits_and_different_seeds_differ():
    a, b = build_model(DEFAULT_SPEC, seed=5), build_model(DEFAULT_SPEC, seed=5)
    c = build_model(DEFAULT_SPEC, seed=6)
    for name, tensor in a.items():
        np.testing.assert_array_equal(tensor.data, b[name].data)
    assert not np.array_equal(a["feat_w"].data, c["feat_w"].data)
    assert a["k_hat"].data != c["k_hat"].data


def test_biases_start_at_zero():
    params = build_model(DEFAULT_SPEC, seed=0)
    biases = [name for name in params.names() if name.endswith("_b")]
    assert sorted(biases) == ["conv0_b", "conv1_b", "feat_b", "head_b"]
    for name in biases:
        assert not params[name].data.any()


def test_feature_weights_follow_the_he_fan_in_rule():
    feat_w = build_model(DEFAULT_SPEC, seed=0, dtype=np.float64)["feat_w"].data
    assert feat_w.shape == (1568, 128)
    expected = np.sqrt(2.0 / 1568)
    assert abs(feat_w.std() / expected - 1.0) < 0.05


def test_default_spec_maps_a_batch_to_features_and_scores():
    params = build_model(DEFAULT_SPEC, seed=1)
    x = Tensor(np.random.default_rng(2).standard_normal((3, 1, 28, 28)).astype(np.float32))
    phi = forward_features(params, DEFAULT_SPEC, x)
    scores = forward_head(params, phi)
    assert phi.shape == (3, 128)
    assert scores.shape == (3, 10)
    assert phi.data.dtype == scores.data.dtype == np.float32


def test_too_small_image_is_rejected():
    with pytest.raises(ModelError, match="too small"):
        ModelSpec(image_hw=(3, 3))
