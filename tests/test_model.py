import numpy as np
import pytest

from labelalign import autodiff as ad
from labelalign.autodiff import Tensor
from labelalign.model import DEFAULT_SPEC, ModelError, ModelSpec, build_model, forward_features, forward_head


def test_same_seed_same_bits_and_different_seeds_differ():
    a, b = build_model(DEFAULT_SPEC, seed=5), build_model(DEFAULT_SPEC, seed=5)
    c = build_model(DEFAULT_SPEC, seed=6)
    for name, tensor in a.items():
        np.testing.assert_array_equal(tensor.data, b[name].data)
    assert not np.array_equal(a["feat_w"].data, c["feat_w"].data)


def test_biases_start_at_zero():
    params = build_model(DEFAULT_SPEC, seed=0)
    biases = [name for name in params if name.endswith("_b")]
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


def test_relu_and_max_pool_commute_in_values_and_gradients():
    # integer values in [-2, 2] give windows with ties, all-negative windows
    # and exact zeros (odd trailing rows and columns are dropped by both)
    rng = np.random.default_rng(7)
    x = rng.integers(-2, 3, size=(3, 9, 7, 4)).astype(np.float64)
    windows = x[:, :8, :6].reshape(3, 4, 2, 3, 2, 4).transpose(0, 1, 3, 5, 2, 4).reshape(-1, 4)
    top = windows.max(axis=1)
    assert (top < 0).any() and (top == 0).any()
    assert ((windows == top[:, None]).sum(axis=1) > 1).any()
    upstream = rng.standard_normal((3, 4, 3, 4))

    def run(stage):
        t = Tensor(x, requires_grad=True)
        out = stage(t)
        ad.backward(ad.tsum(ad.mul(out, Tensor(upstream))))
        return out.data, t.grad

    pooled_first = run(lambda t: ad.relu(ad.maxpool2x2(t)))
    relu_first = run(lambda t: ad.maxpool2x2(ad.relu(t)))
    for a, b in zip(pooled_first, relu_first):
        np.testing.assert_array_equal(a, b)


def test_bias_and_max_pool_commute_in_values_and_gradients():
    # x + b rounds monotonically in x, so pooling first gives the same bits
    # even where rounding makes neighbours tie: float32 inputs far below the
    # bias's unit in the last place collapse onto it
    rng = np.random.default_rng(11)
    x = (rng.standard_normal((2, 8, 6, 3)) * np.array([1.0, 1e-3, 1e-7])).astype(np.float32)
    b = Tensor(np.array([0.5, 1.0, -1000.0], np.float32).reshape(1, 1, 1, 3))
    pooled_first = ad.maxpool2x2(ad.add(Tensor(x), b)).data
    assert (pooled_first[..., 2] == np.float32(-1000.0)).all()
    np.testing.assert_array_equal(ad.add(ad.maxpool2x2(Tensor(x)), b).data, pooled_first)

    # integer inputs with ties, integer biases and upstream: every sum is
    # exact, so the gradients must match bitwise as well
    x = rng.integers(-2, 3, size=(3, 9, 7, 4)).astype(np.float64)
    upstream = rng.integers(-3, 4, size=(3, 4, 3, 4)).astype(np.float64)

    def run(stage):
        t = Tensor(x, requires_grad=True)
        bias = Tensor(np.array([-1.0, 0.0, 1.0, 2.0]), requires_grad=True)
        out = ad.relu(stage(t, bias.reshape(1, 1, 1, -1)))
        ad.backward(ad.tsum(ad.mul(out, Tensor(upstream))))
        return out.data, t.grad, bias.grad

    bias_last = run(lambda t, b: ad.add(ad.maxpool2x2(t), b))
    bias_first = run(lambda t, b: ad.maxpool2x2(ad.add(t, b)))
    for a, b in zip(bias_last, bias_first):
        np.testing.assert_array_equal(a, b)


def reference_features(params, spec, images):
    """NCHW float64 loops: conv, bias, ReLU, 2x2 max pool, flatten, dense."""
    x = images
    pad = spec.kernel_size // 2
    for i in range(len(spec.conv_channels)):
        w, b = params[f"conv{i}_w"].data, params[f"conv{i}_b"].data
        n, c, h, wd = x.shape
        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        conv = np.zeros((n, w.shape[0], h, wd))
        for di in range(w.shape[2]):
            for dj in range(w.shape[3]):
                conv += np.einsum("nchw,oc->nohw", xp[:, :, di : di + h, dj : dj + wd], w[:, :, di, dj])
        act = np.maximum(conv + b[None, :, None, None], 0.0)
        h2, w2 = h // 2, wd // 2
        x = act[:, :, : 2 * h2, : 2 * w2].reshape(n, -1, h2, 2, w2, 2).max(axis=(3, 5))
    return x.reshape(len(x), -1) @ params["feat_w"].data + params["feat_b"].data


def test_float64_features_match_an_nchw_reference():
    spec = ModelSpec(image_hw=(11, 10), in_channels=2, conv_channels=(3, 5), feature_dim=6)
    params = build_model(spec, seed=3, dtype=np.float64)
    for name in ("conv0_b", "conv1_b"):
        params[name].data[:] = np.random.default_rng(4).standard_normal(params[name].shape)
    images = np.random.default_rng(5).standard_normal((4, 2, 11, 10))
    phi = forward_features(params, spec, Tensor(images))
    expected = reference_features(params, spec, images)
    assert np.abs(phi.data - expected).max() <= 1e-12 * np.abs(expected).max()


def test_float64_default_spec_features_match_the_nchw_reference():
    # 32 channels of 7x7 flatten into the 1568 rows of feat_w in NCHW order
    params = build_model(DEFAULT_SPEC, seed=6, dtype=np.float64)
    for name in ("conv0_b", "conv1_b"):
        params[name].data[:] = np.random.default_rng(7).standard_normal(params[name].shape) * 0.1
    images = np.random.default_rng(8).random((5, 1, 28, 28))
    phi = forward_features(params, DEFAULT_SPEC, Tensor(images))
    expected = reference_features(params, DEFAULT_SPEC, images)
    assert np.abs(phi.data - expected).max() <= 1e-12 * np.abs(expected).max()
