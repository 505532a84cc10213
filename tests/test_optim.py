import numpy as np
import pytest

from labelalign.autodiff import Tensor
from labelalign.optim import Adam, OptimizerError


def param_set(**named):
    return {
        name: Tensor(np.asarray(value, dtype=np.float64), requires_grad=True)
        for name, value in named.items()
    }


def test_adam_single_step_magnitude_and_sign():
    # bias-corrected first step: update = alpha * g / (|g| + eps) ~ alpha * sign(g)
    for g in (3.7, -0.02, 150.0):
        ps = param_set(p=[0.0])
        ps["p"].grad = np.array([g])
        alpha = 1e-3
        Adam(alpha=alpha).step(ps)
        delta = float(ps["p"].data[0])
        assert np.sign(delta) == -np.sign(g)
        assert abs(abs(delta) - alpha) < 1e-5 * alpha + 1e-11


def test_step_rejects_missing_gradient():
    ps = param_set(a=[1.0], b=[2.0])
    ps["a"].grad = np.array([1.0])
    with pytest.raises(OptimizerError, match="'b' has no gradient"):
        Adam(alpha=0.1).step(ps)


def test_step_clears_gradients():
    ps = param_set(p=[1.0])
    ps["p"].grad = np.array([1.0])
    Adam(alpha=0.1).step(ps)
    assert ps["p"].grad is None


def test_adam_moment_shapes_match_parameters():
    ps = param_set(w=np.zeros((3, 2)), b=np.zeros(2))
    for _, t in ps.items():
        t.grad = np.ones_like(t.data)
    opt = Adam(alpha=0.01)
    opt.step(ps)
    assert opt._m["w"].shape == (3, 2)
    assert opt._v["b"].shape == (2,)


def test_adam_matches_reference_formula_over_steps():
    # independent oracle: replay the textbook recurrences at 64-bit
    rng = np.random.default_rng(0)
    grads = [rng.standard_normal(4) for _ in range(5)]
    ps = param_set(p=np.zeros(4))
    alpha, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
    opt = Adam(alpha=alpha, beta1=b1, beta2=b2, eps=eps)
    ref = np.zeros(4)
    m = np.zeros(4)
    v = np.zeros(4)
    for t, g in enumerate(grads, start=1):
        ps["p"].grad = g.copy()
        opt.step(ps)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        ref = ref - alpha * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
    np.testing.assert_allclose(ps["p"].data, ref, rtol=1e-12, atol=1e-15)

