import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelalign import autodiff as ad
from labelalign.autodiff import AutodiffError, Tensor, backward

from conftest import numeric_grad, rel_err


def t64(arr, grad=True):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------


def test_matmul_identity():
    rng = np.random.default_rng(0)
    b = rng.standard_normal((3, 3))
    out = ad.matmul(t64(np.eye(3)), t64(b))
    np.testing.assert_allclose(out.data, b, rtol=0, atol=0)


def test_matmul_manual_case():
    out = ad.matmul(t64([[1.0, 2.0], [3.0, 4.0]]), t64([[0.0], [1.0]]))
    np.testing.assert_array_equal(out.data, [[2.0], [4.0]])


def test_matmul_annihilator():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((4, 5))
    out = ad.matmul(t64(a), t64(np.zeros((5, 2))))
    np.testing.assert_array_equal(out.data, np.zeros((4, 2)))


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(AutodiffError, match=r"\(2, 3\).*\(2, 2\)"):
        ad.matmul(t64(np.zeros((2, 3))), t64(np.zeros((2, 2))))


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------


def test_conv2d_identity_kernel():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 5, 5, 3))
    k = np.zeros((3, 3, 1, 1))
    for c in range(3):
        k[c, c, 0, 0] = 1.0
    out = ad.conv2d(t64(x), t64(k))
    np.testing.assert_allclose(out.data, x, atol=1e-15)


def test_conv2d_ones_kernel_counts_window():
    x = np.ones((1, 5, 5, 2))
    k = np.ones((1, 2, 3, 3))
    out = ad.conv2d(t64(x), t64(k), stride=1, padding=0)
    assert out.data.shape == (1, 3, 3, 1)
    np.testing.assert_array_equal(out.data, np.full((1, 3, 3, 1), 18.0))


def test_conv2d_zero_kernel():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((1, 4, 4, 2))
    out = ad.conv2d(t64(x), t64(np.zeros((3, 2, 2, 2))))
    assert out.data.shape == (1, 3, 3, 3)
    np.testing.assert_array_equal(out.data, np.zeros_like(out.data))


def test_conv2d_output_shape_formula():
    x = t64(np.zeros((1, 11, 9, 1)))
    k = t64(np.zeros((2, 1, 3, 3)))
    out = ad.conv2d(x, k, stride=2, padding=1)
    assert out.data.shape == (1, (11 + 2 - 3) // 2 + 1, (9 + 2 - 3) // 2 + 1, 2)


def test_conv2d_kernel_too_large_rejected():
    with pytest.raises(AutodiffError, match="larger than padded input"):
        ad.conv2d(t64(np.zeros((1, 2, 2, 1))), t64(np.zeros((1, 1, 5, 5))))


# ---------------------------------------------------------------------------
# softmax / cross entropy
# ---------------------------------------------------------------------------


def test_cross_entropy_uniform_logits():
    loss, probs = ad.softmax_cross_entropy(t64(np.zeros((4, 10))), np.array([0, 3, 5, 9]))
    assert abs(loss.item() - math.log(10)) < 1e-12
    np.testing.assert_allclose(probs.data, 0.1)


def test_cross_entropy_saturated_true_class():
    logits = np.zeros((2, 4))
    logits[0, 1] = 1000.0
    logits[1, 2] = 1000.0
    loss, _ = ad.softmax_cross_entropy(t64(logits), np.array([1, 2]))
    assert loss.item() < 1e-8


def test_cross_entropy_matches_direct_formula():
    rng = np.random.default_rng(4)
    logits = rng.standard_normal((4, 3))
    labels = rng.integers(0, 3, size=4)
    loss, probs = ad.softmax_cross_entropy(t64(logits), labels)
    # independent direct formula at 64-bit
    p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    expected = -np.mean(np.log(p[np.arange(4), labels]))
    assert abs(loss.item() - expected) < 1e-10
    np.testing.assert_allclose(probs.data, p, atol=1e-12)


def test_cross_entropy_label_out_of_range():
    with pytest.raises(AutodiffError, match="label out of range"):
        ad.softmax_cross_entropy(t64(np.zeros((2, 3))), np.array([0, 3]))


def test_cross_entropy_nonnegative_and_softmax_rows_sum_to_one():
    rng = np.random.default_rng(5)
    for _ in range(10):
        logits = rng.standard_normal((6, 7)) * rng.uniform(0.1, 30)
        loss, probs = ad.softmax_cross_entropy(t64(logits), rng.integers(0, 7, size=6))
        assert loss.item() >= 0.0
        np.testing.assert_allclose(probs.data.sum(axis=1), 1.0, atol=1e-6)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_softmax_rows_sum_to_one_property(seed):
    rng = np.random.default_rng(seed)
    logits = rng.standard_normal((3, 5)) * rng.uniform(0.01, 100)
    out = ad.softmax(t64(logits))
    np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-6)


# ---------------------------------------------------------------------------
# backward mechanics
# ---------------------------------------------------------------------------


def test_backward_quadratic():
    x = t64([3.0])
    backward(ad.tsum(ad.mul(x, x)))
    np.testing.assert_array_equal(x.grad, [6.0])


def test_backward_fanout_accumulates_exactly():
    x = t64([1.0, -2.0, 0.5])
    backward(ad.tsum(ad.add(x, x)))
    np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])


def test_backward_rejects_non_scalar():
    x = t64([1.0, 2.0])
    with pytest.raises(AutodiffError, match="scalar"):
        backward(ad.add(x, x))


def test_backward_consumes_graph():
    x = t64([2.0])
    loss = ad.tsum(ad.mul(x, x))
    backward(loss)
    with pytest.raises(AutodiffError, match="consumed"):
        backward(loss)


def test_mixed_dtypes_rejected():
    a = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
    b = Tensor(np.zeros(2, dtype=np.float64))
    with pytest.raises(AutodiffError, match="mixed dtypes"):
        ad.add(a, b)


# ---------------------------------------------------------------------------
# finite-difference invariant: every differentiable primitive
# ---------------------------------------------------------------------------


def _fd_check(build, arrays, n_seeds=10, tol=1e-4, eps=1e-6):
    """build(*tensors) must return a scalar Tensor; arrays(rng) supplies inputs."""
    worst = 0.0
    for seed in range(n_seeds):
        rng = np.random.default_rng(seed)
        inputs = arrays(rng)
        tensors = [t64(a) for a in inputs]
        loss = build(*tensors)
        backward(loss)

        def scalar_fn(*arrs):
            return build(*[t64(a, grad=False) for a in arrs]).item()

        numeric = numeric_grad(scalar_fn, inputs, eps=eps)
        for t, g in zip(tensors, numeric):
            if g.size:
                worst = max(worst, rel_err(t.grad, g))
    assert worst < tol, f"finite-difference mismatch: {worst:.3e}"


def _away_from_kinks(x, margin=1e-3):
    return np.where(np.abs(x) < margin, margin, x)


def test_fd_add_sub_mul_broadcast():
    _fd_check(
        lambda a, b: ad.tsum(ad.mul(ad.add(a, b), ad.sub(a, b))),
        lambda rng: [rng.standard_normal((3, 4)), rng.standard_normal((4,))],
    )


def test_fd_neg_scale():
    _fd_check(
        lambda a: ad.tsum(ad.scale(a, -1.7)),
        lambda rng: [rng.standard_normal((5,))],
    )


def test_fd_matmul():
    _fd_check(
        lambda a, b: ad.tsum(ad.mul(ad.matmul(a, b), ad.matmul(a, b))),
        lambda rng: [rng.standard_normal((3, 4)), rng.standard_normal((4, 2))],
    )


def test_fd_relu():
    _fd_check(
        lambda a: ad.tsum(ad.mul(ad.relu(a), ad.relu(a))),
        lambda rng: [_away_from_kinks(rng.standard_normal((4, 4)))],
    )


def test_fd_sigmoid():
    _fd_check(
        lambda a: ad.tsum(ad.sigmoid(a)),
        lambda rng: [rng.standard_normal((6,))],
    )


def test_fd_reshape_sum_mean():
    _fd_check(
        lambda a: ad.tsum(ad.mul(ad.reshape(a, (24,)), ad.reshape(ad.transpose(a, (1, 2, 0)), (24,)))),
        lambda rng: [rng.standard_normal((2, 3, 4))],
    )


def test_fd_conv2d():
    _fd_check(
        lambda x, k: ad.tsum(ad.mul(ad.conv2d(x, k, stride=2, padding=1),
                                    ad.conv2d(x, k, stride=2, padding=1))),
        lambda rng: [rng.standard_normal((2, 5, 5, 2)), rng.standard_normal((3, 2, 3, 3))],
        eps=1e-5,
    )


def test_fd_maxpool():
    _fd_check(
        lambda x: ad.tsum(ad.mul(ad.maxpool2x2(x), ad.maxpool2x2(x))),
        lambda rng: [rng.standard_normal((2, 5, 7, 2))],
    )


def test_fd_softmax():
    _fd_check(
        lambda x: ad.tsum(ad.mul(ad.softmax(x), ad.softmax(x))),
        lambda rng: [rng.standard_normal((3, 5))],
    )


def test_fd_cross_entropy():
    labels = np.array([0, 2, 1])
    _fd_check(
        lambda x: ad.softmax_cross_entropy(x, labels)[0],
        lambda rng: [rng.standard_normal((3, 4))],
    )


def test_fd_squared_error_and_mean_squared_norm():
    # squared error against a constant target is the mean squared norm of the residual
    target = np.array([[0.2, 0.8], [1.0, 0.0]])
    _fd_check(
        lambda x: ad.add(ad.mean_squared_norm(ad.sub(x, target)), ad.mean_squared_norm(x)),
        lambda rng: [rng.standard_normal((2, 2))],
    )


def test_maxpool_tie_break_first_occurrence():
    x = np.ones((1, 2, 4, 2))  # all equal: gradient must land on the first window element
    x[0, :, 2:, 1] = [[0.0, 3.0], [3.0, 3.0]]  # ties after a smaller first element
    t = t64(x)
    backward(ad.tsum(ad.maxpool2x2(t)))
    np.testing.assert_array_equal(t.grad[0, :, :, 0], [[1.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    np.testing.assert_array_equal(t.grad[0, :, :, 1], [[1.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0]])


def test_forward_and_gradients_deterministic():
    def run():
        rng = np.random.default_rng(11)
        x = t64(rng.standard_normal((2, 6, 6, 1)))
        k = t64(rng.standard_normal((2, 1, 3, 3)))
        out = ad.relu(ad.conv2d(x, k, padding=1))
        loss = ad.tsum(ad.mul(out, out))
        backward(loss)
        return loss.item(), x.grad.copy(), k.grad.copy()

    l1, gx1, gk1 = run()
    l2, gx2, gk2 = run()
    assert l1 == l2
    np.testing.assert_array_equal(gx1, gx2)
    np.testing.assert_array_equal(gk1, gk2)
