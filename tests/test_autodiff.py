import math
import os
import signal
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelalign import autodiff as ad
from labelalign import spectral
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
    x = rng.standard_normal((2, 5, 5, 3)).transpose(3, 1, 2, 0)  # CHWN
    k = np.zeros((3, 3, 1, 1))
    for c in range(3):
        k[c, c, 0, 0] = 1.0
    out = ad.conv2d(t64(x), t64(k))
    np.testing.assert_allclose(out.data, x, atol=1e-15)


def test_conv2d_ones_kernel_counts_window():
    x = np.ones((2, 5, 5, 1))
    k = np.ones((1, 2, 3, 3))
    out = ad.conv2d(t64(x), t64(k), stride=1, padding=0)
    assert out.data.shape == (1, 3, 3, 1)
    np.testing.assert_array_equal(out.data, np.full((1, 3, 3, 1), 18.0))


def test_conv2d_zero_kernel():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((1, 4, 4, 2)).transpose(3, 1, 2, 0)  # CHWN
    out = ad.conv2d(t64(x), t64(np.zeros((3, 2, 2, 2))))
    assert out.data.shape == (3, 3, 3, 1)
    np.testing.assert_array_equal(out.data, np.zeros_like(out.data))


def test_conv2d_output_shape_formula():
    x = t64(np.zeros((1, 11, 9, 1)))
    k = t64(np.zeros((2, 1, 3, 3)))
    out = ad.conv2d(x, k, stride=2, padding=1)
    assert out.data.shape == (2, (11 + 2 - 3) // 2 + 1, (9 + 2 - 3) // 2 + 1, 1)


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


def test_gradients_handed_to_two_leaves_do_not_alias():
    # add hands one buffer to both operands; a later gradient for ``a`` must
    # not write into the buffer ``b`` holds
    a, b = t64([1.0, 2.0]), t64([3.0, 4.0])
    backward(ad.tsum(ad.add(ad.add(a, b), a)))
    np.testing.assert_array_equal(b.grad, [1.0, 1.0])
    np.testing.assert_array_equal(a.grad, [2.0, 2.0])

    # the same with a writable shared buffer (scale allocates a fresh one)
    a, b = t64([1.0, 2.0]), t64([3.0, 4.0])
    backward(ad.tsum(ad.scale(ad.add(ad.add(a, b), a), 3.0)))
    np.testing.assert_array_equal(b.grad, [3.0, 3.0])
    np.testing.assert_array_equal(a.grad, [6.0, 6.0])


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


def test_backward_frees_each_walked_node_as_it_goes():
    # a chain of scales over a 4 MB leaf: a walk that kept every node until
    # it ended kept one gradient per link, so its peak grew with the chain
    leaf = t64(np.ones((512, 1024)))
    operand = leaf.data.nbytes
    for links in (2, 10):
        out = leaf
        for _ in range(links):
            out = ad.scale(out, 0.5)
        loss = ad.tsum(out)
        del out
        leaf.grad = None
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (leaf.grad == 0.5**links).all()
        assert peak - before < 3 * operand, (links, peak - before)


def test_tensors_the_caller_holds_keep_values_and_gradients():
    x = t64([1.0, -2.0, 3.0])
    mid = ad.scale(x, 2.0)
    loss = ad.tsum(ad.mul(ad.relu(mid), mid))
    backward(loss)
    assert mid._backward is None and mid._parents == ()  # its graph record is gone
    np.testing.assert_array_equal(mid.data, [2.0, -4.0, 6.0])
    np.testing.assert_array_equal(mid.grad, [4.0, 0.0, 12.0])
    np.testing.assert_array_equal(x.grad, [8.0, 0.0, 24.0])
    assert loss.item() == 40.0 and loss.grad == 1.0


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


RELU_SPECIALS = [np.nan, np.copysign(np.nan, -1.0), 0.0, -0.0, np.inf, -np.inf]


@st.composite
def relu_inputs(draw):
    """An array of any float with NaN of either sign, signed zeros, infinities
    and subnormals mixed in, plus a finite upstream gradient."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    info = np.finfo(dtype)
    width = 32 if dtype == np.float32 else 64
    tiny = float(info.smallest_subnormal)
    specials = RELU_SPECIALS + [tiny, -tiny, float(info.smallest_normal) / 2, -float(info.smallest_normal) / 2]
    values = draw(st.lists(st.sampled_from(specials) | st.floats(width=width), max_size=40))
    grads = draw(st.lists(st.floats(-1e3, 1e3, width=width), min_size=len(values), max_size=len(values)))
    return np.array(values, dtype=dtype), np.array(grads, dtype=dtype)


@given(relu_inputs())
@settings(max_examples=200, deadline=None)
def test_relu_matches_where_bitwise(case):
    a, g = case
    t = Tensor(a, requires_grad=True)
    out = ad.relu(t)
    with np.errstate(invalid="ignore", over="ignore"):  # the loss may be inf * 0
        backward(ad.tsum(ad.mul(out, Tensor(g))))
    assert out.data.dtype == t.grad.dtype == a.dtype
    assert out.data.tobytes() == np.where(a > 0, a, 0).tobytes()
    assert t.grad.tobytes() == (g * (a > 0)).tobytes()


def test_fd_reshape_sum_mean():
    _fd_check(
        lambda a: ad.tsum(ad.mul(ad.reshape(a, (24,)), ad.reshape(ad.transpose(a, (1, 2, 0)), (24,)))),
        lambda rng: [rng.standard_normal((2, 3, 4))],
    )


# (CHWN input, OIHW kernel, stride, padding); the 2x3 kernels on a 5x6 input
# catch a swapped height and width anywhere in the forward or the backward
CONV_CASES = [
    ((2, 5, 5, 2), (3, 2, 3, 3), 2, 1),
    ((2, 5, 6, 2), (3, 2, 2, 3), 1, 0),
    ((2, 5, 6, 2), (3, 2, 2, 3), 2, 1),
]


def test_fd_conv2d():
    for x_shape, k_shape, stride, padding in CONV_CASES:
        _fd_check(
            lambda x, k: ad.tsum(ad.mul(ad.conv2d(x, k, stride=stride, padding=padding),
                                        ad.conv2d(x, k, stride=stride, padding=padding))),
            lambda rng: [rng.standard_normal(x_shape), rng.standard_normal(k_shape)],
            eps=1e-5,
        )


def einsum_conv(x, k, stride, padding):
    """The float64 reference: a CHWN conv as one NCHW einsum per kernel tap."""
    xp = np.pad(x.transpose(3, 0, 1, 2), ((0, 0), (0, 0), (padding,) * 2, (padding,) * 2))
    kh, kw = k.shape[2:]
    ho = (xp.shape[2] - kh) // stride + 1
    wo = (xp.shape[3] - kw) // stride + 1
    expected = 0.0
    for i in range(kh):
        for j in range(kw):
            patch = xp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride]
            expected = expected + np.einsum("nchw,oc->nohw", patch, k[:, :, i, j])
    return expected.transpose(1, 2, 3, 0)


def test_conv2d_matches_an_nchw_einsum_reference():
    rng = np.random.default_rng(6)
    for x_shape, k_shape, stride, padding in CONV_CASES:
        x = rng.standard_normal(x_shape)
        k = rng.standard_normal(k_shape)
        out = ad.conv2d(t64(x), t64(k), stride=stride, padding=padding)
        assert rel_err(out.data, einsum_conv(x, k, stride, padding)) < 1e-12


# (stride, padding, output rows per column block); the 15-row input gives 7
# output rows at stride 2 unpadded, 9 with padding 2 and 17 at stride 1, so
# 2- and 4-row blocks end ragged
BLOCK_CASES = [(2, 0, 1), (2, 0, 2), (2, 2, 1), (2, 2, 2), (1, 2, 4)]


def use_column_blocks(monkeypatch, x_shape, k_shape, stride, padding, rows):
    """Size the column-block budget to ``rows`` output rows; returns how many
    blocks a conv of these shapes then builds."""
    c, h, w, b = x_shape
    kh, kw = k_shape[2:]
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    monkeypatch.setattr(ad, "COLUMN_BLOCK_BYTES", rows * kh * kw * c * wo * b * 8)
    return -(-ho // rows)


@pytest.mark.parametrize("stride, padding, rows", BLOCK_CASES)
def test_blocked_conv2d_matches_the_einsum_reference(monkeypatch, stride, padding, rows):
    x_shape, k_shape = (2, 15, 9, 3), (3, 2, 3, 2)
    assert use_column_blocks(monkeypatch, x_shape, k_shape, stride, padding, rows) >= 4
    rng = np.random.default_rng(rows)
    x, k = rng.standard_normal(x_shape), rng.standard_normal(k_shape)
    out = ad.conv2d(t64(x), t64(k), stride=stride, padding=padding)
    assert rel_err(out.data, einsum_conv(x, k, stride, padding)) < 1e-12


def einsum_conv_grads(x, k, g, stride, padding):
    """The float64 reference gradients of ``sum(g * conv2d(x, k))``: ``(dx,
    dk)`` from two NCHW einsums per kernel tap."""
    xp = np.pad(x.transpose(3, 0, 1, 2), ((0, 0), (0, 0), (padding,) * 2, (padding,) * 2))
    gn = g.transpose(3, 0, 1, 2)
    kh, kw = k.shape[2:]
    ho, wo = g.shape[1:3]
    dxp, dk = np.zeros_like(xp), np.zeros_like(k)
    for i in range(kh):
        for j in range(kw):
            patch = np.s_[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride]
            dk[:, :, i, j] = np.einsum("nohw,nchw->oc", gn, xp[patch])
            dxp[patch] += np.einsum("nohw,oc->nchw", gn, k[:, :, i, j])
    h, w = x.shape[1:3]
    return dxp[:, :, padding : padding + h, padding : padding + w].transpose(1, 2, 3, 0), dk


@pytest.mark.parametrize("stride, padding, rows", BLOCK_CASES)
def test_blocked_conv2d_gradients_match_the_einsum_reference(monkeypatch, stride, padding, rows):
    x_shape, k_shape = (2, 15, 9, 3), (3, 2, 3, 2)
    assert use_column_blocks(monkeypatch, x_shape, k_shape, stride, padding, rows) >= 4
    rng = np.random.default_rng(rows + 10)
    x, k = t64(rng.standard_normal(x_shape)), t64(rng.standard_normal(k_shape))
    out = ad.conv2d(x, k, stride=stride, padding=padding)
    g = rng.standard_normal(out.shape)
    backward(ad.tsum(ad.mul(out, t64(g, grad=False))))
    dx, dk = einsum_conv_grads(x.data, k.data, g, stride, padding)
    assert rel_err(x.grad, dx) < 1e-12
    assert rel_err(k.grad, dk) < 1e-12


@pytest.mark.parametrize("rows", [1, 2, 4])
def test_conv2d_input_gradient_adds_taps_in_kernel_order(monkeypatch, rows):
    # one output channel and a +-power-of-two kernel make every GEMM product
    # exact, whatever the BLAS; gradients from 1e-8 to 1e8 then make each
    # padded position's sum depend on the order its taps are added in
    x_shape, k_shape, padding = (2, 13, 5, 3), (1, 2, 3, 3), 1
    assert use_column_blocks(monkeypatch, x_shape, k_shape, 1, padding, rows) >= 4
    rng = np.random.default_rng(rows)
    k = rng.choice([-1.0, 1.0], k_shape) * 2.0 ** rng.integers(-3, 4, k_shape)
    x = t64(np.zeros(x_shape))
    out = ad.conv2d(x, t64(k, grad=False), padding=padding)
    g = rng.standard_normal(out.shape) * 10.0 ** rng.uniform(-8, 8, out.shape)
    backward(ad.tsum(ad.mul(out, t64(g, grad=False))))
    c, h, w, _ = x_shape
    ho, wo = out.shape[1:3]
    expected = np.zeros((c, h + 2 * padding, w + 2 * padding, x_shape[3]))
    for i in range(3):
        for j in range(3):
            expected[:, i : i + ho, j : j + wo] += k[0, :, i, j, None, None, None] * g[0]
    np.testing.assert_array_equal(x.grad, expected[:, padding : padding + h, padding : padding + w])


@pytest.mark.parametrize("stride, padding, rows", BLOCK_CASES[:4])
def test_fd_blocked_conv2d(monkeypatch, stride, padding, rows):
    x_shape, k_shape = (1, 15, 5, 2), (2, 1, 3, 2)
    assert use_column_blocks(monkeypatch, x_shape, k_shape, stride, padding, rows) >= 3
    _fd_check(
        lambda x, k: ad.tsum(ad.mul(ad.conv2d(x, k, stride=stride, padding=padding),
                                    ad.conv2d(x, k, stride=stride, padding=padding))),
        lambda rng: [rng.standard_normal(x_shape), rng.standard_normal(k_shape)],
        n_seeds=2,
        eps=1e-5,
    )


def test_conv2d_tape_holds_less_than_a_column_matrix():
    # conv1 of the default model at batch 128: 16 -> 32 channels, 14x14, 3x3 'same'
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal((16, 14, 14, 128), dtype=np.float32), requires_grad=True)
    k = Tensor(rng.standard_normal((32, 16, 3, 3), dtype=np.float32), requires_grad=True)
    columns = 3 * 3 * 16 * 14 * 14 * 128 * 4
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = ad.conv2d(x, k, padding=1)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.requires_grad and out.data.nbytes == 32 * 14 * 14 * 128 * 4
    assert held - before < columns
    assert peak - before < columns


def test_conv2d_backward_peaks_below_a_column_matrix():
    # the same conv1: both gradients are built one column block at a time
    rng = np.random.default_rng(5)
    x = Tensor(rng.standard_normal((16, 14, 14, 128), dtype=np.float32), requires_grad=True)
    k = Tensor(rng.standard_normal((32, 16, 3, 3), dtype=np.float32), requires_grad=True)
    g = Tensor(rng.standard_normal((32, 14, 14, 128), dtype=np.float32))
    loss = ad.tsum(ad.mul(ad.conv2d(x, k, padding=1), g))
    columns = 3 * 3 * 16 * 14 * 14 * 128 * 4
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.grad.shape == x.shape and k.grad.shape == k.shape
    assert peak - before < columns


# ---------------------------------------------------------------------------
# conv2d on two workers
# ---------------------------------------------------------------------------

# (x shape, kernel shape, stride, padding, output rows per column block):
# three blocks of a one-channel input at stride 2, five blocks at stride 1
SPLIT_CASES = [((1, 15, 9, 3), (3, 1, 3, 2), 2, 1, 3), ((2, 15, 9, 3), (3, 2, 3, 2), 1, 2, 4)]


def split_case(monkeypatch, case, dtype):
    """Size the column blocks to the case's rows; returns ``x``, the kernel, an
    output gradient ``g``, the stride and the padding."""
    x_shape, k_shape, stride, padding, rows = case
    c, h, w, b = x_shape
    o, _, kh, kw = k_shape
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    monkeypatch.setattr(ad, "COLUMN_BLOCK_BYTES", rows * kh * kw * c * wo * b * np.dtype(dtype).itemsize)
    assert -(-ho // rows) % 2 == 1  # an odd number of blocks
    rng = np.random.default_rng(rows)
    x, k, g = (rng.standard_normal(shape).astype(dtype) for shape in (x_shape, k_shape, (o, ho, wo, b)))
    return x, k, g, stride, padding


def conv_and_grads(x, k, g, stride, padding, x_grad=True):
    """The output, kernel gradient and input gradient (None without
    ``x_grad``) of ``sum(g * conv2d(x, k))``."""
    xt, kt = Tensor(x, requires_grad=x_grad), Tensor(k, requires_grad=True)
    out = ad.conv2d(xt, kt, stride=stride, padding=padding)
    backward(ad.tsum(ad.mul(out, Tensor(g))))
    return out.data, kt.grad, xt.grad


def assert_same_bits(got, want):
    for a, b in zip(got, want, strict=True):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("x_grad", [True, False], ids=["both-gradients", "kernel-gradient"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", SPLIT_CASES, ids=["c1-stride2", "c2-stride1"])
def test_conv2d_gives_the_same_bits_on_one_worker_and_two(monkeypatch, case, dtype, x_grad):
    x, k, g, stride, padding = split_case(monkeypatch, case, dtype)
    monkeypatch.setattr(ad, "CONV_WORKERS", 1)
    serial = conv_and_grads(x, k, g, stride, padding, x_grad)
    monkeypatch.setattr(ad, "CONV_WORKERS", 2)
    for _ in range(3):  # which thread takes which task varies from call to call
        assert_same_bits(conv_and_grads(x, k, g, stride, padding, x_grad), serial)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", SPLIT_CASES, ids=["c1-stride2", "c2-stride1"])
def test_conv2d_bits_do_not_depend_on_which_slot_runs_which_task(monkeypatch, case, dtype):
    x, k, g, stride, padding = split_case(monkeypatch, case, dtype)
    monkeypatch.setattr(ad, "CONV_WORKERS", 1)
    serial = conv_and_grads(x, k, g, stride, padding)
    schedule = np.random.default_rng(0)

    def shuffled(tasks, workers):
        assert workers == 2
        for i in schedule.permutation(len(tasks)):
            tasks[i](int(schedule.integers(2)))

    monkeypatch.setattr(ad, "CONV_WORKERS", 2)
    monkeypatch.setattr(ad, "_run_tasks", shuffled)
    for _ in range(5):
        assert_same_bits(conv_and_grads(x, k, g, stride, padding), serial)


def test_the_caller_finishes_a_call_alone_when_the_helper_takes_no_task(monkeypatch):
    x, k, g, stride, padding = split_case(monkeypatch, SPLIT_CASES[1], np.float64)
    monkeypatch.setattr(ad, "CONV_WORKERS", 1)
    serial = conv_and_grads(x, k, g, stride, padding)
    monkeypatch.setattr(ad, "CONV_WORKERS", 2)

    entered, released = threading.Event(), threading.Event()

    def stall():
        """Hold the helper until it is released."""
        entered.set()
        released.wait(60)

    ad._helper().submit(stall)
    assert entered.wait(30)
    results = []
    caller = threading.Thread(target=lambda: results.append(conv_and_grads(x, k, g, stride, padding)))
    try:
        caller.start()
        caller.join(30)
        assert not caller.is_alive()
    finally:
        released.set()
    assert_same_bits(results[0], serial)


def test_the_pool_runs_each_task_once_in_the_thread_it_names():
    # more callers than CPUs, switching threads every microsecond
    callers, calls, tasks = 4, 20, 16
    hits = np.zeros((callers, tasks), dtype=np.int64)
    misplaced = []

    def call(row):
        me = threading.current_thread()

        def task(i, slot):
            if (slot == 0) != (threading.current_thread() is me):
                misplaced.append((row, i, slot))
            hits[row, i] += 1

        for _ in range(calls):
            ad._run_tasks([lambda slot, i=i: task(i, slot) for i in range(tasks)], 2)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=call, args=(row,)) for row in range(callers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not misplaced
    assert (hits == calls).all()


def in_both_slots(record):
    """Two tasks that each record their slot and then wait, up to 30 s, for
    the other: they finish only when the caller and the helper run one each."""
    barrier = threading.Barrier(2, timeout=30)

    def task(slot):
        record(slot)
        barrier.wait()

    return [task, task]


def test_a_failing_task_raises_in_the_caller():
    ran = []

    def fail(slot):
        ran.append(slot)
        raise ValueError(f"task failed in slot {slot}")

    with pytest.raises(ValueError, match="task failed"):
        ad._run_tasks([fail] * 16, 2)
    assert len(ran) <= 2  # a failure stops further claims, so each thread fails once at most
    slots = []  # and the helper is not stuck: the next call runs a task in each slot
    ad._run_tasks(in_both_slots(slots.append), 2)
    assert sorted(slots) == [0, 1]


def test_every_task_runs_under_the_callers_errstate():
    seen = {}
    with np.errstate(over="raise", invalid="ignore"):
        want = np.geterr()
        ad._run_tasks(in_both_slots(lambda slot: seen.update({slot: np.geterr()})), 2)
    assert want != np.geterr()
    assert seen == {0: want, 1: want}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
@pytest.mark.filterwarnings("ignore::DeprecationWarning")  # forking a process that has threads
def test_a_forked_child_runs_conv2d_on_two_workers_with_a_helper_of_its_own(monkeypatch):
    x, k, g, stride, padding = split_case(monkeypatch, SPLIT_CASES[1], np.float64)
    monkeypatch.setattr(ad, "CONV_WORKERS", 1)
    serial = conv_and_grads(x, k, g, stride, padding)
    monkeypatch.setattr(ad, "CONV_WORKERS", 2)
    conv_and_grads(x, k, g, stride, padding)  # starts the parent's helper
    pid = os.fork()
    if pid == 0:  # the child reports through its exit status
        status = 1
        try:
            slots = []
            ad._run_tasks(in_both_slots(slots.append), 2)
            assert_same_bits(conv_and_grads(x, k, g, stride, padding), serial)
            status = 0 if sorted(slots) == [0, 1] else 1
        finally:
            os._exit(status)
    deadline = time.monotonic() + 60
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert done[0] == pid, "the child did not finish in 60 s"
    assert os.waitstatus_to_exitcode(done[1]) == 0


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


def first_hit_pool(x, upstream):
    """The four-pass reference: 2x2 max pool over axes 1 and 2, and the input
    gradient routed to the first window element, in row-major order, equal
    to the maximum."""
    ho, wo = x.shape[1] // 2, x.shape[2] // 2
    corners = [np.s_[:, i : 2 * ho : 2, j : 2 * wo : 2] for i in (0, 1) for j in (0, 1)]
    p, q, r, s = (x[k] for k in corners)
    out = np.maximum(np.maximum(p, q), np.maximum(r, s))
    dx = np.zeros_like(x)
    free = np.ones(out.shape, dtype=bool)  # windows whose max is not yet placed
    for k in corners:
        hit = x[k] == out
        hit &= free
        np.multiply(upstream, hit, out=dx[k])
        free ^= hit
    return out, dx


@given(
    st.sampled_from([np.float32, np.float64]),
    st.tuples(st.integers(1, 3), st.integers(2, 7), st.integers(2, 7), st.integers(1, 3)),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_maxpool_matches_the_first_hit_walk_bitwise(dtype, shape, seed):
    rng = np.random.default_rng(seed)
    # few distinct values plant ties; signed zeros fill whole windows
    x = rng.choice(np.array([-1.0, -0.0, 0.0, 0.5, 1.0]), size=shape).astype(dtype)
    x[:, :2, :2, 0] = 0.0
    x[-1, :2, :2, -1] = -0.0
    upstream = rng.standard_normal((shape[0], shape[1] // 2, shape[2] // 2, shape[3])).astype(dtype)
    t = Tensor(x, requires_grad=True)
    out = ad.maxpool2x2(t)
    backward(ad.tsum(ad.mul(out, Tensor(upstream))))
    expected_out, expected_dx = first_hit_pool(x, upstream)
    assert out.data.dtype == t.grad.dtype == dtype
    assert out.data.tobytes() == expected_out.tobytes()
    assert t.grad.tobytes() == expected_dx.tobytes()


def test_maxpool_keeps_masks_only_for_a_gradient():
    x = np.random.default_rng(12).standard_normal((2, 4, 6, 3))
    frozen = ad.maxpool2x2(t64(x, grad=False))
    assert frozen._backward is None and frozen._parents == ()  # nothing holds a mask
    kept = [
        cell.cell_contents
        for cell in ad.maxpool2x2(t64(x))._backward.__closure__
        if isinstance(cell.cell_contents, np.ndarray) and cell.cell_contents.dtype == bool
    ]
    assert [m.shape for m in kept] == [(2, 2, 3, 3)] * 3


def test_relu_keeps_a_mask_only_for_a_gradient():
    x = np.random.default_rng(13).standard_normal((3, 4))
    frozen = ad.relu(t64(x, grad=False))
    assert frozen._backward is None and frozen._parents == ()
    kept = [
        cell.cell_contents
        for cell in ad.relu(t64(x))._backward.__closure__
        if isinstance(cell.cell_contents, np.ndarray)
    ]
    assert [(m.dtype, m.shape) for m in kept] == [(np.dtype(bool), (3, 4))]  # not the output


def test_forward_and_gradients_deterministic():
    def run():
        rng = np.random.default_rng(11)
        x = t64(rng.standard_normal((2, 6, 6, 1)).transpose(3, 1, 2, 0))  # CHWN
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


# ---------------------------------------------------------------------------
# released tape values: no backward closure reads them
# ---------------------------------------------------------------------------

# name -> (leaf shapes, op applied to non-leaf operands)
RELEASE_CASES = {
    "add": ([(3, 4), (4,)], lambda a, b: ad.add(a, b)),
    "sub": ([(3, 4), (3, 1)], lambda a, b: ad.sub(a, b)),
    "mul": ([(3, 4), (1, 4)], lambda a, b: ad.mul(a, b)),
    "scale": ([(3, 4)], lambda a: ad.scale(a, -1.7)),
    "matmul": ([(3, 4), (4, 5)], lambda a, b: ad.matmul(a, b)),
    "relu": ([(3, 4)], lambda a: ad.relu(a)),
    "softmax": ([(3, 4)], lambda a: ad.softmax(a)),
    "softmax_cross_entropy": ([(3, 4)], lambda a: ad.softmax_cross_entropy(a, np.array([0, 2, 1]))[0]),
    "reshape": ([(3, 4)], lambda a: ad.reshape(a, (2, 6))),
    "transpose": ([(2, 3, 4)], lambda a: ad.transpose(a, (2, 0, 1))),
    "tsum": ([(3, 4)], lambda a: ad.tsum(a)),
    "mean_squared_norm": ([(3, 4)], lambda a: ad.mean_squared_norm(a)),
    "maxpool2x2_even": ([(2, 4, 6, 3)], lambda a: ad.maxpool2x2(a)),
    "maxpool2x2_odd": ([(2, 5, 7, 3)], lambda a: ad.maxpool2x2(a)),
    "conv2d_pad0": ([(2, 6, 6, 3), (4, 2, 3, 3)], lambda x, k: ad.conv2d(x, k)),
    "conv2d_pad1": ([(2, 6, 6, 3), (4, 2, 3, 3)], lambda x, k: ad.conv2d(x, k, padding=1)),
    "spectral_filter_projected": (
        [(6, 4)],
        lambda phi: spectral.spectral_filter(phi, spectral.gate_weights(2, 4, phi.dtype), "projected"),
    ),
    "spectral_filter_full": (
        [(6, 4)],
        lambda phi: spectral.spectral_filter(phi, 1 - spectral.gate_weights(2, 4, phi.dtype), "full"),
    ),
}


def tape(root):
    """Every node reachable from ``root`` that holds a backward closure."""
    nodes, seen, todo = [], {id(root)}, [root]
    while todo:
        node = todo.pop()
        if node._backward is not None:
            nodes.append(node)
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                todo.append(parent)
    return nodes


def leaf_gradients(case, dtype, release):
    shapes, op = RELEASE_CASES[case]
    rng = np.random.default_rng(21)
    leaves = [Tensor(rng.standard_normal(s).astype(dtype), requires_grad=True) for s in shapes]
    out = op(*(ad.scale(leaf, 1.0) for leaf in leaves))
    upstream = Tensor(rng.standard_normal(out.shape).astype(dtype))
    loss = ad.tsum(ad.mul(out, upstream))
    if release:
        nodes = tape(loss)
        for node in nodes:
            ad.release(node)
        assert len(nodes) >= len(leaves) + 3 and all(not n.data.flags.writeable for n in nodes)
    backward(loss)
    return [leaf.grad for leaf in leaves]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", sorted(RELEASE_CASES))
def test_gradients_keep_their_bits_with_every_tape_value_released(case, dtype):
    kept = leaf_gradients(case, dtype, release=False)
    released = leaf_gradients(case, dtype, release=True)
    for k, r in zip(kept, released):
        assert r.dtype == k.dtype == dtype and r.shape == k.shape
        assert r.tobytes() == k.tobytes()


def test_release_drops_only_values_recorded_on_a_tape():
    rng = np.random.default_rng(22)
    param = Tensor(rng.standard_normal((3, 4)).astype(np.float32), requires_grad=True)
    image = Tensor(rng.standard_normal((3, 4)).astype(np.float32))
    tapeless = ad.relu(ad.scale(image, 2.0))
    walked = ad.scale(param, 2.0)
    backward(ad.tsum(walked))
    for t in (param, image, tapeless, walked):  # a walked graph has no tape left
        before = t.data
        ad.release(t)
        assert t.data is before and t.data.flags.writeable

    recorded = ad.relu(ad.scale(param, 2.0))
    ad.release(recorded)
    assert recorded.shape == (3, 4) and recorded.dtype == np.float32
    assert np.isnan(recorded.data).all() and recorded.data.strides == (0, 0)  # no bytes of its own
    with pytest.raises(ValueError, match="read-only"):
        recorded.data[0, 0] = 1.0

