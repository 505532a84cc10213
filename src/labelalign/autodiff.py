"""Dense tensors with reverse-mode automatic differentiation.

The graph is built eagerly: every operation returns a new :class:`Tensor`
holding references to its operands and a closure that pushes gradients back
to them.  Calling :func:`backward` on a scalar walks the graph once in
reverse topological order, accumulating gradients additively (so shared
subexpressions add up, e.g. d(x+x)/dx == 2), then releases the graph so a
stale tape cannot be replayed by accident.

A tensor's first gradient is held by reference, so one buffer may serve as
the gradient of several tensors; a later gradient is summed into a new array.
No backward closure writes into ``out.grad`` or into a gradient it has handed
on, so no gradient buffer changes once it is stored.

Arrays are float32 or float64 and never upcast silently: training code runs
at float32 while numerical test oracles run the same code paths at float64.
Convolution and pooling take channels-last (NHWC) activations; kernels are
OIHW.
"""

from __future__ import annotations

import numpy as np

_FLOAT_DTYPES = (np.float32, np.float64)


class AutodiffError(Exception):
    """Raised for malformed graphs or operand mismatches."""


def _coerce(data, dtype=None) -> np.ndarray:
    arr = np.asarray(data)
    if dtype is not None:
        return arr.astype(dtype, copy=False)
    if arr.dtype not in _FLOAT_DTYPES:
        return arr.astype(np.float64)
    return arr


class Tensor:
    """A dense array plus the bookkeeping needed for backpropagation."""

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = _coerce(data, dtype)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None
        self._released = False

    # -- introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) != 1 else shape[0])


def _as_tensor(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.data.dtype))


def _check_dtypes(a: Tensor, b: Tensor, op: str):
    if a.data.dtype != b.data.dtype:
        raise AutodiffError(
            f"{op}: mixed dtypes {a.data.dtype} and {b.data.dtype}; cast explicitly"
        )


def _accumulate(t: Tensor, g: np.ndarray):
    if not t.requires_grad:
        return
    # keep the first gradient by reference; sums allocate, so shared buffers stay intact
    if t.grad is None:
        t.grad = np.asarray(g, dtype=t.data.dtype)
    else:
        t.grad = t.grad + g


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum the broadcast axes of ``g`` away so it matches ``shape``."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _make(data, parents, backward) -> Tensor:
    out = Tensor(data)
    out.requires_grad = any(p.requires_grad for p in parents)
    if out.requires_grad:
        out._parents = tuple(parents)
        out._backward = backward
    return out


# ---------------------------------------------------------------------------
# elementwise arithmetic (numpy broadcasting rules apply)
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = _as_tensor(b, a)
    _check_dtypes(a, b, "add")
    out_data = a.data + b.data

    def backward(out):
        g = out.grad
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))

    return _make(out_data, (a, b), backward)


def sub(a, b) -> Tensor:
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = _as_tensor(b, a)
    _check_dtypes(a, b, "sub")
    out_data = a.data - b.data

    def backward(out):
        g = out.grad
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(-g, b.data.shape))

    return _make(out_data, (a, b), backward)


def mul(a, b) -> Tensor:
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = _as_tensor(b, a)
    _check_dtypes(a, b, "mul")
    out_data = a.data * b.data

    def backward(out):
        g = out.grad
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(out_data, (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar held outside the graph."""
    c = float(c)

    def backward(out):
        _accumulate(a, out.grad * np.asarray(c, dtype=a.data.dtype))

    return _make(a.data * np.asarray(c, dtype=a.data.dtype), (a,), backward)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    _check_dtypes(a, b, "matmul")
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise AutodiffError(
            f"matmul expects 2-D operands, got {a.data.shape} and {b.data.shape}"
        )
    if a.data.shape[1] != b.data.shape[0]:
        raise AutodiffError(
            f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}"
        )
    out_data = a.data @ b.data

    def backward(out):
        g = out.grad
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)

    return _make(out_data, (a, b), backward)


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    out_data = np.where(mask, a.data, 0)

    def backward(out):
        _accumulate(a, out.grad * mask)

    return _make(out_data, (a,), backward)


def _sigmoid_values(x: np.ndarray) -> np.ndarray:
    # Split on sign so exp never overflows; saturates cleanly to 0/1.
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a: Tensor) -> Tensor:
    s = _sigmoid_values(np.asarray(a.data))

    def backward(out):
        _accumulate(a, out.grad * s * (1.0 - s))

    return _make(s, (a,), backward)


# ---------------------------------------------------------------------------
# shape ops and reductions
# ---------------------------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    out_data = a.data.reshape(shape)

    def backward(out):
        _accumulate(a, out.grad.reshape(a.data.shape))

    return _make(out_data, (a,), backward)


def transpose(a: Tensor, axes) -> Tensor:
    inverse = np.argsort(axes)

    def backward(out):
        _accumulate(a, out.grad.transpose(inverse))

    return _make(a.data.transpose(axes), (a,), backward)


def tsum(a: Tensor) -> Tensor:
    out_data = a.data.sum()

    def backward(out):
        _accumulate(a, np.broadcast_to(out.grad, a.data.shape))

    return _make(out_data, (a,), backward)


# ---------------------------------------------------------------------------
# convolution / pooling (NHWC activations, OIHW kernels)
# ---------------------------------------------------------------------------


def conv2d(x: Tensor, kernel: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation of an NHWC input with an OIHW kernel, zero padded;
    the output is NHWC.

    Output spatial size is ``(h + 2*padding - kh) // stride + 1`` (same for
    width).  Differentiable w.r.t. both the input and the kernel.

    The im2col matrix has one row per output pixel and its columns in
    ``(kh, kw, c)`` order, so each window row copies ``kw*c`` contiguous
    values; the kernel enters the GEMM as ``(o, kh*kw*c)``.  The input
    gradient takes one GEMM per kernel tap.
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    kernel = kernel if isinstance(kernel, Tensor) else Tensor(kernel)
    _check_dtypes(x, kernel, "conv2d")
    if stride < 1:
        raise AutodiffError(f"conv2d stride must be >= 1, got {stride}")
    if x.data.ndim != 4 or kernel.data.ndim != 4:
        raise AutodiffError(
            f"conv2d expects NHWC input and OIHW kernel, got {x.data.shape} and {kernel.data.shape}"
        )
    b, h, w, c = x.data.shape
    o, kc, kh, kw = kernel.data.shape
    if kc != c:
        raise AutodiffError(
            f"conv2d channel mismatch: input has {c}, kernel expects {kc}"
        )
    hp, wp = h + 2 * padding, w + 2 * padding
    if kh > hp or kw > wp:
        raise AutodiffError(
            f"conv2d kernel {kh}x{kw} larger than padded input {hp}x{wp}"
        )
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1

    xp = x.data
    if padding:
        xp = np.pad(xp, ((0, 0), (padding, padding), (padding, padding), (0, 0)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
    # (b, ho, wo, kh, kw, c): rows are output pixels; each window row is kw*c
    # contiguous NHWC values, matched by the kernel's (kh, kw, c) columns
    windows = windows[:, ::stride, ::stride].transpose(0, 1, 2, 4, 5, 3)
    cols = windows.reshape(b * ho * wo, kh * kw * c)
    kmat = kernel.data.transpose(0, 2, 3, 1).reshape(o, kh * kw * c)
    out_data = (cols @ kmat.T).reshape(b, ho, wo, o)

    def backward(out):
        g = out.grad.reshape(b * ho * wo, o)
        if kernel.requires_grad:
            _accumulate(kernel, (g.T @ cols).reshape(o, kh, kw, c).transpose(0, 3, 1, 2))
        if x.requires_grad:
            dxp = np.zeros((b, hp, wp, c), dtype=x.data.dtype)
            dtap = np.empty((b * ho * wo, c), dtype=x.data.dtype)
            for i in range(kh):
                for j in range(kw):
                    tap = (i * kw + j) * c  # this tap's (o, c) block of kmat
                    np.matmul(g, kmat[:, tap : tap + c], out=dtap)
                    dxp[:, i : i + stride * ho : stride, j : j + stride * wo : stride] += dtap.reshape(b, ho, wo, c)
            _accumulate(x, dxp[:, padding : padding + h, padding : padding + w])

    return _make(out_data, (x, kernel), backward)


def maxpool2x2(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2 over the H and W axes of an NHWC input;
    odd trailing rows/columns are dropped.

    Ties inside a window go to the first element in row-major order so the
    backward pass is deterministic.
    """
    h, w = x.data.shape[1:3]
    ho, wo = h // 2, w // 2
    if ho < 1 or wo < 1:
        raise AutodiffError(f"maxpool2x2 needs at least 2x2 input, got {h}x{w}")
    # the four window positions in row-major order, each a strided (b, ho, wo, c) view
    corners = [np.s_[:, i : 2 * ho : 2, j : 2 * wo : 2] for i in (0, 1) for j in (0, 1)]
    p, q, r, s = (x.data[k] for k in corners)
    out_data = np.maximum(np.maximum(p, q), np.maximum(r, s))

    def backward(out):
        dx = np.zeros_like(x.data)
        free = np.ones(out_data.shape, dtype=bool)  # windows whose max is not yet placed
        for k in corners:
            hit = x.data[k] == out_data
            hit &= free
            np.multiply(out.grad, hit, out=dx[k])
            free ^= hit
        _accumulate(x, dx)

    return _make(out_data, (x,), backward)


# ---------------------------------------------------------------------------
# classification heads
# ---------------------------------------------------------------------------


def _softmax_values(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def softmax(logits: Tensor) -> Tensor:
    """Row-wise softmax (max-subtracted), differentiable."""
    if logits.data.ndim != 2:
        raise AutodiffError(f"softmax expects (n, m) logits, got {logits.data.shape}")
    p = _softmax_values(logits.data)

    def backward(out):
        g = out.grad
        inner = (g * p).sum(axis=1, keepdims=True)
        _accumulate(logits, p * (g - inner))

    return _make(p, (logits,), backward)


def softmax_cross_entropy(logits: Tensor, labels) -> tuple[Tensor, Tensor]:
    """Mean negative log-likelihood over rows plus the softmax probabilities.

    The returned probabilities are detached: reuse them for metrics, not for
    further differentiation (use :func:`softmax` for that).
    """
    if logits.data.ndim != 2:
        raise AutodiffError(f"cross entropy expects (n, m) logits, got {logits.data.shape}")
    labels = np.asarray(labels)
    n, m = logits.data.shape
    if labels.shape != (n,):
        raise AutodiffError(f"labels shape {labels.shape} does not match {n} rows")
    if labels.min() < 0 or labels.max() >= m:
        raise AutodiffError(
            f"label out of range: values must lie in [0, {m}), got "
            f"[{labels.min()}, {labels.max()}]"
        )
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    denom = e.sum(axis=1, keepdims=True)
    p = e / denom
    rows = np.arange(n)
    loss_data = (np.log(denom[:, 0]) - shifted[rows, labels]).mean()

    def backward(out):
        d = p.copy()
        d[rows, labels] -= 1.0
        _accumulate(logits, out.grad * d / n)

    loss = _make(np.asarray(loss_data, dtype=logits.data.dtype), (logits,), backward)
    return loss, Tensor(p)


# ---------------------------------------------------------------------------
# composed conveniences
# ---------------------------------------------------------------------------


def mean_squared_norm(x: Tensor) -> Tensor:
    """Mean over rows of each row's squared euclidean norm."""
    rows = x.data.shape[0]
    return scale(tsum(mul(x, x)), 1.0 / rows)


# ---------------------------------------------------------------------------
# backward driver
# ---------------------------------------------------------------------------


def backward(loss: Tensor):
    """Populate gradients of everything reachable from ``loss``.

    ``loss`` must be a scalar.  Gradients accumulate additively across shared
    subexpressions; afterwards the graph records are released so calling this
    twice on the same graph raises instead of silently under-propagating.
    """
    if loss.data.size != 1:
        raise AutodiffError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if loss._released:
        raise AutodiffError("backward already consumed this graph")

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))

    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node)
        node._released = True
        node._backward = None
        node._parents = ()
