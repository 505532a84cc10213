"""Dense tensors with reverse-mode automatic differentiation.

The graph is built eagerly: every operation returns a new :class:`Tensor`
holding references to its operands and a closure that pushes gradients back
to them.  Calling :func:`backward` on a scalar walks the graph once in
reverse topological order, accumulating gradients additively (so shared
subexpressions add up, e.g. d(x+x)/dx == 2), and releases each node's graph
record as it passes, so a stale tape cannot be replayed by accident.  The
walk holds no node it has passed: a walked node the caller does not hold
is freed, with its values and gradient, as soon as its operands have their
gradients, so a backward pass holds about one layer's gradients at a time
rather than all of them.  Tensors the caller holds keep ``.data`` and
``.grad``.

A tensor's first gradient is held by reference, so one buffer may serve as
the gradient of several tensors; a later gradient is summed into a new array.
No backward closure writes into ``out.grad`` or into a gradient it has handed
on, so no gradient buffer changes once it is stored.

No backward closure reads an operand's values at backward time: each keeps
the arrays it needs (operands, masks, factors, the padded input) from when
its op ran, and otherwise only shapes and dtypes.  So :func:`release` may
drop the values of any tensor on a tape once the forward pass no longer
reads them: its node stays in the graph with the same shape and dtype, and
the gradients keep every bit.  A training step's feature extractor releases
its stage intermediates this way, so a feature pass holds only what its
backward pass reads.

Arrays are float32 or float64 and never upcast silently: training code runs
at float32 while numerical test oracles run the same code paths at float64.
Convolution and pooling take batch-innermost (CHWN: channels, height,
width, batch) activations, so im2col copies and elementwise passes run over
spans of at least a batch of contiguous values; kernels are OIHW.  A
convolution builds its im2col columns one block of output rows at a time,
each block sized (``COLUMN_BLOCK_BYTES``) to be read by its GEMM from L2
rather than from memory, and its tape keeps the padded input, not the
columns.  Its backward walks the same blocks: the kernel gradient builds
them again, and the input gradient takes one GEMM per block of gradient rows.

Two workers: a convolution runs its blocks as tasks on the caller and one
helper thread, when the process may run on two CPUs (``CONV_WORKERS`` is
``min(2, len(os.sched_getaffinity(0)))``; with one CPU there is no helper and
the caller runs the same tasks in order).  The forward's tasks are its column
blocks; the backward's are the input-gradient pass and the kernel-gradient
pass, which read the same output gradient and write different arrays.  A
backward with one pass (the first layer's, whose input needs no gradient)
runs it on the caller: its per-block products, a 9x16 output over 28,672
columns each, ran 2.5 times slower apiece when two threads ran them at once
on a 2-vCPU VM, so splitting them made the pass slower.
Each thread fills its own column buffer, every task writes its own part of
an output, and the buffers are allocated by the caller, so which thread runs
a task changes no bit.  The caller claims tasks too, so it runs every task
the helper has not started: if the host takes the second CPU away, a call
runs as the serial loop and waits only for a task the helper has begun.  The
helper is the one worker of a ``ThreadPoolExecutor``, made on first use (and
again in a forked child) and joined at exit.  It moves off the caller's CPU,
runs its tasks under the caller's ``np.geterr()``, and calls only numpy.

On import, glibc is asked to keep freed arrays in the process: a tape frees
tens of MB per training step that the next step allocates again, and handing
them back to the OS made every step fault its pages in anew.  Up to 256 MiB
of freed memory then stays mapped, so RSS does not fall back after a large
load.  glibc is also asked for one arena (``M_ARENA_MAX``), so the helper
allocates from the main arena rather than growing a heap of its own.  Other
C libraries keep their own policy; ``HEAP_TUNED`` says if the three settings
took.  Perfbench's ``samples_per_s`` and ``ru_minflt`` per step show their
effect.
"""

from __future__ import annotations

import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np

_FLOAT_DTYPES = (np.float32, np.float64)


def _keep_freed_arrays() -> bool:
    """Fix glibc's mmap threshold at 32 MiB and its trim threshold at 256 MiB,
    and keep every thread's allocations in the main arena; True when all three
    ``mallopt`` calls returned 1.  Either threshold alone turns off the dynamic
    threshold and faults more, so the second runs only after the first."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt (macOS, Windows); musl's returns 0
        return False
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    M_TRIM_THRESHOLD, M_MMAP_THRESHOLD, M_ARENA_MAX = -1, -3, -8
    return (
        mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1
        and mallopt(M_TRIM_THRESHOLD, 256 << 20) == 1
        and mallopt(M_ARENA_MAX, 1) == 1
    )


HEAP_TUNED = _keep_freed_arrays()


class AutodiffError(Exception):
    """Raised for malformed graphs or operand mismatches."""


def _coerce(data) -> np.ndarray:
    arr = np.asarray(data)
    if arr.dtype not in _FLOAT_DTYPES:
        return arr.astype(np.float64)
    return arr


class Tensor:
    """A dense array plus the bookkeeping needed for backpropagation."""

    def __init__(self, data, requires_grad: bool = False):
        self.data = _coerce(data)
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


def release(t: Tensor):
    """Drop the values of a tensor recorded on a tape; its node stays in the
    graph, so gradients still flow through it.

    ``t.data`` becomes a zero-byte, read-only NaN placeholder of the same
    shape and dtype: a stray read shows NaN, a stray write raises.  Tensors
    with no backward closure (parameters, inputs, anything built without a
    tape, or a graph already walked) are left as they are."""
    if t._backward is not None:
        t.data = np.broadcast_to(np.array(np.nan, dtype=t.data.dtype), t.data.shape)


# ---------------------------------------------------------------------------
# elementwise arithmetic (numpy broadcasting rules apply)
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = _as_tensor(b, a)
    _check_dtypes(a, b, "add")
    out_data = a.data + b.data
    a_shape, b_shape = a.data.shape, b.data.shape

    def backward(out):
        g = out.grad
        _accumulate(a, _unbroadcast(g, a_shape))
        _accumulate(b, _unbroadcast(g, b_shape))

    return _make(out_data, (a, b), backward)


def sub(a, b) -> Tensor:
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = _as_tensor(b, a)
    _check_dtypes(a, b, "sub")
    out_data = a.data - b.data
    a_shape, b_shape = a.data.shape, b.data.shape

    def backward(out):
        g = out.grad
        _accumulate(a, _unbroadcast(g, a_shape))
        _accumulate(b, _unbroadcast(-g, b_shape))

    return _make(out_data, (a, b), backward)


def mul(a, b) -> Tensor:
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = _as_tensor(b, a)
    _check_dtypes(a, b, "mul")
    a_data, b_data = a.data, b.data
    out_data = a_data * b_data

    def backward(out):
        g = out.grad
        _accumulate(a, _unbroadcast(g * b_data, a_data.shape))
        _accumulate(b, _unbroadcast(g * a_data, b_data.shape))

    return _make(out_data, (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar held outside the graph."""
    c = np.asarray(float(c), dtype=a.data.dtype)

    def backward(out):
        _accumulate(a, out.grad * c)

    return _make(a.data * c, (a,), backward)


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
    a_data, b_data = a.data, b.data
    out_data = a_data @ b_data

    def backward(out):
        g = out.grad
        _accumulate(a, g @ b_data.T)
        _accumulate(b, a_data.T @ g)

    return _make(out_data, (a, b), backward)


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------


def relu(a: Tensor) -> Tensor:
    """``max(a, 0)`` with NaN and ``-0.0`` mapped to ``+0.0``, the bits of
    ``np.where(a > 0, a, 0)``.  ``fmax`` drops NaN without a data-dependent
    branch and ``+= 0`` turns ``-0.0`` into ``+0.0``.  When ``a`` needs a
    gradient the tape keeps the one-byte mask ``out > 0``, not the output,
    so a caller may :func:`release` the output once it has read it (as the
    next convolution does when it pads it); otherwise there is no tape."""
    out_data = np.fmax(a.data, 0)
    out_data += 0
    if not a.requires_grad:
        return Tensor(out_data)
    mask = out_data > 0

    def backward(out):
        _accumulate(a, out.grad * mask)

    return _make(out_data, (a,), backward)


# ---------------------------------------------------------------------------
# shape ops and reductions
# ---------------------------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    out_data = a.data.reshape(shape)
    a_shape = a.data.shape

    def backward(out):
        _accumulate(a, out.grad.reshape(a_shape))

    return _make(out_data, (a,), backward)


def transpose(a: Tensor, axes) -> Tensor:
    inverse = np.argsort(axes)

    def backward(out):
        _accumulate(a, out.grad.transpose(inverse))

    return _make(a.data.transpose(axes), (a,), backward)


def tsum(a: Tensor) -> Tensor:
    out_data = a.data.sum()
    a_shape = a.data.shape

    def backward(out):
        _accumulate(a, np.broadcast_to(out.grad, a_shape))

    return _make(out_data, (a,), backward)


# ---------------------------------------------------------------------------
# convolution / pooling (CHWN activations, OIHW kernels)
# ---------------------------------------------------------------------------

# Bytes of im2col columns built per block: half of a 2 MiB per-core L2, so a
# block, the kernel matrix and the block's output columns stay in L2 together.
COLUMN_BLOCK_BYTES = 1 << 20


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask outside Linux
        return os.cpu_count() or 1


# Threads that run a convolution's tasks, its caller included: two when the
# process may run on two CPUs or more, else the caller alone.
CONV_WORKERS = min(2, _usable_cpus())


def _caller_cpu() -> int | None:
    """The CPU the calling thread runs on, or None where libc cannot say."""
    try:
        getcpu = ctypes.CDLL(None).sched_getcpu
    except (AttributeError, OSError, TypeError):  # no sched_getcpu (macOS, Windows)
        return None
    getcpu.argtypes, getcpu.restype = [], ctypes.c_int
    cpu = getcpu()
    return cpu if cpu >= 0 else None


def _leave_cpu(caller_cpu: int | None):
    # A kernel that does not balance load (a cpuset with sched_load_balance
    # off) keeps a new thread on its creator's CPU, where the helper would
    # only take turns with the caller; so the helper leaves the caller's CPU.
    try:
        os.sched_setaffinity(0, os.sched_getaffinity(0) - {caller_cpu})
    except (AttributeError, OSError, ValueError):  # no affinity calls, or no other CPU
        pass


_helper_lock = threading.Lock()
_helper_pool: tuple[int | None, ThreadPoolExecutor | None] = (None, None)  # (the pid that made it, the pool)


def _helper() -> ThreadPoolExecutor:
    """The one helper thread's pool, made on first use and again in a forked
    child, which inherits the pool but not its thread."""
    global _helper_pool
    with _helper_lock:
        if _helper_pool[0] != os.getpid():
            pool = ThreadPoolExecutor(1, "conv2d-helper", initializer=_leave_cpu, initargs=(_caller_cpu(),))
            _helper_pool = (os.getpid(), pool)
        return _helper_pool[1]


def _run_tasks(tasks: list, workers: int):
    """Run each task once as ``task(slot)``, on whichever thread claims it
    first: slot 0 is the caller, slot 1 the helper.  The caller claims tasks
    too, so a task no thread has started when the caller is free runs on the
    caller: a helper the host has descheduled costs the call nothing but the
    task it already started.  A failing task stops further claims, and its
    exception is raised in the caller."""
    if workers < 2 or len(tasks) < 2:
        for task in tasks:
            task(0)
        return
    unclaimed = tasks[::-1]  # popped from the end, so claimed in order
    lock = threading.Lock()
    errstate = np.geterr()

    def claim(slot: int):
        try:
            with np.errstate(**errstate):  # the caller's, on either thread
                while True:
                    with lock:
                        if not unclaimed:
                            return
                        task = unclaimed.pop()
                    task(slot)
        finally:
            with lock:
                unclaimed.clear()

    future = _helper().submit(claim, 1)
    try:
        claim(0)
    finally:
        if not future.cancel():  # the helper began: wait for its task, and raise its error
            future.result()


def conv2d(x: Tensor, kernel: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation of a CHWN input with an OIHW kernel, zero padded;
    the output is CHWN (channels, height, width, batch).

    Output spatial size is ``(h + 2*padding - kh) // stride + 1`` (same for
    width).  Differentiable w.r.t. both the input and the kernel.

    The im2col columns have one row per ``(kh, kw, c)`` kernel entry and one
    column per output pixel in ``(ho, wo, b)`` order, so their copy moves
    runs of ``b`` contiguous values.  They are built one block of output rows
    at a time, into one reused buffer of at most ``COLUMN_BLOCK_BYTES`` (at
    least one row): a block is copied and then read by its
    ``(o, kh*kw*c)`` GEMM while it is still in L2, instead of streaming a
    column matrix of tens of MB out to memory and back.  Each GEMM writes its
    own columns of the output, so every output is the same length-``kh*kw*c``
    dot product as in one GEMM over all columns.  The tape keeps the padded
    input, not the columns; the kernel gradient builds the same blocks again,
    top to bottom, and adds up one ``(kh*kw*c, o)`` GEMM per block, transposed
    once at the end.

    The input gradient walks the same row blocks: one ``(kh*kw*c, o)`` GEMM
    turns a block of the output gradient, read once from L2, into its column
    gradients in a reused buffer no larger than a column block, and ``kh*kw``
    strided adds move them into the padded input over runs of ``wo*b``
    values.  The blocks go bottom to top, so every padded position adds its
    taps in ascending ``(i, j)`` order whatever the block size.

    Each forward block is one task for the two workers (module docstring),
    and so is each of the two gradient passes; a thread's column blocks and
    column gradients share its own buffer.
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    kernel = kernel if isinstance(kernel, Tensor) else Tensor(kernel)
    _check_dtypes(x, kernel, "conv2d")
    if stride < 1:
        raise AutodiffError(f"conv2d stride must be >= 1, got {stride}")
    if x.data.ndim != 4 or kernel.data.ndim != 4:
        raise AutodiffError(
            f"conv2d expects CHWN input and OIHW kernel, got {x.data.shape} and {kernel.data.shape}"
        )
    c, h, w, b = x.data.shape
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
    taps = kh * kw * c
    span = wo * b  # columns per output row

    xp = x.data
    if padding:
        xp = np.pad(xp, ((0, 0), (padding, padding), (padding, padding), (0, 0)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
    # (c, ho, wo, b, kh, kw) -> (kh, kw, c, ho, wo, b): rows match the
    # kernel's (kh, kw, c) columns, and the batch stays innermost
    windows = windows[:, ::stride, ::stride].transpose(4, 5, 0, 1, 2, 3)
    rows = min(ho, max(1, COLUMN_BLOCK_BYTES // max(1, taps * span * xp.itemsize)))
    starts = range(0, ho, rows)  # first output row of each block
    workers = CONV_WORKERS

    def buffers():
        """One column-block buffer per thread slot."""
        return [np.empty(taps * rows * span, dtype=xp.dtype) for _ in range(workers)]

    def column_block(buf, r):
        """(output columns, (taps, n*span) column block) of the rows from ``r``."""
        n = min(rows, ho - r)
        block = buf[: taps * n * span].reshape(kh, kw, c, n, wo, b)
        np.copyto(block, windows[:, :, :, r : r + n])
        return np.s_[:, r * span : (r + n) * span], block.reshape(taps, n * span)

    kmat = kernel.data.transpose(0, 2, 3, 1).reshape(o, taps)
    out_data = np.empty((o, ho * span), dtype=xp.dtype)
    blocks = buffers()

    def forward_block(r, slot):
        cols, block = column_block(blocks[slot], r)
        np.matmul(kmat, block, out=out_data[cols])

    _run_tasks([partial(forward_block, r) for r in starts], workers)

    def backward(out):
        g = out.grad.reshape(o, ho * span)
        bufs = buffers()
        tasks = []
        if x.requires_grad:
            dxp = np.zeros((c, hp, wp, b), dtype=xp.dtype)

            def input_gradient(slot):
                # bottom-up: a padded row gets its taps in ascending (i, j) order
                for r in reversed(starts):
                    n = min(rows, ho - r)
                    dcols = bufs[slot][: taps * n * span].reshape(taps, n * span)
                    np.matmul(kmat.T, g[:, r * span : (r + n) * span], out=dcols)
                    dcols = dcols.reshape(kh, kw, c, n, wo, b)
                    top = stride * r
                    for i in range(kh):
                        for j in range(kw):
                            dxp[:, top + i : top + i + stride * n : stride, j : j + stride * wo : stride] += dcols[i, j]

            tasks.append(input_gradient)
        if kernel.requires_grad:
            dkt = np.zeros((taps, o), dtype=xp.dtype)

            def kernel_gradient(slot):
                for r in starts:
                    cols, block = column_block(bufs[slot], r)
                    np.add(dkt, block @ g[cols].T, out=dkt)

            tasks.append(kernel_gradient)
        _run_tasks(tasks, workers)
        if kernel.requires_grad:
            _accumulate(kernel, dkt.T.reshape(o, kh, kw, c).transpose(0, 3, 1, 2))
        if x.requires_grad:
            _accumulate(x, dxp[:, padding : padding + h, padding : padding + w])

    return _make(out_data.reshape(o, ho, wo, b), (x, kernel), backward)


def maxpool2x2(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2 over axes 1 and 2 (H and W of a CHWN
    input); odd trailing rows/columns are dropped.

    With the window ``[[p, q], [r, s]]``, the output is
    ``max(max(p, q), max(r, s))``.  When ``x`` needs a gradient the forward
    also keeps which half won (``top >= bottom``) and which element won in
    each half (``p >= q``, ``r >= s``); the backward routes the gradient by
    these three masks, writing each window position once.  Ties go to the
    first element in row-major order, so the backward pass is deterministic.
    For NaN-free inputs this is the element equal to the maximum that comes
    first; a NaN feature makes the loss NaN, and ``train`` stops before any
    backward pass.
    """
    x_shape, dtype = x.data.shape, x.data.dtype
    h, w = x_shape[1:3]
    ho, wo = h // 2, w // 2
    if ho < 1 or wo < 1:
        raise AutodiffError(f"maxpool2x2 needs at least 2x2 input, got {h}x{w}")
    # the four window positions in row-major order, each a strided (c, ho, wo, b) view
    corners = [np.s_[:, i : 2 * ho : 2, j : 2 * wo : 2] for i in (0, 1) for j in (0, 1)]
    p, q, r, s = (x.data[k] for k in corners)
    top = np.maximum(p, q)
    bottom = np.maximum(r, s)
    out_data = np.maximum(top, bottom)
    if not x.requires_grad:  # no tape (as in evaluate), so no masks to pay for
        return Tensor(out_data)
    top_wins, p_wins, r_wins = top >= bottom, p >= q, r >= s

    def backward(out):
        # every position is written below, except dropped odd rows/columns
        dx = (np.zeros if h % 2 or w % 2 else np.empty)(x_shape, dtype)
        bottom_wins = ~top_wins
        first = top_wins & p_wins
        third = bottom_wins & r_wins
        for k, hit in zip(corners, (first, top_wins ^ first, third, bottom_wins ^ third)):
            np.multiply(out.grad, hit, out=dx[k])
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
    subexpressions.  Each node's graph record is released once its closure
    has run, so calling this twice on the same graph raises instead of
    silently under-propagating.

    Nodes are popped off the end of the topological order as they are
    walked, so the walk keeps no reference to a node it has passed.  A
    walked intermediate that the caller does not hold is then freed, values
    and gradient, as soon as its operands have their gradients;
    intermediates and leaves the caller holds keep ``.data`` and ``.grad``.
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
    while topo:  # popped, a walked node is held only by the caller or an unwalked node
        node = topo.pop()
        if node._backward is not None:
            node._backward(node)
        node._released = True
        node._backward = None
        node._parents = ()
