"""Spans around the program's public functions, recorded from outside.

While installed, a :class:`Tracer` replaces module attributes of
``labelalign`` with wrappers that record a span (name, start, end, parent)
around each call, and restores them on exit; no program file changes.  The
program looks these functions up as module attributes at call time, which is
what makes the substitution visible to it.

Backward time is attributed per layer: every tensor a traced forward call
returns is labelled with that layer, and when ``autodiff.backward`` starts,
the tracer wraps each graph node's backward closure in a span named after
the node's label.  Tensors built inside a traced container (for example the
flatten inside ``forward_features`` or the loss terms inside ``dla_loss``)
take the container's label when it returns.

Spans stay in memory until the run ends.  A span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import bisect
import contextlib
import logging
import time
import weakref
from dataclasses import dataclass

from labelalign import autodiff, cli, data, optim, spectral, training
from labelalign.autodiff import Tensor

SPECTRAL_LOGGER = "labelalign.spectral"


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    flops: float = 0.0
    child_time: float = 0.0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        # (perf_counter time, node count) per traced backward pass or eval batch
        self.tape_nodes: list[tuple[float, int]] = []
        self._stack: list[int] = []
        self._labels: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._model_scope: str | None = None
        self._counters = {"conv": 0, "pool": 0}
        self._saved: list = []

    # -- span bookkeeping ------------------------------------------------

    def _begin(self, name: str, flops: float = 0.0) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent, flops=flops))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _end(self, index: int):
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_time += span.end - span.start

    def _call(self, name: str, fn, args, kwargs, flops: float = 0.0):
        index = self._begin(name, flops)
        try:
            return fn(*args, **kwargs)
        finally:
            self._end(index)

    # -- graph labelling ----------------------------------------------------

    @staticmethod
    def _graph(root: Tensor) -> list[Tensor]:
        """Nodes reachable from ``root`` that hold a backward closure,
        following the same edges as ``autodiff.backward``."""
        nodes, seen, todo = [], {id(root)}, [root]
        while todo:
            node = todo.pop()
            if node._backward is not None:
                nodes.append(node)
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    seen.add(id(parent))
                    todo.append(parent)
        return nodes

    def _label(self, tensor, name: str, bwd_flops: float = 0.0):
        if isinstance(tensor, Tensor) and tensor._backward is not None:
            self._labels[tensor] = (name, bwd_flops)

    def _label_rest(self, root, name: str) -> int:
        """Give ``name`` to every unlabelled node under ``root``; returns the
        graph size."""
        if not isinstance(root, Tensor):
            return 0
        nodes = self._graph(root)
        for node in nodes:
            if node not in self._labels:
                self._labels[node] = (name, 0.0)
        return len(nodes)

    # -- wrappers -------------------------------------------------------------

    def _simple(self, name):
        def wrap(fn):
            def traced(*args, **kwargs):
                return self._call(name, fn, args, kwargs)

            return traced

        return wrap

    def _container(self, name, scope=False, result=lambda r: r):
        def wrap(fn):
            def traced(*args, **kwargs):
                outer_scope, outer_counters = self._model_scope, self._counters
                if scope:
                    self._model_scope, self._counters = name, {"conv": 0, "pool": 0}
                in_eval = not self._stack
                try:
                    out = self._call(name, fn, args, kwargs)
                finally:
                    self._model_scope, self._counters = outer_scope, outer_counters
                count = self._label_rest(result(out), name)
                if in_eval and name == "model.forward_head":
                    # evaluate builds a tape nobody walks: count it as waste
                    self.tape_nodes.append((time.perf_counter(), count))
                return out

            return traced

        return wrap

    def _conv(self, fn):
        def traced(x, kernel, stride=1, padding=0):
            b, c, h, w = x.shape
            o, _, kh, kw = kernel.shape
            ho = (h + 2 * padding - kh) // stride + 1
            wo = (w + 2 * padding - kw) // stride + 1
            gemm = 2.0 * b * ho * wo * o * c * kh * kw
            bwd = gemm * (int(kernel.requires_grad) + int(x.requires_grad))
            name = f"autodiff.conv2d.conv{self._counters['conv']}"
            self._counters["conv"] += 1
            out = self._call(name, fn, (x, kernel), {"stride": stride, "padding": padding}, gemm)
            self._label(out, name, bwd)
            return out

        return traced

    def _pool(self, fn):
        def traced(x):
            name = f"autodiff.maxpool2x2.pool{self._counters['pool']}"
            self._counters["pool"] += 1
            out = self._call(name, fn, (x,), {})
            self._label(out, name)
            return out

        return traced

    def _layer(self, name_for):
        """Wrap an op whose layer name depends on its operands or scope;
        ``name_for`` returns None for calls that are not a named layer."""

        def wrap(fn):
            def traced(*args):
                name = name_for(*args)
                if name is None:
                    return fn(*args)
                out = self._call(name, fn, args, {})
                self._label(out, name)
                return out

            return traced

        return wrap

    def _add_name(self, a, b):
        if isinstance(b, Tensor) and b.data.ndim == 4:
            return "autodiff.add.conv_bias"
        return None

    def _matmul_name(self, a, b):
        return {
            "model.forward_features": "autodiff.matmul.feat",
            "model.forward_head": "autodiff.matmul.head",
        }.get(self._model_scope)

    def _backward(self, fn):
        def traced(loss):
            nodes = self._graph(loss)
            self.tape_nodes.append((time.perf_counter(), len(nodes)))
            for node in nodes:
                name, flops = self._labels.get(node, ("autodiff.unlabelled", 0.0))
                node._backward = self._timed_closure(f"{name}.bwd", node._backward, flops)
            return self._call("autodiff.backward", fn, (loss,), {})

        return traced

    def _timed_closure(self, name, closure, flops):
        def traced(out):
            index = self._begin(name, flops)
            try:
                closure(out)
            finally:
                self._end(index)

        return traced

    def _patches(self):
        """(owner, attribute, wrapper factory) for every traced function."""
        return [
            (training, "next_batch", self._simple("data.next_batch")),
            (cli, "load_mnist", self._simple("data.load_idx")),
            (data, "load_mnist", self._simple("data.load_idx")),
            (cli, "load_usps", self._simple("data.load_usps")),
            (cli, "split_target", self._simple("data.split_target")),
            (training, "dla_loss", self._container("training.dla_loss", result=lambda r: r[0])),
            (training, "forward_features", self._container("model.forward_features", scope=True)),
            (training, "forward_head", self._container("model.forward_head", scope=True)),
            (training, "spectral_filter", self._layer(lambda *a: "spectral.filter")),
            (spectral, "thin_svd", self._simple("spectral.thin_svd")),
            (spectral, "gate_weights", self._container("spectral.gate")),
            (autodiff, "conv2d", self._conv),
            (autodiff, "add", self._layer(self._add_name)),
            (autodiff, "relu", self._layer(lambda a: "autodiff.relu")),
            (autodiff, "maxpool2x2", self._pool),
            (autodiff, "matmul", self._layer(self._matmul_name)),
            (autodiff, "backward", self._backward),
            (optim.Adam, "step", self._simple("optim.adam.step")),
        ]

    @property
    def active(self) -> bool:
        return bool(self._saved)

    def install(self):
        if self._saved:
            return
        for owner, attr, wrap in self._patches():
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrap(original))

    def remove(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.remove()


class WarningCounter(logging.Handler):
    """Counts WARNING records of the spectral logger (the full-mode clamp
    message) and keeps them off the console while attached."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.times: list[float] = []

    def emit(self, record):
        self.times.append(time.perf_counter())

    @contextlib.contextmanager
    def attached(self):
        logger = logging.getLogger(SPECTRAL_LOGGER)
        propagate = logger.propagate
        logger.addHandler(self)
        logger.propagate = False
        try:
            yield self
        finally:
            logger.removeHandler(self)
            logger.propagate = propagate


@dataclass
class Totals:
    time: float = 0.0
    self_time: float = 0.0
    calls: int = 0
    flops: float = 0.0


def in_windows(t: float, windows) -> bool:
    """Whether ``t`` falls in one of the sorted, disjoint (start, end] windows."""
    i = bisect.bisect_left(windows, (t,)) - 1
    return i >= 0 and windows[i][0] < t <= windows[i][1]


def summarize(spans, windows) -> tuple[dict[str, Totals], float]:
    """Per span name, totals over spans starting inside ``windows``; also the
    time those windows spend in top-level spans."""
    totals: dict[str, Totals] = {}
    covered = 0.0
    for span in spans:
        if not in_windows(span.start, windows):
            continue
        t = totals.setdefault(span.name, Totals())
        duration = span.end - span.start
        t.time += duration
        t.self_time += duration - span.child_time
        t.calls += 1
        t.flops += span.flops
        if span.parent is None:
            covered += duration
    return totals, covered
