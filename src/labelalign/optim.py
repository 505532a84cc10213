"""Gradient-based updates of named parameters.

Parameters are a plain ``dict[str, Tensor]``.  The update is Adam:
bias-corrected first/second moments, decay 0.9/0.999, eps 1e-8.  A step
consumes the gradients: every parameter it is given must carry one, and
afterwards all their gradients are cleared so the next backward pass starts
fresh.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor


class OptimizerError(Exception):
    pass


class Adam:
    """Bias-corrected adaptive update with per-parameter moment accumulators."""

    def __init__(self, alpha: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.alpha = float(alpha)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.step_count = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, Tensor]):
        for name, p in params.items():
            if p.grad is None:
                raise OptimizerError(f"parameter '{name}' has no gradient; run backward first")
        self.step_count += 1
        t = self.step_count
        c1 = 1.0 - self.beta1**t
        c2 = 1.0 - self.beta2**t
        for name, p in params.items():
            g = p.grad
            m = self._m.get(name)
            if m is None:
                m = np.zeros_like(p.data)
                v = np.zeros_like(p.data)
                self._m[name] = m
                self._v[name] = v
            else:
                v = self._v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            mhat = m / c1
            vhat = v / c2
            p.data -= np.asarray(self.alpha, dtype=p.data.dtype) * mhat / (
                np.sqrt(vhat) + self.eps
            )
            p.grad = None
