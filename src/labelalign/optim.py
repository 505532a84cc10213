"""Named parameter collections and gradient-based updates.

The update is Adam: bias-corrected first/second moments, decay 0.9/0.999,
eps 1e-8.  A step consumes the gradients: every registered parameter must
carry one, and afterwards all gradients are cleared so the next backward
pass starts fresh.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor


class OptimizerError(Exception):
    pass


class ParameterSet:
    """Ordered, uniquely named collection of trainable tensors."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, tensor: Tensor) -> Tensor:
        if name in self._params:
            raise OptimizerError(f"duplicate parameter name '{name}'")
        if not tensor.requires_grad:
            raise OptimizerError(f"parameter '{name}' must require gradients")
        self._params[name] = tensor
        return tensor

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def tensors(self) -> list[Tensor]:
        return list(self._params.values())

    def subset(self, names) -> "ParameterSet":
        """A view over a subset of parameters (tensors are shared)."""
        out = ParameterSet()
        for name in names:
            if name not in self._params:
                raise OptimizerError(f"unknown parameter '{name}'")
            out._params[name] = self._params[name]
        return out

    def clear_grads(self):
        for t in self._params.values():
            t.grad = None


def _require_grads(params: ParameterSet):
    for name, t in params.items():
        if t.grad is None:
            raise OptimizerError(f"parameter '{name}' has no gradient; run backward first")


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

    def step(self, params: ParameterSet):
        _require_grads(params)
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
        params.clear_grads()
