"""Adam optimizer with bias correction and non-finite gradient rejection."""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .params import ParamStore


class Adam:
    """Standard Adam. Parameters without a gradient entry are left unchanged;
    non-finite gradients are rejected per parameter and counted."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, lr: float = 1e-3):
        self.lr = lr
        self.step_count = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.rejected_total = 0

    def step(self, params: ParamStore, grads: Mapping[str, np.ndarray]) -> int:
        """One update. Returns the number of rejected (non-finite) gradients."""
        unknown = [k for k in grads if k not in params]
        if unknown:
            raise KeyError(f"gradients for unknown parameter paths: {unknown}")
        self.step_count += 1
        bc1 = 1.0 - self.beta1 ** self.step_count
        bc2 = 1.0 - self.beta2 ** self.step_count
        rejected = 0
        for path in sorted(grads):
            g = np.asarray(grads[path])
            if not np.all(np.isfinite(g)):
                rejected += 1
                continue
            p = params[path]
            if path not in self.m:
                self.m[path] = np.zeros_like(p.data)
                self.v[path] = np.zeros_like(p.data)
            m = self.m[path]
            v = self.v[path]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            m_hat = m / bc1
            v_hat = v / bc2
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
        self.rejected_total += rejected
        return rejected
