"""Adam optimizer with independent parameter groups."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


class Adam:
    beta1, beta2, eps = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults

    def __init__(self, params: list[Tensor], lr: float = 1e-3, clip: float | None = None):
        self.params = list(params)
        self.lr = lr
        self.clip = clip
        self.step_count = 0
        self.m = [np.zeros_like(p.data, dtype=np.float64) for p in self.params]
        self.v = [np.zeros_like(p.data, dtype=np.float64) for p in self.params]

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            g = p.grad.astype(np.float64)
            if g.shape != p.data.shape:
                raise ValueError(f"grad shape {g.shape} != param shape {p.data.shape}")
            if self.clip is not None:
                norm = np.linalg.norm(g)
                if norm > self.clip:
                    g = g * (self.clip / norm)
            self.m[i] = self.beta1 * self.m[i] + (1 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1 - self.beta2) * g * g
            m_hat = self.m[i] / (1 - self.beta1**t)
            v_hat = self.v[i] / (1 - self.beta2**t)
            p.data -= (self.lr * m_hat / (np.sqrt(v_hat) + self.eps)).astype(p.data.dtype)

    def zero_grads(self) -> None:
        for p in self.params:
            p.zero_grad()
