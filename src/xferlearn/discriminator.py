"""Multi-layer domain discriminator.

The discriminator consumes several encoder tap activations at once.  Each
mirrored stage fuses a decayed copy of the previous stage's output with
the next tap (element-wise sum by default, concatenation as an ablation),
applies a ReLU, and projects to the next tap's width.  A trailing
fully connected head maps the deepest fused state to one real/fake logit
per example.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .layers import state_arrays
from .tensor import Tensor


class DiscriminatorError(ValueError):
    pass


@dataclass
class DiscriminatorSpec:
    tap_widths: list  # flat width of each tap, shallow -> deep
    head_widths: list = field(default_factory=lambda: [500, 500, 500])
    decay: float = 0.1
    fusion: str = "sum"  # sum | concat

    def __post_init__(self):
        if not 0.0 <= self.decay <= 1.0:
            raise DiscriminatorError(f"decay must be in [0, 1], got {self.decay}")
        if self.fusion not in ("sum", "concat"):
            raise DiscriminatorError(f"unknown fusion {self.fusion!r}")
        if len(self.tap_widths) < 1:
            raise DiscriminatorError("need at least one tap")


class MultiLayerDiscriminator:
    def __init__(self, spec: DiscriminatorSpec, seed: int = 0):
        self.spec = spec
        self.params: dict[str, Tensor] = {}
        rng = np.random.default_rng(seed)

        def linear(name, fan_in, fan_out):
            bound = 1.0 / np.sqrt(fan_in)
            self.params[f"{name}.w"] = Tensor(
                rng.uniform(-bound, bound, (fan_in, fan_out)), requires_grad=True
            )
            self.params[f"{name}.b"] = Tensor(np.zeros(fan_out), requires_grad=True)

        widths = spec.tap_widths
        # mirrored stages: stage l projects (fused) width[l-1] -> width[l]
        for l in range(1, len(widths)):
            fan_in = widths[l - 1] * (2 if spec.fusion == "concat" and l > 1 else 1)
            linear(f"mirror{l}", fan_in, widths[l])
        head_in = widths[-1] * (2 if spec.fusion == "concat" and len(widths) > 1 else 1)
        prev = head_in
        for i, w in enumerate(spec.head_widths, start=1):
            linear(f"head{i}", prev, w)
            prev = w
        linear("head_out", prev, 1)

    def parameters(self) -> list[Tensor]:
        return list(self.params.values())

    def _linear(self, name: str, x: Tensor) -> Tensor:
        return T.matmul(x, self.params[f"{name}.w"]) + self.params[f"{name}.b"]

    def _fuse(self, state: Tensor, tap: Tensor) -> Tensor:
        if self.spec.fusion == "sum":
            if state.shape != tap.shape:
                raise DiscriminatorError(
                    f"sum fusion shape mismatch: state {state.shape} vs tap {tap.shape}"
                )
            return state + tap
        return T.concat([state, tap], axis=-1)

    def forward(self, taps: list) -> Tensor:
        """taps: list of Tensors ordered shallow -> deep; returns N x 1 logits."""
        widths = self.spec.tap_widths
        if len(taps) != len(widths):
            raise DiscriminatorError(f"expected {len(widths)} taps, got {len(taps)}")
        for i, (t, w) in enumerate(zip(taps, widths)):
            if t.shape[-1] != w:
                raise DiscriminatorError(f"tap {i}: expected width {w}, got {t.shape[-1]}")

        gamma = self.spec.decay
        state = None
        for l, tap in enumerate(taps):
            fused = tap if state is None else self._fuse(gamma * state, tap)
            if l < len(taps) - 1:
                state = self._linear(f"mirror{l + 1}", T.relu(fused))
            else:
                h = T.relu(fused)
        for i in range(1, len(self.spec.head_widths) + 1):
            h = T.relu(self._linear(f"head{i}", h))
        return self._linear("head_out", h)

    def __call__(self, taps):
        return self.forward(taps)

    def state_dict(self) -> dict:
        return {name: t.data.copy() for name, t in self.params.items()}

    def load_state_dict(self, state: dict) -> None:
        """Load every parameter; a bad state changes nothing."""
        loaded = state_arrays(state, {name: t.data for name, t in self.params.items()})
        for name, t in self.params.items():
            t.data = loaded[name]

