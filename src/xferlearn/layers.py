"""Declarative sequential networks with named activation taps.

A network is a list of (name, LayerSpec) pairs validated by a symbolic
shape pass at build time.  Tap names select which layer outputs are
exposed to the domain discriminator alongside the final logits.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .tensor import Tensor


class BuildError(ValueError):
    pass


@dataclass
class LayerSpec:
    kind: str  # conv | maxpool | batchnorm | relu | leaky_relu | flatten | linear
    out_channels: int = 0
    kernel: int = 0
    stride: int = 1
    padding: int = 0
    slope: float = 0.2  # leaky_relu only


@dataclass
class NetworkSpec:
    input_shape: tuple  # (C, H, W) or (features,)
    layers: list  # [(name, LayerSpec)]
    taps: list = field(default_factory=list)  # layer names exposed as taps


def infer_shapes(spec: NetworkSpec) -> dict:
    """Symbolic shape pass: layer name -> output shape (without batch dim)."""
    shape = tuple(spec.input_shape)
    out = {}
    for name, ls in spec.layers:
        if ls.kind == "conv":
            c, h, w = shape
            if (h + 2 * ls.padding - ls.kernel) % ls.stride or (
                w + 2 * ls.padding - ls.kernel
            ) % ls.stride:
                raise BuildError(f"layer {name}: non-integral conv output from {shape}")
            h = (h + 2 * ls.padding - ls.kernel) // ls.stride + 1
            w = (w + 2 * ls.padding - ls.kernel) // ls.stride + 1
            shape = (ls.out_channels, h, w)
        elif ls.kind == "maxpool":
            c, h, w = shape
            if h % ls.stride or w % ls.stride:
                raise BuildError(f"layer {name}: pool dims {h}x{w} not divisible")
            shape = (c, h // ls.stride, w // ls.stride)
        elif ls.kind in ("batchnorm", "relu", "leaky_relu"):
            pass
        elif ls.kind == "flatten":
            shape = (int(np.prod(shape)),)
        elif ls.kind == "linear":
            if len(shape) != 1:
                raise BuildError(f"layer {name}: linear needs flat input, got {shape}")
            shape = (ls.out_channels,)
        else:
            raise BuildError(f"layer {name}: unknown kind {ls.kind!r}")
        out[name] = shape
    return out


def state_arrays(state: dict, own: dict) -> dict:
    """Fresh copies of state's arrays in the dtypes of `own` (key -> array).

    `state` must hold exactly the keys of `own`, each with exactly its shape.
    """
    extra = sorted(set(state) - set(own))
    if extra:
        raise BuildError(f"state has unexpected keys {extra}")
    out = {}
    for key, like in own.items():
        if key not in state:
            raise BuildError(f"state has no {key!r} (expected shape {like.shape})")
        arr = np.asarray(state[key])
        if arr.shape != like.shape:
            raise BuildError(f"state {key!r}: expected shape {like.shape}, got {arr.shape}")
        out[key] = arr.astype(like.dtype, copy=True)
    return out


class EmbeddingNetwork:
    def __init__(self, spec: NetworkSpec, seed: int = 0, param_prefix: str = ""):
        self.spec = spec
        self.shapes = infer_shapes(spec)
        self.params: dict[str, Tensor] = {}
        self.running_stats: dict[str, tuple] = {}  # bn layer -> (mean, var), params' dtype
        self.training = True
        self._init_params(seed, param_prefix)

    def _init_params(self, seed: int, prefix: str) -> None:
        rng = np.random.default_rng(seed)
        shape = tuple(self.spec.input_shape)
        for name, ls in self.spec.layers:
            if ls.kind == "conv":
                c_in = shape[0]
                fan_in = c_in * ls.kernel * ls.kernel
                bound = 1.0 / np.sqrt(fan_in)
                w = rng.uniform(-bound, bound, (ls.out_channels, c_in, ls.kernel, ls.kernel))
                self.params[f"{prefix}{name}.w"] = Tensor(w, requires_grad=True)
                self.params[f"{prefix}{name}.b"] = Tensor(
                    np.zeros(ls.out_channels), requires_grad=True
                )
            elif ls.kind == "batchnorm":
                c = shape[0]
                self.params[f"{prefix}{name}.gamma"] = Tensor(np.ones(c), requires_grad=True)
                self.params[f"{prefix}{name}.beta"] = Tensor(np.zeros(c), requires_grad=True)
                dtype = T.current_dtype()
                self.running_stats[name] = (np.zeros(c, dtype), np.ones(c, dtype))
            elif ls.kind == "linear":
                fan_in = shape[0]
                bound = 1.0 / np.sqrt(fan_in)
                w = rng.uniform(-bound, bound, (fan_in, ls.out_channels))
                self.params[f"{prefix}{name}.w"] = Tensor(w, requires_grad=True)
                self.params[f"{prefix}{name}.b"] = Tensor(
                    np.zeros(ls.out_channels), requires_grad=True
                )
            shape = self.shapes[name]
        self.prefix = prefix

    def train(self) -> None:
        self.training = True

    def eval(self) -> None:
        self.training = False

    def parameters(self) -> list[Tensor]:
        return list(self.params.values())

    def forward(self, x: Tensor, until: str | None = None):
        """Return (logits, taps) where taps is [(name, Tensor)] per spec.taps.

        With ``until``, stop after that layer: its output takes the place of
        the logits, and only the taps up to it are returned.
        """
        expected = tuple(self.spec.input_shape)
        if tuple(x.shape[1:]) != expected:
            raise BuildError(f"input shape {x.shape[1:]} != expected {expected}")
        if until is not None and until not in self.shapes:
            raise BuildError(f"no layer {until!r} to stop at")
        taps = []
        h = x
        for name, ls in self.spec.layers:
            if ls.kind == "conv":
                h = T.conv2d(
                    h,
                    self.params[f"{self.prefix}{name}.w"],
                    self.params[f"{self.prefix}{name}.b"],
                    stride=ls.stride,
                    padding=ls.padding,
                )
            elif ls.kind == "maxpool":
                h = T.maxpool2d(h, size=ls.kernel, stride=ls.stride)
            elif ls.kind == "batchnorm":
                mean, var = self.running_stats[name]
                h = T.batchnorm2d(
                    h,
                    self.params[f"{self.prefix}{name}.gamma"],
                    self.params[f"{self.prefix}{name}.beta"],
                    mean,
                    var,
                    training=self.training,
                )
            elif ls.kind == "relu":
                h = T.relu(h)
            elif ls.kind == "leaky_relu":
                h = T.leaky_relu(h, ls.slope)
            elif ls.kind == "flatten":
                h = T.reshape(h, (h.shape[0], -1))
            elif ls.kind == "linear":
                h = T.matmul(h, self.params[f"{self.prefix}{name}.w"]) + self.params[
                    f"{self.prefix}{name}.b"
                ]
            if name in self.spec.taps:
                taps.append((name, h))
            if name == until:
                break
        return h, taps

    def __call__(self, x: Tensor):
        return self.forward(x)

    def _state(self) -> dict:
        """Every parameter and running statistic by state key, uncopied."""
        out = {name: t.data for name, t in self.params.items()}
        for name, (mean, var) in self.running_stats.items():
            out[f"{self.prefix}{name}.running_mean"] = mean
            out[f"{self.prefix}{name}.running_var"] = var
        return out

    def state_dict(self) -> dict:
        return {key: a.copy() for key, a in self._state().items()}

    def load_state_dict(self, state: dict) -> None:
        """Load every parameter and running statistic; a bad state changes nothing."""
        loaded = state_arrays(state, self._state())
        for name, t in self.params.items():
            t.data = loaded[name]
        for name, (mean, var) in self.running_stats.items():
            mean[...] = loaded[f"{self.prefix}{name}.running_mean"]
            var[...] = loaded[f"{self.prefix}{name}.running_var"]


def clone_into_target(source: EmbeddingNetwork, head_classes: int | None = None,
                      head_seed: int = 0, reinit_head: bool = False) -> EmbeddingNetwork:
    """Deep-copy a source network into an independent target network.

    The final linear layer is freshly initialized when its class count
    changes or when reinit_head is set (disjoint label spaces); the body
    is copied bit-for-bit either way.
    """
    spec = copy.deepcopy(source.spec)
    head_name, head_spec = spec.layers[-1]
    if head_spec.kind != "linear":
        raise BuildError("clone_into_target expects a linear head as last layer")
    reinit_head = reinit_head or (
        head_classes is not None and head_classes != head_spec.out_channels
    )
    if head_classes is not None:
        head_spec.out_channels = head_classes
    target = EmbeddingNetwork(spec, seed=head_seed, param_prefix=source.prefix)
    state = source.state_dict()
    if reinit_head:
        for key in (f"{source.prefix}{head_name}.w", f"{source.prefix}{head_name}.b"):
            state[key] = target.params[key].data.copy()
    target.load_state_dict(state)
    return target


# -- architecture presets -------------------------------------------------
#
# Each block pools before its ReLU.  Max commutes with ReLU in value and in
# gradient (both send g to a window's first maximum only when it is above 0),
# so this equals the usual relu-then-pool bit for bit while the ReLU runs on
# a quarter of the elements.  Neither layer has parameters or is a tap, so
# checkpoints and tap names are unaffected.


def digit_embedding_spec(n_classes: int = 5, taps=("pool4_flat", "fc1", "fc2")) -> NetworkSpec:
    """Four conv-batchnorm-pool-relu blocks on 1x32x32, then 64->64->K head.

    A final 2x2 pool collapses the remaining 2x2 map so the flattened
    feature width is 64, matching the 64x64 fc1 kernel.
    """
    layers = []
    for i in range(1, 5):
        layers += [
            (f"conv{i}", LayerSpec("conv", out_channels=64, kernel=3, stride=1, padding=1)),
            (f"bn{i}", LayerSpec("batchnorm")),
            (f"pool{i}", LayerSpec("maxpool", kernel=2, stride=2)),
            (f"relu{i}", LayerSpec("relu")),
        ]
    layers += [
        ("pool_out", LayerSpec("maxpool", kernel=2, stride=2)),
        ("pool4_flat", LayerSpec("flatten")),
        ("fc1", LayerSpec("linear", out_channels=64)),
        ("fc1_relu", LayerSpec("relu")),
        ("fc2", LayerSpec("linear", out_channels=n_classes)),
    ]
    return NetworkSpec(input_shape=(1, 32, 32), layers=layers, taps=list(taps))


def ablation_embedding_spec(n_classes: int = 10, taps=("flat", "fc1", "fc2")) -> NetworkSpec:
    """LeNet-style net on 1x28x28: two conv-pool-relu blocks, 800->500->K head.

    conv2 has 50 channels so the flattened width is 800 (= 50 * 4 * 4),
    matching the 800x500 fc1 kernel.
    """
    layers = [
        ("conv1", LayerSpec("conv", out_channels=20, kernel=5, stride=1, padding=0)),
        ("pool1", LayerSpec("maxpool", kernel=2, stride=2)),
        ("relu1", LayerSpec("relu")),
        ("conv2", LayerSpec("conv", out_channels=50, kernel=5, stride=1, padding=0)),
        ("pool2", LayerSpec("maxpool", kernel=2, stride=2)),
        ("relu2", LayerSpec("relu")),
        ("flat", LayerSpec("flatten")),
        ("fc1", LayerSpec("linear", out_channels=500)),
        ("fc1_relu", LayerSpec("relu")),
        ("fc2", LayerSpec("linear", out_channels=n_classes)),
    ]
    return NetworkSpec(input_shape=(1, 28, 28), layers=layers, taps=list(taps))


def synth_embedding_spec(n_classes: int, image_size: int = 16,
                         taps=("flat", "fc1", "fc2")) -> NetworkSpec:
    """Small two-block net for the synthetic fixture; same tap layout."""
    layers = [
        ("conv1", LayerSpec("conv", out_channels=16, kernel=3, stride=1, padding=1)),
        ("bn1", LayerSpec("batchnorm")),
        ("pool1", LayerSpec("maxpool", kernel=2, stride=2)),
        ("relu1", LayerSpec("relu")),
        ("conv2", LayerSpec("conv", out_channels=16, kernel=3, stride=1, padding=1)),
        ("bn2", LayerSpec("batchnorm")),
        ("pool2", LayerSpec("maxpool", kernel=2, stride=2)),
        ("relu2", LayerSpec("relu")),
        ("flat", LayerSpec("flatten")),
        ("fc1", LayerSpec("linear", out_channels=32)),
        ("fc1_relu", LayerSpec("relu")),
        ("fc2", LayerSpec("linear", out_channels=n_classes)),
    ]
    return NetworkSpec(input_shape=(1, image_size, image_size), layers=layers, taps=list(taps))
