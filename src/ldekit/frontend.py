"""Configurable 1-D convolutional residual feature extractor.

Maps a raw D_in x L_in frame sequence to a D_out x L_out sequence for the
pooling layer, halving the temporal axis (ceiling division) at every
downsampling stage. Convolutions use symmetric same-padding so
L_out = ceil(L_in / stride) holds for every length; residual blocks are
pre-activation with parameter-free shortcuts (strided subsampling plus
zero-padded channels), so a block with all-zero weights is exactly the
(possibly downsampled) identity. Forward and backward are written by
hand; there is no autodiff anywhere in this package.

Every layer takes and returns (B, channels, length) batches. Each
convolution's forward pass, weight gradient and input gradient are BLAS
matrix products over the whole batch against an im2col patch matrix.
Training and scoring run the one `forward_batch`. With `keep` set, as
in training, every layer returns the cache that `backward_batch` reads:
each patch matrix and activation output. With `keep` off, as in scoring,
each convolution drops its patch matrix once the product is taken, so a
scored utterance (a batch of one) holds one layer's patches at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ndcore import DimensionError, Param, Rng

ACTIVATIONS = ("relu", "linear", "tanh")


class LengthError(ValueError):
    """Input sequence is shorter than the network can downsample."""


@dataclass
class StageSpec:
    channels: int
    blocks: int
    downsample: bool

    def __post_init__(self):
        if self.channels < 1 or self.blocks < 1:
            raise ValueError("channels and blocks must be >= 1")


@dataclass
class ConvSpec:
    """Network shape: stem conv into a list of residual stages."""

    in_dim: int
    stages: list
    kernel: int = 3
    activation: str = "relu"

    def __post_init__(self):
        if self.in_dim < 1:
            raise ValueError("in_dim must be >= 1")
        if not self.stages:
            raise ValueError("at least one stage required")
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise ValueError("kernel must be odd and >= 1")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        prev = self.stages[0].channels
        for st in self.stages[1:]:
            if st.channels < prev:
                raise ValueError("stage channels must be non-decreasing "
                                 "(shortcuts zero-pad, never truncate)")
            prev = st.channels

    @property
    def num_downsamples(self) -> int:
        return sum(1 for st in self.stages if st.downsample)

    @property
    def min_length(self) -> int:
        return 2 ** self.num_downsamples

    @property
    def out_dim(self) -> int:
        return self.stages[-1].channels

    @classmethod
    def desk_default(cls, in_dim: int) -> "ConvSpec":
        """Two downsampling stages, 16 then 32 channels, one block each."""
        return cls(in_dim=in_dim,
                   stages=[StageSpec(16, 1, True), StageSpec(32, 1, True)],
                   kernel=3, activation="relu")


def _activate(kind: str, x: np.ndarray, out=None) -> np.ndarray:
    """The activation; `out=x` takes it in place."""
    if kind == "relu":
        return np.maximum(x, 0.0, out=out)
    if kind == "tanh":
        return np.tanh(x, out=out)
    return x


def _act_backward(kind: str, y: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """The input gradient, read from the activation's output `y`: ReLU's
    y > 0 exactly where its input is, and tanh' = 1 - y**2."""
    if kind == "relu":
        return dy * (y > 0)
    if kind == "tanh":
        return dy * (1.0 - y ** 2)
    return dy


def _same_padding(length: int, kernel: int, stride: int):
    out_len = -(-length // stride)
    total = max((out_len - 1) * stride + kernel - length, 0)
    left = total // 2
    return out_len, left, total - left


@lru_cache(maxsize=4096)
def _tap_windows(length: int, kernel: int, stride: int):
    """Per kernel tap k: the output positions [lo, hi) whose input index
    j * stride + k - left lies inside the sequence, and the input slice
    they read. Outside that window a tap sees same-padding zeros. The
    plan depends only on the shape, so it is built once per shape."""
    out_len, left, _ = _same_padding(length, kernel, stride)
    windows = []
    for k in range(kernel):
        offset = k - left
        lo = max(0, -(offset // stride))
        hi = max(lo, min(out_len, (length - 1 - offset) // stride + 1))
        start = lo * stride + offset
        windows.append((lo, hi, slice(start, start + (hi - lo - 1) * stride + 1,
                                      stride)))
    return out_len, tuple(windows)


def _patches(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """The (B, I*K, out_len) im2col matrix of a (B, I, L) batch:
    patches[b, i, k, j] = x[b, i, j*stride + k - left], zero outside the
    sequence, where only the pad columns that exist are zeroed."""
    batch, channels, length = x.shape
    out_len, windows = _tap_windows(length, kernel, stride)
    patches = np.empty((batch, channels, kernel, out_len))
    for k, (lo, hi, src) in enumerate(windows):
        if lo:
            patches[:, :, k, :lo] = 0.0
        if hi < out_len:
            patches[:, :, k, hi:] = 0.0
        patches[:, :, k, lo:hi] = x[:, :, src]
    return patches.reshape(batch, channels * kernel, out_len)


class Conv1d:
    """Cross-correlation over time with same-padding and optional stride.

    Forward multiplies the weights into an im2col patch matrix; backward
    takes the weight gradient as per-member patch products summed over
    the batch and the input gradient as the transposed product. Patches
    are read, and input gradients scattered, tap by tap inside each tap's
    in-range window (`_tap_windows`), so no padded copy is built.
    `forward` keeps its patches for `backward` only when `keep` is set.
    """

    def __init__(self, name, in_channels, out_channels, kernel, stride,
                 rng: Rng | None = None):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        if rng is None:
            w = np.zeros((out_channels, in_channels, kernel))
        else:
            std = np.sqrt(2.0 / (in_channels * kernel))
            w = rng.normal((out_channels, in_channels, kernel), std=std)
        self.weight = Param(f"{name}.weight", w)
        self.bias = Param(f"{name}.bias", np.zeros(out_channels))

    def params(self):
        return [self.weight, self.bias]

    def forward(self, x: np.ndarray, keep: bool = True):
        """The output, plus the cache for `backward`: None unless `keep`,
        so the patches die with the call."""
        flat = _patches(x, self.kernel, self.stride)
        w2 = self.weight.value.reshape(self.out_channels, -1)
        y = np.matmul(w2, flat)
        y += self.bias.value[:, None]
        return y, ((flat, x.shape[2]) if keep else None)

    def backward(self, cache, dy: np.ndarray, input_grad: bool = True):
        """Accumulates the parameter gradients; returns the input gradient,
        or None when `input_grad` is false."""
        flat, length = cache
        batch = dy.shape[0]
        self.bias.grad += dy.sum(axis=(0, 2))
        self.weight.grad += np.matmul(dy, flat.transpose(0, 2, 1)).sum(
            axis=0).reshape(self.weight.value.shape)
        if not input_grad:
            return None
        out_len, windows = _tap_windows(length, self.kernel, self.stride)
        w2 = self.weight.value.reshape(self.out_channels, -1)
        dpatches = np.matmul(w2.T, dy).reshape(
            batch, self.in_channels, self.kernel, out_len)
        dx = np.zeros((batch, self.in_channels, length))
        for k, (lo, hi, src) in enumerate(windows):
            dx[:, :, src] += dpatches[:, :, k, lo:hi]
        return dx


class ResidualBlock:
    """Pre-activation residual block.

    out = shortcut(x) + conv2(act(conv1(act(x)))); conv1 carries the
    stride and the channel change, the shortcut is strided subsampling
    plus zero-padded channels and has no parameters: it is added onto
    the first in_channels output channels.
    """

    def __init__(self, name, in_channels, out_channels, kernel, stride,
                 activation, rng: Rng | None):
        if out_channels < in_channels:
            raise ValueError("residual blocks cannot shrink channels")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.stride = stride
        self.activation = activation
        self.conv1 = Conv1d(f"{name}.conv1", in_channels, out_channels,
                            kernel, stride, rng)
        self.conv2 = Conv1d(f"{name}.conv2", out_channels, out_channels,
                            kernel, 1, rng)

    def params(self):
        return self.conv1.params() + self.conv2.params()

    def forward(self, x: np.ndarray, keep: bool = True):
        """The output, plus the cache for `backward` (None unless `keep`).
        The second activation runs in place, since conv1's output is
        needed for nothing else; the first may not, since the shortcut
        reads x."""
        a1 = _activate(self.activation, x)
        h1, cc1 = self.conv1.forward(a1, keep)
        a2 = _activate(self.activation, h1, out=h1)
        y, cc2 = self.conv2.forward(a2, keep)
        y[:, :self.in_channels, :] += x[:, :, ::self.stride]
        return y, ((a1, cc1, a2, cc2) if keep else None)

    def backward(self, cache, dy: np.ndarray) -> np.ndarray:
        a1, cc1, a2, cc2 = cache
        da2 = self.conv2.backward(cc2, dy)
        dh1 = _act_backward(self.activation, a2, da2)
        da1 = self.conv1.backward(cc1, dh1)
        dx = _act_backward(self.activation, a1, da1)
        dx[:, :, ::self.stride] += dy[:, :self.in_channels, :]
        return dx


class Frontend:
    """Stem convolution followed by the configured residual stages."""

    def __init__(self, spec: ConvSpec, rng: Rng | None):
        self.spec = spec
        self.stem = Conv1d("frontend.stem", spec.in_dim,
                           spec.stages[0].channels, spec.kernel, 1, rng)
        self.blocks = []
        prev = spec.stages[0].channels
        for si, stage in enumerate(spec.stages):
            for bi in range(stage.blocks):
                stride = 2 if (bi == 0 and stage.downsample) else 1
                self.blocks.append(ResidualBlock(
                    f"frontend.s{si}b{bi}", prev, stage.channels,
                    spec.kernel, stride, spec.activation, rng))
                prev = stage.channels

    def params(self):
        out = self.stem.params()
        for b in self.blocks:
            out += b.params()
        return out

    def forward_batch(self, x: np.ndarray, keep: bool = True):
        """(B, D_in, L_in) to (B, D_out, L_out), plus the per-layer caches
        for `backward_batch`, or None unless `keep`."""
        if x.ndim != 3 or x.shape[1] != self.spec.in_dim:
            raise DimensionError(
                f"expected (B, {self.spec.in_dim}, L) input, got {x.shape}")
        if x.shape[2] < self.spec.min_length:
            raise LengthError(
                f"input length {x.shape[2]} below the minimum "
                f"{self.spec.min_length} required by "
                f"{self.spec.num_downsamples} downsampling stages")
        h, cache = self.stem.forward(x, keep)
        caches = [cache]
        for block in self.blocks:
            h, cache = block.forward(h, keep)
            caches.append(cache)
        return h, (caches if keep else None)

    def backward_batch(self, caches: list, dy: np.ndarray,
                       input_grad: bool = True):
        """Accumulates the parameter gradients from the caches that
        forward_batch returned; returns the gradient w.r.t. the input
        features, or None when `input_grad` is false."""
        for block, cache in zip(reversed(self.blocks), reversed(caches[1:])):
            dy = block.backward(cache, dy)
        return self.stem.backward(caches[0], dy, input_grad)

