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
Training runs `forward_batch`, which keeps every patch matrix and
activation for `backward_batch`. Scoring runs `apply`, forward only:
each convolution drops its patch matrix once the product is taken, and
each activation is one pass over a layer's input, so a scored utterance
(a batch of one) holds one layer's patches at a time.
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


def _act_forward(kind: str, x: np.ndarray):
    if kind == "relu":
        mask = x > 0
        return x * mask, mask
    if kind == "tanh":
        y = np.tanh(x)
        return y, y
    return x, None


def _act_backward(kind: str, cache, dy: np.ndarray) -> np.ndarray:
    if kind == "relu":
        return dy * cache
    if kind == "tanh":
        return dy * (1.0 - cache ** 2)
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


def _activate(kind: str, x: np.ndarray, out=None) -> np.ndarray:
    """The activation alone, for the forward-only pass; `out=x` takes it
    in place."""
    if kind == "relu":
        return np.maximum(x, 0.0, out=out)
    if kind == "tanh":
        return np.tanh(x, out=out)
    return x


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
    `forward` keeps its patches for `backward`; `apply` drops them.
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

    def forward(self, x: np.ndarray):
        flat = _patches(x, self.kernel, self.stride)
        return self._affine(flat), (flat, x.shape[2])

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Forward only; the patches die with the call."""
        return self._affine(_patches(x, self.kernel, self.stride))

    def _affine(self, flat: np.ndarray) -> np.ndarray:
        w2 = self.weight.value.reshape(self.out_channels, -1)
        y = np.matmul(w2, flat)
        y += self.bias.value[:, None]
        return y

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

    def forward(self, x: np.ndarray):
        a1, ca1 = _act_forward(self.activation, x)
        h1, cc1 = self.conv1.forward(a1)
        a2, ca2 = _act_forward(self.activation, h1)
        y, cc2 = self.conv2.forward(a2)
        y[:, :self.in_channels, :] += x[:, :, ::self.stride]
        return y, (ca1, cc1, ca2, cc2)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Forward only. Each activation is one contiguous pass, the second
        in place: conv1's output is needed for nothing else."""
        h = self.conv1.apply(_activate(self.activation, x))
        y = self.conv2.apply(_activate(self.activation, h, out=h))
        y[:, :self.in_channels, :] += x[:, :, ::self.stride]
        return y

    def backward(self, cache, dy: np.ndarray) -> np.ndarray:
        ca1, cc1, ca2, cc2 = cache
        da2 = self.conv2.backward(cc2, dy)
        dh1 = _act_backward(self.activation, ca2, da2)
        da1 = self.conv1.backward(cc1, dh1)
        dx = _act_backward(self.activation, ca1, da1)
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

    def _check(self, x: np.ndarray) -> None:
        if x.ndim != 3 or x.shape[1] != self.spec.in_dim:
            raise DimensionError(
                f"expected (B, {self.spec.in_dim}, L) input, got {x.shape}")
        if x.shape[2] < self.spec.min_length:
            raise LengthError(
                f"input length {x.shape[2]} below the minimum "
                f"{self.spec.min_length} required by "
                f"{self.spec.num_downsamples} downsampling stages")

    def apply(self, x: np.ndarray) -> np.ndarray:
        """(B, D_in, L_in) to (B, D_out, L_out), forward only."""
        self._check(x)
        h = self.stem.apply(x)
        for block in self.blocks:
            h = block.apply(h)
        return h

    def forward_batch(self, x: np.ndarray):
        """(B, D_in, L_in) to (B, D_out, L_out), plus the per-layer caches."""
        self._check(x)
        caches = []
        h, cache = self.stem.forward(x)
        caches.append(cache)
        for block in self.blocks:
            h, cache = block.forward(h)
            caches.append(cache)
        return h, caches

    def backward_batch(self, caches: list, dy: np.ndarray,
                       input_grad: bool = True):
        """Accumulates the parameter gradients from the caches that
        forward_batch returned; returns the gradient w.r.t. the input
        features, or None when `input_grad` is false."""
        for block, cache in zip(reversed(self.blocks), reversed(caches[1:])):
            dy = block.backward(cache, dy)
        return self.stem.backward(caches[0], dy, input_grad)

