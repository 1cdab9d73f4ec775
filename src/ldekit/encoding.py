"""Dictionary-encoding pooling layers for variable-length sequences.

The main layer soft-assigns every input frame to a bank of learnable
center vectors and aggregates the per-center residuals into one
fixed-size utterance vector. Assignment weights are a softmax over
negative scaled squared distances; the scale is either one shared
constant or a learnable per-center smoothing factor. Setting C = 1
with the center pinned at zero degenerates to plain temporal average
pooling, and driving the shared scale to infinity degenerates to
K-means hard assignment; both limits are exercised by the tests.

Gradients are hand-derived and exact, including the softmax coupling
across centers, the optional per-center aggregation denominator, the
softplus positivity mapping of the smoothing factors, and the final
whole-vector length normalization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ndcore import DimensionError, Param, Rng, softmax_rows, sq_dists

# Denominators below this are clamped (and the component flagged) instead
# of dividing by ~0: soft clusters can be empty, norms can vanish.
DENOM_FLOOR = 1e-30

SMOOTHING_SHARED = "shared_beta"
SMOOTHING_PER_COMPONENT = "per_component"
AGG_NORMALIZED = "normalized"
AGG_MEAN = "mean"


class EmptySequenceError(ValueError):
    """The input sequence has no frames."""


@dataclass
class LdeConfig:
    """Layer hyper-parameters: C centers of dimension D plus mode switches."""

    num_components: int
    feature_dim: int
    smoothing_mode: str = SMOOTHING_PER_COMPONENT
    beta: float = 1.0
    aggregation_mode: str = AGG_MEAN
    length_normalize: bool = True

    def __post_init__(self):
        if self.num_components < 1:
            raise ValueError("num_components must be >= 1")
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be >= 1")
        if self.smoothing_mode not in (SMOOTHING_SHARED, SMOOTHING_PER_COMPONENT):
            raise ValueError(f"unknown smoothing_mode {self.smoothing_mode!r}")
        if self.aggregation_mode not in (AGG_NORMALIZED, AGG_MEAN):
            raise ValueError(f"unknown aggregation_mode {self.aggregation_mode!r}")
        if self.smoothing_mode == SMOOTHING_SHARED and not self.beta > 0:
            raise ValueError(f"shared beta must be > 0, got {self.beta}")


def softplus(x):
    # log(1 + exp(x)) without overflow for large positive x
    x = np.asarray(x, dtype=np.float64)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def inv_softplus(y):
    # inverse of softplus for y > 0
    y = np.asarray(y, dtype=np.float64)
    return y + np.log(-np.expm1(-y))


class Dictionary:
    """Learnable center bank: centers (C x D) and raw smoothing (C x 1).

    The raw smoothing parameter is unconstrained; the effective smoothing
    used in the assignment softmax is softplus(raw), so it stays positive
    under any gradient update. In shared-beta mode the smoothing Param is
    ignored (the constant comes from the config).
    """

    def __init__(self, centers: np.ndarray, smoothing_raw: np.ndarray):
        centers = np.asarray(centers, dtype=np.float64)
        smoothing_raw = np.asarray(smoothing_raw, dtype=np.float64).reshape(-1, 1)
        if smoothing_raw.shape[0] != centers.shape[0]:
            raise DimensionError("one smoothing value per center required")
        self.centers = Param("dictionary.centers", centers)
        self.smoothing = Param("dictionary.smoothing", smoothing_raw)

    @property
    def num_components(self) -> int:
        return self.centers.value.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.centers.value.shape[1]

    def effective_smoothing(self) -> np.ndarray:
        """Positive per-center smoothing values, shape (C,)."""
        return softplus(self.smoothing.value[:, 0])

    def params(self):
        return [self.centers, self.smoothing]

    @classmethod
    def init(cls, cfg: LdeConfig, rng: Rng) -> "Dictionary":
        """Centers uniform in [-1/sqrt(C), 1/sqrt(C)] per coordinate,
        effective smoothing uniform in (0, 1]."""
        c, d = cfg.num_components, cfg.feature_dim
        bound = 1.0 / np.sqrt(c)
        centers = rng.uniform((c, d), low=-bound, high=bound)
        s_eff = 1.0 - rng.uniform((c, 1), low=0.0, high=1.0)  # (0, 1]
        return cls(centers, inv_softplus(s_eff))

    @classmethod
    def zeros(cls, cfg: LdeConfig, smoothing: float = 1.0) -> "Dictionary":
        c, d = cfg.num_components, cfg.feature_dim
        raw = np.full((c, 1), inv_softplus(smoothing))
        return cls(np.zeros((c, d)), raw)


@dataclass
class EncodedVector:
    """Fixed-size utterance representation: C x D matrix, flat view C*D."""

    e: np.ndarray
    zero_norm: bool = False
    floored_components: list = field(default_factory=list)

    @property
    def flat(self) -> np.ndarray:
        return self.e.reshape(-1)


@dataclass
class LdeSaved:
    """Everything the backward pass needs; nothing is recomputed."""

    frames: np.ndarray        # L x D input, frames as rows
    residuals: np.ndarray     # L x C x D, frame minus center
    sq_dists: np.ndarray      # L x C
    weights: np.ndarray       # L x C, rows sum to 1
    s_eff: np.ndarray         # C, effective smoothing actually used
    denom: np.ndarray | None  # C, aggregation denominators (normalized mode)
    denom_floored: np.ndarray | None  # C bools, True where denom was clamped
    pre_norm: np.ndarray      # C*D flat vector before length normalization
    norm: float               # its Euclidean norm
    cfg: LdeConfig


def _check_input(x: np.ndarray, feature_dim: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != feature_dim:
        raise DimensionError(
            f"expected a {feature_dim} x L feature sequence, got shape {x.shape}"
        )
    if x.shape[1] < 1:
        raise EmptySequenceError("feature sequence has no frames")
    return x


def lde_forward(x: np.ndarray, dictionary: Dictionary,
                cfg: LdeConfig) -> tuple[EncodedVector, LdeSaved]:
    """Encode a D x L sequence into a C x D utterance vector.

    Weights: w[t, c] = softmax over c of -s_c * ||x_t - mu_c||^2, with s_c
    either the shared constant or softplus of the learnable raw smoothing.
    Aggregation: sum_t w[t, c] * (x_t - mu_c), divided by sum_t w[t, c]
    in normalized mode or by L in mean mode. Length normalization, when
    configured, rescales the flattened C*D vector to unit Euclidean norm.
    """
    if (dictionary.num_components != cfg.num_components
            or dictionary.feature_dim != cfg.feature_dim):
        raise DimensionError("dictionary shape does not match config")
    x = _check_input(x, cfg.feature_dim)
    frames = x.T  # L x D
    num_frames = frames.shape[0]

    residuals = frames[:, None, :] - dictionary.centers.value[None, :, :]
    sq_dists = np.einsum("tcd,tcd->tc", residuals, residuals)
    if cfg.smoothing_mode == SMOOTHING_SHARED:
        s_eff = np.full(cfg.num_components, float(cfg.beta))
    else:
        s_eff = dictionary.effective_smoothing()
    weights = softmax_rows(-sq_dists * s_eff[None, :])

    weighted = np.einsum("tc,tcd->cd", weights, residuals)
    if cfg.aggregation_mode == AGG_MEAN:
        e = weighted / num_frames
        denom = None
        floored = None
        floored_list = []
    else:
        mass = weights.sum(axis=0)
        floored = mass < DENOM_FLOOR
        denom = np.maximum(mass, DENOM_FLOOR)
        e = weighted / denom[:, None]
        floored_list = list(np.flatnonzero(floored))

    pre_norm = e.reshape(-1).copy()
    norm = float(np.linalg.norm(pre_norm))
    zero_norm = False
    if cfg.length_normalize:
        if norm > DENOM_FLOOR:
            e = (pre_norm / norm).reshape(e.shape)
        else:
            zero_norm = True

    saved = LdeSaved(frames=frames, residuals=residuals, sq_dists=sq_dists,
                     weights=weights, s_eff=s_eff, denom=denom,
                     denom_floored=floored, pre_norm=pre_norm, norm=norm,
                     cfg=cfg)
    return EncodedVector(e=e, zero_norm=zero_norm,
                         floored_components=floored_list), saved


def lde_backward(saved: LdeSaved, grad_out: np.ndarray,
                 dictionary: Dictionary, cfg: LdeConfig) -> np.ndarray:
    """Backprop through the encoder.

    `grad_out` is the loss gradient w.r.t. the layer output (C x D or flat
    C*D). Returns the gradient w.r.t. the D x L input and accumulates the
    center and smoothing gradients into the dictionary Params.
    """
    if cfg is not saved.cfg and cfg != saved.cfg:
        raise DimensionError("config does not match the one used in forward")
    num_frames, num_comp = saved.weights.shape
    dim = saved.frames.shape[1]
    g = np.asarray(grad_out, dtype=np.float64).reshape(num_comp, dim).copy()

    if cfg.length_normalize and not (saved.norm <= DENOM_FLOOR):
        # y = v / ||v||  =>  dv = (g - (g . y) y) / ||v||
        gf = g.reshape(-1)
        y = saved.pre_norm / saved.norm
        g = ((gf - np.dot(gf, y) * y) / saved.norm).reshape(num_comp, dim)

    # dL/dw[t,c] and the direct residual path of the aggregation
    g_dot_r = np.einsum("cd,tcd->tc", g, saved.residuals)
    if cfg.aggregation_mode == AGG_MEAN:
        dw = g_dot_r / num_frames
        dres = (saved.weights / num_frames)[:, :, None] * g[None, :, :]
    else:
        denom = saved.denom
        e = saved.pre_norm.reshape(num_comp, dim)
        dw = g_dot_r / denom[None, :]
        # denominator path: e_c = S_c / W_c adds -(g . e_c) / W_c, absent
        # where the floor clamped the denominator
        live = ~saved.denom_floored
        g_dot_e = np.einsum("cd,cd->c", g, e)
        dw[:, live] -= (g_dot_e / denom)[None, live]
        dres = (saved.weights / denom[None, :])[:, :, None] * g[None, :, :]

    # softmax over centers: u[t,c] = w[t,c] * (dw[t,c] - sum_m dw[t,m] w[t,m])
    u = saved.weights * (dw - np.einsum("tm,tm->t", dw, saved.weights)[:, None])

    # logits a[t,c] = -s_c * d[t,c]
    dsq = -u * saved.s_eff[None, :]
    ds_eff = -np.einsum("tc,tc->c", u, saved.sq_dists)

    dres += (2.0 * dsq)[:, :, None] * saved.residuals

    grad_frames = dres.sum(axis=1)            # L x D
    dictionary.centers.grad -= dres.sum(axis=0)
    if cfg.smoothing_mode == SMOOTHING_PER_COMPONENT:
        # chain through softplus: d s_eff / d raw = sigmoid(raw)
        raw = dictionary.smoothing.value[:, 0]
        sig = 1.0 / (1.0 + np.exp(-raw))
        dictionary.smoothing.grad[:, 0] += ds_eff * sig
    return grad_frames.T


def tap_forward(x: np.ndarray) -> np.ndarray:
    """Temporal average: D x L sequence to a length-D vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionError(f"expected a D x L sequence, got shape {x.shape}")
    if x.shape[1] < 1:
        raise EmptySequenceError("feature sequence has no frames")
    return x.mean(axis=1)


def length_normalize(v: np.ndarray) -> tuple[np.ndarray, bool]:
    """Scale to unit Euclidean norm; zero-norm inputs pass through flagged."""
    v = np.asarray(v, dtype=np.float64)
    norm = float(np.linalg.norm(v))
    if norm > DENOM_FLOOR:
        return v / norm, False
    return v.copy(), True


def hard_assign(x: np.ndarray, dictionary: Dictionary) -> np.ndarray:
    """Per-frame index of the nearest center; ties go to the lowest index."""
    x = _check_input(x, dictionary.feature_dim)
    return np.argmin(sq_dists(x.T, dictionary.centers.value), axis=1)
