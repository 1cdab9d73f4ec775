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

Training and scoring both run `lde_forward`, on a (B, D, L) batch or a
batch of one, component-major (B x C x L) on `ndcore.sq_dists`, as
`gmm.py` scores frames; it keeps what `lde_backward` reads.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    def zeros(cls, cfg: LdeConfig) -> "Dictionary":
        c, d = cfg.num_components, cfg.feature_dim
        raw = np.full((c, 1), inv_softplus(1.0))
        return cls(np.zeros((c, d)), raw)


@dataclass
class EncodedVector:
    """Fixed-size utterance representations of a batch: B x C x D
    matrices `e` and their flat view B x C*D. Which members' denominators
    were clamped or norms vanished is in `LdeSaved`."""

    e: np.ndarray

    @property
    def flat(self) -> np.ndarray:
        return self.e.reshape(self.e.shape[0], -1)


@dataclass
class LdeSaved:
    """Everything the backward pass needs, including the config forward
    ran with; only the norms of `pre_norm` are recomputed."""

    x: np.ndarray             # B x D x L input
    centers: np.ndarray       # C x D centers used in forward
    sq_dists: np.ndarray      # B x L x C view of the B x C x L distances
    weights: np.ndarray       # B x L x C view of B x C x L, rows sum to 1
    s_eff: np.ndarray         # C, effective smoothing actually used
    denom: np.ndarray         # B x C aggregation denominators (L in mean mode)
    floored: np.ndarray       # B x C bools, True where denom was clamped
    pre_norm: np.ndarray      # B x C*D vectors before length normalization
    zero_norm: np.ndarray     # B bools, True where normalization was skipped
    cfg: LdeConfig


def _check_batch(x: np.ndarray, feature_dim: int | None = None) -> np.ndarray:
    """x as a float64 (B, D, L) batch of non-empty sequences, with D equal
    to feature_dim when one is given."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or feature_dim not in (None, x.shape[1]):
        raise DimensionError(
            f"expected a (B, {feature_dim or 'D'}, L) batch of feature "
            f"sequences, got shape {x.shape}")
    if x.shape[2] < 1:
        raise EmptySequenceError("feature sequence has no frames")
    return x


def _check_inputs(x: np.ndarray, dictionary: Dictionary,
                  cfg: LdeConfig) -> np.ndarray:
    if (dictionary.num_components != cfg.num_components
            or dictionary.feature_dim != cfg.feature_dim):
        raise DimensionError("dictionary shape does not match config")
    return _check_batch(x, cfg.feature_dim)


def _smoothing(dictionary: Dictionary, cfg: LdeConfig) -> np.ndarray:
    """The C smoothing values the assignment softmax scales by."""
    if cfg.smoothing_mode == SMOOTHING_SHARED:
        return np.full(cfg.num_components, float(cfg.beta))
    return softplus(dictionary.smoothing.value[:, 0])


def lde_forward(x: np.ndarray, dictionary: Dictionary,
                cfg: LdeConfig) -> tuple[EncodedVector, LdeSaved]:
    """Encode a (B, D, L) batch into (B, C, D) utterance vectors.

    Weights: w[c, t] = softmax over c of -s_c * ||x_t - mu_c||^2, with s_c
    either the shared constant or softplus of the learnable raw smoothing.
    Aggregation: sum_t w[c, t] * (x_t - mu_c), divided by sum_t w[c, t]
    in normalized mode or by L in mean mode. Length normalization, when
    configured, rescales the flattened C*D vector to unit Euclidean norm.

    Distances and weights are B x C x L, component-major, so the softmax
    reduces over C contiguous rows of L, and the residual sum is
    W X^T - (sum_t w[c, t]) mu_c, so no C x D x L tensor is built.
    """
    x = _check_inputs(x, dictionary, cfg)
    batch, _, num_frames = x.shape
    centers = dictionary.centers.value.copy()  # updates are in place

    sq = sq_dists(centers, x)
    s_eff = _smoothing(dictionary, cfg)
    weights = softmax_rows(sq * -s_eff[:, None], axis=1)

    mass = weights.sum(axis=2)  # B x C
    e = weights @ x.transpose(0, 2, 1)
    e -= mass[:, :, None] * centers
    if cfg.aggregation_mode == AGG_MEAN:
        denom = np.full_like(mass, float(num_frames))
        floored = np.zeros(mass.shape, dtype=bool)
    else:
        floored = mass < DENOM_FLOOR
        denom = np.maximum(mass, DENOM_FLOOR)
    e /= denom[:, :, None]

    pre_norm = e.reshape(batch, -1)
    zero_norm = np.zeros(batch, dtype=bool)
    if cfg.length_normalize:
        flat, zero_norm = length_normalize(pre_norm)
        e = flat.reshape(e.shape)

    saved = LdeSaved(x=x, centers=centers, sq_dists=sq.transpose(0, 2, 1),
                     weights=weights.transpose(0, 2, 1), s_eff=s_eff,
                     denom=denom, floored=floored, pre_norm=pre_norm,
                     zero_norm=zero_norm, cfg=cfg)
    return EncodedVector(e), saved


def lde_backward(saved: LdeSaved, grad_out: np.ndarray,
                 dictionary: Dictionary) -> np.ndarray:
    """Backprop through the encoder, in the config forward saved.

    `grad_out` is the loss gradient w.r.t. the layer output, (B, C, D) or
    flat (B, C*D). Returns the gradient w.r.t. the (B, D, L) input and
    accumulates the center and smoothing gradients (summed over the
    batch) into the dictionary Params. Runs B x C x L, as forward did.
    """
    cfg = saved.cfg
    x, centers = saved.x, saved.centers
    weights = saved.weights.transpose(0, 2, 1)
    batch, num_comp, _ = weights.shape
    dim = x.shape[1]
    g = np.asarray(grad_out, dtype=np.float64)
    if g.shape not in ((batch, num_comp, dim), (batch, num_comp * dim)):
        raise DimensionError(f"expected a ({batch}, {num_comp}, {dim}) output "
                             f"gradient or its flat form, got {g.shape}")
    g = g.reshape(batch, num_comp * dim)

    if cfg.length_normalize:
        # y = v / ||v||  =>  dv = (g - (g . y) y) / ||v||, per member whose
        # norm was not floored
        live = ~saved.zero_norm
        norm = np.sqrt(np.einsum("bi,bi->b", saved.pre_norm, saved.pre_norm))
        norm = np.where(live, norm, 1.0)[:, None]
        y = saved.pre_norm / norm
        g_dot_y = np.einsum("bi,bi->b", g, y)[:, None]
        g = np.where(live[:, None], (g - g_dot_y * y) / norm, g)
    g = g.reshape(batch, num_comp, dim)

    # dL/dw[c,t] = g_c . (x_t - mu_c) / denom_c
    dw = g @ x
    dw -= np.einsum("bcd,cd->bc", g, centers)[:, :, None]
    dw /= saved.denom[:, :, None]
    if cfg.aggregation_mode == AGG_NORMALIZED:
        # denominator path: e_c = S_c / W_c adds -(g . e_c) / W_c, absent
        # where the floor clamped the denominator
        e = saved.pre_norm.reshape(g.shape)
        g_dot_e = np.einsum("bcd,bcd->bc", g, e)
        dw -= np.where(saved.floored, 0.0, g_dot_e / saved.denom)[:, :, None]

    # softmax over centers: u[c,t] = w[c,t] * (dw[c,t] - sum_m dw[m,t] w[m,t])
    u = weights * (dw - np.einsum("bml,bml->bl", dw, weights)[:, None, :])
    ds_eff = -np.einsum("bcl,bcl->c", u, saved.sq_dists.transpose(0, 2, 1))

    # d(loss)/d(x_t - mu_c) = a[c,t] g_c + q[c,t] (x_t - mu_c), with the
    # aggregation coefficient a = w / denom and q = 2 * dL/d(sq dist)
    a = weights / saved.denom[:, :, None]
    q = u * (-2.0 * saved.s_eff)[:, None]
    grad_x = g.transpose(0, 2, 1) @ a
    grad_x -= centers.T @ q
    grad_x += x * q.sum(axis=1)[:, None, :]

    grad_centers = np.einsum("bc,bcd->cd", a.sum(axis=2), g)
    grad_centers += (q @ x.transpose(0, 2, 1)).sum(axis=0)
    grad_centers -= q.sum(axis=(0, 2))[:, None] * centers
    dictionary.centers.grad -= grad_centers
    if cfg.smoothing_mode == SMOOTHING_PER_COMPONENT:
        # chain through softplus: d s_eff / d raw = sigmoid(raw)
        raw = dictionary.smoothing.value[:, 0]
        sig = 1.0 / (1.0 + np.exp(-raw))
        dictionary.smoothing.grad[:, 0] += ds_eff * sig
    return grad_x


def tap_forward(x: np.ndarray) -> np.ndarray:
    """Temporal average: a (B, D, L) batch to (B, D)."""
    return _check_batch(x).mean(axis=2)


def length_normalize(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scale each row of a B x N matrix to unit Euclidean norm; zero-norm
    rows pass through unscaled and are flagged (B bools)."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 2:
        raise DimensionError(f"expected a B x N matrix of rows, got {v.shape}")
    norm = np.sqrt(np.einsum("bi,bi->b", v, v))
    flag = norm <= DENOM_FLOOR
    return v / np.where(flag, 1.0, norm)[:, None], flag


def hard_assign(x: np.ndarray, dictionary: Dictionary) -> np.ndarray:
    """Per-frame index of the nearest center for one D x L sequence; ties
    go to the lowest index."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != dictionary.feature_dim:
        raise DimensionError(f"expected one {dictionary.feature_dim} x L "
                             f"sequence, got shape {x.shape}")
    return np.argmin(sq_dists(dictionary.centers.value, x), axis=0)
