"""Diagonal-covariance Gaussian mixtures: EM training, per-utterance
occupancy statistics, and the per-class mixture classifier.

This is the classical baseline the learnable encoder imitates. A mixture
summarizes an utterance by posterior-weighted zeroth/first-order
statistics n_c and f_c; with equal weights and one shared variance
sigma^2, the centered means f_c / n_c are what the dictionary encoder
returns with shared smoothing 1 / (2 sigma^2) and normalized
aggregation, so that encoder stands in for the GMM supervector.

A `GmmModel` computes its natural parameters once. EM expands them
against its pooled frames and their squares in two products;
`gmm_classify` scores a whole bank of one C x D shape in one, against
[x; x^2]. Both run on `ndcore.expand`, component-major, as k-means'
assignment does. There is one E-step, `_responsibilities`: EM,
`posteriors` and `accumulate_stats` all read its posteriors.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .ndcore import (
    DimensionError,
    Rng,
    expand,
    log_sum_exp_rows,
    sq_dists,
)

log = logging.getLogger(__name__)

EMPTY_COMPONENT_FLOOR = 1e-6
# variance floor as a fraction of the global per-dimension variance
VAR_FLOOR_FRACTION = 1e-3


@dataclass(frozen=True)
class GmmModel:
    """Mixture weights (C,), means (C x D), diagonal variances (C x D).

    The model holds read-only float64 copies of the three, so the caller's
    arrays stay writable and nothing can change the parameters behind the
    natural form computed here once: `natural`, the C x 2D block
    [mu/var, -1/(2 var)] that multiplies a frame stacked on its squares
    [x; x^2], and `log_norm`, the C constants log w - 1/2 (D log 2 pi +
    sum log var + sum mu^2/var). Together they give each component's log
    of weight times density as one product. Parameters whose natural
    form overflows are rejected with the other malformed ones.
    """

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    natural: np.ndarray = field(init=False, repr=False)
    log_norm: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("weights", "means", "variances"):
            self._freeze(name, np.array(getattr(self, name), dtype=np.float64))
        if self.means.ndim != 2:
            raise DimensionError("means and variances must be C x D")
        if self.means.shape != self.variances.shape:
            raise DimensionError("means and variances must have equal shapes")
        if self.weights.shape != (self.means.shape[0],):
            raise DimensionError("one weight per component required")
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError("mixture weights must sum to 1")
        if not all(np.isfinite(a).all()
                   for a in (self.weights, self.means, self.variances)):
            raise ValueError("mixture parameters must be finite")
        if np.any(self.variances <= 0):
            raise ValueError("variances must be positive")
        with np.errstate(over="ignore", invalid="ignore"):
            inv_var = 1.0 / self.variances
            natural = np.hstack([self.means * inv_var, -0.5 * inv_var])
            quad = (self.means ** 2 * inv_var).sum(axis=1)
        if not (np.isfinite(natural).all() and np.isfinite(quad).all()):
            raise ValueError("mixture parameters overflow their natural form")
        self._freeze("natural", natural)
        self._freeze("log_norm", np.log(self.weights) - 0.5 * (
            self.dim * np.log(2.0 * np.pi)
            + np.log(self.variances).sum(axis=1) + quad))

    def _freeze(self, name: str, value: np.ndarray) -> None:
        value.flags.writeable = False
        object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.means.shape[1]


@dataclass
class BaumWelchStats:
    """Zeroth-order counts n (C,) and centered first-order sums f (C x D)."""

    n: np.ndarray
    f: np.ndarray


def _check_sequence(model: GmmModel, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != model.dim:
        raise DimensionError(
            f"expected a {model.dim} x L feature sequence, got shape {x.shape}")
    if x.shape[1] < 1:
        raise ValueError("feature sequence has no frames")
    return x


def log_densities(model: GmmModel, frames: np.ndarray,
                  frames_sq: np.ndarray | None = None) -> np.ndarray:
    """Per-frame, per-component log of weight * diagonal Gaussian density.

    frames: L x D, and `frames ** 2` when the caller holds it (it is
    squared here otherwise). Returns L x C, the transposed view of a
    C x L array: (mu/var) . x - 1/2 (1/var) . x^2 + const per component,
    from the model's `natural` halves and `log_norm`.
    """
    if frames_sq is None:
        frames_sq = frames ** 2
    return expand(model.natural[:, :model.dim], model.natural[:, model.dim:],
                  model.log_norm, frames.T, frames_sq.T).T


def _responsibilities(model: GmmModel, x: np.ndarray, x_sq: np.ndarray
                      ) -> tuple[np.ndarray, float]:
    """C x N posteriors of the D x N frames `x` (squares `x_sq`) and their
    total log-likelihood; one max shift and exp give both."""
    post = log_densities(model, x.T, x_sq.T).T
    top = post.max(axis=0)
    post -= top
    np.exp(post, out=post)
    total = post.sum(axis=0)
    ll = float((top + np.log(total)).sum())
    post /= total
    return post, ll


def posteriors(model: GmmModel, x: np.ndarray) -> np.ndarray:
    """Occupancy probabilities, L x C, each row summing to 1: the E-step's
    max-shifted posteriors (`_responsibilities`), transposed."""
    x = _check_sequence(model, x)
    return _responsibilities(model, x, x ** 2)[0].T


def accumulate_stats(model: GmmModel, x: np.ndarray) -> BaumWelchStats:
    """Posterior-weighted counts and centered first-order sums.

    n_c = sum_t P(c | x_t); f_c = sum_t P(c | x_t) (x_t - mu_c).
    """
    x = _check_sequence(model, x)
    post = _responsibilities(model, x, x ** 2)[0]
    n = post.sum(axis=1)
    f = post @ x.T - n[:, None] * model.means
    return BaumWelchStats(n=n, f=f)


def _assign(centers: np.ndarray, x: np.ndarray) -> np.ndarray:
    """C x N one-hot of each of the D x N frames' nearest center, the
    argmax of the C x N scores mu . x - ||mu||^2 / 2: -||x - mu||^2 / 2 up
    to each frame's own ||x||^2 / 2. One product with the one-hot gives
    every cluster's sum, so no cluster's members are gathered. Ties go to
    the lowest center, as `argmax` breaks them; `argmax` over the C rows
    itself runs slower than C row comparisons with their maximum."""
    score = expand(centers, None, -0.5 * (centers ** 2).sum(axis=1), x, None)
    top = score.max(axis=0)
    nearest = np.zeros(score.shape[1], dtype=np.intp)
    for c in range(len(centers) - 1, -1, -1):
        np.copyto(nearest, c, where=score[c] == top)
    onehot = np.arange(len(centers))[:, None] == nearest
    return onehot.astype(np.float64)


def _kmeans(frames: np.ndarray, num_components: int, iters: int,
            rng: Rng) -> np.ndarray:
    """Plain Lloyd iterations from seeded distinct-frame init on N x D
    frames, whose D x N transpose enters every product."""
    x = frames.T
    centers = frames[rng.choice(len(frames), num_components)].copy()
    for _ in range(iters):
        onehot = _assign(centers, x)
        counts = onehot.sum(axis=1)
        full = counts > 0
        centers[full] = (onehot @ frames)[full] / counts[full, None]
        for c in np.flatnonzero(~full):
            # re-seed an empty cluster at the frame farthest from its center
            centers[c] = frames[np.argmax(sq_dists(centers[c:c + 1], x)[0])]
    return centers


def em_fit(frames: np.ndarray, num_components: int, iters: int,
           rng: Rng) -> tuple[GmmModel, list[float]]:
    """Fit a diagonal mixture by EM; returns the model and the
    log-likelihood history (one entry per iteration, evaluated before
    that iteration's update, so the sequence is non-decreasing).

    The fit runs component-major on the D x N `frames.T`, copied once
    unless it is contiguous (as for the N x D view of a D x N pool), so
    every reduction over components runs over C contiguous rows of N
    frames. The frames are squared once per fit, for every E-step and
    M-step.

    Init is 10 seeded k-means iterations; weights then come from cluster
    sizes and variances from each cluster's sums and sums of squares.
    Components that lose all posterior mass are re-seeded near the
    highest-variance component.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[1] < 1:
        raise DimensionError("expected pooled frames as an N x D array")
    x = np.ascontiguousarray(frames.T)
    frames = x.T
    n_frames, dim = frames.shape
    if n_frames < num_components * 10:
        raise ValueError(
            f"need at least {num_components * 10} frames to fit "
            f"{num_components} components, got {n_frames}")

    # before the squares exist, so var's own N x D temporary is not
    # held alongside them
    global_var = x.var(axis=1)
    var_floor = np.maximum(VAR_FLOOR_FRACTION * global_var, 1e-12)

    centers = _kmeans(frames, num_components, 10, rng)
    x_sq = x ** 2
    onehot = _assign(centers, x)
    counts = onehot.sum(axis=1)
    sizes = np.maximum(counts, 1.0)
    mean = (onehot @ frames) / sizes[:, None]
    scatter = (onehot @ x_sq.T) / sizes[:, None] - mean ** 2
    del onehot
    scatter[counts <= 1] = global_var
    model = GmmModel(weights=sizes / sizes.sum(), means=centers,
                     variances=np.maximum(scatter, var_floor))

    ll_history = []
    for it in range(iters):
        post, ll = _responsibilities(model, x, x_sq)
        ll_history.append(ll)
        n = post.sum(axis=1)

        empty = np.flatnonzero(n < EMPTY_COMPONENT_FLOOR)
        if len(empty) > 0:
            donor = int(np.argmax(model.variances.sum(axis=1)))
            means, variances = model.means.copy(), model.variances.copy()
            for c in empty:
                log.warning("re-seeding empty component %d near component %d "
                            "(iteration %d)", c, donor, it)
                jitter = rng.normal((dim,)) * np.sqrt(variances[donor])
                means[c] = means[donor] + 0.1 * jitter
                variances[c] = variances[donor]
            model = GmmModel(model.weights, means, variances)
            # recompute responsibilities against the repaired model
            post, _ = _responsibilities(model, x, x_sq)
            n = np.maximum(post.sum(axis=1), EMPTY_COMPONENT_FLOOR)

        weights = n / n.sum()
        means = (post @ frames) / n[:, None]
        sq = (post @ x_sq.T) / n[:, None]
        variances = np.maximum(sq - means ** 2, var_floor)
        model = GmmModel(weights=weights, means=means, variances=variances)
        # freed before the next E-step builds its own, but only after the
        # model's small arrays are placed: built in the freed block, they
        # split it, and the `gmm` benchmark's peak RSS rose by 6 MB
        del post
    return model, ll_history


def gmm_classify(models: list[GmmModel], x: np.ndarray) -> np.ndarray:
    """Average per-frame log-likelihood of the D x L sequence `x` under
    each of the K models, all of one C x D shape, from one product: their
    `natural` blocks stacked into K C x 2D rows, times the frames stacked
    on their squares, [x; x^2] (2D x L), give every component's log
    density, and each model's log-sum-exp runs over its own C contiguous
    rows."""
    if not models:
        raise DimensionError("need at least one class model to score against")
    if len({m.means.shape for m in models}) != 1:
        raise DimensionError("all models must share one C x D shape")
    x = _check_sequence(models[0], x)
    dim, length = x.shape
    stacked = np.empty((2 * dim, length))
    stacked[:dim] = x
    np.square(x, out=stacked[dim:])
    dens = expand(np.concatenate([m.natural for m in models]), None,
                  np.concatenate([m.log_norm for m in models]),
                  stacked, None).reshape(len(models), -1, length)
    top = dens.max(axis=1)
    dens -= top[:, None]
    np.exp(dens, out=dens)
    return (top + np.log(dens.sum(axis=1))).sum(axis=1) / length


def log_posterior_scores(scores: np.ndarray) -> np.ndarray:
    """Uniform-prior log-posteriors from per-class log-likelihood scores.

    Average log-likelihoods drift with utterance content, so raw scores
    are not comparable across utterances; the log-sum-exp shift removes
    the common offset while preserving the per-utterance ranking.
    """
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    if scores.size == 0:
        raise DimensionError("need at least one class score")
    return scores - log_sum_exp_rows(scores[None, :])[0]
