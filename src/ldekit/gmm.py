"""Diagonal-covariance Gaussian mixtures: EM training, per-utterance
occupancy statistics, and the per-class mixture classifier.

This is the classical baseline the learnable encoder imitates. A mixture
summarizes an utterance by posterior-weighted zeroth/first-order
statistics n_c and f_c; with equal weights and one shared variance
sigma^2, the centered means f_c / n_c are what the dictionary encoder
returns with shared smoothing 1 / (2 sigma^2) and normalized
aggregation, so that encoder stands in for the GMM supervector.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .ndcore import (
    DimensionError,
    Rng,
    log_sum_exp_rows,
    softmax_rows,
    sq_dists,
    sq_norms,
)

log = logging.getLogger(__name__)

EMPTY_COMPONENT_FLOOR = 1e-6
# variance floor as a fraction of the global per-dimension variance
VAR_FLOOR_FRACTION = 1e-3


@dataclass
class GmmModel:
    """Mixture weights (C,), means (C x D), diagonal variances (C x D)."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.means = np.asarray(self.means, dtype=np.float64)
        self.variances = np.asarray(self.variances, dtype=np.float64)
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
    squared here otherwise). Returns L x C.
    """
    log_norm = -0.5 * (model.dim * np.log(2.0 * np.pi)
                       + np.log(model.variances).sum(axis=1))
    inv_var = 1.0 / model.variances
    norms = None if frames_sq is None else sq_norms(frames_sq, inv_var)
    mahal = sq_dists(frames, model.means, inv_var, norms)
    return np.log(model.weights)[None, :] + log_norm[None, :] - 0.5 * mahal


def posteriors(model: GmmModel, x: np.ndarray) -> np.ndarray:
    """Occupancy probabilities, L x C, each row summing to 1.

    Computed in the log domain with max-shifted normalization.
    """
    x = _check_sequence(model, x)
    return softmax_rows(log_densities(model, x.T))


def accumulate_stats(model: GmmModel, x: np.ndarray) -> BaumWelchStats:
    """Posterior-weighted counts and centered first-order sums.

    n_c = sum_t P(c | x_t); f_c = sum_t P(c | x_t) (x_t - mu_c).
    """
    x = _check_sequence(model, x)
    post = posteriors(model, x)
    n = post.sum(axis=0)
    f = post.T @ x.T - n[:, None] * model.means
    return BaumWelchStats(n=n, f=f)


def total_log_likelihood(model: GmmModel, frames: np.ndarray,
                         frames_sq: np.ndarray | None = None) -> float:
    return float(log_sum_exp_rows(
        log_densities(model, frames, frames_sq)).sum())


def _kmeans(frames: np.ndarray, num_components: int, iters: int,
            rng: Rng, norms: np.ndarray | None = None) -> np.ndarray:
    """Plain Lloyd iterations from seeded distinct-frame init. `norms` is
    the unweighted ||x||^2 term of `sq_dists` for these frames, the same
    in every iteration; without it each iteration squares the frames."""
    n = frames.shape[0]
    centers = frames[rng.choice(n, num_components, replace=False)].copy()
    for _ in range(iters):
        d2 = sq_dists(frames, centers, norms=norms)
        assign = np.argmin(d2, axis=1)
        # one stable sort lists each cluster's members in a contiguous run,
        # in frame order; gathering one cluster at a time keeps no second
        # copy of all the frames
        order = np.argsort(assign, kind="stable")
        ends = np.cumsum(np.bincount(assign, minlength=num_components))
        for c, members in enumerate(np.split(order, ends[:-1])):
            if len(members) == 0:
                # re-seed an empty cluster at the point farthest from its center
                centers[c] = frames[np.argmax(d2[:, c])]
            else:
                centers[c] = frames[members].mean(axis=0)
    return centers


def em_fit(frames: np.ndarray, num_components: int, iters: int,
           rng: Rng) -> tuple[GmmModel, list[float]]:
    """Fit a diagonal mixture by EM; returns the model and the
    log-likelihood history (one entry per iteration, evaluated before
    that iteration's update, so the sequence is non-decreasing).

    `frames` is made C-contiguous on entry (free when it already is), so
    every product runs on contiguous rows. The frames are squared once per
    fit: k-means and the first assignment share one unweighted ||x||^2
    term, and every E-step and M-step reads the same `frames ** 2`.

    Init is 10 seeded k-means iterations; variances then come from
    cluster scatter and weights from cluster sizes. Components that lose
    all posterior mass are re-seeded near the highest-variance component.
    """
    frames = np.ascontiguousarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[1] < 1:
        raise DimensionError("expected pooled frames as an N x D array")
    n_frames, dim = frames.shape
    if n_frames < num_components * 10:
        raise ValueError(
            f"need at least {num_components * 10} frames to fit "
            f"{num_components} components, got {n_frames}")

    global_var = frames.var(axis=0)
    var_floor = np.maximum(VAR_FLOOR_FRACTION * global_var, 1e-12)

    frames_sq = frames ** 2
    norms = sq_norms(frames_sq, np.ones((num_components, dim)))
    centers = _kmeans(frames, num_components, 10, rng, norms)
    assign = np.argmin(sq_dists(frames, centers, norms=norms), axis=1)
    del norms
    counts = np.bincount(assign, minlength=num_components).astype(np.float64)
    counts = np.maximum(counts, 1.0)
    weights = counts / counts.sum()
    variances = np.empty((num_components, dim))
    for c in range(num_components):
        members = frames[assign == c]
        scatter = members.var(axis=0) if len(members) > 1 else global_var
        variances[c] = np.maximum(scatter, var_floor)
    del assign, members
    model = GmmModel(weights=weights, means=centers, variances=variances)

    ll_history = []
    for it in range(iters):
        # one max shift and exp give both log_sum_exp_rows and softmax_rows
        post = log_densities(model, frames, frames_sq)
        top = post.max(axis=1)
        post -= top[:, None]
        np.exp(post, out=post)
        total = post.sum(axis=1)
        ll_history.append(float((top + np.log(total)).sum()))
        post /= total[:, None]
        n = post.sum(axis=0)

        empty = np.flatnonzero(n < EMPTY_COMPONENT_FLOOR)
        if len(empty) > 0:
            donor = int(np.argmax(model.variances.sum(axis=1)))
            for c in empty:
                log.warning("re-seeding empty component %d near component %d "
                            "(iteration %d)", c, donor, it)
                jitter = rng.normal((dim,)) * np.sqrt(model.variances[donor])
                model.means[c] = model.means[donor] + 0.1 * jitter
                model.variances[c] = model.variances[donor].copy()
                n[c] = EMPTY_COMPONENT_FLOOR
            # recompute responsibilities against the repaired model
            post = softmax_rows(log_densities(model, frames, frames_sq))
            n = np.maximum(post.sum(axis=0), EMPTY_COMPONENT_FLOOR)

        weights = n / n.sum()
        means = (post.T @ frames) / n[:, None]
        sq = (post.T @ frames_sq) / n[:, None]
        del post  # freed before the next E-step builds its own
        variances = np.maximum(sq - means ** 2, var_floor)
        model = GmmModel(weights=weights, means=means, variances=variances)
    return model, ll_history


def gmm_classify(models: list[GmmModel], x: np.ndarray) -> np.ndarray:
    """Average per-frame log-likelihood of the sequence under each model;
    the frames are squared once for all of them."""
    dims = {m.dim for m in models}
    if len(dims) != 1:
        raise DimensionError("all models must share the feature dimension")
    x = _check_sequence(models[0], x)
    frames = x.T
    frames_sq = frames ** 2
    return np.array([total_log_likelihood(m, frames, frames_sq)
                     / frames.shape[0] for m in models])


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
