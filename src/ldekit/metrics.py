"""Detection metrics over scored trials: equal error rate, average
pairwise detection cost, score files, and linear score fusion.

Conventions, fixed for determinism:
  - detection decisions accept a trial when its score is >= the
    threshold, so a score exactly at threshold counts as acceptance and
    a pairwise difference of exactly zero counts as rejection;
  - the equal error rate is read off the operating-point polyline by
    linear interpolation where the miss and false-alarm rates cross;
  - pairwise cost uses equal miss/false-alarm costs and a 0.5 prior,
    with decisions at threshold zero on score differences.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .ndcore import atomic_write, cross_entropy


class ScoresFormatError(ValueError):
    """Scores file is malformed."""


class AlignmentError(ValueError):
    """Trial sets do not cover the same trials."""


@dataclass
class TrialScore:
    """One scored trial: utterance id, true class index, per-class scores."""

    id: str
    label: int
    scores: np.ndarray

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64).reshape(-1)


@dataclass
class TrialSet:
    class_names: list[str]
    trials: list[TrialScore] = field(default_factory=list)

    def __post_init__(self):
        k = len(self.class_names)
        if k < 2:
            raise ValueError("need at least 2 classes")
        if len(set(self.class_names)) != k:
            raise ValueError("duplicate class names")
        seen = set()
        for t in self.trials:
            if t.id in seen:
                raise ValueError(f"duplicate trial id {t.id!r}")
            seen.add(t.id)
            if not 0 <= t.label < k:
                raise ValueError(f"trial {t.id}: label {t.label} out of range")
            if t.scores.shape != (k,):
                raise ValueError(f"trial {t.id}: expected {k} scores, "
                                 f"got {t.scores.shape}")
            if not np.all(np.isfinite(t.scores)):
                raise ValueError(f"trial {t.id}: non-finite score")

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    def ids(self) -> list[str]:
        return [t.id for t in self.trials]

    def labels(self) -> np.ndarray:
        return np.array([t.label for t in self.trials], dtype=np.int64)

    def score_matrix(self) -> np.ndarray:
        return np.stack([t.scores for t in self.trials])

    @classmethod
    def from_arrays(cls, class_names, ids, labels, scores) -> "TrialSet":
        scores = np.asarray(scores, dtype=np.float64)
        trials = [TrialScore(i, int(l), s)
                  for i, l, s in zip(ids, labels, scores)]
        return cls(list(class_names), trials)


def operating_points(target_scores, non_target_scores):
    """Detection operating points for accept-at-or-above thresholds.

    Returns (thresholds, miss_rates, fa_rates), one row per achievable
    operating point swept from the lowest unique score (miss 0, fa 1)
    up to +inf (miss 1, fa 0). Rates are step constants over threshold
    intervals, so miss is nondecreasing and fa nonincreasing.
    """
    tgt = np.sort(np.asarray(target_scores, dtype=np.float64).reshape(-1))
    non = np.sort(np.asarray(non_target_scores, dtype=np.float64).reshape(-1))
    if tgt.size == 0 or non.size == 0:
        raise ValueError("need at least one target and one non-target trial")
    uniq = np.unique(np.concatenate([tgt, non]))
    miss = np.searchsorted(tgt, uniq, side="left") / tgt.size
    fa = (non.size - np.searchsorted(non, uniq, side="left")) / non.size
    thresholds = np.append(uniq, np.inf)
    miss = np.append(miss, 1.0)
    fa = np.append(fa, 0.0)
    return thresholds, miss, fa


def eer_from_points(miss: np.ndarray, fa: np.ndarray) -> float:
    """Rate where the miss and false-alarm polylines cross, linearly
    interpolated between the adjacent operating points."""
    diff = miss - fa
    j = int(np.searchsorted(diff >= 0, True))  # first nonnegative gap
    if diff[j] == 0.0:
        return float(miss[j])
    frac = -diff[j - 1] / (diff[j] - diff[j - 1])
    return float(miss[j - 1] + frac * (miss[j] - miss[j - 1]))


def _split_scores(trials: TrialSet, target: int):
    if not 0 <= target < trials.num_classes:
        raise ValueError(f"target class {target} out of range")
    labels = trials.labels()
    detection = trials.score_matrix()[:, target]
    return detection[labels == target], detection[labels != target]


def eer(trials: TrialSet, target: int) -> float:
    """One-vs-rest equal error rate for one target class."""
    tgt, non = _split_scores(trials, target)
    if tgt.size == 0 or non.size == 0:
        raise ValueError(f"class {target} needs both target and non-target "
                         f"trials")
    _, miss, fa = operating_points(tgt, non)
    return eer_from_points(miss, fa)


def eer_average(trials: TrialSet) -> float:
    """Mean of the per-class one-vs-rest equal error rates."""
    return float(np.mean([eer(trials, k)
                          for k in range(trials.num_classes)]))


def eer_pooled(trials: TrialSet) -> float:
    """Single equal error rate over all one-vs-rest detection trials
    pooled together."""
    scores = trials.score_matrix()
    labels = trials.labels()
    onehot = labels[:, None] == np.arange(trials.num_classes)[None, :]
    tgt = scores[onehot]
    non = scores[~onehot]
    _, miss, fa = operating_points(tgt, non)
    return eer_from_points(miss, fa)


def pair_cost(trials: TrialSet, target: int, non_target: int) -> float:
    """0.5 * P_miss + 0.5 * P_fa for one ordered class pair, deciding
    'target' when score_target - score_non > 0 (a tie rejects)."""
    labels = trials.labels()
    scores = trials.score_matrix()
    diffs = scores[:, target] - scores[:, non_target]
    t_mask = labels == target
    n_mask = labels == non_target
    if not t_mask.any() or not n_mask.any():
        raise ValueError(f"class pair ({target}, {non_target}) has no trials")
    p_miss = float(np.mean(diffs[t_mask] <= 0.0))
    p_fa = float(np.mean(diffs[n_mask] > 0.0))
    return 0.5 * p_miss + 0.5 * p_fa


def cavg(trials: TrialSet) -> float:
    """Average pairwise detection cost over all ordered class pairs."""
    k = trials.num_classes
    counts = np.bincount(trials.labels(), minlength=k)
    missing = [trials.class_names[i] for i in range(k) if counts[i] == 0]
    if missing:
        raise ValueError(f"no trials for classes {missing}")
    costs = [pair_cost(trials, t, n)
             for t in range(k) for n in range(k) if t != n]
    return float(np.mean(costs))


@dataclass
class FusionWeights:
    weights: np.ndarray  # one scalar per system

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("fusion weights must be finite")


def _aligned_systems(systems: list[TrialSet]):
    """Stacks systems into an (S, N, K) score tensor in the first
    system's trial order; trials must agree across systems."""
    if not systems:
        raise ValueError("no systems to fuse")
    first = systems[0]
    names = first.class_names
    order = first.ids()
    stacked = [first.score_matrix()]
    labels = first.labels()
    for sys_idx, other in enumerate(systems[1:], start=1):
        if other.class_names != names:
            raise AlignmentError(f"system {sys_idx} has different classes")
        lookup = {t.id: t for t in other.trials}
        if set(lookup) != set(order):
            raise AlignmentError(f"system {sys_idx} covers different trials")
        rows = []
        for uid, label in zip(order, labels):
            t = lookup[uid]
            if t.label != label:
                raise AlignmentError(
                    f"system {sys_idx} disagrees on the label of {uid}")
            rows.append(t.scores)
        stacked.append(np.stack(rows))
    return names, order, labels, np.stack(stacked)


def fuse(systems: list[TrialSet], fusion: FusionWeights) -> TrialSet:
    """Per-class weighted sum of system scores."""
    names, order, labels, tensor = _aligned_systems(systems)
    if fusion.weights.size != len(systems):
        raise ValueError(f"{fusion.weights.size} weights for "
                         f"{len(systems)} systems")
    fused = np.tensordot(fusion.weights, tensor, axes=(0, 0))
    return TrialSet.from_arrays(names, order, labels, fused)


def _fusion_loss_grad(weights, tensor, labels):
    losses, post = cross_entropy(np.tensordot(weights, tensor, axes=(0, 0)),
                                 labels)
    grad_w = np.tensordot(tensor, post, axes=([1, 2], [0, 1])) / len(labels)
    return float(np.mean(losses)), grad_w


def train_fusion(systems: list[TrialSet], iterations: int = 500
                 ) -> FusionWeights:
    """Gradient descent on the multiclass cross-entropy of the fused
    logits; weights start at 1/S. There is no bias: a shift shared by
    every class has zero gradient under softmax.

    A step is taken only if it does not raise the loss, and an overshoot
    halves the rate instead, so the current weights always have the least
    loss of every point evaluated. If the gradient has not vanished
    within the iteration budget, that iterate is returned with a warning.
    """
    names, order, labels, tensor = _aligned_systems(systems)
    counts = np.bincount(labels, minlength=len(names))
    thin = [names[i] for i in range(len(names)) if counts[i] < 2]
    if thin:
        raise ValueError(f"need at least 2 trials per class, short on {thin}")
    num_systems = len(systems)
    weights = np.full(num_systems, 1.0 / num_systems)
    if iterations == 0:
        return FusionWeights(weights)

    lr, grad_tol = 0.5, 1e-9
    loss, grad = _fusion_loss_grad(weights, tensor, labels)
    for _ in range(iterations):
        if np.max(np.abs(grad)) < grad_tol:
            return FusionWeights(weights)
        candidate = weights - lr * grad
        cand_loss, cand_grad = _fusion_loss_grad(candidate, tensor, labels)
        if cand_loss <= loss:
            weights, loss, grad = candidate, cand_loss, cand_grad
            lr *= 1.1
        else:
            lr *= 0.5  # backtrack on overshoot
    if np.max(np.abs(grad)) >= grad_tol:
        warnings.warn("fusion training did not converge within the "
                      "iteration budget; returning the best iterate",
                      RuntimeWarning)
    return FusionWeights(weights)


# ---------------------------------------------------------------------------
# scores file: "utt_id<TAB>true_label<TAB>class:score,class:score,..."

def write_scores(path, trials: TrialSet) -> None:
    with atomic_write(path) as fh:
        for t in trials.trials:
            rendered = ",".join(f"{name}:{value:.17g}"
                                for name, value in zip(trials.class_names,
                                                       t.scores))
            fh.write(f"{t.id}\t{trials.class_names[t.label]}\t{rendered}\n")


def read_scores(path) -> TrialSet:
    class_names = None
    trials = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").rstrip("\r\n")
            except UnicodeDecodeError as exc:
                raise ScoresFormatError(
                    f"{path}:{lineno}: not UTF-8: {exc}") from exc
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ScoresFormatError(
                    f"{path}:{lineno}: expected 3 tab-separated fields")
            uid, label_name, score_part = parts
            names, values = [], []
            for chunk in score_part.split(","):
                name, colon, value = chunk.rpartition(":")
                if not colon or not name:
                    raise ScoresFormatError(
                        f"{path}:{lineno}: bad class:score entry {chunk!r}")
                names.append(name)
                try:
                    values.append(float(value))
                except ValueError as exc:
                    raise ScoresFormatError(
                        f"{path}:{lineno}: bad score {value!r}") from exc
            if class_names is None:
                class_names = names
            elif names != class_names:
                raise ScoresFormatError(
                    f"{path}:{lineno}: class list changed mid-file")
            if label_name not in class_names:
                raise ScoresFormatError(
                    f"{path}:{lineno}: unknown label {label_name!r}")
            trials.append(TrialScore(uid, class_names.index(label_name),
                                     np.array(values)))
    if class_names is None:
        raise ScoresFormatError(f"{path}: empty scores file")
    try:
        return TrialSet(class_names, trials)
    except ValueError as exc:
        raise ScoresFormatError(f"{path}: {exc}") from exc


def write_det_points(path, trials: TrialSet, target: int) -> None:
    """Text dump of the detection operating points for one target class:
    one 'threshold<TAB>p_miss<TAB>p_fa' line per point."""
    tgt, non = _split_scores(trials, target)
    thresholds, miss, fa = operating_points(tgt, non)
    with atomic_write(path) as fh:
        for t, m, f in zip(thresholds, miss, fa):
            fh.write(f"{t:.17g}\t{m:.17g}\t{f:.17g}\n")
