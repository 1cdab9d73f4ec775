"""Output checks, run after the timed phase of every workload.

Each check either recomputes an output with numpy code written apart
from ldekit, or tests a property the method must have. Every check
returns a list of failure messages, empty when the output is correct.
"""

from __future__ import annotations

import numpy as np

SCORE_ATOL = 1e-8      # logits recomputed in direct form
GMM_SCORE_ATOL = 1e-7  # log-posteriors from direct-form log-likelihoods
LL_SLACK = 1e-9        # relative slack on EM log-likelihood monotonicity
WEIGHT_ATOL = 1e-9
GRAD_TOL = 1e-5        # |analytic - numeric| / max(|analytic|, |numeric|, 1e-3)


def _softplus(x):
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _activation(kind):
    if kind == "relu":
        return lambda x: np.maximum(x, 0.0)
    if kind == "tanh":
        return np.tanh
    if kind == "linear":
        return lambda x: x
    raise ValueError(f"unknown activation {kind!r}")


def _conv(x, weight, bias, stride):
    """Same-padded strided cross-correlation of a (C_in, L) sequence,
    summed tap by tap."""
    c_out, c_in, kernel = weight.shape
    length = x.shape[1]
    out_len = -(-length // stride)
    pad = max((out_len - 1) * stride + kernel - length, 0)
    xp = np.zeros((c_in, length + pad))
    xp[:, pad // 2:pad // 2 + length] = x
    y = np.repeat(bias[:, None], out_len, axis=1)
    for tap in range(kernel):
        y += weight[:, :, tap] @ xp[:, tap:tap + stride * (out_len - 1) + 1:stride]
    return y


def _frontend(x, params, spec):
    act = _activation(spec["activation"])
    h = _conv(x, params["frontend.stem.weight"], params["frontend.stem.bias"], 1)
    for si, (channels, blocks, down) in enumerate(spec["stages"]):
        for bi in range(blocks):
            name = f"frontend.s{si}b{bi}"
            stride = 2 if bi == 0 and down else 1
            inner = _conv(act(h), params[f"{name}.conv1.weight"],
                          params[f"{name}.conv1.bias"], stride)
            inner = _conv(act(inner), params[f"{name}.conv2.weight"],
                          params[f"{name}.conv2.bias"], 1)
            short = h[:, ::stride]
            short = np.vstack([short, np.zeros((channels - short.shape[0],
                                                short.shape[1]))])
            h = short + inner
    return h


def _lde(frames, centers, raw_smoothing, cfg):
    """Soft-assigned residual aggregation with explicit L x C x D residuals."""
    residuals = frames[:, None, :] - centers[None, :, :]
    dist2 = (residuals ** 2).sum(axis=2)
    if cfg["smoothing_mode"] == "per_component":
        smoothing = _softplus(raw_smoothing[:, 0])
    else:
        smoothing = np.full(centers.shape[0], float(cfg["beta"]))
    logits = -dist2 * smoothing[None, :]
    logits -= logits.max(axis=1, keepdims=True)
    weights = np.exp(logits)
    weights /= weights.sum(axis=1, keepdims=True)
    summed = (weights[:, :, None] * residuals).sum(axis=0)
    if cfg["aggregation_mode"] == "mean":
        encoded = summed / frames.shape[0]
    else:
        encoded = summed / np.maximum(weights.sum(axis=0), 1e-30)[:, None]
    vec = encoded.reshape(-1)
    norm = np.sqrt((vec ** 2).sum())
    if cfg["length_normalize"] and norm > 1e-30:
        vec = vec / norm
    return vec


def reference_logits(params: dict, config: dict, feats: np.ndarray) -> np.ndarray:
    """Class logits of one D x L utterance from a checkpoint's parameters
    and its model config (the checkpoint meta's ``config`` block)."""
    h = np.asarray(feats, dtype=np.float64)
    if config["frontend"] is not None:
        h = _frontend(h, params, config["frontend"])
    if config["encoder"] == "lde":
        vec = _lde(h.T, params["dictionary.centers"],
                   params["dictionary.smoothing"], config["lde"])
    else:
        vec = h.mean(axis=1)
    return params["classifier.weights"] @ vec + params["classifier.bias"][:, 0]


def score_failures(params, config, utts, trials) -> list[str]:
    """Every trial's scores equal the direct-form logits of its utterance."""
    by_id = {u.id: u for u in utts}
    if sorted(by_id) != sorted(t.id for t in trials.trials):
        return ["scores file does not cover exactly the corpus utterances"]
    worst, worst_id = 0.0, None
    for t in trials.trials:
        utt = by_id[t.id]
        if t.label != utt.label:
            return [f"{t.id}: label {t.label} != corpus label {utt.label}"]
        err = float(np.max(np.abs(reference_logits(params, config,
                                                   utt.features) - t.scores)))
        if not np.isfinite(err):
            return [f"{t.id}: non-finite logits"]
        if err > worst:
            worst, worst_id = err, t.id
    if worst > SCORE_ATOL:
        return [f"{worst_id}: logits differ from the direct-form recompute "
                f"by {worst:.3g} > {SCORE_ATOL:g}"]
    return []


def loss_failures(losses, epochs: int) -> list[str]:
    """Logged losses are finite and the last epoch's mean is below the
    first epoch's."""
    losses = np.asarray(losses, dtype=np.float64)
    if losses.size < 2 * epochs or epochs < 2:
        return [f"need at least two epochs of losses, got {losses.size} "
                f"steps over {epochs} epochs"]
    if not np.all(np.isfinite(losses)):
        return ["non-finite loss in the loss log"]
    per_epoch = losses.size // epochs
    first = losses[:per_epoch].mean()
    last = losses[-per_epoch:].mean()
    if not last < first:
        return [f"loss did not fall: first epoch {first:.5f}, "
                f"last epoch {last:.5f}"]
    return []


def gradient_failures(model, feats, labels, batch_loss, rng,
                      per_group: int = 3, steps=(1e-6, 2.5e-7)) -> list[str]:
    """Central differences of ``batch_loss`` agree with its analytic
    gradient on sampled coordinates of every parameter group.

    A coordinate agrees when the difference at any of ``steps`` does. A
    ReLU kink inside every step's interval spoils a single coordinate,
    while a wrong gradient spoils every coordinate of its group, so a
    group fails when more than one of its ``per_group`` coordinates
    disagrees.
    """
    model.zero_grads()
    batch_loss(model, feats, labels)
    failures = []
    for p in model.params():
        analytic = p.grad.reshape(-1).copy()
        flat = p.value.reshape(-1)
        sampled = rng.choice(flat.size, size=min(per_group, flat.size),
                             replace=False)
        wrong = []
        for i in sampled:
            orig = flat[i]
            for h in steps:
                flat[i] = orig + h
                up = batch_loss(model, feats, labels, accumulate=False)
                flat[i] = orig - h
                down = batch_loss(model, feats, labels, accumulate=False)
                flat[i] = orig
                numeric = (up - down) / (2.0 * h)
                err = abs(analytic[i] - numeric) / max(abs(analytic[i]),
                                                       abs(numeric), 1e-3)
                if err <= GRAD_TOL:
                    break
            else:
                wrong.append(f"{p.name}[{i}]: analytic {analytic[i]:.9g} "
                             f"vs numeric {numeric:.9g}")
        if len(wrong) >= min(2, len(sampled)):
            failures += wrong
    model.zero_grads()
    return failures


def history_failures(histories) -> list[str]:
    """Each EM log-likelihood history is non-decreasing."""
    failures = []
    for k, hist in enumerate(histories):
        hist = np.asarray(hist, dtype=np.float64)
        if hist.size == 0 or not np.all(np.isfinite(hist)):
            failures.append(f"class {k}: empty or non-finite history")
            continue
        drops = np.diff(hist) < -LL_SLACK * np.abs(hist[:-1])
        if drops.any():
            it = int(np.argmax(drops))
            failures.append(f"class {k}: log-likelihood fell at iteration "
                            f"{it + 1} ({hist[it]:.9g} -> {hist[it + 1]:.9g})")
    return failures


def weight_failures(models) -> list[str]:
    """Mixture weights are positive and sum to 1."""
    failures = []
    for k, m in enumerate(models):
        w = np.asarray(m.weights, dtype=np.float64)
        if not (np.all(w > 0) and abs(w.sum() - 1.0) <= WEIGHT_ATOL):
            failures.append(f"class {k}: weights sum to {w.sum():.12g}")
    return failures


def shifted_deltas(x, n_coeffs, delta, shift, blocks, append_static):
    """N-d-P-k shifted deltas by index arithmetic, one output column per
    frame t whose every shifted delta lies inside the sequence."""
    length = x.shape[1]
    t = np.arange(delta, length - (blocks - 1) * shift - delta)
    rows = [x[:n_coeffs, t + i * shift + delta] - x[:n_coeffs, t + i * shift - delta]
            for i in range(blocks)]
    if append_static:
        rows.append(x[:n_coeffs, t])
    return np.vstack(rows)


def mean_log_likelihood(model, frames) -> float:
    """Average per-frame log-likelihood of T x D frames under a diagonal
    mixture, from the explicit residuals to each component mean."""
    var = np.asarray(model.variances, dtype=np.float64)
    log_comp = np.empty((frames.shape[0], var.shape[0]))
    for c in range(var.shape[0]):
        r = frames - model.means[c]
        log_comp[:, c] = (np.log(model.weights[c])
                          - 0.5 * np.log(2.0 * np.pi * var[c]).sum()
                          - 0.5 * (r * r / var[c]).sum(axis=1))
    top = log_comp.max(axis=1)
    per_frame = top + np.log(np.exp(log_comp - top[:, None]).sum(axis=1))
    return float(per_frame.mean())


def gmm_score_failures(models, utts, trials, sdc_args) -> list[str]:
    """Every trial's scores equal uniform-prior log-posteriors of the
    direct-form average log-likelihoods of its utterance's deltas."""
    by_id = {u.id: u for u in utts}
    if sorted(by_id) != sorted(t.id for t in trials.trials):
        return ["scores file does not cover exactly the corpus utterances"]
    worst, worst_id = 0.0, None
    for t in trials.trials:
        frames = shifted_deltas(by_id[t.id].features, *sdc_args).T
        ll = np.array([mean_log_likelihood(m, frames) for m in models])
        top = ll.max()
        post = ll - (top + np.log(np.exp(ll - top).sum()))
        err = float(np.max(np.abs(post - t.scores)))
        if not np.isfinite(err):
            return [f"{t.id}: non-finite scores"]
        if err > worst:
            worst, worst_id = err, t.id
    if worst > GMM_SCORE_ATOL:
        return [f"{worst_id}: scores differ from the direct-form recompute "
                f"by {worst:.3g} > {GMM_SCORE_ATOL:g}"]
    return []
