"""Model assembly and SGD training.

A model is a front-end (optional), a pooling encoder (average pooling or
the learnable dictionary encoder), and a linear classifier. Training is
plain momentum SGD with weight decay and a two-drop step schedule,
cropping every batch to one shared random length. `train_model` takes
in-memory utterances or an open corpus's file-backed ones alike: its
batches come from `data.make_batches`, which reads only the crops of a
file-backed list, so training holds one batch, not the corpus. A batch
runs forward and backward one slice of whole members at a time, each
slice at most SLICE_FRAMES crop frames: the step is bound by memory
traffic, not by FLOPs, and small slices keep each convolution's im2col
patch matrix near cache size at every crop length (see `batch_loss`).
Scoring runs the same pass: `infer` takes one whole utterance through
`Model.forward_batch` as a batch of one, with `keep` off, so no layer
holds a patch matrix or saved state for a backward pass.
A checkpoint, of a model or of a mixture bank, is an
`ndcore.write_artifact` file: the JSON head's meta (its "kind", "model"
or "gmm", and what rebuilds the model or the bank) plus one float64 array
per parameter, named as the parameter, so a reload is bit for bit.
"""

from __future__ import annotations

from collections import deque
from contextlib import nullcontext
from dataclasses import asdict, dataclass

import numpy as np

from .data import make_batches
from .encoding import (
    Dictionary,
    LdeConfig,
    lde_backward,
    lde_forward,
    tap_forward,
)
from .frontend import ConvSpec, Frontend, StageSpec
from .gmm import GmmModel
from .ndcore import (
    DimensionError,
    Param,
    Rng,
    atomic_write,
    cross_entropy,
    read_artifact,
    write_artifact,
)

ENCODER_TAP = "tap"
ENCODER_LDE = "lde"


class NumericalError(RuntimeError):
    """Training or scoring produced a non-finite value."""


class CheckpointError(ValueError):
    """Checkpoint file is malformed or inconsistent."""


class LinearClassifier:
    """Affine map from pooled embeddings to class logits."""

    def __init__(self, num_classes: int, in_dim: int, rng: Rng | None):
        if rng is None:
            w = np.zeros((num_classes, in_dim))
        else:
            w = rng.normal((num_classes, in_dim), std=1.0 / np.sqrt(in_dim))
        self.weights = Param("classifier.weights", w)
        self.bias = Param("classifier.bias", np.zeros((num_classes, 1)))

    def params(self):
        return [self.weights, self.bias]

    def forward_batch(self, embeds: np.ndarray) -> np.ndarray:
        # (B, E) -> (B, K)
        return embeds @ self.weights.value.T + self.bias.value[:, 0]

    def backward_batch(self, embeds: np.ndarray, dlogits: np.ndarray) -> np.ndarray:
        self.weights.grad += dlogits.T @ embeds
        self.bias.grad[:, 0] += dlogits.sum(axis=0)
        return dlogits @ self.weights.value


@dataclass
class SgdConfig:
    """The training recipe and `[train]` config section: momentum SGD over
    shuffled batches, each cropped to one length in [crop_min, crop_max],
    the rate divided by 10 at 60/90 and by 100 at 80/90 of the epochs."""

    lr0: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 1e-4
    epochs: int = 30
    batch_size: int = 32
    crop_min: int = 200
    crop_max: int = 1000
    smooth_window: int = 400
    seed: int = 0

    def __post_init__(self):
        if min(self.epochs, self.batch_size, self.smooth_window) < 1:
            raise ValueError("epochs, batch_size and smooth_window must be >= 1")
        if not 1 <= self.crop_min <= self.crop_max:
            raise ValueError("crop_min must be in [1, crop_max]")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def learning_rate(cfg: SgdConfig, epoch: int) -> float:
    if epoch < cfg.epochs * 60 // 90:
        return cfg.lr0
    if epoch < cfg.epochs * 80 // 90:
        return cfg.lr0 / 10.0
    return cfg.lr0 / 100.0


class Sgd:
    """v <- momentum * v + (grad + weight_decay * param); param -= lr * v.
    Gradients are cleared after every step."""

    def __init__(self, params: list[Param], cfg: SgdConfig):
        names = [p.name for p in params]
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names")
        self.params = params
        self.cfg = cfg
        self.velocity = {p.name: np.zeros_like(p.value) for p in params}

    def step(self, lr: float) -> None:
        for p in self.params:
            g = p.grad + self.cfg.weight_decay * p.value
            v = self.velocity[p.name]
            v *= self.cfg.momentum
            v += g
            p.value -= lr * v
            p.zero_grad()


@dataclass
class ModelConfig:
    in_dim: int
    num_classes: int
    encoder: str = ENCODER_TAP
    lde: LdeConfig | None = None
    frontend: ConvSpec | None = None
    freeze_dictionary: bool = False
    zero_dictionary: bool = False

    def __post_init__(self):
        if self.in_dim < 1 or self.num_classes < 2:
            raise ValueError("need in_dim >= 1 and at least 2 classes")
        if self.encoder not in (ENCODER_TAP, ENCODER_LDE):
            raise ValueError(f"unknown encoder model {self.encoder!r}")
        if self.encoder == ENCODER_LDE and self.lde is None:
            raise ValueError("lde encoder needs an LdeConfig")
        if self.frontend is not None and self.frontend.in_dim != self.in_dim:
            raise DimensionError("frontend input dim does not match in_dim")
        embed = self.embed_dim
        if self.lde is not None and self.lde.feature_dim != embed:
            raise DimensionError(
                f"encoder feature_dim {self.lde.feature_dim} does not match "
                f"the pooled input dim {embed}")

    @property
    def embed_dim(self) -> int:
        return self.frontend.out_dim if self.frontend is not None else self.in_dim

    @property
    def encoder_dim(self) -> int:
        if self.encoder == ENCODER_LDE:
            return self.lde.num_components * self.embed_dim
        return self.embed_dim


def model_config_to_dict(cfg: ModelConfig) -> dict:
    d = asdict(cfg)
    # stages stay [channels, blocks, downsample] lists, the form that
    # model_config_from_dict unpacks
    if cfg.frontend is not None:
        d["frontend"]["stages"] = [[s.channels, s.blocks, s.downsample]
                                   for s in cfg.frontend.stages]
    return d


def model_config_from_dict(d: dict) -> ModelConfig:
    """Inverse of model_config_to_dict; a missing required field, an
    unknown one or a bad value raises CheckpointError."""
    try:
        record = dict(d)
        lde, fe = record.get("lde"), record.get("frontend")
        record["lde"] = LdeConfig(**lde) if lde else None
        record["frontend"] = None
        if fe:
            stages = [StageSpec(channels=c, blocks=b, downsample=dn)
                      for c, b, dn in fe["stages"]]
            record["frontend"] = ConvSpec(**{**fe, "stages": stages})
        return ModelConfig(**record)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"bad model config: {exc}") from exc


@dataclass
class BatchCache:
    frontend_caches: list | None
    encoder_saved: object  # LdeSaved, or the pooled length for TAP
    embeds: np.ndarray


class Model:
    """Front-end + pooling encoder + linear classifier.

    Component initializers draw from separate child streams of the given
    generator, so models that share a seed get identical front-ends and
    classifiers regardless of which encoder sits in between.
    """

    def __init__(self, cfg: ModelConfig, rng: Rng):
        self.cfg = cfg
        fe_rng, enc_rng, cls_rng = rng.split(0), rng.split(1), rng.split(2)
        self.frontend = (Frontend(cfg.frontend, fe_rng)
                         if cfg.frontend is not None else None)
        if cfg.encoder == ENCODER_LDE:
            self.dictionary = (Dictionary.zeros(cfg.lde) if cfg.zero_dictionary
                               else Dictionary.init(cfg.lde, enc_rng))
        else:
            self.dictionary = None
        self.classifier = LinearClassifier(cfg.num_classes, cfg.encoder_dim,
                                           cls_rng)

    def params(self) -> list[Param]:
        out = []
        if self.frontend is not None:
            out.extend(self.frontend.params())
        if self.dictionary is not None:
            out.extend(self.dictionary.params())
        out.extend(self.classifier.params())
        return out

    def trainable_params(self) -> list[Param]:
        frozen = set()
        if self.dictionary is not None and self.cfg.freeze_dictionary:
            frozen = {p.name for p in self.dictionary.params()}
        return [p for p in self.params() if p.name not in frozen]

    def forward_batch(self, feats: np.ndarray, keep: bool = True
                      ) -> tuple[np.ndarray, BatchCache | None]:
        """feats (B, D, L) -> logits (B, K) plus the backward cache, or
        None unless `keep`."""
        feats = np.asarray(feats, dtype=np.float64)
        if self.frontend is not None:
            hidden, fe_caches = self.frontend.forward_batch(feats, keep)
        else:
            hidden, fe_caches = feats, None
        if self.cfg.encoder == ENCODER_LDE:
            enc, enc_saved = lde_forward(hidden, self.dictionary, self.cfg.lde)
            embeds = enc.flat
        else:
            embeds, enc_saved = tap_forward(hidden), hidden.shape[2]
        logits = self.classifier.forward_batch(embeds)
        return logits, (BatchCache(fe_caches, enc_saved, embeds) if keep
                        else None)

    def backward_batch(self, cache: BatchCache, dlogits: np.ndarray) -> None:
        """Accumulates parameter gradients for a batch scored by
        forward_batch."""
        dembeds = self.classifier.backward_batch(cache.embeds, dlogits)
        if self.cfg.encoder == ENCODER_LDE:
            dhidden = lde_backward(cache.encoder_saved, dembeds,
                                   self.dictionary)
        else:
            length = cache.encoder_saved
            dhidden = np.broadcast_to((dembeds / length)[:, :, None],
                                      dembeds.shape + (length,))
        if self.frontend is not None:
            self.frontend.backward_batch(cache.frontend_caches, dhidden,
                                         input_grad=False)

    def zero_grads(self) -> None:
        for p in self.params():
            p.zero_grad()


def infer(model: Model, feats: np.ndarray) -> np.ndarray:
    """Class logits for one whole utterance (D x L), no cropping.

    The training pass, `Model.forward_batch`, on a batch of one with
    `keep` off: no patch matrix or saved state is kept for a backward
    pass, and the logits are that pass's, bit for bit. A member of a
    larger batch can differ in the last digit: numpy takes a one-row
    classifier product by another BLAS routine than a many-row one.
    """
    feats = np.asarray(feats, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[0] != model.cfg.in_dim:
        raise DimensionError(f"expected one {model.cfg.in_dim} x L "
                             f"utterance, got shape {feats.shape}")
    return model.forward_batch(feats[None], keep=False)[0][0]


# Crop frames (members x crop length) that one forward and backward pass
# holds at most. The training step is bound by memory traffic, not by
# FLOPs: every convolution keeps an im2col patch matrix of its input
# (kernel times its size) alive until the backward pass, so a whole
# B=32, L=1000 batch of the default front-end peaks at 57 MiB, the stem's
# patch matrix alone at 14.6 MiB, against an L2 cache of a few MiB.
# Slices of at most this many frames peak at about 7 MiB at every crop
# length, and their large temporaries are reused rather than fresh pages.
SLICE_FRAMES = 4096


def batch_loss(model: Model, feats: np.ndarray, labels: np.ndarray,
               accumulate: bool = True) -> float:
    """Mean cross-entropy over one (B, D, L) batch; optionally backprops it.

    The batch runs in consecutive slices of whole members, as few as keep
    each slice within SLICE_FRAMES crop frames (one member per slice when
    L alone exceeds it), split as evenly as whole members allow. Each
    slice runs forward, loss and, when `accumulate` is set, backward with
    its logit gradients scaled by 1/B, and its cache is freed before the
    next slice starts. A batch within the budget is one slice. Sizing the
    slices by frames rather than members keeps the step's working set
    about the same at every crop length (see SLICE_FRAMES). The loss and
    the parameter gradients equal a whole-batch pass up to rounding: the
    gradients are summed slice by slice.
    """
    labels = np.asarray(labels, dtype=np.int64)
    num, length = feats.shape[0], feats.shape[-1]
    if labels.shape != (num,):
        raise IndexError(f"need {num} labels, got shape {labels.shape}")
    count = -(-num // max(1, SLICE_FRAMES // length))
    losses = []
    for i in range(count):
        lo, hi = num * i // count, num * (i + 1) // count
        logits, cache = model.forward_batch(feats[lo:hi])
        member_losses, dlogits = cross_entropy(logits, labels[lo:hi])
        if accumulate:
            model.backward_batch(cache, dlogits / num)
        del cache  # before the next slice's forward builds its own
        losses.append(member_losses)
    # strictly left to right, as a running float sum would add them: a
    # pairwise or compensated sum can move the last digit of the loss log
    return float(np.add.accumulate(np.concatenate(losses))[-1]) / num


@dataclass
class TrainStep:
    step: int
    epoch: int
    loss: float
    smoothed: float


def train_model(model: Model, utts, cfg: SgdConfig, rng: Rng,
                log_path=None) -> list[TrainStep]:
    """SGD over shuffled random-crop batches for cfg.epochs epochs, on a
    list of `Utterance`s or of `StoredUtterance`s.

    Writes one 'step<TAB>loss<TAB>smoothed' line per step to log_path when
    given; the smoothed value is the mean of the last cfg.smooth_window
    raw losses. The log appears only when training completes. Aborts with
    NumericalError on a non-finite loss.
    """
    if not utts:
        raise ValueError("no training utterances")
    optimizer = Sgd(model.trainable_params(), cfg)
    recent = deque(maxlen=cfg.smooth_window)
    history = []
    log = atomic_write(log_path) if log_path is not None else nullcontext()
    with log as log_fh:
        step = 0
        for epoch in range(cfg.epochs):
            lr = learning_rate(cfg, epoch)
            for feats, labels in make_batches(utts, cfg.batch_size,
                                              cfg.crop_min, cfg.crop_max,
                                              rng.split(epoch)):
                loss = batch_loss(model, feats, labels)
                if not np.isfinite(loss):
                    raise NumericalError(
                        f"non-finite loss {loss} at step {step} "
                        f"(epoch {epoch}); lower the learning rate or "
                        f"check the input data")
                recent.append(loss)
                smoothed = float(np.mean(recent))
                history.append(TrainStep(step, epoch, loss, smoothed))
                if log_fh is not None:
                    log_fh.write(f"{step}\t{loss:.17g}\t{smoothed:.17g}\n")
                optimizer.step(lr)
                model.zero_grads()  # frozen params accumulate too
                step += 1
    return history


@dataclass
class Checkpoint:
    meta: dict
    params: dict[str, np.ndarray]


def load_checkpoint(path) -> Checkpoint:
    return Checkpoint(*read_artifact(path, CheckpointError))


def _load_kind(path, kind: str) -> Checkpoint:
    ckpt = load_checkpoint(path)
    if ckpt.meta.get("kind") != kind:
        raise CheckpointError(f"{path}: not a {kind} checkpoint")
    return ckpt


def _check_params(path, ckpt: Checkpoint, shapes: dict) -> None:
    """Raises CheckpointError unless the parameters are exactly the names
    and shapes that `shapes` maps them to (a None size matches any), every
    value finite."""
    if set(shapes) != set(ckpt.params):
        missing = sorted(set(shapes) - set(ckpt.params))
        extra = sorted(set(ckpt.params) - set(shapes))
        raise CheckpointError(
            f"{path}: parameter names do not match the meta "
            f"(missing {missing}, unexpected {extra})")
    for name, shape in shapes.items():
        got = ckpt.params[name].shape
        if len(got) != len(shape) or any(s not in (None, g)
                                         for s, g in zip(shape, got)):
            raise CheckpointError(
                f"{path}: {name} has shape {got}, expected {shape}")
        if not np.isfinite(ckpt.params[name]).all():
            raise CheckpointError(f"{path}: {name} holds non-finite values")


def save_model(path, model: Model, epoch: int | None = None,
               extra_meta: dict | None = None) -> None:
    meta = {"kind": "model", "config": model_config_to_dict(model.cfg),
            "epoch": epoch, **(extra_meta or {})}
    write_artifact(path, meta, [(p.name, p.value) for p in model.params()])


def load_model(path) -> tuple[Model, dict]:
    ckpt = _load_kind(path, "model")
    model = Model(model_config_from_dict(ckpt.meta.get("config", {})), Rng(0))
    _check_params(path, ckpt, {p.name: p.value.shape for p in model.params()})
    for p in model.params():
        p.value[...] = ckpt.params[p.name]
    return model, ckpt.meta


# a bank stores class k's mixture as gmm.{k}.<part>, each part of this rank
_BANK_PARTS = {"weights": (None,), "means": (None, None),
               "variances": (None, None)}


def save_gmm_bank(path, gmms: list[GmmModel], meta: dict | None = None) -> None:
    full = {**(meta or {}), "kind": "gmm", "num_classes": len(gmms)}
    write_artifact(path, full, [(f"gmm.{k}.{part}", getattr(m, part))
                                for k, m in enumerate(gmms)
                                for part in _BANK_PARTS])


def load_gmm_bank(path) -> tuple[list[GmmModel], dict]:
    ckpt = _load_kind(path, "gmm")
    count = ckpt.meta.get("num_classes")
    if type(count) is not int or len(_BANK_PARTS) * count != len(ckpt.params):
        raise CheckpointError(f"{path}: class count {count!r} does not fit "
                              f"{len(ckpt.params)} parameters")
    _check_params(path, ckpt, {f"gmm.{k}.{part}": shape for k in range(count)
                               for part, shape in _BANK_PARTS.items()})
    try:
        bank = [GmmModel(**{part: ckpt.params[f"gmm.{k}.{part}"]
                            for part in _BANK_PARTS})
                for k in range(count)]
    except ValueError as exc:
        raise CheckpointError(f"{path}: bad mixture: {exc}") from exc
    if len({m.means.shape for m in bank}) > 1:  # gmm_classify stacks them
        raise CheckpointError(f"{path}: mixtures differ in C x D shape")
    return bank, ckpt.meta
