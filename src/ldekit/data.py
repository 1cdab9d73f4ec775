"""Synthetic variable-length corpus generation, the corpus file format,
random-crop batching, and the shifted-delta feature transform.

Each class is a mixture of G Gaussian "phones" with first-order Markov
dynamics over the phone index, so utterances have genuine temporal
structure for the convolutional front-end to exploit. Phone centers are
drawn per class, centered so no class is separable by its global mean
alone, then rescaled so the mean pairwise center distance exceeds the
frame noise by a configurable ratio.

A corpus file is an `ndcore.write_artifact` file: its JSON head's meta is
{"kind": "corpus", "num_classes", "feature_dim", "labels"}, one label per
utterance, and each utterance's D x L frames are one float64 array named
by its id, in corpus order. Identical spec and seed reproduce the file
byte for byte.

Every read of a corpus file goes through `CorpusFile`, which checks the
head once and indexes it: one `StoredUtterance` (id, label, shape, byte
offset) per utterance, whose frames stay in the file until asked for.
Such a file-backed list serves wherever a list of in-memory `Utterance`s
does: both give `features`, the whole D x L array (read at each access
for a stored one), and `read_frames`, which fills a caller's array with a
window of frames (one positioned read per feature row for a stored one).
`make_batches` crops through `read_frames` straight into each batch, so
training holds one batch of crops, not the corpus, and scoring a stored
list holds one utterance at a time. `read_corpus` lists the utterances
with their frames in memory.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .ndcore import DimensionError, Rng, artifact_index, write_artifact

# synthetic analogue of short / medium / long duration test buckets,
# (bucket tag, inclusive frame-length range)
DURATION_BUCKETS = (("short", (100, 200)),
                    ("medium", (300, 500)),
                    ("long", (1200, 1500)))
BUCKET_SEP = "#"


def duration_bucket(uid: str) -> str | None:
    """Duration bucket tag an utterance or trial id carries after its last
    BUCKET_SEP, if any."""
    _, sep, tag = uid.rpartition(BUCKET_SEP)
    return tag if sep else None


class CorpusFormatError(ValueError):
    """Corpus file is malformed or disagrees with its header."""


@dataclass
class SyntheticSpec:
    """Corpus generator parameters; everything derives from (spec, seed)."""

    num_classes: int = 4
    feature_dim: int = 20
    phones_per_class: int = 5
    min_len: int = 100
    max_len: int = 1500
    noise_std: float = 1.0
    separation: float = 1.2   # mean pairwise center distance / noise_std
    self_loop: float = 0.85   # phone persistence per frame
    train_utterances: int = 800
    test_utterances: int = 400
    bucketed_test: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError("need at least 2 classes")
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be >= 1")
        if self.train_utterances < 0 or self.test_utterances < 0:
            raise ValueError("train_utterances and test_utterances must be "
                             ">= 0")
        if self.min_len < 1 or self.min_len > self.max_len:
            raise ValueError("bad utterance length range")
        if self.phones_per_class < 1:
            raise ValueError("phones_per_class must be >= 1")
        if self.noise_std < 0:
            raise ValueError("noise_std must be >= 0")
        if self.separation < 0:
            raise ValueError("separation must be >= 0")
        if not 0.0 <= self.self_loop < 1.0:
            raise ValueError("self_loop must be in [0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class Utterance:
    id: str
    label: int
    features: np.ndarray  # D x L

    @property
    def shape(self) -> tuple[int, int]:
        return self.features.shape

    @property
    def num_frames(self) -> int:
        return self.features.shape[1]

    def read_frames(self, start: int, out: np.ndarray) -> None:
        """Copies frames [start, start + out.shape[1]) into the D x n `out`."""
        out[...] = self.features[:, start:start + out.shape[1]]


@dataclass(frozen=True)
class StoredUtterance:
    """One utterance of an open `CorpusFile`, by its index entry; its
    frames stay in the file, at byte `offset`, until read. Reads raise
    CorpusFormatError for a file cut short since it was opened and for
    non-finite frames."""

    id: str
    label: int
    shape: tuple[int, int]
    offset: int
    file: object = field(repr=False)  # the corpus's open binary file

    @property
    def num_frames(self) -> int:
        return self.shape[1]

    @property
    def features(self) -> np.ndarray:
        """The whole D x L array, read from the file at each access."""
        arr = np.empty(self.shape, dtype="<f8")
        self._read(arr, self.offset)
        self._check_finite(arr)
        return arr.astype(np.float64, copy=False)

    def read_frames(self, start: int, out: np.ndarray) -> None:
        """Frames [start, start + out.shape[1]) into the D x n `out`, whose
        rows are contiguous: one positioned read per feature row."""
        row_bytes = 8 * self.shape[1]
        for row, buf in enumerate(out):
            self._read(buf, self.offset + row * row_bytes + 8 * start)
        self._check_finite(out)

    def _read(self, buf: np.ndarray, offset: int) -> None:
        if os.preadv(self.file.fileno(), [buf], offset) != buf.nbytes:
            raise CorpusFormatError(f"{self.file.name}: {self.id} is cut "
                                    f"short")

    def _check_finite(self, frames: np.ndarray) -> None:
        if not np.isfinite(frames).all():
            raise CorpusFormatError(f"{self.file.name}: {self.id} holds "
                                    f"non-finite frames")


@dataclass
class ClassGenerator:
    centers: np.ndarray     # G x D phone centers
    transitions: np.ndarray  # G x G row-stochastic


def _build_generators(spec: SyntheticSpec, rng: Rng) -> list[ClassGenerator]:
    g, d = spec.phones_per_class, spec.feature_dim
    all_centers = [rng.normal((g, d)) for _ in range(spec.num_classes)]

    # rescale so the mean pairwise distance among all phone centers is
    # separation * noise_std (classes differ by construction)
    pool = np.vstack(all_centers)
    diffs = pool[:, None, :] - pool[None, :, :]
    dists = np.sqrt((diffs ** 2).sum(axis=2))
    n = pool.shape[0]
    mean_dist = dists.sum() / (n * (n - 1)) if n > 1 else 1.0
    target = spec.separation * max(spec.noise_std, 1e-12)
    scale = target / mean_dist if mean_dist > 0 else 0.0

    gens = []
    for centers in all_centers:
        trans = rng.uniform((g, g), low=0.05, high=1.0)
        trans /= trans.sum(axis=1, keepdims=True)
        trans = spec.self_loop * np.eye(g) + (1.0 - spec.self_loop) * trans
        gens.append(ClassGenerator(centers=centers * scale, transitions=trans))
    return gens


def _sample_utterance(gen: ClassGenerator, length: int, noise_std: float,
                      rng: Rng) -> np.ndarray:
    g, d = gen.centers.shape
    cum = np.cumsum(gen.transitions, axis=1)
    phone = rng.integers(0, g - 1)
    u = rng.uniform((length,))
    # successor of every phone for every frame's draw; rounding can push
    # cum[-1] fractionally below 1, so the draw is clamped to the last phone
    succ = [np.minimum(np.searchsorted(row, u), g - 1).tolist() for row in cum]
    phones = [phone]
    for t in range(1, length):
        phone = succ[phone][t]
        phones.append(phone)
    if noise_std == 0:
        return gen.centers[phones].T
    # the centers are added into the noise, which is the same sum
    frames = rng.normal((length, d), std=noise_std)
    frames += gen.centers[phones]
    return frames.T  # D x L


def _draw_length(spec: SyntheticSpec, rng: Rng, bucketed: bool):
    if not bucketed:
        return rng.integers(spec.min_len, spec.max_len), None
    tag, (lo, hi) = DURATION_BUCKETS[rng.integers(0, len(DURATION_BUCKETS) - 1)]
    return rng.integers(lo, hi), tag


def generate_split(spec: SyntheticSpec, split: str) -> Iterator[Utterance]:
    """The utterances of split "train" or "test", one at a time, in corpus
    order; labels cycle through the classes, so each split is balanced.

    Test utterances carry a duration bucket tag in their id (after '#')
    when bucketed_test is set.
    """
    prefix, stream, count, bucketed = {
        "train": ("tr", 1, spec.train_utterances, False),
        "test": ("te", 2, spec.test_utterances, spec.bucketed_test)}[split]
    root = Rng(spec.seed)
    gens = _build_generators(spec, root.split(0))
    rng = root.split(stream)
    for i in range(count):
        label = i % spec.num_classes
        length, tag = _draw_length(spec, rng, bucketed)
        feats = _sample_utterance(gens[label], length, spec.noise_std, rng)
        uid = f"{prefix}{i:05d}"
        if tag is not None:
            uid = f"{uid}{BUCKET_SEP}{tag}"
        yield Utterance(id=uid, label=label, features=feats)


def generate_corpus(spec: SyntheticSpec) -> tuple[list[Utterance], list[Utterance]]:
    """Deterministic train/test utterance lists with disjoint ids, as
    `generate_split` yields them."""
    return (list(generate_split(spec, "train")),
            list(generate_split(spec, "test")))


def crop_or_extend(utt, target_len: int, rng: Rng,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Exactly target_len frames of an `Utterance` or `StoredUtterance`,
    written into `out` (D x target_len) when given: a uniform random
    contiguous crop when the utterance is longer, wrap-around tiling then
    truncation when shorter. Only the frames kept are read, once each."""
    if out is None:
        out = np.empty((utt.shape[0], target_len), dtype="<f8")
    length = utt.num_frames
    if length > target_len:
        utt.read_frames(rng.integers(0, length - target_len), out)
        return out
    utt.read_frames(0, out[:, :length])
    # tile by doubling: the filled prefix is always whole repeats
    filled = length
    while filled < target_len:
        width = min(filled, target_len - filled)
        out[:, filled:filled + width] = out[:, :width]
        filled += width
    return out


def sdc_shape(shape: tuple[int, int], n_coeffs: int = 7, delta: int = 1,
              shift: int = 3, blocks: int = 7,
              append_static: bool = True) -> tuple[int, int]:
    """The (dims, frames) of `sdc`'s output for a D x L input of `shape`,
    without computing it. Raises DimensionError when D < N and ValueError
    when L is too short for one output frame."""
    dim, length = shape
    if dim < n_coeffs:
        raise DimensionError(f"need at least {n_coeffs} feature dims, got {dim}")
    span = 2 * delta + (blocks - 1) * shift
    if length <= span:
        raise ValueError(f"sequence of {length} frames too short for "
                         f"{n_coeffs}-{delta}-{shift}-{blocks} deltas "
                         f"(needs at least {span + 1})")
    return (blocks + append_static) * n_coeffs, length - span


def sdc(x: np.ndarray, n_coeffs: int = 7, delta: int = 1, shift: int = 3,
        blocks: int = 7, append_static: bool = True) -> np.ndarray:
    """Shifted delta coefficients, parameterized N-d-P-k.

    Output frame t stacks, for i in [0, k), the deltas
    x[:N, t + i*P + d] - x[:N, t + i*P - d]; with append_static the N
    static coefficients x[:N, t] are appended, giving the conventional
    56-dim output for 7-1-3-7. Output frame 0 is input frame d.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionError(f"expected a D x L sequence, got {x.shape}")
    out = np.empty(sdc_shape(x.shape, n_coeffs, delta, shift, blocks,
                             append_static))
    out_len = out.shape[1]
    for i in range(blocks):
        off = i * shift
        np.subtract(x[:n_coeffs, off + 2 * delta:off + 2 * delta + out_len],
                    x[:n_coeffs, off:off + out_len],
                    out=out[i * n_coeffs:(i + 1) * n_coeffs])
    if append_static:
        out[blocks * n_coeffs:] = x[:n_coeffs, delta:delta + out_len]
    return out


def make_batches(utts, batch_size: int, crop_min: int, crop_max: int,
                 rng: Rng):
    """One epoch of shuffled (B x D x L, labels) batches of `utts`, a list
    of `Utterance`s or of an open corpus's `StoredUtterance`s.

    A fresh length L is drawn uniformly from [crop_min, crop_max] per step
    and every member is cropped or extended to it (`crop_or_extend`)
    straight into one new batch array, so a stored list reads just the
    frames that the batch keeps.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    order = rng.permutation(len(utts))
    for start in range(0, len(utts), batch_size):
        members = [utts[i] for i in order[start:start + batch_size]]
        target = rng.integers(crop_min, crop_max)
        feats = np.empty((len(members), members[0].shape[0], target),
                         dtype="<f8")
        for u, out in zip(members, feats):
            crop_or_extend(u, target, rng, out)
        labels = np.array([u.label for u in members], dtype=np.int64)
        yield feats, labels


def write_corpus(path, utts: Iterable[Utterance], num_classes: int,
                 feature_dim: int) -> int:
    """Writes the utterances, any iterable of them, and returns how many
    there were. Each one's frames are written as it comes, so a generator
    of utterances is never held whole."""
    labels = []
    meta = {"kind": "corpus", "num_classes": num_classes,
            "feature_dim": feature_dim, "labels": labels}

    def arrays():
        for u in utts:
            if u.features.shape[0] != feature_dim:
                raise CorpusFormatError(
                    f"utterance {u.id}: dim {u.features.shape[0]} != header "
                    f"{feature_dim}")
            labels.append(int(u.label))
            yield u.id, u.features

    write_artifact(path, meta, arrays())
    return len(labels)


def _corpus_shape(meta: dict, path) -> tuple[int, int]:
    if meta.get("kind") != "corpus":
        raise CorpusFormatError(f"{path}: not a corpus")
    num_classes, feature_dim = meta.get("num_classes"), meta.get("feature_dim")
    if (type(num_classes) is not int or type(feature_dim) is not int
            or num_classes < 2 or feature_dim < 1):
        raise CorpusFormatError(f"{path}: header declares {num_classes!r} "
                                f"classes of dim {feature_dim!r}; need at "
                                f"least 2 classes of dim >= 1")
    return num_classes, feature_dim


class CorpusFile:
    """An open corpus file: its header (`num_classes`, `feature_dim`) and
    `utterances`, one `StoredUtterance` per utterance in corpus order. The
    whole head is checked on opening, every label and every shape, and
    the file's size against it, so a read checks only what the head
    cannot vouch for: that its bytes are still there and finite. A
    context manager: leaving it closes the file, on every exit path."""

    def __init__(self, path):
        self.path = path
        self._file = open(path, "rb")
        try:
            meta, index = artifact_index(self._file, path, CorpusFormatError)
            self.num_classes, self.feature_dim = _corpus_shape(meta, path)
            labels = meta.get("labels")
            if not isinstance(labels, list) or len(labels) != len(index):
                raise CorpusFormatError(f"{path}: labels do not match the "
                                        f"{len(index)} utterances")
            self.utterances = []
            for (ident, shape, offset), lab in zip(index, labels):
                if type(lab) is not int or not 0 <= lab < self.num_classes:
                    raise CorpusFormatError(f"{path}: label {lab!r} of "
                                            f"{ident} out of range")
                if len(shape) != 2 or shape[0] != self.feature_dim:
                    raise CorpusFormatError(
                        f"{path}: {ident} has shape {shape}, expected "
                        f"({self.feature_dim}, L)")
                self.utterances.append(
                    StoredUtterance(ident, lab, shape, offset, self._file))
        except BaseException:
            self._file.close()
            raise

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "CorpusFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_corpus(path, label: int | None = None
                ) -> tuple[list[Utterance], int, int]:
    """Returns (utterances, num_classes, feature_dim); with `label`, the
    utterances of that class only, in corpus order.

    The whole head is checked first (`CorpusFile`). Each wanted
    utterance's frames are then read straight into their final array, so
    reading never holds a second copy of the file, and the other classes'
    frames are not read at all.
    """
    with CorpusFile(path) as corpus:
        utts = [Utterance(u.id, u.label, u.features)
                for u in corpus.utterances if label is None or u.label == label]
        return utts, corpus.num_classes, corpus.feature_dim
