"""Synthetic variable-length corpus generation, the corpus file format,
random-crop batching, and the shifted-delta feature transform.

Each class is a mixture of G Gaussian "phones" with first-order Markov
dynamics over the phone index, so utterances have genuine temporal
structure for the convolutional front-end to exploit. Phone centers are
drawn per class from a standard normal and are not centered: each class
keeps its own global mean, so averaging an utterance's frames alone
already separates the classes. All centers share one rescaling, so the
mean pairwise center distance is a configurable multiple of the frame
noise, which must therefore be positive.

A corpus file is an `ndcore.write_artifact` file: its JSON head's meta is
{"kind": "corpus", "num_classes", "feature_dim", "labels"}, one label per
utterance, and each utterance's D x L frames are one float64 array named
by its id, in corpus order. Identical spec and seed reproduce the file
byte for byte.

Every read of a corpus file goes through `CorpusFile`, which checks the
head once and indexes it: one `StoredUtterance` (id, label, shape, byte
offset) per utterance, whose frames stay in the file until asked for.
Such a file-backed list serves wherever a list of in-memory `Utterance`s
does: both give `features`, the whole D x L array, read at each access
for a stored one by `ndcore.read_array`. `make_batches` cuts each crop
from one utterance's `features` into its batch, so training holds one
batch of crops and one utterance, not the corpus, and scoring a stored
list holds one utterance at a time. `read_corpus` lists the utterances
with their frames in memory.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .ndcore import (
    DimensionError,
    Rng,
    artifact_index,
    read_array,
    write_artifact,
)

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
    noise_std: float = 1.0    # > 0: separation is in noise units
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
        if not self.noise_std > 0:
            raise ValueError("noise_std must be > 0")
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
    def features(self) -> np.ndarray:
        """The whole D x L array, read from the file at each access."""
        arr = read_array(self.file, self.file.name, self.id, self.shape,
                         self.offset, CorpusFormatError)
        if not np.isfinite(arr).all():
            raise CorpusFormatError(f"{self.file.name}: {self.id} holds "
                                    f"non-finite frames")
        return arr


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
    mean_dist = dists.sum() / (n * (n - 1))
    target = spec.separation * spec.noise_std
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


def crop_or_extend(utt, target_len: int, rng: Rng) -> np.ndarray:
    """Exactly target_len frames of an `Utterance` or `StoredUtterance`:
    a uniform random contiguous crop of its `features` when the utterance
    is longer, wrap-around tiling then truncation when shorter."""
    frames = utt.features
    length = frames.shape[1]
    if length > target_len:
        start = rng.integers(0, length - target_len)
        return frames[:, start:start + target_len]
    return frames[:, np.arange(target_len) % length]


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
    and every member is cropped or extended to it (`crop_or_extend`) into
    its row of one new batch array, so a stored list holds one batch and
    one whole utterance at a time.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    order = rng.permutation(len(utts))
    for start in range(0, len(utts), batch_size):
        members = [utts[i] for i in order[start:start + batch_size]]
        target = rng.integers(crop_min, crop_max)
        feats = np.empty((len(members), members[0].shape[0], target),
                         dtype="<f8")
        for u, row in zip(members, feats):
            row[...] = crop_or_extend(u, target, rng)
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
                if (len(shape) != 2 or shape[0] != self.feature_dim
                        or shape[1] < 1):
                    raise CorpusFormatError(
                        f"{path}: {ident} has shape {shape}, expected "
                        f"({self.feature_dim}, L) with L >= 1")
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


def read_corpus(path) -> tuple[list[Utterance], int, int]:
    """Returns (utterances, num_classes, feature_dim). The whole head is
    checked first (`CorpusFile`); each utterance's frames are then read
    straight into their final array, so reading never holds a second copy
    of the file.
    """
    with CorpusFile(path) as corpus:
        utts = [Utterance(u.id, u.label, u.features) for u in corpus.utterances]
        return utts, corpus.num_classes, corpus.feature_dim
