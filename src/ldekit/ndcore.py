"""Dense numeric substrate shared by every other module.

Frame-to-center squared distances for the dictionary encoder's soft and
hard assignment come from `sq_dists`. Randomness goes through `Rng`,
a counter-based Philox generator that can be split into independent,
reproducible child streams so data generation, parameter init and batch
cropping never perturb each other's draws. Every artifact file is written
through `atomic_write`, so a failed write never leaves a partial file.

Corpora, model checkpoints and mixture banks share one file format, a
JSON head plus named float64 arrays, written by `write_artifact` from any
iterable of arrays, one at a time, and read by `read_artifact`, which
seeks past the arrays its caller does not want, all of them for a
head-only read.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import struct
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


class DimensionError(ValueError):
    """Shapes of the operands do not line up."""


@contextmanager
def atomic_write(path, mode: str = "w"):
    """Opens a temp file beside `path` for writing. On a clean exit it
    replaces `path` in one `os.replace`; on any exception it is deleted
    and `path` is left as it was."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


ARTIFACT_MAGIC = b"LDEA"
ARTIFACT_VERSION = 1
_PREFIX = struct.Struct("<4sIQ")  # magic, version, head byte count


def write_artifact(path, meta: dict, arrays) -> None:
    """Writes `meta` and the named arrays, any iterable of (name, array)
    pairs, as one file through `atomic_write`: magic, version, the head's
    byte count, the UTF-8 JSON head {"meta": meta, "arrays": [[name,
    shape], ...]}, then each array's little-endian float64 values,
    row-major, in head order. The same meta and arrays give the same bytes.
    Each array is spooled to an unnamed file beside `path` as it comes, so
    a generator of arrays is never held whole; the head is encoded after
    the last array, so that generator may still fill in `meta`."""
    entries = []
    with atomic_write(path, "wb") as fh, tempfile.TemporaryFile(
            dir=os.path.dirname(os.path.abspath(path))) as spool:
        for name, a in arrays:
            a = np.asarray(a, dtype="<f8", order="C")
            spool.write(a)
            entries.append([name, a.shape])
        head = json.dumps({"meta": meta, "arrays": entries},
                          sort_keys=True).encode("utf-8")
        fh.write(_PREFIX.pack(ARTIFACT_MAGIC, ARTIFACT_VERSION, len(head)))
        fh.write(head)
        spool.seek(0)
        shutil.copyfileobj(spool, fh)


def _read_head(fh, path, error) -> tuple[dict, list]:
    """The meta and the (name, shape) list of the artifact open in `fh`,
    left at its first array. Raises `error` for anything but a well-formed
    head whose arrays, with unique names, fill the rest of the file
    exactly, so nothing is allocated for sizes the file does not hold."""
    size = os.fstat(fh.fileno()).st_size
    prefix = fh.read(_PREFIX.size)
    if prefix[:4] != ARTIFACT_MAGIC:
        raise error(f"{path}: bad magic {prefix[:4]!r}")
    if len(prefix) < _PREFIX.size:
        raise error(f"{path}: truncated header")
    _, version, head_len = _PREFIX.unpack(prefix)
    if version != ARTIFACT_VERSION:
        raise error(f"{path}: unsupported version {version}")
    if head_len > size - _PREFIX.size:
        raise error(f"{path}: truncated head")
    try:
        head = json.loads(fh.read(head_len).decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise error(f"{path}: head is not UTF-8: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise error(f"{path}: corrupt head: {exc}") from exc
    entries = head.get("arrays") if isinstance(head, dict) else None
    # a shape has at most 32 dims, the most that numpy 1.x allows
    if not (isinstance(entries, list) and isinstance(head.get("meta"), dict)
            and all(isinstance(e, list) and len(e) == 2 and type(e[0]) is str
                    and isinstance(e[1], list) and len(e[1]) <= 32
                    and all(type(n) is int and n >= 0 for n in e[1])
                    for e in entries)):
        raise error(f"{path}: head is not a meta object and a list of "
                    f"[name, shape] entries")
    if len({name for name, _ in entries}) != len(entries):
        raise error(f"{path}: duplicate array names")
    need = 8 * sum(math.prod(shape) for _, shape in entries)
    have = size - _PREFIX.size - head_len
    if need > have:
        raise error(f"{path}: truncated: the head declares {need} bytes of "
                    f"arrays, {have} follow")
    if need < have:
        raise error(f"{path}: {have - need} trailing bytes after the last "
                    f"array")
    return head["meta"], [(name, tuple(shape)) for name, shape in entries]


def read_artifact(path, error, keep=None
                  ) -> tuple[dict, dict[str, np.ndarray]]:
    """The meta and the named arrays, in file order, of a `write_artifact`
    file. Each array is read straight into its own allocation, so reading
    never holds a second copy of the file. A malformed file raises `error`
    (an exception class).

    `keep`, when given, is called with the meta and the [(name, shape),
    ...] list once the whole head and the file's size have been checked,
    and returns one flag per array: only the flagged arrays are read, and
    the others are seeked past."""
    with open(path, "rb") as fh:
        meta, shapes = _read_head(fh, path, error)
        flags = [True] * len(shapes) if keep is None else keep(meta, shapes)
        arrays = {}
        for (name, shape), wanted in zip(shapes, flags):
            if not wanted:
                fh.seek(8 * math.prod(shape), os.SEEK_CUR)
                continue
            arr = np.empty(shape, dtype="<f8")
            if fh.readinto(arr) != arr.nbytes:
                raise error(f"{path}: truncated array {name}")
            arrays[name] = arr.astype(np.float64, copy=False)
    return meta, arrays


def sq_dists(frames: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """N x C squared distances from N x D frames (or a B x N x D batch) to
    C x D centers. Expanded as ||x||^2 - 2 x.mu + ||mu||^2 to avoid an
    N x C x D intermediate; ||x||^2 is a product with a C x D block of
    ones, which gives it the result's shape."""
    sq = (frames ** 2) @ np.ones_like(centers).T
    cross = frames @ centers.T
    const = (centers ** 2).sum(axis=1)
    return sq - 2.0 * cross + const[None, :]


def softmax_rows(m: np.ndarray) -> np.ndarray:
    """Row-wise softmax with per-row max subtraction for stability.

    Every output row is non-negative and sums to 1 (within 1e-12) for any
    finite input, including entries of magnitude 1e3.
    """
    m = np.asarray(m, dtype=np.float64)
    z = m - m.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def log_sum_exp_rows(m: np.ndarray) -> np.ndarray:
    """Row-wise log(sum(exp(.))), max-shifted."""
    m = np.asarray(m, dtype=np.float64)
    mx = m.max(axis=-1)
    return mx + np.log(np.exp(m - mx[..., None]).sum(axis=-1))


def cross_entropy(logits: np.ndarray,
                  labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Multiclass cross-entropy of each row of a (B, K) logit batch against
    its label; returns the B losses and their gradients w.r.t. the logits
    (softmax minus one-hot, B x K)."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    num, k = logits.shape
    if labels.shape != (num,) or np.any((labels < 0) | (labels >= k)):
        raise IndexError(f"need {num} labels in [0, {k}), got {labels}")
    z = log_sum_exp_rows(logits)
    grad = np.exp(logits - z[:, None])
    rows = np.arange(num)
    grad[rows, labels] -= 1.0
    return z - logits[rows, labels], grad


class Rng:
    """Seeded, splittable, counter-based random stream (Philox).

    Identical seed (and split path) gives an identical draw sequence across
    runs. `split(stream)` derives an independent child stream
    deterministically, so sub-tasks can be reseeded without coupling.
    """

    def __init__(self, seed: int, _spawn_key: tuple = ()):
        self.seed = int(seed)
        self.spawn_key = tuple(_spawn_key)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.spawn_key)
        self._gen = np.random.Generator(np.random.Philox(ss))

    def split(self, stream: int) -> "Rng":
        """Independent child stream number `stream` of this Rng."""
        return Rng(self.seed, self.spawn_key + (int(stream),))

    # Thin pass-throughs; kept narrow so every draw site is greppable.
    def normal(self, shape, mean=0.0, std=1.0) -> np.ndarray:
        return self._gen.normal(loc=mean, scale=std, size=shape).astype(np.float64)

    def uniform(self, shape, low=0.0, high=1.0) -> np.ndarray:
        return self._gen.uniform(low=low, high=high, size=shape).astype(np.float64)

    def integers(self, low, high) -> int:
        """One integer drawn uniformly from [low, high] inclusive."""
        return int(self._gen.integers(low, high + 1))

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def choice(self, n: int, size: int, replace: bool = False) -> np.ndarray:
        return self._gen.choice(n, size=size, replace=replace)


@dataclass
class Param:
    """A learnable value and its gradient accumulator, always shape-matched."""

    name: str
    value: np.ndarray
    grad: np.ndarray = field(default=None)

    def __post_init__(self):
        self.value = np.asarray(self.value, dtype=np.float64)
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        else:
            self.grad = np.asarray(self.grad, dtype=np.float64)
        if self.grad.shape != self.value.shape:
            raise DimensionError(
                f"param {self.name}: grad shape {self.grad.shape} != "
                f"value shape {self.value.shape}"
            )

    @property
    def shape(self):
        return self.value.shape

    def zero_grad(self):
        self.grad[...] = 0.0
