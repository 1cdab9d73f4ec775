"""Dense numeric substrate shared by every other module.

Component-major products of C x D parameters against D x N frames come
from `expand`, which scores mixture components; `sq_dists`, built on it,
is the one frame-to-center squared distance, for the dictionary encoder,
hard assignment and k-means. Randomness goes through `Rng`, a
counter-based Philox generator that can be split into independent,
reproducible child streams so data generation, parameter init and batch
cropping never perturb each other's draws. Every artifact file is written
through `atomic_write`, so a failed write never leaves a partial file.

Corpora, model checkpoints and mixture banks share one file format, a
JSON head plus named float64 arrays, written by `write_artifact` from any
iterable of arrays, one at a time. `artifact_index` checks an open file's
head against its size and lists each array's name, shape and byte offset.
`read_array` reads one array at its offset, the only positioned read:
`read_artifact` reads every array of the index through it, and
`data.CorpusFile` reads single utterances through it.
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


def artifact_index(fh, path, error) -> tuple[dict, list]:
    """The meta and the [(name, shape, offset), ...] list of the artifact
    open in `fh`, each offset the byte at which that array's values start.
    Raises `error` for anything but a well-formed head whose arrays, with
    unique names, fill the rest of the file exactly, so nothing is
    allocated or read for sizes the file does not hold."""
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
    index, offset = [], _PREFIX.size + head_len
    for name, shape in entries:
        index.append((name, tuple(shape), offset))
        offset += 8 * math.prod(shape)
    if offset > size:
        raise error(f"{path}: truncated: the head declares "
                    f"{offset - _PREFIX.size - head_len} bytes of arrays, "
                    f"{size - _PREFIX.size - head_len} follow")
    if offset < size:
        raise error(f"{path}: {size - offset} trailing bytes after the last "
                    f"array")
    return head["meta"], index


def read_array(fh, path, name, shape, offset, error) -> np.ndarray:
    """The float64 array `name` of `shape` whose little-endian values
    start at byte `offset` of the artifact open in `fh`, read straight into
    its own allocation by one positioned read. Raises `error` (an
    exception class) when the file ends before the array does."""
    arr = np.empty(shape, dtype="<f8")
    if os.preadv(fh.fileno(), [arr], offset) != arr.nbytes:
        raise error(f"{path}: {name} is cut short")
    return arr.astype(np.float64, copy=False)


def read_artifact(path, error) -> tuple[dict, dict[str, np.ndarray]]:
    """The meta and the named arrays, in file order, of a `write_artifact`
    file, each read by `read_array`, so reading never holds a second copy
    of the file. A malformed file raises `error` (an exception class)."""
    with open(path, "rb") as fh:
        meta, index = artifact_index(fh, path, error)
        return meta, {name: read_array(fh, path, name, shape, offset, error)
                      for name, shape, offset in index}


def expand(lin: np.ndarray, quad: np.ndarray | None, const: np.ndarray,
           x: np.ndarray, x_sq: np.ndarray | None) -> np.ndarray:
    """C x N values lin . x + quad . x^2 + const of D x N frames `x` and
    their squares `x_sq` (or B x C x N of a B x D x N batch), from C x D
    parameters `lin` and `quad` and C constants; `quad` None drops the
    x^2 term. Component-major, so every reduction over components runs
    over C contiguous rows of N."""
    out = lin @ x
    if quad is not None:
        out += quad @ x_sq
    out += const[:, None]
    return out


def sq_dists(centers: np.ndarray, x: np.ndarray) -> np.ndarray:
    """C x N squared distances from C x D centers to D x N frames, or
    B x C x N for a B x D x N batch: -2 mu.x + ||mu||^2 + ||x||^2, an
    `expand` plus each frame's squared norm, so no C x D x N tensor is
    built."""
    out = expand(-2.0 * centers, None, (centers ** 2).sum(axis=1), x, None)
    out += np.einsum("...dn,...dn->...n", x, x)[..., None, :]
    return out


def softmax_rows(m: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax along `axis`, the last by default, with the max along it
    subtracted for stability. Every output slice along `axis` is
    non-negative and sums to 1 (within 1e-12) for any finite input,
    including entries of magnitude 1e3; the input's memory order is kept.
    """
    m = np.asarray(m, dtype=np.float64)
    z = m - m.max(axis=axis, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=axis, keepdims=True)
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
    def normal(self, shape, std=1.0) -> np.ndarray:
        return self._gen.normal(scale=std, size=shape)

    def uniform(self, shape, low=0.0, high=1.0) -> np.ndarray:
        return self._gen.uniform(low=low, high=high, size=shape)

    def integers(self, low, high) -> int:
        """One integer drawn uniformly from [low, high] inclusive."""
        return int(self._gen.integers(low, high + 1))

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def choice(self, n: int, size: int) -> np.ndarray:
        return self._gen.choice(n, size=size, replace=False)


@dataclass
class Param:
    """A learnable value and its gradient accumulator, always shape-matched."""

    name: str
    value: np.ndarray
    grad: np.ndarray = field(init=False)

    def __post_init__(self):
        self.value = np.asarray(self.value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    def zero_grad(self):
        self.grad[...] = 0.0
