"""Every file format ldekit reads, fed truncated and byte-flipped copies of
a small valid file: each copy either loads or raises its format's typed
error, and the CLI turns that error into exit code 2."""

import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from ldekit import cli
from ldekit.cli import build_parser, main
from ldekit.data import CorpusFormatError, Utterance, read_corpus, write_corpus
from ldekit.gmm import GmmModel
from ldekit.metrics import (
    ScoresFormatError,
    TrialScore,
    TrialSet,
    read_scores,
    write_scores,
)
from ldekit.ndcore import Rng
from ldekit.train import (
    CheckpointError,
    Model,
    ModelConfig,
    load_gmm_bank,
    load_model,
    save_gmm_bank,
    save_model,
)

FLIPS = 400


def write_model(path):
    save_model(path, Model(ModelConfig(in_dim=2, num_classes=2), Rng(0)),
               epoch=1)


def write_bank(path):
    save_gmm_bank(path, [GmmModel(weights=np.array([0.25, 0.75]),
                                  means=np.array([[0.0, 1.0], [2.0, -1.0]]),
                                  variances=np.array([[1.0, 2.0], [0.5, 1.5]])),
                         GmmModel(weights=np.array([0.5, 0.5]),
                                  means=np.array([[3.0, 3.0], [-3.0, 0.0]]),
                                  variances=np.array([[1.0, 1.0],
                                                      [2.0, 0.5]]))])


def write_small_corpus(path):
    rng = Rng(1)
    write_corpus(path, [Utterance(f"u{i}#short", i % 2, rng.normal((2, 3 + i)))
                        for i in range(3)], num_classes=2, feature_dim=2)


def write_small_scores(path):
    write_scores(path, TrialSet(["L0", "L1"], [
        TrialScore("u0#short", 0, np.array([-0.25, -1.5])),
        TrialScore("u1#long", 1, np.array([-2.0, -0.125]))]))


FORMATS = {
    "model": (write_model, load_model, CheckpointError),
    "bank": (write_bank, load_gmm_bank, CheckpointError),
    "corpus": (write_small_corpus, read_corpus, CorpusFormatError),
    "scores": (write_small_scores, read_scores, ScoresFormatError),
}


# the three kinds that share ndcore's artifact format, and the words each
# loader rejects another kind's file with
ARTIFACT_KINDS = {"bank": "not a gmm checkpoint", "corpus": "not a corpus",
                  "model": "not a model checkpoint"}


def hostile_copies(blob: bytes, rng: Rng):
    """Every proper prefix, then FLIPS copies with one byte XOR-ed by a
    random non-zero mask at a random position."""
    for size in range(len(blob)):
        yield f"prefix of {size} bytes", blob[:size]
    for _ in range(FLIPS):
        pos, mask = rng.integers(0, len(blob) - 1), rng.integers(1, 255)
        flipped = bytearray(blob)
        flipped[pos] ^= mask
        yield f"byte {pos} ^ {mask:#04x}", bytes(flipped)


def escapes(tmp_path, fmt, load):
    """What `load` raised, other than `fmt`'s typed error, on the hostile
    copies of a small valid `fmt` file; the copies depend on `fmt` alone."""
    write, _, error = FORMATS[fmt]
    valid = tmp_path / f"valid.{fmt}"
    write(valid)
    load(valid)
    path = tmp_path / f"hostile.{fmt}"
    found = []
    rng = Rng(12).split(sorted(FORMATS).index(fmt))
    for case, blob in hostile_copies(valid.read_bytes(), rng):
        path.write_bytes(blob)
        try:
            load(path)
        except error:
            pass
        except Exception as exc:  # anything untyped is a finding
            found.append(f"{case}: {type(exc).__name__}: {exc}")
    return found


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_hostile_copies_load_or_raise_the_typed_error(tmp_path, fmt):
    assert escapes(tmp_path, fmt, FORMATS[fmt][1]) == []


def command(argv, outputs):
    """A loader for `escapes` that runs the ldekit command `argv(path)` on
    a corpus: it returns when the command succeeds and re-raises the
    command's CorpusFormatError once it has checked that none of
    `outputs` was written."""
    def run(path):
        for out in outputs:
            out.unlink(missing_ok=True)
        args = build_parser().parse_args(argv(path))
        try:
            assert args.func(args) == 0
        except CorpusFormatError:
            left = [out.name for out in outputs if out.exists()]
            assert left == [], f"a failed run left {left}"
            raise
    return run


def test_hostile_corpus_copies_train_or_raise(tmp_path):
    # the corpus's own copies, batched from the file: crops of 2-6 frames
    # cut the 3-5 frame utterances and tile them
    runs = tmp_path / "runs"
    config = tmp_path / "run.ini"

    def argv(path):
        config.write_text(
            f"[frontend]\nenabled = false\n"
            f"[train]\nepochs = 1\nbatch_size = 2\ncrop_min = 2\n"
            f"crop_max = 6\n"
            f"[paths]\ntrain_corpus = {path}\n"
            f"checkpoint = {runs}/model.ckpt\nloss_log = {runs}/loss.log\n")
        return ["train", "--config", str(config), "--force"]

    outputs = [runs / "model.ckpt", runs / "loss.log"]
    assert escapes(tmp_path, "corpus", command(argv, outputs)) == []


def test_hostile_corpus_copies_eval_or_raise(tmp_path):
    # the corpus's own copies, scored one utterance at a time
    write_model(tmp_path / "model.ckpt")
    scores = tmp_path / "scores.txt"

    def argv(path):
        return ["eval", "--checkpoint", str(tmp_path / "model.ckpt"),
                "--corpus", str(path), "--scores", str(scores), "--force"]

    assert escapes(tmp_path, "corpus", command(argv, [scores])) == []


@pytest.mark.parametrize("fmt", sorted(ARTIFACT_KINDS))
def test_bytes_after_the_last_array_rejected(tmp_path, fmt):
    write, load, error = FORMATS[fmt]
    path = tmp_path / f"long.{fmt}"
    write(path)
    path.write_bytes(path.read_bytes() + bytes(16))
    with pytest.raises(error, match="16 trailing bytes after the last array"):
        load(path)


@pytest.mark.parametrize("fmt, other", [(fmt, other)
                                        for fmt in sorted(ARTIFACT_KINDS)
                                        for other in sorted(ARTIFACT_KINDS)
                                        if other != fmt])
def test_loader_rejects_another_kind(tmp_path, fmt, other):
    _, load, error = FORMATS[fmt]
    write_other, _, _ = FORMATS[other]
    path = tmp_path / f"file.{other}"
    write_other(path)
    with pytest.raises(error, match=ARTIFACT_KINDS[fmt]):
        load(path)


def former_corpus():
    """The earlier corpus layout: magic, version, class count and dim, then
    per utterance its id, label, L, D and frames."""
    return (b"LDEC" + struct.pack("<III", 1, 2, 1)
            + struct.pack("<I", 2) + b"u0" + struct.pack("<III", 0, 1, 1)
            + np.ones(1).tobytes())


def former_checkpoint(meta):
    """The earlier checkpoint layout: magic, version, section count, then
    a JSON meta section and a params section, here of no parameters."""
    blob = b"LDEK" + struct.pack("<II", 1, 2)
    for tag, payload in ((b"meta", json.dumps(meta).encode()),
                         (b"params", struct.pack("<I", 0))):
        blob += struct.pack("<I", len(tag)) + tag
        blob += struct.pack("<Q", len(payload)) + payload
    return blob


FORMER_LAYOUTS = {
    "bank": former_checkpoint({"kind": "gmm", "num_classes": 0}),
    "corpus": former_corpus(),
    "model": former_checkpoint({"kind": "model"}),
}


@pytest.mark.parametrize("fmt", sorted(FORMER_LAYOUTS))
def test_former_layouts_rejected_for_their_magic(tmp_path, fmt):
    _, load, error = FORMATS[fmt]
    blob = FORMER_LAYOUTS[fmt]
    path = tmp_path / f"former.{fmt}"
    path.write_bytes(blob)
    with pytest.raises(error, match=f"bad magic {blob[:4]!r}"):
        load(path)


@pytest.fixture
def small_files(tmp_path):
    write_model(tmp_path / "model.ckpt")
    write_small_corpus(tmp_path / "test.bin")
    write_small_scores(tmp_path / "scores.txt")
    return tmp_path


def corrupt(path, pos, byte):
    blob = bytearray(path.read_bytes())
    blob[pos] = byte
    path.write_bytes(bytes(blob))


def test_cli_truncated_checkpoint_exits_2(small_files, capsys):
    ckpt = small_files / "model.ckpt"
    ckpt.write_bytes(ckpt.read_bytes()[:-5])
    assert main(["eval", "--checkpoint", str(ckpt),
                 "--corpus", str(small_files / "test.bin"),
                 "--scores", str(small_files / "out.txt")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(ckpt) in err
    assert not (small_files / "out.txt").exists()


def test_cli_corpus_id_not_utf8_exits_2(small_files, capsys):
    corpus = small_files / "test.bin"
    # the first byte of the first utterance id, in the file's JSON head
    corrupt(corpus, corpus.read_bytes().index(b"u0#short"), 0xD2)
    config = small_files / "run.ini"
    config.write_text(
        f"[gmm]\ncomponents = 1\niterations = 1\nuse_sdc = false\n"
        f"[paths]\ntrain_corpus = {corpus}\ntest_corpus = {corpus}\n"
        f"gmm_checkpoint = {small_files}/gmm.ckpt\n"
        f"gmm_scores = {small_files}/gmm_scores.txt\n")
    assert main(["gmm", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(corpus) in err
    assert "not UTF-8" in err


def test_cli_scores_not_utf8_exits_2(small_files, capsys):
    scores = small_files / "scores.txt"
    second_line = scores.read_bytes().index(b"\n") + 1
    corrupt(scores, second_line + 1, 0xFF)
    assert main(["fuse", "--train-scores", str(scores), "--scores",
                 str(scores), "--out", str(small_files / "fused.txt")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {scores}:2: not UTF-8")
    assert not (small_files / "fused.txt").exists()


def test_zero_frame_utterance_exits_2_without_hanging(tmp_path):
    """A corpus holding a (D, 0) utterance is refused when it is opened,
    by `train`, `eval` and `gmm` alike; each runs in a subprocess with a
    timeout, so a command that never returns fails the test."""
    corpus = tmp_path / "c.bin"
    rng = Rng(1)
    write_corpus(corpus, [Utterance(f"u{i}", i % 2, rng.normal((2, n)))
                          for i, n in enumerate([3, 0, 5])],
                 num_classes=2, feature_dim=2)
    write_model(tmp_path / "model.ckpt")
    config = tmp_path / "run.ini"
    config.write_text(
        f"[frontend]\nenabled = false\n"
        f"[train]\nepochs = 1\nbatch_size = 2\ncrop_min = 2\ncrop_max = 6\n"
        f"[gmm]\ncomponents = 1\niterations = 1\nuse_sdc = false\n"
        f"[paths]\ntrain_corpus = {corpus}\ntest_corpus = {corpus}\n"
        f"checkpoint = {tmp_path}/runs/model.ckpt\n"
        f"loss_log = {tmp_path}/runs/loss.log\n"
        f"gmm_checkpoint = {tmp_path}/runs/gmm.ckpt\n"
        f"gmm_scores = {tmp_path}/runs/gmm_scores.txt\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    for argv in (["train", "--config", str(config)],
                 ["eval", "--checkpoint", str(tmp_path / "model.ckpt"),
                  "--corpus", str(corpus),
                  "--scores", str(tmp_path / "scores.txt")],
                 ["gmm", "--config", str(config)]):
        out = subprocess.run([sys.executable, "-m", "ldekit", *argv],
                             env=env, capture_output=True, text=True,
                             timeout=60)
        assert out.returncode == 2, (argv[0], out.stderr)
        assert out.stderr.startswith("data error: ")
        assert "u1 has shape (2, 0)" in out.stderr
        assert "Traceback" not in out.stderr
    written = [name for name in ("runs/model.ckpt", "runs/loss.log",
                                 "runs/gmm.ckpt", "runs/gmm_scores.txt",
                                 "scores.txt") if (tmp_path / name).exists()]
    assert written == []
