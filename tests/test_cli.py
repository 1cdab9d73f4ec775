import configparser
import contextlib
import errno
import io
import os
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest

from ldekit import cli
from ldekit.cli import (
    UsageError,
    _report,
    fit_gmm_bank,
    main,
    score_corpus,
    train_from_config,
)
from ldekit.config import ConfigError, GmmSettings, load_config
from ldekit.data import (
    CorpusFile,
    CorpusFormatError,
    SyntheticSpec,
    Utterance,
    duration_bucket,
    generate_corpus,
    read_corpus,
    sdc,
    write_corpus,
)
from ldekit.gmm import em_fit
from ldekit.metrics import (
    AlignmentError,
    ScoresFormatError,
    TrialScore,
    TrialSet,
    read_scores,
    write_scores,
)
from ldekit.ndcore import DimensionError, Rng
from ldekit.train import (
    CheckpointError,
    Model,
    ModelConfig,
    NumericalError,
    load_gmm_bank,
    load_model,
    save_model,
)

BASE = """
[data]
num_classes = 3
feature_dim = 6
phones_per_class = 3
min_len = 30
max_len = 80
train_utterances = 24
test_utterances = 12
seed = 5

[frontend]
stages = 8:1:down

[encoder]
model = tap

[train]
epochs = 2
batch_size = 8
crop_min = 16
crop_max = 32
seed = 3

[gmm]
components = 2
iterations = 3
use_sdc = false

[paths]
train_corpus = {root}/data/train.bin
test_corpus = {root}/data/test.bin
checkpoint = {root}/runs/model.ckpt
loss_log = {root}/runs/loss.log
scores = {root}/runs/scores.txt
gmm_checkpoint = {root}/runs/gmm.ckpt
gmm_scores = {root}/runs/gmm_scores.txt
"""


def write_config(tmp_path, extra: str = "", name: str = "run.ini") -> str:
    """Base config with extra "[section]\\nkey = value" overrides merged in."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string(BASE.format(root=tmp_path))
    if extra:
        over = configparser.ConfigParser(interpolation=None)
        over.read_string(extra)
        for section in over.sections():
            if not cp.has_section(section):
                cp.add_section(section)
            for key, value in over.items(section):
                cp.set(section, key, value)
    path = tmp_path / name
    with open(path, "w") as fh:
        cp.write(fh)
    return str(path)


@pytest.fixture
def workspace(tmp_path):
    """tmp dir with a config and generated corpora."""
    config = write_config(tmp_path)
    assert main(["gen-data", "--config", config]) == 0
    return tmp_path, config


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 1
    assert "usage error" in capsys.readouterr().err


def test_python_m_ldekit_help():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-m", "ldekit", "--help"], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("usage: ldekit")


def test_unknown_subcommand_is_usage_error():
    assert main(["frobnicate"]) == 1


def test_missing_config_file(tmp_path, capsys):
    assert main(["gen-data", "--config", str(tmp_path / "nope.ini")]) == 1
    assert "config error" in capsys.readouterr().err


def test_config_not_utf8_is_config_error(tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_bytes(b"[train]\nepochs = 2\n# caf\xe9\n")
    assert main(["gen-data", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read config {config}: ")


def test_bad_config_key(tmp_path, capsys):
    config = write_config(tmp_path, extra="[train]\nturbo = on\n")
    assert main(["gen-data", "--config", config]) == 1
    assert "turbo" in capsys.readouterr().err


@pytest.mark.parametrize("setting", ["smooth_window = -1",
                                     "smooth_window = 0", "batch_size = 0"])
def test_train_non_positive_size_is_config_error(workspace, capsys, setting):
    tmp_path, _ = workspace
    config = write_config(tmp_path, extra=f"[train]\n{setting}\n",
                          name="bad.ini")
    assert main(["train", "--config", config]) == 1
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "runs" / "model.ckpt").exists()


@pytest.mark.parametrize("section, key, value", [
    ("data", "noise_std", "nan"), ("data", "noise_std", "0"),
    ("data", "separation", "inf"),
    ("data", "seed", "-1"), ("train", "seed", "-1"), ("gmm", "seed", "-1"),
    ("train", "epochs", "0"), ("train", "crop_max", "10"),
    ("data", "feature_dim", "0"), ("data", "train_utterances", "-5"),
    ("data", "test_utterances", "-1"), ("train", "crop_min", "1")])
def test_gen_data_bad_setting_is_config_error(tmp_path, capsys, section, key,
                                              value):
    """A bad value in any section fails at parse time, before any corpus
    is written, and the error names its key."""
    config = write_config(tmp_path, extra=f"[{section}]\n{key} = {value}\n")
    assert main(["gen-data", "--config", config]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("extra", [
    "[frontend]\nkernel = 2\n",
    "[frontend]\nactivation = foo\n",
    "[frontend]\nstages = 0:1:down\n",
    "[frontend]\nstages = 32:1:down,16:1:down\n",
    "[encoder]\nmodel = lde\nsmoothing = shared_beta\nbeta = 0\n",
], ids=["even-kernel", "activation", "zero-channels", "shrinking-stages",
        "lde-zero-beta"])
def test_gen_data_bad_model_setting_is_config_error(tmp_path, capsys, extra):
    """[frontend] and [encoder] values are checked when the config is
    parsed, before any corpus is written."""
    config = write_config(tmp_path, extra=extra)
    assert main(["gen-data", "--config", config]) == 1
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("command", ["train", "eval", "gmm"])
def test_one_class_corpus_is_data_error(tmp_path, capsys, command):
    """A corpus header with fewer than 2 classes is rejected where the
    corpus is read, naming the file, and nothing is written."""
    corpus = tmp_path / "one.bin"
    write_corpus(corpus, [Utterance(f"u{i}", 0, Rng(i).normal((6, 40)))
                          for i in range(4)], num_classes=1, feature_dim=6)
    if command == "eval":
        ckpt = tmp_path / "model.ckpt"
        save_model(ckpt, Model(ModelConfig(in_dim=6, num_classes=3), Rng(0)),
                   epoch=1)
        args = ["eval", "--checkpoint", str(ckpt), "--corpus", str(corpus),
                "--scores", str(tmp_path / "runs" / "scores.txt")]
    else:
        args = [command, "--config", write_config(
            tmp_path, extra=f"[paths]\ntrain_corpus = {corpus}\n"
                            f"test_corpus = {corpus}\n")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(corpus) in err
    assert list(tmp_path.glob("runs/*")) == []


@pytest.mark.parametrize("exc_type, code, prefix", [
    (UsageError, 1, "usage error"),
    (ConfigError, 1, "config error"),
    (CorpusFormatError, 2, "data error"),
    (CheckpointError, 2, "data error"),
    (ScoresFormatError, 2, "data error"),
    (AlignmentError, 2, "data error"),
    (DimensionError, 2, "data error"),
    (ValueError, 2, "data error"),
    (FileNotFoundError, 2, "data error"),
    (IsADirectoryError, 2, "data error"),
    (NumericalError, 3, "numerical failure"),
])
def test_exit_code_contract(monkeypatch, capsys, exc_type, code, prefix):
    """Each handled exception maps to its documented exit code and stderr
    prefix: 1 usage/config, 2 data, 3 numerical."""
    def failing(args):
        raise exc_type("boom")
    monkeypatch.setattr(cli, "cmd_train", failing)
    assert main(["train", "--config", "any.ini"]) == code
    assert capsys.readouterr().err == f"{prefix}: boom\n"


class ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone: every write raises."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


@pytest.mark.parametrize("command, outputs", [
    ("gen-data", ["data/train.bin", "data/test.bin"]),
    ("gmm", ["runs/gmm.ckpt", "runs/gmm_scores.txt"]),
])
def test_closed_stdout_ends_the_report_not_the_run(workspace, capsys,
                                                   command, outputs):
    tmp_path, config = workspace
    assert main([command, "--config", config, "--force"]) == 0
    normal = {name: (tmp_path / name).read_bytes() for name in outputs}
    closed = io.StringIO()
    closed.close()
    for stdout in (ClosedPipe(), closed):  # a pipe, and a closed stream
        for name in outputs:
            (tmp_path / name).unlink()
        capsys.readouterr()
        with contextlib.redirect_stdout(stdout):
            assert main([command, "--config", config]) == 0
            sys.stdout.close()  # the devnull stream main switched to
        assert capsys.readouterr().err == ""
        assert {name: (tmp_path / name).read_bytes()
                for name in outputs} == normal


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_pipe_exits_cleanly(workspace, unbuffered):
    """A real pipe closed at its read end: buffered, the report meets it
    only when stdout is flushed, which must not happen at exit."""
    tmp_path, config = workspace
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": unbuffered}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = subprocess.run([sys.executable, "-m", "ldekit", "gen-data",
                              "--config", config, "--force"], env=env,
                             stdout=write_end, stderr=subprocess.PIPE,
                             text=True, timeout=60)
    finally:
        os.close(write_end)
    assert (out.returncode, out.stderr) == (0, "")


@pytest.mark.parametrize("under", ["afile/model.ckpt", "afile/sub/model.ckpt"])
def test_output_below_a_regular_file_is_usage_error(workspace, capsys, under):
    tmp_path, _ = workspace
    (tmp_path / "afile").write_text("not a directory\n")
    target = tmp_path / under
    config = write_config(tmp_path, extra=f"[paths]\ncheckpoint = {target}\n",
                          name="blocked.ini")
    assert main(["train", "--config", config]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and str(target) in err


@pytest.mark.parametrize("command, first, second", [
    ("gen-data", "train_corpus", "test_corpus"),
    ("train", "checkpoint", "loss_log"),
    ("gmm", "gmm_checkpoint", "gmm_scores")])
def test_two_outputs_on_one_file_is_usage_error(workspace, capsys, command,
                                                first, second):
    """Two outputs that resolve to one file are refused, even with
    --force, before any directory is made or any work is done."""
    tmp_path, _ = workspace
    clash = tmp_path / "clash"
    config = write_config(tmp_path, extra=f"[paths]\n{first} = {clash}/out\n"
                          f"{second} = {clash}/../clash/out\n",
                          name="clash.ini")
    assert main([command, "--config", config, "--force"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "must be distinct" in err
    assert not clash.exists()


def test_eval_scores_on_a_det_file_is_usage_error(workspace, capsys):
    tmp_path, _ = trained(workspace)
    runs = tmp_path / "runs"
    code = main(["eval", "--checkpoint", str(runs / "model.ckpt"),
                 "--corpus", str(tmp_path / "data" / "test.bin"),
                 "--scores", str(runs / "r.L0.txt"), "--det", str(runs / "r")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "must be distinct" in err
    assert not list(runs.glob("r.*"))


def test_gen_data_writes_corpora(workspace):
    tmp_path, config = workspace
    train, k, d = read_corpus(tmp_path / "data" / "train.bin")
    test, k2, d2 = read_corpus(tmp_path / "data" / "test.bin")
    assert (k, d) == (3, 6) and (k2, d2) == (3, 6)
    assert len(train) == 24 and len(test) == 12
    assert all(duration_bucket(u.id) for u in test)


def test_gen_data_refuses_overwrite(workspace, capsys):
    tmp_path, config = workspace
    assert main(["gen-data", "--config", config]) == 1
    assert "--force" in capsys.readouterr().err


def test_gen_data_force_is_byte_identical(workspace):
    tmp_path, config = workspace
    path = tmp_path / "data" / "train.bin"
    before = path.read_bytes()
    assert main(["gen-data", "--config", config, "--force"]) == 0
    assert path.read_bytes() == before


def test_gen_data_out_dir_created(tmp_path):
    out = tmp_path / "fresh" / "corpora"
    config = write_config(tmp_path, extra=f"[paths]\n"
                          f"train_corpus = {out}/train.bin\n"
                          f"test_corpus = {out}/test.bin\n")
    assert main(["gen-data", "--config", config]) == 0
    utts, _, _ = read_corpus(out / "train.bin")
    assert len(utts) == 24


def test_train_writes_checkpoint_and_log(workspace):
    tmp_path, config = workspace
    assert main(["train", "--config", config]) == 0
    model, meta = load_model(tmp_path / "runs" / "model.ckpt")
    assert model.cfg.num_classes == 3
    assert model.cfg.frontend.stages[0].channels == 8
    assert meta["run_config"]["encoder"]["model"] == "tap"
    assert meta["epoch"] == 2
    lines = (tmp_path / "runs" / "loss.log").read_text().splitlines()
    assert len(lines) == 6  # 24 utts / batch 8 = 3 steps x 2 epochs
    for line in lines:
        step, loss, smoothed = line.split("\t")
        assert np.isfinite(float(loss)) and np.isfinite(float(smoothed))


def test_train_missing_corpus(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["train", "--config", config]) == 2
    assert "not found" in capsys.readouterr().err


def test_train_refuses_overwrite(workspace):
    tmp_path, config = workspace
    assert main(["train", "--config", config]) == 0
    assert main(["train", "--config", config]) == 1


def test_train_rerun_is_byte_identical(workspace):
    tmp_path, config = workspace
    assert main(["train", "--config", config]) == 0
    ckpt = tmp_path / "runs" / "model.ckpt"
    log = tmp_path / "runs" / "loss.log"
    ckpt_bytes, log_bytes = ckpt.read_bytes(), log.read_bytes()
    assert main(["train", "--config", config, "--force"]) == 0
    assert ckpt.read_bytes() == ckpt_bytes
    assert log.read_bytes() == log_bytes


def test_train_zero_lr_keeps_init(workspace):
    tmp_path, config2 = workspace
    config = write_config(tmp_path, extra="[train]\nlr0 = 0\n",
                          name="zero.ini")
    assert main(["train", "--config", config, "--force"]) == 0
    model, _ = load_model(tmp_path / "runs" / "model.ckpt")

    from ldekit.cli import model_config
    from ldekit.config import load_config
    rc = load_config(config)
    utts, k, d = read_corpus(tmp_path / "data" / "train.bin")
    init = Model(model_config(rc, k, d), Rng(rc.train.seed).split(0))
    for p, q in zip(init.params(), model.params()):
        assert p.name == q.name
        assert np.array_equal(p.value, q.value)


def test_tap_matches_frozen_lde_through_cli(workspace):
    tmp_path, tap_config = workspace
    lde_extra = """
[encoder]
model = lde
components = 1
aggregation = mean
length_normalize = false
freeze_dictionary = true
zero_dictionary = true

[paths]
checkpoint = {root}/runs/lde.ckpt
loss_log = {root}/runs/lde_loss.log
""".format(root=tmp_path)
    lde_config = write_config(tmp_path, extra=lde_extra, name="lde.ini")
    assert main(["train", "--config", tap_config]) == 0
    assert main(["train", "--config", lde_config]) == 0
    tap_log = (tmp_path / "runs" / "loss.log").read_text().splitlines()
    lde_log = (tmp_path / "runs" / "lde_loss.log").read_text().splitlines()
    assert len(tap_log) == len(lde_log)
    for a, b in zip(tap_log, lde_log):
        assert abs(float(a.split("\t")[1]) - float(b.split("\t")[1])) <= 1e-10


def trained(workspace):
    tmp_path, config = workspace
    assert main(["train", "--config", config]) == 0
    return tmp_path, config


def test_eval_writes_scores_and_buckets(workspace, capsys):
    tmp_path, config = trained(workspace)
    ckpt = str(tmp_path / "runs" / "model.ckpt")
    corpus = str(tmp_path / "data" / "test.bin")
    scores = str(tmp_path / "runs" / "scores.txt")
    assert main(["eval", "--checkpoint", ckpt, "--corpus", corpus,
                 "--scores", scores]) == 0
    out = capsys.readouterr().out
    assert "[all]" in out
    assert "eer_avg" in out and "cavg" in out
    # every test utterance is bucketed, so a breakdown must appear
    assert "[short]" in out or "[medium]" in out or "[long]" in out

    trials = read_scores(scores)
    utts, _, _ = read_corpus(corpus)
    assert [t.id for t in trials.trials] == [u.id for u in utts]
    assert [int(t.label) for t in trials.trials] == [u.label for u in utts]


def test_scored_set_without_every_class_reports_and_succeeds(tmp_path,
                                                             capsys):
    """Two test utterances of three classes: `eval` and `gmm` write their
    scores, skip the metrics line and exit 0, since no class's EER can be
    computed without both target and non-target trials."""
    config = write_config(tmp_path, extra="[data]\ntest_utterances = 2\n")
    assert main(["gen-data", "--config", config]) == 0
    assert main(["train", "--config", config]) == 0
    scores = tmp_path / "runs" / "scores.txt"
    assert main(["eval", "--checkpoint", str(tmp_path / "runs" / "model.ckpt"),
                 "--corpus", str(tmp_path / "data" / "test.bin"),
                 "--scores", str(scores)]) == 0
    eval_out = capsys.readouterr().out
    assert main(["gmm", "--config", config]) == 0
    gmm_out = capsys.readouterr().out
    skipped = "[all] trials=2 (skipped: not every class present)"
    assert skipped in eval_out and skipped in gmm_out
    assert "eer_avg" not in eval_out + gmm_out
    # each report is one `_report` call: the [all] line, then the buckets
    for out, path in ((eval_out, scores),
                      (gmm_out, tmp_path / "runs" / "gmm_scores.txt")):
        trials = read_scores(path)
        assert len(trials.trials) == 2
        _report("all", trials)
        report = capsys.readouterr().out
        assert out.endswith(report) and report.startswith(skipped)


def test_eval_det_skips_a_class_without_both_kinds_of_trial(tmp_path,
                                                           capsys):
    """Two test utterances of four classes: only the classes scored give
    detection points, each skipped class gets a line naming it, and the
    command succeeds."""
    config = write_config(tmp_path, extra="[data]\nnum_classes = 4\n"
                                          "test_utterances = 2\n")
    assert main(["gen-data", "--config", config]) == 0
    assert main(["train", "--config", config]) == 0
    test = tmp_path / "data" / "test.bin"
    present = {u.label for u in read_corpus(test)[0]}
    assert len(present) == 2
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(tmp_path / "runs" / "model.ckpt"),
                 "--corpus", str(test),
                 "--scores", str(tmp_path / "runs" / "scores.txt"),
                 "--det", str(tmp_path / "runs" / "det")]) == 0
    out = capsys.readouterr().out
    for k in range(4):
        det = tmp_path / "runs" / f"det.L{k}.txt"
        line = f"det L{k}: skipped (needs target and non-target trials)\n"
        assert det.exists() == (k in present)
        assert (line in out) == (k not in present)


@pytest.mark.parametrize("command", ["eval", "gmm"])
def test_empty_test_corpus_is_data_error(tmp_path, capsys, command):
    """A test corpus of no utterances would give a scores file that
    `read_scores` rejects: refused, naming the file, with nothing
    written."""
    config = write_config(tmp_path, extra="[data]\ntest_utterances = 0\n")
    assert main(["gen-data", "--config", config]) == 0
    test = tmp_path / "data" / "test.bin"
    if command == "eval":
        assert main(["train", "--config", config]) == 0
        written = set(tmp_path.glob("runs/*"))
        args = ["eval", "--checkpoint", str(tmp_path / "runs" / "model.ckpt"),
                "--corpus", str(test), "--det", str(tmp_path / "runs" / "det"),
                "--scores", str(tmp_path / "runs" / "scores.txt")]
    else:
        written = set()
        args = ["gmm", "--config", config]
    capsys.readouterr()
    assert main(args) == 2
    assert capsys.readouterr().err == (f"data error: {test}: no utterances "
                                       f"to score\n")
    assert set(tmp_path.glob("runs/*")) == written


def test_bucket_breakdown_reads_the_tag_after_the_last_separator(capsys):
    trials = TrialSet(["L0", "L1"], [
        TrialScore(f"u{i}#x#short", i % 2, [float(i % 2), 0.5])
        for i in range(4)])
    _report("all", trials)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[0].startswith("[all] trials=4 ")
    assert lines[1] == lines[0].replace("[all]", "[short]")



def test_eval_rerun_is_byte_identical(workspace):
    tmp_path, config = trained(workspace)
    ckpt = str(tmp_path / "runs" / "model.ckpt")
    corpus = str(tmp_path / "data" / "test.bin")
    scores = tmp_path / "runs" / "scores.txt"
    args = ["eval", "--checkpoint", ckpt, "--corpus", corpus,
            "--scores", str(scores)]
    assert main(args) == 0
    before = scores.read_bytes()
    assert main(args + ["--force"]) == 0
    assert scores.read_bytes() == before


def test_eval_det_dump(workspace):
    tmp_path, config = trained(workspace)
    det = tmp_path / "runs" / "det"
    assert main(["eval",
                 "--checkpoint", str(tmp_path / "runs" / "model.ckpt"),
                 "--corpus", str(tmp_path / "data" / "test.bin"),
                 "--scores", str(tmp_path / "runs" / "scores.txt"),
                 "--det", str(det), "--force"]) == 0
    for name in ("L0", "L1", "L2"):
        lines = (tmp_path / "runs" / f"det.{name}.txt").read_text().splitlines()
        assert len(lines) >= 2
        first = lines[0].split("\t")
        assert float(first[1]) == 0.0 and float(first[2]) == 1.0


def test_eval_det_refusal_writes_nothing(workspace, capsys):
    tmp_path, config = trained(workspace)
    (tmp_path / "runs" / "det.L1.txt").write_text("keep\n")
    scores = tmp_path / "runs" / "fresh_scores.txt"
    code = main(["eval",
                 "--checkpoint", str(tmp_path / "runs" / "model.ckpt"),
                 "--corpus", str(tmp_path / "data" / "test.bin"),
                 "--scores", str(scores),
                 "--det", str(tmp_path / "runs" / "det")])
    assert code == 1
    assert "det.L1.txt" in capsys.readouterr().err
    assert not scores.exists()
    assert not (tmp_path / "runs" / "det.L0.txt").exists()
    assert (tmp_path / "runs" / "det.L1.txt").read_text() == "keep\n"


def test_eval_corrupted_checkpoint(workspace, capsys):
    tmp_path, config = trained(workspace)
    ckpt = tmp_path / "runs" / "model.ckpt"
    blob = bytearray(ckpt.read_bytes())
    blob[:4] = b"XXXX"
    bad = tmp_path / "runs" / "bad.ckpt"
    bad.write_bytes(bytes(blob))
    code = main(["eval", "--checkpoint", str(bad),
                 "--corpus", str(tmp_path / "data" / "test.bin"),
                 "--scores", str(tmp_path / "runs" / "s2.txt")])
    assert code == 2
    assert "data error" in capsys.readouterr().err


def test_eval_dimension_mismatch(workspace, capsys):
    tmp_path, config = trained(workspace)
    out = tmp_path / "narrow"
    other = write_config(tmp_path, extra=f"[data]\nfeature_dim = 5\n"
                         f"[paths]\ntrain_corpus = {out}/train.bin\n"
                         f"test_corpus = {out}/test.bin\n",
                         name="narrow.ini")
    assert main(["gen-data", "--config", other]) == 0
    code = main(["eval", "--checkpoint", str(tmp_path / "runs" / "model.ckpt"),
                 "--corpus", str(out / "test.bin"),
                 "--scores", str(tmp_path / "runs" / "s3.txt")])
    assert code == 2
    assert "dim" in capsys.readouterr().err


def test_eval_too_short_utterance(workspace, capsys):
    # the front-end downsamples once, so it needs at least 2 frames
    tmp_path, config = trained(workspace)
    corpus = tmp_path / "short.bin"
    write_corpus(corpus, [Utterance("u0", 0, Rng(0).normal((6, 40))),
                          Utterance("u1", 1, Rng(1).normal((6, 1)))], 3, 6)
    scores = tmp_path / "runs" / "s4.txt"
    code = main(["eval", "--checkpoint", str(tmp_path / "runs" / "model.ckpt"),
                 "--corpus", str(corpus), "--scores", str(scores)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "minimum 2" in err
    assert not scores.exists()


def test_eval_refuses_overwrite(workspace):
    tmp_path, config = trained(workspace)
    args = ["eval", "--checkpoint", str(tmp_path / "runs" / "model.ckpt"),
            "--corpus", str(tmp_path / "data" / "test.bin"),
            "--scores", str(tmp_path / "runs" / "scores.txt")]
    assert main(args) == 0
    assert main(args) == 1


def eval_scores(tmp_path, corpus: str, out_name: str) -> str:
    path = tmp_path / "runs" / out_name
    assert main(["eval",
                 "--checkpoint", str(tmp_path / "runs" / "model.ckpt"),
                 "--corpus", corpus, "--scores", str(path), "--force"]) == 0
    return str(path)


def test_fuse_end_to_end(workspace, capsys):
    tmp_path, config = trained(workspace)
    train_corpus = str(tmp_path / "data" / "train.bin")
    test_corpus = str(tmp_path / "data" / "test.bin")
    a_train = eval_scores(tmp_path, train_corpus, "a_train.txt")
    a_test = eval_scores(tmp_path, test_corpus, "a_test.txt")
    fused = tmp_path / "runs" / "fused.txt"
    # fusing one system with itself: a smoke test of the full plumbing
    assert main(["fuse", "--train-scores", a_train, a_train,
                 "--scores", a_test, a_test, "--out", str(fused),
                 "--iterations", "50"]) == 0
    out = capsys.readouterr().out
    assert "fusion weights" in out and "[fused]" in out
    trials = read_scores(fused)
    assert len(trials.trials) == 12


def test_fuse_count_mismatch(workspace, capsys):
    tmp_path, config = trained(workspace)
    a = eval_scores(tmp_path, str(tmp_path / "data" / "test.bin"), "a.txt")
    assert main(["fuse", "--train-scores", a,
                 "--scores", a, a, "--out",
                 str(tmp_path / "runs" / "f.txt")]) == 1
    assert "one eval scores file per" in capsys.readouterr().err


def test_fuse_negative_iterations_is_usage_error(workspace, capsys):
    tmp_path, config = trained(workspace)
    a = eval_scores(tmp_path, str(tmp_path / "data" / "test.bin"), "a.txt")
    fused = tmp_path / "runs" / "f.txt"
    assert main(["fuse", "--train-scores", a, "--scores", a,
                 "--out", str(fused), "--iterations", "-3"]) == 1
    assert "--iterations must be >= 0" in capsys.readouterr().err
    assert not fused.exists()


def test_fuse_id_mismatch(workspace, capsys):
    tmp_path, config = trained(workspace)
    a = eval_scores(tmp_path, str(tmp_path / "data" / "test.bin"), "a.txt")
    text = (tmp_path / "runs" / "a.txt").read_text()
    renamed = tmp_path / "runs" / "b.txt"
    renamed.write_text(text.replace("te", "xx"))
    code = main(["fuse", "--train-scores", a, str(renamed),
                 "--scores", a, str(renamed),
                 "--out", str(tmp_path / "runs" / "f.txt")])
    assert code == 2
    assert "data error" in capsys.readouterr().err


def test_gmm_end_to_end(workspace, capsys):
    tmp_path, config = workspace
    assert main(["gmm", "--config", config]) == 0
    out = capsys.readouterr().out
    assert "[all]" in out
    models, meta = load_gmm_bank(tmp_path / "runs" / "gmm.ckpt")
    assert len(models) == 3
    assert all(m.weights.size == 2 for m in models)
    assert meta["run_config"]["gmm"]["components"] == 2
    trials = read_scores(tmp_path / "runs" / "gmm_scores.txt")
    assert len(trials.trials) == 12


def test_gmm_prints_per_frame_log_likelihood(workspace, capsys):
    tmp_path, config = workspace
    assert main(["gmm", "--config", config]) == 0
    printed = [float(line.rsplit(" ", 1)[1])
               for line in capsys.readouterr().out.splitlines()
               if "final avg ll" in line]
    train, num_classes, _ = read_corpus(tmp_path / "data" / "train.bin")
    _, histories, counts = fit_gmm_bank(train, num_classes,
                                        load_config(config).gmm)
    expected = [h[-1] / n for h, n in zip(histories, counts)]
    assert len(printed) == num_classes
    assert np.allclose(printed, expected, rtol=0, atol=1e-5)


def test_gmm_rerun_is_byte_identical(workspace):
    tmp_path, config = workspace
    assert main(["gmm", "--config", config]) == 0
    scores = tmp_path / "runs" / "gmm_scores.txt"
    bank = tmp_path / "runs" / "gmm.ckpt"
    s_bytes, b_bytes = scores.read_bytes(), bank.read_bytes()
    assert main(["gmm", "--config", config, "--force"]) == 0
    assert scores.read_bytes() == s_bytes
    assert bank.read_bytes() == b_bytes


def test_gmm_with_delta_features(tmp_path):
    config = write_config(tmp_path, extra="""
[data]
feature_dim = 8

[gmm]
use_sdc = true
sdc_blocks = 2
""", name="sdc.ini")
    assert main(["gen-data", "--config", config]) == 0
    assert main(["gmm", "--config", config]) == 0


def test_gmm_truncated_corpus_header(workspace, capsys):
    tmp_path, config = workspace
    corpus = tmp_path / "data" / "train.bin"
    corpus.write_bytes(corpus.read_bytes()[:6])
    code = main(["gmm", "--config", config])
    assert code == 2
    assert "data error" in capsys.readouterr().err


def test_gmm_sdc_too_short(workspace, capsys):
    tmp_path, config = workspace
    bad = write_config(tmp_path, extra="""
[gmm]
use_sdc = true
sdc_coeffs = 6
sdc_shift = 30
""", name="bad_sdc.ini")
    # span 2*1 + 6*30 + 1 frames exceeds the shortest train utterances
    code = main(["gmm", "--config", bad, "--force"])
    assert code == 2
    assert "data error" in capsys.readouterr().err
    assert not (tmp_path / "runs" / "gmm.ckpt").exists()
    assert not (tmp_path / "runs" / "gmm_scores.txt").exists()


def test_gmm_bank_holds_one_class_of_features_at_a_time():
    import tracemalloc
    train, _ = generate_corpus(SyntheticSpec(
        num_classes=4, feature_dim=8, min_len=100, max_len=300,
        train_utterances=48, test_utterances=4, seed=2))
    all_classes = sum(sdc(u.features).nbytes for u in train)
    frames = sum(u.num_frames for u in train)
    # thin each class to about half its frames, so the thinned copy is used
    g = GmmSettings(components=2, iterations=2,
                    max_frames_per_class=frames // 8)
    tracemalloc.start()
    try:
        fit_gmm_bank(train, 4, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < all_classes


def test_gmm_bank_peak_stays_below_one_class_of_unthinned_features():
    import tracemalloc
    train, _ = generate_corpus(SyntheticSpec(
        num_classes=4, feature_dim=8, min_len=100, max_len=300,
        train_utterances=48, test_utterances=4, seed=2))
    largest = max(sum(sdc(u.features).nbytes for u in train if u.label == k)
                  for k in range(4))
    frames = sum(u.num_frames for u in train)
    # thin each class to about a quarter of its frames: the fit itself holds
    # the kept frames and their squares, so at half of them those two alone
    # would already match the un-thinned class
    g = GmmSettings(components=2, iterations=2,
                    max_frames_per_class=frames // 16)
    tracemalloc.start()
    try:
        fit_gmm_bank(train, 4, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < largest


@pytest.mark.parametrize("thinning", [8, 16])
def test_em_fit_peak_stays_below_twice_its_pool(thinning):
    import tracemalloc
    train, _ = generate_corpus(SyntheticSpec(
        num_classes=4, feature_dim=8, min_len=100, max_len=300,
        train_utterances=48, test_utterances=4, seed=2))
    frames = sum(u.num_frames for u in train)
    # each class thinned to about a half and about a quarter of its frames
    g = GmmSettings(components=2, iterations=2,
                    max_frames_per_class=frames // thinning)
    for k in range(4):
        pool = cli._pooled_class_frames([u for u in train if u.label == k], g)
        tracemalloc.start()
        try:
            em_fit(pool, g.components, g.iterations, Rng(k))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * pool.nbytes


def concatenate_then_stride_bank(utts, num_classes, g):
    """The bank as `fit_gmm_bank` fit it when it concatenated each class's
    features and then kept every stride-th row of the copy; also returns
    each class's stride and the class-wide index of each utterance's
    first frame."""
    rng = Rng(g.seed)
    models, histories, counts, strides, starts = [], [], [], [], []
    for k in range(num_classes):
        pooled = [(sdc(u.features, g.sdc_coeffs, g.sdc_delta, g.sdc_shift,
                       g.sdc_blocks, g.sdc_static) if g.use_sdc
                   else u.features).T for u in utts if u.label == k]
        starts.append(np.cumsum([0] + [len(p) for p in pooled[:-1]]))
        frames = np.concatenate(pooled, axis=0)
        stride = 1
        if 0 < g.max_frames_per_class < frames.shape[0]:
            stride = -(-frames.shape[0] // g.max_frames_per_class)
            frames = frames[::stride].copy()
        model, history = em_fit(frames, g.components, g.iterations,
                                rng.split(k))
        models.append(model)
        histories.append(history)
        counts.append(frames.shape[0])
        strides.append(stride)
    return (models, histories, counts), strides, starts


@pytest.mark.parametrize("use_sdc", [True, False])
@pytest.mark.parametrize("thinning", [0, 3, 7])
def test_gmm_bank_equals_concatenate_then_stride(use_sdc, thinning):
    train, _ = generate_corpus(SyntheticSpec(
        num_classes=3, feature_dim=8, min_len=40, max_len=130,
        train_utterances=30, test_utterances=3, seed=9))
    per_class = min(sum(u.num_frames for u in train if u.label == k)
                    for k in range(3))
    g = GmmSettings(components=3, iterations=4, seed=6, use_sdc=use_sdc,
                    sdc_blocks=3,
                    max_frames_per_class=per_class // thinning if thinning
                    else 0)
    want, strides, starts = concatenate_then_stride_bank(train, 3, g)
    if thinning:
        assert min(strides) > 1
        # some utterance starts between two kept rows of its class
        assert any(np.any(s % stride) for s, stride in zip(starts, strides))
    else:
        assert strides == [1, 1, 1]
    models, histories, counts = fit_gmm_bank(train, 3, g)
    assert counts == want[2]
    assert histories == want[1]
    for got, expect in zip(models, want[0]):
        for part in ("weights", "means", "variances"):
            assert np.array_equal(getattr(got, part), getattr(expect, part))


def test_gmm_bank_from_a_corpus_file_equals_the_list_form(tmp_path):
    train, _ = generate_corpus(SyntheticSpec(
        num_classes=3, feature_dim=8, min_len=40, max_len=130,
        train_utterances=30, test_utterances=0, seed=9))
    path = tmp_path / "train.bin"
    write_corpus(path, train, 3, 8)
    g = GmmSettings(components=3, iterations=4, seed=6, sdc_blocks=3,
                    max_frames_per_class=400)
    want = fit_gmm_bank(train, 3, g)
    for source in (path, str(path)):
        with CorpusFile(source) as corpus:
            models, histories, counts = fit_gmm_bank(corpus.utterances, 3, g)
        assert (histories, counts) == want[1:]
        for got, expect in zip(models, want[0]):
            for part in ("weights", "means", "variances"):
                assert np.array_equal(getattr(got, part),
                                      getattr(expect, part))


def write_test_corpus(tmp_path, num_classes=3, dim=6, length=40):
    utts = [Utterance(f"te{i}", i % 3, Rng(i).normal((dim, length)))
            for i in range(6)]
    write_corpus(tmp_path / "data" / "test.bin", utts, num_classes, dim)


def test_gmm_header_mismatch_stops_before_the_fit(workspace, capsys,
                                                  monkeypatch):
    tmp_path, config = workspace
    write_test_corpus(tmp_path, num_classes=4)
    fits = []
    monkeypatch.setattr(cli, "em_fit",
                        lambda *a, **kw: fits.append(a) or em_fit(*a, **kw))
    assert main(["gmm", "--config", config]) == 2
    out, err = capsys.readouterr()
    assert "does not match the train corpus" in err
    assert fits == [] and out == ""


@pytest.mark.parametrize("damage", ["classes", "dim", "truncated",
                                    "too short"])
def test_gmm_bad_test_corpus_writes_nothing(workspace, capsys, damage):
    tmp_path, config = workspace
    path = tmp_path / "data" / "test.bin"
    named = str(path)
    if damage == "classes":
        write_test_corpus(tmp_path, num_classes=4)
    elif damage == "dim":
        write_test_corpus(tmp_path, dim=5)
    elif damage == "truncated":
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - 100])
    else:
        # SDC 6-1-3-7 needs 21 frames: every train utterance has 30 or more
        config = write_config(tmp_path, extra="[gmm]\nuse_sdc = true\n"
                              "sdc_coeffs = 6\n", name="sdc.ini")
        write_test_corpus(tmp_path, length=15)
        named = "utterance te0"
    code = main(["gmm", "--config", config])
    err = capsys.readouterr().err
    assert code == 2
    assert "data error" in err and named in err
    assert not (tmp_path / "runs" / "gmm.ckpt").exists()
    assert not (tmp_path / "runs" / "gmm_scores.txt").exists()


MEMORY_CORPUS = """[data]
num_classes = 4
feature_dim = 20
min_len = 600
max_len = 800
train_utterances = 64
test_utterances = 8
bucketed_test = false
"""


def test_gen_data_holds_one_utterance_at_a_time(tmp_path):
    import tracemalloc
    config = write_config(tmp_path, extra=MEMORY_CORPUS)
    # a first run pays the process's one-off set-up, which is not measured
    assert main(["gen-data", "--config", config]) == 0
    tracemalloc.start()
    try:
        assert main(["gen-data", "--config", config, "--force"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    path = tmp_path / "data" / "train.bin"
    train, _, _ = read_corpus(path)
    head_bytes = path.stat().st_size - sum(u.features.nbytes for u in train)
    longest = 8 * 20 * 800
    # the train split's frames alone are 64 utterances of 600-800 frames
    assert peak < 8 * longest + 2 * head_bytes


def test_gmm_holds_less_than_the_train_corpus(tmp_path):
    import tracemalloc
    config = write_config(tmp_path, extra=MEMORY_CORPUS
                          + "[gmm]\nuse_sdc = true\nmax_frames_per_class = "
                            "3000\n")
    assert main(["gen-data", "--config", config]) == 0
    train, _, _ = read_corpus(tmp_path / "data" / "train.bin")
    corpus_bytes = sum(u.features.nbytes for u in train)
    del train
    tracemalloc.start()
    try:
        assert main(["gmm", "--config", config]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < corpus_bytes


def test_train_holds_less_than_the_train_corpus(tmp_path):
    import tracemalloc
    config = write_config(tmp_path, extra=MEMORY_CORPUS)
    assert main(["gen-data", "--config", config]) == 0
    train, _, _ = read_corpus(tmp_path / "data" / "train.bin")
    corpus_bytes = sum(u.features.nbytes for u in train)
    del train
    # a first run pays the process's one-off set-up, which is not measured
    assert main(["train", "--config", config]) == 0
    tracemalloc.start()
    try:
        assert main(["train", "--config", config, "--force"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < corpus_bytes


def test_eval_holds_less_than_the_test_corpus(tmp_path):
    import tracemalloc
    config = write_config(tmp_path, extra=MEMORY_CORPUS.replace(
        "test_utterances = 8", "test_utterances = 64"))
    assert main(["gen-data", "--config", config]) == 0
    assert main(["train", "--config", config]) == 0
    corpus = tmp_path / "data" / "test.bin"
    test, _, _ = read_corpus(corpus)
    corpus_bytes = sum(u.features.nbytes for u in test)
    del test
    args = ["eval", "--checkpoint", str(tmp_path / "runs" / "model.ckpt"),
            "--corpus", str(corpus),
            "--scores", str(tmp_path / "runs" / "scores.txt"), "--force"]
    assert main(args) == 0
    tracemalloc.start()
    try:
        assert main(args) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < corpus_bytes


@pytest.mark.parametrize("model", ["tap", "lde"])
@pytest.mark.parametrize("crops", ["median", "range"])
def test_train_from_the_file_equals_train_from_config_on_the_list(
        workspace, model, crops):
    """`ldekit train` batches from the corpus file; `train_from_config` on
    the read list must give the same bytes. The median length as the one
    crop length makes crops longer than, equal to and shorter than some
    utterances in every epoch; the range mixes all three per batch."""
    tmp_path, _ = workspace
    utts, k, d = read_corpus(tmp_path / "data" / "train.bin")
    lengths = sorted(u.num_frames for u in utts)
    crop = lengths[len(lengths) // 2]
    assert lengths[0] < crop < lengths[-1]
    low, high = (crop, crop) if crops == "median" else (16, lengths[-1] + 10)
    config = write_config(tmp_path, extra=f"[encoder]\nmodel = {model}\n"
                          f"components = 2\n[train]\ncrop_min = {low}\n"
                          f"crop_max = {high}\n", name="crops.ini")
    assert main(["train", "--config", config]) == 0
    rc = load_config(config)
    listed, _ = train_from_config(rc, utts, k, d,
                                  log_path=tmp_path / "list_loss.log")
    save_model(tmp_path / "list.ckpt", listed, epoch=rc.train.epochs,
               extra_meta={"run_config": asdict(rc)})
    runs = tmp_path / "runs"
    assert ((runs / "loss.log").read_bytes()
            == (tmp_path / "list_loss.log").read_bytes())
    assert ((runs / "model.ckpt").read_bytes()
            == (tmp_path / "list.ckpt").read_bytes())


def test_eval_from_the_file_equals_score_corpus_on_the_list(workspace):
    tmp_path, _ = trained(workspace)
    ckpt = tmp_path / "runs" / "model.ckpt"
    corpus = tmp_path / "data" / "test.bin"
    scores = tmp_path / "runs" / "scores.txt"
    assert main(["eval", "--checkpoint", str(ckpt), "--corpus", str(corpus),
                 "--scores", str(scores)]) == 0
    model, _ = load_model(ckpt)
    utts, k, _ = read_corpus(corpus)
    write_scores(tmp_path / "list_scores.txt", score_corpus(model, utts, k))
    assert scores.read_bytes() == (tmp_path / "list_scores.txt").read_bytes()


def open_descriptors() -> list[str]:
    return sorted(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc/self/fd")
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("failure", ["numerical", "non-finite frames"])
def test_train_abort_closes_every_descriptor(workspace, capsys, failure):
    """A training run that aborts after the corpus is open, with exit 3 on
    a blown-up loss or exit 2 on frames that read as NaN, leaves the
    process's open descriptors as they were and writes nothing."""
    tmp_path, config = workspace
    if failure == "numerical":
        config = write_config(tmp_path, extra="[train]\nlr0 = 1e100\n",
                              name="blowup.ini")
        code = 3
    else:
        path = tmp_path / "data" / "train.bin"
        train, k, d = read_corpus(path)
        train[-1].features[:] = np.nan
        write_corpus(path, train, k, d)
        code = 2
    before = open_descriptors()
    assert main(["train", "--config", config]) == code
    assert open_descriptors() == before
    err = capsys.readouterr().err
    assert ("non-finite loss" if code == 3 else "non-finite frames") in err
    assert list((tmp_path / "runs").iterdir()) == []
