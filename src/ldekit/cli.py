"""Command-line pipeline.

Subcommands: gen-data (synthetic corpora), train (TAP/LDE classifier),
eval (score a corpus with a checkpoint), fuse (linear score fusion),
gmm (classical per-class mixture baseline).

Every command that reads a corpus opens it once as a `data.CorpusFile`
and closes it on every exit path: `train` batches from its file-backed
utterance list, which reads only each batch's crops, and `eval` and `gmm`
read one utterance at a time, so no command holds a whole corpus.

Exit codes: 0 success, 1 usage or config error, 2 data/format error,
3 numerical failure. Every command prints only after its artifacts are
written, so a stdout closed early (`ldekit eval ... | head -1`) ends the
report, not the run: the status is still 0.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict

import numpy as np

from .config import (
    ConfigError,
    RunConfig,
    load_config,
    model_config,
)
from .data import (
    DURATION_BUCKETS,
    CorpusFile,
    CorpusFormatError,
    duration_bucket,
    generate_split,
    sdc,
    sdc_shape,
    write_corpus,
)
from .gmm import GmmModel, em_fit, gmm_classify, log_posterior_scores
from .metrics import (
    TrialScore,
    TrialSet,
    cavg,
    eer_average,
    eer_pooled,
    fuse,
    read_scores,
    train_fusion,
    write_det_points,
    write_scores,
)
from .ndcore import Rng
from .train import (
    Model,
    NumericalError,
    TrainStep,
    infer,
    load_model,
    save_gmm_bank,
    save_model,
    train_model,
)


class UsageError(ValueError):
    """Bad command line or refusal to overwrite without --force."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; 2 is reserved for data
    # errors here, so surface parse failures as exceptions instead
    def error(self, message):
        raise UsageError(message)


def _require_file(path, what: str) -> None:
    if not os.path.isfile(path):
        raise FileNotFoundError(f"{what} not found: {path}")


def _prepare_outputs(paths, force: bool) -> None:
    """A command's outputs: distinct files, then the overwrite policy plus
    directory creation, before any real work."""
    real = [os.path.realpath(p) for p in paths]
    for i, r in enumerate(real):
        if r in real[:i]:
            raise UsageError(f"{paths[real.index(r)]} and {paths[i]} are one "
                             f"file; a command's outputs must be distinct")
    for path in paths:
        if os.path.exists(path) and not force:
            raise UsageError(f"refusing to overwrite {path} (pass --force)")
        parent = os.path.dirname(os.path.abspath(path))
        try:
            os.makedirs(parent, exist_ok=True)
        except (FileExistsError, NotADirectoryError) as exc:
            raise UsageError(f"cannot create directory {parent} for {path}: "
                             f"part of that path is a regular file") from exc


def _print_metrics(tag: str, trials: TrialSet) -> None:
    counts = np.bincount(trials.labels(), minlength=trials.num_classes)
    if counts.min() == 0:  # a class's EER needs its target trials
        print(f"[{tag}] trials={len(trials.trials)} "
              f"(skipped: not every class present)")
        return
    print(f"[{tag}] trials={len(trials.trials)} "
          f"eer_avg={eer_average(trials) * 100:.2f}% "
          f"eer_pooled={eer_pooled(trials) * 100:.2f}% "
          f"cavg={cavg(trials) * 100:.2f}%")


def _report(tag: str, trials: TrialSet) -> None:
    """The `[tag]` metrics line, then one per duration bucket that the
    trial ids tag."""
    _print_metrics(tag, trials)
    groups: dict[str, list[TrialScore]] = {}
    for t in trials.trials:
        bucket = duration_bucket(t.id)
        if bucket is not None:
            groups.setdefault(bucket, []).append(t)
    known = [name for name, _ in DURATION_BUCKETS]
    order = [b for b in known if b in groups]
    order += sorted(b for b in groups if b not in known)
    for bucket in order:
        _print_metrics(bucket, TrialSet(trials.class_names, groups[bucket]))


def _require_utterances(corpus: CorpusFile) -> None:
    if not corpus.utterances:  # its scores file would be empty
        raise CorpusFormatError(f"{corpus.path}: no utterances to score")


def _class_names(num_classes: int) -> list[str]:
    return [f"L{k}" for k in range(num_classes)]


def train_from_config(rc: RunConfig, utts, num_classes: int, in_dim: int,
                      log_path=None) -> tuple[Model, list[TrainStep]]:
    """Initialize (seed stream 0) and train (stream 1) the configured model
    on `utts`, a list of `Utterance`s or of `StoredUtterance`s."""
    root = Rng(rc.train.seed)
    model = Model(model_config(rc, num_classes, in_dim), root.split(0))
    steps = train_model(model, utts, rc.train, root.split(1), log_path)
    return model, steps


def score_corpus(model: Model, utts, num_classes: int) -> TrialSet:
    """Class logits of every whole utterance, from any iterable of them, as
    trials; a stored utterance's frames are read for its turn and dropped
    after it."""
    return TrialSet(_class_names(num_classes),
                    [TrialScore(u.id, u.label, infer(model, u.features))
                     for u in utts])


def cmd_gen_data(args) -> int:
    rc = load_config(args.config)
    splits = (("train", rc.paths.train_corpus), ("test", rc.paths.test_corpus))
    _prepare_outputs([path for _, path in splits], args.force)
    written = []
    for split, path in splits:
        count = write_corpus(path, generate_split(rc.data, split),
                             rc.data.num_classes, rc.data.feature_dim)
        written.append(f"wrote {count} {split} utterances to {path}")
    print("\n".join(written))
    return 0


def cmd_train(args) -> int:
    rc = load_config(args.config)
    _require_file(rc.paths.train_corpus, "train corpus")
    _prepare_outputs([rc.paths.checkpoint, rc.paths.loss_log], args.force)
    with CorpusFile(rc.paths.train_corpus) as corpus:
        model, steps = train_from_config(rc, corpus.utterances,
                                         corpus.num_classes,
                                         corpus.feature_dim,
                                         log_path=rc.paths.loss_log)
    save_model(rc.paths.checkpoint, model, epoch=rc.train.epochs,
               extra_meta={"run_config": asdict(rc)})
    print(f"trained {rc.encoder.model} for {rc.train.epochs} epochs "
          f"({len(steps)} steps, final smoothed loss "
          f"{steps[-1].smoothed:.5f})")
    print(f"checkpoint: {rc.paths.checkpoint}")
    print(f"loss log: {rc.paths.loss_log}")
    return 0


def cmd_eval(args) -> int:
    _require_file(args.checkpoint, "checkpoint")
    _require_file(args.corpus, "corpus")
    _prepare_outputs([args.scores], args.force)
    model, _meta = load_model(args.checkpoint)
    with CorpusFile(args.corpus) as corpus:
        num_classes, in_dim = corpus.num_classes, corpus.feature_dim
        if num_classes != model.cfg.num_classes or in_dim != model.cfg.in_dim:
            raise CorpusFormatError(
                f"{args.corpus}: {num_classes} classes of dim {in_dim} but "
                f"the checkpoint expects {model.cfg.num_classes} of dim "
                f"{model.cfg.in_dim}")
        _require_utterances(corpus)
        # a class's detection points need its own trials and another
        # class's, so it is in `labels` and not alone there
        labels = {u.label for u in corpus.utterances}
        det_paths = {k: f"{args.det}.{name}.txt"
                     for k, name in enumerate(_class_names(num_classes))
                     if args.det is not None and {k} < labels}
        _prepare_outputs([args.scores, *det_paths.values()], args.force)
        tset = score_corpus(model, corpus.utterances, num_classes)
    write_scores(args.scores, tset)
    for k, det_path in det_paths.items():
        write_det_points(det_path, tset, k)
    print(f"scores: {args.scores}")
    for k, name in enumerate(_class_names(num_classes)):
        if args.det is not None and k not in det_paths:
            print(f"det {name}: skipped (needs target and non-target trials)")
    _report("all", tset)
    return 0


def cmd_fuse(args) -> int:
    if args.iterations < 0:
        raise UsageError(f"--iterations must be >= 0, got {args.iterations}")
    if len(args.train_scores) != len(args.scores):
        raise UsageError("need one eval scores file per training scores file")
    for path in args.train_scores + args.scores:
        _require_file(path, "scores file")
    _prepare_outputs([args.out], args.force)
    train_sets = [read_scores(p) for p in args.train_scores]
    eval_sets = [read_scores(p) for p in args.scores]
    weights = train_fusion(train_sets, iterations=args.iterations)
    fused = fuse(eval_sets, weights)
    write_scores(args.out, fused)
    print(f"fusion weights: {' '.join(f'{w:.6g}' for w in weights)}")
    print(f"fused scores: {args.out}")
    _report("fused", fused)
    return 0


def _gmm_features(utt, g, shape_only: bool = False):
    """The utterance's mixture features (D' x L'): its SDC features under
    the [gmm] settings, or its raw features when use_sdc is off. With
    `shape_only`, just their (D', L'), from the lengths alone."""
    if not g.use_sdc:
        return utt.shape if shape_only else utt.features
    spec = dict(n_coeffs=g.sdc_coeffs, delta=g.sdc_delta, shift=g.sdc_shift,
                blocks=g.sdc_blocks, append_static=g.sdc_static)
    try:
        return (sdc_shape(utt.shape, **spec) if shape_only
                else sdc(utt.features, **spec))
    except ValueError as exc:
        raise CorpusFormatError(f"utterance {utt.id}: {exc}") from exc


def _pooled_class_frames(utts, g) -> np.ndarray:
    """One class's mixture features as the N x D transpose of one
    contiguous D x N array, thinned by an even stride to at most
    `max_frames_per_class` frames: frame i of the class's features in
    corpus order is kept when i is a multiple of the stride. The array is
    sized from the utterance lengths and filled one utterance at a time,
    so only the kept frames are ever held together."""
    shapes = [_gmm_features(u, g, shape_only=True) for u in utts]
    total = sum(length for _, length in shapes)
    stride = 1
    if 0 < g.max_frames_per_class < total:
        stride = -(-total // g.max_frames_per_class)
    pool = np.empty((shapes[0][0], -(-total // stride)))
    # the pool's next free column, and the class-wide index of the next
    # utterance's first frame
    col = start = 0
    for u, (_, length) in zip(utts, shapes):
        first = -start % stride
        kept = len(range(first, length, stride))
        pool[:, col:col + kept] = _gmm_features(u, g)[:, first::stride]
        col += kept
        start += length
    return pool.T


def fit_gmm_bank(train, num_classes: int, g
                 ) -> tuple[list[GmmModel], list[list[float]], list[int]]:
    """Per-class EM mixtures on pooled features, thinned by an even stride
    to `max_frames_per_class`; returns the models, their log-likelihood
    histories and the frame counts they were fit on. `train` is the
    training utterances, `Utterance`s or `StoredUtterance`s. One class at
    a time, in corpus order: each class's kept frames are pooled straight
    into one preallocated array (`_pooled_class_frames`), which reads a
    stored list one utterance at a time."""
    rng = Rng(g.seed)
    models, histories, counts = [], [], []
    for k in range(num_classes):
        members = [u for u in train if u.label == k]
        if not members:
            raise CorpusFormatError(f"no training utterances for class L{k}")
        frames = _pooled_class_frames(members, g)
        model, history = em_fit(frames, g.components, g.iterations,
                                rng.split(k))
        models.append(model)
        histories.append(history)
        counts.append(frames.shape[0])
        del frames  # before the next class's pool is built
    return models, histories, counts


def score_gmm_bank(models: list[GmmModel], utts, num_classes: int,
                   g) -> TrialSet:
    """Per-class log-posteriors of every utterance, from any iterable of
    them, under the bank."""
    return TrialSet(_class_names(num_classes),
                    [TrialScore(u.id, u.label,
                                log_posterior_scores(
                                    gmm_classify(models, _gmm_features(u, g))))
                     for u in utts])


def cmd_gmm(args) -> int:
    """Fits the bank on the train corpus, then scores the test corpus,
    reading one utterance at a time throughout. Both corpora's heads are
    checked, the test corpus's header against the train corpus's and its
    utterance count against zero, before the fit, and no artifact is
    written unless every test utterance scores."""
    rc = load_config(args.config)
    _require_file(rc.paths.train_corpus, "train corpus")
    _require_file(rc.paths.test_corpus, "test corpus")
    _prepare_outputs([rc.paths.gmm_checkpoint, rc.paths.gmm_scores],
                     args.force)
    g = rc.gmm
    with CorpusFile(rc.paths.train_corpus) as train, \
            CorpusFile(rc.paths.test_corpus) as test:
        num_classes, in_dim = train.num_classes, train.feature_dim
        if (test.num_classes, test.feature_dim) != (num_classes, in_dim):
            raise CorpusFormatError(
                f"{rc.paths.test_corpus}: header ({test.num_classes} "
                f"classes, dim {test.feature_dim}) does not match the train "
                f"corpus ({num_classes}, dim {in_dim})")
        _require_utterances(test)
        models, histories, counts = fit_gmm_bank(train.utterances,
                                                 num_classes, g)
        tset = score_gmm_bank(models, test.utterances, num_classes, g)
    save_gmm_bank(rc.paths.gmm_checkpoint, models,
                  meta={"run_config": asdict(rc)})
    write_scores(rc.paths.gmm_scores, tset)
    for k, (history, count) in enumerate(zip(histories, counts)):
        print(f"class L{k}: {g.components} components on "
              f"{count} frames, final avg ll {history[-1] / count:.5f}")
    print(f"bank: {rc.paths.gmm_checkpoint}")
    print(f"scores: {rc.paths.gmm_scores}")
    _report("all", tset)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="ldekit",
                     description="Sequence-classification pipeline: "
                                 "synthetic corpora, pooled classifiers, "
                                 "mixture baseline, scoring, fusion.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")

    p = sub.add_parser("gen-data", help="write synthetic corpora to [paths]")
    p.add_argument("--config", required=True, help="run configuration file")
    p.add_argument("--force", action="store_true",
                   help="overwrite existing outputs")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a pooled sequence classifier")
    p.add_argument("--config", required=True, help="run configuration file")
    p.add_argument("--force", action="store_true",
                   help="overwrite existing outputs")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a corpus with a checkpoint")
    p.add_argument("--checkpoint", required=True, help="model checkpoint")
    p.add_argument("--corpus", required=True, help="corpus file to score")
    p.add_argument("--scores", required=True, help="output scores file")
    p.add_argument("--det", default=None, metavar="PREFIX",
                   help="also write PREFIX.<class>.txt detection points, "
                        "for each class with target and non-target trials")
    p.add_argument("--force", action="store_true",
                   help="overwrite existing outputs")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("fuse", help="train and apply linear score fusion")
    p.add_argument("--train-scores", required=True, nargs="+",
                   help="scores files the fusion weights are fitted on")
    p.add_argument("--scores", required=True, nargs="+",
                   help="scores files to fuse, one per system, same order")
    p.add_argument("--out", required=True, help="fused scores file")
    p.add_argument("--iterations", type=int, default=500,
                   help="fusion training iterations (default 500)")
    p.add_argument("--force", action="store_true",
                   help="overwrite existing outputs")
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("gmm", help="fit per-class mixtures and score")
    p.add_argument("--config", required=True, help="run configuration file")
    p.add_argument("--force", action="store_true",
                   help="overwrite existing outputs")
    p.set_defaults(func=cmd_gmm)
    return parser


def main(argv=None) -> int:
    if sys.stdout.closed:
        # as for a closed pipe below: the report is lost, not the run
        sys.stdout = open(os.devnull, "w")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader closed stdout; every artifact is written before the
        # first print, so only the report is lost. Python flushes stdout
        # again at exit, which must not meet the closed pipe.
        sys.stdout = open(os.devnull, "w")
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, FileNotFoundError, IsADirectoryError) as exc:
        # malformed corpora, checkpoints and scores files raise ValueError
        # subclasses; remaining pipeline complaints are shape/content problems
        print(f"data error: {exc}", file=sys.stderr)
        return 2
