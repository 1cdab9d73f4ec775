"""One benchmark worker: a fresh process for one workload.

run.py starts every worker with BLAS pinned to one thread, so a worker's
imports, timings and peak memory belong to its workload alone. A worker
sets the workload up, warms it up, then runs the workload's ldekit
subcommand through ``ldekit.cli.main`` in a closed loop from one thread,
checks the last command's outputs and writes one JSON result file.
Items are timed from outside, by wrapping one public function per
workload; ``--trace`` also records a span around every layer entry point.

    python3 perfbench/worker.py --workload train --seed 1 --workdir DIR \\
        --result FILE --t0 T --deadline T [--seconds S --min-items N] \\
        [--commands N] [--setup-only] [--trace]
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time

import numpy as np

import checks
import spans

TRAIN_EPOCHS = 3  # the shortened recipe: drops at epoch 2, loss falls by then
WORKLOADS = ("train", "score", "gmm")


class WorkerError(RuntimeError):
    """A subcommand exited with a non-zero code."""


def config_text(work, seed, train_seed, epochs, crop_max=1000):
    """Default recipe with the LDE encoder (C=8), seeds from the benchmark."""
    return f"""[data]
seed = {seed}

[encoder]
model = lde
components = 8

[train]
epochs = {epochs}
seed = {train_seed}
crop_max = {crop_max}

[gmm]
seed = {seed}

[paths]
train_corpus = {work}/train.bin
test_corpus = {work}/test.bin
checkpoint = {work}/model.ckpt
loss_log = {work}/loss.log
scores = {work}/scores.txt
gmm_checkpoint = {work}/gmm.ckpt
gmm_scores = {work}/gmm_scores.txt
"""


def run_cli(argv):
    from ldekit import cli
    code = cli.main(argv)
    if code != 0:
        raise WorkerError(f"ldekit {' '.join(argv)} exited with code {code}")


class Recorder:
    """Item times, failures and the frame count of one workload's rate."""

    def __init__(self):
        self.items = []      # seconds per timed item
        self.failed = 0
        self.frames = 0      # frames the workload's frames_per_s counts
        self.frame_s = 0.0   # seconds spent on those frames
        self.fits = []       # (model, history) of em_fit in the last command
        self.step_start = None  # perf_counter() when the SGD step began

    def timed(self, fn, frames_of, is_item):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.failed += is_item
                raise
            took = time.perf_counter() - start
            if is_item:
                self.items.append(took)
            self.frames += frames_of(*args)
            self.frame_s += took
            return out
        return wrapper


class Workload:
    """Files, set-up, commands, item hooks and output checks of one
    workload; ``work`` is the worker's private directory."""

    def __init__(self, work, seed):
        self.work = work
        self.seed = seed
        self.config = os.path.join(work, "run.ini")

    def write_config(self, train_seed, epochs, crop_max=1000):
        with open(self.config, "w") as fh:
            fh.write(config_text(self.work, self.seed, train_seed, epochs,
                                 crop_max))

    def setup(self):
        self.write_config(self.seed, TRAIN_EPOCHS)
        run_cli(["gen-data", "--config", self.config, "--force"])

    def path(self, name):
        return os.path.join(self.work, name)


class TrainWorkload(Workload):
    """One item is one SGD step: batch_loss plus the update."""

    def warm_up(self):
        from ldekit.data import read_corpus
        from ldekit.encoding import LdeConfig
        from ldekit.frontend import ConvSpec
        from ldekit.ndcore import Rng
        from ldekit.train import Model, ModelConfig, Sgd, SgdConfig, batch_loss
        utts, num_classes, in_dim = read_corpus(self.path("train.bin"))
        spec = ConvSpec.desk_default(in_dim)
        model = Model(ModelConfig(in_dim, num_classes, encoder="lde",
                                  lde=LdeConfig(8, spec.out_dim),
                                  frontend=spec), Rng(self.seed))
        sgd = Sgd(model.trainable_params(), SgdConfig())
        feats, labels = _first_batch(utts, 32, 600)
        for _ in range(3):
            batch_loss(model, feats, labels)
            sgd.step(0.1)

    def command(self, index):
        # a new training seed per command: fresh crops and initial weights
        self.write_config(self.seed * 1000 + index, TRAIN_EPOCHS)
        return ["train", "--config", self.config, "--force"]

    def hooks(self, patches, rec):
        def begin(fn):
            def wrapper(model, feats, labels, *args, **kwargs):
                rec.step_start = time.perf_counter()
                rec.frames += feats.shape[0] * feats.shape[2]
                try:
                    return fn(model, feats, labels, *args, **kwargs)
                except BaseException:
                    rec.failed += 1
                    raise
            return wrapper

        def end(fn):
            def wrapper(self, *args, **kwargs):
                try:
                    out = fn(self, *args, **kwargs)
                except BaseException:
                    rec.failed += 1
                    raise
                rec.items.append(time.perf_counter() - rec.step_start)
                return out
            return wrapper

        import ldekit.train
        patches.bind("ldekit.train", "batch_loss", begin)
        patches.replace(ldekit.train.Sgd, "step", end)
        patches.bind("ldekit.train", "train_model",
                     lambda fn: rec.timed(fn, lambda *a: 0, is_item=False))

    def check(self, rec):
        from ldekit.data import read_corpus
        from ldekit.train import batch_loss, load_model
        losses = np.loadtxt(self.path("loss.log"), ndmin=2)[:, 1]
        failures = checks.loss_failures(losses, TRAIN_EPOCHS)
        model, _ = load_model(self.path("model.ckpt"))
        utts, _, _ = read_corpus(self.path("train.bin"))
        feats, labels = _first_batch(utts, 4, 200)
        failures += checks.gradient_failures(model, feats, labels, batch_loss,
                                             np.random.default_rng(self.seed))
        return failures


class ScoreWorkload(Workload):
    """One item is one infer call on a whole test utterance."""

    def setup(self):
        super().setup()
        # the set-up checkpoint: one epoch of 200-frame crops; its quality
        # does not change what scoring costs
        self.write_config(self.seed, 1, crop_max=200)
        run_cli(["train", "--config", self.config, "--force"])

    def warm_up(self):
        from ldekit.data import read_corpus
        from ldekit.train import infer, load_model
        model, _ = load_model(self.path("model.ckpt"))
        utts, _, _ = read_corpus(self.path("test.bin"))
        for utt in utts[:20]:
            infer(model, utt.features)

    def command(self, index):
        return ["eval", "--checkpoint", self.path("model.ckpt"),
                "--corpus", self.path("test.bin"),
                "--scores", self.path("scores.txt"), "--force"]

    def hooks(self, patches, rec):
        patches.bind("ldekit.train", "infer",
                     lambda fn: rec.timed(fn, lambda model, feats: feats.shape[1],
                                          is_item=True))

    def check(self, rec):
        from ldekit.data import read_corpus
        from ldekit.metrics import read_scores
        from ldekit.train import load_checkpoint
        ckpt = load_checkpoint(self.path("model.ckpt"))
        utts, _, _ = read_corpus(self.path("test.bin"))
        trials = read_scores(self.path("scores.txt"))
        return checks.score_failures(ckpt.params, ckpt.meta["config"], utts,
                                     trials)


class GmmWorkload(Workload):
    """One item is one gmm_classify call on a test utterance's deltas."""

    def warm_up(self):
        from ldekit.data import read_corpus, sdc
        from ldekit.gmm import em_fit, gmm_classify
        from ldekit.ndcore import Rng
        utts, _, _ = read_corpus(self.path("test.bin"))
        feats = [sdc(u.features) for u in utts[:20]]
        model, _ = em_fit(np.concatenate([f.T for f in feats])[:4000], 16, 2,
                          Rng(self.seed))
        for f in feats:
            gmm_classify([model, model], f)

    def command(self, index):
        return ["gmm", "--config", self.config, "--force"]

    def hooks(self, patches, rec):
        def fit(fn):
            timed = rec.timed(fn, lambda frames, *a: frames.shape[0],
                              is_item=False)

            def wrapper(*args, **kwargs):
                out = timed(*args, **kwargs)
                rec.fits.append(out)
                return out
            return wrapper

        patches.bind("ldekit.gmm", "gmm_classify",
                     lambda fn: rec.timed(fn, lambda models, x: 0, is_item=True))
        patches.bind("ldekit.gmm", "em_fit", fit)

    def check(self, rec):
        from ldekit.config import load_config
        from ldekit.data import read_corpus
        from ldekit.metrics import read_scores
        from ldekit.train import load_gmm_bank
        g = load_config(self.config).gmm
        bank, _ = load_gmm_bank(self.path("gmm.ckpt"))
        utts, _, _ = read_corpus(self.path("test.bin"))
        trials = read_scores(self.path("gmm_scores.txt"))
        failures = checks.history_failures([h for _, h in rec.fits])
        failures += checks.weight_failures([m for m, _ in rec.fits] + bank)
        failures += checks.gmm_score_failures(
            bank, utts, trials, (g.sdc_coeffs, g.sdc_delta, g.sdc_shift,
                                 g.sdc_blocks, g.sdc_static))
        return failures


def _first_batch(utts, size, length):
    """The first `size` utterances with at least `length` frames, cut to
    their first `length` frames."""
    chosen = [u for u in utts if u.num_frames >= length][:size]
    feats = np.stack([u.features[:, :length] for u in chosen])
    return feats, np.array([u.label for u in chosen], dtype=np.int64)


def blas_record():
    """BLAS library and the thread count it actually runs with."""
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in sorted({line.split()[-1] for line in open("/proc/self/maps")
                       if "blas" in line.lower() and ".so" in line}):
        handle = ctypes.CDLL(lib)
        for sym in ("openblas_get_num_threads",
                    "scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads"):
            if hasattr(handle, sym):
                getter = getattr(handle, sym)
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {"blas": f"{info.get('name')} {info.get('version')}",
            "blas_threads": threads,
            "numpy": np.__version__,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0))}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0,
                   help="time share of the timed phase this worker runs")
    p.add_argument("--min-items", type=int, default=0,
                   help="keep running commands until this many items")
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--t0", type=float, required=True,
                   help="time.monotonic() when the parent started this process")
    p.add_argument("--deadline", type=float, required=True,
                   help="time.monotonic() after which no command starts")
    p.add_argument("--first-command", type=int, default=0,
                   help="index of this worker's first command in the run")
    p.add_argument("--commands", type=int, default=0,
                   help="run exactly this many commands (0: run for --seconds)")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)

    import ldekit.cli  # noqa: F401  loads every module the patches rebind
    kind = {"train": TrainWorkload, "score": ScoreWorkload,
            "gmm": GmmWorkload}[args.workload]
    workload = kind(os.path.abspath(args.workdir), args.seed)
    os.makedirs(workload.work, exist_ok=True)
    rec = Recorder()
    tracer = spans.Tracer() if args.trace else None
    patches = spans.Patches()
    result = {"env": blas_record(), "commands": [], "items": [], "failed": 0,
              "frames": 0, "frame_s": 0.0, "failures": []}
    try:
        if tracer is not None:
            spans.install(tracer, patches)
        workload.setup()
        if tracer is not None:
            tracer.active = False
        workload.warm_up()
        workload.hooks(patches, rec)
        result["setup_s"] = time.monotonic() - args.t0
        if args.setup_only:
            return _finish(args, result)

        if tracer is not None:
            tracer.active = tracer.alloc_armed = True
        loop_start = time.monotonic()
        index = 0
        while True:
            rec.fits.clear()
            argv_i = workload.command(args.first_command + index)
            start = time.perf_counter()
            run_cli(argv_i)
            result["commands"].append(time.perf_counter() - start)
            index += 1
            elapsed = time.monotonic() - loop_start
            if args.commands:
                if index >= args.commands:
                    break
            # the whole number of commands nearest to --seconds
            elif (elapsed + 0.5 * elapsed / index >= args.seconds
                  and len(rec.items) >= args.min_items) \
                    or loop_start + elapsed >= args.deadline:
                break
        if tracer is not None:
            tracer.active = False
        patches.restore()
        result.update(items=rec.items, failed=rec.failed, frames=rec.frames,
                      frame_s=rec.frame_s)
        result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        try:
            result["failures"] = workload.check(rec)
        except Exception as exc:  # an unreadable output fails its check
            result["failures"] = [f"output check raised {exc!r}"]
        if tracer is not None:
            tracer.write(os.path.splitext(args.result)[0] + ".spans.jsonl")
            result["spans"] = spans.summarize(tracer.spans())
            result["alloc_peak_mb"] = tracer.alloc_peak_mb
    except WorkerError as exc:
        result["error"] = str(exc)
    finally:
        patches.restore()
    return _finish(args, result)


def _finish(args, result):
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0 if "error" not in result else 1


if __name__ == "__main__":
    sys.exit(main())
