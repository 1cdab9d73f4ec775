"""ldekit benchmark: train, score and gmm workloads on one core.

    python3 perfbench/run.py --workload train|score|gmm --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout. Every workload runs its real ldekit
subcommand in fresh worker processes (worker.py), one at a time, with
BLAS pinned to one thread. With ``--trace 0`` the run reports the
end-to-end metrics. Three workers each set up, warm up and then take an
equal share of the ``--seconds`` timed phase in whole commands, so the
timed commands are spread over the run and ``setup_s`` is a median of
three processes; a worker whose share is already spent only sets up.
With ``--trace 1`` it reports the per-layer metrics: one untraced and
one traced worker each run the subcommand once, and the difference of
their command times is the tracing overhead. The last line of standard
output is one JSON object: correct, attempted, failed and metrics. The
line before it is the run's environment record. Worker logs, results
and spans stay under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
RUN_LIMIT_S = 170.0    # every run ends within 180 s
LOOP_LIMIT_S = 100.0   # no timed command starts later than this into the run
SETUP_REPEATS = 3
MIN_P95_ITEMS = 200    # at least ten items lie beyond the 95th percentile
WORKLOADS = ("train", "score", "gmm")

# the three frame counts, by the workload that produces them
FRAME_COUNTS = {"train": "train.frames", "score": "score.frames",
                "gmm": "gmm.fit_frames"}


class BenchError(RuntimeError):
    """A worker died or produced no usable result."""


def end_to_end_metrics(timed, setups):
    """Metrics of the timed workers' commands and items, pooled."""
    items = [x for w in timed for x in w["items"]]
    if len(items) < MIN_P95_ITEMS:
        raise BenchError(f"only {len(items)} items; the 95th percentile "
                         f"needs {MIN_P95_ITEMS}")
    values = {
        "setup_s": (statistics.median(setups), "s"),
        "command_s": (statistics.median(c for w in timed for c in w["commands"]),
                      "s"),
        "frames_per_s": (sum(w["frames"] for w in timed)
                         / sum(w["frame_s"] for w in timed), "1/s"),
        "item_ms_p50": (statistics.median(items) * 1000.0, "ms"),
        "item_ms_p95": (statistics.quantiles(items, n=20)[-1] * 1000.0, "ms"),
        "peak_rss_mb": (statistics.median(w["rss_mb"] for w in timed), "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer_metrics(workload, untraced, traced):
    out = {}
    for name, s in traced["spans"].items():
        out[f"{name}.calls"] = {"value": s["calls"], "unit": "count"}
        out[f"{name}.self_s"] = {"value": s["self_s"], "unit": "s"}
        out[f"{name}.ms_p50"] = {"value": s["ms_p50"], "unit": "ms"}
    for wl, name in FRAME_COUNTS.items():
        frames = traced["frames"] if wl == workload else 0
        out[name] = {"value": frames, "unit": "count"}
    for name in spans.ALLOC_SPANS:
        out[f"{name}.alloc_peak_mb"] = {
            "value": traced["alloc_peak_mb"].get(name, 0.0), "unit": "MB"}
    out["tracing.overhead_s"] = {
        "value": traced["commands"][0] - untraced["commands"][0], "unit": "s"}
    return out


def source_record():
    """Git revision where the checkout is a repository, and a hash of the
    ldekit sources either way."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "ldekit")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    revision = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        revision = done.stdout.strip() or None
    return {"git_revision": revision, "source_sha256": digest.hexdigest()}


class Runner:
    """Starts workers one at a time and collects their results."""

    def __init__(self, args, run_dir):
        self.args = args
        self.run_dir = run_dir
        self.start = time.monotonic()
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                        OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)

    def worker(self, name, *extra):
        base = os.path.join(self.run_dir, name)
        remaining = self.start + RUN_LIMIT_S - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"no time left for worker {name}")
        t0 = time.monotonic()
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--workdir", base,
               "--result", base + ".json", "--t0", repr(t0),
               "--deadline", repr(self.start + LOOP_LIMIT_S), *extra]
        try:
            with open(base + ".log", "w") as log:
                done = subprocess.run(cmd, env=self.env, cwd=ROOT, stdout=log,
                                      stderr=subprocess.STDOUT,
                                      timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker {name} ran past the run's time limit") from exc
        finally:
            # corpora and checkpoints are large; results and logs stay
            shutil.rmtree(base, ignore_errors=True)
        try:
            with open(base + ".json") as fh:
                result = json.load(fh)
        except (OSError, ValueError) as exc:
            raise BenchError(f"worker {name} exited with code "
                             f"{done.returncode} and no result; see "
                             f"{base}.log") from exc
        if "error" in result:
            raise BenchError(f"worker {name}: {result['error']}")
        return result


def timed_workers(runner, seconds):
    """SETUP_REPEATS workers, one after another. Each takes an equal share
    of what is left of the timed phase, in whole commands, until the run
    has MIN_P95_ITEMS items; once the commands so far are nearest to
    `seconds`, the remaining workers only set up."""
    workers = []
    for i in range(SETUP_REPEATS):
        left = SETUP_REPEATS - i
        done = [c for w in workers for c in w["commands"]]
        rest = seconds - sum(done)
        items = MIN_P95_ITEMS - sum(len(w["items"]) for w in workers)
        if items <= 0 and done and rest < 0.5 * sum(done) / len(done):
            workers.append(runner.worker(f"worker{i}", "--setup-only"))
        else:
            workers.append(runner.worker(
                f"worker{i}", "--seconds", repr(max(rest, 0.0) / left),
                "--min-items", str(max(-(-items // left), 0)),
                "--first-command", str(len(done))))
    return workers


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "ldekit", "cli.py")):
        print(f"error: no ldekit sources under {ROOT}/src", file=sys.stderr)
        return 2

    run_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-"
                                f"trace{args.trace}-{os.getpid()}")
    os.makedirs(run_dir)
    runner = Runner(args, run_dir)
    try:
        if args.trace:
            workers = [runner.worker("untraced", "--commands", "1"),
                       runner.worker("traced", "--commands", "1", "--trace")]
            metrics = per_layer_metrics(args.workload, *workers)
        else:
            workers = timed_workers(runner, args.seconds)
            metrics = end_to_end_metrics([w for w in workers if w["commands"]],
                                         [w["setup_s"] for w in workers])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failures = [f for w in workers for f in w["failures"]]
    for f in failures:
        print(f"check failed: {f}", file=sys.stderr)
    failed = sum(w["failed"] for w in workers)
    attempted = sum(len(w["items"]) for w in workers) + failed
    record = dict(workers[0]["env"], **source_record(),
                  workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  attempted=attempted, failed=failed)
    result = {"correct": not failures, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    for name, obj in (("env.json", record), ("result.json", result)):
        with open(os.path.join(run_dir, name), "w") as fh:
            json.dump(obj, fh, indent=1)
    print(json.dumps({"env": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
