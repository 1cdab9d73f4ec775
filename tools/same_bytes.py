"""Check that two source trees write the same artifacts.

    python3 tools/same_bytes.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are `src/` directories (each holding `ldekit/`). For
each side, in a fresh temporary directory with PYTHONPATH=<side> and
BLAS, OpenMP and MKL on one thread, this runs `ldekit gen-data`, `train`,
`eval` (with `--det`) and `gmm` on
  - the benchmark recipe (`config_text` and `TRAIN_EPOCHS` from
    `perfbench/worker.py`) at seeds 1, 7 and 66;
  - the reproducibility gate's `REPRO_CONFIG` (from
    `tests/test_acceptance.py`), once with TAP and once with
    `[encoder] model = lde`, then `ldekit fuse` of those two scores files
    at --iterations 0, 1, 3, 10 and 500;
  - `REPRO_CONFIG` as the conventional supervector system: front-end
    off, a frozen LDE dictionary with one shared smoothing and
    normalized aggregation, and the mixture baseline on raw frames.
Corpora, loss logs, scores, detection points and fused scores must be
byte-identical. So must what the commands print: each recipe's commands'
stdout, and the fusions', is kept as one more artifact (`stdout.txt`),
with each side's work directory swapped for a placeholder. Checkpoint and
bank arrays must be bit-identical, as read by
`ldekit.ndcore.read_artifact` from NEW_SRC, and their meta equal with the
work directory swapped the same way. One line is printed per artifact;
the exit status is 1 on any difference.
"""

from __future__ import annotations

import ast
import configparser
import json
import os
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_SEEDS = (1, 7, 66)
FUSE_ITERATIONS = (0, 1, 3, 10, 500)
CHECKPOINTS = ("model.ckpt", "gmm.ckpt")
WORK = "<work>"
STDOUT = "stdout.txt"


def _definitions(path: str, names: set[str]) -> dict:
    """The module-level assignments and functions `names` of a Python
    file, run on their own, so none of the file's imports run."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    keep = [node for node in tree.body
            if (isinstance(node, ast.FunctionDef) and node.name in names)
            or (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) in names
                        for t in node.targets))]
    space: dict = {}
    exec(compile(ast.Module(keep, []), path, "exec"), space)
    return space


def _set(text: str, section: str, lines: str) -> str:
    """Config `text` with `lines` at the top of [section], which is added
    before [train] when missing."""
    if f"[{section}]\n" not in text:
        text = text.replace("[train]", f"[{section}]\n\n[train]", 1)
    return text.replace(f"[{section}]\n", f"[{section}]\n{lines}", 1)


def _recipes() -> list[tuple[str, str, bool]]:
    """(name, config text with a {root} field, whether the run is
    half of the TAP + LDE fusion pair)."""
    worker = _definitions(os.path.join(REPO, "perfbench", "worker.py"),
                          {"config_text", "TRAIN_EPOCHS"})
    repro = _definitions(os.path.join(REPO, "tests", "test_acceptance.py"),
                         {"REPRO_CONFIG"})["REPRO_CONFIG"]
    recipes = [(f"bench{seed}",
                worker["config_text"]("{root}", seed, seed,
                                      worker["TRAIN_EPOCHS"]), False)
               for seed in BENCH_SEEDS]
    recipes.append(("repro_tap", repro, True))
    recipes.append(("repro_lde", _set(repro, "encoder", "model = lde\n"),
                    True))
    conventional = _set(repro, "frontend", "enabled = false\n")
    conventional = _set(conventional, "encoder",
                        "model = lde\nsmoothing = shared_beta\n"
                        "aggregation = normalized\nfreeze_dictionary = true\n")
    recipes.append(("repro_conventional",
                    _set(conventional, "gmm", "use_sdc = false\n"), False))
    return recipes


def _run_side(src: str, root: str) -> None:
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}

    def ldekit(stdout: list[str], *argv):
        out = subprocess.run([sys.executable, "-m", "ldekit", *argv],
                             env=env, capture_output=True, text=True)
        if out.returncode != 0:
            raise SystemExit(f"{src}: ldekit {' '.join(argv)} exited "
                             f"{out.returncode}:\n{out.stderr}")
        stdout.append(out.stdout.replace(root, WORK))

    def keep(stdout: list[str], directory: str) -> None:
        with open(os.path.join(directory, STDOUT), "w") as fh:
            fh.write("".join(stdout))

    pair = []
    for name, text, fused in _recipes():
        work = os.path.join(root, name)
        os.makedirs(work)
        config = os.path.join(work, "run.ini")
        with open(config, "w") as fh:
            fh.write(text.format(root=work))
        stdout: list[str] = []
        ldekit(stdout, "gen-data", "--config", config)
        ldekit(stdout, "train", "--config", config)
        parser = configparser.ConfigParser(interpolation=None)
        parser.read(config)
        paths = parser["paths"]
        ldekit(stdout, "eval", "--checkpoint", paths["checkpoint"],
               "--corpus", paths["test_corpus"], "--scores", paths["scores"],
               "--det", os.path.join(os.path.dirname(paths["scores"]), "det"))
        ldekit(stdout, "gmm", "--config", config)
        keep(stdout, work)
        if fused:
            pair.append(paths["scores"])
    stdout = []
    for it in FUSE_ITERATIONS:
        ldekit(stdout, "fuse", "--train-scores", *pair, "--scores", *pair,
               "--out", os.path.join(root, f"fused_{it}.txt"),
               "--iterations", str(it))
    keep(stdout, root)


def _files(root: str) -> set[str]:
    return {os.path.relpath(os.path.join(d, f), root)
            for d, _, files in os.walk(root) for f in files
            if f != "run.ini"}


def _swap_work(value, root: str):
    if isinstance(value, str):
        return value.replace(root, WORK)
    if isinstance(value, dict):
        return {k: _swap_work(v, root) for k, v in value.items()}
    if isinstance(value, list):
        return [_swap_work(v, root) for v in value]
    return value


def _compare_checkpoint(read_artifact, old: str, new: str,
                        old_root: str, new_root: str) -> str | None:
    """None when the arrays are bit-identical and the meta equal with the
    work directories swapped; a reason otherwise."""
    old_meta, old_arrays = read_artifact(old, ValueError)
    new_meta, new_arrays = read_artifact(new, ValueError)
    if list(old_arrays) != list(new_arrays):
        return "array names differ"
    for name, a in old_arrays.items():
        b = new_arrays[name]
        if a.dtype != b.dtype or a.shape != b.shape \
                or a.tobytes() != b.tobytes():
            return f"array {name} differs"
    if json.dumps(_swap_work(old_meta, old_root), sort_keys=True) != \
            json.dumps(_swap_work(new_meta, new_root), sort_keys=True):
        return "meta differs"
    return None


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    old_src, new_src = argv
    sys.path.insert(0, os.path.abspath(new_src))
    from ldekit.ndcore import read_artifact

    with tempfile.TemporaryDirectory() as old_root, \
            tempfile.TemporaryDirectory() as new_root:
        _run_side(old_src, old_root)
        _run_side(new_src, new_root)
        names = _files(old_root) | _files(new_root)
        differ = 0
        for name in sorted(names):
            old, new = os.path.join(old_root, name), os.path.join(new_root,
                                                                  name)
            if not (os.path.exists(old) and os.path.exists(new)):
                reason = "written on one side only"
            elif os.path.basename(name) in CHECKPOINTS:
                reason = _compare_checkpoint(read_artifact, old, new,
                                             old_root, new_root)
            else:
                with open(old, "rb") as fa, open(new, "rb") as fb:
                    reason = None if fa.read() == fb.read() else "bytes differ"
            differ += reason is not None
            print(f"{'same' if reason is None else 'DIFF'}  {name}"
                  + (f"  ({reason})" if reason else ""))
        print(f"{differ} of {len(names)} artifacts differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
