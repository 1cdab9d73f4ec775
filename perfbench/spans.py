"""In-memory span recording around ldekit's layer entry points.

Every span is patched in from outside the program: each wrapper replaces
the name where its caller looks it up (``Model`` calls
``ldekit.train.lde_forward``, ``cmd_eval`` calls ``ldekit.cli.infer``),
so no code under ``src/`` changes. Import ``ldekit.cli`` before
installing, so that every module holding such a name is loaded. Spans
are kept in memory and written out once, when the traced worker ends.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import tracemalloc

# (defining module, function, span name); every ldekit module that holds
# the function under some name gets the wrapper, so a caller that did
# `from .encoding import lde_forward` is traced where it looks the name up
FUNCTION_SPANS = (
    ("ldekit.data", "generate_corpus", "data.generate_corpus"),
    ("ldekit.data", "read_corpus", "data.read_corpus"),
    ("ldekit.data", "sdc", "data.sdc"),
    ("ldekit.encoding", "lde_forward", "encoding.lde_forward"),
    ("ldekit.encoding", "lde_backward", "encoding.lde_backward"),
    ("ldekit.ndcore", "softmax_rows", "ndcore.softmax_rows"),
    ("ldekit.train", "batch_loss", "train.batch_loss"),
    ("ldekit.train", "infer", "train.infer"),
    ("ldekit.train", "save_model", "train.save_model"),
    ("ldekit.train", "load_model", "train.load_model"),
    ("ldekit.metrics", "write_scores", "metrics.write_scores"),
    ("ldekit.gmm", "em_fit", "gmm.em_fit"),
    ("ldekit.gmm", "log_densities", "gmm.log_densities"),
    ("ldekit.gmm", "gmm_classify", "gmm.gmm_classify"),
    ("ldekit.metrics", "eer_average", "metrics.eer_average"),
    ("ldekit.metrics", "cavg", "metrics.cavg"),
)

# (module, class, method, span name) for methods every instance shares
METHOD_SPANS = (
    ("ldekit.train", "LinearClassifier", "forward_batch", "train.classifier.fwd"),
    ("ldekit.train", "LinearClassifier", "backward_batch", "train.classifier.bwd"),
    ("ldekit.train", "Sgd", "step", "train.sgd_step"),
)

# the default front-end: stem conv plus one residual block per stage
FRONTEND_LAYERS = ("frontend.stem", "frontend.s0b0", "frontend.s1b0")

# spans whose first call in the timed command also gets a tracemalloc peak
ALLOC_SPANS = ("gmm.em_fit", "train.batch_loss", "train.infer")

SPAN_NAMES = tuple(
    [name for _, _, name in FUNCTION_SPANS]
    + ["data.make_batches"]
    + [f"{layer}.{way}" for layer in FRONTEND_LAYERS for way in ("fwd", "bwd")]
    + [name for _, _, _, name in METHOD_SPANS])


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, attr, make):
        """Set owner.attr to make(current value)."""
        original = getattr(owner, attr)
        self._set(owner, attr, make(original))

    def bind(self, module, name, make):
        """Wrap the function module.name once and rebind every name in
        every loaded ldekit module that refers to it."""
        original = getattr(importlib.import_module(module), name)
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.partition(".")[0] != "ldekit":
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer:
    """Nested spans with self time: a span's duration minus the part of
    it that its direct child spans cover."""

    def __init__(self):
        self.records = []  # (name, start, end, self_s, parent index)
        self.alloc_peak_mb = {}
        self.active = True
        self.alloc_armed = False
        self._stack = []  # [name, start, child seconds, own index]

    def enter(self, name):
        if not self.active:
            return None
        frame = [name, time.perf_counter(), 0.0, len(self.records)]
        self.records.append(None)  # placeholder keeps parent indices stable
        self._stack.append(frame)
        return frame

    def exit(self, frame, keep=True):
        if frame is None:
            return
        end = time.perf_counter()
        if self._stack.pop() is not frame:
            raise RuntimeError("spans must close in nesting order")
        name, start, child, index = frame
        duration = end - start
        parent = self._stack[-1][3] if self._stack else -1
        if self._stack:
            self._stack[-1][2] += duration
        self.records[index] = ((name, start, end, duration - child, parent)
                               if keep else None)

    def call(self, name, fn, *args, **kwargs):
        frame = self.enter(name)
        if frame is not None and self.alloc_armed and name in ALLOC_SPANS \
                and name not in self.alloc_peak_mb:
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.alloc_peak_mb[name] = peak / 2**20
                self.exit(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit(frame)

    def spans(self):
        return [r for r in self.records if r is not None]

    def write(self, path):
        """One JSON object per span: name, start, end, self_s, parent."""
        with open(path, "w") as fh:
            for i, record in enumerate(self.records):
                if record is None:
                    continue
                name, start, end, self_s, parent = record
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "self_s": self_s,
                                     "parent": parent}) + "\n")


def _function_wrapper(tracer, name):
    def make(fn):
        def traced(*args, **kwargs):
            return tracer.call(name, fn, *args, **kwargs)
        return traced
    return make


def _batches_wrapper(tracer):
    # one span per yielded batch; the call that ends the epoch is dropped
    def make(gen_fn):
        def traced(*args, **kwargs):
            batches = gen_fn(*args, **kwargs)
            while True:
                frame = tracer.enter("data.make_batches")
                try:
                    batch = next(batches)
                except StopIteration:
                    tracer.exit(frame, keep=False)
                    return
                tracer.exit(frame)
                yield batch
        return traced
    return make


def _layer_wrapper(tracer, way, layer_of):
    # Conv1d and ResidualBlock methods are shared by every conv in the
    # network, so the span name comes from the instance's parameter names
    def make(method):
        def traced(self, *args, **kwargs):
            layer = layer_of(self)
            if layer not in FRONTEND_LAYERS:
                return method(self, *args, **kwargs)
            return tracer.call(f"{layer}.{way}", method, self, *args, **kwargs)
        return traced
    return make


def _conv_layer(conv):
    return conv.weight.name[:-len(".weight")]


def _block_layer(block):
    return block.conv1.weight.name[:-len(".conv1.weight")]


def install(tracer: Tracer, patches: Patches) -> None:
    """Patch every span entry point; patches.restore() undoes it."""
    for module, attr, name in FUNCTION_SPANS:
        patches.bind(module, attr, _function_wrapper(tracer, name))
    for module, cls, attr, name in METHOD_SPANS:
        owner = getattr(importlib.import_module(module), cls)
        patches.replace(owner, attr, _function_wrapper(tracer, name))
    patches.bind("ldekit.data", "make_batches", _batches_wrapper(tracer))
    frontend = importlib.import_module("ldekit.frontend")
    for cls, layer_of in ((frontend.Conv1d, _conv_layer),
                          (frontend.ResidualBlock, _block_layer)):
        patches.replace(cls, "forward", _layer_wrapper(tracer, "fwd", layer_of))
        patches.replace(cls, "backward", _layer_wrapper(tracer, "bwd", layer_of))


def summarize(spans) -> dict:
    """calls, total self seconds and median duration (ms) per span name;
    every name in SPAN_NAMES appears, with zeros where it never ran."""
    durations = {name: [] for name in SPAN_NAMES}
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    for name, start, end, own, _parent in spans:
        durations.setdefault(name, []).append(end - start)
        self_s[name] = self_s.get(name, 0.0) + own
    out = {}
    for name, values in durations.items():
        values.sort()
        n = len(values)
        median = 0.0
        if n:
            median = (values[n // 2] if n % 2
                      else 0.5 * (values[n // 2 - 1] + values[n // 2]))
        out[name] = {"calls": n, "self_s": self_s[name],
                     "ms_p50": median * 1000.0}
    return out
