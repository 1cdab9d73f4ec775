"""The benchmark under perfbench/ reaches into ldekit by name: its spans
patch functions and methods, and its worker and checks import names from
the package. These tests fail as soon as a change to src/ removes or
renames one of those names, without running the benchmark itself."""

import ast
import importlib
import importlib.util
import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def load_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def ldekit_names(path):
    """(module, name) for each `from ldekit... import name` and each
    `patches.bind("ldekit...", "name", ...)` in the file, and
    (module, None) for each `import ldekit...`."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.partition(".")[0] == "ldekit":
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names
                      if alias.name.partition(".")[0] == "ldekit"]
        elif isinstance(node, ast.Call) \
                and getattr(node.func, "attr", None) == "bind":
            found.append(tuple(arg.value for arg in node.args[:2]))
    return found


def resolves(module, name):
    """Whether `from module import name` (or `import module`) succeeds."""
    loaded = importlib.import_module(module)
    if name is None or hasattr(loaded, name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")  # a submodule
    except ImportError:
        return False
    return True


def test_spans_install_and_restore():
    import ldekit.cli  # noqa: F401  (loads every module the spans patch)
    import ldekit.train
    spans = load_spans()
    original = ldekit.train.batch_loss
    patches = spans.Patches()
    spans.install(spans.Tracer(), patches)
    try:
        assert ldekit.train.batch_loss is not original
    finally:
        patches.restore()
    assert ldekit.train.batch_loss is original


@pytest.mark.parametrize("script", ["worker.py", "test_checks.py"])
def test_every_ldekit_name_resolves(script):
    names = ldekit_names(PERFBENCH / script)
    assert names
    assert [f"{module}.{name}" for module, name in names
            if not resolves(module, name)] == []
