"""The benchmark's tracer names functions of iwaheights by dotted path.

`perfbench/tracing.py` attaches its counting hooks by name (`HOOKS`) and
reads per-function call counts and self times by name in `layer_metrics`.
A name that no longer resolves is not an error there: its counter just
reads zero.  This test only reads `perfbench/`.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class LookupRecorder(dict):
    """An empty summary table that records every name looked up in it."""

    def __init__(self, seen):
        super().__init__()
        self.seen = seen

    def get(self, key, default=None):
        self.seen.add(key)
        return default


def traced_function_names(tracing):
    """The HOOKS keys and the names layer_metrics reads from the per-function
    tables (`calls` and `func_self`) of a trace summary."""
    names = set(tracing.HOOKS)
    summary = {
        "layer_self": {},
        "func_self": LookupRecorder(names),
        "calls": LookupRecorder(names),
        "counts": {},
        "maxima": {},
    }
    tracing.layer_metrics(summary, passes=1)
    return names


def resolve(name):
    """The function the tracer would wrap under this name, or None.

    The tracer wraps functions defined in a layer module and methods found
    in a class's own namespace, so inherited or imported names do not count.
    """
    layer, first, *rest = name.split(".")
    module = importlib.import_module(f"iwaheights.{layer}")
    obj = getattr(module, first, None)
    if getattr(obj, "__module__", None) != module.__name__:
        return None
    for attr in rest:
        obj = vars(obj).get(attr) if isinstance(obj, type) else None
    return obj if inspect.isfunction(obj) else None


def test_every_traced_name_resolves_to_a_function():
    tracing = load_tracing()
    names = traced_function_names(tracing)
    assert "lambdamod.FiniteLevelModule.action_matrix" in names
    assert "lfun.LfunInstance.validate" in names
    missing = sorted(
        n for n in names if n.split(".")[0] not in tracing.LAYERS or resolve(n) is None
    )
    assert missing == []
