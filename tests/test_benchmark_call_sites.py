"""The benchmark's tracer must find every name it wraps.

perfbench/tracing.py wraps fedcast functions at the attribute their callers
look up. Renaming, merging or moving one of them would break only the
benchmark's own suite, which sits outside this one; this test makes such a
change fail here too.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_call_site_resolves():
    tracing = load_tracing()
    for owner, attr in tracing._call_sites():
        target = getattr(owner, attr, None)
        assert callable(target), f"{owner.__name__}.{attr} is gone"
        # the tracer files each span under the layer that defines the callee
        layer = target.__module__.removeprefix("fedcast.")
        assert layer in tracing.LAYERS, f"{owner.__name__}.{attr}: layer {layer}"
    for op in tracing.ENGINE_OPS:
        assert callable(getattr(tracing.engine, op, None)), f"engine.{op} is gone"
