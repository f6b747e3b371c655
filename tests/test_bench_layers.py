"""Every entry point the benchmark tracer wraps must still exist, so that a
rename in the package fails here instead of in a traced benchmark run."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", os.path.join(ROOT, "bench", "tracer.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_layers_resolve():
    tracer = _load_tracer()
    for path, _, _ in tracer.LAYERS:
        owner, attr, original = tracer._resolve(path)
        assert callable(original), path
        assert getattr(owner, attr) is original, path
