"""Every per-layer name that BENCHMARK.json lists names a function the
benchmark's tracer can wrap.

The tracer (bench/tracer.py) wraps the public functions that each layer
module of the package defines, and a traced result carries one value per
listed name. A function renamed, made private or deleted drops its names
from that result, so each listed `module.function` must stay a public
function of its module.
"""

import importlib
import inspect
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# computed by the benchmark itself, not read from a wrapped function
UNWRAPPED = {"tracing.overhead_s"}


def test_every_per_layer_name_is_a_public_function_of_its_module():
    listed = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    targets = sorted(
        {entry["name"].rsplit(".", 1)[0] for entry in listed if entry["name"] not in UNWRAPPED}
    )
    assert targets
    for target in targets:
        layer, name = target.split(".")
        module = importlib.import_module(f"dfedsim.{layer}")
        fn = getattr(module, name, None)
        assert inspect.isfunction(fn), target
        assert fn.__module__ == module.__name__, target
        assert not name.startswith("_"), target
