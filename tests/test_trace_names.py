"""Every name the benchmark's tracer wraps (perfbench/tracing.py) exists in
complab, so a rename cannot silently break a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module_name: str, qualname: str):
    owner = importlib.import_module(f"complab.{module_name}")
    for part in qualname.split("."):
        assert hasattr(owner, part), f"complab.{module_name}.{qualname}: no {part!r}"
        owner = getattr(owner, part)
    return owner


def test_every_trace_target_resolves():
    tracing = _tracing()
    assert tracing.TARGETS
    for module_name, qualname in tracing.TARGETS:
        assert callable(_resolve(module_name, qualname)), f"{module_name}.{qualname}"


def test_every_autograd_op_resolves():
    tracing = _tracing()
    for op in tracing.AUTOGRAD_OPS:
        assert callable(_resolve("autograd", op)), op
