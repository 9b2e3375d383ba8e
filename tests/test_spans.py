"""The benchmark tracer wraps library functions by module and name; a move or
rename in the library must not leave one of its targets dangling."""

import importlib
import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).parent.parent / "perfbench" / "spans.py"


def test_every_traced_target_exists():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for module, name, _ in spans.TARGETS:
        mod = importlib.import_module(f"coalstab.{module}")
        assert callable(getattr(mod, name, None)), f"coalstab.{module}.{name}"
