"""The benchmark's trace targets must name functions that still exist.

perfbench/spans.py wraps each TARGETS entry in place; a renamed, deleted or
inherited target would only surface as a crash of a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


@pytest.mark.parametrize("target", _targets(), ids=lambda t: "%s.%s" % t[:2])
def test_trace_target_resolves(target):
    module_name, path, _ = target
    module = importlib.import_module("deltachar." + module_name)
    owner_name, _, attr = path.rpartition(".")
    if owner_name:
        # the tracer reads the owning class's own __dict__, not inherited names
        assert attr in vars(getattr(module, owner_name))
    else:
        assert callable(getattr(module, attr, None))
