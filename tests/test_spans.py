"""The benchmark tracer's patch targets still exist where it looks for them.

bench/spans.py replaces functions and methods by owner name ("module" or
"module.Class" inside branchgf).  A renamed function, or a method moved
into a base class, would first fail in a traced benchmark run; this test
catches it in the ordinary suite instead.  The tracer file is loaded as
it is, not edited.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()
TARGETS = [(owner, attr) for _name, owner, attr in spans.SPANS + spans.COUNTS]


@pytest.mark.parametrize("owner,attr", TARGETS, ids=[f"{o}.{a}" for o, a in TARGETS])
def test_tracer_target_resolves(owner, attr):
    module_name, _, class_name = owner.partition(".")
    module = importlib.import_module(f"branchgf.{module_name}")
    if class_name:
        cls = getattr(module, class_name)
        # Tracer._patch reads the class's own __dict__, not inherited names.
        assert attr in vars(cls), f"{owner} does not define {attr} itself"
    else:
        assert callable(getattr(module, attr))
