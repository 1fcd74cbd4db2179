"""Every function and method that the benchmark's tracer wraps must exist,
so a refactor cannot silently drop a traced span."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _tables():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.FUNCTIONS, mod.METHODS


FUNCTIONS, METHODS = _tables()


@pytest.mark.parametrize("module,name", FUNCTIONS)
def test_traced_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name))


@pytest.mark.parametrize("module,cls_name,methods", METHODS)
def test_traced_methods_are_defined_on_their_class(module, cls_name, methods):
    cls = getattr(importlib.import_module(module), cls_name)
    missing = [m for m in methods if m not in cls.__dict__]
    assert not missing, f"{module}.{cls_name} does not define {missing}"


def test_bulk_built_maps_pass_through_init(monkeypatch):
    # the tracer registers each VebMap in its __init__ wrapper and sums the
    # probes of the registered maps, so a bulk build must construct through it
    from dynreg.veb import VebMap

    seen = []
    init = VebMap.__init__

    def registering(self, span):
        init(self, span)
        seen.append(self)

    monkeypatch.setattr(VebMap, "__init__", registering)
    m = VebMap.build(8, [2, 5], [1, 2])
    assert seen == [m]
