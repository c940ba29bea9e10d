"""Every function the benchmark's tracer wraps must exist in the package,
or ``bench/run.py --trace 1`` stops with a KeyError in ``Tracer.install``."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(name, module, qualname)
            for name, targets in tracer.TARGETS.items()
            for module, qualname in targets]


@pytest.mark.parametrize("name,module,qualname", _targets())
def test_trace_target_resolves(name, module, qualname):
    mod = importlib.import_module(f"skewcover.{module}")
    owner_name, _, attr = qualname.rpartition(".")
    owner = getattr(mod, owner_name) if owner_name else mod
    # install() reads the owner's own namespace, not inherited attributes
    assert attr in owner.__dict__, f"{name}: {module}.{qualname} is missing"
    assert callable(owner.__dict__[attr])
