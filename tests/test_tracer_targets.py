"""The benchmark tracer's patch targets exist in the package.

`perfbench/tracer.py` wraps each callable named in its SPEC by looking it
up in its owner's `__dict__`, so `Tracer.install` raises KeyError for a
target that was renamed, inlined or only inherited, and every traced
benchmark run fails with it.  This checks the targets on every change,
not only when the slower harness tests run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _spec():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPEC


@pytest.mark.parametrize("module_name, path", [
    target for _, targets, _ in _spec() for target in targets],
    ids=lambda v: v)
def test_tracer_target_is_defined_by_its_owner(module_name, path):
    owner = importlib.import_module(f"nctheta.{module_name}")
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    assert attr in owner.__dict__, f"{module_name}.{path} is not in its owner's __dict__"
