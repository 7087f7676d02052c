"""The benchmark tracer's targets must name live attributes of the package.

``perfbench/tracer.py`` wraps functions by (module, attribute path) with
``getattr``; a rename in ``src/`` that drops one of them would only show up
when the benchmark runs.  The tracer needs only the standard library, so it
is loaded from its file without touching the benchmark's other modules.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / 'perfbench' / 'tracer.py'


def _targets():
    spec = importlib.util.spec_from_file_location('_perfbench_tracer', TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize('modname, path', [t[:2] for t in _targets()],
                         ids=lambda x: x)
def test_target_resolves(modname, path):
    owner = importlib.import_module(modname)
    for attr in path.split('.'):
        owner = getattr(owner, attr)
    assert callable(owner)
