"""The names perfbench/tracer.py wraps must exist in the package.

The benchmark harness patches functions by module attribute (see
``tracer.install``); a refactor that renames or drops one breaks the
benchmark without failing any other test. This reads the harness's own
target list without installing any wrapper.
"""

import importlib.util
from pathlib import Path

from longremix import report

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_callable():
    targets = load_tracer()._targets()
    assert targets
    for module, attr, name, _ in targets:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({name})"


def test_bundle_path_exists_for_the_byte_count():
    assert callable(report.ReportBundle.path)
