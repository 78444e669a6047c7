"""The benchmark's traced span sites exist in the package.

``bench/child.py`` patches each (module, attribute) site of its ``SPANS``
after ``import wlab.cli``.  A site that is renamed or deleted is skipped
there, and every ``*.self_s`` metric of the run then reads ``missing``; this
test catches that in the unit suite.  The file is loaded by path and not
changed.
"""

import importlib
import importlib.util
from pathlib import Path

import wlab.cli  # noqa: F401  (the import the benchmark makes before patching)

CHILD = Path(__file__).resolve().parents[1] / "bench" / "child.py"


def load_child():
    spec = importlib.util.spec_from_file_location("bench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child


def test_every_span_site_exists():
    sites = [site for sites in load_child().SPANS.values() for site in sites]
    assert ("wlab.congruence", "run_suite") in sites
    missing = [(mod, attr) for mod, attr in sites if not hasattr(importlib.import_module(mod), attr)]
    assert missing == []
