"""The names the benchmark's trace wraps must exist on chemovir.

``python3 bench/run.py --trace 1`` replaces each (module, attribute) of
``bench/spans.py``'s PATCHES by a traced wrapper; a refactor that drops
one of them would make the traced benchmark fail with AttributeError.
"""

import importlib
import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def patches():
    sys.path.insert(0, BENCH)
    try:
        spans = importlib.import_module("spans")
    finally:
        sys.path.remove(BENCH)
    return spans.PATCHES


@pytest.mark.parametrize("module,attribute", patches())
def test_patched_name_resolves(module, attribute):
    target = importlib.import_module(f"chemovir.{module}")
    assert callable(getattr(target, attribute))
