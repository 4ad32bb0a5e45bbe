"""The traced benchmark wraps transasym functions by name; they must exist."""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_spanned_names_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    assert tracing.__file__ == str(BENCH / "tracing.py")
    missing = [f"{layer}.{name}" for layer, names in tracing.SPANNED.items()
               for name in names
               if not hasattr(importlib.import_module(f"transasym.{layer}"), name)]
    assert missing == []
