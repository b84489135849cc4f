import importlib.util
import sys
from pathlib import Path

import pytest

import cdgraph
from cdgraph import checks

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_exported_name_resolves():
    missing = [name for name in cdgraph.__all__ if not hasattr(cdgraph, name)]
    assert not missing
    assert len(set(cdgraph.__all__)) == len(cdgraph.__all__)


@pytest.fixture
def tracer(monkeypatch):
    """``perfbench/tracer.py`` imported without writing into ``perfbench/``."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    sys.modules.pop("oracle", None)


def test_benchmark_traced_names_resolve(tracer):
    # A traced benchmark run wraps these names and replays these checks;
    # deleting one from the package would break it.
    missing = [
        f"{layer}.{name}"
        for layer, names in tracer.TRACED.items()
        for name in names
        if not hasattr(importlib.import_module(f"cdgraph.{layer}"), name)
    ]
    assert not missing
    replayed = ["check_" + check.replace("-", "_") for check in tracer.CHECK_IDS]
    assert [name for name in replayed if not hasattr(checks, name)] == []
