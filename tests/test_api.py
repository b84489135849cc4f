import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cdgraph
from cdgraph import (
    block_decomposition,
    check_theorem_2_5,
    check_theorem_3_2,
    check_theorem_3_3,
    checks,
    figure2_graph,
    lewis_partition,
    run_battery,
    validate_partition,
    verify_section_3,
)
from conftest import path_graph

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


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


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # Every `cdgraph check` process pays for what `cdgraph.cli` imports.
    # -S keeps site-packages .pth imports out of the count.
    code = "import cdgraph.cli, sys; print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "[]\n"


def result_records() -> dict:
    """One of each result record, each from a real call on fresh graphs."""
    report = run_battery(figure2_graph())
    p4 = path_graph(4)
    p = lewis_partition(p4, 0)
    return {
        "CheckReport": report,
        "CheckResult": report.results[0],
        "Inference": report.inferences[0],
        "LewisPartition": p,
        "PartitionValidity": validate_partition(p4, p),
        "OddDegreeVerdict": check_theorem_3_2(p4, p),
        "TheoremVerdict-2.5": check_theorem_2_5(p4, p),
        "TheoremVerdict-3.3": check_theorem_3_3(p4),
        "BlockDecomposition": block_decomposition(p4),
        "EnumerationSummary": verify_section_3(4),
    }


def hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("name", list(result_records()))
def test_result_records_are_immutable_values(name):
    a, b = result_records()[name], result_records()[name]
    fields = list(type(a).__annotations__)
    with pytest.raises(AttributeError):
        setattr(a, fields[0], None)
    assert a == b
    if all(hashable(getattr(a, field)) for field in fields):
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)
