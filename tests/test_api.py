import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cdgraph
from cdgraph import (
    Graph,
    block_decomposition,
    canonical,
    canonical_form,
    check_theorem_2_5,
    check_theorem_3_2,
    check_theorem_3_3,
    checks,
    complete_graph,
    enumerate_nonisomorphic,
    figure2_graph,
    lewis_partition,
    odd_family,
    run_battery,
    validate_partition,
    verify_section_3,
)
from conftest import path_graph, twin_cells_after_search

ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    missing = [name for name in cdgraph.__all__ if not hasattr(cdgraph, name)]
    assert not missing
    assert len(set(cdgraph.__all__)) == len(cdgraph.__all__)


@pytest.fixture
def tracer(perfbench_module):
    return perfbench_module("tracer")


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


def test_canonical_form_refines_once_per_graph(monkeypatch):
    # A traced run splits each canonical_form call into refined_colors
    # (canonical.refine_s) and the rest (canonical.search_s), which holds
    # only while every call refines exactly once, at every n, 0 and 1
    # included.
    sizes = []
    refine = canonical.refined_colors

    def counting(n, adj):
        sizes.append(n)
        return refine(n, adj)

    inputs = [Graph(0, []), *(g for n in range(1, 6) for g in enumerate_nonisomorphic(n))]
    inputs += [path_graph(30), complete_graph(9), odd_family(14), figure2_graph()]
    inputs += twin_cells_after_search().values()
    monkeypatch.setattr(canonical, "refined_colors", counting)
    for g in inputs:
        canonical_form(g)
    assert sizes == [g.n for g in inputs]


def test_package_imports_only_the_standard_library():
    # cdgraph is stdlib-only: every module a package file imports is
    # cdgraph itself or part of the standard library.
    allowed = sys.stdlib_module_names | {"cdgraph"}
    sources = sorted((ROOT / "src" / "cdgraph").glob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # not an import, or a relative one within cdgraph
            outside += [f"{path.name}: {name}" for name in names if name.split(".")[0] not in allowed]
    assert outside == []


def test_sources_parse_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10; parsing with the
    # 3.10 grammar refuses syntax that only a later Python accepts.
    sources = sorted((ROOT / "src" / "cdgraph").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_cross_module_private_names_are_listed():
    # A package module that reads another module's underscore name is
    # coupled to its internals; each such reference is listed here, so a
    # new one is a visible decision. The package imports itself relatively.
    allowed = {"graph._bits", "graph._layers", "lewis._failed_characterizations"}
    used = set()
    for path in sorted((ROOT / "src" / "cdgraph").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        modules = {}  # local name -> the package module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                for alias in node.names:
                    if node.module is None:
                        modules[alias.asname or alias.name] = alias.name
                    elif alias.name.startswith("_"):
                        used.add(f"{node.module}.{alias.name}")
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
                and node.attr.startswith("_")
                and not node.attr.startswith("__")
            ):
                used.add(f"{modules[node.value.id]}.{node.attr}")
    assert used == allowed


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
