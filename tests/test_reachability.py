"""Every top-level definition in ``src/fdia_lab`` is reachable.

A static name closure over the package's syntax trees. The roots are
``cli.main`` and every name that ``tests/test_acceptance.py`` uses and the
package defines at top level. A reached definition reaches every such name
its source mentions, as a bare name or as an attribute. Names are matched
across modules by name alone, which can only over-approximate: a
definition this closure misses is called by neither the command line nor
an acceptance criterion.
"""

import ast
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fdia_lab"


def mentioned(node: ast.AST) -> set[str]:
    """Every bare name and attribute name within ``node``."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def definitions() -> dict[str, list[ast.stmt]]:
    """Each name the package defines at the top level of a module, with the
    statements that define it."""
    defs: dict[str, list[ast.stmt]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [n.id for target in targets for n in ast.walk(target)
                         if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                defs.setdefault(name, []).append(stmt)
    return defs


def reached(defs: dict[str, list[ast.stmt]], roots) -> set[str]:
    """Every definition in ``defs`` reached from ``roots``."""
    todo, seen = list(roots), set()
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            for stmt in defs[name]:
                todo.extend(mentioned(stmt) & defs.keys())
    return seen


def criteria_names(defs: dict[str, list[ast.stmt]]) -> set[str]:
    """The package's top-level names that ``tests/test_acceptance.py`` uses."""
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    return mentioned(acceptance) & defs.keys()


def test_every_top_level_definition_is_reached_from_main_or_the_criteria():
    defs = definitions()
    seen = reached(defs, ["main", *criteria_names(defs)])
    dunder = {name for name in defs if name.startswith("__") and name.endswith("__")}
    assert sorted(defs.keys() - seen - dunder) == []


def test_only_the_listed_definitions_are_reached_from_the_criteria_alone():
    # the ROADMAP lists these: the DC state estimation criterion's model and
    # the oracles and per-tick paths the criteria compare the pipeline with
    defs = definitions()
    alone = reached(defs, criteria_names(defs)) - reached(defs, ["main"])
    assert sorted(alone) == sorted([
        "DcSystem", "wls_estimate", "objective", "chi_square_threshold", "as_matrix",
        "inject", "initial_state", "update_classic", "update_improved",
        "calibrate_channels", "evaluate_stream", "combine", "combine_streams",
        "FusionVerdict"])


def test_the_benchmark_traces_only_these_layers_that_main_misses(monkeypatch):
    # benchmarks/tracing.py wraps each LAYERS function that exists and records
    # no span for one that does not; the benchmark's every-layer test fails on
    # these (ROADMAP item 1), and a refactor that moves a traced function out
    # of main's reach must change this list
    spec = importlib.util.spec_from_file_location("benchmark_tracing",
                                                  ROOT / "benchmarks" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up
    spec.loader.exec_module(tracing)
    seen = reached(definitions(), ["main"])
    assert sorted(layer.name for layer in tracing.LAYERS if layer.attr not in seen) == [
        "attack.inject", "attack.labels_for", "data_pipeline.write_dataset_csv",
        "fusion.combine_streams", "io_utils.write_csv", "passive_detect.calibrate_channels",
        "passive_detect.evaluate_stream", "passive_detect.write_verdicts_csv",
        "signal_model.read_trace_csv", "signal_model.write_trace_csv"]
