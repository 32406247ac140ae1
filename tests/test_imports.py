"""trajsel's modules import one another without a cycle.

Importing one module cannot show a cycle: the package's __init__ imports
most modules first. So the graph is read from the source: every relative
`from . import a, b` and `from .x import ...` statement in src/trajsel.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "trajsel")


def import_graph() -> dict[str, set[str]]:
    """Module name -> the package modules it imports ("__init__" for the package)."""
    modules = {f[:-3] for f in os.listdir(SRC) if f.endswith(".py")}
    graph = {}
    for name in modules:
        with open(os.path.join(SRC, name + ".py"), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        deps = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or node.level != 1:
                continue
            if node.module is None:
                deps |= {a.name if a.name in modules else "__init__" for a in node.names}
            else:
                deps.add(node.module.split(".")[0])
        graph[name] = deps - {name}
    return graph


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One import cycle as [a, b, ..., a], or None."""
    state = {}  # 1 while on the DFS path, 2 once finished
    path = []

    def visit(n):
        state[n] = 1
        path.append(n)
        for m in sorted(graph.get(n, ())):
            if state.get(m) == 1:
                return path[path.index(m):] + [m]
            if m not in state and (cycle := visit(m)):
                return cycle
        path.pop()
        state[n] = 2
        return None

    for n in sorted(graph):
        if n not in state and (cycle := visit(n)):
            return cycle
    return None


def test_find_cycle_sees_a_cycle():
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert find_cycle({"a": {"b"}, "b": set(), "c": {"a", "b"}}) is None


def test_graph_reads_both_import_forms():
    graph = import_graph()
    assert "planner" in graph["harness"]  # from . import evaluator, planner
    assert "diffcore" in graph["planner"]  # from .diffcore import (...)


def test_package_imports_have_no_cycle():
    assert find_cycle(import_graph()) is None
