"""The oracles share no code with the engine they check.

Each oracle's source is read with ``ast``.  Every name that a function or
method body refers to (a call, or a function handed on by name) is followed
through the functions, methods and classes that moikit itself defines; no
path from an oracle may reach the decomposition cache, the divided-difference
table or the operator-integral contraction.  Definitions are matched by bare
name, so a method stands for every method of that name and a class for all
of its methods: the guard can only over-report.
"""

import ast
from pathlib import Path

import pytest

import moikit

SOURCES = sorted(Path(moikit.__file__).parent.glob("*.py"))

ORACLES = (
    "block_triangular_integral",
    "block_triangular_derivative",
    "power_map_derivative",
    "finite_difference_derivative",
    "poly_divided_difference",
    "divided_difference_recursive",
    "divided_difference_mp",
    "divided_difference_quadrature",
    "jacobi_eigh",
    "moi_separated",
)

# the engine: the cached eigensolver, the divided-difference table and its
# levels, and the contraction in the eigenbases
ENGINE = {"_decompose", "divided_difference_grid", "_multiset_table", "_level", "moi_evaluate"}


def _referenced(nodes):
    """The bare names that ``nodes`` and everything under them refer to."""
    names = set()
    for node in nodes:
        for inner in ast.walk(node):
            if isinstance(inner, ast.Name):
                names.add(inner.id)
            elif isinstance(inner, ast.Attribute):
                names.add(inner.attr)
    return names


def reference_graph(texts):
    """Each function, method and class defined in the source ``texts``, by
    bare name, and the names its body refers to (a class refers to its
    methods); definitions of one name are merged."""
    graph = {}
    for text in texts:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                graph.setdefault(node.name, set()).update(_referenced(node.body))
            elif isinstance(node, ast.ClassDef):
                graph.setdefault(node.name, set()).update(
                    item.name for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)))
    return graph


def engine_paths(graph):
    """For each oracle that reaches the engine, one shortest path to it."""
    paths = {}
    for oracle in ORACLES:
        parent = {oracle: None}
        queue = [oracle]
        for name in queue:
            if name in ENGINE:
                path = [name]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                paths[oracle] = path[::-1]
                break
            for callee in sorted(graph.get(name, ())):
                if callee not in parent and (callee in graph or callee in ENGINE):
                    parent[callee] = name
                    queue.append(callee)
    return paths


def moikit_texts():
    return [path.read_text() for path in SOURCES]


def test_every_oracle_is_defined():
    assert set(ORACLES) <= set(reference_graph(moikit_texts()))


def test_no_oracle_reaches_the_engine():
    assert engine_paths(reference_graph(moikit_texts())) == {}


# a definition added beside moikit's own, merged with any of the same name
TAMPERED = {
    "direct_call": ("jacobi_eigh", "def jacobi_eigh(A, vectors=True):\n"
                                   "    return moi_evaluate(A)\n"),
    "through_a_helper": ("block_triangular_integral",
                         "def _helper(bases):\n"
                         "    return _level(bases)\n"
                         "\n"
                         "def _block_integral(form, bases, middles):\n"
                         "    return form(_helper(bases))\n"),
    "handed_on_by_name": ("poly_divided_difference",
                          "def poly_divided_difference(p, nodes):\n"
                          "    return list(map(divided_difference_grid, nodes))\n"),
    "through_a_method": ("moi_separated",
                         "class Probe:\n"
                         "    def functional_calculus(self, f, decomposition):\n"
                         "        return _decompose(decomposition)\n"),
}


@pytest.mark.parametrize("case", sorted(TAMPERED))
def test_an_added_engine_call_is_caught(case):
    oracle, snippet = TAMPERED[case]
    paths = engine_paths(reference_graph([*moikit_texts(), snippet]))
    assert oracle in paths
    assert paths[oracle][0] == oracle and paths[oracle][-1] in ENGINE
