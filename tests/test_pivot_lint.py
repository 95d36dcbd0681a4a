"""Pivoting-work lint.

A round of ``GreenContext._cone_project`` reads only the free set's rows of
the exterior matrix, so its work scales with the free set.  Every read of
``self._kee`` there must index rows; a bare ``self._kee`` (a product with
the whole matrix) or an all-``:`` index fails.

A round of the exact finish in ``_pg`` takes one factor: ``cho_factor`` is
called only in ``_free_block_factor``, and that only in ``_exact_finish``.
The free block is gathered by rows and ``take``, never through ``np.ix_``
(an index-array copy several times slower)."""

import ast
import pathlib

import condenser

BALAYAGE = pathlib.Path(condenser.__file__).parent / "balayage.py"
PG = pathlib.Path(condenser.__file__).parent / "_pg.py"


def whole_matrix_reads(source: str) -> list:
    """Line numbers of the reads of ``self._kee`` in ``source`` that are
    not a row selection."""
    parents = {}
    tree = ast.parse(source)
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node

    def full_slice(index):
        parts = index.elts if isinstance(index, ast.Tuple) else [index]
        return all(isinstance(p, ast.Slice) and not (p.lower or p.upper
                                                     or p.step)
                   for p in parts)

    bad = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "_kee" and \
                isinstance(node.value, ast.Name) and node.value.id == "self":
            up = parents.get(node)
            if not (isinstance(up, ast.Subscript) and up.value is node
                    and not full_slice(up.slice)):
                bad.append(node.lineno)
    return bad


def method_source(cls: str, name: str) -> str:
    source = BALAYAGE.read_text()
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and node.name == cls:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == name:
                    return ast.get_source_segment(source, item)
    raise LookupError(f"{cls}.{name} not found")


def test_lint_flags_whole_matrix_products():
    assert whole_matrix_reads(
        "grad = self._kee @ trial - B[:, active]\n") == [1]
    assert whole_matrix_reads("g = np.dot(self._kee, t)\n") == [1]
    assert whole_matrix_reads("g = self._kee[:, :] @ t\n") == [1]
    assert whole_matrix_reads("rows = self._kee[idx]\n"
                              "block = self._kee[idx][:, idx]\n") == []


def test_cone_project_reads_only_free_rows():
    assert whole_matrix_reads(method_source("GreenContext",
                                            "_cone_project")) == []


def callers(source: str, name: str) -> list:
    """Top-level function of ``source`` around each call of ``name`` (a
    bare name or an attribute), in source order; None outside functions."""
    out = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and name in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None)):
                out.append(top.name if isinstance(top, ast.FunctionDef)
                           else None)
    return out


def attribute_uses(source: str, attr: str) -> list:
    """Line numbers of every ``<x>.<attr>`` in ``source``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == attr]


def test_lint_finds_callers_and_attributes():
    source = ("import numpy as np\n"
              "def f(A, F):\n    return A[np.ix_(F, F)], g(1)\n"
              "def h():\n    return m.g(2), g\n"
              "g(3)\n")
    assert callers(source, "g") == ["f", "h", None]
    assert attribute_uses(source, "ix_") == [3]


def test_pg_gathers_without_ix():
    assert attribute_uses(PG.read_text(), "ix_") == []


def test_pg_factors_once_per_round():
    source = PG.read_text()
    assert callers(source, "cho_factor") == ["_free_block_factor"]
    assert callers(source, "_free_block_factor") == ["_exact_finish"]
