"""Pivoting-work lint: a round of ``GreenContext._cone_project`` reads only
the free set's rows of the exterior matrix, so its work scales with the
free set.  Every read of ``self._kee`` there must index rows; a bare
``self._kee`` (a product with the whole matrix) or an all-``:`` index
fails."""

import ast
import pathlib

import condenser

BALAYAGE = pathlib.Path(condenser.__file__).parent / "balayage.py"


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
