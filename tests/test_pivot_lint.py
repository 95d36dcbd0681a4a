"""Pivoting-work lint.

A round of ``GreenContext._cone_project`` reads only the free set's
columns of the exterior matrix K_EE, and no read spans every exterior row:
the free set's square K[F, F], ``self._exterior_block(idx, idx)``, and the
held rows' gradient through blocks ``self._exterior_block(held[rows],
idx)``, one per ``rows`` of a ``row_blocks`` loop.  A context keeps no
K_EE, only its Cholesky factor, one RFP triangle (``self._factor``),
factored by ``dpftrf`` in ``GreenContext.__init__`` only and read only
there and in ``_sweep``.  ``_cone_project`` reads K_EE only through those
two block reads: any other read (the factor, the sweep's whole-exterior
source reader ``self._cross_matrix``, a kernel reader called directly)
fails, and only ``_cone_project`` reads ``_exterior_block``.  No module
defines or reads a stored K_EE (``_kee``) or a row reader ``rows``, and
``PackedMatrix`` defines no ``rows`` method.

A round of the pivoting in ``_pg`` takes one factor: ``spftrf`` (the
float32 factor, in rectangular full packed form) is called only in
``_free_block_factor`` and ``dsytrf`` only in ``_bordered_solver``, both
only in ``_free_block_solver``, which only ``_solve_pattern`` calls, and
``_solve_pattern`` is called once, in ``minimize_quadratic``'s round.
``spftrs`` solves only in ``_free_block_solver``, and ``_pg`` imports none
of ``cho_factor``, ``cho_solve`` and ``LinAlgError``, so no square float32
factor comes back.  The free block is gathered by rows, and no module of
the package uses ``np.ix_`` (an index-array copy several times slower).

The Green matrix is written from row-block products: no ``@`` in
``GreenContext.green_matrix`` or in ``_subtract_swept``, its per-block
correction, has two whole-array operands (unsubscripted names or their
attributes), so no dense n x n product such as ``theta.T @ B`` comes back.

Every QP matrix arrives packed: a ``PackedMatrix`` is made and written only
by the kernel's packed writer and ``GreenContext.green_matrix``, both from
kernel row blocks, so no module converts a dense array into one.  No
module defines or calls a dense kernel-matrix writer (``assemble_matrix``,
``KernelMatrix``).

One QP engine: no module of the package imports ``scipy.optimize``, and
``_pg`` defines none of the names of the projected-gradient engine it
replaced."""

import ast
import pathlib

import condenser
from test_layering_lint import public_names
from test_pairwise_lint import calls_by_function, package_calls

BALAYAGE = pathlib.Path(condenser.__file__).parent / "balayage.py"
PG = pathlib.Path(condenser.__file__).parent / "_pg.py"


# the kernel's readers of kernel entries
KERNEL_READERS = ("_riesz_block", "_lower_row_blocks", "_packed_matrix",
                  "potential")


def exterior_reads(source: str) -> list:
    """Line numbers of the reads of K_EE in ``source`` other than calls of
    ``self._exterior_block``: uses of ``self._factor`` or ``self._kee``,
    calls of the whole-exterior reader ``_cross_matrix`` and calls of the
    kernel's readers, bare or as attributes."""
    readers = KERNEL_READERS + ("_cross_matrix",)
    return sorted(
        {node.lineno for node in ast.walk(ast.parse(source))
         if (isinstance(node, ast.Attribute)
             and node.attr in ("_kee", "_factor")
             and isinstance(node.value, ast.Name) and node.value.id == "self")
         or (isinstance(node, ast.Call) and (
             getattr(node.func, "id", None) in readers
             or getattr(node.func, "attr", None) in readers))})


def exterior_block_reads(source: str) -> list:
    """Shape of each ``_exterior_block`` call in ``source``, in source
    order: "square" for ``(idx, idx)``, the same name twice; "row block"
    for ``(held[rows], idx)``, two names with ``rows`` the target of an
    enclosing ``for`` over a ``row_blocks`` call; "other" for any other
    read, such as one of every held row at once."""
    def block_loops(node, targets, out):
        for child in ast.iter_child_nodes(node):
            inner = targets
            if isinstance(child, ast.For) and isinstance(
                    child.target, ast.Name) and isinstance(
                    child.iter, ast.Call) and "row_blocks" in (
                    getattr(child.iter.func, "id", None),
                    getattr(child.iter.func, "attr", None)):
                inner = targets | {child.target.id}
            if isinstance(child, ast.Call) and getattr(
                    child.func, "attr", None) == "_exterior_block":
                out.append((child.lineno, child.col_offset,
                            shape(child.args, targets)))
            block_loops(child, inner, out)
        return out

    def shape(args, targets):
        names = [isinstance(a, ast.Name) for a in args]
        if len(args) == 2 and all(names) and args[0].id == args[1].id:
            return "square"
        if len(args) == 2 and names[1] and isinstance(
                args[0], ast.Subscript) and isinstance(
                args[0].value, ast.Name) and isinstance(
                args[0].slice, ast.Name) and args[0].slice.id in targets:
            return "row block"
        return "other"

    return [kind for *_, kind in sorted(
        block_loops(ast.parse(source), frozenset(), []))]


def method_source(cls, name: str) -> str:
    """Source of method ``name`` of class ``cls`` in balayage, or of the
    module-level function ``name`` when ``cls`` is None."""
    source = BALAYAGE.read_text()
    body = ast.parse(source).body
    if cls is not None:
        body = [item for node in body
                if isinstance(node, ast.ClassDef) and node.name == cls
                for item in node.body]
    for item in body:
        if isinstance(item, ast.FunctionDef) and item.name == name:
            return ast.get_source_segment(source, item)
    raise LookupError(f"{cls}.{name} not found")


def test_lint_flags_whole_matrix_products():
    assert exterior_reads(
        "grad = self._kee @ trial - B[:, active]\n") == [1]
    assert exterior_reads("rows = self._kee.rows(idx)\n") == [1]
    assert exterior_reads("x = dpftrs(m, self._factor, b)[0]\n") == [1]
    assert exterior_reads(
        "K = kernelmod._packed_matrix(p, r, k)\n"
        "K = _riesz_block(p, p[idx], k, rho_q=r[idx])\n"
        "g = potential(mu, ext.positions, self.riesz)\n"
        "for a, blk in kernelmod._lower_row_blocks(p, r, k):\n"
        "    pass\n") == [1, 2, 3, 4]
    assert exterior_reads("K = self._cross_matrix(nodes)\n"
                          "fac = cho_factor(K[idx])\n") == [1]
    assert exterior_reads("K = self._exterior_block(idx, idx)\n"
                          "fac = cho_factor(K.T, lower=True)\n") == []


def test_lint_sees_exterior_block_shapes():
    assert exterior_block_reads(
        "K = self._exterior_block(idx, idx)\n"
        "for rows in row_blocks(p[held], p[idx]):\n"
        "    g[rows] += self._exterior_block(held[rows], idx) @ pos\n"
        ) == ["square", "row block"]
    # every held row at once, every exterior row, a square of two sets and
    # a block outside a row_blocks loop are other reads
    assert exterior_block_reads(
        "g = self._exterior_block(held, idx) @ pos\n"
        "K = self._exterior_block(np.arange(m), idx)\n"
        "K = self._exterior_block(idx, jdx)\n"
        "for rows in blocks(p, q):\n"
        "    g = self._exterior_block(held[rows], idx)\n"
        ) == ["other"] * 4


def whole_array_products(source: str) -> list:
    """Line numbers of the ``@`` products in ``source`` whose operands are
    both whole arrays: names or attributes of names, unsubscripted."""
    def whole(node):
        while isinstance(node, ast.Attribute):
            node = node.value
        return isinstance(node, ast.Name)
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.MatMult)
            and whole(node.left) and whole(node.right)]


def test_lint_flags_whole_array_products():
    assert whole_array_products("cross = theta.T @ B\n") == [1]
    assert whole_array_products("c = self.theta.T @ self.B\n") == [1]
    assert whole_array_products(
        "block = theta[:, rows].T @ B[:, :rows.stop]\n"
        "mirror = B[:, rows].T @ theta[:, :rows.stop]\n") == []


def test_green_matrix_forms_no_whole_product():
    writer = method_source("GreenContext", "green_matrix")
    correction = method_source(None, "_subtract_swept")
    assert callers(writer, "_subtract_swept")
    assert "@" in correction
    for source in (writer, correction):
        assert whole_array_products(source) == []


def test_cone_project_reads_only_free_columns():
    source = method_source("GreenContext", "_cone_project")
    assert exterior_reads(source) == []
    assert exterior_block_reads(source) == ["square", "row block"]
    assert attribute_owners(BALAYAGE.read_text(), "_exterior_block") == [
        "_cone_project"] * 2
    assert attribute_owners(BALAYAGE.read_text(), "_cross_matrix") == [
        "sweep_columns"]


def attribute_owners(source: str, attr: str) -> list:
    """Function around each use of ``<x>.<attr>`` in ``source``, in source
    order: a method's or a top-level function's name, None elsewhere."""
    out = []
    for top in ast.parse(source).body:
        items = top.body if isinstance(top, ast.ClassDef) else [top]
        for item in items:
            name = item.name if isinstance(item, ast.FunctionDef) else None
            out += [(node.lineno, name) for node in ast.walk(item)
                    if isinstance(node, ast.Attribute) and node.attr == attr]
    return [name for _, name in sorted(out)]


def class_methods(source: str, cls: str) -> list:
    """Names of the methods class ``cls`` of ``source`` defines."""
    return [item.name for node in ast.parse(source).body
            if isinstance(node, ast.ClassDef) and node.name == cls
            for item in node.body if isinstance(item, ast.FunctionDef)]


def test_lint_sees_methods_and_attribute_owners():
    source = ("class P:\n    def rows(self, idx):\n        return self._kee\n"
              "    def __init__(self):\n        self._kee = 1\n"
              "def f(ctx):\n    return ctx._kee.rows(0)\n"
              "_kee = P()._kee\n")
    assert class_methods(source, "P") == ["rows", "__init__"]
    assert class_methods(source, "Q") == []
    assert attribute_owners(source, "_kee") == ["rows", "__init__", "f",
                                                None]
    assert attribute_uses(source, "rows") == [7]


def test_exterior_factor_read_only_to_factor_and_sweep():
    assert attribute_owners(BALAYAGE.read_text(), "_factor") == [
        "__init__", "_sweep"]
    assert [path.name for path in sorted(PG.parent.glob("*.py"))
            if attribute_uses(path.read_text(), "_factor")] == [
        "balayage.py"]


def test_no_stored_exterior_matrix_or_row_reader():
    for path in sorted(PG.parent.glob("*.py")):
        source = path.read_text()
        assert attribute_uses(source, "_kee") == [], path.name
        assert attribute_uses(source, "rows") == [], path.name
    assert "rows" not in class_methods(PG.read_text(), "PackedMatrix")


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


def test_no_module_gathers_through_ix():
    assert [path.name for path in sorted(PG.parent.glob("*.py"))
            if attribute_uses(path.read_text(), "ix_")] == []


PACKED_WRITERS = {("kernel", "_packed_matrix"), ("balayage", "green_matrix")}


def packed_stores(source: str) -> list:
    """Line numbers of the stores into ``<x>.ap``, whole or by subscript."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Attribute, ast.Subscript))
            and isinstance(node.ctx, ast.Store) and "ap" in (
                getattr(node, "attr", None),
                getattr(getattr(node, "value", None), "attr", None))]


def test_lint_sees_a_dense_conversion():
    source = ("def pack(A):\n    out = PackedMatrix(len(A))\n"
              "    out.put_rows(0, A)\n    return out\n"
              "P.ap[:] = A[np.tril_indices(n)]\nP.ap = a\nx = P.ap[0]\n")
    for name in ("PackedMatrix", "put_rows"):
        assert [owner for owner, _ in calls_by_function(source, name)
                ] == ["pack"]
    assert packed_stores(source) == [5, 6]


def test_every_qp_matrix_arrives_packed():
    for name in ("PackedMatrix", "put_rows"):
        assert set(package_calls(name)) == PACKED_WRITERS
    assert package_calls("pack") == {}
    assert [path.name for path in sorted(PG.parent.glob("*.py"))
            if packed_stores(path.read_text())] == ["_pg.py"]
    for name in ("assemble_matrix", "KernelMatrix"):
        assert package_calls(name) == {}
        assert [path.name for path in sorted(PG.parent.glob("*.py"))
                if name in public_names(path.read_text())] == []


def test_exterior_factor_only_in_the_context():
    assert set(package_calls("dpftrf")) == {("balayage", "__init__")}
    assert len(package_calls("dpftrf")[("balayage", "__init__")]) == 1


def imported_names(source: str) -> set:
    """Names imported by ``from ... import`` anywhere in ``source``."""
    return {a.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) for a in node.names}


def test_lint_sees_imported_names():
    source = ("from scipy.linalg import (LinAlgError,\n    cho_factor)\n"
              "import numpy\ndef f():\n    from x import cho_solve\n")
    assert imported_names(source) == {"LinAlgError", "cho_factor",
                                      "cho_solve"}


def test_pg_factors_once_per_round():
    source = PG.read_text()
    assert callers(source, "spftrf") == ["_free_block_factor"]
    assert callers(source, "spftrs") == ["_free_block_solver"] * 2
    assert imported_names(source) & {
        "cho_factor", "cho_solve", "LinAlgError"} == set()
    assert callers(source, "dsytrf") == ["_bordered_solver"]
    assert callers(source, "_free_block_factor") == ["_free_block_solver"]
    assert callers(source, "_bordered_solver") == ["_free_block_solver"]
    assert callers(source, "_free_block_solver") == ["_solve_pattern"]
    assert callers(source, "_solve_pattern") == ["minimize_quadratic"]


def scipy_optimize_imports(source: str) -> list:
    """Line numbers of the imports of ``scipy.optimize`` or of names from
    it, at module level or inside a function."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if (isinstance(node, ast.Import) and any(
                a.name.startswith("scipy.optimize") for a in node.names))
            or (isinstance(node, ast.ImportFrom) and (
                (node.module or "").startswith("scipy.optimize") or (
                    node.module == "scipy" and "optimize" in
                    {a.name for a in node.names})))]


def test_lint_sees_scipy_optimize_imports():
    source = ("import scipy.optimize\nfrom scipy.optimize import nnls\n"
              "from scipy import optimize\nfrom scipy import linalg\n"
              "def f():\n    from scipy.optimize import nnls\n")
    assert scipy_optimize_imports(source) == [1, 2, 3, 6]


def test_one_qp_engine():
    package = PG.parent
    assert [path.name for path in sorted(package.glob("*.py"))
            if scipy_optimize_imports(path.read_text())] == []
    assert public_names(PG.read_text()) & {
        "BURST", "OBJ_REL", "PATIENCE", "project_capped_simplex"} == set()
