"""Pairwise-work lint: one way to read pairs of points.  Only
``kernel._riesz_block`` computes pairwise distances, with ``cdist``
(neighbour queries go through k-d trees), and only ``kernel`` and the
context's two readers call it: the sweep's cross matrix
``GreenContext._cross_matrix`` and the cone projection's exterior blocks
``GreenContext._exterior_block``.  Inside ``kernel``, only the one
row-block writer of symmetric matrices and ``potential`` call it.  Every blocked reader takes its row blocks from
``row_blocks(P, Q)``, and ``model`` defines one block size for them.

One way to merge by position: only ``model.merge_by_position`` calls
``np.unique`` along an axis, and it is called only where a shared node is
met: the condenser's coincidence check, the nearest-neighbour trim, the
resultant and the distinct-node check of a matrix assembly.  The solves
read the condenser's joint node list and position index, so no solver
merges."""

import ast
import pathlib

import condenser

PACKAGE = pathlib.Path(condenser.__file__).parent


def calls_by_function(source: str, name: str) -> list:
    """(enclosing function, call node) of every call of ``name``, by bare
    name or as an attribute; module-level calls have function None."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
            if isinstance(child, ast.Call):
                func = child.func
                called = func.id if isinstance(func, ast.Name) else \
                    func.attr if isinstance(func, ast.Attribute) else None
                if called == name:
                    found.append((owner, child))
            visit(child, inner)

    visit(ast.parse(source), None)
    return found


def package_calls(name: str) -> dict:
    """(module, enclosing function) -> calls of ``name`` in the package."""
    out: dict = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for owner, call in calls_by_function(path.read_text(), name):
            out.setdefault((path.stem, owner), []).append(call)
    return out


def model_tree():
    return ast.parse((PACKAGE / "model.py").read_text())


def test_lint_sees_nested_and_attribute_calls():
    src = ("def f():\n    def g():\n        m.cdist(a, b)\n"
           "cdist(a, b)\n")
    assert [owner for owner, _ in calls_by_function(src, "cdist")
            ] == ["g", None]


def test_only_the_kernel_block_calls_cdist():
    assert set(package_calls("cdist")) == {("kernel", "_riesz_block")}


def test_kernel_blocks_are_read_in_kernel_and_the_context_readers_only():
    outside = {owner: len(calls) for owner, calls in
               package_calls("_riesz_block").items() if owner[0] != "kernel"}
    assert outside == {("balayage", "_cross_matrix"): 1,
                       ("balayage", "_exterior_block"): 1}


def test_kernel_reads_blocks_in_its_writer_and_potential_only():
    inside = {owner for module, owner in package_calls("_riesz_block")
              if module == "kernel"}
    assert inside == {"_lower_row_blocks", "potential"}


def test_row_blocks_takes_exactly_two_point_arrays():
    (fn,) = [node for node in model_tree().body
             if isinstance(node, ast.FunctionDef) and node.name == "row_blocks"]
    args = fn.args
    assert [a.arg for a in args.args] == ["P", "Q"]
    assert not (args.defaults or args.kwonlyargs or args.vararg
                or args.kwarg or args.posonlyargs)
    calls = [c for cs in package_calls("row_blocks").values() for c in cs]
    assert calls and all(len(c.args) == 2 and not c.keywords for c in calls)


def test_model_defines_one_block_size():
    names = [t.id for node in model_tree().body if isinstance(node, ast.Assign)
             for t in node.targets if isinstance(t, ast.Name)]
    assert [n for n in names if n.endswith("_ENTRIES")] == ["BLOCK_ENTRIES"]


def axis_unique_calls(source: str) -> list:
    """Enclosing functions of the ``unique`` calls given an ``axis``."""
    return [owner for owner, call in calls_by_function(source, "unique")
            if any(k.arg == "axis" for k in call.keywords)]


def test_lint_sees_an_axis_unique():
    src = ("def f(a):\n    return np.unique(a, axis=0)\n"
           "def g(a):\n    return np.unique(a)\n")
    assert axis_unique_calls(src) == ["f"]


def test_one_merge_by_position():
    assert [(path.stem, owner) for path in sorted(PACKAGE.glob("*.py"))
            for owner in axis_unique_calls(path.read_text())
            ] == [("model", "merge_by_position")]
    calls = package_calls("merge_by_position")
    assert set(calls) == {
        ("model", "__post_init__"), ("model", "_nearest_neighbor_distances"),
        ("model", "resultant"), ("kernel", "_require_distinct")}
    assert all(len(found) == 1 for found in calls.values())
