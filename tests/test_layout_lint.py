"""Layout lint: each cell rule is stated once.  A flat cell's radius comes
from ``model.surface_cells``, a volume cell's from ``model._volume_layer``
(or the cubic grid of ``model.ball_volume_nodes``), every spiral-lattice
sphere layer from ``model.sphere_layer``, which holds the cell count rule,
every disk whose count follows from a cell size from
``model.disk_layer``, which holds the disk count rule, and cells are
trimmed only where node sets meet: across a condenser's plates, and on the
sweep plane's context."""

import ast

from test_pairwise_lint import PACKAGE, package_calls


def factor_reads(name: str) -> set:
    """(module, enclosing function) of every read of the constant ``name``
    in the package, by bare name or as an attribute."""
    found = set()

    def visit(node, owner, module):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
            read = (isinstance(child, ast.Name) and child.id == name
                    and isinstance(child.ctx, ast.Load)) or \
                (isinstance(child, ast.Attribute) and child.attr == name)
            if read:
                found.add((module, owner))
            visit(child, inner, module)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), None, path.stem)
    return found


def test_surface_cell_radius_is_read_in_surface_cells_only():
    assert factor_reads("SURFACE_CELL_RADIUS_FACTOR") == {
        ("model", "surface_cells")}


def test_volume_cell_radius_is_read_in_the_volume_layouts_only():
    assert factor_reads("VOLUME_CELL_RADIUS_FACTOR") == {
        ("model", "_volume_layer"), ("model", "ball_volume_nodes")}


def test_every_sphere_layer_counts_its_cells_in_sphere_layer():
    assert set(package_calls("sphere_surface_nodes")) == {
        ("model", "sphere_layer")}


def test_every_derived_disk_count_is_disk_layers():
    # disk plates and the sweep plane's core count their cells by
    # disk_layer; every other disk_nodes call passes a fixed count, a
    # literal or a plate's explicit ``count``
    assert set(package_calls("disk_layer")) == {
        ("model", "plate_nodes"), ("scenarios", "sweep_plane_context")}
    calls = package_calls("disk_nodes")
    assert ("model", "disk_layer") in calls
    fixed = [call.args[2] for owner, cs in calls.items()
             if owner != ("model", "disk_layer") for call in cs]
    assert fixed and all(
        isinstance(c, ast.Constant) or
        (isinstance(c, ast.Attribute) and c.attr == "count") for c in fixed)


def test_cells_are_trimmed_where_node_sets_meet():
    assert set(package_calls("trim_cell_radii")) == {
        ("model", "trim_across_plates"), ("scenarios", "sweep_plane_context")}
