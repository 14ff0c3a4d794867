"""Module boundaries of the package, read off its source.

Each shared layout has one owner: ``graphs`` owns the ball table's keys
and the chunk budget, ``chains`` the set families' vertex ranges.  Other
modules go through the owner's methods, so a change of layout stays in one
file.
The private members of one module's classes are read by another only
where pinned below.
"""

import ast
import pathlib

import walklab

PACKAGE = pathlib.Path(walklab.__file__).parent

# (importing module, owner, private name): every read of a private name of
# one package module by another.  Delete an entry when its import goes;
# never add one.
PRIVATE_IMPORTS = {
    ("chains", "graphs", "_level_distances"),
    ("chains", "graphs", "_support_classes"),
    ("hitting", "chains", "_family_blocks"),
    ("hitting", "graphs", "_scan_vertices"),
    ("spectral", "chains", "_family_blocks"),
    ("spectral", "graphs", "_sorted_lookup"),
    ("tree", "graphs", "_check_vertex"),
}

# (reading module, "Class._name"): every read of a private attribute that
# a class of another module defines.  Delete an entry when its read goes;
# never add one.
PRIVATE_ATTRIBUTES = {
    ("chains", "Graph._classes"),
}


def modules():
    """``(name, tree)`` of every module of the package."""
    return [(path.stem, ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(PACKAGE.glob("*.py"))]


def package_imports(tree):
    """``(owner, name)`` of every ``from .owner import name`` and every
    ``from . import owner`` (name None), wherever it stands."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("walklab")):
            owner = (node.module or "").removeprefix("walklab").lstrip(".")
            for alias in node.names:
                found.append((owner, alias.name) if owner
                             else (alias.name, None))
        elif isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names
                      if alias.name.split(".")[0] == "walklab"]
    return found


def test_graphs_imports_nothing_from_the_package():
    [tree] = [tree for name, tree in modules() if name == "graphs"]
    assert package_imports(tree) == []


def test_only_graphs_reads_ball_table_keys():
    # ``.keys()`` calls on dicts are not the table's keys
    reads = []
    for name, tree in modules():
        called = {id(node.func) for node in ast.walk(tree)
                  if isinstance(node, ast.Call)}
        reads += [(name, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "keys"
                  and id(node) not in called]
    assert reads and {name for name, _ in reads} == {"graphs"}


def test_only_chains_reads_family_ranges():
    # a family's layout is its (vertices, start, length) arrays; other
    # modules go through CandidateFamily's methods.  ``exc.start`` is a
    # UnicodeDecodeError's offset, not a family's
    reads = {(name, ast.unparse(node)) for name, tree in modules()
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.ctx, ast.Load)
             and node.attr in {"vertices", "start", "length"}}
    assert {name for name, _ in reads} >= {"chains"}
    assert {read for read in reads if read[0] != "chains"} == {
        ("graphs", "exc.start"), ("reports", "exc.start")}


def private_reads(name, tree):
    """``(name, owner, private)`` of each private name that module
    ``name`` imports from another, or reads off one it imports."""
    found = {(name, owner, imported)
             for owner, imported in package_imports(tree)
             if imported is not None and imported.startswith("_")}
    # ``from . import graphs as G`` and then ``G._name``
    owners = {alias.asname or alias.name: alias.name
              for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.level
              and not node.module for alias in node.names}
    found |= {(name, owners[node.value.id], node.attr)
              for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id in owners and node.attr.startswith("_")}
    return found


def test_private_imports_across_modules_are_pinned():
    found = set()
    for name, tree in modules():
        found |= private_reads(name, tree)
    assert found == PRIVATE_IMPORTS


def sites(names):
    """``module.function`` of each top-level function or method of the
    package that reads one of ``names``, once per read, as a name or an
    attribute."""
    found = []
    for name, tree in modules():
        for top in tree.body:
            defs = [top] if not isinstance(top, ast.ClassDef) else top.body
            for func in defs:
                if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    found += [f"{name}.{func.name}" for node in ast.walk(func)
                              if getattr(node, "id", getattr(node, "attr",
                                                             None)) in names
                              and isinstance(node.ctx, ast.Load)]
    return sorted(found)


def test_only_the_scan_reads_ball_edges():
    # the sphere-hit solve counts each ball's excess off its own moves;
    # graphs._ball_edges also looks up every sphere vertex's neighbors
    assert sites({"_ball_edges"}) == ["graphs.assumption1_scan"]


def test_one_dense_eigensolver_call_site():
    # numpy's and scipy's dense symmetric solvers, and the LAPACK handles
    # of spectral, are read in one place: the block solve; the two-stage
    # symbol is called only through its wrapper
    assert sites({"eigvalsh", "eigh", "_SYEVD", "_HEEVD",
                  "_dsyevd_2stage"}) == ["spectral._block_eigenvalues"] * 3
    assert sites({"_DSYEVD_2STAGE"}) == ["spectral._call_dsyevd_2stage"] * 2


def test_one_bfs_ball_builder():
    # the table and the scan take their balls from _ball_keys;
    # the transport takes vertex 0's and runs no traversal of its own
    assert sites({"_ball_keys"}) == [
        "graphs._build_ball_table", "graphs._moved_balls",
        "graphs.assumption1_scan"]
    [moved] = [node for node in ast.walk(dict(modules())["graphs"])
               if isinstance(node, ast.FunctionDef)
               and node.name == "_moved_balls"]
    called = [getattr(node.func, "id", getattr(node.func, "attr", None))
              for node in ast.walk(moved) if isinstance(node, ast.Call)]
    assert not set(called) & {"expand", "_expand", "_bfs_levels",
                              "_level_distances", "bfs_distances",
                              "bfs_prefixes", "breadth_first_order"}
    [anchors] = [node.args[1] for node in ast.walk(moved)
                 if isinstance(node, ast.Call)
                 and getattr(node.func, "id", None) == "_ball_keys"]
    assert ast.unparse(anchors) == "np.zeros(1, dtype=np.int64)"


def is_private(attr):
    return attr.startswith("_") and not (attr.startswith("__")
                                         and attr.endswith("__"))


def private_members(tree):
    """``{name: class}`` of every private member the module's classes
    define: methods and class-level names, and attributes they assign."""
    members = {}
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                members[node.name] = cls.name
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                for target in getattr(node, "targets", [node.target]):
                    if isinstance(target, ast.Name):
                        members[target.id] = cls.name
        for node in ast.walk(cls):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                              ast.Store):
                members[node.attr] = cls.name
    return {name: cls for name, cls in members.items() if is_private(name)}


def test_private_attributes_across_modules_are_pinned():
    trees = modules()
    members = {name: private_members(tree) for name, tree in trees}
    found = set()
    for name, tree in trees:
        package = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.level
                   and not node.module for alias in node.names}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Attribute) and is_private(node.attr)
                    and node.attr not in members[name]):
                continue
            # a private name of a package module is a PRIVATE_IMPORTS read
            if isinstance(node.value, ast.Name) and node.value.id in package:
                continue
            owners = sorted(defined[node.attr]
                            for other, defined in members.items()
                            if other != name and node.attr in defined)
            found.add((name, f"{'|'.join(owners) or '?'}.{node.attr}"))
    assert found == PRIVATE_ATTRIBUTES
