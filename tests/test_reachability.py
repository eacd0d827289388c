"""Reachability guard: the package carries no code that only tests call.

Every top-level function or class of `src/kinatlas`, and every name a
module assigns at top level (dunders such as `__version__` exempt), must be
named (by a `Name` or `Attribute` node) somewhere in the package outside
its own definition, and every method that is not a dunder by an
`Attribute` node: a method is only reached through an object, so a local
variable of the same name does not keep it alive.  Docstrings, comments
and imports do not count, so a helper that the package imports but never
calls fails.  Names are matched by their last component, so the guard
finds dead code, not every unreachable path: a method stays alive while
any method of the same name is called on any object.

Each module also reads every name it imports, standard library included:
an import no `Name` node of its module reads fails.  And no module takes a
`_`-prefixed name from another package module, by import or as an
attribute of an imported module, unless `PRIVATE_IMPORTS` names it with a
reason: a private format has one owner.

No parameter of a package function or method defaults to `None` unless
`NONE_DEFAULTS` names it with a reason: a derived value has one owner that
computes it, not a cache parameter that trusts its caller to pass the
right one.

Every field of a package dataclass must be read, by an `Attribute` node
that loads it, somewhere in the package (its own class's methods
included), unless `UNREAD_FIELDS` names it with a reason: a record keeps
only what something reads.  A load that only receives an `append`,
`extend`, `add` or `update` call writes.  Fields are matched by name, as
definitions are.

The package's parameters with a default number at most `MAX_DEFAULTED`:
an option a change adds shows up as a count that the change must raise.
And some call in the package sets each of them, by position, by keyword
or through `*args`, unless `UNSET_DEFAULTS` names it with a reason: a
setting with one value in use is a constant, not a parameter that only
tests set.  Calls are matched by the callee's last name component, and a
class name matches its `__init__`.

The functions `EXACT_FUNCTIONS` names hold no float constant: what they
decide, they decide exactly, so no tolerance can drop or merge a
solution.  Every function, method or closure that compares with a float
constant, a module-level float name or a name unpacked from
`params.floats` is one that `FLOAT_DECISIONS` names, with its reason and
the ROADMAP item that will certify it, or "display only": an uncertified
decision is a listed one.  Every function, method or closure that makes
a `Fraction(...)` of an argument holding a `math.` call is one that
`FLOAT_FRACTIONS` names, with its reason and the ROADMAP item that will
certify it: a float rounded to a rational, which an exact layer then
decides on, is a listed one too.

No stage takes a working mode: the package functions that
`SliceAtlas.build` calls by name, and `characteristic_surface`, have no
parameter named `mode` or annotated `WorkingMode`, so every region is
found once per slice and `SliceAtlas.in_mode` only renames.

No formula is written twice unawares: every BinOp, BoolOp, Compare or
Call of at least `DUPLICATE_NODES` AST nodes (counted by `ast.walk`,
operators and contexts included) that two package functions hold, its
`ast.dump` the same, needs that pair of functions in
`DUPLICATE_EXPRESSIONS` with a reason.  Methods and closures are
functions of their own, and an expression belongs to its innermost one.
"""

import ast
from itertools import combinations
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "kinatlas"

# definitions kept without a caller in the package, each with its reason
ALLOWED: dict[str, str] = {}


def _assigned(node) -> list[str]:
    """Names a top-level assignment binds, dunders left out."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def _definitions():
    """(qualified name, short name, is a method, path, node) of each guarded
    definition."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            for name in _assigned(node):
                yield f"{path.stem}.{name}", name, False, path, node
            if not isinstance(node, funcs + (ast.ClassDef,)):
                continue
            qual = f"{path.stem}.{node.name}"
            yield qual, node.name, False, path, node
            if isinstance(node, ast.ClassDef):
                for m in node.body:
                    if isinstance(m, funcs) and not (m.name.startswith("__")
                                                     and m.name.endswith("__")):
                        yield f"{qual}.{m.name}", m.name, True, path, m


def _references() -> dict[str, list[tuple[Path, int, bool]]]:
    """Every name used by a Name or Attribute node, with where it occurs
    and whether the node is an Attribute."""
    refs: dict[str, list[tuple[Path, int, bool]]] = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            refs.setdefault(name, []).append(
                (path, node.lineno, isinstance(node, ast.Attribute)))
    return refs


def _unreferenced() -> list[str]:
    refs = _references()
    out = []
    for qual, name, method, path, node in _definitions():
        outside = [(p, ln) for p, ln, attr in refs.get(name, ())
                   if (attr or not method)
                   and not (p == path and node.lineno <= ln <= node.end_lineno)]
        if not outside:
            out.append(qual)
    return out


def test_every_definition_is_referenced():
    dead = [q for q in _unreferenced() if q not in ALLOWED]
    assert not dead, f"defined in src/kinatlas but never referenced there: {dead}"


def test_allowlist_is_current():
    defined = {qual for qual, *_ in _definitions()}
    unreferenced = set(_unreferenced())
    stale = [q for q in ALLOWED if q not in defined or q not in unreferenced]
    assert not stale, f"allowlist entries that are gone or now referenced: {stale}"


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import in `tree` (`__future__` left out) that no
    Name node of `tree` reads."""
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    out.append(name)
    return out


def test_every_import_is_used():
    unused = [f"{path.stem}.{name}" for path in sorted(SRC.glob("*.py"))
              for name in _unused_imports(ast.parse(path.read_text(), str(path)))]
    assert not unused, f"imported in src/kinatlas but never used there: {unused}"


def test_unused_import_guard_flags_stdlib_and_package_names():
    tree = ast.parse("from __future__ import annotations\n"
                     "import math\nimport os.path\nfrom .realroots import isolate as iso, NEG_INF\n"
                     "def f():\n    import json\n    return NEG_INF, os.path\n")
    assert _unused_imports(tree) == ["math", "iso", "json"]


# `_`-prefixed names a module may take from another package module, each
# with its reason; every other private name is used only in its own module
PRIVATE_IMPORTS = {
    "cad2d <- ratpoly._poly_mul": "integer kernel of the fibre products and the base lcm",
    "cad2d <- ratpoly._poly_quo": "integer kernel of the base product's lcm",
    "cad2d <- realroots._horner": "integer Horner kernel that binds a curve's rows",
    "mechanism <- ratpoly._poly_quo": "exact integer quotients of the DK eliminant by (1 + t^2)^5 "
                                      "and of its denominator by (1 + t^2)^2",
}


def _private_imports(tree: ast.Module, stem: str) -> list[str]:
    """'module <- source._name' for each `_`-prefixed name `tree` imports
    from a package module, or reads as an attribute of one it imports."""
    out, modules = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                elif alias.name.startswith("_"):
                    out.append(f"{stem} <- {node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            out.append(f"{stem} <- {modules[node.value.id]}.{node.attr}")
    return out


def _all_private_imports() -> set[str]:
    return {imp for path in sorted(SRC.glob("*.py"))
            for imp in _private_imports(ast.parse(path.read_text(), str(path)), path.stem)}


def test_private_names_stay_in_their_module():
    found = _all_private_imports()
    assert not found - set(PRIVATE_IMPORTS), \
        f"private names taken from another module: {sorted(found - set(PRIVATE_IMPORTS))}"
    stale = set(PRIVATE_IMPORTS) - found
    assert not stale, f"allowlist entries no longer imported: {sorted(stale)}"
    assert not [k for k in PRIVATE_IMPORTS if k.split(" <- ")[0] in ("adjacency", "svg")]


def test_private_import_guard_flags_names_and_attributes():
    tree = ast.parse("import math\nfrom . import realroots as rr\n"
                     "from .cad2d import bind, _bind_int\n"
                     "def f():\n    return rr._sign_at, rr.isolate, math._x, _bind_int\n")
    assert _private_imports(tree, "m") == ["m <- cad2d._bind_int", "m <- realroots._sign_at"]


# parameters of package functions and methods that default to None, each
# with its reason
NONE_DEFAULTS = {
    "cli.main(argv)": "None reads the process's command line, as argparse does",
    "mechanism.KinematicsError.__init__(leg)": "an error that no single leg causes names none",
    "ratpoly.MPoly.var(variables)": "None makes the variable its polynomial's only one",
}


def _default_slots(tree: ast.Module, stem: str) -> list[tuple[str, ast.expr, tuple, int | None]]:
    """('module.qualname(param)', default, callee names, position) for each
    parameter in `tree` that has a default, methods qualified by their
    class.  The callee names are the function's and, for an `__init__`, its
    class's; the position counts the arguments a call passes, after a
    method's `self` (not a static method's), and is None for a keyword-only
    parameter."""
    out = []

    def visit(body, prefix, cls):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.", node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = (node.name, cls) if node.name == "__init__" else (node.name,)
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in node.decorator_list)
                skip = 1 if cls and not static else 0
                a = node.args
                pos = a.posonlyargs + a.args
                first = len(pos) - len(a.defaults)
                out.extend((f"{stem}.{prefix}{node.name}({arg.arg})", d, names, first + i - skip)
                           for i, (arg, d) in enumerate(zip(pos[first:], a.defaults)))
                out.extend((f"{stem}.{prefix}{node.name}({k.arg})", d, names, None)
                           for k, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None)
                visit(node.body, f"{prefix}{node.name}.", None)

    visit(tree.body, "", None)
    return out


def _defaults(tree: ast.Module, stem: str) -> list[tuple[str, ast.expr]]:
    """('module.qualname(param)', default) for each parameter in `tree`
    that has a default, methods qualified by their class."""
    return [(name, d) for name, d, *_ in _default_slots(tree, stem)]


def _none_defaults(tree: ast.Module, stem: str) -> list[str]:
    """'module.qualname(param)' for each parameter in `tree` whose default
    is the constant None."""
    return [name for name, d in _defaults(tree, stem)
            if isinstance(d, ast.Constant) and d.value is None]


def _all_none_defaults() -> list[str]:
    return [name for path in sorted(SRC.glob("*.py"))
            for name in _none_defaults(ast.parse(path.read_text(), str(path)), path.stem)]


def test_none_defaults_are_named():
    unnamed = [name for name in _all_none_defaults() if name not in NONE_DEFAULTS]
    assert not unnamed, f"parameters defaulting to None without a reason: {unnamed}"


def test_none_default_allowlist_is_current():
    stale = set(NONE_DEFAULTS) - set(_all_none_defaults())
    assert not stale, f"allowlist entries that no longer default to None: {sorted(stale)}"


def test_none_default_guard_flags_functions_methods_and_keywords():
    tree = ast.parse("def f(a, b=None, *, c=None, d=1):\n    def g(e=None):\n        pass\n"
                     "class K:\n    def m(self, x=None, y=0):\n        pass\n"
                     "    @staticmethod\n    def s(z=None):\n        pass\n")
    assert _none_defaults(tree, "mod") == [
        "mod.f(b)", "mod.f(c)", "mod.f.g(e)", "mod.K.m(x)", "mod.K.s(z)"]


# the most parameters of package functions and methods that may have a
# default: an option that a change adds raises this count, and the change
# says why
MAX_DEFAULTED = 12


def _all_defaults() -> list[str]:
    return [name for path in sorted(SRC.glob("*.py"))
            for name, _ in _defaults(ast.parse(path.read_text(), str(path)), path.stem)]


def test_defaulted_parameters_stay_within_the_ratchet():
    found = _all_defaults()
    assert len(found) <= MAX_DEFAULTED, \
        f"{len(found)} defaulted parameters, more than {MAX_DEFAULTED}: {found}"


def test_default_guard_counts_positional_keyword_and_nested_defaults():
    tree = ast.parse("def f(a, b=1, *, c, d=None):\n    def g(e=()):\n        pass\n"
                     "class K:\n    def m(self, x, y=0):\n        pass\n")
    assert [name for name, _ in _defaults(tree, "mod")] == [
        "mod.f(b)", "mod.f(d)", "mod.f.g(e)", "mod.K.m(y)"]


# defaulted parameters that no call in the package sets, each with its
# reason; any other one is a setting with one value in use, a constant
UNSET_DEFAULTS = {
    "cli.main(argv)": "the command line, tests and perfbench/run.py supply argv",
}


def _sets(call: ast.Call, name: str, pos: int | None) -> bool:
    """Whether `call` passes the parameter `name` at `pos`: by keyword, by
    position, or through a `*args` at or before its position."""
    if any(k.arg == name for k in call.keywords):
        return True
    if pos is None:
        return False
    return any(i == pos or isinstance(a, ast.Starred) for i, a in enumerate(call.args[:pos + 1]))


def _unset_defaults(trees) -> list[str]:
    """'module.qualname(param)' for each defaulted parameter of the modules
    `trees` maps (stem -> tree) that no call in them sets, a call matched
    by its callee's last name component."""
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Call) and isinstance(n.func, (ast.Name, ast.Attribute)):
                callee = n.func.id if isinstance(n.func, ast.Name) else n.func.attr
                calls.setdefault(callee, []).append(n)
    out = []
    for stem, tree in trees.items():
        for qual, _, names, pos in _default_slots(tree, stem):
            param = qual[qual.rindex("(") + 1:-1]
            if not any(_sets(c, param, pos) for callee in names for c in calls.get(callee, ())):
                out.append(qual)
    return out


def test_every_default_is_set_by_a_package_call():
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    found = _unset_defaults(trees)
    unset = [q for q in found if q not in UNSET_DEFAULTS]
    assert not unset, f"defaulted parameters that no call in src/kinatlas sets: {unset}"
    stale = set(UNSET_DEFAULTS) - set(found)
    assert not stale, f"allowlist entries that some call sets or that are gone: {sorted(stale)}"


def test_unset_default_guard_counts_keyword_positional_and_star_calls():
    tree = ast.parse("def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n"
                     "def h(a, b=1):\n    pass\n"
                     "class K:\n    def __init__(self, x, y=0):\n        pass\n"
                     "    def m(self, z=0, v=0):\n        pass\n"
                     "    @staticmethod\n    def s(w=0, u=0):\n        pass\n"
                     "def g(args, o):\n    f(1, d=2)\n    h(0, *args)\n    K(1, 2)\n"
                     "    o.m(1)\n    K.s(1)\n")
    assert _unset_defaults({"m": tree}) == ["m.f(b)", "m.f(c)", "m.f(e)", "m.K.m(v)", "m.K.s(u)"]


# dataclass fields that no `Attribute` node of the package reads, each
# with its reason
UNREAD_FIELDS = {
    "domains.SliceAtlas.ja": "tests inspect the joint analysis a build made",
    "mechanism.WorkspaceSlice.excluded": "acceptance criterion 5 reads the excluded pose phi = pi",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass" for d in node.decorator_list)


def _unread_fields(tree: ast.Module, stem: str, reads: set[str]) -> list[str]:
    """'module.Class.field' for each field of a dataclass in `tree` whose
    name is not in `reads`, the attributes that some `Attribute` node
    loads; a write (`a.x = ...`) is no read."""
    return [f"{stem}.{node.name}.{stmt.target.id}" for node in tree.body
            if isinstance(node, ast.ClassDef) and _is_dataclass(node)
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            and stmt.target.id not in reads]


# methods that write to their receiver: `a.x.append(...)` is no read of x
MUTATORS = ("append", "extend", "add", "update")


def _attribute_reads(trees) -> set[str]:
    """The attributes that some `Attribute` node loads, other than as the
    receiver of a `MUTATORS` call."""
    nodes = [n for tree in trees for n in ast.walk(tree)]
    written = {id(n.func.value) for n in nodes if isinstance(n, ast.Call)
               and isinstance(n.func, ast.Attribute) and n.func.attr in MUTATORS}
    return {n.attr for n in nodes if isinstance(n, ast.Attribute)
            and isinstance(n.ctx, ast.Load) and id(n) not in written}


def _all_unread_fields() -> list[str]:
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    reads = _attribute_reads(trees.values())
    return [f for stem, tree in trees.items() for f in _unread_fields(tree, stem, reads)]


def test_every_field_is_read():
    unread = [f for f in _all_unread_fields() if f not in UNREAD_FIELDS]
    assert not unread, f"dataclass fields that src/kinatlas never reads: {unread}"


def test_unread_field_allowlist_is_current():
    stale = set(UNREAD_FIELDS) - set(_all_unread_fields())
    assert not stale, f"allowlist entries that are gone or now read: {sorted(stale)}"


def test_unread_field_guard_flags_unread_and_written_fields():
    tree = ast.parse("from dataclasses import dataclass\n"
                     "@dataclass(frozen=True)\nclass A:\n    x: int\n    y: int\n    z: int = 0\n"
                     "    def f(self):\n        return self.y\n"
                     "class B:\n    w: int\n"
                     "def g(a, b):\n    a.z = 1\n    return a.x\n")
    assert _unread_fields(tree, "m", _attribute_reads([tree])) == ["m.A.z"]


def test_unread_field_guard_counts_mutator_receivers_as_writes():
    tree = ast.parse("from dataclasses import dataclass\n"
                     "@dataclass\nclass A:\n    xs: list\n    ys: list\n    s: set\n"
                     "    d: dict\n    zs: list\n"
                     "def g(a):\n    a.xs.append(1)\n    a.ys.extend([2])\n    a.s.add(3)\n"
                     "    a.d.update(k=4)\n    a.zs.append(5)\n    return a.zs[0]\n")
    assert _unread_fields(tree, "m", _attribute_reads([tree])) == ["m.A.xs", "m.A.ys", "m.A.s",
                                                                   "m.A.d"]


# functions that decide exactly, so hold no float constant and no tolerance
EXACT_FUNCTIONS = {"mechanism": ("direct_kinematics", "_dk_univariate")}


def _float_constants(tree: ast.Module, stem: str, names) -> list[str]:
    """'module.function: value' for each float constant in the top-level
    functions of `tree` that `names` lists."""
    return [f"{stem}.{node.name}: {c.value!r}" for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name in names
            for c in ast.walk(node) if isinstance(c, ast.Constant) and isinstance(c.value, float)]


def test_exact_functions_hold_no_float_constant():
    for stem, names in EXACT_FUNCTIONS.items():
        tree = ast.parse((SRC / f"{stem}.py").read_text())
        defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        assert set(names) <= defined, f"{stem} no longer defines {set(names) - defined}"
        found = _float_constants(tree, stem, names)
        assert not found, f"float constants in functions that decide exactly: {found}"


def test_float_constant_guard_flags_tolerances_only_in_named_functions():
    tree = ast.parse("def f(x):\n    if abs(x) < 1e-9:\n        return -0.5 * x\n    return 2 * x\n"
                     "def g(x):\n    return x < 1e-9\n"
                     "class K:\n    def f(self):\n        return 1e-7\n")
    assert _float_constants(tree, "m", ("f",)) == ["m.f: 1e-09", "m.f: 0.5"]
    assert _float_constants(tree, "m", ("h",)) == []


# package functions, methods and closures that compare with a float constant,
# a module-level float name or a name unpacked from `params.floats`, each with its reason and the ROADMAP item
# that will certify it, or "display only"
FLOAT_DECISIONS = {
    "mechanism.slice_ik": "leg 2 reach of a float slice, |y| >= l2; item 13",
    "mechanism.slice_ik.ik": "leg 3 and leg 1 reach of a float pose (|cos alpha3| >= 1.0, "
                             "rho1 = 0) on a verdict's sampled path; item 13",
    "svg._carried_roots": "display only: a Newton step below 2^-40 of its root ends the "
                          "proposal, and round_root proves the double by exact signs",
    "trajectory._solve": "a pivot below 1e-14 declares the chain system singular; item 1",
    "trajectory._chain_kernel.system": "blended rates within _KINK_WINDOW of a waypoint; item 1",
    "trajectory._tangent4": "rank-deficiency against _RANK_TOL; item 1",
    "trajectory.follow_chain": "the chain walk's tangent, clamp and step-size thresholds and "
                               "its s range [0.0, 1.0]; item 1",
    "trajectory._corrector4": "corrector convergence below 1e-11 and its s window "
                              "[-0.05, 1.05]; item 1",
    "trajectory.encirclement": "a chain ending short of s = 1.0 and a loop closed within "
                               "_CLOSE_TOL; item 13 (d)",
    "trajectory.track_branches": "singular_crossing as a sampled |det A| below 1e-8 (item 13 (a)), "
                                 "and a partner chain reaching s = 1.0 (item 1)",
}


def _is_float(node: ast.expr) -> bool:
    try:
        return isinstance(ast.literal_eval(node), float)
    except ValueError:
        return False


def _float_decisions(tree: ast.Module, stem: str) -> list[str]:
    """'module.qualname' of each function, method or closure of `tree`, in
    source order, holding an `ast.Compare` some side of which holds a float
    constant or a float name: one that a top-level assignment binds to a
    float, or one that an assignment from an attribute named `floats`
    (`l2, l3, a, b = params.floats`) binds anywhere in the function's
    definition or an enclosing one's; a comparison belongs to its innermost
    function."""
    floats = {name for node in tree.body if isinstance(node, ast.Assign) and _is_float(node.value)
              for name in _assigned(node)}
    out: list[str] = []

    def visit(node: ast.AST, qual: str, floats: set[str]):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                unpacked = {name for n in ast.walk(child) if isinstance(n, ast.Assign)
                            and isinstance(n.value, ast.Attribute) and n.value.attr == "floats"
                            for name in _assigned(n)}
                visit(child, f"{qual}.{child.name}", floats | unpacked)
                continue
            if isinstance(child, ast.Compare) and qual not in out and any(
                    isinstance(n, ast.Constant) and isinstance(n.value, float)
                    or isinstance(n, ast.Name) and n.id in floats
                    for side in (child.left, *child.comparators) for n in ast.walk(side)):
                out.append(qual)
            visit(child, qual, floats)

    visit(tree, stem, floats)
    return out


def test_float_decisions_are_listed():
    found = {q for path in sorted(SRC.glob("*.py"))
             for q in _float_decisions(ast.parse(path.read_text(), str(path)), path.stem)}
    unlisted = found - set(FLOAT_DECISIONS)
    assert not unlisted, f"float comparisons without a FLOAT_DECISIONS entry: {sorted(unlisted)}"
    stale = set(FLOAT_DECISIONS) - found
    assert not stale, f"FLOAT_DECISIONS entries that no longer compare with a float: {sorted(stale)}"


def test_float_decision_guard_flags_constants_and_module_floats_by_innermost_function():
    tree = ast.parse("_TOL = 1e-9\n_N = 40\n_NEG = -0.5\n_INF = math.inf\n"
                     "def f(x):\n    if x < _TOL:\n        return 0.5 * x\n"
                     "    def g(y):\n        return abs(y) <= 2.0 ** -40\n    return g\n"
                     "def h(x):\n    return x < _N or x > 2 or x == _INF\n"
                     "def k(x):\n    return x == _NEG\n"
                     "class K:\n    def m(self, s):\n        return s != 1.0\n"
                     "    def n(self, s):\n        return 1.0 * s\n"
                     "def p(params, y):\n    l2, l3 = params.floats\n"
                     "    def q(x):\n        return x < l3\n    return abs(y) >= l2, q\n"
                     "def r(params, y):\n    l2 = params.l2\n    return y >= l2\n")
    assert _float_decisions(tree, "m") == ["m.f", "m.f.g", "m.k", "m.K.m", "m.p.q", "m.p"]


# package functions, methods and closures that make a Fraction of a float
# computed by a `math.` call, each with its reason and the ROADMAP item that
# will certify it
FLOAT_FRACTIONS = {
    "trajectory.track_branches": "the end points (x, Fraction(math.tan(phi / 2))) that "
                                 "classify_endpoints locates exactly; item 13 (e)",
}


def _float_fractions(tree: ast.Module, stem: str) -> list[str]:
    """'module.qualname' of each function, method or closure of `tree`, in
    source order, holding a call of `Fraction` an argument of which holds a
    call of an attribute of `math`; a call belongs to its innermost
    function."""
    out: list[str] = []

    def visit(node: ast.AST, qual: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{qual}.{child.name}")
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == "Fraction" and qual not in out and any(
                        isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                        and isinstance(n.func.value, ast.Name) and n.func.value.id == "math"
                        for a in child.args for n in ast.walk(a))):
                out.append(qual)
            visit(child, qual)

    visit(tree, stem)
    return out


def test_float_fractions_are_listed():
    found = {q for path in sorted(SRC.glob("*.py"))
             for q in _float_fractions(ast.parse(path.read_text(), str(path)), path.stem)}
    unlisted = found - set(FLOAT_FRACTIONS)
    assert not unlisted, f"Fractions of math calls without a FLOAT_FRACTIONS entry: " \
                         f"{sorted(unlisted)}"
    stale = set(FLOAT_FRACTIONS) - found
    assert not stale, f"FLOAT_FRACTIONS entries that no longer make one: {sorted(stale)}"


def test_float_fraction_guard_flags_math_calls_by_innermost_function():
    tree = ast.parse("def f(x):\n    a = Fraction(math.tan(x / 2))\n"
                     "    def g(y):\n        return Fraction(1 + math.sqrt(y)), Fraction(y)\n"
                     "    return a, g\n"
                     "def h(x):\n    return Fraction(x), math.tan(Fraction(x)), Fraction(math.pi)\n"
                     "class K:\n    def m(self, x):\n        return Fraction(math.floor(x), 3)\n")
    assert _float_fractions(tree, "m") == ["m.f", "m.f.g", "m.K.m"]


def _geometry_stages(trees: dict[str, ast.Module]) -> list[str]:
    """The package functions `SliceAtlas.build` calls by name, in source
    order."""
    funcs = {node.name for tree in trees.values() for node in tree.body
             if isinstance(node, ast.FunctionDef)}
    build = next(m for tree in trees.values() for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == "SliceAtlas"
                 for m in node.body if isinstance(m, ast.FunctionDef) and m.name == "build")
    calls = sorted((n for n in ast.walk(build)
                    if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)),
                   key=lambda n: (n.lineno, n.col_offset))
    return [n.func.id for n in calls if n.func.id in funcs]


def _mode_parameters(trees: dict[str, ast.Module], names) -> list[str]:
    """'module.function(param)' for each parameter of the top-level
    functions `names` lists that is named `mode` or annotated
    `WorkingMode`."""
    return [f"{stem}.{node.name}({a.arg})" for stem, tree in trees.items()
            for node in tree.body if isinstance(node, ast.FunctionDef) and node.name in names
            for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            if a.arg == "mode" or a.annotation is not None
            and "WorkingMode" in ast.unparse(a.annotation)]


def test_geometry_stages_take_no_working_mode():
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    stages = _geometry_stages(trees) + ["characteristic_surface"]
    assert {"slice_workspace", "slice_jointspace", "analyze_workspace", "analyze_jointspace",
            "count_atlas", "cusp_points", "w_aspects", "q_aspects", "basic_regions",
            "uniqueness_domains"} <= set(stages), stages
    found = _mode_parameters(trees, stages)
    assert not found, f"stages that take a working mode: {found}"


def test_mode_guard_flags_stages_by_name_and_annotation():
    tree = ast.parse("class SliceAtlas:\n"
                     "    def build(params, y0, mode):\n"
                     "        ws = cut(y0, params)\n"
                     "        g = grid(ws, WorkingMode(1, 1))\n"
                     "        return SliceAtlas(ws=ws, x=late(g)).in_mode(mode)\n"
                     "def cut(y0, mode):\n    pass\n"
                     "def grid(ws, m: 'WorkingMode', *, n: WorkingMode = None):\n    pass\n"
                     "def late(g, mode):\n    pass\n"
                     "def unused(mode):\n    pass\n")
    stages = _geometry_stages({"m": tree})
    assert stages == ["cut", "grid", "late"]
    assert _mode_parameters({"m": tree}, stages) == ["m.cut(mode)", "m.grid(m)", "m.grid(n)",
                                                     "m.late(mode)"]


# expressions of at least this many AST nodes (`ast.walk`, operators and
# contexts included) that two functions hold count as one formula written twice
DUPLICATE_NODES = 14

# pairs of package functions, methods or closures that hold the same
# expression of at least DUPLICATE_NODES nodes, each with its reason
DUPLICATE_EXPRESSIONS = {
    "cad2d.interval_eval / realroots._descartes":
        "an interval's ends over their common denominator, a one-line idiom in two modules",
    "mechanism.constraints_trig / mechanism.slice_workspace":
        "x = l3 c3 - b cphi, leg 3 solved for x, in the constraint list and in the leg-1 fibre",
    "ratpoly.MPoly.eval / ratpoly.MPoly.substitute":
        "the exponents and variables kept by a partial substitution, one-line idioms",
    "ratpoly.MPoly.leading_coefficient / ratpoly.MPoly.primitive_and_content_in":
        "the variables other than `var`, for a zero coefficient, a one-line idiom",
    "ratpoly._heu_gcd / ratpoly._resultant_interp":
        "the live variables and the zero exponent of two integer term dicts, one-line idioms",
    "trajectory._chain_kernel.system / trajectory._det_a_normalized":
        "the dF/dX rows of the distance equations, written out in both for speed: at the "
        "chain iterate and at the path pose; item 1",
}


def _expressions(tree: ast.Module, stem: str, min_nodes: int) -> dict[str, set[str]]:
    """`ast.dump` of each BinOp, BoolOp, Compare or Call of at least
    `min_nodes` nodes in a function of `tree` -> 'module.qualname' of the
    functions that hold it.  An expression belongs to its innermost
    function, methods and closures being functions of their own; one
    outside every function is left out."""
    out: dict[str, set[str]] = {}
    kinds = (ast.BinOp, ast.BoolOp, ast.Compare, ast.Call)

    def visit(node: ast.AST, qual: str, in_function: bool):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{qual}.{child.name}",
                      in_function or not isinstance(child, ast.ClassDef))
                continue
            if (in_function and isinstance(child, kinds)
                    and sum(1 for _ in ast.walk(child)) >= min_nodes):
                out.setdefault(ast.dump(child), set()).add(qual)
            visit(child, qual, in_function)

    visit(tree, stem, False)
    return out


def _duplicate_pairs(trees, min_nodes: int) -> set[str]:
    """'f / g', f before g in sorted order, for each two functions of the
    modules `trees` maps (stem -> tree) that hold the same expression of
    at least `min_nodes` nodes."""
    holders: dict[str, set[str]] = {}
    for stem, tree in trees.items():
        for dump, quals in _expressions(tree, stem, min_nodes).items():
            holders.setdefault(dump, set()).update(quals)
    return {f"{f} / {g}" for quals in holders.values() for f, g in combinations(sorted(quals), 2)}


def test_duplicate_expressions_are_listed():
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    found = _duplicate_pairs(trees, DUPLICATE_NODES)
    unlisted = found - set(DUPLICATE_EXPRESSIONS)
    assert not unlisted, f"expressions written twice without a DUPLICATE_EXPRESSIONS entry: " \
                         f"{sorted(unlisted)}"
    stale = set(DUPLICATE_EXPRESSIONS) - found
    assert not stale, f"DUPLICATE_EXPRESSIONS entries that no longer share an expression: " \
                      f"{sorted(stale)}"


def test_duplicate_guard_pairs_functions_methods_and_closures():
    tree = ast.parse("W = (1 + 2) * (3 + 4)\n"
                     "def f(x, y):\n    def g(x, y):\n        return (x + y) * (x - y)\n"
                     "    return (x + y) * (x - y) + g(x, y)\n"
                     "class K:\n    Z = (1 + 2) * (3 + 4)\n"
                     "    def m(self, x, y):\n        return x if (x + y) * (x - y) else y\n"
                     "def h(x, y):\n    return (x + y) * (x + y), max(x, y) < 2\n"
                     "def k(x, y):\n    return (1 + 2) * (3 + 4), max(x, y) < 2\n")
    assert sum(1 for _ in ast.walk(ast.parse("(x + y) * (x - y)", mode="eval").body)) == 14
    assert _duplicate_pairs({"m": tree}, 14) == {"m.K.m / m.f", "m.K.m / m.f.g", "m.f / m.f.g"}
    # the 10-node (1 + 2) * (3 + 4) at module and class level is in no function
    assert _duplicate_pairs({"m": tree}, 10) == {"m.K.m / m.f", "m.K.m / m.f.g", "m.f / m.f.g",
                                                 "m.h / m.k"}
    assert _duplicate_pairs({"m": tree}, 15) == set()
