"""Every function and method in the package has a caller in the package
or in the benchmark: a helper that nothing calls checks nothing.  So has
every module-level constant of the package.  No module-level function or
class name is defined in two modules of the package.  And every parameter of a
package function is read by its body: a parameter that nothing reads is
a dead knob.  And every name a module of the package or of the tests
imports is used in that module.  And no class of the package keeps lazy
state in a None sentinel.  And only the command line reads the Eis view
``AutMatrix.mat``: the package's kernels take the flat ``rows``.  And the
two first-shell enumerations of ``lattices`` share no private helper.

A name counts as called when it appears anywhere outside its own
definition as a name, an attribute, an imported name or a dotted part of
a string (the benchmark's span table names what it wraps as strings).
"""

import ast
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

import eleech

PACKAGE = Path(eleech.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
BENCHMARK = sorted((PACKAGE.parent.parent / "perfbench").glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))

#: called only from tests, and kept on purpose
ALLOWED = {
    "Diagram.rho_vec": "the Weyl vector summands the diagram tests sum",
    "local_max_probe": "the float diagnostic of criterion 10",
    "weyl_second_order_sign": "the exact second-order sign at the Weyl point",
}

#: parameters a calling protocol fixes, kept although the body never reads them
UNREAD_ALLOWED = {
    "checks._codes(ctx)": "a registry entry is a function of the shared Context",
    "checks._lattices_fast(ctx)": "a registry entry is a function of the shared Context",
    "cli._cmd_verify_all(args)": "a subcommand handler takes the parsed arguments",
    "cli._cmd_relations(args)": "a subcommand handler takes the parsed arguments",
}

#: module-level names defined in two package modules, kept on purpose
DUPLICATES_ALLOWED = {
    "diagram_check_lines": "cli's shim of checks.diagram_check_lines: the benchmark's "
                           "checks workload calls it under the cli module (perfbench/workloads.py)",
}


def _references(tree) -> Counter:
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rpartition(".")[2]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(node.value.split("."))
    return names


def _definitions(tree):
    """(qualified name, node) of the top-level functions and the methods
    of top-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item


TREES = {path: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES + BENCHMARK}
REFERENCES = sum((_references(tree) for tree in TREES.values()), Counter())


def _uncalled(path):
    out = []
    for qualname, node in _definitions(TREES[path]):
        name = node.name
        if name.startswith("__") and name.endswith("__"):
            continue
        if REFERENCES[name] - _references(node)[name] <= 0:
            out.append(qualname)
    return out


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_function_has_a_caller(path):
    uncalled = [q for q in _uncalled(path) if q not in ALLOWED]
    assert not uncalled, f"{path.name}: nothing in the package or benchmark calls {uncalled}"


def test_allowlist_names_only_uncalled_functions():
    uncalled = {q for path in SOURCES for q in _uncalled(path)}
    assert set(ALLOWED) <= uncalled, f"called now, drop from ALLOWED: {set(ALLOWED) - uncalled}"


def test_no_helper_is_defined_twice():
    """A second module-level definition of a name (a second ``to_flat``,
    say) is a duplicate helper; the allowlist names only live duplicates."""
    defined = Counter(node.name for path in SOURCES for node in TREES[path].body
                      if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))
    twice = {name for name, count in defined.items() if count > 1}
    assert twice == set(DUPLICATES_ALLOWED), f"defined in two package modules: {twice}"


def _unread_constants(path):
    """The module-level names the module assigns and nothing in the package
    or benchmark reads; ``__all__`` is exempt."""
    out = []
    for node in TREES[path].body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            own = sum((_references(t) for t in targets), Counter())
            out += [name for name in own if name != "__all__" and REFERENCES[name] <= own[name]]
    return out


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_constant_is_read(path):
    unread = _unread_constants(path)
    assert not unread, f"{path.name}: nothing in the package or benchmark reads {unread}"


def _unread_parameters(path):
    """``module.function(parameter)`` for each parameter of a function,
    method, nested function or lambda that its body never reads; self, cls
    and _-prefixed names are exempt."""
    out = []
    for node in ast.walk(TREES[path]):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        name = getattr(node, "name", "<lambda>")
        out += [f"{path.stem}.{name}({p})" for p in params
                if p not in read and p not in ("self", "cls") and not p.startswith("_")]
    return out


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    unread = [q for q in _unread_parameters(path) if q not in UNREAD_ALLOWED]
    assert not unread, f"{path.name}: no body reads the parameters {unread}"


def test_unread_allowlist_names_only_unread_parameters():
    unread = {q for path in SOURCES for q in _unread_parameters(path)}
    assert set(UNREAD_ALLOWED) <= unread, f"read now, drop from UNREAD_ALLOWED: {set(UNREAD_ALLOWED) - unread}"


def _is_self_attr(node):
    return (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "self")


def _is_none(node):
    return isinstance(node, ast.Constant) and node.value is None


def _sentinel_caches(tree):
    """``Class.attr`` for each attribute that ``__init__`` sets to None and
    another method tests with ``self.attr is None``: a hand-rolled lazy
    cache, where ``functools.cached_property`` is the package's one idiom."""
    out = []
    for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
        methods = [m for m in cls.body if isinstance(m, ast.FunctionDef)]
        set_none = {t.attr for m in methods if m.name == "__init__"
                    for n in ast.walk(m) if isinstance(n, ast.Assign) and _is_none(n.value)
                    for t in n.targets if _is_self_attr(t)}
        tested = {n.left.attr for m in methods if m.name != "__init__"
                  for n in ast.walk(m) if isinstance(n, ast.Compare) and _is_self_attr(n.left)
                  and isinstance(n.ops[0], ast.Is) and _is_none(n.comparators[0])}
        out += [f"{cls.name}.{a}" for a in sorted(set_none & tested)]
    return out


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_sentinel_cache(path):
    found = _sentinel_caches(TREES[path])
    assert not found, f"{path.name}: lazy state kept by a None sentinel, use cached_property: {found}"


def test_only_the_cli_reads_the_eis_view():
    readers = sorted({path.name for path in SOURCES for node in ast.walk(TREES[path])
                      if isinstance(node, ast.Attribute) and node.attr == "mat"})
    assert readers == ["cli.py"], f"modules that read .mat: {readers}"


def _reachable(tree, root):
    """The module-level functions of tree that root names, directly or
    through each other."""
    defs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    seen, todo = set(), [root]
    while todo:
        for node in ast.walk(defs[todo.pop()]):
            if isinstance(node, ast.Name) and node.id in defs and node.id not in seen:
                seen.add(node.id)
                todo.append(node.id)
    return seen


def test_the_two_shell_methods_share_no_helper():
    """``two_methods_agree`` is a second method only while the two shell
    enumerations share no code of ``lattices``: no private helper may be
    reachable from both."""
    tree = TREES[PACKAGE / "lattices.py"]
    shapes, coset = ({n for n in _reachable(tree, root) if n.startswith("_")}
                     for root in ("first_shell_by_shapes", "first_shell_by_coset_search"))
    assert shapes and coset
    assert not shapes & coset, f"helpers of both shell methods: {sorted(shapes & coset)}"


def _unused_imports(tree):
    """The names a module imports and never uses; a name listed in its
    ``__all__`` is used (re-exported)."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    unused = _unused_imports(ast.parse(path.read_text(), filename=str(path)))
    assert not unused, f"{path.name}: imports {unused} and never uses them"


def _load_spans():
    path = PACKAGE.parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load_spans()


@pytest.mark.parametrize("name", sorted(SPANS.BOUNDARIES))
def test_trace_boundary_resolves(name):
    """Every layer boundary the benchmark traces still names a callable of
    the package, so a rename fails here and not only in a traced run."""
    _, _, raw = SPANS._resolve(*SPANS.BOUNDARIES[name])
    assert callable(getattr(raw, "__func__", raw))
