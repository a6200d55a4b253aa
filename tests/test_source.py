"""Static scan of the package source, standing in for a linter: no unused
import, no module-level ``_private`` function that nothing calls, no
public module-level function or class that nothing outside the tests
reaches, no function-local name that is assigned and never read, no
function parameter that is never read, no ``__all__`` entry that its
module neither defines nor imports, and no reader or writer of the
detmart/1 config (``from_dict``, ``to_dict``, ``*_from_dict``) outside
``cli.py``, the one module that reads the schema, and no refusal of a time
axis or a walk start outside ``processes.py``, the one module that decides
which times and starts a process admits, and no path stream or block loop
(``stream``, ``_run_blocks``) outside ``simulate.py``, whose estimator body
every Monte Carlo route runs through, and no ``lru_cache`` or
``functools.cache`` function whose returned arrays no test checks
read-only.

``__init__.py`` re-exports what it imports, so its imports are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "detmart"
BENCH = ROOT / "bench"
TREES = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _used_names(tree):
    """Every bare name read and every attribute name taken in ``tree``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def _imported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def test_no_unused_imports():
    unused = [
        f"{name}:{line} imports {imported}"
        for name, tree in TREES.items()
        if name != "__init__.py"
        for line, imported in _imported_names(tree)
        if imported not in _used_names(tree)
    ]
    assert not unused, unused


def test_no_uncalled_private_functions():
    used = set().union(*(_used_names(tree) for tree in TREES.values()))
    dead = [
        f"{name}:{node.lineno} defines {node.name}"
        for name, tree in TREES.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in used
    ]
    assert not dead, dead


# module aliases of numpy and the standard library: ``math.gamma`` is not a
# read of ``specfun.gamma``
_FOREIGN = {"math", "np", "cmath"}


def _package_module(node):
    """The ``detmart`` module an ``ImportFrom`` names, or None."""
    if node.level == 1 and node.module:
        return node.module
    if node.level == 0 and (node.module or "").startswith("detmart."):
        return node.module.split(".", 1)[1]
    return None


def _reads(stmt):
    """(bare names, attribute names, (module, name) imports) read in ``stmt``."""
    bare, attrs, imports = set(), set(), set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            bare.add(node.id)
        elif isinstance(node, ast.Attribute) and not (
            isinstance(node.value, ast.Name) and node.value.id in _FOREIGN
        ):
            attrs.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and _package_module(node):
            imports.update((_package_module(node), a.name) for a in node.names)
    return bare, attrs, imports


def _unreferenced_public(src, bench):
    """Public module-level functions and classes of the package in ``src``
    that neither ``__init__`` imports nor anything in ``src`` or ``bench``
    reads outside the definition itself.  A bare name counts in its own
    module, ``<alias>.name`` and ``from .module import name`` anywhere."""
    paths = sorted(src.glob("*.py")) + sorted(bench.glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in paths}
    reads = [(path, stmt, _reads(stmt)) for path, tree in trees.items() for stmt in tree.body]

    def referenced(path, node):
        return any(
            node.name in attrs
            or (path.stem, node.name) in imports
            or (other == path and node.name in bare)
            for other, stmt, (bare, attrs, imports) in reads
            if stmt is not node
        )

    return [
        f"{path.name}:{node.lineno} defines {node.name}"
        for path, tree in trees.items()
        if path.parent == src
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and not referenced(path, node)
    ]


def test_no_unreferenced_public_definitions():
    dead = _unreferenced_public(SRC, BENCH)
    assert not dead, dead


def _unread_locals(fn):
    """Names ``fn`` (nested scopes included) assigns and never reads;
    ``_`` and names declared global or nonlocal are exempt."""
    stored, read = {}, {"_"}
    for node in ast.walk(fn):
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Store):
                stored.setdefault(node.id, node.lineno)
            else:
                read.add(node.id)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            read.update(node.names)
    return [(line, name) for name, line in stored.items() if name not in read]


def test_no_unread_local_names():
    dead = [
        f"{name}:{line} {fn.name} assigns {local} and never reads it"
        for name, tree in TREES.items()
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for line, local in _unread_locals(fn)
    ]
    assert not dead, dead


def _unread_parameters(fn):
    """Parameters of ``fn`` that its body (nested scopes included) never
    reads; ``self``, ``cls`` and ``_``-prefixed names are exempt."""
    args = fn.args
    params = args.posonlyargs + args.args + args.kwonlyargs
    params += [a for a in (args.vararg, args.kwarg) if a is not None]
    read = {
        node.id
        for stmt in fn.body
        for node in ast.walk(stmt)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    return [
        p.arg
        for p in params
        if p.arg not in ("self", "cls")
        and not p.arg.startswith("_")
        and p.arg not in read
    ]


def test_no_unread_parameters():
    dead = [
        f"{name}:{fn.lineno} {fn.name} never reads its parameter {param}"
        for name, tree in TREES.items()
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for param in _unread_parameters(fn)
    ]
    assert not dead, dead


def _module_names(tree):
    """Names bound at module level: definitions, assignments and imports."""
    out = {name for _, name in _imported_names(tree)}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return out


def _exports(tree):
    """The string entries of a module-level ``__all__`` list or tuple."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [e.value for e in node.value.elts if isinstance(e, ast.Constant)]
    return []


def test_all_names_exist():
    stale = [
        f"{name} exports {export}, which it neither defines nor imports"
        for name, tree in TREES.items()
        for export in _exports(tree)
        if export not in _module_names(tree)
    ]
    assert not stale, stale


def test_config_schema_read_in_cli_only():
    stray = [
        f"{name}:{node.lineno} defines {node.name}"
        for name, tree in TREES.items()
        if name != "cli.py"
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and (node.name in ("from_dict", "to_dict") or node.name.endswith("_from_dict"))
    ]
    assert not stray, stray


_TIME_AND_START_RULES = ("times must", "walk times", "walk starts")


def _domain_error_messages(tree):
    """(line, leading literal text) of each ``DomainError(...)`` raised in
    ``tree``; for an f-string, the text before its first field."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)):
            continue
        call = node.exc
        name = getattr(call.func, "id", getattr(call.func, "attr", None))
        if name != "DomainError" or not call.args:
            continue
        msg = call.args[0]
        if isinstance(msg, ast.JoinedStr) and msg.values:
            msg = msg.values[0]
        if isinstance(msg, ast.Constant) and isinstance(msg.value, str):
            yield node.lineno, msg.value


def test_time_and_start_rules_in_processes_only():
    stray = [
        f"{name}:{line} raises DomainError({text!r})"
        for name, tree in TREES.items()
        if name != "processes.py"
        for line, text in _domain_error_messages(tree)
        if text.startswith(_TIME_AND_START_RULES)
    ]
    assert not stray, stray


def test_streams_and_block_loops_in_simulate_only():
    stray = [
        f"{name} references {ref}"
        for name, tree in TREES.items()
        if name != "simulate.py"
        for ref in sorted(_used_names(tree) & {"stream", "_run_blocks"})
    ]
    assert not stray, stray


# caches that return no array: the argparse parser
_CACHE_EXEMPT = {("cli", "_build_parser")}


def _cached_functions():
    """(module, name) of every package function under ``lru_cache`` or
    ``functools.cache``, bare or called."""
    for name, tree in TREES.items():
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for deco in fn.decorator_list:
                deco = deco.func if isinstance(deco, ast.Call) else deco
                if getattr(deco, "id", getattr(deco, "attr", None)) in ("lru_cache", "cache"):
                    yield name[: -len(".py")], fn.name


def test_every_cache_is_checked_read_only():
    # a cache hands one array to every caller, so each must be read-only;
    # the functions the parametrize of the read-only test calls count
    tree = ast.parse((ROOT / "tests" / "test_kernels.py").read_text())
    alias = {
        a.asname or a.name: a.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "detmart"
        for a in node.names
    }
    (test,) = [
        fn for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == "test_cached_arrays_are_read_only"
    ]
    checked = {
        (alias[node.value.id], node.attr)
        for deco in test.decorator_list
        for node in ast.walk(deco)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in alias
    }
    cached = set(_cached_functions())
    assert _CACHE_EXEMPT <= cached, "a stale exemption"
    unchecked = sorted(cached - checked - _CACHE_EXEMPT)
    assert not unchecked, unchecked
