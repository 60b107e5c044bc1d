"""Lint steps: every name a library module imports is referenced in it,
every module-level private function is referenced somewhere in the package,
every module-level public function or class has a caller outside the unit
tests, only `fields` decides which input values are exact, only `io`
imports json, only `errors` words a failed check, only `errors` words a
refused budget, the CLI imports at module level only what every subcommand
runs, and no module imports `dataclasses` (records come from
`qpencil.records`).

The package `__init__.py` is checked like any module: it re-exports nothing.
"""

import ast
import re
import sys
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qpencil"
MODULES = sorted(SRC.glob("*.py"))


def _unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    unused = _unused_imports(tree)
    assert not unused, f"imported but never referenced: {unused}"


def _referenced_names(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_private_function_is_referenced():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in SRC.glob("*.py")}
    referenced = set().union(*(_referenced_names(t) for t in trees.values()))
    unreferenced = [
        f"{name}: {node.name} (line {node.lineno})"
        for name, tree in sorted(trees.items())
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in referenced
    ]
    assert not unreferenced, f"private functions never referenced: {unreferenced}"


# public names with no caller in the program, each kept for one reason
KEPT = {
    "residual_line": "the paper's residual line of a 3-plane section",
    "pencil_recombined": "moves a pencil within its class for the invariance suites in test_circle and test_pencil",
    "dp6_fiber_count": "fiber bookkeeping for the double projection's sextic del Pezzo fibration",
}
# where a caller may be: the package, the scripts, the benchmark and the
# acceptance criteria, but not the unit tests
CALLERS = [
    *MODULES,
    *sorted((ROOT / "scripts").glob("*.py")),
    *sorted((ROOT / "perfbench").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
]


def _code_names(path: Path) -> set[str]:
    """The names a file uses as code tokens, so outside strings and
    comments, leaving out each name a `def` or `class` defines."""
    names: set[str] = set()
    previous = None
    with tokenize.open(path) as fh:
        for tok in tokenize.generate_tokens(fh.readline):
            if tok.type == tokenize.NAME and previous not in ("def", "class"):
                names.add(tok.string)
            previous = tok.string
    return names


def test_every_public_name_has_a_caller():
    """A public function or class that nothing outside the unit tests reaches
    is dead API: delete it, or keep it in KEPT with its reason."""
    called = set().union(*map(_code_names, CALLERS))
    uncalled = {
        node.name
        for path in MODULES
        for node in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in called
    }
    dead, stale = sorted(uncalled - set(KEPT)), sorted(set(KEPT) - uncalled)
    assert not dead and not stale, f"no caller: {dead}; kept but called or gone: {stale}"


def _float_or_bool_checks(tree: ast.Module, exempt: str | None) -> list[int]:
    """Lines of the isinstance calls whose type argument names float or bool,
    outside the module-level function named `exempt`."""
    skipped = {
        id(inner)
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == exempt
        for inner in ast.walk(node)
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and id(node) not in skipped
        and len(node.args) == 2
        and any(isinstance(n, ast.Name) and n.id in ("float", "bool") for n in ast.walk(node.args[1]))
    )


def test_only_fields_tells_exact_values_from_floats_and_bools():
    """Whether an outside value is exact (an int but not a bool, never a
    float) is decided in fields.py; an isinstance check naming float or bool
    anywhere else is a second copy of that policy.  io.jsonable is exempt:
    it converts report values the program made, not input."""
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "fields.py"
        for line in _float_or_bool_checks(
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path)),
            "jsonable" if path.name == "io.py" else None,
        )
    ]
    assert not found, f"float/bool checks outside fields.py: {found}"


def test_only_io_imports_json():
    """Everything that leaves the program is written by io (`jsonable` and
    `Report`) and every JSON input is read by `io.decode`; a json import
    anywhere else is a second writer or reader."""
    found = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        if path.name != "io.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if (isinstance(node, ast.Import) and any(a.name.split(".")[0] == "json" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "json")
    ]
    assert not found, f"json imported outside io.py: {found}"


def test_no_module_imports_dataclasses():
    """Every record class is made by `qpencil.records`; importing dataclasses
    (and through it inspect) would cost every `qpencil` process at start-up."""
    found = [
        path.name
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if (isinstance(node, ast.Import) and any(a.name.split(".")[0] == "dataclasses" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses")
    ]
    assert not found, f"dataclasses imported in: {found}"


def _check_calls(tree: ast.Module) -> list[ast.Call]:
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None))
        in ("InternalCheckError", "check")
    ]


def test_only_errors_words_a_failed_check():
    """Every `InternalCheckError(...)` and `check(...)` outside errors.py
    names its identity by a constant string and passes its values as
    keywords, so errors.py alone turns a failed identity into a message."""
    calls = {
        f"{path.name}:{node.lineno}": node
        for path in sorted(SRC.glob("*.py"))
        if path.name != "errors.py"
        for node in _check_calls(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    }
    worded = [
        where
        for where, node in calls.items()
        if len(node.args) != 1
        or not (isinstance(node.args[0], ast.Constant) and isinstance(node.args[0].value, str))
        or any(kw.arg is None for kw in node.keywords)
    ]
    assert len(calls) > 50 and not worded, f"identity not a constant, or values not keywords: {worded}"


_BOUND_NAME = re.compile(r"[A-Z][A-Z0-9_]*_(LIMIT|GUARD)|MAX_[A-Z0-9_]+")


def test_only_errors_words_a_refused_budget():
    """Every module-level constant named *_LIMIT, *_GUARD or MAX_* is a
    budget, and is read only as the one keyword of an `errors.within` call,
    ``within(what, needed, NAME=NAME)``, so errors.py alone compares it and
    words the refusal, and a caller never re-derives a callee's bound."""
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in MODULES}
    bounds = {
        target.id
        for tree in trees.values()
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and _BOUND_NAME.fullmatch(target.id)
    }
    calls, misused = 0, []
    for name, tree in sorted(trees.items()):
        allowed = set()
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            if isinstance(node, ast.Call) and getattr(func, "id", getattr(func, "attr", None)) == "within":
                calls += 1
                kws = node.keywords
                if len(kws) == 1 and isinstance(kws[0].value, ast.Name) and kws[0].value.id == kws[0].arg in bounds:
                    allowed.add(id(kws[0].value))
                else:
                    misused.append(f"{name}:{node.lineno} within without one NAME=NAME bound")
        misused += [
            f"{name}:{node.lineno} {node.id if isinstance(node, ast.Name) else node.attr}"
            for node in ast.walk(tree)
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in bounds)
            or (isinstance(node, ast.Attribute) and node.attr in bounds)
            if id(node) not in allowed
        ]
    assert len(bounds) >= 10 and calls >= 14 and not misused, f"budgets read outside errors.within: {misused}"


def _module_level_imports(path: Path) -> set[str]:
    """The modules a file imports in its top-level statements (so not in a
    function or an ``if TYPE_CHECKING:`` block), relative ones with their
    leading dots."""
    found: set[str] = set()
    for node in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            if node.module:
                found.add("." * node.level + node.module)
            else:  # from . import io
                found.update("." * node.level + alias.name for alias in node.names)
    return found


def test_cli_imports_library_modules_only_in_the_handlers():
    """Every `qpencil` process pays for what cli.py imports at module level,
    so that is the stdlib plus `errors`, `fields` and `io`; each handler
    imports the modules it runs.  io.py reads the pencil module only when it
    builds a pencil, because torus and hpt read JSON files but no pencil,
    and the poly module only when a report holds a polynomial."""
    cli_imports = _module_level_imports(SRC / "cli.py")
    local = sorted(name for name in cli_imports if name.startswith("."))
    assert local == [".errors", ".fields", ".io"], f"cli.py imports at module level: {local}"
    outside = sorted(
        name for name in cli_imports if not name.startswith(".") and name.split(".")[0] not in sys.stdlib_module_names
    )
    assert not outside, f"cli.py imports non-stdlib modules at module level: {outside}"
    io_imports = _module_level_imports(SRC / "io.py")
    assert ".pencil" not in io_imports and ".poly" not in io_imports, f"io.py imports at module level: {io_imports}"
