"""The package ships only what runs.

Every public top-level function and class of ``src/shtc`` must be named by
code that runs: by another live definition or module-level statement of the
package, by anything under ``perfbench/`` (the benchmark, whose
``tracing.TARGETS`` name their targets as strings), or by the console
script of ``pyproject.toml``. A definition is live once something live names
it, so a name used only by unused names is unused too. An import alone does
not use a name, and the tests do not count: a helper only they call belongs
in ``tests/``.

A private top-level function, class or assignment must be named by some
other statement of the package or by ``perfbench/``, so no constant or helper
outlives its last use.

The package's settable values are counted and pinned: the defaulted
parameters of public functions and of public methods of public classes, and
the class-level annotated fields with a value of public classes. A change
that adds or removes an option moves ``SETTABLE_VALUES`` and says why.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "shtc"
PERFBENCH = ROOT / "perfbench"
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _names(nodes) -> set[str]:
    """Every identifier the code of ``nodes`` names, imports aside: names,
    attributes, and string constants that are identifiers."""
    found = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                found.add(node.value)
    return found


def _definitions():
    """``(module, name) -> node`` of every top-level def and class of the
    package, and the module-level statements that are neither definitions
    nor imports."""
    defs, rest = {}, []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
                defs[(path.stem, node.name)] = node
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                rest.append(node)
    return defs, rest


def _roots() -> set[str]:
    """Names used from outside the package's definitions: all of
    ``perfbench/`` and the console script."""
    used = set()
    for path in sorted(PERFBENCH.rglob("*.py")):
        used |= _names([ast.parse(path.read_text())])
    scripts = re.findall(r"^\s*\w+\s*=\s*\"shtc\.\w+:(\w+)\"", (ROOT / "pyproject.toml").read_text(), re.M)
    assert scripts, "pyproject.toml names no console script"
    return used | set(scripts)


def unused_public_names() -> list[str]:
    defs, rest = _definitions()
    used = _roots() | _names(rest)
    live: set[tuple[str, str]] = set()
    while True:  # to a fixed point: a live definition makes what it names live
        new = {key for key in defs if key[1] in used} - live
        if not new:
            break
        live |= new
        for key in new:
            used |= _names([defs[key]])
    return sorted(f"{mod}.{name}" for mod, name in defs if (mod, name) not in live and not name.startswith("_"))


def test_every_public_name_is_used():
    unused = unused_public_names()
    assert not unused, f"public names that no command, codec path or benchmark uses: {unused}"


def unnamed_private_names() -> list[str]:
    """Private top-level definitions and assignments that no other statement
    of the package and nothing under ``perfbench/`` names."""
    statements = [(path.stem, node) for path in sorted(PACKAGE.glob("*.py")) for node in ast.parse(path.read_text()).body]
    named = [_names([node]) for _, node in statements]
    outside = _roots()
    unnamed = []
    for i, (mod, node) in enumerate(statements):
        if isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
            defined = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in defined:
            if name.startswith("_") and not name.startswith("__") and name not in outside:
                if not any(name in other for j, other in enumerate(named) if j != i):
                    unnamed.append(f"{mod}.{name}")
    return sorted(unnamed)


def test_every_private_name_is_named():
    unnamed = unnamed_private_names()
    assert not unnamed, f"private names that nothing names: {unnamed}"


SETTABLE_VALUES = 42


def _defaults(fn) -> int:
    return len(fn.args.defaults) + sum(d is not None for d in fn.args.kw_defaults)


def settable_values() -> int:
    """Defaulted parameters of public functions and of public methods of
    public classes, plus the annotated class-level fields with a value of
    public classes."""
    count = 0
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, _FUNCTIONS) and not node.name.startswith("_"):
                count += _defaults(node)
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and item.value is not None:
                        count += 1
                    elif isinstance(item, _FUNCTIONS) and not item.name.startswith("_"):
                        count += _defaults(item)
    return count


def test_settable_values_pinned():
    assert settable_values() == SETTABLE_VALUES
