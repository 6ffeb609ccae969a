"""The package ships only what runs.

Every public top-level function and class of ``src/shtc`` must be named by
code that runs: by another live definition or module-level statement of the
package, by anything under ``perfbench/`` (the benchmark, whose
``tracing.TARGETS`` name their targets as strings), or by the console
script of ``pyproject.toml``. A definition is live once something live names
it, so a name used only by unused names is unused too. An import alone does
not use a name, and the tests do not count: a helper only they call belongs
in ``tests/``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "shtc"
PERFBENCH = ROOT / "perfbench"


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
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
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
