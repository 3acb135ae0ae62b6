"""Every public function and class in src/starlab has a caller outside the tests.

A public module-level name must be used (a name, an attribute, or a string
naming it, as perfbench's tracer does) somewhere in src/, scripts/ or
perfbench/; its own `def` and the package's re-exports do not count.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "starlab"
SEARCHED = (ROOT / "src", ROOT / "scripts", ROOT / "perfbench")

# Independent oracles that the tests compare the solvers against.
ALLOWED = {
    "isentropic_ode_residual": "oracle: profile ODE residual from an independent FD stencil",
    "thermo_ode_residual": "oracle: equilibrium residuals from independent FD stencils",
}

_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def _public_definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield node.name, path.name


def _used_names():
    used = set()
    for top in SEARCHED:
        for path in top.rglob("*.py"):
            if path.name.startswith("test_"):
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                      and _IDENTIFIER.fullmatch(node.value)):
                    used.add(node.value)
    return used


def test_every_public_name_has_a_caller_outside_the_tests():
    used = _used_names()
    unused = sorted(f"{module}:{name}" for name, module in _public_definitions()
                    if name not in used and name not in ALLOWED)
    assert unused == []


def test_allowlist_names_existing_uncalled_definitions():
    defined = {name for name, _ in _public_definitions()}
    assert set(ALLOWED) <= defined
    assert not set(ALLOWED) & _used_names()
