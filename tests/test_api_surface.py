"""Every public name in src/starlab has a reader outside the tests.

A public module-level function or class, and every public method and
dataclass field of a public class, must be read somewhere in src/, scripts/
or perfbench/: loaded as a name or an attribute, or named by a string (as
perfbench's tracer names what it patches).  A definition, an assignment, the
package's re-exports and constructor keywords do not read a name.
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
    "ExpansionPath.alpha_prime_at": "oracle: alpha'(t) of the integrated path, against the "
                                    "clock a run steps with",
}

_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def _public_definitions():
    """(name, module) of every public function and class, and Class.member of their members."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            yield node.name, path.name
            if not isinstance(node, ast.ClassDef):
                continue
            for member in node.body:
                if isinstance(member, ast.FunctionDef):
                    name = member.name
                elif isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                    name = member.target.id       # a dataclass field
                else:
                    continue
                if not name.startswith("_"):
                    yield f"{node.name}.{name}", path.name


def _read_names():
    read = set()
    for top in SEARCHED:
        for path in top.rglob("*.py"):
            if path.name.startswith("test_"):
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
                elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                      and _IDENTIFIER.fullmatch(node.value)):
                    read.add(node.value)
    return read


def test_every_public_name_has_a_caller_outside_the_tests():
    read = _read_names()
    unread = sorted(f"{module}:{name}" for name, module in _public_definitions()
                    if name.rpartition(".")[2] not in read and name not in ALLOWED)
    assert unread == []


def test_allowlist_names_existing_uncalled_definitions():
    defined = {name for name, _ in _public_definitions()}
    assert set(ALLOWED) <= defined
    assert not {name.rpartition(".")[2] for name in ALLOWED} & _read_names()
