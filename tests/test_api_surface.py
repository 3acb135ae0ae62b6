"""Every public name in src/starlab has a reader outside the tests.

A public module-level function or class, and every public method and
dataclass field of a public class, must be read somewhere in src/, scripts/
or perfbench/: loaded as a name or an attribute, or named by a string (as
perfbench's tracer names what it patches).  A class member is read only as
an attribute or a string; a bare name is a local variable.  A definition, an
assignment, the package's re-exports and constructor keywords do not read a
name.

Every field of the config objects `SolverSpec` and `GridSpec` must also be
settable by someone: a config JSON key, or a keyword at a call site in src/,
scripts/ or perfbench/.  A value nobody sets is a module constant.
"""

import ast
import dataclasses
import pathlib
import re

from starlab.config import GRID_KEYS, SOLVER_KEYS
from starlab.lagrangian import SolverSpec
from starlab.profiles import GridSpec

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "starlab"
SEARCHED = (ROOT / "src", ROOT / "scripts", ROOT / "perfbench")

# Independent oracles that the tests compare the solvers against.
ALLOWED = {
    "isentropic_ode_residual": "oracle: profile ODE residual from an independent FD stencil",
    "thermo_ode_residual": "oracle: equilibrium residuals from independent FD stencils",
}

# Solver fields only the tests set: their one way into the cfl-floor and
# step-failure stops.
TEST_HOOKS = {"dt_floor"}

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


def _searched_nodes():
    for top in SEARCHED:
        for path in top.rglob("*.py"):
            if not path.name.startswith("test_"):
                yield from ast.walk(ast.parse(path.read_text()))


def _read_names():
    """(names read as a bare name, names read as an attribute or a string)."""
    bare, member = set(), set()
    for node in _searched_nodes():
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            bare.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            member.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _IDENTIFIER.fullmatch(node.value)):
            member.add(node.value)
    return bare, member


def _is_read(name, bare, member):
    """A module-level name may be read bare; a Class.member only as an attribute or string."""
    owner, _, last = name.rpartition(".")
    return last in member or (not owner and last in bare)


def _keywords_set(cls_name):
    """Keywords passed to cls_name(...) at the call sites outside the tests."""
    out = set()
    for node in _searched_nodes():
        if isinstance(node, ast.Call):
            func = node.func
            if getattr(func, "id", None) == cls_name or getattr(func, "attr", None) == cls_name:
                out.update(k.arg for k in node.keywords if k.arg)
    return out


def test_every_public_name_has_a_caller_outside_the_tests():
    read = _read_names()
    unread = sorted(f"{module}:{name}" for name, module in _public_definitions()
                    if not _is_read(name, *read) and name not in ALLOWED)
    assert unread == []


def test_allowlist_names_existing_uncalled_definitions():
    defined = {name for name, _ in _public_definitions()}
    assert set(ALLOWED) <= defined
    read = _read_names()
    assert not [name for name in ALLOWED if _is_read(name, *read)]


def test_every_config_field_has_a_setter():
    # the solver's n_emit is the config's time.n_emit
    keys = {SolverSpec: set(SOLVER_KEYS) | {"n_emit"} | TEST_HOOKS, GridSpec: set(GRID_KEYS)}
    unset = sorted(f"{cls.__name__}.{f.name}" for cls, known in keys.items()
                   for f in dataclasses.fields(cls)
                   if f.name not in known | _keywords_set(cls.__name__))
    assert unset == []
