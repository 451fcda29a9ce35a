"""Error guard: ``DomainError`` is the only ``ValueError`` the package defines
or raises, so the decision "this failure is the caller's fault" stays in one
place and the command line can report exactly those failures as bad input."""

import ast
import builtins
import json
from pathlib import Path

import numpy as np

import powersum
from powersum import cli, gf, sums
from powersum.gf import DomainError

SRC = Path(__file__).resolve().parents[1] / "src" / "powersum"

# the ValueErrors of the builtins, UnicodeDecodeError among them, of json and of numpy
_FOREIGN_VALUE_ERRORS = {cls.__name__ for cls in [*vars(builtins).values(),
                                                  json.JSONDecodeError, np.linalg.LinAlgError]
                         if isinstance(cls, type) and issubclass(cls, ValueError)}


def _name(node) -> str:
    """The name a base class or a raised exception is written as."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def _trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _value_error_classes(trees) -> set[str]:
    """Every class of the package that derives from ValueError, through the
    exceptions of others or through another class of the package."""
    classes = [node for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)]
    derived = set(_FOREIGN_VALUE_ERRORS)
    grown = True
    while grown:
        new = {c.name for c in classes if {_name(b) for b in c.bases} & derived}
        grown = not new <= derived
        derived |= new
    return derived - _FOREIGN_VALUE_ERRORS


def test_domain_error_is_the_only_value_error_subclass():
    assert _value_error_classes(_trees()) == {"DomainError"}
    assert issubclass(DomainError, ValueError)


def test_no_other_value_error_is_raised():
    offenders = [f"{name}:{node.lineno}: raise {_name(node.exc)}"
                 for name, tree in _trees().items() for node in ast.walk(tree)
                 if isinstance(node, ast.Raise) and node.exc is not None
                 and _name(node.exc) in _FOREIGN_VALUE_ERRORS]
    assert offenders == []


def test_the_scan_sees_a_subclass_and_a_bare_raise():
    tree = ast.parse("class DomainError(ValueError): pass\n"
                     "class A(DomainError): pass\n"
                     "class B(A): pass\n"
                     "class C(json.JSONDecodeError): pass\n"
                     "class D(UnicodeError): pass\n"
                     "class E(ArithmeticError): pass\n"
                     "def f():\n"
                     "    raise ValueError('x')\n"
                     "    raise np.linalg.LinAlgError\n"
                     "    raise DomainError('y')\n")
    assert _value_error_classes({"m.py": tree}) == {"DomainError", "A", "B", "C", "D"}
    raised = [_name(node.exc) for node in ast.walk(tree) if isinstance(node, ast.Raise)]
    assert [r for r in raised if r in _FOREIGN_VALUE_ERRORS] == ["ValueError", "LinAlgError"]


def test_the_cli_reports_domain_errors_and_os_errors_as_bad_input():
    assert cli._DOMAIN_ERRORS == (DomainError, OSError)
    assert powersum.DomainError is DomainError and "DomainError" in powersum.__all__


# Public names removed with code that no command or library function used.
_REMOVED_FROM_GF = ("GfElement", "element_order")
_REMOVED_FROM_SUMS = ("fejer_kernel", "newton_girard_coeffs", "is_regular_ngon",
                      "DifferenceSpectrum", "difference_spectrum")


def test_the_public_surface_resolves_and_the_removed_names_stay_gone():
    assert len(powersum.__all__) == len(set(powersum.__all__))
    assert [name for name in powersum.__all__ if not hasattr(powersum, name)] == []
    removed = _REMOVED_FROM_GF + _REMOVED_FROM_SUMS
    assert set(removed).isdisjoint(powersum.__all__)
    assert [name for name in removed if hasattr(powersum, name)] == []
    assert [name for name in _REMOVED_FROM_GF if hasattr(gf, name)] == []
    assert [name for name in _REMOVED_FROM_SUMS if hasattr(sums, name)] == []
    assert [name for name in ("element", "from_int", "zero", "one", "elements")
            if hasattr(gf.GfField, name)] == []
