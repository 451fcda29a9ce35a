"""Error guard: ``DomainError`` is the only ``ValueError`` the package defines
or raises, so the decision "this failure is the caller's fault" stays in one
place and the command line can report exactly those failures as bad input."""

import ast
import builtins
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

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


def _profile_bits(profile):
    """A profile compares by identity, so two calls are compared by the bits
    of their arrays and their maximum.  nu_max = 3 is below the horizon 6,
    where both calls would return the one profile kept on the tuple."""
    return profile.abs_values.tobytes(), profile.epsilons.tobytes(), profile.max_abs


# Every integer parameter the library takes, as (call on the value, a valid
# int).  Each goes through gf.checked_int, but for residues, which verify
# reads with operator.index and no bool.
_SET_OF_ORDER_2 = powersum.singer_construct(2)
_TUPLE = powersum.UnimodularTuple((0.0, 1 / 7, 3 / 7))
INTEGER_PARAMETERS = {
    "verify-order": (lambda v: powersum.verify((0, 1, 3), v), 2),
    "verify-residue": (lambda v: powersum.verify((0, 1, v), 2), 3),
    "PerfectDifferenceSet-order": (lambda v: powersum.PerfectDifferenceSet(v, 7, (0, 1, 3)), 2),
    "PerfectDifferenceSet-modulus": (lambda v: powersum.PerfectDifferenceSet(2, v, (0, 1, 3)), 7),
    "PerfectDifferenceSet-residue": (lambda v: powersum.PerfectDifferenceSet(2, 7, (0, 1, v)), 3),
    "from_residues-order": (lambda v: powersum.PerfectDifferenceSet.from_residues((0, 1, 3), v),
                            2),
    "singer_construct-order": (powersum.singer_construct, 2),
    "exhaustive_search-order": (powersum.exhaustive_search, 2),
    "exhaustive_search-budget": (lambda v: powersum.exhaustive_search(5, v), 4),
    "enumerate_all-order": (powersum.enumerate_all, 2),
    "enumerate_all-budget": (lambda v: powersum.enumerate_all(5, v), 4),
    "feasibility-order": (powersum.feasibility, 6),
    "feasibility-search_budget": (lambda v: powersum.feasibility(6, v), 4),
    "bruck_ryser_excludes-order": (powersum.bruck_ryser_excludes, 6),
    "wilbrink_excludes-order": (powersum.wilbrink_excludes, 6),
    "OptimizerConfig-n": (powersum.OptimizerConfig, 3),
    "OptimizerConfig-restarts": (lambda v: powersum.OptimizerConfig(3, restarts=v), 2),
    "OptimizerConfig-seed": (lambda v: powersum.OptimizerConfig(3, seed=v), 1),
    "make_field-p": (lambda v: gf.make_field(v, 3), 2),
    "make_field-k": (lambda v: gf.make_field(2, v), 3),
    "subfield_recurrence-q": (lambda v: gf.subfield_recurrence(gf.make_field(2, 6), 2, v), 4),
    "is_irreducible-p": (lambda v: gf.is_irreducible([1, 1, 1], v), 2),
    "is_irreducible-coefficient": (lambda v: gf.is_irreducible([1, v, 1], 2), 1),
    "power_sums-nu_max": (lambda v: _profile_bits(powersum.power_sums(_TUPLE, v)), 3),
    "exact_abs_squared-nu": (lambda v: powersum.exact_abs_squared(_SET_OF_ORDER_2, v), 2),
}
_NOT_INTS = (2.5, True, "3", None)
# nu_max = None is the default, n^2 - n
_ACCEPTED = {("power_sums-nu_max", None)}
_REFUSED = [pytest.param(name, value, id=f"{name}-{value!r}")
            for name in sorted(INTEGER_PARAMETERS) for value in _NOT_INTS
            if (name, value) not in _ACCEPTED]


@pytest.mark.parametrize("name, value", _REFUSED)
def test_an_integer_parameter_refuses_what_is_not_an_int(name, value):
    call, _ = INTEGER_PARAMETERS[name]
    with pytest.raises(DomainError):
        call(value)


@pytest.mark.parametrize("name", sorted(INTEGER_PARAMETERS))
def test_an_integer_parameter_takes_a_numpy_integer_as_an_int(name):
    call, valid = INTEGER_PARAMETERS[name]
    assert call(np.int64(valid)) == call(valid)


@pytest.mark.parametrize("test", (powersum.bruck_ryser_excludes, powersum.wilbrink_excludes))
def test_a_nonexistence_test_refuses_an_order_below_1_or_a_float(test):
    for order in (0, -3, -6):
        with pytest.raises(DomainError, match="^order must be >= 1$"):
            test(order)
    for order in (6.0, 21.0):
        with pytest.raises(DomainError, match="is not an int"):
            test(order)


# Containers that a tuple's angles or a tuple record cannot be
NOT_CONTAINERS = {
    "UnimodularTuple-0.5": lambda: powersum.UnimodularTuple(0.5),
    "UnimodularTuple-None": lambda: powersum.UnimodularTuple(None),
    "from_record-list": lambda: powersum.UnimodularTuple.from_record([1, 2]),
    "from_record-None": lambda: powersum.UnimodularTuple.from_record(None),
    "from_record-str": lambda: powersum.UnimodularTuple.from_record("abc"),
}


@pytest.mark.parametrize("name", sorted(NOT_CONTAINERS))
def test_a_container_that_is_not_one_is_a_domain_error(name):
    with pytest.raises(DomainError, match="are not an iterable|^malformed tuple record"):
        NOT_CONTAINERS[name]()


def test_a_tuple_takes_its_angles_from_any_iterable():
    expected = powersum.UnimodularTuple((0.1, 0.5))
    for angles in ((x for x in (0.1, 0.5)), iter([0.1, 0.5]), [0.1, 0.5], np.array([0.1, 0.5])):
        assert powersum.UnimodularTuple(angles) == expected


# Every real-number parameter the library takes, as (call on the value, a
# valid real).  Each goes through sums._is_real: a numbers.Real, not a bool.
REAL_PARAMETERS = {
    "UnimodularTuple-theta": (lambda v: powersum.UnimodularTuple((v, 0.5)), 0.25),
    "UnimodularTuple-alpha_turns": (lambda v: powersum.UnimodularTuple((0.1, 0.5), v), 0.25),
    "recover_structure-tol": (lambda v: powersum.recover_structure(_TUPLE, v), 0.25),
}
# float() parses a str or bytes and takes a bool as 0 or 1
_NOT_REALS = ("0.1", "abc", b"0.1", True, np.True_, None, [0.1], 1j, np.complex128(0.5))


@pytest.mark.parametrize("name, value", [
    pytest.param(name, value, id=f"{name}-{value!r}")
    for name in sorted(REAL_PARAMETERS) for value in _NOT_REALS])
def test_a_real_parameter_refuses_what_is_not_a_real_number(name, value):
    call, _ = REAL_PARAMETERS[name]
    with pytest.raises(DomainError, match="not a real number|tol must be a finite number"):
        call(value)


@pytest.mark.parametrize("name", sorted(REAL_PARAMETERS))
def test_a_real_parameter_takes_any_real_number_as_its_float(name):
    call, valid = REAL_PARAMETERS[name]
    for value in (np.float64(valid), np.float32(valid), Fraction(valid)):
        assert call(value) == call(valid)
    assert call(np.int64(0)) == call(0)
