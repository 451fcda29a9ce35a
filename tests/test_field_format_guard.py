"""Field-format guard: ``gf`` owns the packed format of a GF(p^k) element.
No other module names its packing, its multiply-mod or its Barrett ring, so
a second reader of packed polynomials cannot slip in unnoticed; Singer's
field work reaches the rest of the package as integer codes
(``gf.subfield_recurrence``)."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "powersum"

FORMAT_NAMES = {"_mulmod", "_powmod", "_pack", "_pack_digits", "_unpack", "_shift_slot", "_ring",
                "_quotient"}


def _format_names(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, name) for each use of one of ``FORMAT_NAMES``: as a name, an
    attribute or an import."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in FORMAT_NAMES:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in FORMAT_NAMES:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom):
            found.extend((node.lineno, alias.name) for alias in node.names
                         if alias.name in FORMAT_NAMES)
    return sorted(found)


def test_only_gf_names_the_packed_field_format():
    offenders = {path.name: _format_names(ast.parse(path.read_text(encoding="utf-8")))
                 for path in sorted(SRC.glob("*.py")) if path.name != "gf.py"}
    assert {name: found for name, found in offenders.items() if found} == {}


def test_the_scan_flags_a_packed_minimal_polynomial():
    # The minimal polynomial as pds once computed it, on gf's packed ints.
    tree = ast.parse("from .gf import _pack_digits as pack\n"
                     "def _minimal_polynomial(g, q, ring):\n"
                     "    mulmod = gf._mulmod\n"
                     "    gq = gf._powmod(g, q, ring)\n"
                     "    gqq = gf._powmod(gq, q, ring)\n"
                     "    u = mulmod(gq, gqq, ring)\n"
                     "    e1 = mulmod(g + gq + gqq, 1, ring)\n"
                     "    e2 = mulmod(mulmod(g, gq + gqq, ring) + u, 1, ring)\n"
                     "    return e1, e2, mulmod(g, u, ring)\n"
                     "ring = field._quotient\n"
                     "width = ring[-1]\n")
    assert _format_names(tree) == [(1, "_pack_digits"), (3, "_mulmod"), (4, "_powmod"),
                                   (5, "_powmod"), (10, "_quotient")]
