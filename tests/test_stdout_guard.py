"""Output guard: ``cli.main`` is the one place that writes stdout.  The
subcommands return their record and text, so a failure while either is built
leaves stdout empty; a write anywhere else would break that."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "powersum"


def _stdout_writes(tree: ast.AST) -> list[ast.AST]:
    """Each use of ``sys.stdout`` (or ``sys.__stdout__``, or a ``stdout``
    imported from sys) and each ``print`` call without a ``file=``."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ("stdout", "__stdout__")
                and isinstance(node.value, ast.Name) and node.value.id == "sys"):
            found.append(node)
        elif isinstance(node, ast.ImportFrom) and node.module == "sys" and any(
                alias.name in ("stdout", "__stdout__") for alias in node.names):
            found.append(node)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "print"
              and not any(k.arg == "file" for k in node.keywords)):
            found.append(node)
    return found


def _offenders(name: str, tree: ast.Module) -> list[str]:
    allowed = set()
    if name == "cli.py":
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name == "main":
                allowed = {id(n) for n in _stdout_writes(node)}
    return [f"{name}:{line}" for line in sorted(
        node.lineno for node in _stdout_writes(tree) if id(node) not in allowed)]


def test_only_cli_main_writes_stdout():
    offenders = [offender for path in sorted(SRC.glob("*.py"))
                 for offender in _offenders(path.name,
                                            ast.parse(path.read_text(encoding="utf-8")))]
    assert offenders == []


def test_cli_main_writes_stdout():
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    main = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    assert len(_stdout_writes(main)) == 1


def test_the_scan_sees_every_kind_of_write():
    tree = ast.parse("import sys\n"
                     "from sys import stdout\n"
                     "def cmd(args):\n"
                     "    sys.stdout.write('x')\n"
                     "    print('y')\n"
                     "    print('z', file=sys.stdout)\n"
                     "    print('w', file=sys.stderr)\n"
                     "    sys.stderr.write('v')\n"
                     "def main():\n"
                     "    sys.stdout.write('u')\n")
    assert _offenders("other.py", tree) == [f"other.py:{n}" for n in (2, 4, 5, 6, 10)]
    assert _offenders("cli.py", tree) == [f"cli.py:{n}" for n in (2, 4, 5, 6)]
