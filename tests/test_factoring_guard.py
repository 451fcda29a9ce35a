"""Factoring guard: ``gf`` owns the package's factoring rules.  No other
module names the trial-division bound or the Miller-Rabin constants, and
``gf._trial_division`` is the one loop that divides by a growing candidate,
so a second copy of the bound or of the loop cannot slip in unnoticed."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "powersum"

GF_ONLY = {"TRIAL_DIVISION_BOUND", "_MILLER_RABIN_BASES", "_MILLER_RABIN_EXACT_BELOW"}


def _gf_only_names(tree: ast.AST) -> list[int]:
    """The lines that name one of ``GF_ONLY``: as a name, an attribute or an
    import."""
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Name) and node.id in GF_ONLY
                or isinstance(node, ast.Attribute) and node.attr in GF_ONLY
                or isinstance(node, ast.ImportFrom)
                and any(alias.name in GF_ONLY for alias in node.names)):
            lines.append(node.lineno)
    return sorted(lines)


def _divisors(nodes) -> set[str]:
    """The plain names that something in `nodes` takes % or // by, or
    divmod by."""
    names = set()
    for node in (inner for outer in nodes for inner in ast.walk(outer)):
        right = None
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, (ast.Mod,
                                                                                ast.FloorDiv)):
            right = node.right if isinstance(node, ast.BinOp) else node.value
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "divmod" and len(node.args) == 2):
            right = node.args[1]
        if isinstance(right, ast.Name):
            names.add(right.id)
    return names


def _candidates(loop: ast.AST) -> set[str]:
    """The names a loop makes grow: in a while loop each name raised by +=,
    and the target of any for loop in it over such a name; in a loop or a
    comprehension over ``range``, its target."""
    if isinstance(loop, ast.While):
        grown = {node.target.id for node in ast.walk(loop)
                 if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add)
                 and isinstance(node.target, ast.Name)}
        for node in ast.walk(loop):
            if (isinstance(node, ast.For) and isinstance(node.target, ast.Name)
                    and grown & {n.id for n in ast.walk(node.iter) if isinstance(n, ast.Name)}):
                grown.add(node.target.id)
        return grown
    if (isinstance(loop.iter, ast.Call) and isinstance(loop.iter.func, ast.Name)
            and loop.iter.func.id == "range" and isinstance(loop.target, ast.Name)):
        return {loop.target.id}
    return set()


def _trial_division_loops(tree: ast.AST) -> list[str]:
    """Each loop that divides by a candidate it makes grow, named by the
    function around it and its line."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.While, ast.For)):
            loops = [node]
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            loops = node.generators
        else:
            continue
        if any(_candidates(loop) & _divisors([node]) for loop in loops):
            scope = parents.get(node)
            while scope is not None and not isinstance(scope, ast.FunctionDef):
                scope = parents.get(scope)
            found.append((node.lineno, f"{scope.name if scope else '<module>'}:{node.lineno}"))
    return [label for _, label in sorted(found)]


def _modules():
    return [(path.name, ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(SRC.glob("*.py"))]


def test_only_gf_names_the_factoring_constants():
    assert [(name, _gf_only_names(tree)) for name, tree in _modules()
            if name != "gf.py" and _gf_only_names(tree)] == []


def test_trial_division_is_the_one_loop_that_divides_by_a_growing_candidate():
    found = [(name, loop) for name, tree in _modules() for loop in _trial_division_loops(tree)]
    assert len(found) == 1 and found[0][0] == "gf.py", found
    assert found[0][1].startswith("_trial_division:")


def test_the_scans_see_every_kind_of_trial_division():
    tree = ast.parse("from .gf import TRIAL_DIVISION_BOUND\n"
                     "def is_prime(n):\n"
                     "    return not any(n % f == 0 for f in range(41, gf.TRIAL_DIVISION_BOUND))\n"
                     "def factorize(n):\n"
                     "    f = 5\n"
                     "    while f * f <= n:\n"
                     "        for p in (f, f + 2):\n"
                     "            while n % p == 0:\n"
                     "                n //= p\n"
                     "        f += 6\n"
                     "def two_squares(n):\n"
                     "    while f <= _MILLER_RABIN_EXACT_BELOW:\n"
                     "        e, n = (e + 1, n // f) if n % f == 0 else (e, n)\n"
                     "        f += 2\n"
                     "def digits(value, p):\n"
                     "    while value:\n"
                     "        value, c = divmod(value, p)\n"
                     "        i += 1\n"
                     "    return [value // p**i % p for i in range(9)]\n"
                     "def root(n, e, x):\n"
                     "    while True:\n"
                     "        x = (x + n // x) // e\n")
    assert _gf_only_names(tree) == [1, 3, 12]
    assert _trial_division_loops(tree) == ["is_prime:3", "factorize:6", "two_squares:12"]
