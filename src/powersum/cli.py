"""Command-line frontend.

Subcommands: singer, verify, feasibility, profile, recover, optimize,
search.  Results go to stdout, diagnostics to stderr.  Each subcommand
returns its exit code, its JSON record and its text lines (for ``profile
--format csv`` the CSV rows) and writes nothing; ``main`` picks the format
and writes stdout once, after the whole text is built, so a failure leaves
stdout empty.  JSON output uses a fixed key order and 12-significant-digit
floats so identical invocations are byte-identical.  Exit codes: 0 for
success / Found / Exists, 1 for NoneExists / NotMinimizer / Excluded, 2 for
bad input (a ``DomainError`` or an ``OSError``, nothing else), 3 for an
inconclusive result (BudgetExceeded from search, OpenByTheseTests from
feasibility), 64 for usage errors, 70 for an internal error: any other
exception, a failed library self-check, a non-finite number in the output, a
bare ``ValueError`` and numpy's ``LinAlgError`` included; that is a bug, not
a verdict.
POWERSUM_SEED provides the seed when --seed is absent.
"""

from __future__ import annotations

import argparse
import csv as csv_module
import io
import json
import math
import os
import sys
from math import isqrt
from pathlib import Path

from .gf import DomainError
from .minimax import OptimizerConfig, _uniform_angles, minimize
from .pds import (
    DEFAULT_SEARCH_BUDGET,
    exhaustive_search,
    feasibility,
    modulus_for_order,
    singer_construct,
    verify,
)
from .sums import (
    RecoveryStatus,
    UnimodularTuple,
    _check_profile_size,
    fabrykowski_tuple,
    power_sums,
    recover_structure,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_DOMAIN = 2
EXIT_INCONCLUSIVE = 3
EXIT_USAGE = 64
EXIT_INTERNAL = 70  # EX_SOFTWARE

_DOMAIN_ERRORS = (DomainError, OSError)


class CliParser(argparse.ArgumentParser):
    """argparse with the conventional 64 exit code for usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# Deterministic rendering
# ---------------------------------------------------------------------------


def format_float(x: float) -> str:
    if not math.isfinite(x):  # every number the library reports is finite
        raise ArithmeticError(f"non-finite value in output: {x}")
    return format(x, ".12g")


def render_json(value, indent: int = 0) -> str:
    """JSON with insertion-ordered keys and fixed float formatting."""
    pad = "  " * indent
    child = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = (f"{child}{json.dumps(str(k))}: {render_json(v, indent + 1)}"
                 for k, v in value.items())
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        rendered = [render_json(v, indent + 1) for v in value]
        if all(not isinstance(v, (dict, list, tuple)) for v in value):
            return "[" + ", ".join(rendered) + "]"
        return ("[\n" + ",\n".join(child + r for r in rendered) + f"\n{pad}]")
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot render {type(value)!r}")


# ---------------------------------------------------------------------------
# Shared argument helpers
# ---------------------------------------------------------------------------


def residue_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad residue list {text!r}") from exc


def resolve_seed(args) -> int:
    seed = args.seed
    if seed is None:
        env = os.environ.get("POWERSUM_SEED", "0")
        try:
            seed = int(env)
        except ValueError:
            raise DomainError(f"POWERSUM_SEED is not an integer: {env!r}")
    if seed < 0:
        raise DomainError("seed must be >= 0")
    return seed


def order_from_modulus(m: int) -> int:
    """Invert m = q^2 + q + 1 for q >= 1; rejects moduli not of that form."""
    disc = 4 * m - 3
    if m < 3 or isqrt(disc) ** 2 != disc:
        raise DomainError(f"modulus {m} is not of the form q^2+q+1")
    return (isqrt(disc) - 1) // 2


def load_tuple_file(path: str) -> UnimodularTuple:
    """Tuple input: the JSON record, or CSV with a theta_turns header.  Every
    error in the file's content is a ``DomainError`` that names the file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
        if text.lstrip().startswith("{"):
            return UnimodularTuple.from_record(json.loads(text))
        rows = csv_module.reader(io.StringIO(text))
        if [h.strip() for h in next(rows, [])][:1] != ["theta_turns"]:
            raise DomainError("CSV tuples need a 'theta_turns' header")
        try:
            thetas = [float(r[0]) for r in rows if r and r[0].strip() != ""]
        except ValueError as exc:  # the reader stops on the row that failed
            raise DomainError(f"line {rows.line_num}: {exc}") from exc
        return UnimodularTuple(tuple(thetas))
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DomainError(f"{path}: not valid JSON: {exc}") from exc
    except DomainError as exc:
        raise DomainError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_singer(args) -> tuple[int, dict, list[str]]:
    pds = singer_construct(args.q)  # verifies its output
    lines = [f"q={pds.q} m={pds.m}",
             "residues: " + ",".join(map(str, pds.residues))]
    return EXIT_OK, pds.to_record(), lines


def cmd_verify(args) -> tuple[int, dict, list[str]]:
    q = args.q if args.q is not None else order_from_modulus(args.modulus)
    result = verify(args.set, q)
    record = {
        "q": q,
        "m": modulus_for_order(q),
        "valid": result.valid,
        "reason": result.reason,
        "witness": result.witness,
    }
    verdict = "valid" if result.valid else f"invalid ({result.reason}, witness {result.witness})"
    lines = [f"q={q} set={','.join(map(str, args.set))}: {verdict}"]
    return EXIT_OK if result.valid else EXIT_NEGATIVE, record, lines


def cmd_feasibility(args) -> tuple[int, dict, list[str]]:
    report = feasibility(args.order, search_budget=args.budget)
    lines = [f"order {report.order}: {report.verdict}"]
    if report.reasons:
        lines.append("reasons: " + ", ".join(report.reasons))
    lines.append(f"search: {report.exhaustive_result}")
    if report.witness:
        lines.append("witness: " + ",".join(map(str, report.witness.residues)))
    code = {"Excluded": EXIT_NEGATIVE,
            "OpenByTheseTests": EXIT_INCONCLUSIVE}.get(report.verdict, EXIT_OK)
    return code, report.to_record(), lines


def _profile_source(args) -> UnimodularTuple:
    """The tuple to profile.  A given ``--alpha`` sets its phase; without it
    a tuple file keeps its own phase and the other sources take 0."""
    alpha = 0.0 if args.alpha is None else args.alpha
    if args.tuple_file is not None:
        t = load_tuple_file(args.tuple_file)
        return t if args.alpha is None else UnimodularTuple(t.thetas, alpha_turns=alpha)
    if args.from_pds is not None:
        return fabrykowski_tuple(singer_construct(args.from_pds), alpha_turns=alpha)
    # a negative N draws no angles, and the tuple rejects every N < 2
    size = max(args.random, 0)
    _check_profile_size(size, size * size - size if args.nu_max is None else args.nu_max)
    thetas = _uniform_angles([resolve_seed(args)], size)
    return UnimodularTuple(tuple(thetas), alpha_turns=alpha)


def cmd_profile(args) -> tuple[int, dict, list[str]]:
    t = _profile_source(args)
    profile = power_sums(t, nu_max=args.nu_max)
    rows = list(zip(range(1, len(profile.abs_values) + 1),
                    profile.abs_values.tolist(), profile.epsilons.tolist()))
    record = {
        "n": profile.n,
        "m": profile.m,
        "alpha_turns": t.alpha_turns,
        "max_abs": profile.max_abs,
        "rows": [[nu, a, e] for nu, a, e in rows],
    }
    if args.format == "csv":
        lines = ["nu,abs,epsilon"] + [f"{nu},{format_float(a)},{format_float(e)}"
                                      for nu, a, e in rows]
    else:
        lines = ([f"n={profile.n} m={profile.m} max|S|={format_float(profile.max_abs)}"]
                 + [f"  nu={nu:4d}  |S|={format_float(a):18s} eps={format_float(e)}"
                    for nu, a, e in rows])
    return EXIT_OK, record, lines


def cmd_recover(args) -> tuple[int, dict, list[str]]:
    t = load_tuple_file(args.tuple_file)
    result = recover_structure(t, tol=args.tol)
    lines = [f"status: {result.status.value}",
             f"residual: {format_float(result.residual)}",
             f"profile deviation: {format_float(result.profile_deviation)}"]
    if result.pds:
        lines.append("recovered set: " + ",".join(map(str, result.pds.residues)))
    code = EXIT_OK if result.status is RecoveryStatus.IS_MINIMIZER else EXIT_NEGATIVE
    return code, result.to_record(), lines


def cmd_optimize(args) -> tuple[int, dict, list[str]]:
    config = OptimizerConfig(n=args.n, restarts=args.restarts,
                             seed=resolve_seed(args))
    report = minimize(config)
    lines = [
        f"n={args.n} restarts={args.restarts} seed={config.seed}",
        f"best value: {format_float(report.best_value)}",
        f"gap to sqrt(n-1): {format_float(report.gap_to_bound)}",
        f"recovered: {report.recovered.status.value}",
    ]
    code = (EXIT_OK if report.recovered.status is RecoveryStatus.IS_MINIMIZER
            else EXIT_NEGATIVE)
    return code, report.to_record(), lines


def cmd_search(args) -> tuple[int, dict, list[str]]:
    result = exhaustive_search(args.order, budget=args.budget)
    record = {
        "order": args.order,
        "m": modulus_for_order(args.order),
        "status": result.status,
        "residues": list(result.pds.residues) if result.pds else None,
        "nodes": result.nodes,
    }
    lines = [f"order {args.order}: {result.status} ({result.nodes} nodes)"]
    if result.pds:
        lines.append("residues: " + ",".join(map(str, result.pds.residues)))
    code = {"NoneExists": EXIT_NEGATIVE,
            "BudgetExceeded": EXIT_INCONCLUSIVE}.get(result.status, EXIT_OK)
    return code, record, lines


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_format(parser, default="json", csv_allowed=False):
    choices = ["json", "human"] + (["csv"] if csv_allowed else [])
    parser.add_argument("--format", choices=sorted(choices), default=default,
                        help=f"output format (default {default})")


def build_parser() -> CliParser:
    parser = CliParser(prog="powersum",
                       description="Perfect difference sets and power-sum "
                                   "minimax profiles")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("singer", help="Singer difference set of prime-power order")
    p.add_argument("--q", type=int, required=True, help="order (prime power)")
    _add_format(p)
    p.set_defaults(func=cmd_singer)

    p = sub.add_parser("verify", help="check the perfect-difference property")
    p.add_argument("--set", type=residue_list, required=True,
                   help="comma-separated residues")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--q", type=int, help="order")
    group.add_argument("--modulus", type=int, help="modulus q^2+q+1")
    _add_format(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("feasibility", help="existence tests for an order")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_SEARCH_BUDGET,
                   help="node budget of the multiplier-orbit search")
    _add_format(p)
    p.set_defaults(func=cmd_feasibility)

    p = sub.add_parser("profile", help="power-sum profile |S(nu)|")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--tuple-file", help="JSON tuple or CSV with theta_turns")
    source.add_argument("--from-pds", type=int, metavar="Q",
                        help="lattice tuple of the Singer set of order Q")
    source.add_argument("--random", type=int, metavar="N",
                        help="seeded uniform random tuple of size N")
    p.add_argument("--alpha", type=float, default=None,
                   help="global phase in turns (default: the file's phase, else 0)")
    p.add_argument("--nu-max", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    _add_format(p, default="csv", csv_allowed=True)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("recover", help="extract difference-set structure")
    p.add_argument("--tuple-file", required=True)
    p.add_argument("--tol", type=float, default=1e-6)
    _add_format(p)
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("optimize", help="multi-start minimax optimization")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--restarts", type=int, default=50)
    p.add_argument("--seed", type=int, default=None)
    _add_format(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("search", help="exhaustive difference-set search")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_SEARCH_BUDGET,
                   help="node budget of the multiplier-orbit search; one node "
                        "per union of orbits examined")
    _add_format(p)
    p.set_defaults(func=cmd_search)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, record, lines = args.func(args)
        text = render_json(record) if args.format == "json" else "\n".join(lines)
        sys.stdout.write(text + "\n")  # the one write, after the whole text is built
        return code
    except _DOMAIN_ERRORS as exc:
        print(f"powersum: error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except Exception as exc:
        print(f"powersum: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
