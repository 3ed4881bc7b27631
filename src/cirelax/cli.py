"""Command-line interface.

Every command is deterministic given its inputs and seed, prints a
line-oriented report with stable field order, and exits 0 for a positive
verdict, 1 for a negative one, and 2 on any usage or input error or failed
internal check, so that a crash never reads as a negative verdict.
``counterexample`` exits 0 when it wrote a counterexample and 1 when it
found none.  The environment variable ``CIRELAX_SEED`` overrides the
default seed.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from .core import (
    CIError,
    CISet,
    CITriple,
    InternalCheckError,
    ParseError,
    Universe,
    collect_names,
    parse_ci_triple,
)
from .atoms import implies_positive, single_atom_polymatroid
from .dag import d_separated, read_dag_file
from .distributions import entropy, read_distribution, write_distribution
from .implication import (
    check_marginal,
    check_recursive,
    parity_refutation,
    semigraphoid_closure,
    validate_bound,
)
from .lp import UNBOUNDED, optimal_lambda
from .polymatroids import PolymatroidTable

DEFAULT_ARTIFACT = "refutation.out"


def _default_seed() -> int:
    return int(os.environ.get("CIRELAX_SEED", "0"))


def _universe_for(sigma_path: str | None, queries: list[str]) -> tuple[CISet, Universe]:
    """Antecedents plus a universe covering them and the query names, in
    order of first appearance."""
    lines: list[str] = []
    if sigma_path is not None:
        with open(sigma_path, "r", encoding="utf-8") as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if line:
                    lines.append(line)
    names = collect_names(lines + queries)
    universe = Universe(tuple(names))
    triples = [parse_ci_triple(text, universe) for text in lines]
    return CISet(tuple(triples)), universe


def _render_value(v) -> str:
    text = f"{float(v):.12g}"
    if "." not in text and "e" not in text and "n" not in text:
        text += ".0"
    return text


def _parse_measure_term(text: str, universe: Universe):
    """``H(A)``, ``H(A|B)``, ``I(X;Y)``, or ``I(X;Y|Z)``."""
    s = text.strip()
    if s.startswith("I(") and s.endswith(")"):
        return ("I", parse_ci_triple(s, universe))
    if s.startswith("H(") and s.endswith(")"):
        body = s[2:-1]
        left, _, right = body.partition("|")
        from .core import _name_list

        alpha = universe.set_of(*_name_list(left))
        beta = universe.set_of(*_name_list(right))
        if not alpha:
            raise ParseError(f"empty entropy argument in {text!r}")
        return ("H", alpha, beta)
    raise ParseError(f"expected H(...) or I(...), got {text!r}")


def format_polymatroid(table: PolymatroidTable, universe: Universe) -> str:
    lines = ["polymatroid vars " + " ".join(universe.names)]
    for mask in range(1, 1 << table.n):
        v = Fraction(table.values[mask])
        names = ",".join(universe.names[i] for i in range(table.n) if mask >> i & 1)
        lines.append(f"set {names} {v.numerator}/{v.denominator}")
    return "\n".join(lines) + "\n"


def read_polymatroid(path: str) -> tuple[PolymatroidTable, Universe]:
    from .core import _payload_lines

    with open(path, "r", encoding="utf-8") as fh:
        payload = list(_payload_lines(fh))
    if not payload or not payload[0][1].startswith("polymatroid vars "):
        raise ParseError("table files start with 'polymatroid vars NAME ...'")
    universe = Universe(tuple(payload[0][1].split()[2:]))
    values = [Fraction(0)] * (1 << universe.n)
    for lineno, line in payload[1:]:
        parts = line.split()
        if len(parts) != 3 or parts[0] != "set":
            raise ParseError(f"line {lineno}: expected 'set NAMES VALUE'")
        mask = universe.set_of(*parts[1].split(",")).bits
        num, _, den = parts[2].partition("/")
        try:
            values[mask] = Fraction(int(num), int(den)) if den else Fraction(num)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"line {lineno}: bad value {parts[2]!r}") from None
    return PolymatroidTable(universe.n, tuple(values)), universe


def _write_refutation(cert, universe: Universe, path: str) -> None:
    if cert.refutation_kind == "parity":
        write_distribution(cert.refutation_distribution, universe, path)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(format_polymatroid(cert.refutation_table, universe))


def _cmd_dsep(args) -> int:
    dag = read_dag_file(args.dag)
    tau = parse_ci_triple(args.query, dag.universe)
    separated = d_separated(dag, tau.x, tau.y, tau.z)
    print("SEPARATED" if separated else "NOT-SEPARATED")
    print(f"query={dag.universe.render_triple(tau)}")
    return 0 if separated else 1


def _cmd_implies(args) -> int:
    sigma, universe = _universe_for(args.sigma, [args.tau])
    tau = parse_ci_triple(args.tau, universe)
    n = universe.n
    if args.mode == "atoms":
        verdict = implies_positive(sigma, tau, n)
        if verdict.implied:
            print("IMPLIED")
        else:
            print(f"NOT-IMPLIED witness=atom{universe.render_atom(verdict.witness)}")
        print("mode=atoms")
        return 0 if verdict.implied else 1
    if args.mode == "lp":
        lam = optimal_lambda(sigma, tau, n)
        if lam is UNBOUNDED:
            print("NOT-IMPLIED lambda=unbounded")
        else:
            print(f"IMPLIED lambda={lam}")
        print("mode=lp")
        return 1 if lam is UNBOUNDED else 0
    closure = semigraphoid_closure(sigma, n)
    member = tau in closure
    print("IMPLIED" if member else "NOT-IMPLIED")
    print("mode=graphoid")
    return 0 if member else 1


def _cmd_bound(args) -> int:
    if args.kind == "recursive":
        if args.dag is None:
            raise CIError("--kind recursive requires --dag")
        dag = read_dag_file(args.dag)
        universe = dag.universe
        tau = parse_ci_triple(args.tau, universe)
        cert = check_recursive(dag, tau)
    else:
        if args.sigma is None:
            raise CIError("--kind marginal requires --sigma")
        sigma, universe = _universe_for(args.sigma, [args.tau])
        tau = parse_ci_triple(args.tau, universe)
        cert = check_marginal(sigma, tau, universe.n)
    print(cert.render(universe))
    if not cert.implied:
        path = args.artifact or DEFAULT_ARTIFACT
        _write_refutation(cert, universe, path)
        print(f"artifact={path}")
    return 0 if cert.implied else 1


def _cmd_lambda(args) -> int:
    sigma, universe = _universe_for(args.sigma, [args.tau])
    tau = parse_ci_triple(args.tau, universe)
    lam = optimal_lambda(sigma, tau, universe.n)
    if lam is UNBOUNDED:
        print("lambda=unbounded")
        return 1
    print(f"lambda={lam}")
    return 0


def _cmd_closure(args) -> int:
    queries = [args.tau] if args.tau else []
    sigma, universe = _universe_for(args.sigma, queries)
    closure = semigraphoid_closure(sigma, universe.n)
    if args.tau:
        tau = parse_ci_triple(args.tau, universe)
        member = tau in closure
        print("IMPLIED" if member else "NOT-IMPLIED")
        print(f"tau={universe.render_triple(tau)}")
        return 0 if member else 1
    ordered = sorted(
        closure, key=lambda t: (t.x.sort_key(), t.y.sort_key(), t.z.sort_key())
    )
    print(f"closure size={len(ordered)}")
    for t in ordered:
        print(universe.render_triple(t))
    return 0


def _cmd_counterexample(args) -> int:
    sigma, universe = _universe_for(args.sigma, [args.tau])
    tau = parse_ci_triple(args.tau, universe)
    verdict = implies_positive(sigma, tau, universe.n)
    if not verdict.implied:
        table = single_atom_polymatroid(verdict.witness, universe.n)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(format_polymatroid(table, universe))
        print(f"NOT-IMPLIED witness=atom{universe.render_atom(verdict.witness)}")
        print(f"artifact={args.out} kind=single-atom")
        return 0
    found = parity_refutation(sigma, tau, universe.n)
    if found is not None:
        reduced, dist, _table = found
        write_distribution(dist, universe, args.out)
        print(f"NOT-IMPLIED witness={universe.render_triple(reduced)}")
        print(f"artifact={args.out} kind=parity")
        return 0
    # Neither construction applies; that is no proof of implication.
    print("UNKNOWN no-counterexample")
    return 1


def _cmd_validate(args) -> int:
    sigma, universe = _universe_for(args.sigma, [args.tau])
    tau = parse_ci_triple(args.tau, universe)
    try:
        lam = Fraction(args.lam)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad lambda {args.lam!r}") from None
    report = validate_bound(sigma, tau, lam, args.trials, args.seed, universe.n)
    print(report.render())
    return 0 if report.passed else 1


def _cmd_entropy(args) -> int:
    if args.table is not None:
        table, universe = read_polymatroid(args.table)
        term = _parse_measure_term(args.term, universe)
        if term[0] == "I":
            value = table.cmi(term[1])
        else:
            value = table.conditional_entropy(term[1], term[2])
        print(_render_value(value))
        return 0
    dist, universe = read_distribution(args.dist)
    term = _parse_measure_term(args.term, universe)

    def h(alpha):
        try:
            return entropy(dist, alpha)
        except CIError:
            return entropy(dist.as_float(), alpha)

    if term[0] == "I":
        t: CITriple = term[1]
        value = h(t.z | t.x) + h(t.z | t.y) - h(t.z | t.x | t.y) - h(t.z)
    else:
        alpha, beta = term[1], term[2]
        value = h(alpha | beta) - h(beta)
    print(_render_value(value))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cirelax",
        description="Decide and certify implications between conditional-independence statements.",
    )
    parser.add_argument(
        "--format", choices=["text"], default="text", help="output format (text only)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dsep", help="test d-separation in a DAG")
    p.add_argument("--dag", required=True)
    p.add_argument("--query", required=True, metavar='"I(X;Y|Z)"')
    p.set_defaults(func=_cmd_dsep)

    p = sub.add_parser("implies", help="test implication from a CI set")
    p.add_argument("--sigma", required=True)
    p.add_argument("--tau", required=True)
    p.add_argument("--mode", choices=["atoms", "lp", "graphoid"], default="atoms")
    p.set_defaults(func=_cmd_implies)

    p = sub.add_parser("bound", help="certify a relaxation bound")
    p.add_argument("--kind", choices=["recursive", "marginal"], required=True)
    p.add_argument("--dag")
    p.add_argument("--sigma")
    p.add_argument("--tau", required=True)
    p.add_argument("--artifact", help=f"refutation path (default {DEFAULT_ARTIFACT})")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("lambda", help="optimal approximation factor via exact LP")
    p.add_argument("--sigma", required=True)
    p.add_argument("--tau", required=True)
    p.set_defaults(func=_cmd_lambda)

    p = sub.add_parser("closure", help="semigraphoid closure of a CI set")
    p.add_argument("--sigma", required=True)
    p.add_argument("--tau")
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("counterexample", help="write a one-atom refutation table")
    p.add_argument("--sigma", required=True)
    p.add_argument("--tau", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_counterexample)

    p = sub.add_parser("validate", help="probe a bound on random distributions")
    p.add_argument("--sigma", required=True)
    p.add_argument("--tau", required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("entropy", help="evaluate H(...) or I(...) on a table")
    p.add_argument("--dist")
    p.add_argument("--table")
    p.add_argument("--term", required=True)
    p.set_defaults(func=_cmd_entropy)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if getattr(args, "seed", None) is None and hasattr(args, "seed"):
        args.seed = _default_seed()
    if getattr(args, "command", None) == "entropy" and (args.dist is None) == (
        args.table is None
    ):
        print("error: exactly one of --dist or --table is required", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (CIError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
