"""Command-line interface.

Every command is deterministic given its inputs and seed, prints a
line-oriented report with stable field order, and exits 0 for a positive
verdict, 1 for a negative one, and 2 on any usage or input error or failed
internal check, so that a crash never reads as a negative verdict.
The input picks each verdict's engine: ``bound`` runs ``check_recursive``
on ``--dag`` and ``check_marginal`` on ``--sigma``; ``implies`` runs
``check_marginal`` on marginal antecedents, else the exact LP up to
``MAX_LP_VARIABLES`` variables, else a verified refutation, and exits 2
with ``UNKNOWN`` when none applies.  Exit 1 from ``counterexample`` (none
found) or ``closure --tau`` (not in the incomplete closure) is no
refutation.  The environment variable ``CIRELAX_SEED`` overrides the
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
    _name_list,
    _payload_lines,
    collect_names,
    members,
    parse_ci_lines,
    parse_ci_triple,
)
from .dag import d_separated, read_dag_file
from .distributions import entropy, linear_distribution, read_distribution, write_distribution
from .implication import (
    _verify_refutation,
    check_marginal,
    check_recursive,
    implies_positive,
    parity_refutation,
    semigraphoid_closure,
    validate_bound,
)
from .lp import MAX_LP_VARIABLES, UNBOUNDED, LinearFunctional, optimal_lambda
from .polymatroids import linear_rank_table, read_polymatroid, write_polymatroid

DEFAULT_ARTIFACT = "refutation.out"
ONE_INPUT_OF = {"bound": ("dag", "sigma"), "entropy": ("dist", "table")}


def _default_seed() -> int:
    text = os.environ.get("CIRELAX_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"CIRELAX_SEED must be an integer, got {text!r}") from None


def _universe_for(
    sigma_path: str, tau_text: str | None
) -> tuple[CISet, CITriple | None, Universe]:
    """Antecedents, the parsed ``--tau`` (``None`` when absent) and a
    universe covering both, in order of first appearance."""
    with open(sigma_path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    texts = [text for _, text in _payload_lines(lines)]
    queries = [] if tau_text is None else [tau_text]
    sigma, universe = parse_ci_lines(lines, Universe(tuple(collect_names(texts + queries))))
    tau = parse_ci_triple(tau_text, universe) if queries else None
    return sigma, tau, universe


def _render_value(v) -> str:
    text = f"{float(v):.12g}"
    if "." not in text and "e" not in text and "n" not in text:
        text += ".0"
    return text


def _parse_measure_term(text: str, universe: Universe) -> LinearFunctional:
    """``H(A)``, ``H(A|B)``, ``I(X;Y)`` or ``I(X;Y|Z)``, as a form over
    subset masks; ``H(A|B)`` is h(A | B) - h(B)."""
    s = text.strip()
    if s.startswith("I(") and s.endswith(")"):
        return LinearFunctional.cmi(parse_ci_triple(s, universe))
    if s.startswith("H(") and s.endswith(")"):
        left, _, right = s[2:-1].partition("|")
        alpha = universe.set_of(*_name_list(left))
        beta = universe.set_of(*_name_list(right))
        if not alpha:
            raise ParseError(f"empty entropy argument in {text!r}")
        return LinearFunctional.from_terms(((alpha | beta, 1), (beta, -1)))
    raise ParseError(f"expected H(...) or I(...), got {text!r}")


def _write_refutation(kind: str, forms: tuple[int, ...], universe: Universe, path: str) -> None:
    if kind == "parity":
        write_distribution(linear_distribution(forms), universe, path)
    else:
        write_polymatroid(linear_rank_table(forms), universe, path)


def _refutation(
    sigma: CISet, tau: CITriple, universe: Universe
) -> tuple[str, str, tuple[int, ...]] | None:
    """A verified single-atom, else parity, refutation: its verdict line,
    kind and GF(2) forms, or ``None``, which is no proof of implication."""
    n = universe.n
    verdict = implies_positive(sigma, tau, n)
    if not verdict.implied:
        forms = tuple(verdict.witness >> v & 1 for v in range(n))
        _verify_refutation(forms, sigma, tau)
        atom = universe.render_atom(verdict.witness)
        return f"NOT-IMPLIED witness=atom{atom}", "single-atom", forms
    found = parity_refutation(sigma, tau, n)
    if found is None:
        return None
    reduced, forms = found
    return f"NOT-IMPLIED witness={universe.render_triple(reduced)}", "parity", forms


def _cmd_dsep(args) -> int:
    dag = read_dag_file(args.dag)
    tau = parse_ci_triple(args.query, dag.universe)
    separated = d_separated(dag, tau.x, tau.y, tau.z)
    print("SEPARATED" if separated else "NOT-SEPARATED")
    print(f"query={dag.universe.render_triple(tau)}")
    return 0 if separated else 1


def _cmd_implies(args) -> int:
    sigma, tau, universe = _universe_for(args.sigma, args.tau)
    n = universe.n
    if not any(s.z for s in sigma):
        cert = check_marginal(sigma, tau, n)
        verdict, engine = cert.render(universe).split("\n", 1)[0], "marginal"
    elif n <= MAX_LP_VARIABLES:
        lam = optimal_lambda(sigma, tau, n)
        verdict = "NOT-IMPLIED lambda=unbounded" if lam is UNBOUNDED else f"IMPLIED lambda={lam}"
        engine = "lp"
    else:
        verdict, engine, _ = _refutation(sigma, tau, universe) or ("UNKNOWN", "none", ())
    print(verdict)
    print(f"engine={engine}")
    return 2 if engine == "none" else 0 if verdict.startswith("IMPLIED") else 1


def _cmd_bound(args) -> int:
    if args.dag is not None:
        dag = read_dag_file(args.dag)
        universe = dag.universe
        tau = parse_ci_triple(args.tau, universe)
        cert = check_recursive(dag, tau)
    else:
        sigma, tau, universe = _universe_for(args.sigma, args.tau)
        cert = check_marginal(sigma, tau, universe.n)
    print(cert.render(universe))
    if not cert.implied:
        path = args.artifact or DEFAULT_ARTIFACT
        _write_refutation(cert.refutation_kind, cert.refutation_forms, universe, path)
        print(f"artifact={path}")
    return 0 if cert.implied else 1


def _cmd_lambda(args) -> int:
    sigma, tau, universe = _universe_for(args.sigma, args.tau)
    lam = optimal_lambda(sigma, tau, universe.n)
    if lam is UNBOUNDED:
        print("lambda=unbounded")
        return 1
    print(f"lambda={lam}")
    return 0


def _cmd_closure(args) -> int:
    sigma, tau, universe = _universe_for(args.sigma, args.tau or None)
    closure = semigraphoid_closure(sigma, universe.n)
    if tau is not None:
        member = tau in closure
        # the closure is sound but not complete: a non-member is no refutation
        print("IMPLIED" if member else "UNKNOWN not-in-closure")
        print(f"tau={universe.render_triple(tau)}")
        return 0 if member else 1
    # each side sorts by its index tuple, so I(a;b,c) comes before I(a;c)
    ordered = sorted(closure, key=lambda t: tuple(tuple(members(s)) for s in (t.x, t.y, t.z)))
    print(f"closure size={len(ordered)}")
    for t in ordered:
        print(universe.render_triple(t))
    return 0


def _cmd_counterexample(args) -> int:
    sigma, tau, universe = _universe_for(args.sigma, args.tau)
    found = _refutation(sigma, tau, universe)
    if found is None:
        print("UNKNOWN no-counterexample")
        return 1
    verdict, kind, forms = found
    _write_refutation(kind, forms, universe, args.out)
    print(verdict)
    print(f"artifact={args.out} kind={kind}")
    return 0


def _cmd_validate(args) -> int:
    sigma, tau, universe = _universe_for(args.sigma, args.tau)
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
        h = table.value
    else:
        dist, universe = read_distribution(args.dist)

        def h(mask):
            try:
                return entropy(dist, mask)
            except CIError:
                return entropy(dist.as_float(), mask)

    print(_render_value(_parse_measure_term(args.term, universe).evaluate(h)))
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
    p.set_defaults(func=_cmd_implies)

    p = sub.add_parser("bound", help="certify a relaxation bound")
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

    p = sub.add_parser(
        "counterexample",
        help="write a one-atom refutation table or a parity distribution",
    )
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
    pair = ONE_INPUT_OF.get(args.command)
    if pair and (getattr(args, pair[0]) is None) == (getattr(args, pair[1]) is None):
        print(f"error: exactly one of --{pair[0]} or --{pair[1]} is required", file=sys.stderr)
        return 2
    try:
        if getattr(args, "seed", None) is None and hasattr(args, "seed"):
            args.seed = _default_seed()
        return args.func(args)
    except (CIError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
