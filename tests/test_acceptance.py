"""Acceptance suite: one test per numbered criterion, exact tolerances.

Each test prints a single ``ACCEPTANCE k: PASS/FAIL`` line (run pytest with
``-s`` to see them live).  Criterion 1 is a known mathematical gap and is
expected to fail; see its docstring.
"""

import random
import time
from fractions import Fraction

import pytest

from cirelax import (
    CISet,
    CITriple,
    UNBOUNDED,
    Universe,
    check_marginal,
    d_separated,
    entropic_table,
    implies_positive,
    is_polymatroid,
    optimal_lambda,
    parity_distribution,
    parse_ci_triple,
    random_distribution,
    recursive_basis,
    semigraphoid_closure,
    tightness_family,
)

from helpers import (
    all_canonical_triples,
    all_dags,
    atom_measure,
    atoms_of,
    elemental_queries,
    random_ci_set,
    random_dag,
    random_marginal_set,
    random_triple,
    single_atom_polymatroid,
)

TOL = 1e-9


def report(k: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {k} {name}: {status}{suffix}")


def test_criterion_1_dsep_equals_atom_inclusion():
    """d-separation vs atom inclusion over the basis: asserted equivalent.

    This equivalence is FALSE and the test documents that fact: atom
    inclusion characterizes implication over non-negative atom measures,
    which is strictly weaker than d-separation.  Smallest gap: for the
    collider X1 -> X3 <- X2 the basis is {(X1;X2)}, whose atoms cover the
    atoms of (X1;X2|X3), yet conditioning on X3 d-connects X1 and X2 (the
    XOR distribution refutes).  The test runs the full sweep and reports
    the first few disagreements; it is expected to fail.
    """
    start = time.monotonic()
    rng = random.Random(1001)
    dags = [d for n in (2, 3, 4) for d in all_dags(n)]
    dags += [random_dag(5, rng) for _ in range(200)]
    mismatches = []
    total = 0
    for dag in dags:
        n = dag.n
        basis = recursive_basis(dag)
        for x, y, z in elemental_queries(n, max_z=2):
            total += 1
            t = CITriple(x, y, z)
            sep = d_separated(dag, x, y, z)
            pos = implies_positive(basis, t, n).implied
            if sep != pos and len(mismatches) < 5:
                mismatches.append((dag, t, sep, pos))
    elapsed = time.monotonic() - start
    ok = not mismatches and elapsed < 60.0
    report(1, "dsep == atom-inclusion", ok, f"{total} queries, {elapsed:.1f}s")
    assert elapsed < 60.0
    if mismatches:
        dag, t, sep, pos = mismatches[0]
        pytest.fail(
            f"{len(mismatches)}+ disagreements out of {total}; first: {dag!r} "
            f"query {t!r}: d-separated={sep}, atom-implied={pos}. "
            f"Atom inclusion decides implication over non-negative atom "
            f"measures only; conditioned colliders are atom-implied but not "
            f"separated, so the claimed equivalence cannot hold."
        )


def test_criterion_2_recursive_factor_one_bound():
    """Separated consequents obey h(tau) <= h(basis) on random tables."""
    rng = random.Random(2002)
    checked = 0
    worst = -1.0
    while checked < 200:
        n = rng.randrange(2, 6)
        dag = random_dag(n, rng)
        implied = [
            CITriple(x, y, z)
            for x, y, z in elemental_queries(n)
            if d_separated(dag, x, y, z)
        ]
        if not implied:
            continue
        tau = implied[rng.randrange(len(implied))]
        basis = recursive_basis(dag)
        table = entropic_table(random_distribution(n, None, 20_000 + checked))
        violation = table.cmi(tau) - float(table.sigma_value(basis))
        worst = max(worst, violation)
        assert violation <= TOL, (dag, tau, violation)
        checked += 1
    report(2, "recursive lambda=1 bound", True, f"200 tuples, worst={worst:.2e}")


def test_criterion_3_tightness_family():
    """The chained family is exactly tight: identity on tables, LP factor 1."""
    for n in (2, 3, 4, 5):
        sigma, tau = tightness_family(n)
        for trial in range(100):
            table = entropic_table(random_distribution(n, None, 30_000 + 100 * n + trial))
            gap = abs(table.cmi(tau) - float(table.sigma_value(sigma)))
            assert gap <= TOL, (n, trial, gap)
        assert optimal_lambda(sigma, tau, n) == Fraction(1), n
    report(3, "tightness family", True, "n=2..5, 100 tables each, LP factor 1")


def test_criterion_4_parity_construction_exact():
    """Parity tables: 1 on their own triple, 0 on every non-covering or
    one-side-untouched term, in exact arithmetic."""
    rng = random.Random(4004)
    for trial in range(50):
        n = rng.randrange(2, 6)
        tau = random_triple(n, rng)
        table = entropic_table(parity_distribution(n, tau))
        assert table.cmi(tau) == 1, (tau, trial)
        s = tau.mentioned
        for sigma in all_canonical_triples(n):
            covers = not s & ~sigma.mentioned
            if not covers:
                assert table.cmi(sigma) == 0, (tau, sigma)
            elif not sigma.x & s or not sigma.y & s:
                assert table.cmi(sigma) == 0, (tau, sigma)
    report(4, "parity construction", True, "50 triples, exact zeros and ones")


def test_criterion_5_marginal_bound_and_refutations():
    """Implied: h(tau) <= |X||Y| h(sigma) on random tables.  Not implied:
    the shipped parity refutation is exactly (0, 1)."""
    rng = random.Random(5005)
    implied_checked = 0
    refuted_checked = 0
    worst = -1.0
    while implied_checked < 200:
        n = rng.randrange(2, 6)
        sigma = random_marginal_set(n, rng, rng.randrange(1, 4))
        tau = random_triple(n, rng)
        cert = check_marginal(sigma, tau, n)
        if cert.implied:
            table = entropic_table(
                random_distribution(n, None, 50_000 + implied_checked)
            )
            bound = float(cert.lam) * float(table.sigma_value(sigma))
            violation = table.cmi(tau) - bound
            worst = max(worst, violation)
            assert violation <= TOL, (sigma, tau, violation)
            implied_checked += 1
        else:
            table = cert.refutation_table
            assert table is not None and table.exact
            assert all(table.cmi(s) == 0 for s in sigma), (sigma, tau)
            assert table.cmi(tau) == 1, (sigma, tau)
            refuted_checked += 1
    assert refuted_checked > 0
    report(
        5,
        "marginal |X||Y| bound",
        True,
        f"200 implied (worst={worst:.2e}), {refuted_checked} refutations exact",
    )


def test_criterion_6_single_atom_refutation_soundness():
    """Witness atoms always yield exact polymatroid refutations."""
    rng = random.Random(6006)
    checked = 0
    while checked < 500:
        n = rng.randrange(2, 7)
        sigma = random_ci_set(n, rng, rng.randrange(0, 4))
        tau = random_triple(n, rng)
        verdict = implies_positive(sigma, tau, n)
        if verdict.implied:
            continue
        table = single_atom_polymatroid(verdict.witness, n)
        assert is_polymatroid(table)
        assert all(table.cmi(s) == 0 for s in sigma), (sigma, tau)
        assert table.cmi(tau) == 1, (sigma, tau)
        checked += 1
    report(6, "single-atom refutation soundness", True, "500 pairs, exact")


def test_criterion_7_atom_measure_consistency():
    """Moebius masses reconstruct every entropy and every CMI."""
    rng = random.Random(7007)
    for trial in range(200):
        n = rng.randrange(2, 5)
        sizes = tuple(rng.choice((2, 3)) for _ in range(n))
        d = random_distribution(n, sizes, 70_000 + trial)
        measure = atom_measure(d)
        table = entropic_table(d)
        for mask in range(1, 1 << n):
            total = sum(measure.mass[s] for s in range(1, 1 << n) if s & mask)
            assert abs(total - table.value(mask)) <= TOL, (trial, mask)
        for t in all_canonical_triples(n):
            got = measure.total_on(atoms_of(t, n))
            assert abs(got - table.cmi(t)) <= TOL, (trial, t)
    report(7, "atom-measure consistency", True, "200 distributions")


def test_criterion_8_lp_coherence():
    """The motivating example has exact factor 1; every pair whose atoms are
    uncovered is unbounded, exhaustively for n <= 3 and |sigma| <= 2."""
    start = time.monotonic()
    u = Universe(("A", "B", "C"))
    sigma = CISet((parse_ci_triple("I(A;B)", u), parse_ci_triple("I(A;C|B)", u)))
    tau = parse_ci_triple("I(A;C)", u)
    assert optimal_lambda(sigma, tau, 3) == Fraction(1)

    import itertools

    lp_calls = 0
    for n in (2, 3):
        triples = all_canonical_triples(n)
        subsets = [()]
        subsets += [(t,) for t in triples]
        subsets += list(itertools.combinations(triples, 2))
        for subset in subsets:
            sig = CISet(subset)
            for t in triples:
                if not implies_positive(sig, t, n).implied:
                    lp_calls += 1
                    assert optimal_lambda(sig, t, n) is UNBOUNDED, (sig, t)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    report(8, "LP coherence", True, f"{lp_calls} unbounded checks, {elapsed:.1f}s")


def test_criterion_9_semigraphoid_closure_agreement():
    """Closure membership of the basis matches d-separation on all
    elemental queries, exhaustively for n <= 4 plus 50 seeded n = 5."""
    assert [len(all_dags(n)) for n in (2, 3, 4)] == [3, 25, 543]
    start = time.monotonic()
    rng = random.Random(9009)
    dags = [d for n in (2, 3, 4) for d in all_dags(n)]
    dags += [random_dag(5, rng) for _ in range(50)]
    queries = 0
    for dag in dags:
        n = dag.n
        closure = semigraphoid_closure(recursive_basis(dag), n)
        for x, y, z in elemental_queries(n):
            queries += 1
            member = CITriple(x, y, z) in closure
            assert member == d_separated(dag, x, y, z), (dag, (x, y, z))
    elapsed = time.monotonic() - start
    report(9, "semigraphoid oracle agreement", True, f"{queries} queries, {elapsed:.1f}s")
