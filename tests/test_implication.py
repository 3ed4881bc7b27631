"""Certified checkers, semigraphoid closure, tightness, and validation."""

import random
import time
from fractions import Fraction

import pytest

from cirelax import (
    CapExceeded,
    CIError,
    CISet,
    InternalCheckError,
    CITriple,
    Dag,
    PolymatroidTable,
    Universe,
    active_trail,
    check_marginal,
    check_recursive,
    d_separated,
    entropic_table,
    is_polymatroid,
    optimal_lambda,
    parity_refutation,
    parse_ci_triple,
    random_distribution,
    recursive_basis,
    semigraphoid_closure,
    tightness_family,
    validate_bound,
)
from cirelax import implication
from cirelax.core import collect_names, members
from cirelax.distributions import linear_distribution
from cirelax.implication import _verify_refutation
from cirelax.polymatroids import LinearRanks, linear_rank_table

from helpers import (
    elemental_queries,
    random_ci_set,
    random_dag,
    random_marginal_set,
    random_triple,
)

UABC = Universe(("A", "B", "C"))


def T(text, universe=UABC):
    return parse_ci_triple(text, universe)


def chain3():
    return Dag.from_edges(("X1", "X2", "X3"), [("X1", "X2"), ("X2", "X3")])


def collider3():
    return Dag.from_edges(("X1", "X2", "X3"), [("X1", "X3"), ("X2", "X3")])


def verify_refutation(cert, sigma, tau):
    table = cert.refutation_table
    assert table is not None and table.exact
    assert is_polymatroid(table)
    assert all(table.cmi(s) == 0 for s in sigma)
    assert table.cmi(tau) == 1


class TestCheckRecursive:
    def test_chain_implied(self):
        dag = chain3()
        cert = check_recursive(dag, T("I(X1;X3|X2)", dag.universe))
        assert cert.implied and cert.lam == 1 and cert.kind == "recursive"

    def test_collider_conditioned_child(self):
        dag = collider3()
        tau = T("I(X1;X2|X3)", dag.universe)
        cert = check_recursive(dag, tau)
        assert not cert.implied
        assert cert.refutation_kind == "trail"
        assert cert.refutation_trail == (0, 2, 1)
        assert cert.refutation_distribution is None
        verify_refutation(cert, recursive_basis(dag), tau)

    def test_chain_unconditioned_ends(self):
        dag = chain3()
        tau = T("I(X1;X3)", dag.universe)
        cert = check_recursive(dag, tau)
        assert not cert.implied
        assert cert.refutation_kind == "trail"
        assert cert.witness_triple == tau
        assert cert.refutation_trail == (0, 1, 2)
        verify_refutation(cert, recursive_basis(dag), tau)

    def test_random_negative_verdicts_all_certified(self):
        rng = random.Random(101)
        negatives = 0
        while negatives < 100:
            n = rng.randrange(2, 6)
            dag = random_dag(n, rng)
            tau = random_triple(n, rng)
            cert = check_recursive(dag, tau)
            if cert.implied:
                continue
            negatives += 1
            verify_refutation(cert, recursive_basis(dag), tau)

    def test_implied_bound_on_random_distributions(self):
        rng = random.Random(103)
        found = 0
        while found < 40:
            n = rng.randrange(2, 6)
            dag = random_dag(n, rng)
            tau = random_triple(n, rng)
            if not check_recursive(dag, tau).implied:
                continue
            found += 1
            table = entropic_table(random_distribution(n, None, 4200 + found))
            assert table.cmi(tau) <= float(table.sigma_value(recursive_basis(dag))) + 1e-9

    def test_render_formats(self):
        dag = chain3()
        text = check_recursive(dag, T("I(X1;X3|X2)", dag.universe)).render(dag.universe)
        assert text == (
            "IMPLIED lambda=1\nkind=recursive\ntau=I(X1;X3|X2)\nsource=d-separation"
        )
        text = check_recursive(dag, T("I(X1;X3)", dag.universe)).render(dag.universe)
        assert text == (
            "NOT-IMPLIED witness=I(X1;X3)\nkind=recursive\ntau=I(X1;X3)\n"
            "refutation=trail X1,X2,X3"
        )
        dag = collider3()
        text = check_recursive(dag, T("I(X1;X2|X3)", dag.universe)).render(dag.universe)
        assert text.splitlines()[-1] == "refutation=trail X1,X3,X2"

    def test_network_budget_query_is_refuted(self):
        # Exhausted the 2**17-candidate network search of the former
        # refutation path; one active trail refutes it.
        names = tuple(f"v{i}" for i in range(12))
        edges = [(0, 2), (1, 2), (0, 4), (2, 5), (4, 6), (0, 7), (3, 7), (7, 8),
                 (0, 9), (1, 9), (4, 9), (7, 9), (7, 10), (8, 10), (1, 11),
                 (2, 11), (5, 11), (6, 11)]
        dag = Dag.from_edges(names, [(names[p], names[c]) for p, c in edges])
        tau = T("I(v10;v11|v2,v6,v8)", dag.universe)
        cert = check_recursive(dag, tau)
        assert not cert.implied and cert.refutation_kind == "trail"
        table = cert.refutation_table
        assert all(table.cmi(s) == 0 for s in recursive_basis(dag))
        assert table.cmi(tau) == 1

    def test_collider_path_into_the_trail_is_spliced(self):
        # The shortest trail x <- b -> c <- d -> y passes the collider c,
        # whose only path to z runs c -> e -> x -> z, through x itself.
        # Copying c down it would make x the XOR of b and c, that is d's
        # bit, and z a copy of x: tau would be 0.  The path is spliced in.
        names = ("x", "b", "c", "d", "y", "e", "z")
        dag = Dag.from_edges(
            names,
            [("b", "x"), ("b", "c"), ("d", "c"), ("d", "y"), ("c", "e"), ("e", "x"), ("x", "z")],
        )
        tau = T("I(x;y|z)", dag.universe)
        assert active_trail(dag, tau.x, tau.y, tau.z) == (0, 1, 2, 3, 4)
        cert = check_recursive(dag, tau)
        assert cert.refutation_trail == (0, 5, 2, 3, 4)
        verify_refutation(cert, recursive_basis(dag), tau)

    def test_separated_past_the_table_cap(self):
        # a chain of 20 nodes: nothing of size 2**n is built for a separated query
        names = tuple(f"v{i}" for i in range(20))
        dag = Dag.from_edges(names, [(names[i], names[i + 1]) for i in range(19)])
        cert = check_recursive(dag, T("I(v0;v19|v10)", dag.universe))
        assert cert.render(dag.universe).splitlines()[0] == "IMPLIED lambda=1"

    def test_connected_past_the_table_cap_raises_at_once(self):
        names = tuple(f"v{i}" for i in range(17))
        dag = Dag.from_edges(names, [(names[i], names[i + 1]) for i in range(16)])
        start = time.perf_counter()
        with pytest.raises(CapExceeded):
            check_recursive(dag, T("I(v0;v16)", dag.universe))
        assert time.perf_counter() - start < 0.5


class TestRefutationsFromForms:
    """Verdicts rank the refutation's forms on the CI terms only; the 2^n
    table and the distribution are built when a caller first reads them."""

    def test_decisions_build_no_table(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a 2^n object was built while deciding")

        monkeypatch.setattr(implication, "linear_rank_table", refuse)
        monkeypatch.setattr(implication, "linear_distribution", refuse)
        rng = random.Random(139)
        shipped = []
        for n in range(5, 17):
            found = 0
            while found < (1 if n > 12 else 3):
                dag = random_dag(n, rng, edge_prob=0.3)
                tau = random_triple(n, rng)
                cert = check_recursive(dag, tau)
                if not cert.implied:
                    found += 1
                    shipped.append((cert, recursive_basis(dag)))
        refuted = 0
        while refuted < 30:
            n = rng.randrange(3, 9)
            sigma = random_marginal_set(n, rng, rng.randrange(1, 4))
            cert = check_marginal(sigma, random_triple(n, rng), n)
            if not cert.implied:
                refuted += 1
                shipped.append((cert, sigma))
        for cert, sigma in shipped:
            ranks = LinearRanks(cert.refutation_forms)
            assert all(ranks.cmi(s) == 0 for s in sigma) and ranks.cmi(cert.tau) == 1
        monkeypatch.undo()
        for cert, _ in shipped:
            assert cert.refutation_table == linear_rank_table(cert.refutation_forms)
            if cert.refutation_kind == "parity":
                want = linear_distribution(cert.refutation_forms)
                assert cert.refutation_distribution == want
            else:
                assert cert.refutation_distribution is None

    def test_refuted_marginal_past_the_table_cap_raises_at_once(self):
        u = Universe(tuple(f"v{i}" for i in range(17)))
        start = time.perf_counter()
        with pytest.raises(CapExceeded):
            check_marginal(CISet((T("I(v0;v1)", u),)), T("I(v0;v16)", u), 17)
        assert time.perf_counter() - start < 0.5


class TestVerifyRefutation:
    def test_rejects_forms_that_leave_an_antecedent(self):
        # X1 = X2 = one shared bit keeps I(X1;X2|X3) = 1 but also I(X1;X2) = 1
        dag = collider3()
        tau = T("I(X1;X2|X3)", dag.universe)
        assert linear_rank_table((1, 1, 0)).cmi(tau) == 1
        with pytest.raises(InternalCheckError, match="annihilate"):
            _verify_refutation((1, 1, 0), recursive_basis(dag), tau)


class TestCheckMarginal:
    def test_direct_cover(self):
        u = Universe(("a", "b", "c", "d"))
        cert = check_marginal(CISet((T("I(a,b;c,d)", u),)), T("I(a;c|d)", u), 4)
        assert cert.implied and cert.lam == 1
        assert cert.covers[0][1] == (T("I(a,b;c,d)", u),)

    def test_conditioning_outside_antecedents(self):
        u = Universe(("a", "b", "c"))
        sigma = CISet((T("I(a;b)", u),))
        tau = T("I(a;b|c)", u)
        cert = check_marginal(sigma, tau, 3)
        assert not cert.implied
        assert cert.witness_triple == tau
        assert cert.refutation_parity == tau
        verify_refutation(cert, sigma, tau)

    def test_two_term_chain_cover(self):
        # both endpoints on one side of a cover, discharged by a second term
        u = Universe(("a", "b", "c"))
        sigma = CISet((T("I(a,b;c)", u), T("I(a;b)", u)))
        tau = T("I(a;b|c)", u)
        cert = check_marginal(sigma, tau, 3)
        assert cert.implied and cert.lam == 1
        assert cert.covers[0][1] == (T("I(a,b;c)", u), T("I(a;b)", u))
        # exact LP agrees that a finite factor exists
        from cirelax import UNBOUNDED

        assert optimal_lambda(sigma, tau, 3) is not UNBOUNDED

    def test_chain_rule_cover(self):
        u = Universe(("a", "b", "c"))
        cert = check_marginal(CISet((T("I(a;b,c)", u),)), T("I(a;c|b)", u), 3)
        assert cert.implied and cert.lam == 1

    def test_lambda_is_side_product(self):
        u = Universe(("a", "b", "c", "d"))
        sigma = CISet((T("I(a,b;c,d)", u),))
        cert = check_marginal(sigma, T("I(a,b;c,d)", u), 4)
        assert cert.implied and cert.lam == 4
        assert len(cert.covers) == 4

    def test_golden_certificate_text(self):
        u = Universe(("a", "b", "c", "d"))
        sigma = CISet((T("I(a,b;c,d)", u),))
        cert = check_marginal(sigma, T("I(a,b;c,d)", u), 4)
        assert cert.render(u) == (
            "IMPLIED lambda=4\n"
            "kind=marginal\n"
            "tau=I(a,b;c,d)\n"
            "lambda_hint=4\n"
            "cover I(a;c) <- I(a,b;c,d)\n"
            "cover I(b;c|a) <- I(a,b;c,d)\n"
            "cover I(a;d|c) <- I(a,b;c,d)\n"
            "cover I(b;d|a,c) <- I(a,b;c,d)"
        )
        neg = check_marginal(CISet((T("I(a;b)", u),)), T("I(a;b|c)", u), 4)
        assert neg.render(u) == (
            "NOT-IMPLIED witness=I(a;b|c)\n"
            "kind=marginal\n"
            "tau=I(a;b|c)\n"
            "refutation=parity I(a;b|c)"
        )

    def test_reduced_parity_refutation(self):
        # the only cover keeps both endpoints on one side and cannot be
        # discharged, so the refutation shrinks the conditioning set
        u = Universe(("a", "b", "c"))
        sigma = CISet((T("I(a,b;c)", u),))
        tau = T("I(a;b|c)", u)
        cert = check_marginal(sigma, tau, 3)
        assert not cert.implied
        assert cert.refutation_parity == T("I(a;b)", u)
        verify_refutation(cert, sigma, tau)

    def test_rejects_conditioned_antecedents(self):
        with pytest.raises(CIError):
            check_marginal(CISet((T("I(A;B|C)"),)), T("I(A;B)"), 3)

    def test_orientation_invariance(self):
        rng = random.Random(111)
        for trial in range(100):
            n = rng.randrange(2, 6)
            sigma = random_marginal_set(n, rng, rng.randrange(1, 4))
            flipped = CISet(tuple(CITriple(t.y, t.x, t.z) for t in sigma))
            tau = random_triple(n, rng)
            assert (
                check_marginal(sigma, tau, n).implied
                == check_marginal(flipped, tau, n).implied
            )

    def test_monotone_in_antecedents(self):
        rng = random.Random(113)
        for trial in range(150):
            n = rng.randrange(2, 6)
            sigma = random_marginal_set(n, rng, rng.randrange(1, 4))
            tau = random_triple(n, rng)
            if not check_marginal(sigma, tau, n).implied:
                continue
            bigger = CISet(tuple(sigma) + tuple(random_marginal_set(n, rng, 1)))
            assert check_marginal(bigger, tau, n).implied

    def test_implied_bound_on_random_distributions(self):
        rng = random.Random(127)
        found = 0
        while found < 40:
            n = rng.randrange(2, 6)
            sigma = random_marginal_set(n, rng, rng.randrange(1, 4))
            tau = random_triple(n, rng)
            cert = check_marginal(sigma, tau, n)
            if not cert.implied:
                continue
            found += 1
            table = entropic_table(random_distribution(n, None, 7700 + found))
            bound = float(cert.lam) * float(table.sigma_value(sigma))
            assert table.cmi(tau) <= bound + 1e-9


class TestParityRefutationSearch:
    def test_exactness_on_random_failures(self):
        rng = random.Random(131)
        found = 0
        while found < 60:
            n = rng.randrange(2, 6)
            sigma = random_marginal_set(n, rng, rng.randrange(1, 4))
            tau = random_triple(n, rng)
            if check_marginal(sigma, tau, n).implied:
                continue
            found += 1
            got = parity_refutation(sigma, tau, n)
            assert got is not None
            table = linear_rank_table(got[1])
            assert all(table.cmi(s) == 0 for s in sigma)
            assert table.cmi(tau) == 1

    def test_smallest_extension_by_brute_force(self):
        # The parity over S has h(A) = min(|A & S|, |S| - 1); the search
        # must return the first (a, b) in tau's index order and, for it,
        # the numerically smallest extension whose parity kills sigma.
        def parity_kills(s_mask, sigma, n):
            top = s_mask.bit_count() - 1
            table = PolymatroidTable(
                n, tuple(min((m & s_mask).bit_count(), top) for m in range(1 << n))
            )
            return all(table.cmi(t) == 0 for t in sigma)

        def brute(sigma, tau, n):
            for a in members(tau.x):
                for b in members(tau.y):
                    pool = tau.mentioned & ~(1 << a | 1 << b)
                    for ext in range(1 << n):
                        if ext & ~pool == 0 and parity_kills(1 << a | 1 << b | ext, sigma, n):
                            return CITriple(1 << a, 1 << b, ext)
            return None

        rng = random.Random(2024)
        for _ in range(400):
            n = rng.randrange(2, 7)
            sigma = random_ci_set(n, rng, rng.randrange(0, 5))
            tau = random_triple(n, rng)
            got = parity_refutation(sigma, tau, n)
            assert (got and got[0]) == brute(sigma, tau, n)


class TestSemigraphoidClosure:
    def test_motivating_example_members(self):
        sigma = CISet((T("I(A;B)"), T("I(A;C|B)")))
        closure = semigraphoid_closure(sigma, 3)
        assert T("I(A;B,C)") in closure
        assert T("I(A;C)") in closure

    def test_empty_input(self):
        assert semigraphoid_closure(CISet(), 3) == frozenset()

    def test_cap(self):
        with pytest.raises(CIError):
            semigraphoid_closure(CISet(), 6)

    def test_matches_d_separation_on_random_dags(self):
        rng = random.Random(139)
        for trial in range(20):
            n = rng.randrange(2, 6)
            dag = random_dag(n, rng)
            closure = semigraphoid_closure(recursive_basis(dag), n)
            for x, y, z in elemental_queries(n):
                assert (CITriple(x, y, z) in closure) == d_separated(dag, x, y, z)


class TestTightnessFamily:
    def test_n2(self):
        sigma, tau = tightness_family(2)
        assert list(sigma) == [tau] and tau == CITriple(0b01, 0b10)

    def test_rejects_n1(self):
        with pytest.raises(CIError):
            tightness_family(1)

    def test_identity_on_random_distributions(self):
        sigma, tau = tightness_family(4)
        for seed in range(100):
            table = entropic_table(random_distribution(4, None, seed + 60_000))
            assert abs(table.cmi(tau) - float(table.sigma_value(sigma))) <= 1e-9


class TestValidateBound:
    def test_tightness_passes_at_one(self):
        sigma, tau = tightness_family(4)
        report = validate_bound(sigma, tau, Fraction(1), 100, 3, 4)
        assert report.passed and report.max_violation <= 1e-9

    def test_zero_lambda_fails(self):
        sigma, tau = tightness_family(4)
        report = validate_bound(sigma, tau, Fraction(0), 20, 3, 4)
        assert not report.passed and report.max_violation > 0.1

    def test_deterministic_reports(self):
        sigma, tau = tightness_family(3)
        a = validate_bound(sigma, tau, Fraction(1), 25, 9, 3)
        b = validate_bound(sigma, tau, Fraction(1), 25, 9, 3)
        assert a == b and a.render() == b.render()

    def test_requires_trials(self):
        sigma, tau = tightness_family(3)
        with pytest.raises(CIError):
            validate_bound(sigma, tau, Fraction(1), 0, 1, 3)

    def test_caps_variables_before_drawing(self, monkeypatch):
        from cirelax import implication

        def no_draw(*args):
            raise AssertionError("drew a distribution past the cap")

        monkeypatch.setattr(implication, "random_distribution", no_draw)
        sigma, tau = tightness_family(13)
        with pytest.raises(CapExceeded):
            validate_bound(sigma, tau, Fraction(1), 20, 1, 13)

    def test_runs_at_the_cap(self):
        sigma, tau = tightness_family(12)
        assert validate_bound(sigma, tau, Fraction(1), 1, 1, 12).passed

    # Reports pinned from tables summed per subset straight from the joint.
    # Summing out one variable at a time adds the same floats in another
    # order, which must move no verdict and no worst seed.
    PINNED = (
        (("I(A;B)", "I(A;C|B)"), "I(A;C)", Fraction(1), 5,
         True, 5000017, -0.0049893479040759026),
        (("I(A;B)", "I(C;D)"), "I(A,C;B,D)", Fraction(1, 2), 11,
         False, 11000047, 0.7327598951585202),
        (("I(A;B)", "I(A;C)", "I(B;C)", "I(D;E,F,G)"), "I(A,B;C)", Fraction(1), 3,
         True, 3000017, -0.011696819213288467),
    )

    @pytest.mark.parametrize("case", PINNED, ids=("n3-pass", "n4-fail", "n7-pass"))
    def test_pinned_reports(self, case):
        antecedents, consequent, lam, seed, passed, worst_seed, violation = case
        u = Universe(tuple(collect_names(antecedents + (consequent,))))
        sigma = CISet(tuple(T(text, u) for text in antecedents))
        report = validate_bound(sigma, T(consequent, u), lam, 20, seed, u.n)
        assert (report.passed, report.worst_seed) == (passed, worst_seed)
        assert abs(report.max_violation - violation) <= 1e-12


class TestExactFromApproximate:
    """A finite factor plus h(sigma) = 0 forces h(tau) = 0 exactly."""

    def test_product_distribution_on_tightness_family(self):
        from cirelax import JointDistribution

        sigma, tau = tightness_family(3)
        table = entropic_table(
            JointDistribution((2, 2, 2), (Fraction(1, 8),) * 8)
        )
        assert table.sigma_value(sigma) == 0
        assert table.cmi(tau) == 0

    def test_parity_outside_the_family(self):
        u = Universe(("a", "b", "c"))
        sigma = CISet((T("I(a;b)", u),))
        table = entropic_table(
            linear_distribution(parity_refutation(sigma, T("I(a;b|c)", u), 3)[1])
        )
        assert table.sigma_value(sigma) == 0
        assert table.cmi(T("I(a;b|c)", u)) == 1
