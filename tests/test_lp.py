"""Exact LP over the polymatroid cone: rows, solver, optimal factors."""

import random
from fractions import Fraction

import pytest

from cirelax import (
    CIError,
    CISet,
    CITriple,
    ConeProgram,
    LinearFunctional,
    UNBOUNDED,
    Universe,
    check_recursive,
    elemental_inequalities,
    implies_positive,
    is_polymatroid,
    optimal_lambda,
    parse_ci_triple,
    recursive_basis,
    simplex_solve,
    tightness_family,
    validate_bound,
)
from cirelax.core import members

from helpers import (
    all_dags,
    lambda_by_highs,
    random_ci_set,
    random_triple,
    single_atom_polymatroid,
)

UABC = Universe(("A", "B", "C"))


def T(text, universe=UABC):
    return parse_ci_triple(text, universe)


def sec_example():
    return CISet((T("I(A;B)"), T("I(A;C|B)"))), T("I(A;C)")


class TestElementalInequalities:
    @pytest.mark.parametrize("n,count", [(2, 3), (3, 9), (4, 28), (5, 85)])
    def test_row_counts(self, n, count):
        assert len(elemental_inequalities(n)) == count

    def test_cap(self):
        with pytest.raises(CIError):
            elemental_inequalities(6)
        with pytest.raises(CIError):
            elemental_inequalities(1)

    def test_rows_are_built_once_per_n(self):
        assert elemental_inequalities(4) is elemental_inequalities(4)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_row_order(self, n):
        # monotonicity rows by variable, then I(i;j|K) by i < j and K ascending
        full = (1 << n) - 1
        expected = [
            LinearFunctional.from_dict({full: Fraction(1), full ^ (1 << i): Fraction(-1)})
            for i in range(n)
        ]
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(1 << n):
                    if not k >> i & 1 and not k >> j & 1:
                        t = CITriple(1 << i, 1 << j, k)
                        expected.append(LinearFunctional.cmi(t))
        assert elemental_inequalities(n) == tuple(expected)

    def test_rows_vanish_nowhere_on_entropies(self):
        from cirelax import entropic_table, random_distribution

        for seed in range(10):
            table = entropic_table(random_distribution(3, None, seed))
            for row in elemental_inequalities(3):
                assert row.evaluate(table) >= -1e-9

    def test_general_inequalities_decompose_into_rows(self):
        # every monotonicity step and every submodularity instance is a sum
        # of generating rows (checked symbolically for n = 3)
        n = 3
        full = (1 << n) - 1
        rows = set(elemental_inequalities(n))

        def mono_step(a_mask, i):
            # h(a + i) - h(a) as a sum of rows
            d = {a_mask | (1 << i): Fraction(1)}
            d[a_mask] = d.get(a_mask, Fraction(0)) - 1
            return LinearFunctional.from_dict(d)

        for a_mask in range(1 << n):
            for i in range(n):
                if a_mask >> i & 1:
                    continue
                target = mono_step(a_mask, i)
                # decomposition: h(i|a) = mono row for i plus I(i;j|...)
                acc = {}
                rest = full & ~a_mask & ~(1 << i)
                parts = [
                    LinearFunctional.from_dict(
                        {full: Fraction(1), full ^ (1 << i): Fraction(-1)}
                    )
                ]
                grown = a_mask
                for j in members(rest):
                    t = CITriple(1 << i, 1 << j, grown)
                    parts.append(LinearFunctional.cmi(t))
                    grown |= 1 << j
                total = {}
                for part in parts:
                    assert part in rows
                    for mask, c in part.coeffs:
                        total[mask] = total.get(mask, Fraction(0)) + c
                assert LinearFunctional.from_dict(total) == target

    def test_general_submodularity_decomposes_into_rows(self):
        from cirelax import elemental_decompose

        n = 3
        rows = set(elemental_inequalities(n))
        for a_mask in range(1 << n):
            for b_mask in range(1 << n):
                xs = a_mask & ~b_mask
                ys = b_mask & ~a_mask
                if not xs or not ys:
                    continue  # the inequality is the trivial identity
                target = LinearFunctional.from_dict(
                    {
                        a_mask: Fraction(1),
                        b_mask: Fraction(1),
                        a_mask | b_mask: Fraction(-1),
                        a_mask & b_mask: Fraction(-1),
                    }
                )
                t = CITriple(xs, ys, a_mask & b_mask)
                total = {}
                for part in elemental_decompose(t):
                    f = LinearFunctional.cmi(part)
                    assert f in rows
                    for mask, c in f.coeffs:
                        total[mask] = total.get(mask, Fraction(0)) + c
                assert LinearFunctional.from_dict(total) == target


class TestSimplexSolve:
    def test_zero_objective(self):
        prog = ConeProgram(2, LinearFunctional.from_dict({}))
        res = simplex_solve(prog)
        assert res.status == "optimal" and res.optimum == 0

    def test_bounded_single_variable(self):
        prog = ConeProgram(
            2,
            LinearFunctional.from_dict({0b01: Fraction(1)}),
            ((LinearFunctional.from_dict({0b01: Fraction(1)}), Fraction(1)),),
        )
        res = simplex_solve(prog)
        assert res.status == "optimal" and res.optimum == 1
        assert res.point.value(0b01) == 1

    def test_unbounded_without_normalization(self):
        prog = ConeProgram(2, LinearFunctional.from_dict({0b01: Fraction(1)}))
        assert simplex_solve(prog).status == "unbounded"

    def test_mask_outside_the_variables_raises(self):
        for mask in (0b100, 0b111):
            with pytest.raises(CIError):
                simplex_solve(ConeProgram(2, LinearFunctional.from_dict({mask: Fraction(1)})))
            with pytest.raises(CIError):
                simplex_solve(
                    ConeProgram(
                        2,
                        LinearFunctional.from_dict({}),
                        ((LinearFunctional.from_dict({mask: Fraction(1)}), Fraction(1)),),
                    )
                )

    def test_negative_rhs_raises(self):
        prog = ConeProgram(
            2,
            LinearFunctional.from_dict({0b01: Fraction(1)}),
            ((LinearFunctional.from_dict({0b01: Fraction(-1)}), Fraction(-1)),),
        )
        with pytest.raises(CIError):
            simplex_solve(prog)

    def test_points_satisfy_the_cone_exactly(self):
        rng = random.Random(7)
        for trial in range(20):
            n = rng.randrange(2, 5)
            sigma = random_ci_set(n, rng, rng.randrange(1, 4))
            tau = random_triple(n, rng)
            prog = ConeProgram(
                n,
                LinearFunctional.cmi(tau),
                ((LinearFunctional.total_cmi(sigma), Fraction(1)),),
            )
            res = simplex_solve(prog)
            if res.status == "optimal":
                assert is_polymatroid(res.point, 0)
                assert LinearFunctional.cmi(tau).evaluate(res.point) == res.optimum

    def test_determinism(self):
        sigma, tau = sec_example()
        prog = ConeProgram(
            3,
            LinearFunctional.cmi(tau),
            ((LinearFunctional.total_cmi(sigma), Fraction(1)),),
        )
        a = simplex_solve(prog)
        b = simplex_solve(prog)
        assert a.optimum == b.optimum
        assert a.point == b.point
        assert a.pivots == b.pivots


class TestOptimalLambda:
    def test_motivating_example_is_one(self):
        sigma, tau = sec_example()
        assert optimal_lambda(sigma, tau, 3) == 1

    def test_tightness_family_is_one(self):
        for n in (2, 3, 4, 5):
            sigma, tau = tightness_family(n)
            assert optimal_lambda(sigma, tau, n) == 1

    def test_conditioning_gap_is_unbounded(self):
        assert optimal_lambda(CISet((T("I(A;B)"),)), T("I(A;B|C)"), 3) is UNBOUNDED

    def test_empty_antecedents_unbounded(self):
        assert optimal_lambda(CISet(), T("I(A;B)"), 3) is UNBOUNDED

    def test_out_of_range_consequent_raises(self):
        u = Universe(("X0", "X1", "X2", "X3"))
        with pytest.raises(CIError):
            optimal_lambda(CISet(), parse_ci_triple("I(X0;X3)", u), 3)

    def test_out_of_range_antecedent_raises(self):
        u = Universe(("X0", "X1", "X2", "X3"))
        sigma = CISet((parse_ci_triple("I(X0;X3)", u),))
        with pytest.raises(CIError):
            optimal_lambda(sigma, parse_ci_triple("I(X0;X1)", u), 3)

    def test_matches_highs(self):
        rng = random.Random(4242)
        for trial in range(40):
            n = rng.randrange(2, 5)
            sigma = random_ci_set(n, rng, rng.randrange(0, 4))
            tau = random_triple(n, rng)
            lam = optimal_lambda(sigma, tau, n)
            ref = lambda_by_highs(sigma, tau, n)
            if ref is None:
                assert lam is UNBOUNDED, (sigma, tau)
            else:
                assert lam is not UNBOUNDED and abs(float(lam) - ref) < 1e-6, (sigma, tau)

    def test_unbounded_whenever_atoms_uncovered(self):
        rng = random.Random(77)
        found = 0
        while found < 30:
            n = rng.randrange(2, 5)
            sigma = random_ci_set(n, rng, rng.randrange(0, 3))
            tau = random_triple(n, rng)
            if implies_positive(sigma, tau, n).implied:
                continue
            found += 1
            assert optimal_lambda(sigma, tau, n) is UNBOUNDED

    def test_recursive_bases_never_exceed_one(self):
        for dag in all_dags(3):
            basis = recursive_basis(dag)
            for tau_text in ("I(X1;X2)", "I(X1;X3|X2)", "I(X2;X3|X1)"):
                tau = T(tau_text, dag.universe)
                if check_recursive(dag, tau).implied:
                    lam = optimal_lambda(basis, tau, 3)
                    assert lam is not UNBOUNDED and lam <= 1

    def test_soundness_bridge_to_random_validation(self):
        sigma, tau = sec_example()
        lam = optimal_lambda(sigma, tau, 3)
        report = validate_bound(sigma, tau, lam, 50, 21, 3)
        assert report.passed

    def test_optimum_dominates_random_feasible_points(self):
        # lambda* maximizes I(tau)/I(sigma) over the cone, so no sampled
        # cone point may exceed it; points come from random non-negative
        # atom masses, an independent construction
        from helpers import AtomMeasure, polymatroid_from_atoms

        rng = random.Random(303)
        for trial in range(30):
            n = rng.randrange(2, 5)
            sigma = random_ci_set(n, rng, rng.randrange(1, 3))
            tau = random_triple(n, rng)
            lam = optimal_lambda(sigma, tau, n)
            sig_f = LinearFunctional.total_cmi(sigma)
            tau_f = LinearFunctional.cmi(tau)
            for _ in range(20):
                mass = [Fraction(0)] + [
                    Fraction(rng.randrange(0, 5), rng.randrange(1, 4))
                    for _ in range((1 << n) - 1)
                ]
                table = polymatroid_from_atoms(AtomMeasure(n, tuple(mass)))
                denom = sig_f.evaluate(table)
                value = tau_f.evaluate(table)
                if denom == 0:
                    if value > 0:
                        assert lam is UNBOUNDED
                elif lam is not UNBOUNDED:
                    assert value <= lam * denom


class TestCheckAiGamma:
    """Approximate implication over the polymatroid cone Gamma_n: the bound
    h(tau) <= lam * h(sigma) holds on the whole cone exactly when
    ``optimal_lambda`` is finite and at most lam."""

    @staticmethod
    def holds(sigma, tau, lam, n):
        star = optimal_lambda(sigma, tau, n)
        return star is not UNBOUNDED and star <= lam

    def test_recursive_basis_factor_one(self):
        for dag in all_dags(3):
            basis = recursive_basis(dag)
            tau = T("I(X1;X3|X2)", dag.universe)
            if check_recursive(dag, tau).implied:
                assert self.holds(basis, tau, 1, 3)

    def test_marginal_factor(self):
        u = Universe(("a", "b", "c", "d"))
        sigma = CISet((parse_ci_triple("I(a,b;c,d)", u),))
        tau = parse_ci_triple("I(a,b;c,d)", u)
        assert self.holds(sigma, tau, 4, 4)

    def test_below_optimum_fails(self):
        sigma, tau = sec_example()
        assert self.holds(sigma, tau, 1, 3)
        assert not self.holds(sigma, tau, Fraction(1, 2), 3)


class TestRouteContainment:
    """The three implication routes form a one-way chain: closure-derivable
    implies a finite LP factor, which implies atom coverage.  Neither
    containment reverses in general (conditioned colliders separate the
    last two; closure incompleteness separates the first two)."""

    def test_chain_on_random_instances(self):
        from cirelax import semigraphoid_closure

        rng = random.Random(97)
        for trial in range(60):
            n = rng.randrange(2, 4)
            sigma = random_ci_set(n, rng, rng.randrange(0, 3))
            tau = random_triple(n, rng)
            in_closure = tau in semigraphoid_closure(sigma, n)
            lam = optimal_lambda(sigma, tau, n)
            covered = implies_positive(sigma, tau, n).implied
            if in_closure:
                assert lam is not UNBOUNDED
            if lam is not UNBOUNDED:
                assert covered

    def test_gap_between_lp_and_atoms(self):
        sigma = CISet((T("I(A;B)"),))
        tau = T("I(A;B|C)")
        assert implies_positive(sigma, tau, 3).implied
        assert optimal_lambda(sigma, tau, 3) is UNBOUNDED


class TestWitnessGivesRay:
    def test_single_atom_table_is_a_certified_ray(self):
        sigma = CISet((T("I(A;B|C)"),))
        tau = T("I(A;B)")
        verdict = implies_positive(sigma, tau, 3)
        assert not verdict.implied
        ray = single_atom_polymatroid(verdict.witness, 3)
        assert LinearFunctional.total_cmi(sigma).evaluate(ray) == 0
        assert LinearFunctional.cmi(tau).evaluate(ray) == 1
        assert optimal_lambda(sigma, tau, 3) is UNBOUNDED
