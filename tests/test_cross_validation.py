"""Cross-route consistency: the combinatorial checkers against the exact LP.

The LP over the polymatroid cone decides, independently of the graph and
cover machinery, whether a finite approximation factor exists and what the
least one is.  Both certified checkers must agree with it exactly.
"""

import itertools
import random
from fractions import Fraction

from cirelax import (
    CISet,
    CITriple,
    UNBOUNDED,
    VarSet,
    check_ai_gamma,
    check_marginal,
    check_recursive,
    optimal_lambda,
    recursive_basis,
)

from helpers import (
    all_canonical_triples,
    all_dags,
    polymatroid_by_definition,
    random_dag,
    random_marginal_set,
    random_triple,
)


class TestRecursiveVersusLP:
    def test_exhaustive_n3(self):
        """Separation holds exactly when the factor-1 bound holds over the
        whole cone, for every DAG and every triple on three variables."""
        triples = all_canonical_triples(3)
        for dag in all_dags(3):
            basis = recursive_basis(dag)
            for tau in triples:
                implied = check_recursive(dag, tau).implied
                assert implied == check_ai_gamma(basis, tau, Fraction(1), 3), (
                    dag,
                    tau,
                )

    def test_sampled_n4(self):
        rng = random.Random(211)
        for trial in range(12):
            dag = random_dag(4, rng)
            basis = recursive_basis(dag)
            for _ in range(6):
                tau = random_triple(4, rng)
                implied = check_recursive(dag, tau).implied
                assert implied == check_ai_gamma(basis, tau, Fraction(1), 4), (
                    dag,
                    tau,
                )

    def test_implied_lambda_star_never_exceeds_one(self):
        rng = random.Random(223)
        found = 0
        while found < 25:
            n = rng.randrange(2, 5)
            dag = random_dag(n, rng)
            tau = random_triple(n, rng)
            if not check_recursive(dag, tau).implied:
                continue
            found += 1
            lam = optimal_lambda(recursive_basis(dag), tau, n)
            assert lam is not UNBOUNDED and lam <= 1


class TestMarginalVersusLP:
    @staticmethod
    def marginal_triples(n):
        return [t for t in all_canonical_triples(n) if not t.z]

    def test_exhaustive_n3(self):
        """The cover criterion matches LP feasibility for every marginal
        antecedent set of size at most two and every consequent."""
        triples = all_canonical_triples(3)
        marginals = self.marginal_triples(3)
        subsets = [(t,) for t in marginals]
        subsets += list(itertools.combinations(marginals, 2))
        for subset in subsets:
            sigma = CISet(subset)
            for tau in triples:
                cert = check_marginal(sigma, tau, 3)
                lam = optimal_lambda(sigma, tau, 3)
                assert cert.implied == (lam is not UNBOUNDED), (sigma, tau, lam)
                if cert.implied:
                    assert lam <= cert.lam, (sigma, tau, lam, cert.lam)

    def test_sampled_n4(self):
        rng = random.Random(227)
        for trial in range(60):
            sigma = random_marginal_set(4, rng, rng.randrange(1, 4))
            tau = random_triple(4, rng)
            cert = check_marginal(sigma, tau, 4)
            lam = optimal_lambda(sigma, tau, 4)
            assert cert.implied == (lam is not UNBOUNDED), (sigma, tau, lam)
            if cert.implied:
                assert lam <= cert.lam


def assert_certified(cert, dag, tau):
    """The shipped refutation is a trail refutation with no distribution, a
    polymatroid by the definitional oracle, zeroes the recursive basis and
    gives tau exactly 1."""
    assert cert.refutation_kind == "trail" and cert.refutation_distribution is None
    table = cert.refutation_table
    assert polymatroid_by_definition(table)
    assert all(table.cmi(s) == 0 for s in recursive_basis(dag))
    assert table.cmi(tau) == 1


class TestNegativeVerdictsAlwaysCertify:
    """Every negative recursive verdict must construct a trail refutation.
    Exhaustive over all three-variable DAGs and triples, sampled at four,
    and sampled at six to eight on sparse DAGs, where trails are long and
    often pass colliders."""

    def test_exhaustive_n3(self):
        negatives = 0
        for dag in all_dags(3):
            for tau in all_canonical_triples(3):
                cert = check_recursive(dag, tau)
                if not cert.implied:
                    negatives += 1
                    assert_certified(cert, dag, tau)
        assert negatives > 100

    def test_sampled_n4(self):
        rng = random.Random(229)
        negatives = 0
        for trial in range(120):
            dag = random_dag(4, rng)
            tau = random_triple(4, rng)
            cert = check_recursive(dag, tau)
            if not cert.implied:
                negatives += 1
                assert_certified(cert, dag, tau)
        assert negatives > 30

    def test_sampled_n6_to_8(self):
        # The oracle is O(4^n), so only a few certificates are checked;
        # half of them must pass a collider.
        rng = random.Random(233)
        wanted = {"collider": 5, "no collider": 5}
        while any(wanted.values()):
            n = rng.randrange(6, 9)
            dag = random_dag(n, rng, edge_prob=0.4)
            vs = rng.sample(range(n), 2 + rng.randrange(4))
            tau = CITriple(VarSet.of(vs[0]), VarSet.of(vs[1]), VarSet.of(*vs[2:]))
            cert = check_recursive(dag, tau)
            if cert.implied:
                continue
            trail = cert.refutation_trail
            collider = any(
                trail[i - 1] in dag.parents[v] and trail[i + 1] in dag.parents[v]
                for i, v in enumerate(trail[1:-1], start=1)
            )
            key = "collider" if collider else "no collider"
            if wanted[key]:
                wanted[key] -= 1
                assert_certified(cert, dag, tau)
