"""DAGs, the recursive CI basis, and d-separation."""

import random

import pytest

from cirelax import (
    CIError,
    CISet,
    Dag,
    VarSet,
    active_trail,
    d_separated,
    entropic_table,
    implies_positive,
    parse_ci_triple,
    parse_dag,
    recursive_basis,
)

from helpers import (
    all_canonical_triples,
    all_dags,
    elemental_queries,
    path_d_separated,
    random_dag,
)


def chain3() -> Dag:
    return Dag.from_edges(("X1", "X2", "X3"), [("X1", "X2"), ("X2", "X3")])


def collider3() -> Dag:
    return Dag.from_edges(("X1", "X2", "X3"), [("X1", "X3"), ("X2", "X3")])


class TestDagBasics:
    def test_cycle_rejected(self):
        with pytest.raises(CIError):
            Dag.from_edges(("a", "b"), [("a", "b"), ("b", "a")])

    def test_self_loop_rejected(self):
        with pytest.raises(CIError):
            Dag.from_edges(("a",), [("a", "a")])

    def test_topological_order_deterministic(self):
        dag = Dag.from_edges(("a", "b", "c", "d"), [("c", "a"), ("c", "b")])
        assert dag.topological_order() == (2, 0, 1, 3)

    def test_parse_roundtrip(self):
        text = "# demo\nvar X1\nvar X2\nvar X3\nedge X1 X2\nedge X2 X3\n"
        dag = parse_dag(text.splitlines())
        assert dag == chain3()

    def test_parse_bad_line(self):
        with pytest.raises(CIError):
            parse_dag(["var a", "arrow a b"])


class TestRecursiveBasis:
    def test_chain_drops_empty_leftover(self):
        u = chain3().universe
        assert recursive_basis(chain3()) == CISet((parse_ci_triple("I(X3;X1|X2)", u),))

    def test_collider(self):
        u = collider3().universe
        assert recursive_basis(collider3()) == CISet((parse_ci_triple("I(X2;X1)", u),))

    def test_empty_graph(self):
        dag = Dag.from_edges(("X1", "X2", "X3"), [])
        u = dag.universe
        assert recursive_basis(dag) == CISet(
            (parse_ci_triple("I(X2;X1)", u), parse_ci_triple("I(X3;X1,X2)", u))
        )

    def test_empty_graph_basis_vanishes_on_product_distribution(self):
        # every basis term must measure exactly 0 on independent fair bits
        from fractions import Fraction

        from cirelax import JointDistribution

        dag = Dag.from_edges(("X1", "X2", "X3"), [])
        probs = (Fraction(1, 8),) * 8
        table = entropic_table(JointDistribution((2, 2, 2), probs))
        for t in recursive_basis(dag):
            assert table.cmi(t) == 0

    def test_each_triple_spans_the_earlier_variables(self):
        # for a basis triple (v; R | B), R and B partition exactly the
        # variables that precede v in the order
        rng = random.Random(5)
        for trial in range(25):
            n = rng.randrange(2, 7)
            dag = random_dag(n, rng)
            order = dag.topological_order()
            pos = {v: k for k, v in enumerate(order)}
            for t in recursive_basis(dag):
                matched = False
                for side in (t.x, t.y):
                    if len(side) != 1:
                        continue
                    v = side.min()
                    earlier = VarSet.of(*order[: pos[v]])
                    if (t.mentioned - side).bits == earlier.bits:
                        matched = True
                assert matched, t

    def test_non_topological_order_rejected(self):
        with pytest.raises(CIError):
            recursive_basis(chain3(), order=(2, 1, 0))
        with pytest.raises(CIError):
            recursive_basis(chain3(), order=(0, 0, 1))

    def test_explicit_order_changes_basis_not_meaning(self):
        from cirelax import semigraphoid_closure

        dag = Dag.from_edges(("X1", "X2", "X3"), [])
        u = dag.universe
        alt = recursive_basis(dag, order=(2, 1, 0))
        assert alt == CISet(
            (parse_ci_triple("I(X2;X3)", u), parse_ci_triple("I(X1;X2,X3)", u))
        )
        assert alt != recursive_basis(dag)
        # any two orders describe the same graph: identical closures
        assert semigraphoid_closure(alt, 3) == semigraphoid_closure(
            recursive_basis(dag), 3
        )


class TestDSeparation:
    def test_chain_blocked(self):
        dag = chain3()
        assert d_separated(dag, VarSet.of(0), VarSet.of(2), VarSet.of(1))
        assert not d_separated(dag, VarSet.of(0), VarSet.of(2), VarSet())

    def test_collider_activation(self):
        dag = collider3()
        assert d_separated(dag, VarSet.of(0), VarSet.of(1), VarSet())
        assert not d_separated(dag, VarSet.of(0), VarSet.of(1), VarSet.of(2))

    def test_overlap_rejected(self):
        with pytest.raises(CIError):
            d_separated(chain3(), VarSet.of(0), VarSet.of(0), VarSet())

    def test_symmetry(self):
        rng = random.Random(9)
        for trial in range(50):
            dag = random_dag(4, rng)
            for x, y, z in elemental_queries(4):
                assert d_separated(dag, x, y, z) == d_separated(dag, y, x, z)

    def test_against_path_oracle_exhaustive_n3(self):
        for dag in all_dags(3):
            for x, y, z in elemental_queries(3):
                assert d_separated(dag, x, y, z) == path_d_separated(dag, x, y, z)

    def test_against_path_oracle_exhaustive_n4(self):
        for dag in all_dags(4):
            for x, y, z in elemental_queries(4):
                assert d_separated(dag, x, y, z) == path_d_separated(dag, x, y, z)

    def test_against_path_oracle_random_n5(self):
        rng = random.Random(31)
        for trial in range(15):
            dag = random_dag(5, rng)
            for x, y, z in elemental_queries(5, max_z=2):
                assert d_separated(dag, x, y, z) == path_d_separated(dag, x, y, z)

    def test_set_valued_arguments(self):
        dag = Dag.from_edges(
            ("a", "b", "c", "d"), [("a", "b"), ("b", "c"), ("b", "d")]
        )
        assert d_separated(dag, VarSet.of(0), VarSet.of(2, 3), VarSet.of(1))


class TestActiveTrail:
    def test_collider_and_chain(self):
        assert active_trail(collider3(), VarSet.of(0), VarSet.of(1), VarSet.of(2)) == (0, 2, 1)
        assert active_trail(collider3(), VarSet.of(0), VarSet.of(1), VarSet()) is None
        assert active_trail(chain3(), VarSet.of(2), VarSet.of(0), VarSet()) == (2, 1, 0)

    def test_descendant_of_z_opens_the_collider(self):
        dag = Dag.from_edges(
            ("a", "b", "c", "d"), [("a", "c"), ("b", "c"), ("c", "d")]
        )
        assert active_trail(dag, VarSet.of(0), VarSet.of(1), VarSet.of(3)) == (0, 2, 1)

    def test_shape_exhaustive_n4(self):
        """A simple path from x to y along DAG edges whose non-colliders
        avoid z and whose colliders are ancestors of z, for every DAG and
        every query on four nodes."""
        triples = all_canonical_triples(4)
        for dag in all_dags(4):
            for t in triples:
                trail = active_trail(dag, t.x, t.y, t.z)
                if trail is None:
                    continue
                assert trail[0] in t.x and trail[-1] in t.y
                assert len(set(trail)) == len(trail)
                ancestors = dag.ancestral_closure(t.z)
                for i, v in enumerate(trail):
                    into = [
                        w in dag.parents[v]
                        for w in trail[max(i - 1, 0):i] + trail[i + 1:i + 2]
                    ]
                    for w in trail[i + 1:i + 2]:
                        assert w in dag.parents[v] or v in dag.parents[w]
                    if into == [True, True]:
                        assert v in ancestors
                    else:
                        assert v not in t.z


class TestSeparationImpliesAtomCoverage:
    """Separation always forces atom coverage of the basis; the converse
    fails (a conditioned collider is covered but not separated)."""

    def test_one_way_containment_exhaustive_n3(self):
        from cirelax import CITriple

        for dag in all_dags(3):
            basis = recursive_basis(dag)
            for x, y, z in elemental_queries(3):
                if d_separated(dag, x, y, z):
                    assert implies_positive(basis, CITriple(x, y, z), 3).implied

    def test_collider_is_the_canonical_gap(self):
        dag = collider3()
        t = parse_ci_triple("I(X1;X2|X3)", dag.universe)
        assert implies_positive(recursive_basis(dag), t, 3).implied
        assert not d_separated(dag, t.x, t.y, t.z)
