"""Triples, parsing, classification, and the elemental decomposition."""

import random

import pytest

from cirelax import (
    CIError,
    CISet,
    CITriple,
    ParseError,
    Universe,
    VarSet,
    elemental_decompose,
    entropic_table,
    parse_ci_lines,
    parse_ci_triple,
    random_distribution,
)

from cirelax.core import submasks

from helpers import random_triple

U3 = Universe(("A", "B", "C"))


class TestVarSet:
    def test_algebra(self):
        a = VarSet.of(0, 2)
        b = VarSet.of(1, 2)
        assert (a | b).bits == 0b111
        assert (a & b).bits == 0b100
        assert (a - b).bits == 0b001
        assert list(a) == [0, 2]
        assert len(a) == 2
        assert 2 in a and 1 not in a

    def test_submasks_against_brute_force(self):
        for mask in range(1 << 8):
            brute = [s for s in range(mask + 1) if s & ~mask == 0]
            assert list(submasks(mask)) == brute

    def test_ordering_key(self):
        # {A,C} sorts before {B}: the smaller first index wins
        assert VarSet.of(0, 2).sort_key() < VarSet.of(1).sort_key()

    def test_empty(self):
        assert not VarSet()
        with pytest.raises(CIError):
            VarSet().min()


class TestParsing:
    def test_basic(self):
        t = parse_ci_triple("I(A;B|C)", U3)
        assert t == CITriple(VarSet.of(0), VarSet.of(1), VarSet.of(2))

    def test_symmetry_canonicalization(self):
        assert parse_ci_triple("I(B;A|C)", U3) == parse_ci_triple("I(A;B|C)", U3)

    def test_overlap_rejected(self):
        with pytest.raises(CIError):
            parse_ci_triple("I(A;A|C)", U3)

    def test_empty_side_rejected(self):
        with pytest.raises(CIError):
            parse_ci_triple("I(A;|C)", U3)
        with pytest.raises(CIError):
            parse_ci_triple("I(;B)", U3)

    def test_unknown_name_rejected(self):
        with pytest.raises(ParseError):
            parse_ci_triple("I(A;Q)", U3)

    def test_syntax_errors(self):
        for bad in ("I(A,B)", "H(A;B)", "I(A;B|C|D)", "I(A;B;C)", "I(A ; )"):
            with pytest.raises(ParseError):
                parse_ci_triple(bad, U3)

    def test_multi_variable_sides(self):
        t = parse_ci_triple("I(A , B ; C)", U3)
        assert t.x == VarSet.of(0, 1) and t.y == VarSet.of(2)

    def test_ci_lines_infer_universe(self):
        sigma, universe = parse_ci_lines(
            ["# antecedents", "I(b;a)", "", "I(a;c|b)"]
        )
        assert universe.names == ("b", "a", "c")
        assert len(sigma) == 2

    def test_ci_lines_bad_line_reports_position(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_ci_lines(["I(a;b)", "I(a;a)"])


class TestCITriple:
    def test_orientation_matches_the_index_tuple_order(self):
        # every (x, y, z) at n <= 6: the side with the smaller index tuple
        # comes first, whichever side is passed first
        for n in range(2, 7):
            for labels in range(4**n):
                parts = [0, 0, 0, 0]
                for v in range(n):
                    parts[labels >> 2 * v & 3] |= 1 << v
                x, y, z = (VarSet(b) for b in parts[:3])
                if not x or not y:
                    continue
                t = CITriple(x, y, z)
                assert t == CITriple(y, x, z) and t.z == z
                assert {t.x, t.y} == {x, y}
                assert t.x.sort_key() < t.y.sort_key()


class TestCISet:
    def test_dedup_preserves_order(self):
        t1 = parse_ci_triple("I(A;B)", U3)
        t2 = parse_ci_triple("I(B;A)", U3)
        t3 = parse_ci_triple("I(A;C)", U3)
        s = CISet((t1, t3, t2))
        assert list(s) == [t1, t3]

    def test_membership(self):
        t = parse_ci_triple("I(A;B)", U3)
        assert t in CISet((t,))


class TestElementalDecompose:
    def test_already_elemental(self):
        t = parse_ci_triple("I(A;B|C)", U3)
        assert elemental_decompose(t) == (t,)

    def test_two_step_chain(self):
        u = Universe(("A1", "A2", "B1"))
        t = parse_ci_triple("I(A1,A2;B1)", u)
        assert elemental_decompose(t) == (
            parse_ci_triple("I(A1;B1)", u),
            parse_ci_triple("I(A2;B1|A1)", u),
        )

    def test_part_count_bound(self):
        rng = random.Random(11)
        for _ in range(50):
            t = random_triple(5, rng)
            parts = elemental_decompose(t)
            assert len(parts) == len(t.x) * len(t.y)
            assert all(len(p.x) == 1 and len(p.y) == 1 for p in parts)

    def test_parts_sum_to_whole_on_random_tables(self):
        # chain-rule identity, checked on 50 random distributions
        rng = random.Random(23)
        for trial in range(50):
            n = rng.randrange(2, 6)
            t = random_triple(n, rng)
            table = entropic_table(random_distribution(n, None, seed=1000 + trial))
            whole = table.cmi(t)
            parts = sum(table.cmi(p) for p in elemental_decompose(t))
            assert abs(whole - parts) <= 1e-9

    def test_parts_sum_exactly_on_rational_tables(self):
        # the same identity with zero tolerance on exact random tables
        from fractions import Fraction

        from helpers import AtomMeasure, polymatroid_from_atoms

        rng = random.Random(27)
        for trial in range(50):
            n = rng.randrange(2, 6)
            mass = [Fraction(0)] + [
                Fraction(rng.randrange(0, 9), rng.randrange(1, 7))
                for _ in range((1 << n) - 1)
            ]
            table = polymatroid_from_atoms(AtomMeasure(n, tuple(mass)))
            t = random_triple(n, rng)
            assert table.cmi(t) == sum(table.cmi(p) for p in elemental_decompose(t))
