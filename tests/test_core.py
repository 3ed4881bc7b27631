"""Triples, parsing, classification, and the elemental decomposition."""

import random

import pytest

from cirelax import (
    CIError,
    CISet,
    CITriple,
    ParseError,
    Universe,
    elemental_decompose,
    entropic_table,
    parse_ci_lines,
    parse_ci_triple,
    random_distribution,
)

from cirelax.core import members, submasks

from helpers import mask, random_triple

U3 = Universe(("A", "B", "C"))


class TestMasks:
    def test_members_against_brute_force(self):
        for m in range(1 << 9):
            assert list(members(m)) == [i for i in range(9) if m >> i & 1]
        assert list(members(1 << 23 | 1)) == [0, 23]

    def test_submasks_against_brute_force(self):
        for m in range(1 << 8):
            brute = [s for s in range(m + 1) if s & ~m == 0]
            assert list(submasks(m)) == brute

    def test_set_of_and_render_vars_round_trip(self):
        assert U3.set_of("C", "A", "A") == 0b101
        assert U3.set_of() == 0
        assert U3.render_vars(0b101) == "A,C"


class TestParsing:
    def test_basic(self):
        t = parse_ci_triple("I(A;B|C)", U3)
        assert t == CITriple(mask(0), mask(1), mask(2))

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
        assert t.x == mask(0, 1) and t.y == mask(2)

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
                x, y, z = parts[:3]
                if not x or not y:
                    continue
                t = CITriple(x, y, z)
                assert t == CITriple(y, x, z) and t.z == z
                assert {t.x, t.y} == {x, y}
                assert tuple(members(t.x)) < tuple(members(t.y))

    def test_rejects_empty_and_negative_sides(self):
        # a negative mask passes a plain disjointness test: -4 & 2 == 0
        for x, y, z in ((0, 1, 0), (1, 0, 0), (-4, 2, 0), (2, -4, 0), (1, 2, -8)):
            with pytest.raises(CIError):
                CITriple(x, y, z)

    def test_rejects_overlapping_sides(self):
        for x, y, z in ((0b011, 0b110, 0), (0b001, 0b010, 0b001), (0b001, 0b010, 0b010)):
            with pytest.raises(CIError, match="pairwise disjoint"):
                CITriple(x, y, z)

    def test_mentioned_is_the_union_of_the_sides(self):
        t = CITriple(0b0100, 0b0001, 0b1000)
        assert (t.x, t.y, t.mentioned) == (0b0001, 0b0100, 0b1101)
        assert repr(t) == "(0;2|3)"
        assert CISet((t, CITriple(0b10000, 0b1))).mentioned == 0b11101


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
            assert len(parts) == t.x.bit_count() * t.y.bit_count()
            assert all(p.x.bit_count() == 1 and p.y.bit_count() == 1 for p in parts)

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
