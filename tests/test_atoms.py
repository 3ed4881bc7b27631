"""Atom sets, implication over positive measures, and witnesses."""

import random
from fractions import Fraction

import pytest

from cirelax import (
    CapExceeded,
    CIError,
    CISet,
    CITriple,
    Universe,
    implies_positive,
    is_polymatroid,
    tightness_family,
)
from cirelax.core import members

from helpers import (
    MAX_ATOM_VARIABLES,
    AtomMeasure,
    all_canonical_triples,
    atoms_of,
    atoms_of_set,
    atomset_as_frozensets,
    brute_atoms,
    measure_from_table,
    polymatroid_from_atoms,
    random_ci_set,
    random_triple,
    single_atom_polymatroid,
)

UABC = Universe(("A", "B", "C"))


def T(text: str, universe: Universe = UABC) -> CITriple:
    from cirelax import parse_ci_triple

    return parse_ci_triple(text, universe)


class TestAtomsOf:
    def test_two_variable_marginal(self):
        assert list(members(atoms_of(T("I(A;B)", Universe(("A", "B"))), 2))) == [0b11]

    def test_conditioning_excludes(self):
        assert list(members(atoms_of(T("I(A;B|C)"), 3))) == [0b011]

    def test_marginal_includes_third(self):
        assert list(members(atoms_of(T("I(A;B)"), 3))) == [0b011, 0b111]

    def test_against_brute_force(self):
        rng = random.Random(3)
        for _ in range(100):
            n = rng.randrange(2, 6)
            t = random_triple(n, rng)
            assert atomset_as_frozensets(atoms_of(t, n)) == brute_atoms(t, n)

    def test_elemental_fully_conditioned_is_singleton(self):
        for n in range(2, 7):
            for t in all_canonical_triples(n):
                if t.x.bit_count() == 1 and t.y.bit_count() == 1 and t.z.bit_count() == n - 2:
                    assert atoms_of(t, n).bit_count() == 1

    def test_marginal_count_formula(self):
        # subsets meeting both sides: inclusion-exclusion
        rng = random.Random(8)
        for n in range(2, 7):
            for _ in range(20):
                t = random_triple(n, rng, allow_z=False)
                a, b = t.x.bit_count(), t.y.bit_count()
                expected = (
                    2**n - 2 ** (n - a) - 2 ** (n - b) + 2 ** (n - a - b)
                )
                assert atoms_of(t, n).bit_count() == expected


class TestAtomsOfSet:
    def test_empty_set(self):
        assert not atoms_of_set(CISet(), 3)

    def test_empty_set_past_the_cap_raises(self):
        with pytest.raises(CapExceeded):
            atoms_of_set(CISet(), MAX_ATOM_VARIABLES + 1)

    def test_union_of_images(self):
        sigma = CISet((T("I(A;B)"), T("I(A;C|B)")))
        assert list(members(atoms_of_set(sigma, 3))) == [0b011, 0b101, 0b111]

    def test_all_elemental_marginals_cover_multi_atoms(self):
        sigma = CISet((T("I(A;B)"), T("I(A;C)"), T("I(B;C)")))
        got = list(members(atoms_of_set(sigma, 3)))
        assert got == [s for s in range(1, 8) if bin(s).count("1") >= 2]


class TestImpliesPositive:
    def test_motivating_example(self):
        sigma = CISet((T("I(A;B)"), T("I(A;C|B)")))
        assert implies_positive(sigma, T("I(A;C)"), 3).implied

    def test_empty_antecedents_never_imply(self):
        v = implies_positive(CISet(), T("I(A;B)"), 3)
        assert not v.implied
        assert v.witness == 0b011  # smallest atom of the consequent

    def test_conditioned_antecedent_misses_the_full_atom(self):
        v = implies_positive(CISet((T("I(A;B|C)"),)), T("I(A;B)"), 3)
        assert not v.implied
        # {A,B} is covered by the antecedent; the gap is {A,B,C}
        assert v.witness == 0b111

    def test_monotone_in_antecedents(self):
        rng = random.Random(17)
        for trial in range(200):
            n = rng.randrange(2, 6)
            sigma = random_ci_set(n, rng, rng.randrange(0, 4))
            tau = random_triple(n, rng)
            extra = CISet(tuple(sigma) + (random_triple(n, rng),))
            if implies_positive(sigma, tau, n).implied:
                assert implies_positive(extra, tau, n).implied


def _verdict_by_atom_sets(sigma, tau, n):
    """The bitset oracle: the smallest atom of ``tau`` no antecedent covers."""
    missing = atoms_of(tau, n) & ~atoms_of_set(sigma, n)
    return (True, None) if not missing else (False, next(members(missing)))


class TestImpliesPositiveScan:
    """The mask scan agrees with the 2^n-bit atom sets of the oracle."""

    @staticmethod
    def queries(n, rng):
        # n = 1 holds no CI term: a term needs two disjoint non-empty sides
        count = 12 if n <= 10 else 6
        for _ in range(count):
            sigma = random_ci_set(n, rng, rng.randrange(0, 6))
            yield sigma, random_triple(n, rng)
        sigma = random_ci_set(n, rng, rng.randrange(1, 5))
        yield sigma, rng.choice(tuple(sigma))  # tau in sigma
        # weak union of an antecedent: part of its x side moves into z
        s = rng.choice(tuple(sigma))
        kept = s.x & -s.x
        yield sigma, CITriple(kept, s.y, s.z | (s.x ^ kept))
        yield tightness_family(n)  # implied by the chain rule

    def test_matches_atom_sets(self):
        rng = random.Random(2026)
        implied = refuted = 0
        for n in range(2, MAX_ATOM_VARIABLES + 1):
            for sigma, tau in self.queries(n, rng):
                verdict = implies_positive(sigma, tau, n)
                expected = _verdict_by_atom_sets(sigma, tau, n)
                assert (verdict.implied, verdict.witness) == expected, (n, sigma, tau)
                implied += verdict.implied
                refuted += not verdict.implied
        assert implied >= 30 and refuted >= 30

    def test_cap_raises_before_any_scan(self, monkeypatch):
        from cirelax import implication

        def no_scan(mask):
            raise AssertionError("scanned past the cap")

        monkeypatch.setattr(implication, "submasks", no_scan)
        tau = CITriple(0b01, 0b10)
        for n in (0, MAX_ATOM_VARIABLES + 1):
            with pytest.raises(CapExceeded):
                implies_positive(CISet(), tau, n)


class TestSingleAtomPolymatroid:
    def test_two_variable_values(self):
        h = single_atom_polymatroid(0b01, 2)
        assert h.value(0b01) == 1 and h.value(0b11) == 1 and h.value(0b10) == 0

    def test_indicator_of_coverage(self):
        rng = random.Random(41)
        for _ in range(100):
            n = rng.randrange(2, 6)
            atom = rng.randrange(1, 1 << n)
            h = single_atom_polymatroid(atom, n)
            t = random_triple(n, rng)
            assert h.cmi(t) == atoms_of(t, n) >> atom & 1

    def test_all_atoms_are_polymatroids_up_to_n6(self):
        for n in range(1, 7):
            for atom in range(1, 1 << n):
                assert is_polymatroid(single_atom_polymatroid(atom, n))

    def test_refutes_every_non_implication(self):
        rng = random.Random(53)
        checked = 0
        while checked < 200:
            n = rng.randrange(2, 6)
            sigma = random_ci_set(n, rng, rng.randrange(0, 4))
            tau = random_triple(n, rng)
            verdict = implies_positive(sigma, tau, n)
            if verdict.implied:
                continue
            checked += 1
            h = single_atom_polymatroid(verdict.witness, n)
            assert all(h.cmi(s) == 0 for s in sigma)
            assert h.cmi(tau) == 1

    def test_rejects_empty_atom(self):
        with pytest.raises(CIError):
            single_atom_polymatroid(0, 3)


class TestPositiveMeasureExactness:
    """On distributions whose atom masses are all non-negative, a covered
    consequent with vanishing antecedents must vanish exactly."""

    @staticmethod
    def block_distribution(blocks):
        # each block shares one fair bit; blocks independent; masses >= 0
        from cirelax import JointDistribution

        n = sum(len(b) for b in blocks)
        outcomes = {}
        k = len(blocks)
        for word in range(1 << k):
            index = 0
            for v in range(n):
                block_id = next(i for i, b in enumerate(blocks) if v in b)
                index = index * 2 + (word >> block_id & 1)
            outcomes[index] = outcomes.get(index, 0) + 1
        probs = [Fraction(0)] * (1 << n)
        for index, c in outcomes.items():
            probs[index] = Fraction(c, 1 << k)
        return JointDistribution((2,) * n, tuple(probs))

    def test_exact_implication_holds(self):
        from cirelax import entropic_table
        from helpers import atom_measure

        rng = random.Random(83)
        checked = 0
        while checked < 100:
            n = rng.randrange(2, 6)
            labels = [rng.randrange(1 + n // 2) for _ in range(n)]
            blocks = [
                {v for v in range(n) if labels[v] == c}
                for c in set(labels)
            ]
            d = self.block_distribution(blocks)
            assert atom_measure(d).is_positive()
            table = entropic_table(d)
            sigma = random_ci_set(n, rng, rng.randrange(1, 4))
            tau = random_triple(n, rng)
            if table.sigma_value(sigma) != 0:
                continue
            if not implies_positive(sigma, tau, n).implied:
                continue
            assert table.cmi(tau) == 0
            checked += 1


class TestAtomMeasureConversions:
    def test_unit_mass_matches_single_atom_table(self):
        for n in (2, 3, 4):
            for atom in range(1, 1 << n):
                mass = [Fraction(0)] * (1 << n)
                mass[atom] = Fraction(1)
                table = polymatroid_from_atoms(AtomMeasure(n, tuple(mass)))
                assert table == single_atom_polymatroid(atom, n)

    def test_random_nonnegative_masses_give_polymatroids(self):
        rng = random.Random(61)
        for _ in range(50):
            n = rng.randrange(2, 6)
            mass = [Fraction(0)] + [
                Fraction(rng.randrange(0, 8), rng.randrange(1, 5))
                for _ in range((1 << n) - 1)
            ]
            table = polymatroid_from_atoms(AtomMeasure(n, tuple(mass)))
            assert is_polymatroid(table)

    def test_mobius_roundtrip_recovers_masses(self):
        rng = random.Random(71)
        for _ in range(50):
            n = rng.randrange(2, 6)
            mass = [Fraction(0)] + [
                Fraction(rng.randrange(0, 6), 3) for _ in range((1 << n) - 1)
            ]
            measure = AtomMeasure(n, tuple(mass))
            assert measure_from_table(polymatroid_from_atoms(measure)) == measure

    def test_negative_mass_rejected(self):
        with pytest.raises(CIError):
            polymatroid_from_atoms(AtomMeasure(2, (0, Fraction(-1), 0, 0)))
