"""Entropy computations, parity constructions, and the atom measure."""

import random
import tracemalloc
from fractions import Fraction

import pytest

from cirelax import (
    CapExceeded,
    CIError,
    CITriple,
    JointDistribution,
    ParseError,
    PolymatroidTable,
    Universe,
    entropic_table,
    entropy,
    is_polymatroid,
    parity_distribution,
    parity_refutation,
    parse_ci_triple,
    random_distribution,
)
from cirelax.core import members
from cirelax.distributions import format_distribution, linear_distribution, parse_distribution
from cirelax.polymatroids import (
    MAX_TABLE_VARIABLES,
    LinearRanks,
    linear_rank_table,
    read_polymatroid,
    write_polymatroid,
)

from helpers import (
    MAX_ATOM_VARIABLES,
    all_canonical_triples,
    atom_measure,
    atoms_of,
    entropic_table_by_definition,
    gf2_rank,
    mask,
    polymatroid_by_definition,
    random_ci_set,
    random_triple,
    single_atom_polymatroid,
)

HALF = Fraction(1, 2)


def fair_coin() -> JointDistribution:
    return JointDistribution((2,), (HALF, HALF))


def two_fair_bits() -> JointDistribution:
    return JointDistribution((2, 2), (Fraction(1, 4),) * 4)


def product_bits(n: int) -> JointDistribution:
    return JointDistribution((2,) * n, (Fraction(1, 1 << n),) * (1 << n))


class TestEntropy:
    def test_fair_coin(self):
        assert entropy(fair_coin(), mask(0)) == 1

    def test_two_independent_bits(self):
        assert entropy(two_fair_bits(), mask(0, 1)) == 2

    def test_empty_set(self):
        assert entropy(two_fair_bits(), 0) == 0

    def test_parity_triple_total(self):
        tau = CITriple(mask(0), mask(1), mask(2))
        d = parity_distribution(3, tau)
        assert entropy(d, mask(0, 1, 2)) == 2

    def test_non_dyadic_exact_raises(self):
        d = JointDistribution((3,), (Fraction(1, 3),) * 3)
        with pytest.raises(CIError):
            entropy(d, mask(0))
        assert abs(entropy(d.as_float(), mask(0)) - 1.584962500721156) < 1e-12

    def test_zero_probability_outcomes_ignored(self):
        d = JointDistribution((2, 2), (HALF, Fraction(0), Fraction(0), HALF))
        assert entropy(d, mask(0)) == 1
        assert entropy(d, mask(0, 1)) == 1


class TestEntropicTable:
    def test_product_is_cardinality(self):
        table = entropic_table(product_bits(3))
        for mask in range(8):
            assert table.value(mask) == bin(mask).count("1")

    def test_parity_pair_collapses(self):
        d = parity_distribution(2, CITriple(mask(0), mask(1)))
        table = entropic_table(d)
        assert (table.value(0b01), table.value(0b10), table.value(0b11)) == (1, 1, 1)

    def test_random_tables_are_polymatroids(self):
        for seed in range(100):
            n = 2 + seed % 4
            table = entropic_table(random_distribution(n, None, seed))
            assert is_polymatroid(table, tol=1e-9)


class TestEntropicTableBySummingOut:
    """The summing-out table and ``entropy`` against one pass over the
    joint per subset."""

    def assert_close(self, d):
        got = entropic_table(d).values
        want = entropic_table_by_definition(d).values
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12
        single = [entropy(d, m) for m in range(1 << d.n)]
        assert max(abs(a - b) for a, b in zip(single, got)) <= 1e-12

    def test_random_float_tables(self):
        for n in range(0, 9):
            for seed in range(3):
                self.assert_close(random_distribution(n, None, 4400 + 10 * n + seed))

    def test_non_binary_sizes(self):
        for sizes in ((2, 3, 4, 2), (2, 1, 3, 2), (1,), (3, 1, 1), (1, 4, 2, 1, 3)):
            self.assert_close(random_distribution(len(sizes), sizes, 4500 + len(sizes)))

    def test_float_zero_cells(self):
        tau = CITriple(mask(0), mask(3), mask(1, 2))
        d = parity_distribution(5, tau).as_float()
        assert 0.0 in d.probs
        self.assert_close(d)
        assert entropic_table(d).cmi(tau) == 1.0

    def test_exact_tables_identical(self):
        rng = random.Random(47)
        for n in range(1, 9):
            cases = [product_bits(n)]
            cases += [parity_distribution(n, random_triple(n, rng)) for _ in range(3) if n > 1]
            for d in cases:
                got = entropic_table(d).values
                want = entropic_table_by_definition(d).values
                single = tuple(entropy(d, m) for m in range(1 << n))
                assert got == want == single
                assert all(type(a) is type(b) is Fraction for a, b in zip(got, single))

    def test_non_dyadic_marginal_raises(self):
        # every cell is a power of two, but H(X0) needs p = 5/8 and 3/8
        d = JointDistribution(
            (2, 2), (HALF, Fraction(1, 8), Fraction(1, 8), Fraction(1, 4))
        )
        with pytest.raises(CIError, match="irrational"):
            entropic_table(d)
        with pytest.raises(CIError, match="irrational"):
            entropic_table_by_definition(d)
        with pytest.raises(CIError, match="irrational"):
            entropy(d, mask(0))
        assert entropy(d, mask(0, 1)) == Fraction(7, 4)

    def test_capped(self):
        with pytest.raises(CapExceeded):
            entropic_table(random_distribution(13, None, 1))

    def test_extra_memory_stays_linear(self):
        # Keeping every marginal alive would hold 3**12 cells, over 13 MB.
        tracemalloc.start()
        try:
            entropic_table(random_distribution(12, None, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestConditionalMutualInformation:
    def test_product_always_zero(self):
        table = entropic_table(product_bits(4))
        rng = random.Random(2)
        for _ in range(50):
            assert table.cmi(random_triple(4, rng)) == 0

    def test_parity_scores_one_on_its_own_triple(self):
        tau = CITriple(mask(0), mask(1), mask(2))
        table = entropic_table(parity_distribution(3, tau))
        assert table.cmi(tau) == 1

    def test_chain_rule_residual_vanishes(self):
        rng = random.Random(13)
        for seed in range(100):
            n = rng.randrange(3, 6)
            table = entropic_table(random_distribution(n, None, seed + 500))
            t = random_triple(n, rng)
            if t.y.bit_count() < 2:
                continue
            ys = list(members(t.y))
            cut = rng.randrange(1, len(ys))
            c = mask(*ys[:cut])
            d = mask(*ys[cut:])
            whole = table.cmi(t)
            part1 = table.cmi(CITriple(t.x, c, t.z))
            part2 = table.cmi(CITriple(t.x, d, t.z | c))
            assert abs(whole - (part1 + part2)) <= 1e-9


class TestParityDistribution:
    def test_two_variable_support(self):
        d = parity_distribution(2, CITriple(mask(0), mask(1)))
        assert d.probs == (HALF, Fraction(0), Fraction(0), HALF)
        assert entropic_table(d).cmi(CITriple(mask(0), mask(1))) == 1

    def test_uninvolved_variables_stay_independent(self):
        u = Universe(("a", "b", "c", "d"))
        tau = parse_ci_triple("I(a;b|c)", u)
        table = entropic_table(parity_distribution(4, tau))
        assert table.cmi(parse_ci_triple("I(a;d)", u)) == 0
        assert table.cmi(parse_ci_triple("I(a,b,c;d)", u)) == 0

    def test_exact_zero_on_partial_overlap(self):
        rng = random.Random(19)
        for trial in range(30):
            n = rng.randrange(2, 6)
            tau = random_triple(n, rng)
            table = entropic_table(parity_distribution(n, tau))
            assert table.cmi(tau) == 1
            for sigma in all_canonical_triples(n):
                if tau.mentioned & ~sigma.mentioned:
                    assert table.cmi(sigma) == 0

    def test_exact_zero_when_one_side_untouched(self):
        rng = random.Random(20)
        for trial in range(30):
            n = rng.randrange(2, 6)
            tau = random_triple(n, rng)
            s = tau.mentioned
            table = entropic_table(parity_distribution(n, tau))
            for sigma in all_canonical_triples(n):
                covers = not s & ~sigma.mentioned
                if covers and (not sigma.x & s or not sigma.y & s):
                    assert table.cmi(sigma) == 0


class TestLinearDistribution:
    def test_entropies_are_the_rank_table(self):
        # forms over up to n + 2 source bits, so some bits go unused
        rng = random.Random(263)
        for n in range(0, 7):
            for _ in range(6):
                forms = [rng.randrange(1 << rng.randrange(1, n + 3)) for _ in range(n)]
                d = linear_distribution(forms)
                assert d.exact and entropic_table(d) == linear_rank_table(forms)

    def test_parity_refutation_ships_the_law_of_its_table(self):
        rng = random.Random(264)
        checked = 0
        for _ in range(200):
            n = rng.randrange(2, 7)
            sigma = random_ci_set(n, rng, rng.randrange(0, 4))
            tau = random_triple(n, rng)
            found = parity_refutation(sigma, tau, n)
            if found is not None:
                dist, table = linear_distribution(found[1]), linear_rank_table(found[1])
                assert entropic_table(dist) == table
                checked += 1
        assert checked > 50


class TestAtomMeasure:
    def test_independent_bits(self):
        m = atom_measure(two_fair_bits())
        assert (m.mass[0b01], m.mass[0b10], m.mass[0b11]) == (1, 1, 0)
        assert m.is_positive()

    def test_parity_pair(self):
        d = parity_distribution(2, CITriple(mask(0), mask(1)))
        m = atom_measure(d)
        assert (m.mass[0b01], m.mass[0b10], m.mass[0b11]) == (0, 0, 1)

    def test_parity_triple_signed_masses(self):
        tau = CITriple(mask(0), mask(1), mask(2))
        m = atom_measure(parity_distribution(3, tau))
        assert [m.mass[s] for s in (0b001, 0b010, 0b100)] == [0, 0, 0]
        assert [m.mass[s] for s in (0b011, 0b101, 0b110)] == [1, 1, 1]
        assert m.mass[0b111] == -1
        assert not m.is_positive()

    def test_reconstruction_identity(self):
        # summing masses of the atoms meeting alpha returns H(alpha)
        rng = random.Random(37)
        for seed in range(200):
            n = rng.randrange(2, 5)
            sizes = tuple(rng.choice((2, 3)) for _ in range(n))
            d = random_distribution(n, sizes, seed + 900)
            m = atom_measure(d)
            for mask in range(1, 1 << n):
                total = sum(m.mass[s] for s in range(1, 1 << n) if s & mask)
                assert abs(total - entropy(d, mask)) <= 1e-9

    def test_reconstruction_identity_at_the_cap(self):
        rng = random.Random(41)
        n = 12
        d = random_distribution(n, None, 4700)
        m = atom_measure(d)
        for mask in [(1 << n) - 1] + rng.sample(range(1, 1 << n), 40):
            total = sum(m.mass[s] for s in range(1, 1 << n) if s & mask)
            assert abs(total - entropy(d, mask)) <= 1e-9

    def test_cmi_equals_mass_over_atoms(self):
        rng = random.Random(43)
        for seed in range(50):
            n = rng.randrange(2, 5)
            d = random_distribution(n, None, seed + 1300)
            m = atom_measure(d)
            table = entropic_table(d)
            t = random_triple(n, rng)
            assert abs(m.total_on(atoms_of(t, n)) - table.cmi(t)) <= 1e-9


class TestRandomDistribution:
    def test_deterministic(self):
        assert random_distribution(3, None, 99) == random_distribution(3, None, 99)

    def test_distinct_seeds_differ(self):
        assert random_distribution(3, None, 1) != random_distribution(3, None, 2)

    def test_strictly_positive_and_normalized(self):
        for seed in range(20):
            d = random_distribution(4, None, seed)
            assert all(p > 0 for p in d.probs)
            assert abs(sum(d.probs) - 1.0) <= 1e-12

    def test_domain_sizes(self):
        d = random_distribution(3, (2, 3, 4), 5)
        assert len(d.probs) == 24

    @pytest.mark.parametrize("sizes", [(0, 2), (2, -1), (0,)])
    def test_domain_size_below_one_rejected(self, sizes):
        with pytest.raises(CIError, match="at least 1"):
            random_distribution(len(sizes), sizes, 0)


class TestIsPolymatroid:
    def test_entropic_tables_pass(self):
        assert is_polymatroid(entropic_table(two_fair_bits()))

    def test_broken_monotonicity_fails(self):
        table = PolymatroidTable(2, (Fraction(0), Fraction(2), Fraction(1), Fraction(1)))
        assert not is_polymatroid(table)

    def test_broken_submodularity_fails(self):
        table = PolymatroidTable(2, (Fraction(0), Fraction(1), Fraction(1), Fraction(3)))
        assert not is_polymatroid(table)


def random_forms(n: int, rng: random.Random) -> list[int]:
    """n forms over a random number of source bits, so some are dependent."""
    sources = rng.randrange(1, n + 1)
    return [rng.randrange(1 << sources) for _ in range(n)]


def lowered(table: PolymatroidTable, mask: int) -> PolymatroidTable:
    values = list(table.values)
    values[mask] -= 1
    return PolymatroidTable(table.n, tuple(values))


def rises_below_one(table: PolymatroidTable, mask: int) -> bool:
    """Some variable adds less than 1 to the set ``mask``; lowering
    h(mask) by 1 then breaks monotonicity."""
    v = table.values
    return any(v[mask] - v[mask ^ (1 << i)] < 1 for i in range(table.n) if mask >> i & 1)


class TestPolymatroidRoutes:
    """``is_polymatroid`` checks the elemental inequalities only; the
    definition over all subset pairs is the oracle it must agree with."""

    def tables(self):
        rng = random.Random(241)
        for n in range(1, 6):
            for seed in range(3):
                yield entropic_table(random_distribution(n, None, 9100 + 10 * n + seed)), 1e-9
            for atom in rng.sample(range(1, 1 << n), min(4, (1 << n) - 1)):
                yield single_atom_polymatroid(atom, n), 0
            for _ in range(4):
                yield linear_rank_table(random_forms(n, rng)), 0

    def test_agree_on_polymatroids(self):
        for table, tol in self.tables():
            assert polymatroid_by_definition(table, tol)
            assert is_polymatroid(table, tol)

    def test_agree_with_one_entry_lowered(self):
        rng = random.Random(251)
        rejected = 0
        for table, tol in self.tables():
            for mask in rng.sample(range(1, 1 << table.n), min(3, (1 << table.n) - 1)):
                broken = lowered(table, mask)
                verdict = is_polymatroid(broken, tol)
                assert polymatroid_by_definition(broken, tol) == verdict
                if rises_below_one(table, mask):
                    assert verdict is False
                    rejected += 1
        assert rejected > 100


class TestLinearRankTable:
    def test_matches_rank_per_mask(self):
        rng = random.Random(257)
        for n in range(0, 11):
            for _ in range(3):
                forms = random_forms(n, rng) if n else []
                table = linear_rank_table(forms)
                assert table.n == n and table.exact
                for mask in range(1 << n):
                    chosen = [forms[v] for v in range(n) if mask >> v & 1]
                    assert table.values[mask] == gf2_rank(chosen)

    def test_capped_before_building(self):
        assert MAX_ATOM_VARIABLES == MAX_TABLE_VARIABLES == 16
        with pytest.raises(CapExceeded):
            linear_rank_table([1 << v for v in range(MAX_TABLE_VARIABLES + 1)])


def awkward_forms(n: int, rng: random.Random) -> list[int]:
    """Forms over up to n + 4 source bits, with zero and repeated forms."""
    sources = rng.randrange(1, n + 5)
    forms = []
    for _ in range(n):
        kind = rng.random()
        if kind < 0.2:
            forms.append(0)
        elif kind < 0.4 and forms:
            forms.append(rng.choice(forms))
        else:
            forms.append(rng.randrange(1 << sources))
    return forms


class TestLinearRanks:
    def test_matches_rank_and_table_per_mask(self):
        rng = random.Random(265)
        for n in range(0, 11):
            for _ in range(3):
                forms = awkward_forms(n, rng)
                ranks = LinearRanks(forms)
                table = linear_rank_table(forms)
                for mask in range(1 << n):
                    chosen = [forms[v] for v in range(n) if mask >> v & 1]
                    assert ranks.value(mask) == gf2_rank(chosen) == table.values[mask]

    def test_cmi_matches_table(self):
        rng = random.Random(266)
        for n in range(2, 9):
            forms = awkward_forms(n, rng)
            ranks, table = LinearRanks(forms), linear_rank_table(forms)
            for t in all_canonical_triples(n):
                assert ranks.cmi(t) == table.cmi(t)
            with pytest.raises(CIError):
                ranks.cmi(CITriple(mask(0), mask(n)))

    def test_capped_like_the_table(self):
        with pytest.raises(CapExceeded):
            LinearRanks([1 << v for v in range(MAX_TABLE_VARIABLES + 1)])
        assert LinearRanks([1 << v for v in range(MAX_TABLE_VARIABLES)]).value((1 << 16) - 1) == 16


class TestPolymatroidFiles:
    def test_roundtrip_exact(self, tmp_path):
        u = Universe(("a", "b", "c"))
        table = linear_rank_table([0b01, 0b10, 0b11])
        path = tmp_path / "t.tab"
        write_polymatroid(table, u, str(path))
        assert path.read_text().splitlines()[:3] == [
            "polymatroid vars a b c", "set a 1/1", "set b 1/1"
        ]
        assert read_polymatroid(str(path)) == (table, u)

    def test_missing_sets_are_zero_and_bad_lines_raise(self, tmp_path):
        path = tmp_path / "t.tab"
        path.write_text("polymatroid vars a b  # header\nset a,b 2\n")
        table, _ = read_polymatroid(str(path))
        assert table.values == (0, 0, 0, 2)
        path.write_text("polymatroid vars a b\nset a 1/0\n")
        with pytest.raises(ParseError, match="line 2"):
            read_polymatroid(str(path))
        path.write_text("vars a:2\n")
        with pytest.raises(ParseError):
            read_polymatroid(str(path))

    @pytest.mark.parametrize("first, again", [("a", "a"), ("a,b", "b,a")])
    def test_duplicate_set_rejected(self, tmp_path, first, again):
        path = tmp_path / "t.tab"
        path.write_text(f"polymatroid vars a b\nset {first} 1/1\nset {again} 2/1\n")
        with pytest.raises(ParseError, match="line 3: duplicate set"):
            read_polymatroid(str(path))

    def test_header_capped_before_allocation(self, tmp_path):
        path = tmp_path / "t.tab"
        names = [f"v{i}" for i in range(MAX_TABLE_VARIABLES + 1)]
        path.write_text("polymatroid vars " + " ".join(names) + "\n")
        with pytest.raises(CapExceeded):
            read_polymatroid(str(path))
        path.write_text("polymatroid vars " + " ".join(names[:-1]) + "\nset v0 1\n")
        table, u = read_polymatroid(str(path))
        assert u.n == MAX_TABLE_VARIABLES and table.values[1] == 1


class TestDistributionFiles:
    def test_roundtrip_exact(self):
        u = Universe(("a", "b", "c"))
        tau = parse_ci_triple("I(a;b|c)", u)
        d = parity_distribution(3, tau)
        text = format_distribution(d, u)
        d2, u2 = parse_distribution(text.splitlines())
        assert d2 == d and u2 == u

    def test_outcomes_listed_in_row_major_order(self):
        d = JointDistribution((2, 3), (Fraction(1, 2), 0, 0, 0, Fraction(1, 4), Fraction(1, 4)))
        assert format_distribution(d, Universe(("a", "b"))) == (
            "vars a:2 b:3\n0 0 1/2\n1 1 1/4\n1 2 1/4\n"
        )

    @pytest.mark.parametrize("header", ["varsity a:2", "varsa:2", "Vars a:2", "a:2"])
    def test_header_must_start_with_the_word_vars(self, header):
        with pytest.raises(ParseError, match="header"):
            parse_distribution([header, "0 1/2", "1 1/2"])

    def test_missing_outcomes_are_zero(self):
        d, u = parse_distribution(["vars a:2", "0 1/1"])
        assert d.probs == (Fraction(1), Fraction(0))

    def test_bad_sum_rejected(self):
        with pytest.raises(CIError):
            parse_distribution(["vars a:2", "0 1/2", "1 1/4"])

    @pytest.mark.parametrize("cells", [
        ["0 nan"], ["0 nan", "1 1.0"], ["0 -nan", "1 0.5"], ["0 inf", "1 -inf"],
    ])
    def test_non_finite_probability_rejected(self, cells):
        # every comparison with NaN is false, so no sum or sign test may let it by
        with pytest.raises(CIError):
            parse_distribution(["vars a:2"] + cells)

    def test_float_mode(self):
        d, _ = parse_distribution(["vars a:2 b:2", "0 0 0.5", "1 1 0.5"])
        assert not d.exact
        assert abs(entropy(d, mask(0)) - 1.0) < 1e-12
