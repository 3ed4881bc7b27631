"""Command-line surface: exit codes, report stability, artifact round-trips."""

import io
import contextlib

import pytest

from cirelax.cli import main

CHAIN_DAG = "var X1\nvar X2\nvar X3\nedge X1 X2\nedge X2 X3\n"
COLLIDER_DAG = "var X1\nvar X2\nvar X3\nedge X1 X3\nedge X2 X3\n"
SEC_SIGMA = "I(A;B)\nI(A;C|B)\n"
STUDENY_SIGMA = "I(A;B|C,D)\nI(C;D|A)\nI(C;D|B)\nI(A;B)\n"


def run(argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def chain_dag(tmp_path):
    p = tmp_path / "chain.dag"
    p.write_text(CHAIN_DAG)
    return str(p)


@pytest.fixture
def collider_dag(tmp_path):
    p = tmp_path / "collider.dag"
    p.write_text(COLLIDER_DAG)
    return str(p)


@pytest.fixture
def sec_sigma(tmp_path):
    p = tmp_path / "sigma.ci"
    p.write_text(SEC_SIGMA)
    return str(p)


class TestDsep:
    def test_separated(self, chain_dag):
        code, out, _ = run(["dsep", "--dag", chain_dag, "--query", "I(X1;X3|X2)"])
        assert code == 0
        assert out == "SEPARATED\nquery=I(X1;X3|X2)\n"

    def test_connected(self, collider_dag):
        code, out, _ = run(["dsep", "--dag", collider_dag, "--query", "I(X1;X2|X3)"])
        assert code == 1
        assert out.startswith("NOT-SEPARATED")

    def test_malformed_query(self, chain_dag):
        code, _, err = run(["dsep", "--dag", chain_dag, "--query", "I(X1;X1)"])
        assert code == 2 and "error:" in err

    def test_unknown_variable(self, chain_dag):
        code, _, err = run(["dsep", "--dag", chain_dag, "--query", "I(X1;X9)"])
        assert code == 2 and "X9" in err

    def test_missing_file(self, tmp_path):
        code, _, err = run(["dsep", "--dag", str(tmp_path / "no.dag"), "--query", "I(a;b)"])
        assert code == 2


class TestImplies:
    def write(self, tmp_path, text):
        p = tmp_path / "s.ci"
        p.write_text(text)
        return str(p)

    def test_mode_option_is_a_usage_error(self, sec_sigma):
        for mode in ("atoms", "lp", "graphoid"):
            code, out, err = run(
                ["implies", "--sigma", sec_sigma, "--tau", "I(A;C)", "--mode", mode]
            )
            assert code == 2 and out == "" and "--mode" in err

    def test_lp_mode(self, sec_sigma):
        # a conditional antecedent at n <= MAX_LP_VARIABLES goes to the exact LP
        code, out, _ = run(["implies", "--sigma", sec_sigma, "--tau", "I(A;C)"])
        assert code == 0 and out == "IMPLIED lambda=1\nengine=lp\n"

    def test_lp_refutes_without_an_uncovered_atom(self, tmp_path):
        # atoms cover the query, yet no finite factor exists
        sigma = self.write(tmp_path, "I(a;d|b,c)\nI(a;b)\nI(a,b;c|d)\n")
        code, out, _ = run(["implies", "--sigma", sigma, "--tau", "I(a;b,d|c)"])
        assert code == 1 and out == "NOT-IMPLIED lambda=unbounded\nengine=lp\n"

    def test_collider_query_is_refuted_by_a_parity(self, tmp_path):
        # atom inclusion alone would call this implied
        sigma = self.write(tmp_path, "I(X1;X2)\n")
        code, out, _ = run(["implies", "--sigma", sigma, "--tau", "I(X1;X2|X3)"])
        assert code == 1
        assert out == "NOT-IMPLIED witness=I(X1;X2|X3)\nengine=marginal\n"

    def test_marginal_implied(self, tmp_path):
        sigma = self.write(tmp_path, "I(a;b,c)\n")
        code, out, _ = run(["implies", "--sigma", sigma, "--tau", "I(a;c|b)"])
        assert code == 0 and out == "IMPLIED lambda=1\nengine=marginal\n"

    def test_studeny_query_is_implied(self, tmp_path):
        # not in the semigraphoid closure (see TestClosure), yet lambda* = 1
        sigma = self.write(tmp_path, STUDENY_SIGMA)
        code, out, _ = run(["implies", "--sigma", sigma, "--tau", "I(C;D)"])
        assert code == 0 and out == "IMPLIED lambda=1\nengine=lp\n"

    def test_negative_atoms_mode(self, tmp_path):
        # past the LP cap an uncovered atom is a verified refutation
        sigma = self.write(tmp_path, "I(a;b|c,d,e,f)\n")
        code, out, _ = run(["implies", "--sigma", sigma, "--tau", "I(a;b)"])
        assert code == 1
        assert out == "NOT-IMPLIED witness=atom{a,b,c}\nengine=single-atom\n"

    def test_parity_past_the_lp_cap(self, tmp_path):
        # atoms cover the query, a parity refutes it
        sigma = self.write(tmp_path, "I(a;b)\nI(d;e|f)\n")
        code, out, _ = run(["implies", "--sigma", sigma, "--tau", "I(a;b|c)"])
        assert code == 1
        assert out == "NOT-IMPLIED witness=I(a;b|c)\nengine=parity\n"

    def test_lp_mode_cap_exits_2(self, tmp_path):
        # implied by the chain rule, but past the LP cap nothing can certify it
        sigma = self.write(tmp_path, "I(a;b|c)\nI(a;c)\nI(d;e|f)\n")
        code, out, err = run(["implies", "--sigma", sigma, "--tau", "I(a;b,c)"])
        assert code == 2 and out == "UNKNOWN\nengine=none\n" and err == ""


class TestBound:
    def test_recursive_implied(self, chain_dag):
        code, out, _ = run(
            ["bound", "--dag", chain_dag, "--tau", "I(X1;X3|X2)"]
        )
        assert code == 0
        assert out.splitlines()[0] == "IMPLIED lambda=1"

    def test_recursive_not_implied_writes_polymatroid(self, collider_dag, tmp_path):
        artifact = tmp_path / "refutation.tab"
        code, out, _ = run(
            ["bound", "--dag", collider_dag, "--tau", "I(X1;X2|X3)",
             "--artifact", str(artifact)]
        )
        assert code == 1
        assert out.splitlines()[-2:] == ["refutation=trail X1,X3,X2", f"artifact={artifact}"]
        assert artifact.read_text().startswith("polymatroid vars X1 X2 X3\n")
        for term, value in (("I(X1;X2|X3)", "1.0"), ("I(X2;X1)", "0.0")):
            code, out, _ = run(["entropy", "--table", str(artifact), "--term", term])
            assert code == 0 and out.strip() == value

    def test_marginal_not_implied_writes_artifact(self, tmp_path):
        sigma = tmp_path / "m.ci"
        sigma.write_text("I(a;b)\n")
        artifact = tmp_path / "refutation.dist"
        code, out, _ = run(
            [
                "bound",
                "--sigma",
                str(sigma),
                "--tau",
                "I(a;b|c)",
                "--artifact",
                str(artifact),
            ]
        )
        assert code == 1
        assert f"artifact={artifact}" in out
        # the artifact is a loadable distribution that scores the query at 1
        code2, out2, _ = run(["entropy", "--dist", str(artifact), "--term", "I(a;b|c)"])
        assert code2 == 0 and out2.strip() == "1.0"
        code3, out3, _ = run(["entropy", "--dist", str(artifact), "--term", "I(a;b)"])
        assert code3 == 0 and out3.strip() == "0.0"

    def test_marginal_implied_factor_one(self, tmp_path):
        sigma = tmp_path / "m.ci"
        sigma.write_text("I(a;b,c)\n")
        code, out, _ = run(
            ["bound", "--sigma", str(sigma), "--tau", "I(a;c|b)"]
        )
        assert code == 0
        assert out.splitlines()[0] == "IMPLIED lambda=1"

    def test_default_artifact_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        sigma = tmp_path / "m.ci"
        sigma.write_text("I(a;b)\n")
        code, out, _ = run(
            ["bound", "--sigma", str(sigma), "--tau", "I(a;b|c)"]
        )
        assert code == 1
        assert "artifact=refutation.out" in out
        assert (tmp_path / "refutation.out").exists()

    def test_exactly_one_of_dag_or_sigma(self, chain_dag, sec_sigma):
        for inputs in ([], ["--dag", chain_dag, "--sigma", sec_sigma]):
            code, out, err = run(["bound", *inputs, "--tau", "I(X1;X3)"])
            assert (code, out) == (2, "")
            assert err == "error: exactly one of --dag or --sigma is required\n"
        code, _, err = run(
            ["bound", "--kind", "recursive", "--dag", chain_dag, "--tau", "I(X1;X3)"]
        )
        assert code == 2 and "--kind" in err

    def test_non_marginal_antecedent_rejected(self, tmp_path):
        sigma = tmp_path / "m.ci"
        sigma.write_text("I(a;b|c)\n")
        code, _, err = run(
            ["bound", "--sigma", str(sigma), "--tau", "I(a;b)"]
        )
        assert code == 2 and "marginal" in err


class TestLambdaCommand:
    def test_finite(self, sec_sigma):
        code, out, _ = run(["lambda", "--sigma", sec_sigma, "--tau", "I(A;C)"])
        assert code == 0 and out == "lambda=1\n"

    def test_unbounded(self, tmp_path):
        sigma = tmp_path / "m.ci"
        sigma.write_text("I(a;b)\n")
        code, out, _ = run(["lambda", "--sigma", str(sigma), "--tau", "I(a;b|c)"])
        assert code == 1 and out == "lambda=unbounded\n"


class TestClosure:
    def test_membership(self, sec_sigma):
        code, out, _ = run(["closure", "--sigma", sec_sigma, "--tau", "I(A;B,C)"])
        assert code == 0 and out.splitlines()[0] == "IMPLIED"

    def test_listing_stable(self, sec_sigma):
        code, out, _ = run(["closure", "--sigma", sec_sigma])
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "closure size=5"
        assert "I(A;B,C)" in lines
        assert run(["closure", "--sigma", sec_sigma]) == (code, out, "")

    def test_listing_sorts_each_side_by_its_index_tuple(self, tmp_path):
        # by mask value, I(a;b,c) (mask 6) would come after I(a;c) (mask 4)
        sigma = tmp_path / "s.ci"
        sigma.write_text("I(a;b,c)\n")
        code, out, _ = run(["closure", "--sigma", str(sigma)])
        assert code == 0 and out.splitlines() == [
            "closure size=5", "I(a;b)", "I(a;b|c)", "I(a;b,c)", "I(a;c)", "I(a;c|b)",
        ]

    def test_cap(self, tmp_path):
        sigma = tmp_path / "big.ci"
        sigma.write_text("I(a;b|c,d,e,f)\n")
        code, _, err = run(["closure", "--sigma", str(sigma)])
        assert code == 2

    def test_non_member_is_unknown(self, tmp_path):
        # the closure is incomplete: lambda* = 1 here (see TestImplies)
        sigma = tmp_path / "studeny.ci"
        sigma.write_text(STUDENY_SIGMA)
        code, out, _ = run(["closure", "--sigma", str(sigma), "--tau", "I(C;D)"])
        assert code == 1 and out == "UNKNOWN not-in-closure\ntau=I(C;D)\n"


class TestCounterexample:
    def test_single_atom_artifact(self, tmp_path):
        sigma = tmp_path / "s.ci"
        sigma.write_text("I(a;b|c)\n")
        out_path = tmp_path / "ce.tab"
        code, out, _ = run(
            ["counterexample", "--sigma", str(sigma), "--tau", "I(a;b)", "--out", str(out_path)]
        )
        assert code == 0 and "kind=single-atom" in out
        code2, out2, _ = run(["entropy", "--table", str(out_path), "--term", "I(a;b)"])
        assert code2 == 0 and out2.strip() == "1.0"
        code3, out3, _ = run(["entropy", "--table", str(out_path), "--term", "I(a;b|c)"])
        assert out3.strip() == "0.0"

    def test_parity_fallback(self, tmp_path):
        sigma = tmp_path / "s.ci"
        sigma.write_text("I(a;b)\n")
        out_path = tmp_path / "ce.dist"
        code, out, _ = run(
            ["counterexample", "--sigma", str(sigma), "--tau", "I(a;b|c)", "--out", str(out_path)]
        )
        assert code == 0 and "kind=parity" in out

    def test_implied_has_none(self, sec_sigma, tmp_path):
        code, out, _ = run(
            [
                "counterexample",
                "--sigma",
                sec_sigma,
                "--tau",
                "I(A;C)",
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert code == 1 and "no-counterexample" in out

    def test_unverified_parity_is_not_written(self, tmp_path, monkeypatch):
        from cirelax import implication

        # a copies b, so the "refutation" leaves I(a;b) at 1, not 0
        monkeypatch.setattr(implication, "_parity_forms", lambda n, tau: (0b10, 0b10, 0b100))
        sigma = tmp_path / "s.ci"
        sigma.write_text("I(a;b)\n")
        out_path = tmp_path / "ce.dist"
        code, out, err = run(
            ["counterexample", "--sigma", str(sigma), "--tau", "I(a;b|c)", "--out", str(out_path)]
        )
        assert code == 2 and out == ""
        assert err.startswith("error: internal check failed: ")
        assert not out_path.exists()

    def test_unverified_single_atom_is_not_written(self, tmp_path, monkeypatch):
        from cirelax import cli
        from cirelax.implication import Verdict

        # atom {a,b} is covered by I(a;b|c), so the "refutation" leaves it at 1
        monkeypatch.setattr(cli, "implies_positive", lambda sigma, tau, n: Verdict(False, 0b011))
        sigma = tmp_path / "s.ci"
        sigma.write_text("I(a;b|c)\n")
        out_path = tmp_path / "ce.tab"
        code, out, err = run(
            ["counterexample", "--sigma", str(sigma), "--tau", "I(a;b)", "--out", str(out_path)]
        )
        assert code == 2 and out == ""
        assert err.startswith("error: internal check failed: ")
        assert not out_path.exists()

    def test_no_finite_factor_is_unknown_not_implied(self, tmp_path):
        # The exact LP finds no finite factor here, yet neither the atom nor
        # the parity construction refutes it.
        sigma = tmp_path / "g.ci"
        sigma.write_text("I(a;d|b,c)\nI(a;b)\nI(a,b;c|d)\n")
        code, out, _ = run(["lambda", "--sigma", str(sigma), "--tau", "I(a;b,d|c)"])
        assert code == 1 and out == "lambda=unbounded\n"
        code, out, _ = run(
            ["counterexample", "--sigma", str(sigma), "--tau", "I(a;b,d|c)",
             "--out", str(tmp_path / "x")]
        )
        assert code == 1 and out == "UNKNOWN no-counterexample\n"


class TestValidate:
    def test_pass_and_determinism(self, tmp_path):
        sigma = tmp_path / "t.ci"
        sigma.write_text("I(X1;X2)\nI(X1;X3|X2)\nI(X1;X4|X2,X3)\n")
        argv = [
            "validate",
            "--sigma",
            str(sigma),
            "--tau",
            "I(X1;X2,X3,X4)",
            "--lambda",
            "1",
            "--trials",
            "40",
            "--seed",
            "11",
        ]
        code1, out1, _ = run(argv)
        code2, out2, _ = run(argv)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.startswith("PASS lambda=1 trials=40 max_violation=")

    def test_fail_with_zero_lambda(self, tmp_path):
        sigma = tmp_path / "t.ci"
        sigma.write_text("I(X1;X2)\n")
        code, out, _ = run(
            [
                "validate",
                "--sigma",
                str(sigma),
                "--tau",
                "I(X1;X2)",
                "--lambda",
                "0",
                "--trials",
                "10",
                "--seed",
                "2",
            ]
        )
        assert code == 1 and out.startswith("FAIL")

    def test_seed_env_default(self, tmp_path, monkeypatch):
        sigma = tmp_path / "t.ci"
        sigma.write_text("I(X1;X2)\n")
        argv = [
            "validate", "--sigma", str(sigma), "--tau", "I(X1;X2)",
            "--lambda", "1", "--trials", "5",
        ]
        monkeypatch.setenv("CIRELAX_SEED", "77")
        _, out_env, _ = run(argv)
        monkeypatch.delenv("CIRELAX_SEED")
        _, out_default, _ = run(argv)
        assert "worst_seed=77" in out_env or out_env != out_default


class TestErrorsExit2:
    """Failures exit 2 with one ``error:`` line, never 1 (a negative verdict)."""

    def assert_one_error_line(self, code, out, err):
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_zero_denominator_lambda(self, sec_sigma):
        self.assert_one_error_line(*run(
            ["validate", "--sigma", sec_sigma, "--tau", "I(A;C)", "--lambda", "1/0"]
        ))

    def test_sigma_file_not_utf8(self, tmp_path):
        sigma = tmp_path / "latin1.ci"
        sigma.write_bytes("I(\u00e9;b)\n".encode("latin-1"))
        self.assert_one_error_line(*run(
            ["validate", "--sigma", str(sigma), "--tau", "I(a;b)", "--lambda", "1"]
        ))

    def test_validate_past_the_measure_cap(self, sec_sigma):
        # 13 variables: one entropy table per trial would take many seconds
        self.assert_one_error_line(*run(
            ["validate", "--sigma", sec_sigma, "--tau",
             "I(A;C|D,E,F,G,H,I,J,K,L,M,N)", "--lambda", "1", "--trials", "20"]
        ))

    def test_non_integer_seed(self, sec_sigma, monkeypatch):
        monkeypatch.setenv("CIRELAX_SEED", "abc")
        code, out, err = run(
            ["validate", "--sigma", sec_sigma, "--tau", "I(A;C)", "--lambda", "1"]
        )
        self.assert_one_error_line(code, out, err)
        assert "CIRELAX_SEED" in err

    def test_sigma_error_names_its_line(self, tmp_path):
        sigma = tmp_path / "s.ci"
        sigma.write_text("# header\nI(A;A|B)\n")
        code, out, err = run(["lambda", "--sigma", str(sigma), "--tau", "I(A;B)"])
        self.assert_one_error_line(code, out, err)
        assert err.startswith("error: line 2: ")

    def test_internal_check_error(self, chain_dag, monkeypatch):
        from cirelax import InternalCheckError, cli

        def broken(dag, tau):
            raise InternalCheckError("refutation does not separate the consequent")

        monkeypatch.setattr(cli, "check_recursive", broken)
        code, out, err = run(
            ["bound", "--dag", chain_dag, "--tau", "I(X1;X3)"]
        )
        self.assert_one_error_line(code, out, err)
        assert "internal check failed" in err


class TestEntropyCommand:
    def test_fair_coin(self, tmp_path):
        dist = tmp_path / "coin.dist"
        dist.write_text("vars X:2\n0 1/2\n1 1/2\n")
        code, out, _ = run(["entropy", "--dist", str(dist), "--term", "H(X)"])
        assert code == 0 and out.strip() == "1.0"

    def test_conditional_entropy(self, tmp_path):
        dist = tmp_path / "pair.dist"
        dist.write_text("vars a:2 b:2\n0 0 1/2\n1 1 1/2\n")
        code, out, _ = run(["entropy", "--dist", str(dist), "--term", "H(a|b)"])
        assert code == 0 and out.strip() == "0.0"

    def test_table_entropies_of_the_collider_refutation(self, collider_dag, tmp_path):
        # X1 and X2 are fair bits and X3 = X1 xor X2
        artifact = tmp_path / "refutation.tab"
        run(["bound", "--dag", collider_dag, "--tau", "I(X1;X2|X3)",
             "--artifact", str(artifact)])
        for term, value in (
            ("H(X1)", "1.0"),
            ("H(X1|X2)", "1.0"),
            ("H(X1,X2|X2)", "1.0"),
            ("H(X1,X2,X3)", "2.0"),
            ("H(X3|X1,X2)", "0.0"),
            ("H(X2|X1,X2)", "0.0"),
        ):
            code, out, _ = run(["entropy", "--table", str(artifact), "--term", term])
            assert (code, out) == (0, value + "\n"), term

    def test_bad_sum_exits_2(self, tmp_path):
        dist = tmp_path / "bad.dist"
        dist.write_text("vars a:2\n0 1/2\n1 1/4\n")
        code, _, err = run(["entropy", "--dist", str(dist), "--term", "H(a)"])
        assert code == 2

    def test_nan_probability_exits_2(self, tmp_path):
        dist = tmp_path / "nan.dist"
        dist.write_text("vars a:2\n0 nan\n1 0.5\n")
        code, out, err = run(["entropy", "--dist", str(dist), "--term", "H(a)"])
        assert (code, out) == (2, "") and err.startswith("error: ")

    def test_header_word_other_than_vars_exits_2(self, tmp_path):
        dist = tmp_path / "varsity.dist"
        dist.write_text("varsity a:2\n0 1/2\n1 1/2\n")
        code, out, err = run(["entropy", "--dist", str(dist), "--term", "H(a)"])
        assert (code, out) == (2, "") and "'vars name:card ...' header" in err

    def test_duplicate_set_exits_2(self, tmp_path):
        table = tmp_path / "dup.tab"
        table.write_text("polymatroid vars a b\nset a 1/1\nset a 2/1\nset b 1/1\n")
        code, out, err = run(["entropy", "--table", str(table), "--term", "I(a;b)"])
        assert (code, out) == (2, "") and "line 3: duplicate set" in err

    def test_requires_exactly_one_input(self, tmp_path):
        code, _, err = run(["entropy", "--term", "H(a)"])
        assert code == 2

    def test_table_header_above_the_cap_exits_2(self, tmp_path):
        table = tmp_path / "wide.tab"
        table.write_text("polymatroid vars " + " ".join(f"v{i}" for i in range(17)) + "\n")
        code, out, err = run(["entropy", "--table", str(table), "--term", "H(v0)"])
        assert (code, out) == (2, "") and "at most 16" in err

    def test_non_dyadic_falls_back_to_float(self, tmp_path):
        dist = tmp_path / "tri.dist"
        dist.write_text("vars a:3\n0 1/3\n1 1/3\n2 1/3\n")
        code, out, _ = run(["entropy", "--dist", str(dist), "--term", "H(a)"])
        assert code == 0 and out.strip() == "1.58496250072"


class TestUsage:
    def test_unknown_command(self):
        code, _, _ = run(["frobnicate"])
        assert code == 2

    def test_byte_stable_reports(self, chain_dag):
        argv = ["dsep", "--dag", chain_dag, "--query", "I(X1;X3|X2)"]
        assert run(argv) == run(argv)
