"""Command-line surface: exit codes, report stability, artifact round-trips."""

import io
import contextlib

import pytest

from cirelax.cli import main

CHAIN_DAG = "var X1\nvar X2\nvar X3\nedge X1 X2\nedge X2 X3\n"
COLLIDER_DAG = "var X1\nvar X2\nvar X3\nedge X1 X3\nedge X2 X3\n"
SEC_SIGMA = "I(A;B)\nI(A;C|B)\n"


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
    def test_atoms_mode(self, sec_sigma):
        code, out, _ = run(["implies", "--sigma", sec_sigma, "--tau", "I(A;C)"])
        assert code == 0 and out == "IMPLIED\nmode=atoms\n"

    def test_lp_mode(self, sec_sigma):
        code, out, _ = run(
            ["implies", "--sigma", sec_sigma, "--tau", "I(A;C)", "--mode", "lp"]
        )
        assert code == 0 and out == "IMPLIED lambda=1\nmode=lp\n"

    def test_graphoid_mode(self, sec_sigma):
        code, out, _ = run(
            ["implies", "--sigma", sec_sigma, "--tau", "I(A;C)", "--mode", "graphoid"]
        )
        assert code == 0 and out == "IMPLIED\nmode=graphoid\n"

    def test_negative_atoms_mode(self, tmp_path):
        p = tmp_path / "s.ci"
        p.write_text("I(a;b|c)\n")
        code, out, _ = run(["implies", "--sigma", str(p), "--tau", "I(a;b)"])
        assert code == 1
        assert out.splitlines()[0] == "NOT-IMPLIED witness=atom{a,b,c}"

    def test_lp_mode_cap_exits_2(self, tmp_path):
        p = tmp_path / "wide.ci"
        p.write_text("I(a;b|c,d,e,f)\n")
        code, _, err = run(["implies", "--sigma", str(p), "--tau", "I(a;b)", "--mode", "lp"])
        assert code == 2 and "error:" in err


class TestBound:
    def test_recursive_implied(self, chain_dag):
        code, out, _ = run(
            ["bound", "--kind", "recursive", "--dag", chain_dag, "--tau", "I(X1;X3|X2)"]
        )
        assert code == 0
        assert out.splitlines()[0] == "IMPLIED lambda=1"

    def test_recursive_not_implied_writes_polymatroid(self, collider_dag, tmp_path):
        artifact = tmp_path / "refutation.tab"
        code, out, _ = run(
            ["bound", "--kind", "recursive", "--dag", collider_dag, "--tau", "I(X1;X2|X3)",
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
                "--kind",
                "marginal",
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
            ["bound", "--kind", "marginal", "--sigma", str(sigma), "--tau", "I(a;c|b)"]
        )
        assert code == 0
        assert out.splitlines()[0] == "IMPLIED lambda=1"

    def test_default_artifact_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        sigma = tmp_path / "m.ci"
        sigma.write_text("I(a;b)\n")
        code, out, _ = run(
            ["bound", "--kind", "marginal", "--sigma", str(sigma), "--tau", "I(a;b|c)"]
        )
        assert code == 1
        assert "artifact=refutation.out" in out
        assert (tmp_path / "refutation.out").exists()

    def test_kind_requires_matching_input(self, sec_sigma):
        code, _, err = run(
            ["bound", "--kind", "recursive", "--sigma", sec_sigma, "--tau", "I(A;C)"]
        )
        assert code == 2

    def test_non_marginal_antecedent_rejected(self, tmp_path):
        sigma = tmp_path / "m.ci"
        sigma.write_text("I(a;b|c)\n")
        code, _, err = run(
            ["bound", "--kind", "marginal", "--sigma", str(sigma), "--tau", "I(a;b)"]
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

    def test_cap(self, tmp_path):
        sigma = tmp_path / "big.ci"
        sigma.write_text("I(a;b|c,d,e,f)\n")
        code, _, err = run(["closure", "--sigma", str(sigma)])
        assert code == 2


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

    def test_internal_check_error(self, chain_dag, monkeypatch):
        from cirelax import InternalCheckError, cli

        def broken(dag, tau):
            raise InternalCheckError("refutation does not separate the consequent")

        monkeypatch.setattr(cli, "check_recursive", broken)
        code, out, err = run(
            ["bound", "--kind", "recursive", "--dag", chain_dag, "--tau", "I(X1;X3)"]
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

    def test_bad_sum_exits_2(self, tmp_path):
        dist = tmp_path / "bad.dist"
        dist.write_text("vars a:2\n0 1/2\n1 1/4\n")
        code, _, err = run(["entropy", "--dist", str(dist), "--term", "H(a)"])
        assert code == 2

    def test_requires_exactly_one_input(self, tmp_path):
        code, _, err = run(["entropy", "--term", "H(a)"])
        assert code == 2

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
