"""Properties of ``cirelax implies`` on random CI sets, run through ``main``
on files in a temporary directory: its verdicts agree with the engine the
input selects, and past the LP cap it never claims an implication."""

import contextlib
import io
import os
import tempfile

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from cirelax.cli import _universe_for, main  # noqa: E402
from cirelax.implication import check_marginal  # noqa: E402
from cirelax.lp import UNBOUNDED, optimal_lambda  # noqa: E402

NAMES = "abcdef"
SETTINGS = settings(max_examples=40, deadline=None, database=None)


@st.composite
def triples(draw, n, z="any"):
    """``I(x;y|z)`` text over the first ``n`` names; ``z`` is "any", "none"
    (marginal) or "some" (conditional)."""
    order = draw(st.permutations(range(n)))
    parts = [[order[0]], [order[1]], [order[2]] if z == "some" else []]
    for v in order[2 + (z == "some"):]:
        side = draw(st.sampled_from((0, 1, 3) if z == "none" else (0, 1, 2, 3)))
        if side < 3:
            parts[side].append(v)
    x, y, c = (",".join(NAMES[v] for v in sorted(p)) for p in parts)
    return f"I({x};{y}|{c})" if c else f"I({x};{y})"


def cases(sizes, z_first, z_rest):
    """(antecedent lines, consequent) with a first antecedent of kind ``z_first``."""
    return sizes.flatmap(lambda n: st.tuples(
        st.tuples(triples(n, z_first)).map(list)
        | st.tuples(triples(n, z_first), triples(n, z_rest)).map(list),
        triples(n),
    ))


def run(tmp, command, lines, tau, *extra):
    path = os.path.join(tmp, "sigma.ci")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in lines))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([command, "--sigma", path, "--tau", tau, *extra])
    return code, out.getvalue(), _universe_for(path, tau)


@SETTINGS
@given(cases(st.integers(3, 4), "some", "any"))
def test_lp_engine_matches_optimal_lambda(case):
    lines, tau = case
    with tempfile.TemporaryDirectory() as tmp:
        code, out, (sigma, t, universe) = run(tmp, "implies", lines, tau)
    lam = optimal_lambda(sigma, t, universe.n)
    assert code == (1 if lam is UNBOUNDED else 0)
    verdict = "NOT-IMPLIED lambda=unbounded" if lam is UNBOUNDED else f"IMPLIED lambda={lam}"
    assert out == f"{verdict}\nengine=lp\n"


@SETTINGS
@given(cases(st.integers(3, 6), "none", "none"))
def test_marginal_engine_matches_check_marginal(case):
    lines, tau = case
    with tempfile.TemporaryDirectory() as tmp:
        code, out, (sigma, t, universe) = run(tmp, "implies", lines, tau)
    cert = check_marginal(sigma, t, universe.n)
    assert code == (0 if cert.implied else 1)
    assert out == cert.render(universe).split("\n")[0] + "\nengine=marginal\n"


@SETTINGS
@given(cases(st.just(6), "some", "any"))
def test_past_the_lp_cap_only_refutations_are_claimed(case):
    lines, tau = case
    with tempfile.TemporaryDirectory() as tmp:
        code, out, (_, _, universe) = run(tmp, "implies", lines, tau)
        assume(universe.n == 6)
        assert code in (1, 2)
        if code == 1:
            artifact = os.path.join(tmp, "refutation.out")
            ce_code, ce_out, _ = run(tmp, "counterexample", lines, tau, "--out", artifact)
            assert ce_code == 0 and os.path.exists(artifact)
            assert ce_out.split("\n")[0] == out.split("\n")[0]
