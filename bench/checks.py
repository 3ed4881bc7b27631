"""Correctness checks on returned verdicts, run after the timed region.

Each check returns ``None`` for a correct certified verdict, else the reason
it is wrong.  The checks use the benchmark's own oracles: d-separation from
``workloads``, exact arithmetic on shipped refutations, and SciPy's HiGHS
solver on the polymatroid cone (SciPy is imported here only, never by
cirelax).
"""

from __future__ import annotations

from fractions import Fraction

from workloads import Instance, Term, bits, d_separated

LP_TOLERANCE = 1e-6


def _table_cmi(values, t: Term):
    x, y, z = t
    return values[x | z] + values[y | z] - values[x | y | z] - values[z]


def check_dag(inst: Instance, cert) -> str | None:
    """The verdict is d-separation; lambda is 1; a refutation table zeroes
    the recursive basis and gives tau at least 1."""
    separated = d_separated(inst.parents, inst.tau)
    if cert.implied != separated:
        return f"verdict {cert.implied} but d-separation says {separated}"
    if cert.implied:
        return None if cert.lam == 1 else f"lambda {cert.lam} is not 1"
    values = cert.refutation_table.values
    if any(_table_cmi(values, t) != 0 for t in inst.sigma):
        return "refutation table does not zero the basis"
    if not _table_cmi(values, inst.tau) >= 1:
        return "refutation table does not separate tau"
    return None


def _marginals(n: int, probs, mask: int) -> dict[int, Fraction]:
    """Marginal of a binary row-major table: variable i is index bit n-1-i."""
    keep = sum(1 << (n - 1 - v) for v in bits(mask))
    out: dict[int, Fraction] = {}
    for index, p in enumerate(probs):
        if p:
            out[index & keep] = out.get(index & keep, 0) + p
    return out


def _entropy(n: int, probs, mask: int) -> Fraction:
    """Exact entropy in bits; every marginal probability must be 2**-k."""
    total = Fraction(0)
    for p in _marginals(n, probs, mask).values():
        p = Fraction(p)
        if p.numerator != 1 or p.denominator & (p.denominator - 1):
            raise ValueError(f"probability {p} is not dyadic")
        total += p * (p.denominator.bit_length() - 1)
    return total


def _dist_cmi(n: int, probs, t: Term) -> Fraction:
    """I(x;y|z) of a binary table, exactly."""
    x, y, z = t
    h = [_entropy(n, probs, m) for m in (x | z, y | z, x | y | z, z)]
    return h[0] + h[1] - h[2] - h[3]


class LPOracle:
    """max I(tau) over the polymatroid cone with I(sigma) <= 1, in floats."""

    def __init__(self) -> None:
        import numpy
        from scipy.optimize import linprog

        self._np = numpy
        self._linprog = linprog
        self._cones: dict[int, object] = {}

    def _cone(self, n: int):
        if n not in self._cones:
            full = (1 << n) - 1
            rows = []
            for i in range(n):
                rows.append({full: 1, full ^ (1 << i): -1})
            for i in range(n):
                for j in range(i + 1, n):
                    rest = full & ~(1 << i) & ~(1 << j)
                    for k in range(1 << n):
                        if k & ~rest:
                            continue
                        rows.append({k | 1 << i: 1, k | 1 << j: 1, k | 1 << i | 1 << j: -1, k: -1})
            a = self._np.zeros((len(rows), full))
            for r, row in enumerate(rows):
                for mask, c in row.items():
                    if mask:
                        a[r, mask - 1] -= c  # -row <= 0
            self._cones[n] = a
        return self._cones[n]

    def _form(self, n: int, terms) -> object:
        f = self._np.zeros((1 << n) - 1)
        for x, y, z in terms:
            for mask, c in ((x | z, 1), (y | z, 1), (x | y | z, -1), (z, -1)):
                if mask:
                    f[mask - 1] += c
        return f

    def optimum(self, inst: Instance) -> float | None:
        """The least valid factor, or ``None`` when no finite one exists."""
        np = self._np
        cone = self._cone(inst.n)
        a_ub = np.vstack([cone, self._form(inst.n, inst.sigma)])
        b_ub = np.zeros(a_ub.shape[0])
        b_ub[-1] = 1.0
        res = self._linprog(-self._form(inst.n, (inst.tau,)), A_ub=a_ub, b_ub=b_ub,
                            bounds=(None, None), method="highs")
        if res.status == 3:
            return None
        if res.status != 0:
            raise RuntimeError(f"HiGHS status {res.status}: {res.message}")
        return -res.fun


def check_marginal(inst: Instance, cert, report, lp: LPOracle) -> str | None:
    """Refutations zero sigma and give tau at least 1 on the shipped
    distribution; implied verdicts pass validation and bound the LP optimum."""
    if cert.implied != (inst.label == "implied"):
        return f"verdict {cert.implied} for a constructed {inst.label} query"
    if not cert.implied:
        if cert.refutation_distribution is None:
            return "refutation ships no distribution"
        probs = cert.refutation_distribution.probs
        try:
            if any(_dist_cmi(inst.n, probs, t) != 0 for t in inst.sigma):
                return "refutation distribution does not zero sigma"
            if not _dist_cmi(inst.n, probs, inst.tau) >= 1:
                return "refutation distribution does not separate tau"
        except ValueError as exc:
            return f"refutation distribution has no exact entropy: {exc}"
        return None
    if not report.passed:
        return f"validate_bound failed at lambda={cert.lam}"
    best = lp.optimum(inst)
    if best is None or best > cert.lam + LP_TOLERANCE:
        return f"lambda={cert.lam} is below the LP optimum {best}"
    return None


def check_lp(inst: Instance, lam, unbounded: bool, lp: LPOracle) -> str | None:
    """Same finite-or-unbounded result as HiGHS, and the same value within
    ``LP_TOLERANCE``."""
    best = lp.optimum(inst)
    if unbounded != (inst.label == "unbounded") or unbounded != (best is None):
        return f"unbounded={unbounded}, constructed {inst.label}, HiGHS optimum {best}"
    if not unbounded and abs(float(lam) - best) > LP_TOLERANCE:
        return f"lambda={lam} but HiGHS gives {best}"
    return None
