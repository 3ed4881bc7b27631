"""Exact and approximate implication between conditional-independence
statements over discrete variables, with machine-checkable certificates."""

from .core import (
    CapExceeded,
    CIError,
    CISet,
    CITriple,
    InternalCheckError,
    ParseError,
    Universe,
    elemental_decompose,
    parse_ci_lines,
    parse_ci_triple,
)
from .dag import Dag, active_trail, d_separated, parse_dag, read_dag_file, recursive_basis
from .polymatroids import PolymatroidTable, is_polymatroid
from .distributions import (
    JointDistribution,
    entropic_table,
    entropy,
    parity_distribution,
    random_distribution,
    read_distribution,
    write_distribution,
)
from .implication import (
    RelaxationCertificate,
    ValidationReport,
    Verdict,
    check_marginal,
    check_recursive,
    implies_positive,
    parity_refutation,
    semigraphoid_closure,
    tightness_family,
    validate_bound,
)
from .lp import (
    UNBOUNDED,
    ConeProgram,
    LinearFunctional,
    SimplexResult,
    elemental_inequalities,
    optimal_lambda,
    simplex_solve,
)

__version__ = "0.1.0"

__all__ = [
    "CIError",
    "CISet",
    "CITriple",
    "CapExceeded",
    "ConeProgram",
    "Dag",
    "InternalCheckError",
    "JointDistribution",
    "LinearFunctional",
    "ParseError",
    "PolymatroidTable",
    "RelaxationCertificate",
    "SimplexResult",
    "UNBOUNDED",
    "Universe",
    "ValidationReport",
    "Verdict",
    "active_trail",
    "check_marginal",
    "check_recursive",
    "d_separated",
    "elemental_decompose",
    "elemental_inequalities",
    "entropic_table",
    "entropy",
    "implies_positive",
    "is_polymatroid",
    "optimal_lambda",
    "parity_distribution",
    "parity_refutation",
    "parse_ci_lines",
    "parse_ci_triple",
    "parse_dag",
    "random_distribution",
    "read_dag_file",
    "read_distribution",
    "recursive_basis",
    "semigraphoid_closure",
    "simplex_solve",
    "tightness_family",
    "validate_bound",
    "write_distribution",
]
