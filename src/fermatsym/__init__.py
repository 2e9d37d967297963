"""Non-solvability analysis for Fermat equations with coefficients.

The library reproduces two kinds of results about a x^p + b y^p + c z^p = 0:

* congruence classes of exponents p (with exact Dirichlet densities) for
  which the equation has no nontrivial solutions, obtained by comparing
  Frey-curve discriminant data with candidate curves at the lowered level
  through symplectic criteria (``freypipe``);
* local obstructions: primes ell at which the equation has no Q_ell points,
  decided by membership tests in the p-th powers of F_ell* at good primes
  and by valuation cases at bad primes (``localobs``).

See the README for the CLI and file formats.
"""

from .curvedb import CurveDatabase, CurveRecord, verify
from .ecmodel import (
    Invariants,
    ReductionKind,
    ReductionType,
    WeierstrassModel,
    invariants,
    minimal_model,
    reduction_type,
    transform,
)
from .freypipe import EquationReport, FreyScenario, run_case, run_equation, scenarios
from .localobs import (
    LocalResult,
    ObstructionSearch,
    has_local_obstruction,
    solvable_mod_q_fast,
    solvable_over_Ql,
    sweep,
    weil_cutoff,
)
from .ntkernel import FactoredInt, factor_small, is_prime, jacobi, squarefree_part
from .qrsolver import (
    CongruenceClassSet,
    SignExpr,
    density,
    parse,
    pretty,
    simplify,
    to_classes,
)
from .symplectic import (
    QRConstraint,
    SymplecticType,
    criterion_at_two,
    criterion_multiplicative,
    pairwise_consistency,
)

__version__ = "0.1.0"

__all__ = [
    "CongruenceClassSet",
    "CurveDatabase",
    "CurveRecord",
    "EquationReport",
    "FactoredInt",
    "FreyScenario",
    "Invariants",
    "LocalResult",
    "ObstructionSearch",
    "QRConstraint",
    "ReductionKind",
    "ReductionType",
    "SignExpr",
    "SymplecticType",
    "WeierstrassModel",
    "criterion_at_two",
    "criterion_multiplicative",
    "density",
    "factor_small",
    "has_local_obstruction",
    "invariants",
    "is_prime",
    "jacobi",
    "minimal_model",
    "pairwise_consistency",
    "parse",
    "pretty",
    "reduction_type",
    "run_case",
    "run_equation",
    "scenarios",
    "simplify",
    "solvable_mod_q_fast",
    "solvable_over_Ql",
    "squarefree_part",
    "sweep",
    "to_classes",
    "transform",
    "verify",
    "weil_cutoff",
]
