"""Non-solvability analysis for Fermat equations with coefficients.

The library reproduces two kinds of results about a x^p + b y^p + c z^p = 0:

* congruence classes of exponents p (with exact Dirichlet densities) for
  which the equation has no nontrivial solutions, obtained by comparing
  Frey-curve discriminant data with candidate curves at the lowered level
  through symplectic criteria (``freypipe``);
* local obstructions: primes ell at which the equation has no Q_ell points,
  decided by membership tests in the p-th powers of F_ell* at good primes
  and by valuation cases at bad primes (``localobs``).

Importing the package loads none of its modules: each name in ``__all__``
is looked up in its home module, which is imported on first use, so a CLI
command loads only what it runs.  ``FermatsymError`` is the base of the
errors that the CLI reports as a usage or data error (exit 2).

See the README for the CLI and file formats.
"""

import importlib

__version__ = "0.1.0"


class FermatsymError(Exception):
    """A usage or data error: an input the library refuses to work on."""


_HOMES = {
    "CongruenceClassSet": "qrsolver",
    "CurveDatabase": "curvedb",
    "CurveRecord": "curvedb",
    "EquationReport": "freypipe",
    "FactoredInt": "ntkernel",
    "FreyScenario": "freypipe",
    "Invariants": "ecmodel",
    "LocalResult": "localobs",
    "ObstructionSearch": "localobs",
    "QRConstraint": "symplectic",
    "ReductionKind": "ecmodel",
    "ReductionType": "ecmodel",
    "SignExpr": "qrsolver",
    "SymplecticType": "symplectic",
    "WeierstrassModel": "ecmodel",
    "criterion_at_two": "symplectic",
    "criterion_multiplicative": "symplectic",
    "density": "qrsolver",
    "factor_small": "ntkernel",
    "has_local_obstruction": "localobs",
    "invariants": "ecmodel",
    "is_prime": "ntkernel",
    "jacobi": "ntkernel",
    "minimal_model": "ecmodel",
    "pairwise_consistency": "symplectic",
    "parse": "qrsolver",
    "pretty": "qrsolver",
    "reduction_type": "ecmodel",
    "run_case": "freypipe",
    "run_equation": "freypipe",
    "scenarios": "freypipe",
    "simplify": "qrsolver",
    "solvable_mod_q_fast": "localobs",
    "solvable_over_Ql": "localobs",
    "squarefree_part": "ntkernel",
    "sweep": "localobs",
    "to_classes": "qrsolver",
    "transform": "ecmodel",
    "verify": "curvedb",
    "weil_cutoff": "localobs",
}

__all__ = ["FermatsymError", *_HOMES]


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES})
