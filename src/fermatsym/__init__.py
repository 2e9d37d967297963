"""Non-solvability analysis for Fermat equations with coefficients.

The library reproduces two kinds of results about a x^p + b y^p + c z^p = 0:

* congruence classes of exponents p (with exact Dirichlet densities) for
  which the equation has no nontrivial solutions, obtained by comparing
  Frey-curve discriminant data with candidate curves at the lowered level
  through symplectic criteria (``freypipe``);
* local obstructions: primes ell at which the equation has no Q_ell points,
  decided by membership tests in the p-th powers of F_ell* at good primes
  and by valuation cases at bad primes (``localobs``).

``__all__`` holds the calls that give the answers, each looked up in its
home module, which is imported on first use: importing the package loads
none, so a CLI command loads only what it runs.  Each refuses an input with
a ``FermatsymError``, which the CLI reports as a usage or data error (exit 2).

See the README for the CLI and file formats.
"""

import importlib

__version__ = "0.1.0"


class FermatsymError(Exception):
    """A usage or data error: an input the library refuses to work on."""


_HOMES = {
    "run_equation": "freypipe",
    "has_local_obstruction": "localobs",
    "solvable_over_Ql": "localobs",
    "sweep": "localobs",
    "parse": "qrsolver",
    "to_classes": "qrsolver",
    "density": "qrsolver",
    "CurveDatabase": "curvedb",
    "verify": "curvedb",
}

__all__ = ["FermatsymError", *_HOMES]


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES})
