"""Helpers shared by more than one test module, and readings of library
objects that only tests need."""

from fermatsym.curvedb import CurveDatabase, VerificationReport
from fermatsym.freypipe import SubCase
from fermatsym.ntkernel import FactoredInt
from fermatsym.symplectic import QRConstraint


def decisive_kernels(sub: SubCase) -> list[QRConstraint]:
    """The constraints a sub-case turns on, the way a proof would cite them.

    For an eliminated branch these are the violated constraints as derived;
    otherwise the pending reduced constraints.
    """
    if sub.eliminated:
        return [s.kernel for s in sub.steps if s.status in ("violated", "contradiction") and s.kernel is not None]
    return [s.reduced for s in sub.steps if s.status == "pending"]


def factored_value(f: FactoredInt) -> int:
    """The integer f stands for."""
    n = f.sign
    for p, e in f.factors.items():
        n *= p**e
    return n


def factored_str(f: FactoredInt) -> str:
    """f as '-2^4 * 3^3 * 5', primes ascending; '1' for no factors."""
    parts = [f"{p}^{e}" if e > 1 else str(p) for p, e in sorted(f.factors.items())]
    body = " * ".join(parts) if parts else "1"
    return body if f.sign > 0 else f"-{body}"


def labels(db: CurveDatabase) -> list[str]:
    """Every label in the database, sorted."""
    return sorted(db._records)


def verified(report: VerificationReport) -> bool:
    return report.status == "verified"
