"""Helpers shared by more than one test module."""

from fermatsym.freypipe import SubCase
from fermatsym.symplectic import QRConstraint


def decisive_kernels(sub: SubCase) -> list[QRConstraint]:
    """The constraints a sub-case turns on, the way a proof would cite them.

    For an eliminated branch these are the violated constraints as derived;
    otherwise the pending reduced constraints.
    """
    if sub.eliminated:
        return [s.kernel for s in sub.steps if s.status in ("violated", "contradiction") and s.kernel is not None]
    return [s.reduced for s in sub.steps if s.status == "pending"]
