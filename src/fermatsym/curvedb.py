"""Candidate-curve database.

Six curves are embedded: the newform representatives at levels 30, 42, 120
and 168 that the elimination pipeline compares Frey curves against.  They
are written as lines of the override format (see ``parse_override_line``)
and parsed at import, so they pass the same checks as a user's override
file.  Their Weierstrass models are verifiable data: ``verify`` recomputes
the minimal discriminant and reduction types from the model and diffs them
against the stored claims.  The inertia flags at 2 are axioms and are not
recomputed.  A curve is a candidate at the level equal to its conductor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import FermatsymError
from .ecmodel import (
    DegenerateModelError,
    ReductionKind,
    ReductionType,
    WeierstrassModel,
    invariants,
    minimal_model,
    reduction_type,
)
from .ntkernel import FactorizationError, factor_small, is_prime


# label | conductor | sign | l:v,... | red2 | sl2f3 | model  (parse_override_line)
_EMBEDDED_CURVES = """\
42a1  |  42 | -1 | 2:8,3:2,7:1 | mult  | false | [1,1,1,-4,5]
30a1  |  30 | -1 | 2:4,3:3,5:1 | mult  | false | [1,0,1,1,2]
168a1 | 168 |  1 | 2:4,3:1,7:1 | addpg | true  | [0,1,0,-7,-10]
168b1 | 168 | -1 | 2:4,3:3,7:4 | addpg | true  | [0,-1,0,-7,52]
120a1 | 120 |  1 | 2:4,3:2,5:1 | addpg | true  | [0,1,0,-15,18]
120b1 | 120 | -1 | 2:8,3:1,5:1 | addpg | true  | [0,1,0,4,0]"""


class UnknownLabelError(FermatsymError, KeyError):
    pass


class UnknownLevelError(FermatsymError, KeyError):
    pass


class OverrideFormatError(FermatsymError, ValueError):
    pass


@dataclass(frozen=True)
class CurveRecord:
    label: str
    conductor: int
    disc_sign: int
    disc_valuations: dict[int, int]
    reduction_at: dict[int, ReductionType]
    inertia_sl2f3_at_2: bool
    model: WeierstrassModel | None = None

    def bad_primes(self) -> list[int]:
        return sorted(self.disc_valuations)

    def is_multiplicative_at(self, ell: int) -> bool:
        red = self.reduction_at.get(ell)
        return red is not None and red.kind is ReductionKind.MULTIPLICATIVE


@dataclass(frozen=True)
class VerificationReport:
    label: str
    status: str  # "verified" | "mismatch" | "unverifiable"
    mismatches: tuple[str, ...] = field(default_factory=tuple)


class CurveDatabase:
    """Embedded records plus optional user overrides; immutable after load."""

    def __init__(self, overrides: dict[str, CurveRecord] | None = None):
        self._overrides = overrides or {}
        self._records = {**_EMBEDDED, **self._overrides}

    def get(self, label: str) -> CurveRecord:
        try:
            return self._records[label]
        except KeyError:
            raise UnknownLabelError(f"unknown curve label {label!r}") from None

    def check_overrides(self) -> None:
        """OverrideFormatError for the first override record that verify rejects."""
        for report in map(verify, self._overrides.values()):
            if report.status == "mismatch":
                raise OverrideFormatError(f"override {report.label}: {'; '.join(report.mismatches)}")

    def candidates_for_level(self, level: int) -> list[CurveRecord]:
        found = [rec for rec in self._records.values() if rec.conductor == level]
        if not found:
            raise UnknownLevelError(f"no candidate curves for level {level}")
        return found


def verify(record: CurveRecord) -> VerificationReport:
    """Recompute discriminant data from the model and diff against the record."""
    if record.model is None:
        return VerificationReport(record.label, "unverifiable")
    mismatches = []
    minimal, vals = minimal_model(record.model)
    delta = invariants(minimal).delta
    sign = 1 if delta > 0 else -1
    if sign != record.disc_sign:
        mismatches.append(f"disc sign: model gives {sign}, record claims {record.disc_sign}")
    if vals != record.disc_valuations:
        mismatches.append(
            f"disc valuations: model gives {vals}, record claims {record.disc_valuations}"
        )
    cond_primes = set(factor_small(record.conductor).factors)
    if set(record.disc_valuations) != cond_primes:
        mismatches.append(
            f"valuation primes {sorted(record.disc_valuations)} differ from "
            f"conductor primes {sorted(cond_primes)}"
        )
    for ell, claimed in sorted(record.reduction_at.items()):
        actual = reduction_type(minimal, ell)
        if actual != claimed:
            mismatches.append(
                f"reduction at {ell}: model gives {actual.kind.value}"
                f" (potentially_good={actual.potentially_good}), record claims"
                f" {claimed.kind.value} (potentially_good={claimed.potentially_good})"
            )
    if record.inertia_sl2f3_at_2:
        red2 = record.reduction_at.get(2)
        if red2 is None or red2.kind is not ReductionKind.ADDITIVE or not red2.potentially_good:
            mismatches.append(
                "inertia flag at 2 requires additive, potentially good reduction at 2"
            )
    if mismatches:
        return VerificationReport(record.label, "mismatch", tuple(mismatches))
    return VerificationReport(record.label, "verified")


# ---------------------------------------------------------------------------
# override lines; split_fields and parse_prime_map also read scenario lines
# ---------------------------------------------------------------------------

_MULT = ReductionType(ReductionKind.MULTIPLICATIVE, potentially_good=False)
_RED_CODES = {
    "good": ReductionType(ReductionKind.GOOD, potentially_good=True),
    "mult": _MULT,
    "add": ReductionType(ReductionKind.ADDITIVE, potentially_good=False),
    "addpg": ReductionType(ReductionKind.ADDITIVE, potentially_good=True),
}


def split_fields(line: str, count: int, error: type[ValueError]) -> list[str]:
    """The count '|'-separated fields of line, stripped."""
    parts = [p.strip() for p in line.split("|")]
    if len(parts) != count:
        raise error(f"expected {count} '|'-separated fields, got {len(parts)}")
    return parts


def parse_prime_map(text: str, convert, error: type[ValueError], what: str) -> dict:
    """{ell: convert(v)} from 'ell:v,ell:v,...'; empty entries are skipped,
    and each ell must be a prime."""
    out = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            ell_s, v_s = item.split(":")
            ell, value = int(ell_s), convert(v_s)
        except ValueError:
            raise error(f"bad {what} entry {item!r}") from None
        try:
            prime = ell >= 2 and is_prime(ell)
        except FactorizationError as e:
            raise error(f"bad {what} entry {item!r}: {e}") from None
        if not prime:
            raise error(f"bad {what} entry {item!r}: {ell} is not prime")
        out[ell] = value
    return out


def parse_override_line(line: str) -> CurveRecord:
    """One record per line:

        label | conductor | sign | l:v,l:v,... | red2 | sl2f3 | [a1,a2,a3,a4,a6]

    red2 is one of good/mult/add/addpg; reduction at odd primes with positive
    valuation defaults to multiplicative.  sl2f3 is true/false.  The model is
    optional: use ``-`` to omit it.  The conductor must be at least 1, each l
    a prime, at least one l given (every elliptic curve over Q has a bad
    prime), and the model nonsingular.
    """
    label, cond_s, sign_s, vals_s, red2_s, sl2f3_s, model_s = split_fields(
        line, 7, OverrideFormatError
    )
    try:
        conductor = int(cond_s)
        sign = int(sign_s)
    except ValueError as e:
        raise OverrideFormatError(f"bad integer field: {e}") from None
    if sign not in (1, -1):
        raise OverrideFormatError(f"sign must be 1 or -1, got {sign}")
    vals = parse_prime_map(vals_s, int, OverrideFormatError, "valuation")
    if not vals:
        raise OverrideFormatError("no valuations: every elliptic curve over Q has a bad prime")
    if red2_s not in _RED_CODES:
        raise OverrideFormatError(f"red2 must be one of {sorted(_RED_CODES)}, got {red2_s!r}")
    if sl2f3_s.lower() not in ("true", "false", "0", "1"):
        raise OverrideFormatError(f"sl2f3 must be true/false, got {sl2f3_s!r}")
    sl2f3 = sl2f3_s.lower() in ("true", "1")
    model = None
    if model_s != "-":
        if not (model_s.startswith("[") and model_s.endswith("]")):
            raise OverrideFormatError(f"model must be [a1,a2,a3,a4,a6] or '-', got {model_s!r}")
        try:
            ainvs = [int(x) for x in model_s[1:-1].split(",")]
        except ValueError:
            raise OverrideFormatError(f"bad model coefficients {model_s!r}") from None
        if len(ainvs) != 5:
            raise OverrideFormatError("model needs exactly 5 coefficients")
        model = WeierstrassModel(*ainvs)
    reduction = {}
    for ell, v in vals.items():
        if ell == 2:
            reduction[2] = _RED_CODES[red2_s]
        elif v > 0:
            reduction[ell] = _MULT
    if sl2f3 and (2 not in vals or red2_s != "addpg"):
        raise OverrideFormatError(
            "sl2f3 requires a valuation at 2 and red2 = addpg "
            "(additive, potentially good reduction)"
        )
    if conductor < 1:
        raise OverrideFormatError(f"conductor must be at least 1, got {conductor}")
    if model is not None:
        try:
            invariants(model)
        except DegenerateModelError as e:
            raise OverrideFormatError(str(e)) from None
    return CurveRecord(
        label=label,
        conductor=conductor,
        disc_sign=sign,
        disc_valuations=vals,
        reduction_at=reduction,
        inertia_sl2f3_at_2=sl2f3,
        model=model,
    )


def parse_line_file(path: str, parse, error: type[ValueError]) -> list:
    """parse(line) for each line of a UTF-8 file, with # comments and blank
    lines skipped; error names the path, and the line where there is one."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as e:
        raise error(f"{path}: not UTF-8 text ({e.reason})") from None
    parsed = []
    for lineno, raw in enumerate(lines, start=1):
        if line := raw.split("#", 1)[0].strip():
            try:
                parsed.append(parse(line))
            except error as e:
                raise error(f"{path}:{lineno}: {e}") from None
    return parsed


def load_overrides(path: str) -> dict[str, CurveRecord]:
    return {rec.label: rec for rec in parse_line_file(path, parse_override_line, OverrideFormatError)}


_EMBEDDED = {rec.label: rec for rec in map(parse_override_line, _EMBEDDED_CURVES.splitlines())}
