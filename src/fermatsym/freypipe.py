"""End-to-end elimination engine.

For a coefficient triple (a, b, c) this assembles the per-parity Frey
scenarios (lowered level, discriminant-valuation profile, candidate curves),
runs the symplectic criteria against each candidate, and intersects the
resulting elimination conditions into congruence classes of the exponent
prime with an exact density.

Scenario data for the two built-in equations is embedded as four lines of
the scenario-file format (see ``parse_scenario_line``), parsed at import;
other equations need a scenario file, since discriminant profiles come from
a per-equation local analysis this engine does not redo.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from . import FermatsymError, qrsolver
from .curvedb import CurveDatabase, CurveRecord, parse_line_file, parse_prime_map, split_fields
from .qrsolver import FALSE, Atom, SignExpr, all_of, any_of
from .symplectic import (
    CriterionError,
    QRConstraint,
    SymplecticType,
    criterion_at_two,
    criterion_multiplicative,
    pairwise_consistency,
)


class UnknownEquationError(FermatsymError):
    pass


class ScenarioFormatError(FermatsymError, ValueError):
    pass


class IncompatibleCandidateError(FermatsymError):
    pass


@dataclass(frozen=True)
class ValuationEntry:
    """v_ell of the Frey discriminant: a residue mod p, exact when known."""

    residue: int
    exact: bool = False  # residue is v_ell itself, not only v_ell mod p


@dataclass(frozen=True)
class ExponentFloor:
    strict: bool  # True: p > bound; False: p >= bound
    bound: int

    def __str__(self) -> str:
        return f"p > {self.bound}" if self.strict else f"p ≥ {self.bound}"


@dataclass(frozen=True)
class FreyScenario:
    coefficients: tuple[int, int, int]
    parity_case: str  # "y_odd" | "y_even"
    profile: dict[int, ValuationEntry]
    lowered_level: int
    candidates: tuple[str, ...]  # () for a line's "*", which scenarios() fills in
    exponent_floor: ExponentFloor


@dataclass(frozen=True)
class ConstraintStep:
    """One criterion application inside a sub-case."""

    primes: tuple[int, ...]
    kernel: QRConstraint | None  # as derived (None for a hard contradiction)
    reduced: QRConstraint | None  # folded modulo the branch assumption
    status: str  # "pending" | "vacuous" | "violated" | "contradiction" | "kept" | "implied"


@dataclass(frozen=True)
class SubCase:
    legendre_2_p: int | None  # branch on (2/p); None for the pairwise route
    symplectic: SymplecticType
    steps: tuple[ConstraintStep, ...]
    eliminated: bool  # branch yields an unconditional contradiction


@dataclass(frozen=True)
class CaseReport:
    candidate: str
    route: str  # "inertia_at_two" | "pairwise"
    subcases: tuple[SubCase, ...]
    elimination: SignExpr


@dataclass(frozen=True)
class ScenarioReport:
    scenario: FreyScenario
    cases: tuple[CaseReport, ...]


@dataclass(frozen=True)
class EquationReport:
    equation: tuple[int, int, int]
    scenarios: tuple[ScenarioReport, ...]
    classes: qrsolver.CongruenceClassSet
    density: Fraction
    exponent_floor: ExponentFloor


# ---------------------------------------------------------------------------
# scenarios:  a,b,c | parity | level | l:v,... (v! = exact) | labels or * | floor
# ---------------------------------------------------------------------------

_EMBEDDED_SCENARIOS = """\
3,8,21 | y_odd  | 168 | 2:10!,3:-2,7:2 | * | p>7
3,8,21 | y_even |  42 | 2:-2,3:-2,7:2  | * | p>7
3,4,5  | y_odd  | 120 | 2:8!,3:2,5:2   | * | p>=5
3,4,5  | y_even |  30 | 2:-4,3:2,5:2   | * | p>=5"""


def scenarios(
    a: int,
    b: int,
    c: int,
    db: CurveDatabase | None = None,
    scenario_path: str | None = None,
) -> list[FreyScenario]:
    """Per-parity Frey scenarios for an equation a x^p + b y^p + c z^p = 0."""
    db = db or CurveDatabase()
    key = (a, b, c)
    table = load_scenarios(scenario_path) if scenario_path is not None else {}
    listed = table.get(key, _EMBEDDED.get(key))
    if listed is None:
        raise UnknownEquationError(
            f"no embedded scenario data for equation {a},{b},{c}; "
            "supply a scenario file (--scenarios) describing its parity cases"
        )
    return [
        replace(
            scen,
            profile=dict(scen.profile),
            candidates=scen.candidates
            or tuple(rec.label for rec in db.candidates_for_level(scen.lowered_level)),
        )
        for scen in listed
    ]


def _valuation_entry(text: str) -> ValuationEntry:
    return ValuationEntry(int(text.removesuffix("!")), text.endswith("!"))


def parse_scenario_line(line: str) -> FreyScenario:
    """One parity case of one equation per line; a candidates field of
    ``*`` stands for every curve whose conductor is the level."""
    eq_s, parity, level_s, profile_s, cand_s, floor_s = split_fields(line, 6, ScenarioFormatError)
    try:
        eq = tuple(int(x) for x in eq_s.split(","))
    except ValueError:
        raise ScenarioFormatError(f"bad equation triple {eq_s!r}") from None
    if len(eq) != 3:
        raise ScenarioFormatError("equation needs exactly 3 coefficients")
    if parity not in ("y_odd", "y_even"):
        raise ScenarioFormatError(f"parity must be y_odd or y_even, got {parity!r}")
    try:
        level = int(level_s)
    except ValueError:
        raise ScenarioFormatError(f"bad level {level_s!r}") from None
    profile = parse_prime_map(profile_s, _valuation_entry, ScenarioFormatError, "profile")
    candidates = tuple(x.strip() for x in cand_s.split(",") if x.strip())
    if not candidates:
        raise ScenarioFormatError("scenario needs at least one candidate label")
    if "*" in candidates and candidates != ("*",):
        raise ScenarioFormatError("'*' stands for every candidate and takes no labels beside it")
    floor_s = floor_s.replace(" ", "")
    try:
        if floor_s.startswith("p>="):
            floor = ExponentFloor(strict=False, bound=int(floor_s[3:]))
        elif floor_s.startswith("p>"):
            floor = ExponentFloor(strict=True, bound=int(floor_s[2:]))
        else:
            raise ValueError
    except ValueError:
        raise ScenarioFormatError(f"bad exponent floor {floor_s!r} (use p>N or p>=N)") from None
    return FreyScenario(eq, parity, profile, level, () if candidates == ("*",) else candidates, floor)


def _by_equation(parsed) -> dict[tuple[int, int, int], list[FreyScenario]]:
    table: dict[tuple[int, int, int], list[FreyScenario]] = {}
    for scenario in parsed:
        table.setdefault(scenario.coefficients, []).append(scenario)
    return table


def load_scenarios(path: str) -> dict[tuple[int, int, int], list[FreyScenario]]:
    return _by_equation(parse_line_file(path, parse_scenario_line, ScenarioFormatError))


_EMBEDDED = _by_equation(map(parse_scenario_line, _EMBEDDED_SCENARIOS.splitlines()))


# ---------------------------------------------------------------------------
# criteria application
# ---------------------------------------------------------------------------


def _reduce_modulo_branch(constraint: QRConstraint, legendre_2_p: int) -> QRConstraint:
    """Fold the factor 2 out of a constraint kernel once (2/p) is pinned."""
    n, sign = constraint.n, constraint.sign
    if n % 2 == 0:
        n //= 2
        sign *= legendre_2_p
    return QRConstraint(n, sign)


def _inertia_route(scenario: FreyScenario, record: CurveRecord) -> CaseReport:
    v2 = scenario.profile.get(2)
    if v2 is None or not v2.exact:
        raise CriterionError(
            f"candidate {record.label} takes the inertia-at-2 route, which needs an "
            f"exact 2-adic valuation in the {scenario.parity_case} profile"
        )
    shared_odd = sorted(
        ell
        for ell in scenario.profile
        if ell != 2 and record.is_multiplicative_at(ell)
    )
    subcases = []
    branch_exprs = []
    for eps in (-1, 1):
        sym = criterion_at_two(v2.residue, record.disc_valuations[2], eps)
        steps = []
        pending: list[QRConstraint] = []
        for ell in shared_odd:
            kernel = criterion_multiplicative(
                scenario.profile[ell].residue, record.disc_valuations[ell], sym
            )
            reduced = _reduce_modulo_branch(kernel, eps)
            if kernel == QRConstraint(1, -1):  # the type contradicts the valuations
                steps.append(ConstraintStep((ell,), None, None, "contradiction"))
            elif kernel.n == 1:
                steps.append(ConstraintStep((ell,), kernel, None, "vacuous"))
            elif reduced.n == 1:
                status = "vacuous" if reduced.sign == 1 else "violated"
                steps.append(ConstraintStep((ell,), kernel, reduced, status))
            else:
                steps.append(ConstraintStep((ell,), kernel, reduced, "pending"))
                if reduced not in pending:
                    pending.append(reduced)
        eliminated = any(step.status in ("contradiction", "violated") for step in steps)
        subcases.append(SubCase(eps, sym, tuple(steps), eliminated))
        branch_atom = Atom(QRConstraint(2, eps))
        if eliminated:
            branch_exprs.append(branch_atom)
        elif pending:
            violations = any_of(Atom(c.negated()) for c in pending)
            branch_exprs.append(all_of((branch_atom, violations)))
    elimination = any_of(branch_exprs) if branch_exprs else FALSE
    return CaseReport(record.label, "inertia_at_two", tuple(subcases), elimination)


def _pairwise_route(scenario: FreyScenario, record: CurveRecord) -> CaseReport:
    shared = sorted(ell for ell in scenario.profile if ell in record.disc_valuations)
    for ell in shared:
        if not record.is_multiplicative_at(ell):
            raise CriterionError(
                f"candidate {record.label} is not multiplicative at {ell}; "
                "the pairwise route needs multiplicative reduction at every shared prime"
            )
    raw = pairwise_consistency(
        [(ell, scenario.profile[ell].residue) for ell in shared],
        [(ell, record.disc_valuations[ell]) for ell in shared],
    )
    pairs = [(l1, l2) for i, l1 in enumerate(shared) for l2 in shared[i + 1 :]]
    simplified = qrsolver.simplify(raw)
    steps = []
    if simplified is None:
        for (l1, l2), kernel in zip(pairs, raw):
            steps.append(ConstraintStep((l1, l2), kernel, None, "contradiction"))
        subcase = SubCase(None, SymplecticType.UNKNOWN, tuple(steps), True)
        return CaseReport(record.label, "pairwise", (subcase,), qrsolver.TRUE)
    kept = list(simplified)
    for (l1, l2), kernel in zip(pairs, raw):
        if kernel.n == 1:
            steps.append(ConstraintStep((l1, l2), kernel, None, "vacuous"))
        elif kernel in kept:
            steps.append(ConstraintStep((l1, l2), kernel, kernel, "kept"))
            kept.remove(kernel)
        else:
            steps.append(ConstraintStep((l1, l2), kernel, None, "implied"))
    minimal = [c for c in simplified if c.n != 1]
    elimination = any_of(Atom(c.negated()) for c in minimal) if minimal else FALSE
    subcase = SubCase(None, SymplecticType.UNKNOWN, tuple(steps), False)
    return CaseReport(record.label, "pairwise", (subcase,), elimination)


def run_case(scenario: FreyScenario, record: CurveRecord) -> CaseReport:
    """Elimination condition for one (scenario, candidate-curve) pair."""
    if not set(record.disc_valuations) <= set(scenario.profile):
        raise IncompatibleCandidateError(
            f"candidate {record.label} has bad primes {record.bad_primes()} outside "
            f"the scenario profile primes {sorted(scenario.profile)}"
        )
    if record.inertia_sl2f3_at_2:
        return _inertia_route(scenario, record)
    return _pairwise_route(scenario, record)


def run_equation(
    a: int,
    b: int,
    c: int,
    db: CurveDatabase | None = None,
    scenario_path: str | None = None,
) -> EquationReport:
    """Contradiction classes for a x^p + b y^p + c z^p = 0, with density."""
    db = db or CurveDatabase()
    db.check_overrides()
    scen_list = scenarios(a, b, c, db, scenario_path)
    reports = []
    all_conditions = []
    for scen in scen_list:
        cases = tuple(run_case(scen, db.get(label)) for label in scen.candidates)
        reports.append(ScenarioReport(scen, cases))
        all_conditions.extend(case.elimination for case in cases)
    total = all_of(all_conditions)
    classes = qrsolver.to_classes(total)
    dens = qrsolver.density(classes)
    floor = max((scen.exponent_floor for scen in scen_list), key=lambda f: f.bound + f.strict)
    return EquationReport((a, b, c), tuple(reports), classes, dens, floor)
