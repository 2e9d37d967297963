from fractions import Fraction

import pytest

from fermatsym.curvedb import CurveDatabase, load_overrides, parse_override_line
from fermatsym.freypipe import (
    CriterionError,
    ExponentFloor,
    FreyScenario,
    ScenarioFormatError,
    UnknownEquationError,
    ValuationEntry,
    parse_scenario_line,
    run_case,
    run_equation,
    scenarios,
)
from fermatsym.ntkernel import jacobi, primes_in
from fermatsym.qrsolver import (
    Atom,
    Or,
    decompose,
    parse,
    to_classes,
)
from fermatsym.symplectic import QRConstraint, SymplecticType

from helpers import decisive_kernels


def atom(n: int, sign: int) -> Atom:
    return Atom(QRConstraint(n, sign))


# The built-in scenarios as Python literals, "*" filled in by the curves at
# each level: a typo in a line, or a change in how lines are parsed, must
# fail here.
REFERENCE = {
    (3, 8, 21): [
        FreyScenario(
            (3, 8, 21), "y_odd",
            {2: ValuationEntry(10, True), 3: ValuationEntry(-2), 7: ValuationEntry(2)},
            168, ("168a1", "168b1"), ExponentFloor(strict=True, bound=7),
        ),
        FreyScenario(
            (3, 8, 21), "y_even",
            {2: ValuationEntry(-2), 3: ValuationEntry(-2), 7: ValuationEntry(2)},
            42, ("42a1",), ExponentFloor(strict=True, bound=7),
        ),
    ],
    (3, 4, 5): [
        FreyScenario(
            (3, 4, 5), "y_odd",
            {2: ValuationEntry(8, True), 3: ValuationEntry(2), 5: ValuationEntry(2)},
            120, ("120a1", "120b1"), ExponentFloor(strict=False, bound=5),
        ),
        FreyScenario(
            (3, 4, 5), "y_even",
            {2: ValuationEntry(-4), 3: ValuationEntry(2), 5: ValuationEntry(2)},
            30, ("30a1",), ExponentFloor(strict=False, bound=5),
        ),
    ],
}


class TestScenarios:
    @pytest.mark.parametrize("eq", sorted(REFERENCE))
    def test_built_in_scenarios_equal_the_reference(self, eq):
        assert scenarios(*eq) == REFERENCE[eq]

    def test_mutating_a_returned_scenario_leaves_the_next_call_unchanged(self):
        for eq in REFERENCE:
            for scen in scenarios(*eq):
                scen.profile[2] = ValuationEntry(1)
                scen.profile[11] = ValuationEntry(1)
            assert scenarios(*eq) == REFERENCE[eq]

    def test_eq1_y_odd_has_exact_v2(self):
        y_odd, y_even = scenarios(3, 8, 21)
        assert y_odd.parity_case == "y_odd"
        assert y_odd.lowered_level == 168
        assert y_odd.profile[2] == ValuationEntry(10, True)
        assert y_odd.profile[3] == ValuationEntry(-2, False)
        assert y_odd.profile[7] == ValuationEntry(2, False)
        assert y_odd.candidates == ("168a1", "168b1")

    def test_eq1_y_even_level_42(self):
        _, y_even = scenarios(3, 8, 21)
        assert y_even.lowered_level == 42
        assert y_even.profile[2] == ValuationEntry(-2, False)
        assert y_even.candidates == ("42a1",)

    def test_eq2_y_even_residue(self):
        _, y_even = scenarios(3, 4, 5)
        assert y_even.profile[2] == ValuationEntry(-4, False)
        assert y_even.lowered_level == 30

    def test_floors(self):
        assert scenarios(3, 8, 21)[0].exponent_floor == ExponentFloor(True, 7)
        assert scenarios(3, 4, 5)[0].exponent_floor == ExponentFloor(False, 5)
        assert str(ExponentFloor(True, 7)) == "p > 7"

    def test_unknown_triple_needs_scenario_file(self):
        with pytest.raises(UnknownEquationError, match="scenario file"):
            scenarios(1, 1, 1)


def _case(eq, parity, label):
    db = CurveDatabase()
    scen = next(s for s in scenarios(*eq, db=db) if s.parity_case == parity)
    return run_case(scen, db.get(label))


class TestRunCase:
    def test_eq1_168a1(self):
        case = _case((3, 8, 21), "y_odd", "168a1")
        expected = parse("(2)=-1 | ((2)=+1 & (-1)=-1)")
        assert to_classes(case.elimination) == to_classes(expected)

    def test_eq1_168b1(self):
        case = _case((3, 8, 21), "y_odd", "168b1")
        expected = parse("(2)=-1 | ((2)=+1 & (-3)=-1)")
        assert to_classes(case.elimination) == to_classes(expected)

    def test_eq2_120a1_only_minus_branch(self):
        case = _case((3, 4, 5), "y_odd", "120a1")
        assert case.elimination == atom(2, -1)

    def test_eq2_30a1_pairwise_verbatim(self):
        case = _case((3, 4, 5), "y_even", "30a1")
        assert case.route == "pairwise"
        assert case.elimination == Or((atom(-2, -1), atom(3, -1)))
        assert case.elimination == parse("(-2)=-1 | (3)=-1")

    def test_eq1_y_even_pairwise(self):
        case = _case((3, 8, 21), "y_even", "42a1")
        assert case.elimination == atom(-2, -1)

    def test_subcase_verdicts_eq1_y_odd(self):
        for label in ("168a1", "168b1"):
            case = _case((3, 8, 21), "y_odd", label)
            assert [sub.legendre_2_p for sub in case.subcases] == [-1, 1]
            assert all(sub.symplectic is SymplecticType.SYMPLECTIC for sub in case.subcases)

    def test_subcase_verdicts_eq2_y_odd(self):
        case = _case((3, 4, 5), "y_odd", "120a1")
        minus = case.subcases[0]
        assert minus.legendre_2_p == -1
        assert minus.symplectic is SymplecticType.ANTI_SYMPLECTIC
        assert minus.eliminated
        case_b = _case((3, 4, 5), "y_odd", "120b1")
        assert case_b.subcases[0].symplectic is SymplecticType.SYMPLECTIC

    def test_decisive_kernels_match_sources(self):
        a = _case((3, 8, 21), "y_odd", "168a1")
        assert decisive_kernels(a.subcases[0]) == [QRConstraint(2, 1)]
        assert decisive_kernels(a.subcases[1]) == [QRConstraint(-1, 1)]
        b = _case((3, 8, 21), "y_odd", "168b1")
        assert decisive_kernels(b.subcases[0]) == [QRConstraint(2, 1)]
        assert decisive_kernels(b.subcases[1]) == [QRConstraint(-3, 1)]

    def test_inertia_route_requires_exact_v2(self):
        db = CurveDatabase()
        scen = FreyScenario(
            coefficients=(3, 4, 5),
            parity_case="y_odd",
            profile={2: ValuationEntry(8), 3: ValuationEntry(2), 5: ValuationEntry(2)},
            lowered_level=120,
            candidates=("120a1",),
            exponent_floor=ExponentFloor(False, 5),
        )
        with pytest.raises(CriterionError, match="exact"):
            run_case(scen, db.get("120a1"))

    def test_incompatible_candidate_rejected(self):
        from fermatsym.freypipe import IncompatibleCandidateError

        db = CurveDatabase()
        scen = FreyScenario(
            coefficients=(3, 8, 21),
            parity_case="y_odd",
            profile={2: ValuationEntry(10, True), 3: ValuationEntry(-2)},
            lowered_level=168,
            candidates=("168a1",),
            exponent_floor=ExponentFloor(True, 7),
        )
        with pytest.raises(IncompatibleCandidateError):
            run_case(scen, db.get("168a1"))  # record has prime 7 outside profile


class TestRunEquation:
    def test_eq1_congruence_classes(self):
        report = run_equation(3, 8, 21)
        assert (report.classes.modulus, report.classes.residues) == (24, frozenset({5, 13, 23}))
        assert report.density == Fraction(3, 8)
        assert report.exponent_floor == ExponentFloor(True, 7)
        assert decompose(report.classes) == [(5, 8), (23, 24)]

    def test_eq2_congruence_classes(self):
        report = run_equation(3, 4, 5)
        assert (report.classes.modulus, report.classes.residues) == (24, frozenset({5, 13, 19}))
        assert report.density == Fraction(3, 8)
        assert report.exponent_floor == ExponentFloor(False, 5)
        assert decompose(report.classes) == [(5, 8), (19, 24)]

    def test_invariant_under_candidate_order(self):
        db = CurveDatabase()
        scen_fwd = scenarios(3, 8, 21, db=db)
        swapped = [
            FreyScenario(
                s.coefficients,
                s.parity_case,
                s.profile,
                s.lowered_level,
                tuple(reversed(s.candidates)),
                s.exponent_floor,
            )
            for s in reversed(scen_fwd)
        ]
        from fermatsym.qrsolver import all_of

        conditions = [
            run_case(s, db.get(label)).elimination for s in swapped for label in s.candidates
        ]
        assert to_classes(all_of(conditions)) == run_equation(3, 8, 21).classes

    def test_dropping_y_even_strictly_enlarges(self):
        from fermatsym.qrsolver import all_of

        db = CurveDatabase()
        y_odd = scenarios(3, 8, 21, db=db)[0]
        conditions = [run_case(y_odd, db.get(label)).elimination for label in y_odd.candidates]
        odd_only = to_classes(all_of(conditions))
        full = run_equation(3, 8, 21).classes
        primes = primes_in(11, 1000)
        in_full = {p for p in primes if p % full.modulus in full.residues}
        in_odd_only = {p for p in primes if p % odd_only.modulus in odd_only.residues}
        assert in_full < in_odd_only

    def test_every_output_class_has_minus_two_nonresidue(self):
        classes = run_equation(3, 8, 21).classes
        inside = [p for p in primes_in(11, 1000) if p % classes.modulus in classes.residues]
        assert len(inside) > 50
        for p in inside:
            assert jacobi(-2, p) == -1, p

    def test_output_decomposition_parts_disjoint_mod_24(self):
        for eq in ((3, 8, 21), (3, 4, 5)):
            report = run_equation(*eq)
            parts = decompose(report.classes)
            covered = set()
            for r, m in parts:
                fiber = {x for x in range(24) if x % m == r}
                assert not (covered & fiber)
                covered |= fiber


class TestScenarioFiles:
    def test_parse_line(self):
        scen = parse_scenario_line(
            "3,8,21 | y_odd | 168 | 2:10!,3:-2,7:2 | 168a1,168b1 | p>7"
        )
        assert scen.coefficients == (3, 8, 21)
        assert scen.profile[2] == ValuationEntry(10, True)
        assert scen.profile[3] == ValuationEntry(-2, False)
        assert scen.exponent_floor == ExponentFloor(True, 7)
        assert scen == REFERENCE[(3, 8, 21)][0]

    @pytest.mark.parametrize(
        "line",
        [
            "3,8 | y_odd | 168 | 2:10! | 168a1 | p>7",
            "3,8,21 | sideways | 168 | 2:10! | 168a1 | p>7",
            "3,8,21 | y_odd | x | 2:10! | 168a1 | p>7",
            "3,8,21 | y_odd | 168 | 2:ten | 168a1 | p>7",
            "3,8,21 | y_odd | 168 | 2:10! |  | p>7",
            "3,8,21 | y_odd | 168 | 2:10! | 168a1 | p<7",
            "3,8,21 | y_odd | 168 | 2:10! | 168a1 | p>x",
            "3,8,21 | y_odd | 168 | 2:10! | 168a1,* | p>7",
            "1,1,1 | y_odd | 7 | 0:1,7:1 | z1 | p>5",
            "1,1,1 | y_odd | 7 | 1:1,7:1 | z1 | p>5",
            "1,1,1 | y_odd | 7 | 4:1,7:1 | z1 | p>5",
            "1,1,1 | y_odd | 7 | -3:1,7:1 | z1 | p>5",
            "1,1,1 | y_odd | 7 | 3317044064679887385961981:1,7:1 | z1 | p>5",  # psi_13
        ],
    )
    def test_parse_errors(self, line):
        with pytest.raises(ScenarioFormatError):
            parse_scenario_line(line)

    def test_synthetic_identical_candidate_gives_density_zero(self, tmp_path):
        # a candidate matching the Frey profile at every prime can never be
        # eliminated: no solvability constraint is violated
        overrides = tmp_path / "curves.txt"
        overrides.write_text("77z1 | 77 | 1 | 7:3,11:5 | mult | false | -\n")
        scenario = tmp_path / "scen.txt"
        scenario.write_text("1,1,1 | y_odd | 77 | 7:3,11:5 | 77z1 | p>=5\n")
        db = CurveDatabase(load_overrides(str(overrides)))
        report = run_equation(1, 1, 1, db=db, scenario_path=str(scenario))
        assert report.classes.residues == frozenset()
        assert report.density == 0

    def test_star_takes_every_curve_at_the_level_overrides_included(self, tmp_path):
        db = CurveDatabase({"77z2": parse_override_line("77z2 | 77 | 1 | 7:1,11:1 | mult | false | -")})
        scenario = tmp_path / "scen.txt"
        scenario.write_text("1,1,1 | y_odd | 77 | 7:3,11:5 | * | p>=5\n")
        (scen,) = scenarios(1, 1, 1, db=db, scenario_path=str(scenario))
        assert scen.candidates == ("77z2",)
        assert parse_scenario_line("1,1,1 | y_odd | 77 | 7:3 | * | p>=5").candidates == ()
        extra = parse_override_line("168z1 | 168 | 1 | 2:4,3:1,7:1 | addpg | true | -")
        y_odd = scenarios(3, 8, 21, db=CurveDatabase({"168z1": extra}))[0]
        assert y_odd.candidates == ("168a1", "168b1", "168z1")

    @pytest.mark.parametrize("order", [1, -1], ids=["lenient_first", "strict_first"])
    def test_report_takes_the_strictest_floor_in_either_line_order(self, tmp_path, order):
        overrides = tmp_path / "curves.txt"
        overrides.write_text("77z1 | 77 | 1 | 7:3,11:5 | mult | false | -\n")
        lines = [
            "1,1,1 | y_odd | 77 | 7:3,11:5 | 77z1 | p>=5",
            "1,1,1 | y_even | 77 | 7:3,11:5 | 77z1 | p>1000",
        ]
        scenario = tmp_path / "scen.txt"
        scenario.write_text("\n".join(lines[::order]) + "\n")
        db = CurveDatabase(load_overrides(str(overrides)))
        report = run_equation(1, 1, 1, db=db, scenario_path=str(scenario))
        assert [s.scenario.exponent_floor for s in report.scenarios] == [
            ExponentFloor(False, 5), ExponentFloor(True, 1000)
        ][::order]
        assert report.exponent_floor == ExponentFloor(True, 1000)

    def test_embedded_equation_still_works_with_scenario_file(self, tmp_path):
        scenario = tmp_path / "scen.txt"
        scenario.write_text("# nothing relevant\n")
        report = run_equation(3, 4, 5, scenario_path=str(scenario))
        assert report.density == Fraction(3, 8)

    def test_scenario_with_unknown_candidate_label(self, tmp_path):
        from fermatsym.curvedb import UnknownLabelError

        scenario = tmp_path / "scen.txt"
        scenario.write_text("1,1,1 | y_odd | 7 | 3:1,7:1 | zzz9 | p>=5\n")
        with pytest.raises(UnknownLabelError):
            run_equation(1, 1, 1, scenario_path=str(scenario))
