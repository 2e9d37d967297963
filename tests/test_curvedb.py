from dataclasses import replace

import pytest

from fermatsym.curvedb import (
    CurveDatabase,
    CurveRecord,
    OverrideFormatError,
    UnknownLabelError,
    UnknownLevelError,
    load_overrides,
    parse_override_line,
    verify,
)
from fermatsym.ecmodel import ReductionKind, ReductionType, WeierstrassModel

from helpers import labels, verified

_MULT = ReductionType(ReductionKind.MULTIPLICATIVE, potentially_good=False)
_ADD_PG = ReductionType(ReductionKind.ADDITIVE, potentially_good=True)

# The embedded records as Python literals, the form they had before they
# became override lines: a typo in a line must fail here.
REFERENCE = [
    CurveRecord("42a1", 42, -1, {2: 8, 3: 2, 7: 1}, {2: _MULT, 3: _MULT, 7: _MULT}, False,
                WeierstrassModel(1, 1, 1, -4, 5)),
    CurveRecord("30a1", 30, -1, {2: 4, 3: 3, 5: 1}, {2: _MULT, 3: _MULT, 5: _MULT}, False,
                WeierstrassModel(1, 0, 1, 1, 2)),
    CurveRecord("168a1", 168, 1, {2: 4, 3: 1, 7: 1}, {2: _ADD_PG, 3: _MULT, 7: _MULT}, True,
                WeierstrassModel(0, 1, 0, -7, -10)),
    CurveRecord("168b1", 168, -1, {2: 4, 3: 3, 7: 4}, {2: _ADD_PG, 3: _MULT, 7: _MULT}, True,
                WeierstrassModel(0, -1, 0, -7, 52)),
    CurveRecord("120a1", 120, 1, {2: 4, 3: 2, 5: 1}, {2: _ADD_PG, 3: _MULT, 5: _MULT}, True,
                WeierstrassModel(0, 1, 0, -15, 18)),
    CurveRecord("120b1", 120, -1, {2: 8, 3: 1, 5: 1}, {2: _ADD_PG, 3: _MULT, 5: _MULT}, True,
                WeierstrassModel(0, 1, 0, 4, 0)),
]


class TestGet:
    @pytest.mark.parametrize("ref", REFERENCE, ids=lambda r: r.label)
    def test_embedded_record_equals_the_reference(self, ref):
        rec = CurveDatabase().get(ref.label)
        for name in CurveRecord.__dataclass_fields__:
            assert getattr(rec, name) == getattr(ref, name), name

    def test_labels(self):
        assert labels(CurveDatabase()) == sorted(r.label for r in REFERENCE)

    def test_168a1(self):
        rec = CurveDatabase().get("168a1")
        assert rec.disc_sign == 1
        assert rec.disc_valuations == {2: 4, 3: 1, 7: 1}
        assert rec.inertia_sl2f3_at_2

    def test_120a1(self):
        rec = CurveDatabase().get("120a1")
        assert rec.disc_sign == 1
        assert rec.disc_valuations == {2: 4, 3: 2, 5: 1}
        assert rec.inertia_sl2f3_at_2

    def test_120b1(self):
        rec = CurveDatabase().get("120b1")
        assert rec.disc_sign == -1
        assert rec.disc_valuations == {2: 8, 3: 1, 5: 1}

    def test_30a1_has_v5_equal_1(self):
        # v5 = 1, recomputed from the minimal model (not 5^2)
        rec = CurveDatabase().get("30a1")
        assert rec.disc_sign == -1
        assert rec.disc_valuations == {2: 4, 3: 3, 5: 1}
        for ell in (2, 3, 5):
            assert rec.reduction_at[ell].kind is ReductionKind.MULTIPLICATIVE

    def test_42a1_multiplicative_at_2(self):
        rec = CurveDatabase().get("42a1")
        assert rec.reduction_at[2].kind is ReductionKind.MULTIPLICATIVE
        assert rec.disc_valuations == {2: 8, 3: 2, 7: 1}

    def test_unknown_label(self):
        with pytest.raises(UnknownLabelError):
            CurveDatabase().get("nosuch")


class TestCandidatesForLevel:
    def test_embedded_levels(self):
        assert [r.label for r in CurveDatabase().candidates_for_level(42)] == ["42a1"]
        assert [r.label for r in CurveDatabase().candidates_for_level(168)] == ["168a1", "168b1"]
        assert [r.label for r in CurveDatabase().candidates_for_level(30)] == ["30a1"]
        assert [r.label for r in CurveDatabase().candidates_for_level(120)] == ["120a1", "120b1"]

    def test_unknown_level(self):
        with pytest.raises(UnknownLevelError):
            CurveDatabase().candidates_for_level(31)

    def test_override_moves_an_embedded_label_to_its_conductor(self):
        moved = parse_override_line("42a1 | 99 | -1 | 3:2,11:1 | mult | false | -")
        db = CurveDatabase({"42a1": moved})
        assert db.candidates_for_level(99) == [moved]
        with pytest.raises(UnknownLevelError):
            db.candidates_for_level(42)

    def test_override_at_an_embedded_level_comes_last(self):
        extra = parse_override_line("168z1 | 168 | 1 | 2:4,3:1,7:1 | addpg | true | -")
        db = CurveDatabase({"168z1": extra})
        assert [r.label for r in db.candidates_for_level(168)] == ["168a1", "168b1", "168z1"]


class TestVerify:
    def test_every_embedded_record_verifies(self):
        db = CurveDatabase()
        for label in labels(db):
            report = verify(db.get(label))
            assert verified(report), (label, report.mismatches)

    def test_corrupted_valuation_detected(self):
        rec = CurveDatabase().get("168a1")
        bad = replace(rec, disc_valuations={**rec.disc_valuations, 7: 2})
        report = verify(bad)
        assert report.status == "mismatch"
        assert any("7" in m for m in report.mismatches)

    def test_corrupted_sign_detected(self):
        rec = CurveDatabase().get("168a1")
        report = verify(replace(rec, disc_sign=-1))
        assert report.status == "mismatch"
        assert any("sign" in m for m in report.mismatches)

    def test_record_without_model_unverifiable(self):
        rec = replace(CurveDatabase().get("168a1"), model=None)
        report = verify(rec)
        assert report.status == "unverifiable"
        assert not verified(report)

    def test_sl2f3_records_are_additive_potentially_good_at_2(self):
        for label in ("168a1", "168b1", "120a1", "120b1"):
            rec = CurveDatabase().get(label)
            assert rec.inertia_sl2f3_at_2
            red = rec.reduction_at[2]
            assert red.kind is ReductionKind.ADDITIVE
            assert red.potentially_good


class TestOverrides:
    LINE = "99z1 | 99 | -1 | 3:2,11:1 | mult | false | -"

    def test_parse_line_minimal(self):
        rec = parse_override_line(self.LINE)
        assert rec.label == "99z1"
        assert rec.conductor == 99
        assert rec.disc_valuations == {3: 2, 11: 1}
        assert rec.model is None
        assert not rec.inertia_sl2f3_at_2

    def test_parse_line_with_model(self):
        rec = parse_override_line("42x1 | 42 | -1 | 2:8,3:2,7:1 | mult | false | [1,1,1,-4,5]")
        assert rec.model is not None
        assert verified(verify(rec))

    def test_parse_sl2f3_line(self):
        rec = parse_override_line("120x1 | 120 | 1 | 2:4,3:2,5:1 | addpg | true | -")
        assert rec.inertia_sl2f3_at_2
        assert rec.reduction_at[2].kind is ReductionKind.ADDITIVE
        assert rec.reduction_at[2].potentially_good

    def test_load_file_and_lookup(self, tmp_path):
        path = tmp_path / "curves.txt"
        path.write_text("# comment line\n\n" + self.LINE + "\n")
        db = CurveDatabase(load_overrides(str(path)))
        assert db.get("99z1").conductor == 99
        assert [r.label for r in db.candidates_for_level(99)] == ["99z1"]
        # embedded records still present
        assert db.get("168a1").disc_valuations == {2: 4, 3: 1, 7: 1}

    @pytest.mark.parametrize(
        "line",
        [
            "too | few | fields",
            "x | notanint | -1 | 3:2 | mult | false | -",
            "x | 99 | 2 | 3:2 | mult | false | -",
            "x | 99 | -1 | 3:x | mult | false | -",
            "x | 99 | -1 | 3:2 | weird | false | -",
            "x | 99 | -1 | 3:2 | mult | maybe | -",
            "x | 99 | -1 | 3:2 | mult | false | [1,2,3]",
            "x | 99 | -1 | 3:2 | mult | true | -",
            "x | 120 | -1 | 2:8,3:1,5:1 | add | true | -",
            "x0 | 0 | 1 | 3:2 | mult | false | [0,0,0,0,1]",
            "x1 | 11 | 1 | 11:1 | mult | false | [0,0,0,0,0]",
            "z1 | 7 | 1 | 0:1,7:1 | mult | false | -",
            "z1 | 7 | 1 | 1:1,7:1 | mult | false | -",
            "z1 | 7 | 1 | 4:1,7:1 | mult | false | -",
            "z1 | 7 | 1 | -3:1,7:1 | mult | false | -",
            "z1 | 7 | 1 | 3317044064679887385961981:1,7:1 | mult | false | -",  # psi_13
            "e1 | 1 | 1 |  | good | false | -",  # no bad prime
        ],
    )
    def test_format_errors(self, line):
        with pytest.raises(OverrideFormatError):
            parse_override_line(line)

    def test_load_error_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# fine\nbroken line\n")
        with pytest.raises(OverrideFormatError, match="bad.txt:2"):
            load_overrides(str(path))
