"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
summary lines immediately).
"""

import time
from fractions import Fraction

from fermatsym.curvedb import CurveDatabase, verify
from fermatsym.ecmodel import (
    DegenerateModelError,
    WeierstrassModel,
    invariants,
    minimal_model,
)
from fermatsym.freypipe import run_case, run_equation, scenarios
from fermatsym.localobs import (
    has_local_obstruction,
    solvable_mod_q_fast,
    solvable_over_Ql,
    sweep,
)
from fermatsym.ntkernel import is_prime, jacobi, primes_in
from fermatsym.qrsolver import decompose, parse
from fermatsym.symplectic import QRConstraint, SymplecticType

from helpers import decisive_kernels, labels, verified
from test_ecmodel import inverse_transform
from test_localobs import projective_points_exist


def report(criterion, text):
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


def test_criterion_1_eq1_congruence_classes():
    started = time.monotonic()
    result = run_equation(3, 8, 21)
    elapsed = time.monotonic() - started
    assert (result.classes.modulus, result.classes.residues) == (24, frozenset({5, 13, 23}))
    assert decompose(result.classes) == [(5, 8), (23, 24)]
    assert result.density == Fraction(3, 8)
    assert str(result.exponent_floor) == "p > 7"
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    report(1, "3x^p+8y^p+21z^p: p ≡ 5 (mod 8) or p ≡ 23 (mod 24), density 3/8")


def test_criterion_2_eq2_congruence_classes():
    started = time.monotonic()
    result = run_equation(3, 4, 5)
    elapsed = time.monotonic() - started
    assert (result.classes.modulus, result.classes.residues) == (24, frozenset({5, 13, 19}))
    assert decompose(result.classes) == [(5, 8), (19, 24)]
    assert result.density == Fraction(3, 8)
    assert str(result.exponent_floor) == "p ≥ 5"
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    report(2, "3x^p+4y^p+5z^p: p ≡ 5 (mod 8) or p ≡ 19 (mod 24), density 3/8")


def test_criterion_3_subcase_ledger():
    db = CurveDatabase()
    y_odd_1 = scenarios(3, 8, 21, db=db)[0]
    cases = {label: run_case(y_odd_1, db.get(label)) for label in ("168a1", "168b1")}

    # four sub-cases, symplectic in all four
    verdicts = [sub.symplectic for case in cases.values() for sub in case.subcases]
    assert verdicts == [SymplecticType.SYMPLECTIC] * 4

    # constraint kernels per sub-case: (2/p)=1 under both (2/p)=-1 branches,
    # then (-1/p)=1 and (-3/p)=1 under the (2/p)=+1 branches
    def kernels(case, branch):
        sub = next(s for s in case.subcases if s.legendre_2_p == branch)
        return decisive_kernels(sub)

    assert kernels(cases["168a1"], -1) == [QRConstraint(2, 1)]
    assert kernels(cases["168b1"], -1) == [QRConstraint(2, 1)]
    assert kernels(cases["168a1"], 1) == [QRConstraint(-1, 1)]
    assert kernels(cases["168b1"], 1) == [QRConstraint(-3, 1)]

    # for (3,4,5) y_odd: anti-symplectic for 120a1 under (2/p) = -1
    y_odd_2 = scenarios(3, 4, 5, db=db)[0]
    case_120a1 = run_case(y_odd_2, db.get("120a1"))
    minus = next(s for s in case_120a1.subcases if s.legendre_2_p == -1)
    assert minus.symplectic is SymplecticType.ANTI_SYMPLECTIC
    report(3, "sub-case verdicts and constraint kernels match the four-case analysis")


def test_criterion_4_local_obstruction_claims():
    started = time.monotonic()

    assert solvable_over_Ql(3, 8, 21, 3, 3).status == "unsolvable"
    assert solvable_over_Ql(3, 8, 21, 3, 7).status == "unsolvable"

    for p in (5, 7):
        res = has_local_obstruction(3, 8, 21, p)
        assert res.obstruction is None and res.certified, (p, res)

    res = has_local_obstruction(3, 4, 5, 3)
    assert res.obstruction is None and res.certified

    assert has_local_obstruction(3, 4, 5, 5).obstruction == 11
    res7 = has_local_obstruction(3, 4, 5, 7)
    assert res7.obstruction == 29
    assert not solvable_mod_q_fast(3, 4, 5, 7, 43)

    elapsed = time.monotonic() - started
    assert elapsed < 120, f"took {elapsed:.1f}s"
    report(4, f"small-exponent local solvability claims reproduced in {elapsed:.1f}s")


def test_criterion_5_sweep_to_ten_thousand():
    started = time.monotonic()
    for eq in ((3, 8, 21), (3, 4, 5)):
        rows = sweep(*eq, 11, 10**4, k_max=200)
        assert [p for p, _, _ in rows] == primes_in(11, 10**4)
        misses = [p for p, q, _ in rows if q is None]
        assert misses == [], f"{eq}: no obstruction for {misses}"
        for p, q, k in rows:
            assert k is not None and k <= 200 and k % 2 == 0
            if is_prime(2 * p + 1):
                assert q == 2 * p + 1, (eq, p, q, k)
    elapsed = time.monotonic() - started
    assert elapsed < 300, f"took {elapsed:.1f}s"
    report(5, f"both equations, 11 <= p < 10^4: obstruction found for every p ({elapsed:.1f}s)")


def test_criterion_6_oracle_equivalences():
    # jacobi vs brute-force squares for all odd primes < 200
    for m in primes_in(3, 200):
        squares = {x * x % m for x in range(1, m)} - {0}
        for n in range(1, m):
            assert jacobi(n, m) == (1 if n in squares else -1)

    # subgroup test vs full projective enumeration
    disagreements = 0
    checked = 0
    for a, b, c in ((3, 8, 21), (3, 4, 5)):
        for p in (3, 5, 7, 11, 13):
            for q in primes_in(3, 201):
                if q % p != 1 or (p * a * b * c) % q == 0:
                    continue
                checked += 1
                if solvable_mod_q_fast(a, b, c, p, q) != projective_points_exist(a, b, c, p, q):
                    disagreements += 1
    assert checked > 0
    assert disagreements == 0
    report(6, f"jacobi and F_q-solvability agree with brute force ({checked} F_q cases)")


def test_criterion_7_formulary_identities():
    import random

    rng = random.Random(883)
    violations = 0
    count = 0
    while count < 1000:
        m = WeierstrassModel(*(rng.randint(-15, 15) for _ in range(5)))
        try:
            iv = invariants(m)
        except DegenerateModelError:
            continue
        count += 1
        if iv.c4**3 - iv.c6**2 != 1728 * iv.delta:
            violations += 1
        if count % 10 == 0:  # idempotence and scaling round-trip on a sample
            mm, vals = minimal_model(m)
            mm2, vals2 = minimal_model(mm)
            if (mm2, vals2) != (mm, vals):
                violations += 1
            ell = rng.choice([2, 3])
            back, back_vals = minimal_model(inverse_transform(mm, ell, 0, 0, 0))
            if (back, back_vals) != (mm, vals):
                violations += 1
    assert violations == 0
    report(7, "c4^3 - c6^2 = 1728*delta and minimal-model round-trips on 1000 models")


def test_criterion_8_curve_database_verification():
    db = CurveDatabase()
    for label in labels(db):
        rec = db.get(label)
        assert rec.model is not None
        rep = verify(rec)
        assert verified(rep), (label, rep.mismatches)

    # the 30a1 record carries v5 = 1, as its minimal model demands
    assert db.get("30a1").disc_valuations[5] == 1

    # and the y-even elimination derived from the database comes out
    # verbatim as (-2)=-1 | (3)=-1
    y_even = scenarios(3, 4, 5, db=db)[1]
    case = run_case(y_even, db.get("30a1"))
    assert case.elimination == parse("(-2)=-1 | (3)=-1")
    report(8, "all six records verify; 30a1 has v5 = 1 and yields (-2)=-1 | (3)=-1")
