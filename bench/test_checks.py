"""Tests of the benchmark's output checks on hand-known cases.

    python3 -m pytest bench/test_checks.py
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import arith  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402

SCHEMA = json.loads((HERE.parent / "src/fermatsym/schema/report.schema.json").read_text())


def test_no_point_over_f11_for_the_quintic():
    # the fifth powers in F_11 are 0 and +-1, and 3X + 4Y + 5Z = 0 (mod 11)
    # has no solution with X, Y, Z in {0, +-1} other than zero
    assert not arith.fq_has_point(3, 4, 5, 5, 11)
    assert not arith.fq_has_point(3, 4, 5, 11, 23)
    assert arith.fq_has_point(3, 4, 5, 5, 31)
    assert arith.fq_has_point(1, 1, -2, 5, 11)  # (1 : 1 : 1)


def test_euler_criterion_and_least_prime():
    assert arith.legendre(2, 7) == 1 and arith.legendre(2, 5) == -1
    assert arith.legendre(-1, 13) == 1 and arith.legendre(-1, 11) == -1
    assert arith.least_prime_in_class(5, 8, 13) == 29
    assert [p for p in arith.primes_below(30) if arith.is_prime(p)] == arith.primes_below(30)


def test_selmer_cubic_is_solvable_at_its_bad_primes():
    # 3x^3 + 4y^3 + 5z^3 = 0 has points over every Q_ell
    for ell in (2, 3, 5):
        assert arith.unsolvable_level(3, 4, 5, 3, ell, max_modulus=5000) is None
    # while 3x^3 + 8y^3 + 21z^3 = 0 has none over Q_3
    assert arith.unsolvable_level(3, 8, 21, 3, 3) is not None


def _density_doc(expression, modulus, residues, density, congruences):
    num, den = density.split("/")
    return {
        "command": "density",
        "expression": expression,
        "normalized": expression,
        "classes": {
            "modulus": modulus, "residues": residues,
            "density_num": int(num), "density_den": int(den),
        },
        "congruences": congruences,
        "density": density,
    }


def test_density_of_minus_two_and_two_non_residues():
    expr = ("and", [("atom", -2, -1), ("atom", 2, -1)])
    assert workloads.render(expr) == "((-2)=-1 & (2)=-1)"
    good = _density_doc(workloads.render(expr), 8, [5], "1/4", "p ≡ 5 (mod 8)")
    assert checks.schema_errors(good, SCHEMA, SCHEMA) == []
    assert checks.check_density(good, expr) == []
    wrong_class = _density_doc(workloads.render(expr), 8, [3], "1/4", "p ≡ 3 (mod 8)")
    assert checks.check_density(wrong_class, expr)
    wrong_text = _density_doc(workloads.render(expr), 8, [5], "1/4", "p ≡ 5 (mod 16)")
    assert checks.check_density(wrong_text, expr)


def test_analyze_against_the_paper():
    doc = {
        "equation": [3, 8, 21],
        "classes": {"modulus": 24, "residues": [5, 13, 23], "density_num": 3, "density_den": 8},
        "congruences": "p ≡ 5 (mod 8) or p ≡ 23 (mod 24)",
        "density": "3/8",
    }
    assert checks.check_analyze(doc, ("analyze", "--eq=3,8,21")) == []
    doc["classes"]["residues"] = [5, 13, 19]
    doc["congruences"] = "p ≡ 5 (mod 8) or p ≡ 19 (mod 24)"
    assert checks.check_analyze(doc, ("analyze", "--eq=3,8,21"))


def test_curve_discriminant_from_the_model():
    doc = {
        "conductor": 42, "disc_sign": -1, "disc_valuations": {"2": 8, "3": 2, "7": 1},
        "model": [1, 1, 1, -4, 5],
        "verification": {"status": "verified", "mismatches": []},
    }
    assert checks.check_curve(doc) == []  # -16128 = -2^8 * 3^2 * 7
    doc["disc_valuations"]["7"] = 2
    assert checks.check_curve(doc)


def _obstruct_doc(eq, p, obstruction, method, k, certified=False):
    return {
        "command": "obstruct", "equation": list(eq), "p": p, "obstruction": obstruction,
        "method": method, "k": k, "certified": certified,
        "cutoff": ((p - 1) * (p - 2)) ** 2, "undecided": [], "elapsed_ms": 0,
    }


def test_obstruct_checks():
    good = _obstruct_doc((3, 4, 5), 5, 11, "fast_subgroup", 2)
    assert checks.schema_errors(good, SCHEMA, SCHEMA) == []
    assert checks.check_obstruct(good, {}) == []
    # 31 has points, and 11 would have come first
    assert checks.check_obstruct(_obstruct_doc((3, 4, 5), 5, 31, "fast_subgroup", 6), {})
    assert checks.check_obstruct(_obstruct_doc((3, 8, 21), 3, 3, "hensel_descent", None), {}) == []
    # Selmer's cubic has 2-adic points
    assert checks.check_obstruct(_obstruct_doc((3, 4, 5), 3, 2, "hensel_descent", None), {})


def test_certified_none_needs_a_witness_at_every_bad_prime():
    doc = _obstruct_doc((3, 4, 5), 3, None, None, None, certified=True)
    assert checks.check_obstruct(doc, {})
    # 3 + 5 = 8: (1, 0, 1) solves 3x^3 + 4y^3 + 5z^3 mod 2, and d/dx = 9x^2 is a 2-adic unit
    witness = {"triple": [1, 0, 1], "level": 1, "coordinate": 0, "derivative_valuation": 0}
    assert arith.witness_holds((3, 4, 5), 3, 2, witness)
    assert not arith.witness_holds((3, 4, 5), 3, 2, dict(witness, derivative_valuation=1))
    assert not arith.witness_holds((3, 4, 5), 3, 2, dict(witness, triple=[1, 1, 1], level=3))


def test_sweep_checks():
    entry = {"p": 11, "obstruction": 23, "k": 2, "method": "fast_subgroup", "elapsed_ms": 0}
    doc = {
        "command": "sweep", "equation": [3, 4, 5], "p_min": 11, "p_max": 12, "k_max": 200,
        "entries": [entry],
    }
    assert checks.schema_errors(doc, SCHEMA, SCHEMA) == []
    assert checks.check_sweep(doc, random.Random(0)) == []
    assert checks.check_sweep(dict(doc, p_max=14), random.Random(0))  # 13 is missing
    doc["entries"] = [dict(entry, obstruction=67, k=6)]
    assert checks.check_sweep(doc, random.Random(0))


def test_schema_keywords():
    doc = _obstruct_doc((3, 4, 5), 5, 11, "fast_subgroup", 2)
    assert checks.schema_errors(dict(doc, extra=1), SCHEMA, SCHEMA)
    assert checks.schema_errors(dict(doc, certified=1), SCHEMA, SCHEMA)
    assert checks.schema_errors(dict(doc, p=True), SCHEMA, SCHEMA)
    del doc["cutoff"]
    assert checks.schema_errors(doc, SCHEMA, SCHEMA)


def test_generated_inputs_depend_only_on_the_seed():
    for make in workloads.WORKLOADS.values():
        assert make(3) == make(3)
        assert make(3) != make(4)
        assert len(make(3)) >= 40
    assert len({len(workloads.obstruct(s)) for s in range(20)}) == 1
