import argparse
import hashlib
import io
import itertools
import json
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermatsym import FermatsymError, cli, curvedb, ecmodel, freypipe, localobs, ntkernel, qrsolver, symplectic
from fermatsym.localobs import KMAX_BOUND, Witness, check_witness
from fermatsym.qrsolver import NESTING_BOUND


@pytest.fixture(scope="module")
def schema():
    text = resources.files("fermatsym").joinpath("schema/report.schema.json").read_text()
    return json.loads(text)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, schema, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    doc = json.loads(out)
    jsonschema.validate(doc, schema)
    return code, doc, err


def strip_elapsed(doc):
    if isinstance(doc, dict):
        return {k: strip_elapsed(v) for k, v in doc.items() if k != "elapsed_ms"}
    if isinstance(doc, list):
        return [strip_elapsed(x) for x in doc]
    return doc


class TestAnalyze:
    def test_text_output_eq1(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--eq", "3,8,21")
        assert code == 0
        assert "p ≡ 5 (mod 8) or p ≡ 23 (mod 24)" in out
        assert "density 3/8" in out
        assert "p > 7" in out

    def test_json_eq2(self, capsys, schema):
        code, doc, _ = run_json(capsys, schema, "analyze", "--eq", "3,4,5")
        assert code == 0
        assert doc["classes"] == {
            "modulus": 24,
            "residues": [5, 13, 19],
            "density_num": 3,
            "density_den": 8,
        }
        assert doc["density"] == "3/8"
        assert doc["congruences"] == "p ≡ 5 (mod 8) or p ≡ 19 (mod 24)"

    def test_unknown_equation_exit_2_with_hint(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "--eq", "1,1,1")
        assert code == 2
        assert "scenario file" in err

    def test_bad_equation_syntax(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--eq", "3,4")
        assert code == 2
        assert "error" in err

    def test_deterministic_json(self, capsys):
        _, out1, _ = run_cli(capsys, "analyze", "--eq", "3,8,21", "--json")
        _, out2, _ = run_cli(capsys, "analyze", "--eq", "3,8,21", "--json")
        assert out1 == out2


class TestLocal:
    def test_unsolvable(self, capsys, schema):
        code, doc, _ = run_json(capsys, schema, "local", "--eq", "3,4,5", "--p", "5", "--ell", "11")
        assert code == 0
        assert doc["status"] == "unsolvable"
        assert doc["witness"] is None

    def test_solvable_with_witness(self, capsys, schema):
        code, doc, _ = run_json(capsys, schema, "local", "--eq", "3,4,5", "--p", "3", "--ell", "3")
        assert code == 0
        assert doc["status"] == "solvable"
        assert doc["witness"]["level"] >= 1

    @pytest.mark.parametrize(
        "eq, p", [("1,1,1", "449"), ("1,1,1", "1009"), ("1,1,1", "100003"), ("1,202,202", "101")]
    )
    def test_ell_equal_p_decided_at_once(self, capsys, schema, eq, p):
        # (1 : -1 : 0) and (0 : 1 : -1) are rational points; the certificate
        # sits at level 3 or 5 mod p^level, past what an image of p-th powers
        # could hold
        started = time.perf_counter()
        code, doc, _ = run_json(capsys, schema, "local", "--eq", eq, "--p", p, "--ell", p)
        assert time.perf_counter() - started < 1
        assert code == 0
        assert doc["status"] == "solvable"
        w = doc["witness"]
        witness = Witness(tuple(w["triple"]), w["level"], w["coordinate"], w["derivative_valuation"])
        assert check_witness(*map(int, eq.split(",")), int(p), int(p), witness)

    def test_ell_equal_p_unsolvable_at_once(self, capsys, schema):
        # rule 3 tests all p - 1 units t^p mod p^2, and none gives a point
        started = time.perf_counter()
        code, doc, _ = run_json(capsys, schema, "local", "--eq", "3,4,5", "--p", "100003", "--ell", "100003")
        assert time.perf_counter() - started < 1
        assert code == 0
        assert doc == {
            "command": "local", "ell": 100003, "equation": [3, 4, 5], "method": "hensel_descent",
            "p": 100003, "status": "unsolvable", "witness": None,
        }

    def test_good_prime_keeps_the_first_point_of_the_walk(self, capsys, schema):
        # k = 199 032 p-th powers, and the walk's first point comes early
        started = time.perf_counter()
        code, doc, _ = run_json(capsys, schema, "local", "--eq", "3,4,5", "--p", "101", "--ell", "20102233")
        assert time.perf_counter() - started < 1
        assert code == 0
        assert doc["witness"] == {
            "coordinate": 0, "derivative_valuation": 0, "level": 1, "triple": [1, 5229841, 17368361],
        }

    def test_image_bound_exit_1_at_once(self, capsys, schema):
        # at ell = p = 1000003 no pair of 3, 4, 5 has a ratio in P, and the
        # walk over the p - 1 units t^p mod p^2 would pass IMAGE_BOUND
        started = time.perf_counter()
        code, doc, _ = run_json(
            capsys, schema, "local", "--eq", "3,4,5", "--p", "1000003", "--ell", "1000003"
        )
        assert time.perf_counter() - started < 1
        assert code == 1
        assert doc["status"] == "undecided"
        code, doc, _ = run_json(capsys, schema, "obstruct", "--eq", "3,4,5", "--p", "1000003", "--kmax", "2")
        assert time.perf_counter() - started < 1
        assert code == 1
        assert doc["undecided"] == [1000003]

    def test_good_prime_past_the_image_bound_at_once(self, capsys, schema):
        # 600011 = 2 mod 3, so x -> x^3 permutes F_600011* and points exist
        started = time.perf_counter()
        code, doc, _ = run_json(capsys, schema, "local", "--eq", "1,1,2", "--p", "3", "--ell", "600011")
        assert time.perf_counter() - started < 1
        assert code == 0
        assert doc["status"] == "solvable"
        w = doc["witness"]
        witness = Witness(tuple(w["triple"]), w["level"], w["coordinate"], w["derivative_valuation"])
        assert witness.level == 1
        assert check_witness(1, 1, 2, 3, 600011, witness)

    def test_good_prime_walk_past_the_image_bound_exit_1(self, capsys, schema, monkeypatch):
        # ell = 58 p^2 + 1 and no point has a zero coordinate; a chart step
        # hits with chance about 1/p, so the walk takes every step of its
        # budget, here a lowered IMAGE_BOUND, and answers "undecided"
        monkeypatch.setattr("fermatsym.localobs.IMAGE_BOUND", 1000)
        code, doc, _ = run_json(
            capsys, schema, "local", "--eq", "3,4,5", "--p", "10000019", "--ell", "5800022040020939"
        )
        assert code == 1
        assert doc["status"] == "undecided"

    @pytest.mark.parametrize(
        "ell",
        [
            "1000000009",  # 3^2 | ell - 1: roots in mu_k by Adleman-Manders-Miller, not a walk
            "1000000000063",
            "100000000000000000039",  # (ell - 1)/3 has a prime factor past trial division
        ],
    )
    def test_good_prime_one_mod_p_at_once(self, capsys, schema, ell):
        started = time.perf_counter()
        code, doc, _ = run_json(capsys, schema, "local", "--eq", "3,4,5", "--p", "3", "--ell", ell)
        assert time.perf_counter() - started < 1
        assert code == 0
        assert doc["status"] == "solvable"
        w = doc["witness"]
        witness = Witness(tuple(w["triple"]), w["level"], w["coordinate"], w["derivative_valuation"])
        assert witness.level == 1
        assert check_witness(3, 4, 5, 3, int(ell), witness)

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--p", "0"), ("--p", "-3"), ("--p", "2"), ("--p", "9"),
            ("--ell", "-3"), ("--ell", "1"),
        ],
    )
    def test_bad_input_exit_2(self, capsys, flag, value):
        args = {"--p": "3", "--ell": "3", flag: value}
        argv = itertools.chain(*args.items())
        code, _, err = run_cli(capsys, "local", "--eq", "1,1,1", *argv)
        assert code == 2
        assert err.startswith("error: ")

    def test_max_level_is_an_unknown_option(self, capsys):
        # the verdict at a bad prime is exact, so there is no depth to cap
        with pytest.raises(SystemExit) as exc:
            cli.main(["local", "--eq", "1,1,1", "--p", "3", "--ell", "3", "--max-level", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --max-level" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "ell, message",
        [
            # psi_12 = 399165290221 * 798330580441 passes the first 12 witnesses
            ("318665857834031151167461", "is not prime"),
            ("3317044064679887385961981", "proven Miller-Rabin bound"),  # psi_13
        ],
    )
    def test_strong_pseudoprime_ell_exit_2(self, capsys, ell, message):
        code, _, err = run_cli(capsys, "local", "--eq", "1,1,1", "--p", "3", "--ell", ell)
        assert code == 2
        assert message in err


class TestObstruct:
    def test_found(self, capsys, schema):
        code, doc, _ = run_json(capsys, schema, "obstruct", "--eq", "3,4,5", "--p", "5")
        assert code == 0
        assert doc["obstruction"] == 11
        assert doc["method"] == "fast_subgroup"

    def test_certified_none(self, capsys, schema):
        code, doc, _ = run_json(capsys, schema, "obstruct", "--eq", "3,8,21", "--p", "7")
        assert code == 0
        assert doc["obstruction"] is None
        assert doc["certified"] is True
        assert doc["cutoff"] == 900

    def test_uncertified_exit_1(self, capsys, schema):
        # tiny k_max cannot certify for p = 11 (cutoff is 8100)
        code, doc, _ = run_json(
            capsys, schema, "obstruct", "--eq", "1,1,1", "--p", "11", "--kmax", "2"
        )
        assert code == 1
        assert doc["obstruction"] is None
        assert doc["certified"] is False

    def test_unfactorable_coefficients_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "obstruct", "--eq", "999999937,999999929,1", "--p", "3")
        assert code == 2
        assert "trial-division bound" in err

    @pytest.mark.parametrize("eq, obstruction", [("3,4,5", 607), ("3,8,21", 101)])
    def test_large_exponent_at_once(self, capsys, schema, eq, obstruction):
        started = time.perf_counter()
        code, doc, _ = run_json(capsys, schema, "obstruct", "--eq", eq, "--p", "101")
        assert time.perf_counter() - started < 1
        assert code == 0
        assert doc["obstruction"] == obstruction

    def test_large_k_max_at_once(self, capsys, schema):
        # (1 : -1 : 0) is a point mod every q, so the scan runs to k_max = 20000
        started = time.perf_counter()
        code, doc, _ = run_json(capsys, schema, "obstruct", "--eq", "1,1,1", "--p", "101", "--kmax", "20000")
        assert time.perf_counter() - started < 1
        assert code == 1
        assert strip_elapsed(doc) == {
            "command": "obstruct", "equation": [1, 1, 1], "p": 101, "obstruction": None,
            "method": None, "k": None, "certified": False, "cutoff": 98010000, "undecided": [],
        }

    def test_k_max_past_the_bound_exit_2_at_once(self, capsys):
        started = time.perf_counter()
        code, _, err = run_cli(capsys, "obstruct", "--eq", "1,1,1", "--p", "10007", "--kmax", "100000000")
        assert time.perf_counter() - started < 1
        assert code == 2
        assert "KMAX_BOUND" in err

    @pytest.mark.parametrize("flag, value", [("--p", "-3"), ("--p", "9"), ("--kmax", "1")])
    def test_bad_input_exit_2(self, capsys, flag, value):
        args = {"--p": "5", flag: value}
        argv = itertools.chain(*args.items())
        code, _, err = run_cli(capsys, "obstruct", "--eq", "3,4,5", *argv)
        assert code == 2
        assert err.startswith("error: ")

    def test_deterministic_modulo_elapsed(self, capsys, schema):
        _, doc1, _ = run_json(capsys, schema, "obstruct", "--eq", "3,4,5", "--p", "5")
        _, doc2, _ = run_json(capsys, schema, "obstruct", "--eq", "3,4,5", "--p", "5")
        assert strip_elapsed(doc1) == strip_elapsed(doc2)


class TestSweep:
    def test_table_and_json(self, capsys, schema):
        code, out, _ = run_cli(capsys, "sweep", "--eq", "3,4,5", "--pmin", "11", "--pmax", "40")
        assert code == 0
        assert "23" in out  # p=11 -> q=23
        code, doc, _ = run_json(
            capsys, schema, "sweep", "--eq", "3,4,5", "--pmin", "11", "--pmax", "40"
        )
        assert code == 0
        assert [e["p"] for e in doc["entries"]] == [11, 13, 17, 19, 23, 29, 31, 37]
        assert all(e["obstruction"] is not None for e in doc["entries"])

    def test_deterministic_modulo_elapsed(self, capsys, schema):
        _, doc1, _ = run_json(capsys, schema, "sweep", "--eq", "3,8,21", "--pmin", "11", "--pmax", "60")
        _, doc2, _ = run_json(capsys, schema, "sweep", "--eq", "3,8,21", "--pmin", "11", "--pmax", "60")
        assert strip_elapsed(doc1) == strip_elapsed(doc2)

    def test_jobs_1_prints_the_same_bytes(self, capsys):
        argv = ("sweep", "--eq", "3,4,5", "--pmin", "11", "--pmax", "60", "--json")
        plain = run_cli(capsys, *argv)
        jobs_1 = run_cli(capsys, *argv, "--jobs", "1")
        elapsed = re.compile(r'"elapsed_ms": \d+')
        assert elapsed.search(plain[1])
        assert (jobs_1[0], elapsed.sub("", jobs_1[1])) == (plain[0], elapsed.sub("", plain[1]))

    @pytest.mark.parametrize(
        "eq, digest",
        [
            ("3,4,5", "396d540ec32da0f5499c49c8b9464bee728b535db48fb0d2f39466e20b46fa23"),
            ("3,8,21", "ed2391176f8ca4bedcd22db14506c31b29488b09aac5a9f234c4cdcf4a71f06a"),
        ],
        ids=["3,4,5", "3,8,21"],
    )
    def test_json_bytes_are_pinned(self, capsys, eq, digest):
        # every (p, q, k) of a 2 000-exponent window; a change to any entry fails here
        self.assert_json_digest(capsys, eq, "11", "20000", digest)

    @pytest.mark.parametrize(
        "eq, digest",
        [
            ("3,4,5", "d7011bd36725958fd7fe113e5b21c790dc9ea7bf263c42c8011265ba275d8d53"),
            ("3,8,21", "849e2acf33d520c5af7bdf62804a841c990d2156fed9d7adc339e05d884f6ae3"),
        ],
        ids=["3,4,5", "3,8,21"],
    )
    def test_json_bytes_are_pinned_past_q_of_a_million(self, capsys, eq, digest):
        # the 168 exponents of [99 000, 101 000), where each q = kp + 1 with
        # k >= 12 passes 10^6 and is proved prime by Pocklington's test
        self.assert_json_digest(capsys, eq, "99000", "101000", digest)

    @staticmethod
    def assert_json_digest(capsys, eq, pmin, pmax, digest):
        code, out, _ = run_cli(capsys, "sweep", "--eq=" + eq, "--pmin", pmin, "--pmax", pmax, "--json")
        assert code == 0
        masked = re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', out)
        assert hashlib.sha256(masked.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--jobs", "0"), ("--jobs", "-1"), ("--jobs", "2"),
            ("--kmax", "1"), ("--kmax", str(KMAX_BOUND + 1)), ("--pmin", "41"), ("--pmax", "10"),
        ],
    )
    def test_bad_input_exit_2(self, capsys, flag, value):
        code, _, err = run_cli(
            capsys, "sweep", "--eq", "3,4,5", "--pmin", "11", "--pmax", "40", flag, value
        )
        assert code == 2
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "pmin, pmax", [("11", str(10**12)), (str(10**20), str(10**20 + 10))]
    )
    def test_window_past_the_bound_exit_2_at_once(self, capsys, pmin, pmax):
        started = time.perf_counter()
        code, _, err = run_cli(capsys, "sweep", "--eq", "3,4,5", "--pmin", pmin, "--pmax", pmax)
        assert time.perf_counter() - started < 1
        assert code == 2
        assert "SWEEP_BOUND" in err


class TestDensity:
    def test_example(self, capsys, schema):
        code, doc, _ = run_json(capsys, schema, "density", "(-2)=-1 & (2)=-1")
        assert code == 0
        assert doc["congruences"] == "p ≡ 5 (mod 8)"
        assert doc["density"] == "1/4"

    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "density", "(-2)=-1 & (2)=-1")
        assert code == 0
        assert "p ≡ 5 (mod 8); density 1/4" in out

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "density", "(2)=")
        assert code == 2
        assert "column 5" in err

    @pytest.mark.parametrize(
        "text, column",
        [("(²)=1", 2), ("(3)=1 & (⁵)=-1", 10), (" (" + "7" * 5000 + ")=1", 3)],
        ids=["superscript", "superscript_after_an_atom", "past_int_digit_limit"],
    )
    def test_bad_literal_exit_2(self, capsys, text, column):
        # digits that int() refuses, by kind or by count, are a parse error
        code, out, err = run_cli(capsys, "density", text)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and f"column {column}" in err

    def test_decimal_digits_of_other_scripts(self, capsys):
        assert run_cli(capsys, "density", "(١٣)=-1") == run_cli(capsys, "density", "(13)=-1")

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.sampled_from([*"()!&|=+- 0123456789²⁵١٣", "7" * 5000, "1" + "0" * 4300]), max_size=12
        ).map("".join)
    )
    def test_any_text_answers_or_exits_2(self, text):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(["density", text])
        assert code in (0, 2), text
        assert "Traceback" not in err.getvalue()

    def test_five_odd_primes(self, capsys, schema):
        code, doc, _ = run_json(capsys, schema, "density", "(3)=-1 & (5)=1 & (7)=-1 & (11)=1 & (13)=-1")
        assert code == 0
        assert doc["density"] == "1/32"
        assert doc["classes"]["modulus"] == 4 * 3 * 5 * 7 * 11 * 13  # no (2/p): the 2-part is 4

    @pytest.mark.parametrize(
        "json_flag, digest",
        [
            ((), "069d3860dc6033426b44218eb7469cb744970ea7233d2f1fe59d3b8ac9b84995"),
            (("--json",), "3ff295c57bde48a12e0f2a63e8532e52ba19d76c85d772c8d25cee485a7debd1"),
        ],
        ids=["text", "json"],
    )
    def test_170170_bytes_are_pinned(self, capsys, json_flag, digest):
        # 92 160 classes mod 8 * 5 * 7 * 11 * 13 * 17; a change to any fails here
        code, out, _ = run_cli(capsys, "density", "(170170)=1", *json_flag)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_170170_answers_in_time(self, capsys):
        started = time.perf_counter()
        code, _, _ = run_cli(capsys, "density", "(170170)=1", "--json")
        assert time.perf_counter() - started < 1.5
        assert code == 0

    def test_modulus_past_the_bound_exit_2(self, capsys):
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "density", "(10007)=1 & (10009)=1")
        assert time.perf_counter() - started < 1
        assert code == 2
        assert out == ""
        assert "exceeds the bound" in err

    def test_constant_expression_on_a_large_prime(self, capsys):
        code, out, _ = run_cli(capsys, "density", "(1000003)=1 | (1000003)=-1")
        assert code == 0
        assert "all p; density 1/1" in out

    def test_unfactorable_kernel_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "density", "(1000000000000000003)=1")
        assert code == 2
        assert "trial-division bound" in err

    @pytest.mark.parametrize("open_, close", [("(", ")"), ("!", "")])
    def test_nesting_past_the_bound_exit_2_at_once(self, capsys, open_, close):
        # one level past NESTING_BOUND fails at its '(' or '!'; the bound parses
        deep = NESTING_BOUND + 1
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "density", open_ * deep + "(3)=1" + close * deep)
        assert time.perf_counter() - started < 1
        assert code == 2
        assert out == ""
        assert f"NESTING_BOUND = {NESTING_BOUND}" in err and f"column {deep}" in err
        assert "Traceback" not in err
        code, out, _ = run_cli(capsys, "density", open_ * NESTING_BOUND + "(3)=1" + close * NESTING_BOUND)
        assert code == 0
        assert "density 1/2" in out


class TestCurve:
    def test_120b1(self, capsys, schema):
        code, doc, _ = run_json(capsys, schema, "curve", "120b1")
        assert code == 0
        assert doc["disc_valuations"] == {"2": 8, "3": 1, "5": 1}
        assert doc["disc_sign"] == -1
        assert doc["verification"]["status"] == "verified"

    def test_unknown_label_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "curve", "nosuch")
        assert code == 2
        assert "unknown label" in err or "unknown curve label" in err

    def test_all_embedded_labels(self, capsys, schema):
        for label in ("30a1", "42a1", "120a1", "120b1", "168a1", "168b1"):
            code, doc, _ = run_json(capsys, schema, "curve", label)
            assert code == 0
            assert doc["verification"]["status"] == "verified"


class TestOverridesPlumbing:
    def test_override_flag(self, capsys, schema, tmp_path):
        path = tmp_path / "curves.txt"
        path.write_text("99z1 | 99 | -1 | 3:2,11:1 | mult | false | -\n")
        code, doc, _ = run_json(capsys, schema, "curve", "99z1", "--overrides", str(path))
        assert code == 0
        assert doc["verification"]["status"] == "unverifiable"

    def test_override_env_has_no_effect(self, capsys, tmp_path, monkeypatch):
        # only --overrides names an override file: the environment does not
        path = tmp_path / "curves.txt"
        path.write_text("99z2 | 99 | 1 | 3:1,11:1 | mult | false | -\n")
        monkeypatch.setenv("FERMATSYM_OVERRIDES", str(path))
        code, out, err = run_cli(capsys, "curve", "99z2")
        assert (code, out) == (2, "")
        assert "99z2" in err

    @pytest.mark.parametrize(
        "line, message",
        [
            ("x0 | 0 | 1 | 3:2 | mult | false | [0,0,0,0,1]", "conductor must be at least 1"),
            ("x1 | 11 | 1 | 11:1 | mult | false | [0,0,0,0,0]", "model [0,0,0,0,0] has discriminant 0"),
            ("e1 | 1 | 1 |  | good | false | -", "no valuations"),
        ],
        ids=["conductor_0", "singular_model", "no_valuations"],
    )
    def test_refused_record_exit_2(self, capsys, tmp_path, line, message):
        path = tmp_path / "curves.txt"
        path.write_text(line + "\n")
        code, out, err = run_cli(capsys, "curve", line.split()[0], "--overrides", str(path))
        assert code == 2
        assert out == ""
        assert f"{path}:1: {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("ell", ["0", "1", "4", "-3"])
    def test_non_prime_ell_exit_2(self, capsys, tmp_path, ell):
        curves = tmp_path / "curves.txt"
        curves.write_text(f"z1 | 7 | 1 | {ell}:1,7:1 | mult | false | -\n")
        scenario = tmp_path / "scen.txt"
        scenario.write_text(f"1,1,1 | y_odd | 7 | {ell}:1,7:1 | z1 | p>5\n")
        for argv, path in (
            (("curve", "z1", "--overrides", str(curves)), curves),
            (("analyze", "--eq", "1,1,1", "--scenarios", str(scenario)), scenario),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2
            assert out == ""
            assert f"{path}:1: bad " in err and f"{ell} is not prime" in err
            assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("local", "--eq", "3,4,5", "--p", "5", "--ell", "11"),
            ("obstruct", "--eq", "3,4,5", "--p", "5"),
            ("sweep", "--eq", "3,4,5", "--pmin", "11", "--pmax", "40"),
            ("density", "(2)=1"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_overrides_only_where_curves_are_read(self, capsys, tmp_path, argv):
        path = tmp_path / "curves.txt"
        path.write_text("99z1 | 99 | -1 | 3:2,11:1 | mult | false | -\n")
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--overrides", str(path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --overrides" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, mismatch",
        [
            (
                "168a1 | 168 | 1 | 2:5,3:1,7:1 | addpg | true | [0,1,0,-7,-10]",
                "disc valuations: model gives {2: 4, 3: 1, 7: 1}, record claims {2: 5, 3: 1, 7: 1}",
            ),
            (
                "77z2 | 77 | 1 | 7:3,11:5 | mult | false | [1,1,1,-4,5]",
                "disc valuations: model gives {2: 8, 3: 2, 7: 1}, record claims {7: 3, 11: 5}",
            ),
        ],
        ids=["candidate", "no_candidate"],
    )
    def test_analyze_refuses_a_record_that_curve_calls_a_mismatch(self, capsys, tmp_path, line, mismatch):
        # 168a1 is a candidate at level 168 of 3,8,21; 77z2 is at no level of it
        path = tmp_path / "curves.txt"
        path.write_text(line + "\n")
        label = line.split()[0]
        code, out, _ = run_cli(capsys, "curve", label, "--overrides", str(path))
        assert code == 2
        assert "verification: mismatch" in out and mismatch in out
        code, out, err = run_cli(capsys, "analyze", "--eq", "3,8,21", "--overrides", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: override {label}: ") and mismatch in err
        assert "Traceback" not in err

    def test_missing_override_file_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "curve", "168a1", "--overrides", "/nonexistent/zzz")
        assert code == 2

    @pytest.mark.parametrize(
        "argv, flag", [(("curve", "168a1"), "--overrides"), (("analyze", "--eq", "3,4,5"), "--scenarios")]
    )
    def test_file_not_utf8_exit_2(self, capsys, tmp_path, argv, flag):
        path = tmp_path / "data.txt"
        path.write_bytes(b"\xff99z1 | 99 | -1 | 3:2,11:1 | mult | false | -\n")
        code, out, err = run_cli(capsys, *argv, flag, str(path))
        assert code == 2
        assert out == ""
        assert f"{path}: not UTF-8 text" in err
        assert "Traceback" not in err


class TestErrorMapping:
    # main reports these ten and OSError as usage or data errors (exit 2)
    EXIT_2 = (
        curvedb.UnknownLabelError,
        curvedb.UnknownLevelError,
        curvedb.OverrideFormatError,
        localobs.PreconditionError,
        ntkernel.FactorizationError,
        qrsolver.ClassBoundError,
        freypipe.UnknownEquationError,
        freypipe.ScenarioFormatError,
        freypipe.IncompatibleCandidateError,
        symplectic.CriterionError,
    )
    # faults of the program, which must not pass for bad input
    RAISED = (
        ecmodel.DegenerateModelError,
        ecmodel.NonIntegralTransformError,
        localobs._WalkBudgetError,
    )

    def test_the_ten_are_the_fermatsym_errors(self):
        assert set(FermatsymError.__subclasses__()) == set(self.EXIT_2)
        assert not any(issubclass(e, FermatsymError) for e in (*self.RAISED, qrsolver.ParseError, cli.CliError))
        for error in (curvedb.UnknownLabelError, curvedb.UnknownLevelError):
            assert issubclass(error, KeyError)
        for error in (curvedb.OverrideFormatError, freypipe.ScenarioFormatError):
            assert issubclass(error, ValueError)

    @pytest.mark.parametrize("error", [*EXIT_2, FileNotFoundError])
    def test_exit_2(self, capsys, monkeypatch, error):
        def fail(args):
            raise error("the message")

        monkeypatch.setattr(cli, "cmd_density", fail)
        assert run_cli(capsys, "density", "(2)=1") == (2, "", "error: the message\n")

    @pytest.mark.parametrize("error", RAISED)
    def test_internal_faults_are_not_exit_2(self, capsys, monkeypatch, error):
        def fail(args):
            raise error("the message")

        monkeypatch.setattr(cli, "cmd_density", fail)
        with pytest.raises(error):
            cli.main(["density", "(2)=1"])


# The full text output of each command.  The text is rendered from the same
# document --json prints, so these pin both the renderers and the facts.
TEXT_PINS = {
    "analyze_3_8_21": (
        ["analyze", "--eq", "3,8,21"], 0,
        """\
equation 3*x^p + 8*y^p + 21*z^p = 0
no nontrivial solutions for p ≡ 5 (mod 8) or p ≡ 23 (mod 24)
density 3/8; valid for p > 7
  case y_odd: level 168
    vs 168a1 [inertia_at_two]: eliminated when (2)=-1 | (2)=+1 & (-1)=-1
      (2/p)=-1: symplectic; pending (-2)=+1 at 3, violated (2)=+1 at 7
      (2/p)=+1: symplectic; pending (-2)=+1 at 3, vacuous (2)=+1 at 7
    vs 168b1 [inertia_at_two]: eliminated when (2)=-1 | (2)=+1 & (-3)=-1
      (2/p)=-1: symplectic; pending (-6)=+1 at 3, violated (2)=+1 at 7
      (2/p)=+1: symplectic; pending (-6)=+1 at 3, vacuous (2)=+1 at 7
  case y_even: level 42
    vs 42a1 [pairwise]: eliminated when (-2)=-1
""",
    ),
    "analyze_3_4_5": (
        ["analyze", "--eq", "3,4,5"], 0,
        """\
equation 3*x^p + 4*y^p + 5*z^p = 0
no nontrivial solutions for p ≡ 5 (mod 8) or p ≡ 19 (mod 24)
density 3/8; valid for p ≥ 5
  case y_odd: level 120
    vs 120a1 [inertia_at_two]: eliminated when (2)=-1
      (2/p)=-1: anti-symplectic; contradiction at 3, vacuous (2)=-1 at 5
      (2/p)=+1: symplectic; vacuous (1)=+1 at 3, vacuous (2)=+1 at 5
    vs 120b1 [inertia_at_two]: eliminated when (2)=-1
      (2/p)=-1: symplectic; violated (2)=+1 at 3, violated (2)=+1 at 5
      (2/p)=+1: symplectic; vacuous (2)=+1 at 3, vacuous (2)=+1 at 5
  case y_even: level 30
    vs 30a1 [pairwise]: eliminated when (-2)=-1 | (3)=-1
""",
    ),
    "local_unsolvable": (
        ["local", "--eq", "3,4,5", "--p", "5", "--ell", "11"], 0,
        "3*x^5 + 4*y^5 + 5*z^5 = 0 over Q_11: unsolvable\n",
    ),
    "local_good_prime_witness": (
        ["local", "--eq", "1,1,2", "--p", "3", "--ell", "7"], 0,
        "1*x^3 + 1*y^3 + 2*z^3 = 0 over Q_7: solvable (witness (6, 1, 0) mod 7^1)\n",
    ),
    "local_bad_prime_witness": (
        ["local", "--eq", "3,4,5", "--p", "3", "--ell", "3"], 0,
        "3*x^3 + 4*y^3 + 5*z^3 = 0 over Q_3: solvable (witness (0, 25, 1) mod 3^3)\n",
    ),
    "obstruct_found": (
        ["obstruct", "--eq", "3,4,5", "--p", "5"], 0,
        "p=5: local obstruction at 11 (fast_subgroup)\n",
    ),
    "obstruct_certified": (
        ["obstruct", "--eq", "3,8,21", "--p", "7"], 0,
        "p=7: no local obstruction (certified; cutoff 900)\n",
    ),
    "obstruct_not_certified_undecided": (
        ["obstruct", "--eq", "3,4,5", "--p", "1000003", "--kmax", "2"], 1,
        "p=1000003: none found up to k_max=2 (not certified); undecided at [1000003]\n",
    ),
    "sweep_misses": (
        ["sweep", "--eq", "1,1,1", "--pmin", "11", "--pmax", "60"], 1,
        "       p          q     k\n"
        + "".join(f"{p:>8}          -     -\n" for p in (11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59))
        + "# 13 primes, 0 with obstructions, none found for "
        "[11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]\n",
    ),
    "sweep_obstructions": (
        ["sweep", "--eq", "3,4,5", "--pmin", "11", "--pmax", "30"], 0,
        """\
       p          q     k
      11         23     2
      13         53     4
      17        103     6
      19        229    12
      23         47     2
      29         59     2
# 6 primes, 6 with obstructions
""",
    ),
    "analyze_nothing_eliminated": (
        ["analyze", "--eq", "1,1,1", "--scenarios", "SCENARIOS", "--overrides", "UNVERIFIABLE"], 0,
        """\
equation 1*x^p + 1*y^p + 1*z^p = 0
no exponent class is eliminated
density 0/1; valid for p ≥ 5
  case y_odd: level 77
    vs 77z1 [pairwise]: eliminated when (1)=-1
""",
    ),
    "density": (["density", "(-2)=-1 & (2)=-1"], 0, "p ≡ 5 (mod 8); density 1/4\n"),
    "density_all_p": (["density", "(2)=1 | (2)=-1"], 0, "all p; density 1/1\n"),
    "density_empty": (["density", "(2)=1 & (2)=-1"], 0, "no classes (empty set); density 0/1\n"),
    "curve_verified": (
        ["curve", "120b1"], 0,
        "120b1: conductor 120, minimal discriminant -2^8 * 3 * 5, model [0,1,0,4,0]; "
        "verification: verified\n",
    ),
    "curve_no_model": (
        ["curve", "42z1", "--overrides", "CURVES"], 0,
        "42z1: conductor 42, minimal discriminant -2^8 * 3^2 * 7, model (none); "
        "verification: unverifiable\n",
    ),
    "curve_mismatches": (
        ["curve", "42z2", "--overrides", "CURVES"], 2,
        "42z2: conductor 42, minimal discriminant 2^8 * 3^2 * 7^2, model [1,1,1,-4,5]; "
        "verification: mismatch\n"
        "  disc sign: model gives -1, record claims 1\n"
        "  disc valuations: model gives {2: 8, 3: 2, 7: 1}, record claims {2: 8, 3: 2, 7: 2}\n",
    ),
}


class TestTextOutput:
    @pytest.mark.parametrize("name", TEXT_PINS)
    def test_full_text_is_pinned(self, capsys, tmp_path, name):
        argv, want_code, want_out = TEXT_PINS[name]
        # analyze refuses CURVES, whose 42z2 is a mismatch; records without a
        # model, as in UNVERIFIABLE, are used unverified
        unverifiable = (
            "42z1 | 42 | -1 | 2:8,3:2,7:1 | mult | false | -\n"
            "77z1 | 77 | 1 | 7:3,11:5 | mult | false | -\n"
        )
        texts = {
            "CURVES": unverifiable + "42z2 | 42 | 1 | 2:8,3:2,7:2 | mult | false | [1,1,1,-4,5]\n",
            "UNVERIFIABLE": unverifiable,
            "SCENARIOS": "1,1,1 | y_odd | 77 | 7:3,11:5 | 77z1 | p>=5\n",
        }
        files = {name: tmp_path / f"{name.lower()}.txt" for name in texts}
        for name, text in texts.items():
            files[name].write_text(text)
        argv = [str(files[arg]) if arg in files else arg for arg in argv]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (want_code, want_out, "")

    @pytest.mark.parametrize(
        "argv", [("analyze", "--eq", "3,8,21"), ("analyze", "--eq", "3,4,5"), ("density", "(-2)=-1 & (5)=1")]
    )
    @pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
    def test_decompose_runs_once(self, capsys, monkeypatch, argv, json_flag):
        # the congruences are worked out once, for the document, and the
        # text is read off it
        calls = []
        decompose = qrsolver.decompose
        monkeypatch.setattr(qrsolver, "decompose", lambda classes: calls.append(classes) or decompose(classes))
        code, _, _ = run_cli(capsys, *argv, *json_flag)
        assert code == 0
        assert len(calls) == 1


# strings with the characters the writer's separators are made of
TEXT = st.lists(st.sampled_from(["\n", '"', "\\", "},", "}", "{", ",", " ", "a", "é", "∞"]), max_size=4).map(
    "".join
)
SCALARS = (
    st.none() | st.booleans() | st.integers() | st.integers(min_value=2**64, max_value=2**200) | TEXT
)
FLAT_DICT_LISTS = st.lists(st.dictionaries(TEXT, SCALARS, min_size=1, max_size=3), min_size=1, max_size=3)
DOCUMENTS = st.recursive(
    SCALARS | FLAT_DICT_LISTS,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(TEXT, children, max_size=3),
    max_leaves=12,
)


def reference_json(document) -> str:
    return json.dumps(document, sort_keys=True, ensure_ascii=False, indent=2)


class TestJsonWriter:
    @given(DOCUMENTS)
    def test_matches_json_dumps_with_indent(self, document):
        assert cli._json(document) == reference_json(document)

    @pytest.mark.parametrize(
        "argv",
        [
            ("analyze", "--eq", "3,8,21"),
            ("local", "--eq", "3,4,5", "--p", "3", "--ell", "3"),
            ("local", "--eq", "3,4,5", "--p", "5", "--ell", "11"),
            ("obstruct", "--eq", "3,4,5", "--p", "1000003", "--kmax", "2"),
            ("sweep", "--eq", "3,4,5", "--pmin", "11", "--pmax", "60"),
            ("density", "(-2)=-1 & (2)=-1"),
            ("curve", "168a1"),
        ],
    )
    def test_every_command_prints_the_json_dumps_bytes(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv, "--json")
        assert code in (0, 1)
        assert out == reference_json(json.loads(out)) + "\n"


class TestSchemaIsDiscriminating:
    def test_rejects_malformed_documents(self, schema):
        for bad in (
            {"command": "bogus"},
            {"command": "density", "expression": "(2)=+1"},  # missing fields
            {
                "command": "curve",
                "label": "x",
                "conductor": 0,  # below minimum
                "disc_sign": 1,
                "disc_valuations": {},
                "reduction": {},
                "inertia_sl2f3_at_2": False,
                "model": None,
                "verification": {"status": "verified", "mismatches": []},
            },
        ):
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate(bad, schema)


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fermatsym.cli", "analyze", "--eq", "3,8,21", "--json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["density"] == "3/8"

    def test_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fermatsym.cli", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        for cmd in ("analyze", "local", "obstruct", "sweep", "density", "curve"):
            assert cmd in proc.stdout


class TestReadme:
    def test_options_named_in_readme_are_the_parser_options(self):
        # every --option the README names is one a subcommand takes, and each
        # one a subcommand takes is documented; pip's flag is the one outside
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", readme)) - {"--no-build-isolation"}
        (subparsers,) = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        taken = {
            option
            for command in subparsers.choices.values()
            for action in command._actions
            for option in action.option_strings
            if option.startswith("--")
        }
        assert named == taken
