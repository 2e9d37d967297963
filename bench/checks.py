"""Checks of fermatsym's JSON documents against independent arithmetic.

Every check recomputes what the document claims with the routines in
arith.py; none compares against a stored copy of an earlier output, and
none calls fermatsym.  Each check returns a list of problems (empty when
the document is right).
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction
from itertools import product
from math import gcd

import arith
import workloads

# The paper's classes of p with no solutions, with density 3/8 each.
PAPER_CLASSES = {
    (3, 8, 21): (24, {5, 13, 23}),  # p = 5 (mod 8) or 23 (mod 24)
    (3, 4, 5): (24, {5, 13, 19}),  # p = 5 (mod 8) or 19 (mod 24)
}
# Sweep entries whose q = kp + 1 is re-derived over F_q in each document.
SWEEP_SAMPLE = 8


# ---------------------------------------------------------------------------
# JSON Schema, for the keywords report.schema.json uses
# ---------------------------------------------------------------------------

_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}
_ANNOTATIONS = {"$schema", "$id", "title", "description"}


def _same(a, b) -> bool:
    # JSON equality: true is not 1
    return a == b and isinstance(a, bool) == isinstance(b, bool)


def schema_errors(value, schema: dict, root: dict, path: str = "$") -> list[str]:
    errors: list[str] = []
    for key, rule in schema.items():
        if key in _ANNOTATIONS or key == "$defs":
            continue
        if key == "$ref":
            if not rule.startswith("#/"):
                raise ValueError(f"unsupported $ref {rule}")
            target = root
            for part in rule[2:].split("/"):
                target = target[part]
            errors += schema_errors(value, target, root, path)
        elif key == "oneOf":
            matches = sum(not schema_errors(value, sub, root, path) for sub in rule)
            if matches != 1:
                errors.append(f"{path}: matches {matches} of oneOf")
        elif key == "type":
            names = [rule] if isinstance(rule, str) else rule
            if not any(_TYPES[n](value) for n in names):
                errors.append(f"{path}: not of type {rule}")
        elif key == "enum":
            if not any(_same(value, e) for e in rule):
                errors.append(f"{path}: {value!r} not in {rule}")
        elif key == "const":
            if not _same(value, rule):
                errors.append(f"{path}: {value!r} is not {rule!r}")
        elif key == "pattern":
            if isinstance(value, str) and not re.search(rule, value):
                errors.append(f"{path}: {value!r} does not match {rule}")
        elif key == "minimum":
            if _TYPES["number"](value) and value < rule:
                errors.append(f"{path}: {value} < {rule}")
        elif key in ("minItems", "maxItems"):
            if isinstance(value, list) and (len(value) < rule if key == "minItems" else len(value) > rule):
                errors.append(f"{path}: length {len(value)} violates {key} {rule}")
        elif key == "items":
            if isinstance(value, list):
                for i, item in enumerate(value):
                    errors += schema_errors(item, rule, root, f"{path}[{i}]")
        elif key == "required":
            if isinstance(value, dict):
                errors += [f"{path}: missing {k}" for k in rule if k not in value]
        elif key == "properties":
            if isinstance(value, dict):
                for k, sub in rule.items():
                    if k in value:
                        errors += schema_errors(value[k], sub, root, f"{path}.{k}")
        elif key == "additionalProperties":
            if isinstance(value, dict):
                extra = [k for k in value if k not in schema.get("properties", {})]
                for k in extra:
                    if rule is False:
                        errors.append(f"{path}: unexpected property {k}")
                    elif rule is not True:
                        errors += schema_errors(value[k], rule, root, f"{path}.{k}")
        else:
            raise ValueError(f"unsupported schema keyword {key}")
    return errors


# ---------------------------------------------------------------------------
# per-command checks
# ---------------------------------------------------------------------------


def _classes_problems(classes: dict, congruences: str, density: str) -> list[str]:
    m, residues = classes["modulus"], classes["residues"]
    out = []
    if residues != sorted(set(residues)):
        out.append("residues not sorted and distinct")
    if m > 1 and any(not 0 < r < m or gcd(r, m) != 1 for r in residues):
        out.append(f"residue out of range or not coprime to {m}")
    phi = arith.euler_phi(m) if m > 1 else 1
    share = Fraction(len(residues), phi)
    if Fraction(classes["density_num"], classes["density_den"]) != share:
        out.append(f"density_num/den differ from {len(residues)}/{phi}")
    if density != f"{share.numerator}/{share.denominator}":
        out.append(f"density {density} differs from {share}")
    if arith.expand_congruences(congruences, m) != set(residues):
        out.append(f"congruences {congruences!r} do not expand to the residues")
    return out


def check_analyze(doc: dict, argv) -> list[str]:
    eq = tuple(doc["equation"])
    if argv[1] != workloads.eq_arg(eq):
        return [f"equation {eq} does not echo {argv[1]}"]
    modulus, residues = PAPER_CLASSES[eq]
    out = _classes_problems(doc["classes"], doc["congruences"], doc["density"])
    if doc["density"] != "3/8":
        out.append(f"density {doc['density']}, the paper has 3/8")
    if doc["classes"]["modulus"] != modulus or set(doc["classes"]["residues"]) != residues:
        out.append(f"classes {doc['classes']} differ from the paper's")
    return out


def check_density(doc: dict, expr) -> list[str]:
    if doc["expression"] != workloads.render(expr):
        return ["expression does not echo the input"]
    classes = doc["classes"]
    out = _classes_problems(classes, doc["congruences"], doc["density"])
    kernels = [n for _, n, _ in workloads.atoms(expr)]
    bad = {2} | {q for n in kernels for q in arith.prime_factors(n)}
    # each coprime class: its least prime beyond the kernels' primes
    m = classes["modulus"]
    residues = set(classes["residues"])
    for r in range(m) if m > 1 else [0]:
        if m > 1 and gcd(r, m) != 1:
            continue
        p = arith.least_prime_in_class(r, m, max(bad))
        holds = workloads.evaluate(expr, lambda n: arith.legendre(n, p))
        if holds != (r in residues):
            out.append(f"class {r} mod {m}: the prime {p} gives {holds}")
            break
    # density from the sign patterns of the independent characters -1, 2, q
    basis = sorted({-1} | {q for n in kernels for q, e in arith.prime_factors(n).items() if e % 2})
    satisfied = 0
    for signs in product((1, -1), repeat=len(basis)):
        value = dict(zip(basis, signs))

        def symbol(n):
            s = value[-1] if n < 0 else 1
            for q, e in arith.prime_factors(n).items():
                if e % 2:
                    s *= value[q]
            return s

        satisfied += workloads.evaluate(expr, symbol)
    share = Fraction(satisfied, 2 ** len(basis))
    if doc["density"] != f"{share.numerator}/{share.denominator}":
        out.append(f"density {doc['density']}, the sign patterns give {share}")
    return out


def check_curve(doc: dict) -> list[str]:
    out = []
    delta = arith.discriminant(*doc["model"])
    claimed = doc["disc_sign"]
    for ell, v in doc["disc_valuations"].items():
        claimed *= int(ell) ** v
    if delta != claimed:
        out.append(f"discriminant {delta} of the model, document claims {claimed}")
    if set(map(int, doc["disc_valuations"])) != set(arith.prime_factors(doc["conductor"])):
        out.append("discriminant primes differ from conductor primes")
    if doc["verification"] != {"status": "verified", "mismatches": []}:
        out.append(f"verification {doc['verification']}")
    return out


def _tested_qs(a, b, c, p, k_max, below):
    """The q = kp + 1 (k even, k <= k_max, q < below) that are prime to abc."""
    for k in range(2, k_max + 1, 2):
        q = k * p + 1
        if q >= below:
            return
        if arith.is_prime(q) and (a * b * c) % q:
            yield k, q


def _obstruction_prime_problems(eq, p, q, k, k_max) -> list[str]:
    """q = kp + 1 is a prime to abc without F_q points, and every smaller
    tested q has a point."""
    a, b, c = eq
    if q != k * p + 1 or k % 2 or not 2 <= k <= k_max:
        return [f"q={q}, k={k} is not kp + 1 with even k <= {k_max}"]
    if not arith.is_prime(q) or (a * b * c) % q == 0:
        return [f"q={q} is not a prime to abc"]
    if arith.fq_has_point(a, b, c, p, q):
        return [f"p={p}: F_{q} has a point"]
    for _, smaller in _tested_qs(a, b, c, p, k_max, q):
        if not arith.fq_has_point(a, b, c, p, smaller):
            return [f"p={p}: F_{smaller} has no point, but {q} was reported first"]
    return []


def _local_problems(doc: dict) -> list[str]:
    eq, p, ell = tuple(doc["equation"]), doc["p"], doc["ell"]
    status = doc["status"]
    if status == "solvable" and not arith.witness_holds(eq, p, ell, doc["witness"]):
        return [f"local {eq} p={p} ell={ell}: witness {doc['witness']} fails"]
    if status == "unsolvable" and arith.unsolvable_level(*eq, p, ell) is None:
        return [f"local {eq} p={p} ell={ell}: primitive solutions found mod every ell^j"]
    return []


def check_obstruct(doc: dict, locals_by_key: dict) -> list[str]:
    eq, p = tuple(doc["equation"]), doc["p"]
    a, b, c = eq
    k_max = workloads.K_MAX
    cutoff = ((p - 1) * (p - 2)) ** 2
    bad = sorted(arith.prime_factors(p * a * b * c))
    if doc["cutoff"] != cutoff:
        return [f"cutoff {doc['cutoff']}, expected {cutoff}"]
    if doc["method"] == "fast_subgroup":
        return _obstruction_prime_problems(eq, p, doc["obstruction"], doc["k"], k_max)
    if doc["method"] == "hensel_descent":
        ell = doc["obstruction"]
        if ell not in bad or arith.unsolvable_level(a, b, c, p, ell) is None:
            return [f"p={p}: no proof that {eq} is unsolvable over Q_{ell}"]
        return []
    if doc["obstruction"] is not None or not set(doc["undecided"]) <= set(bad):
        return [f"p={p}: inconsistent document {doc}"]
    # no obstruction: every tested q has a point ...
    below = cutoff if doc["certified"] else k_max * p + 2
    for _, q in _tested_qs(a, b, c, p, k_max, below):
        if not arith.fq_has_point(a, b, c, p, q):
            return [f"p={p}: F_{q} has no point, yet no obstruction was reported"]
    if not doc["certified"]:
        return []
    # ... and, when certified, every q = 1 (mod p) below the cutoff and
    # every bad prime is covered
    if doc["undecided"] or k_max * p + 1 < cutoff:
        return [f"p={p}: certified without covering the cutoff {cutoff}"]
    for ell in bad:
        local = locals_by_key.get((eq, p, ell))
        if local is None or local["status"] != "solvable":
            return [f"p={p}: certified, but no solvable `local` witness at {ell}"]
        if not arith.witness_holds(eq, p, ell, local["witness"]):
            return [f"p={p}: the witness at {ell} fails"]
    return []


def check_sweep(doc: dict, rng: random.Random) -> list[str]:
    eq = tuple(doc["equation"])
    a, b, c = eq
    lo, hi, k_max = doc["p_min"], doc["p_max"], doc["k_max"]
    entries = doc["entries"]
    expected = [p for p in arith.primes_below(hi) if p >= max(lo, 3)]
    if [e["p"] for e in entries] != expected:
        return [f"sweep {eq} [{lo}, {hi}): the entries are not the odd primes in range"]
    out = []
    for e in entries:
        p, q, k = e["p"], e["obstruction"], e["k"]
        if q is None:
            if k is not None or e["method"] is not None:
                out.append(f"p={p}: k or method without an obstruction")
            continue
        if e["method"] != "fast_subgroup" or q != k * p + 1 or k % 2 or not 2 <= k <= k_max:
            out.append(f"p={p}: q={q}, k={k} is not kp + 1 with even k <= {k_max}")
        elif not arith.is_prime(q) or (a * b * c) % q == 0:
            out.append(f"p={p}: q={q} is not a prime to abc")
        if out:
            return out
    for e in rng.sample(entries, min(SWEEP_SAMPLE, len(entries))):
        if e["obstruction"] is None:
            for _, q in _tested_qs(a, b, c, e["p"], k_max, k_max * e["p"] + 2):
                if not arith.fq_has_point(a, b, c, e["p"], q):
                    return [f"p={e['p']}: F_{q} has no point, yet none was reported"]
        else:
            out += _obstruction_prime_problems(eq, e["p"], e["obstruction"], e["k"], k_max)
    return out


class Checker:
    """Checks the documents of one batch of a workload."""

    def __init__(self, schema_path, seed: int):
        with open(schema_path, encoding="utf-8") as f:
            self.schema = json.load(f)
        self.rng = random.Random(f"check/{seed}")

    def check_batch(self, ops, texts) -> list[str]:
        """Problems with the outputs `texts` of the operations `ops`; an
        output of None marks an operation that failed."""
        docs = [json.loads(t) if t is not None else None for t in texts]
        locals_by_key = {
            (tuple(d["equation"]), d["p"], d["ell"]): d
            for d in docs
            if d is not None and d["command"] == "local"
        }
        problems = []
        for op, doc in zip(ops, docs):
            if doc is None:
                continue
            found = schema_errors(doc, self.schema, self.schema)
            if not found:
                found = self._check(op, doc, locals_by_key)
            problems += [f"{' '.join(op.argv)}: {p}" for p in found]
        return problems

    def _check(self, op, doc, locals_by_key) -> list[str]:
        command = doc["command"]
        if command != op.argv[0]:
            return [f"document is for {command}"]
        if command == "analyze":
            return check_analyze(doc, op.argv)
        if command == "density":
            return check_density(doc, op.expr)
        if command == "curve":
            return check_curve(doc) if doc["label"] == op.argv[1] else ["label does not echo"]
        if workloads.eq_arg(doc["equation"]) != op.argv[1]:
            return [f"equation {doc['equation']} does not echo {op.argv[1]}"]
        if command == "local":
            return _local_problems(doc)
        if command == "obstruct":
            return check_obstruct(doc, locals_by_key)
        return check_sweep(doc, self.rng)
