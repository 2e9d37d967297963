"""Command-line front end.

Six subcommands wrap the library pipelines with reproducible output: the
same input gives the same JSON bytes but for obstruct's and sweep's one
elapsed_ms field.  Each command builds its answer once, as the JSON document,
and renders text from it only without --json.  A command imports what it
runs, json included, when it runs, so a start-up loads only this module.
Exit codes: 0 success, 1 when undecided results are present, 2 for usage or
data errors (FermatsymError and OSError).
"""

from __future__ import annotations

import argparse
import sys
import time
from itertools import chain

from . import FermatsymError

# the types json encodes as a scalar, whatever the indent
_SCALARS = frozenset((str, int, float, bool, type(None)))

EXIT_OK = 0
EXIT_UNDECIDED = 1
EXIT_ERROR = 2


def _parse_equation(text: str) -> tuple[int, int, int]:
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise FermatsymError(f"bad equation {text!r}: expected three comma-separated integers")
    if len(parts) != 3 or 0 in parts:
        raise FermatsymError(f"bad equation {text!r}: expected three nonzero coefficients")
    return parts


def _database(args):
    from .curvedb import CurveDatabase, load_overrides

    overrides = load_overrides(args.overrides) if args.overrides else None
    return CurveDatabase(overrides)


def _emit(args, document: dict, render) -> None:
    print(_json(document) if args.json else render(document))


def _json(value, pad: str = "\n") -> str:
    """json.dumps(value, sort_keys=True, ensure_ascii=False, indent=2), with
    pad for its newlines, for a document with str keys.  json's C encoder
    runs only without indent, so a container of scalars, or a list of such
    dicts, is encoded by it with the indentation as the item separator; an
    encoded string holds no raw newline, so the separators between the dicts
    are found by a replace."""
    if not isinstance(value, (dict, list, tuple)) or not value:
        return _dumps(value)
    inner = pad + "  "
    types = set(map(type, value.values() if isinstance(value, dict) else value))
    if types <= _SCALARS:
        body = _dumps(value, "," + inner)
        return body[0] + inner + body[1:-1] + pad + body[-1]
    if isinstance(value, dict):
        items = ("," + inner).join(f"{_dumps(k)}: {_json(v, inner)}" for k, v in sorted(value.items()))
        return "{" + inner + items + pad + "}"
    if types == {dict} and all(value):
        if _SCALARS.issuperset(map(type, chain.from_iterable(map(dict.values, value)))):
            deeper = inner + "  "
            body = _dumps(value, "," + deeper)[2:-2]
            body = body.replace("}," + deeper + "{", inner + "}," + inner + "{" + deeper)
            return "[" + inner + "{" + deeper + body + inner + "}" + pad + "]"
    return "[" + inner + ("," + inner).join(_json(v, inner) for v in value) + pad + "]"


def _dumps(value, separator: str = ",") -> str:
    import json
    return json.dumps(value, sort_keys=True, ensure_ascii=False, check_circular=False, separators=(separator, ": "))


def _classes_json(classes, dens) -> dict:
    return {
        "modulus": classes.modulus,
        "residues": sorted(classes.residues),
        "density_num": dens.numerator,
        "density_den": dens.denominator,
    }


def _equation_report_json(report) -> dict:
    from .qrsolver import pretty

    cases = []
    for scen_report in report.scenarios:
        scen = scen_report.scenario
        conditions = []
        for case in scen_report.cases:
            subcases = []
            for sub in case.subcases:
                steps = []
                for step in sub.steps:
                    steps.append(
                        {
                            "primes": list(step.primes),
                            "kernel": str(step.kernel) if step.kernel else None,
                            "reduced": str(step.reduced) if step.reduced else None,
                            "status": step.status,
                        }
                    )
                subcases.append(
                    {
                        "legendre_2_p": sub.legendre_2_p,
                        "symplectic": sub.symplectic.value,
                        "eliminated": sub.eliminated,
                        "steps": steps,
                    }
                )
            conditions.append(
                {
                    "candidate": case.candidate,
                    "route": case.route,
                    "elimination": pretty(case.elimination),
                    "subcases": subcases,
                }
            )
        cases.append(
            {
                "parity": scen.parity_case,
                "level": scen.lowered_level,
                "profile": {
                    str(ell): {"residue": e.residue, "exact": e.residue if e.exact else None}
                    for ell, e in sorted(scen.profile.items())
                },
                "candidates": list(scen.candidates),
                "conditions": conditions,
            }
        )
    dens = report.density
    return {
        "command": "analyze",
        "equation": list(report.equation),
        "exponent_floor": str(report.exponent_floor),
        "cases": cases,
        "classes": _classes_json(report.classes, dens),
        "congruences": str(report.classes),
        "density": f"{dens.numerator}/{dens.denominator}",
    }


def cmd_analyze(args) -> int:
    from .freypipe import run_equation

    a, b, c = _parse_equation(args.eq)
    report = run_equation(a, b, c, _database(args), args.scenarios)
    _emit(args, _equation_report_json(report), _analyze_text)
    return EXIT_OK


def _analyze_text(doc: dict) -> str:
    a, b, c = doc["equation"]
    lines = [
        f"equation {a}*x^p + {b}*y^p + {c}*z^p = 0",
        f"no nontrivial solutions for {doc['congruences']}"
        if doc["classes"]["residues"] else "no exponent class is eliminated",
        f"density {doc['density']}; valid for {doc['exponent_floor']}",
    ]
    for case in doc["cases"]:
        lines.append(f"  case {case['parity']}: level {case['level']}")
        for cond in case["conditions"]:
            lines.append(
                f"    vs {cond['candidate']} [{cond['route']}]: eliminated when {cond['elimination']}"
            )
            for sub in cond["subcases"]:
                if sub["legendre_2_p"] is not None:
                    detail = ", ".join(
                        s["status"] + (f" {s['kernel']}" if s["kernel"] else "") + f" at {s['primes'][0]}"
                        for s in sub["steps"]
                    )
                    lines.append(f"      (2/p)={sub['legendre_2_p']:+d}: {sub['symplectic']}; {detail}")
    return "\n".join(lines)


def cmd_local(args) -> int:
    from . import localobs

    a, b, c = _parse_equation(args.eq)
    res = localobs.solvable_over_Ql(a, b, c, args.p, args.ell)
    witness = None
    if res.witness is not None:
        witness = {
            "triple": list(res.witness.triple),
            "level": res.witness.level,
            "coordinate": res.witness.coordinate,
            "derivative_valuation": res.witness.derivative_valuation,
        }
    doc = {
        "command": "local",
        "equation": [a, b, c],
        "p": args.p,
        "ell": args.ell,
        "status": res.status,
        "witness": witness,
        "method": "hensel_descent",
    }
    _emit(args, doc, _local_text)
    return EXIT_UNDECIDED if res.status == "undecided" else EXIT_OK


def _local_text(doc: dict) -> str:
    (a, b, c), p, ell, witness = doc["equation"], doc["p"], doc["ell"], doc["witness"]
    text = f"{a}*x^{p} + {b}*y^{p} + {c}*z^{p} = 0 over Q_{ell}: {doc['status']}"
    if witness:
        text += f" (witness {tuple(witness['triple'])} mod {ell}^{witness['level']})"
    return text


def cmd_obstruct(args) -> int:
    from . import localobs

    a, b, c = _parse_equation(args.eq)
    started = time.monotonic_ns()
    res = localobs.has_local_obstruction(a, b, c, args.p, args.kmax)
    elapsed_ms = (time.monotonic_ns() - started) // 1_000_000
    doc = {
        "command": "obstruct",
        "equation": [a, b, c],
        "p": args.p,
        "obstruction": res.obstruction,
        "method": res.method,
        "k": res.k,
        "certified": res.certified,
        "cutoff": res.cutoff,
        "undecided": list(res.undecided),
        "elapsed_ms": elapsed_ms,
    }
    _emit(args, doc, lambda doc: _obstruct_text(doc, args.kmax))
    if res.obstruction is None and not res.certified:
        return EXIT_UNDECIDED
    return EXIT_OK


def _obstruct_text(doc: dict, k_max: int) -> str:
    """The verdict line; k_max is the scan depth, which the document omits."""
    if doc["obstruction"] is not None:
        return f"p={doc['p']}: local obstruction at {doc['obstruction']} ({doc['method']})"
    if doc["certified"]:
        return f"p={doc['p']}: no local obstruction (certified; cutoff {doc['cutoff']})"
    text = f"p={doc['p']}: none found up to k_max={k_max} (not certified)"
    if doc["undecided"]:
        text += f"; undecided at {doc['undecided']}"
    return text


def cmd_sweep(args) -> int:
    from . import localobs

    if args.jobs != 1:
        raise FermatsymError(f"--jobs takes only 1 (sweep runs in one process), got {args.jobs}")
    a, b, c = _parse_equation(args.eq)
    started = time.monotonic_ns()
    rows = localobs.sweep(a, b, c, args.pmin, args.pmax, args.kmax)
    elapsed_ms = (time.monotonic_ns() - started) // 1_000_000
    doc = {
        "command": "sweep",
        "equation": [a, b, c],
        "p_min": args.pmin,
        "p_max": args.pmax,
        "k_max": args.kmax,
        "entries": [
            {"p": p, "obstruction": q, "k": k, "method": "fast_subgroup" if q is not None else None}
            for p, q, k in rows
        ],
        "elapsed_ms": elapsed_ms,
    }
    _emit(args, doc, _sweep_text)
    return EXIT_UNDECIDED if any(q is None for _, q, _ in rows) else EXIT_OK


def _sweep_text(doc: dict) -> str:
    entries = doc["entries"]
    misses = [e["p"] for e in entries if e["obstruction"] is None]
    lines = [f"{'p':>8} {'q':>10} {'k':>5}"]
    for e in entries:
        q, k = ("-", "-") if e["obstruction"] is None else (e["obstruction"], e["k"])
        lines.append(f"{e['p']:>8} {q:>10} {k:>5}")
    lines.append(
        f"# {len(entries)} primes, {len(entries) - len(misses)} with obstructions"
        + (f", none found for {misses}" if misses else "")
    )
    return "\n".join(lines)


def cmd_density(args) -> int:
    from . import qrsolver

    expr = qrsolver.parse(args.expression)
    classes = qrsolver.to_classes(expr)
    dens = qrsolver.density(classes)
    doc = {
        "command": "density",
        "expression": args.expression,
        "normalized": qrsolver.pretty(expr),
        "classes": _classes_json(classes, dens),
        "congruences": str(classes),
        "density": f"{dens.numerator}/{dens.denominator}",
    }
    _emit(args, doc, lambda doc: f"{doc['congruences']}; density {doc['density']}")
    return EXIT_OK


def cmd_curve(args) -> int:
    from .curvedb import verify

    record = _database(args).get(args.label)
    report = verify(record)
    doc = {
        "command": "curve",
        "label": record.label,
        "conductor": record.conductor,
        "disc_sign": record.disc_sign,
        "disc_valuations": {str(k): v for k, v in sorted(record.disc_valuations.items())},
        "reduction": {
            str(ell): {"kind": red.kind.value, "potentially_good": red.potentially_good}
            for ell, red in sorted(record.reduction_at.items())
        },
        "inertia_sl2f3_at_2": record.inertia_sl2f3_at_2,
        "model": list(record.model.coefficients()) if record.model else None,
        "verification": {"status": report.status, "mismatches": list(report.mismatches)},
    }
    _emit(args, doc, _curve_text)
    return EXIT_OK if report.status != "mismatch" else EXIT_ERROR


def _curve_text(doc: dict) -> str:
    disc = " * ".join(f"{ell}^{v}" if v > 1 else ell for ell, v in doc["disc_valuations"].items())
    sign = "-" if doc["disc_sign"] < 0 else ""
    model = "[" + ",".join(map(str, doc["model"])) + "]" if doc["model"] else "(none)"
    check = doc["verification"]
    head = (
        f"{doc['label']}: conductor {doc['conductor']}, minimal discriminant {sign}{disc}, "
        f"model {model}; verification: {check['status']}"
    )
    return "\n  ".join([head, *check["mismatches"]])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermatsym",
        description=(
            "Non-solvability analysis for Fermat equations with coefficients: "
            "symplectic-criterion eliminations and local obstructions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, curves=False):
        p.add_argument("--json", action="store_true", help="emit a JSON document")
        if curves:
            p.add_argument("--overrides", metavar="PATH", help="curve override file")

    p = sub.add_parser("analyze", help="congruence classes of eliminated exponents")
    p.add_argument("--eq", required=True, metavar="A,B,C", help="equation coefficients")
    add_common(p, curves=True)
    p.add_argument("--scenarios", metavar="PATH", help="scenario file for other equations")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("local", help="solvability over one Q_ell")
    p.add_argument("--eq", required=True, metavar="A,B,C")
    p.add_argument("--p", required=True, type=int, help="exponent prime")
    p.add_argument("--ell", required=True, type=int, help="place to test")
    add_common(p)
    p.set_defaults(func=cmd_local)

    p = sub.add_parser("obstruct", help="first local obstruction for one exponent")
    p.add_argument("--eq", required=True, metavar="A,B,C")
    p.add_argument("--p", required=True, type=int)
    p.add_argument("--kmax", type=int, default=200, help="largest k in q = k*p + 1 (default 200)")
    add_common(p)
    p.set_defaults(func=cmd_obstruct)

    p = sub.add_parser("sweep", help="obstruction primes over a range of exponents")
    p.add_argument("--eq", required=True, metavar="A,B,C")
    p.add_argument("--pmin", required=True, type=int)
    p.add_argument("--pmax", required=True, type=int)
    p.add_argument("--kmax", type=int, default=200)
    p.add_argument("--jobs", type=int, default=1, help="only 1 is accepted (default 1)")
    add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("density", help="congruence classes of a constraint expression")
    p.add_argument("expression", help="e.g. '(-2)=-1 & (2)=-1'")
    add_common(p)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("curve", help="show and verify a curve record")
    p.add_argument("label", help="e.g. 168a1")
    add_common(p, curves=True)
    p.set_defaults(func=cmd_curve)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FermatsymError, OSError) as e:
        message = e.args[0] if isinstance(e, KeyError) and e.args else e
        print(f"error: {message}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
