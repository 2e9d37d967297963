"""Per-layer tracing by wrapping fermatsym's public functions.

Callers bind some dependencies by name (localobs binds is_prime, qrsolver
binds factor_small, freypipe binds the criteria, cli binds run_equation),
so each wrapper is installed at every fermatsym module attribute that holds
the original function, not only at its home module.

Per function the tracer keeps the number of calls, the total time of the
outermost calls (recursion is not counted twice) and the self time, which
is a call's time minus the time of the wrapped calls it made.  A module's
self time is the sum of its functions' self times.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter_ns

TARGETS = {
    "cli": ("main",),
    "freypipe": ("run_equation", "run_case", "scenarios"),
    "symplectic": ("criterion_at_two", "criterion_multiplicative", "pairwise_consistency"),
    "qrsolver": ("parse", "pretty", "simplify", "to_classes", "canonicalize", "decompose", "density"),
    "curvedb": ("verify",),
    "ecmodel": ("minimal_model", "invariants", "reduction_type", "transform"),
    "localobs": (
        "has_local_obstruction", "sweep", "bad_primes", "solvable_over_Ql", "solvable_mod_q_fast",
    ),
    "ntkernel": (
        "is_prime", "primes_in", "factor_small", "squarefree_part", "jacobi", "valuation",
    ),
}


def _levels(result, counters):
    counters["localobs.solvable_over_Ql.levels"] += result.levels_explored


def _subgroup(result, counters):
    if result is False:
        counters["localobs.subgroup_obstructions"] += 1


# Work counters read off results where the work happens.
COUNTERS = ("localobs.solvable_over_Ql.levels", "localobs.subgroup_obstructions")
RESULT_HOOKS = {
    "localobs.solvable_over_Ql": _levels,
    "localobs.solvable_mod_q_fast": _subgroup,
}


class Tracer:
    """Install with install(), read and clear per operation with take()."""

    def __init__(self):
        self._stack: list[list[int]] = []  # per open call: [time of its wrapped children]
        self._depth: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []
        self.stats: dict[str, list[int]] = {}
        self.counters = dict.fromkeys(COUNTERS, 0)

    def take(self) -> tuple[dict, dict]:
        """Stats {name: [calls, total_ns, self_ns]} and counters since the last take()."""
        taken = self.stats, self.counters
        self.stats = {}
        self.counters = dict.fromkeys(COUNTERS, 0)
        return taken

    def _wrap(self, name: str, fn):
        stack, depth = self._stack, self._depth
        hook = RESULT_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            depth[name] = depth.get(name, 0) + 1
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                stack.pop()
                depth[name] -= 1
                if stack:
                    stack[-1][0] += elapsed
                row = self.stats.get(name)
                if row is None:
                    row = self.stats[name] = [0, 0, 0]
                row[0] += 1
                if depth[name] == 0:
                    row[1] += elapsed
                row[2] += elapsed - frame[0]
            if hook is not None:
                hook(result, self.counters)
            return result

        return wrapper

    def install(self) -> None:
        modules = [importlib.import_module(f"fermatsym.{m}") for m in TARGETS]
        everywhere = [m for name, m in sys.modules.items() if name == "fermatsym" or name.startswith("fermatsym.")]
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for fname in TARGETS[short]:
                original = getattr(module, fname)
                wrapper = self._wrap(f"{short}.{fname}", original)
                for holder in everywhere:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, wrapper)
                            self._patched.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()


def layer_metrics(stats: dict, counters: dict) -> dict[str, float]:
    """The per-layer metrics of one batch, from summed stats and counters."""

    def ms(name):
        return stats.get(name, (0, 0, 0))[1] / 1e6

    def calls(name):
        return stats.get(name, (0, 0, 0))[0]

    def self_ms(module):
        return sum(row[2] for name, row in stats.items() if name.startswith(module + ".")) / 1e6

    tests = calls("localobs.solvable_mod_q_fast")
    hits = counters["localobs.subgroup_obstructions"]
    return {
        "cli.main.ms": ms("cli.main"),
        "cli.self_ms": self_ms("cli"),
        "qrsolver.parse.ms": ms("qrsolver.parse"),
        "qrsolver.simplify.ms": ms("qrsolver.simplify"),
        "qrsolver.to_classes.ms": ms("qrsolver.to_classes"),
        "qrsolver.canonicalize.ms": ms("qrsolver.canonicalize"),
        "qrsolver.decompose.calls": calls("qrsolver.decompose"),
        "qrsolver.decompose.ms": ms("qrsolver.decompose"),
        "qrsolver.self_ms": self_ms("qrsolver"),
        "freypipe.run_equation.ms": ms("freypipe.run_equation"),
        "freypipe.run_case.calls": calls("freypipe.run_case"),
        "freypipe.self_ms": self_ms("freypipe"),
        "symplectic.criteria.calls": sum(calls(f"symplectic.{f}") for f in TARGETS["symplectic"]),
        "symplectic.self_ms": self_ms("symplectic"),
        "curvedb.verify.ms": ms("curvedb.verify"),
        "curvedb.self_ms": self_ms("curvedb"),
        "ecmodel.minimal_model.calls": calls("ecmodel.minimal_model"),
        "ecmodel.minimal_model.ms": ms("ecmodel.minimal_model"),
        "ecmodel.self_ms": self_ms("ecmodel"),
        "localobs.has_local_obstruction.ms": ms("localobs.has_local_obstruction"),
        "localobs.bad_primes.ms": ms("localobs.bad_primes"),
        "localobs.solvable_over_Ql.calls": calls("localobs.solvable_over_Ql"),
        "localobs.solvable_over_Ql.ms": ms("localobs.solvable_over_Ql"),
        "localobs.solvable_over_Ql.levels": counters["localobs.solvable_over_Ql.levels"],
        "localobs.sweep.ms": ms("localobs.sweep"),
        "localobs.solvable_mod_q_fast.calls": tests,
        "localobs.solvable_mod_q_fast.ms": ms("localobs.solvable_mod_q_fast"),
        "localobs.subgroup_obstructions": hits,
        "localobs.subgroup_hit_ratio": hits / tests if tests else 0.0,
        "localobs.self_ms": self_ms("localobs"),
        "ntkernel.is_prime.calls": calls("ntkernel.is_prime"),
        "ntkernel.is_prime.ms": ms("ntkernel.is_prime"),
        "ntkernel.primes_in.ms": ms("ntkernel.primes_in"),
        "ntkernel.factor_small.calls": calls("ntkernel.factor_small"),
        "ntkernel.factor_small.ms": ms("ntkernel.factor_small"),
        "ntkernel.self_ms": self_ms("ntkernel"),
    }


def unit(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if name.endswith("ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("ratio") else "count"
