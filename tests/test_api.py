"""The contract of the calls in ``fermatsym.__all__``: each one answers, or
refuses its input with a ``FermatsymError``, and does either within 2 s.

The integers are drawn from 0, +-1, negatives, composites, primes (one past
the square of the lowered trial-division bound) and an integer past Python's
4,300-digit limit on str(); the curve records are built in code, not parsed.
"""

import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fermatsym
from fermatsym import FermatsymError, ntkernel
from fermatsym.curvedb import CurveRecord
from fermatsym.ecmodel import ReductionKind, ReductionType, WeierstrassModel
from fermatsym.qrsolver import And, Atom, Not, Or
from fermatsym.symplectic import QRConstraint

HUGE = 10**5000 + 1
# HUGE is drawn by name: hypothesis writes the examples with repr()
INTS = st.sampled_from(
    [0, 1, -1, -2, -7, -12, 2, 3, 5, 7, 11, 13, 101, 4, 8, 21, 30, 42, 168, 1001, 10**12 + 39, "HUGE"]
).map(lambda n: HUGE if n == "HUGE" else n)
EQUATIONS = st.sampled_from([(3, 8, 21), (3, 4, 5)]) | st.tuples(INTS, INTS, INTS)
REDUCTIONS = st.builds(ReductionType, st.sampled_from(ReductionKind), st.booleans())
# labels, levels and primes of the paper's scenarios, so that records reach the criteria
PRIMES = st.sampled_from([2, 3, 5, 7]) | INTS
RECORDS = st.builds(
    lambda known, conductor, *rest: CurveRecord(known[0], known[1] if conductor is None else conductor, *rest),
    st.sampled_from([("168a1", 168), ("42a1", 42), ("120b1", 120), ("30a1", 30), ("99z1", 99)]),
    st.none() | INTS,
    INTS,
    st.dictionaries(PRIMES, INTS, max_size=4),
    st.dictionaries(PRIMES, REDUCTIONS, max_size=3),
    st.booleans(),
    st.none() | st.builds(WeierstrassModel, INTS, INTS, INTS, INTS, INTS),
)
DATABASES = st.lists(RECORDS, max_size=3).map(
    lambda records: fermatsym.CurveDatabase({r.label: r for r in records})
)
# expressions are built in the call, since a QRConstraint factors its kernel
EXPRESSIONS = st.recursive(
    st.tuples(INTS.filter(bool), st.sampled_from([1, -1])).map(lambda a: lambda: Atom(QRConstraint(*a))),
    lambda inner: (
        inner.map(lambda f: lambda: Not(f()))
        | st.lists(inner, min_size=2, max_size=3).flatmap(
            lambda fs: st.sampled_from([And, Or]).map(lambda op: lambda: op(tuple(f() for f in fs)))
        )
    ),
    max_leaves=5,
)
LITERALS = INTS.map(lambda n: str(n) if n != HUGE else "7" * 4400)
TEXTS = st.text("()!&|=+-0123456789 ", max_size=25) | st.lists(
    st.tuples(LITERALS, st.sampled_from(["+1", "-1"])), min_size=1, max_size=3
).map(lambda atoms: " & ".join(f"({n})={s}" for n, s in atoms))


def _database_calls(db, label, level):
    db.get(label)
    db.check_overrides()
    db.candidates_for_level(level)


# name -> a strategy of the call, with its arguments drawn
CALLS = {
    "run_equation": st.tuples(EQUATIONS, DATABASES).map(lambda a: lambda: fermatsym.run_equation(*a[0], a[1])),
    "has_local_obstruction": st.tuples(EQUATIONS, INTS, st.sampled_from([2, 40, 200]) | INTS).map(
        lambda a: lambda: fermatsym.has_local_obstruction(*a[0], a[1], a[2])
    ),
    "solvable_over_Ql": st.tuples(EQUATIONS, INTS, INTS).map(
        lambda a: lambda: fermatsym.solvable_over_Ql(*a[0], *a[1:])
    ),
    "sweep": st.tuples(EQUATIONS, INTS, INTS | st.just(200), st.sampled_from([2, 40]) | INTS).map(
        lambda a: lambda: fermatsym.sweep(*a[0], *a[1:])
    ),
    "parse": TEXTS.map(lambda text: lambda: fermatsym.parse(text)),
    "to_classes": EXPRESSIONS.map(lambda expr: lambda: fermatsym.to_classes(expr())),
    "density": EXPRESSIONS.map(lambda expr: lambda: fermatsym.density(fermatsym.to_classes(expr()))),
    "CurveDatabase": st.tuples(DATABASES, st.sampled_from(["42a1", "99z1"]), INTS).map(
        lambda a: lambda: _database_calls(*a)
    ),
    "verify": RECORDS.map(lambda record: lambda: fermatsym.verify(record)),
}


class _Hang(BaseException):
    """Raised by the alarm; a BaseException, so no library handler catches it."""


def _alarm(signum, frame):
    raise _Hang("no answer within 2 s")


def test_the_calls_are_all_of_all_but_the_error():
    assert set(fermatsym.__all__) == {"FermatsymError", *CALLS}


@pytest.mark.parametrize("name", sorted(CALLS))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_every_call_answers_or_refuses_within_2_s(name, data):
    call = data.draw(CALLS[name])
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(2)
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ntkernel, "TRIAL_DIVISION_BOUND", 1000)  # huge inputs are refused at once
            call()
    except FermatsymError:
        pass
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
