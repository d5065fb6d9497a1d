"""Package errors cross process boundaries intact.

`dpopt compare` runs each variant in a worker process, and an error a
worker raises reaches the parent as a pickle.  Every error type must
come back with its type, message and attributes.
"""

import pickle

import pytest

from dpopt import errors
from dpopt.errors import DpoptError

# Each error type with the arguments its constructor takes.
CASES = [
    (errors.DpoptError, ("something failed",), {}),
    (errors.ConfigError, ("bad value",), {}),
    (errors.ConfigError, ("bad value",), {"line": 7}),
    (errors.ConfigError, ("bad value",), {"line": 3, "key": "run.iterations"}),
    (errors.ConnectivityError, ("graph has no spanning root",), {}),
    (errors.SpectralError, ("no contraction",), {}),
    (errors.StructureError, ("degenerate null space",), {}),
    (errors.RangeError, ("noise term overflows at k = 155",), {}),
    (errors.ConditionError, ("stepsize fails the sum condition",), {}),
    (errors.DegenerateProblemError, ("no unique minimizer",), {}),
]


def _subclasses(cls) -> set:
    found = set()
    for sub in cls.__subclasses__():
        found |= {sub} | _subclasses(sub)
    return found


def test_cases_cover_every_error_type():
    assert {cls for cls, _, _ in CASES} == {DpoptError} | _subclasses(DpoptError)


@pytest.mark.parametrize("cls,args,kwargs", CASES,
                         ids=lambda case: getattr(case, "__name__", None))
def test_pickle_round_trip(cls, args, kwargs):
    exc = cls(*args, **kwargs)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert back.args == exc.args
    assert vars(back) == vars(exc)
    for name, value in kwargs.items():
        assert getattr(back, name) == value

