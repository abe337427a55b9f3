"""Every package error survives pickling, as it must to leave a worker process."""

import inspect
import pickle

import pytest

from genage import errors

# one instance of each error type, built as the package builds it
INSTANCES = {
    errors.NonFiniteFeature: errors.NonFiniteFeature(4),
    errors.BadGenderLabel: errors.BadGenderLabel(2, 0),
    errors.RankOutOfRange: errors.RankOutOfRange(2, 9, 5),
    errors.NonConvergence: errors.NonConvergence(10, "budget", gap=3.5e-4),
    errors.ParseError: errors.ParseError(3, "bad age 'x', expected an integer"),
}


def every_error_type():
    return [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
            if issubclass(cls, errors.GenAgeError)]


@pytest.mark.parametrize("cls", every_error_type(), ids=lambda cls: cls.__name__)
def test_error_round_trips_through_pickle(cls):
    err = INSTANCES.get(cls) or cls(f"{cls.__name__} message")
    again = pickle.loads(pickle.dumps(err))
    assert type(again) is cls
    assert str(again) == str(err)
    assert again.args == err.args
    assert vars(again) == vars(err)
