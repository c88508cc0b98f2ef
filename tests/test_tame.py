import pytest

from kspaces import Interval, TameFunction

UNIT = (Interval(0, 1),)


def test_tame_function_validation():
    with pytest.raises(ValueError):
        TameFunction(0, lambda: 1.0, ())
    with pytest.raises(ValueError):
        TameFunction(2, lambda x, y: x, UNIT)  # box length mismatch
