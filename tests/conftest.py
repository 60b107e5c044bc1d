import random
import time
from pathlib import Path

import pytest

from qpencil.errors import PrecondError
from qpencil.fields import QQ, PrimeField

REPO = Path(__file__).resolve().parents[1]
INPUTS = REPO / "inputs"
GOLDEN = Path(__file__).resolve().parent / "golden"

F3 = PrimeField(3)
F5 = PrimeField(5)
F11 = PrimeField(11)


@pytest.fixture
def rng():
    return random.Random(20240917)


def all_fields():
    return [QQ, F3, F5, F11]


def refuses_at_once(fn, arg, bound, seconds=0.5):
    """fn(arg) raises a PrecondError matching `bound` within `seconds`;
    returns the error."""
    start = time.perf_counter()
    with pytest.raises(PrecondError, match=bound) as err:
        fn(arg)
    assert time.perf_counter() - start < seconds
    return err.value
