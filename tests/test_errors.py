"""Every toolkit error survives a pickle round trip: a rung search run in
another process hands its failure back that way.  The one reader of
input files reads what text-mode ``open`` reads."""

import inspect
import pickle

import numpy as np
import pytest

from vwbound import errors
from vwbound.errors import VWBoundError, read_text

# constructor arguments of one instance of every error class
SAMPLES = {
    "VWBoundError": ("plain message",),
    "ExprSyntaxError": ("expected ')'", 7),
    "UnknownIdentifier": ("y", 3),
    "DomainError": ("log of a negative number", "ln(x1)"),
    "DivisionByZero": ("w",),
    "AsymmetricMatrix": (1, 2),
    "NotDifferentiable": ("abs of a time-dependent argument",),
    "NotPositiveDefinite": (2, -0.5, 3),
    "DegeneratePencil": ("eigenvalue inside the band", 4),
    "EmptyPositiveSubspace": ("C(0) has no positive eigenvalues",),
    "NoUpperBracket": (1.5, 2.0, 0.25),
    "InfeasibleConditionE": ("no finite constants", (0.5, [1.0, 2.0])),
    "ConditionGFailed": ("no positive characteristic value",),
    "StepSizeUnderflow": (1.25, np.array([3.0, -4.0])),
    "RungWorkerLost": ((-10.0, 5.0), "was killed by signal 9"),
    "NoSignChange": ("both ends exit on one side", -1.0),
    "BudgetExhausted": ("budget spent",),
    "NotConverged": ("never settled", [(1, -5.0, np.array([0.1, 0.2]))]),
    "DocumentError": ("bad value", 3, "window"),
}


def test_samples_cover_every_error_class():
    classes = {
        name for name, cls in vars(errors).items()
        if inspect.isclass(cls) and issubclass(cls, VWBoundError)
    }
    assert classes == set(SAMPLES)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_pickle_round_trip(name):
    exc = getattr(errors, name)(*SAMPLES[name])
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert back.args == exc.args
    # attributes, arrays included, come back equal
    assert repr(vars(back)) == repr(vars(exc))


@pytest.mark.parametrize("data", [
    b"a = 1\nb = 2\n", b"a = 1\r\nb = 2\r\n", b"a = 1\rb = 2\r",
    b"a\r\r\nb\n\r", b"\xef\xbb\xbfcaf\xc3\xa9\r\n", b"",
], ids=["LF", "CRLF", "CR", "mixed", "BOM and accent", "empty"])
def test_read_text_is_the_text_mode_read(tmp_path, data):
    path = tmp_path / "input.txt"
    path.write_bytes(data)
    with open(path, "r", encoding="utf-8") as fh:
        assert read_text(path) == fh.read()
