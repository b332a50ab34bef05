"""The numpy work of one default check, counted call by call.

Batches are swapped for an ``ndarray`` subclass whose ``__array_ufunc__``
counts every numpy call made on them and notes who made it.  The total is
pinned, as ``test_shared_objects`` pins memo work, so a change that adds or
removes numpy calls on batches shows here.  Exact zeros and units are
structural (rule 3 of ``jets``): no product made from ``jets.py`` meets a
float 0.0 or 1.0, no product or difference of the sharp solve meets an exact
zero, and its back substitution divides no exact zero and by no unit pivot.
"""

import inspect
import sys
from collections import Counter

import numpy as np
import pytest

from finslerlab import calculus, checks, connections, finsler, jets
from finslerlab.checks import run_checks
from finslerlab.config import RunConfig

SHARP_CODE, SHARP_START = inspect.getsourcelines(finsler._sharp_block_solve)
SHARP_LINES = range(SHARP_START, SHARP_START + len(SHARP_CODE))
# the array layer's zero-rule helpers: a call they make is the caller's
HELPERS = {calculus._mul.__code__, jets._add.__code__, jets._sub.__code__}


def _is_exact_zero(x):
    return not isinstance(x, np.ndarray) and not x


def _made_from(frame):
    """The file and line of the first frame outside the zero-rule helpers."""
    while frame.f_code in HELPERS:
        frame = frame.f_back
    return frame.f_code.co_filename, frame.f_lineno


@pytest.fixture
def counted(monkeypatch):
    """Numpy calls on batches during the test: (ufunc name, operands, file, line)."""
    calls = []

    class Counted(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            calls.append((ufunc.__name__, inputs, *_made_from(sys._getframe(1))))
            inputs = [x.view(np.ndarray) if isinstance(x, Counted) else x for x in inputs]
            result = getattr(ufunc, method)(*inputs, **kwargs)
            return result.view(Counted) if type(result) is np.ndarray else result

    def sup_abs(values):
        # the stacked arrays of the projector and d_h omega residuals are plain
        # arrays, which sup_abs would not read as batches
        return calculus_sup_abs([v.view(Counted) if type(v) is np.ndarray else v
                                 for v in values])

    calculus_sup_abs = calculus.sup_abs
    monkeypatch.setattr(jets, "Batch", Counted)
    monkeypatch.setattr(jets, "batch",
                        lambda values: np.asarray(values, dtype=float).view(Counted))
    for module in (calculus, finsler, connections, checks):
        monkeypatch.setattr(module, "sup_abs", sup_abs)
    return calls


def test_a_default_check_makes_a_pinned_number_of_numpy_calls(counted):
    results, code = run_checks(RunConfig(seed=42))
    assert code == 0 and len(results) == 48
    calls = len(counted)
    # 35,636 when each cell rebuilt the h_L, (d_L E)# and brackets of the shared
    # operands, divided exact zeros and unit pivots in the sharp solve, and the
    # fixture energies summed from the int 0; 30,314 when CHK-02 composed form
    # closures, which lifted the grid again for every term of every frame pair
    assert calls == 26112


def test_no_product_meets_a_structural_zero_or_unit(counted, monkeypatch):
    zero_over_jet = Counter()
    rtruediv = jets.Jet.__rtruediv__

    def counting_rtruediv(self, o):
        frame = sys._getframe(1)
        if _is_exact_zero(o) and frame.f_code is finsler._sharp_block_solve.__code__:
            zero_over_jet[frame.f_lineno] += 1
        return rtruediv(self, o)

    monkeypatch.setattr(jets.Jet, "__rtruediv__", counting_rtruediv)
    run_checks(RunConfig(seed=42))
    trivial_jets = Counter()
    zero_in_sharp = Counter()
    trivial_division = Counter()
    for name, inputs, filename, line in counted:
        if filename == jets.__file__ and name == "multiply" and any(
                type(x) in (float, int) and x in (0.0, 1.0) for x in inputs):
            trivial_jets[line] += 1
        if filename == finsler.__file__ and line in SHARP_LINES and \
                name in ("multiply", "subtract") and any(map(_is_exact_zero, inputs)):
            zero_in_sharp[line] += 1
        if filename == finsler.__file__ and line in SHARP_LINES and \
                name in ("divide", "true_divide") and \
                (_is_exact_zero(inputs[0]) or type(inputs[1]) is float and inputs[1] == 1.0):
            trivial_division[line] += 1
    assert not trivial_jets
    assert not zero_in_sharp
    assert not trivial_division
    assert not zero_over_jet
