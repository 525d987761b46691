"""The golden records under Python 3.12's float ``sum``.

From Python 3.12 on, ``sum`` adds floats with Neumaier's compensation, so
a total can differ in its last bit from the left-to-right one of earlier
versions. The package takes its float totals with ``core.ordered_sum``, so
its records must not depend on which ``sum`` the interpreter has. Here
``builtins.sum`` is replaced by the 3.12 algorithm, and the machine and
load records are rebuilt and compared with the stored ones.
"""

import builtins
import json
import math

from caliblist.core import ordered_sum

import test_golden
import test_golden_load


def sum_312(iterable, /, start=0):
    """``sum`` as Python 3.12 adds: floats with a running compensation."""
    total, c = start, 0.0
    for x in iterable:
        if type(total) is float and type(x) is float:
            t = total + x
            c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
            total = t
        elif type(total) is float and isinstance(x, int) and abs(x) < 2 ** 63:
            total += float(x)  # an int that fits a C long adds uncompensated
        else:
            if type(total) is float and c and math.isfinite(c):
                total += c
            total, c = total + x, 0.0
    if type(total) is float and c and math.isfinite(c):
        total += c
    return total


def test_the_two_sums_differ():
    tenths = [0.1] * 10
    assert sum_312(tenths) == 1.0
    assert ordered_sum(tenths) == 0.9999999999999999
    assert sum_312([]) == ordered_sum([]) == 0 and type(ordered_sum([])) is int


def test_records_hold_under_the_compensated_sum(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(builtins, "sum", sum_312)
    got = test_golden.run_corpus(tmp_path, lambda: capsys.readouterr().out)
    assert got == json.loads(test_golden.GOLDEN.read_text())
    got = [json.dumps(test_golden_load.record(name, doc))
           for name, doc in test_golden_load.documents()]
    assert got == test_golden_load.GOLDEN.read_text().splitlines()
