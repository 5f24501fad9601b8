"""The traced benchmark wraps named functions and methods of zcurv.

``bench/spans.py`` looks each of them up by name when it installs its
wrappers, so a rename or deletion in ``src/`` breaks only the traced run.
Installing and uninstalling the wrappers here makes that break a test
failure instead.
"""

import sys
from pathlib import Path

from zcurv import symexpr

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_spans_install_and_uninstall_cleanly():
    sys.path.insert(0, str(BENCH))
    try:
        import spans
    finally:
        sys.path.remove(str(BENCH))
    add = symexpr.Expr.__dict__["__add__"]
    fn = symexpr.fn
    uninstall = spans.install(spans.Tracer())
    try:
        assert symexpr.Expr.__dict__["__add__"] is not add
    finally:
        uninstall()
    assert symexpr.Expr.__dict__["__add__"] is add
    assert symexpr.fn is fn
