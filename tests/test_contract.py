"""The exit contract of the command line, on configs drawn from a grammar.

Every key that each of the eight commands reads is drawn, well-formed or
malformed, on grids of at most 17 nodes per axis.  Every run exits 0, 1 or 2
and writes ``report.json`` with no traceback; the report carries an
``error`` entry exactly when the run exits 2; and a two-grid command
(``cli.TWO_GRID``) reports a ``coarse`` value and a ``floor`` for each of
its checks.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from slmoduli.cli import COMMANDS, TWO_GRID, main

# values of the wrong kind for any key
MALFORMED = st.sampled_from([None, True, "x", [], {}, [[]], -1, 0, 2.5, math.nan, math.inf])

COUNT = st.one_of(st.integers(1, 17), st.sampled_from([-1, 0, 8.9, True, "16", [9]]))
REAL = st.one_of(st.floats(-2.0, 2.0, allow_nan=False), st.integers(-2, 2),
                 st.sampled_from([math.nan, math.inf, True, "1", [0, 1]]))


@st.composite
def _range(draw, with_count, well_formed=False):
    """[lo, hi] or [lo, hi, n]: an increasing range of 11 to 17 nodes when
    ``well_formed``, else one that may be empty, reversed, too small or of the
    wrong kind."""
    lo = draw(st.sampled_from([-1.0, -0.5, 0.0, 0.5]))
    hi = lo + draw(st.sampled_from([0.5, 1.0, 2.0] if well_formed else [1.0, 0.0, -1.0]))
    entry = [lo, hi, draw(st.integers(11, 17) if well_formed else COUNT)][:3 if with_count else 2]
    if not well_formed and draw(st.booleans()):
        entry[draw(st.integers(0, len(entry) - 1))] = draw(REAL)
    return entry


def _well_formed_ranges(with_count, sizes=(2,)):
    """One well-formed range per axis, for each axis count of ``sizes``."""
    return st.sampled_from(sizes).flatmap(
        lambda k: st.lists(_range(with_count, True), min_size=k, max_size=k))


def _ranges(with_count, sizes=(2,)):
    """Well-formed ranges, or anything."""
    return st.one_of(_well_formed_ranges(with_count, sizes),
                     st.lists(_range(with_count), max_size=3), MALFORMED)


# expressions over u1, u2 (u3) or y1, y2: convex in two variables, or
# exact, non-convex, in other variables, not finite or not allowed
CONVEX = st.sampled_from([
    "(u1**2 + u2**2) / 2", "u1**2 / (2 * u2) + u2**3 / 6", "(u1**2 + u2**2) / 2 + 0.1*cosh(u1)",
    "u1**4/12 + u1**2/2 + u2**2/2", "exp(u1) + exp(u2)"])
POTENTIALS = st.one_of(CONVEX, st.sampled_from([
    "(u1**2 + u2**2 + u3**2) / 2", "u1**2", "-(u1**2 + u2**2)", "u1", "log(u1) + u2**2",
    "sin(u1)", "1/0", "u1.real", "", 5]))
BOUNDARIES = st.sampled_from([
    "(u1**2 + u2**2) / 2", "cosh(u1) + cosh(u2)", "u1**2 / (2 * u2) + u2**3 / 6",
    "-(u1**2 + u2**2)", "u1", "log(u1)", "sqrt(u2)", "2**2000", "y1", 3])
GH_V = st.sampled_from(["2 + y1", "2 + y1 + 0.3 * (y1**2 - y2**2)", "3 + exp(y1) * cos(y2)",
                        "y1**2", "-1 + 0*y1", "sqrt(y1 - 0.5) + 2", "u1", 1])
FAMILIES = st.sampled_from(["std:2", "std:3", "tilt:1:2", "tilt:1:abc", "std:x", "std:0",
                            "tilt:2:1", "/nonexistent/family.json", 5, None])
MODELS = st.sampled_from(["std:2", "std:3", "std:1", "std:x", "/nonexistent/model.json", 5])


def _optional(**keys):
    """A config with any subset of ``keys`` drawn."""
    return st.fixed_dictionaries({}, optional=keys)


C = st.one_of(st.sampled_from([1.0, 1.3]), REAL)
POTENTIAL = st.one_of(
    st.fixed_dictionaries({"axes": _well_formed_ranges(True), "expr": CONVEX},
                          optional={"c": st.sampled_from([1.0, 1.3])}),
    st.fixed_dictionaries({"axes": _ranges(True, sizes=(1, 2, 3)), "expr": POTENTIALS},
                          optional={"c": C}),
    _optional(axes=_ranges(True), expr=POTENTIALS, c=C),
    st.sampled_from(["/nonexistent/potential.csv", 5]), MALFORMED)
PLANE = {"n": st.one_of(st.integers(11, 17), COUNT), "domain": _ranges(False)}
MODULI = {"grid": st.one_of(_optional(n=st.one_of(st.integers(1, 4), COUNT),
                                      ranges=_ranges(False, sizes=(2, 3))), MALFORMED),
          "family": FAMILIES}

CONFIGS = {
    "cy-validate": _optional(model=MODELS),
    "family-scan": _optional(**MODULI, fiber_resolution=st.one_of(st.integers(4, 8), COUNT)),
    "embed": _optional(**MODULI),
    "legendre": _optional(potential=POTENTIAL),
    "partial-legendre": _optional(potential=POTENTIAL),
    "semiflat": _optional(potential=POTENTIAL),
    "ma-solve": _optional(**PLANE, boundary=BOUNDARIES,
                          solver=st.one_of(_optional(c=st.one_of(st.just(1.0), REAL)), MALFORMED)),
    "gh": _optional(**PLANE, V=GH_V),
}
assert set(CONFIGS) == set(COMMANDS)


@settings(max_examples=120, deadline=None)
@given(run=st.sampled_from(COMMANDS).flatmap(
    lambda command: st.tuples(st.just(command), CONFIGS[command], st.booleans())))
def test_every_config_keeps_the_exit_contract(run):
    command, config, oracle = run
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cfg = tmp / "cfg.json"
        cfg.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main([command, "--config", str(cfg), "--out", str(tmp / "out"),
                         *(["--oracle"] if oracle else [])])
        report = json.loads((tmp / "out" / "report.json").read_text())
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert ("error" in report) == (code == 2), report
    if code != 2 and command in TWO_GRID:
        assert set(report["coarse"]) == set(report["floor"]) == set(report["checks"])
