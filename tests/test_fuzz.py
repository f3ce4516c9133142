"""Fuzzed config documents and DSL strings through ``cli.main``.

Whatever the input, ``main`` returns a documented exit code, never raises,
prints exactly one stderr line when it fails and then leaves no file behind,
and when it succeeds or a check fails, writes no non-finite number that a
verdict or a mesh rests on (``differential.nonfinite``).
"""

import contextlib
import io
import json
import os
import tempfile
import warnings

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from differential import RUNS, nonfinite
from rmfruled.cli import main

# Expressions that leave their domain on only some nodes of a range through 0
# (or, for exp, overflow on [700, 800]) next to ones that are defined anywhere.
_DSL_POOL = ["s", "0", "1", "s^2", "-s^3", "3/5*cos(s)", "3/5*sin(s)", "4/5*s",
             "2*s", "atan(s)", "abs(s)", "tan(s)", "log(s)", "sqrt(s)", "1/s",
             "s^-1", "s^0.5", "exp(s)", "exp(s)*exp(s)", "1/(s-0.5)", "s/s",
             "sin(1e308*s)", "s^400", "log(abs(s))", "2^3^4^5"]
_DSL_CHARS = "s0123456789.+-*/^() eplogisnctaqrbx"
# Wrappers whose value is that of the expression inside, but whose
# intermediate values or derivatives overflow.
_OVERFLOW_WRAPPERS = ["1e308*({})*1e-308", "({})*1e300*1e10/1e10/1e300",
                      "exp(700)*({})/exp(700)", "({})+1e-320", "atan(1e300*({}))"]


def _dsl():
    generated = st.recursive(
        st.sampled_from(["s", "pi", "0", "2", "0.5", "1e300"]),
        lambda kids: st.one_of(
            st.tuples(kids, st.sampled_from("+-*/"), kids).map(
                lambda t: f"({t[0]}){t[1]}({t[2]})"),
            st.tuples(st.sampled_from(["sin", "cos", "tan", "atan", "sqrt",
                                       "exp", "log", "abs"]), kids).map(
                lambda t: f"{t[0]}({t[1]})"),
            st.tuples(kids, st.sampled_from(["2", "3", "0.5", "-1", "-2.5"])).map(
                lambda t: f"({t[0]})^{t[1]}"),
        ), max_leaves=6)
    garbage = st.text(alphabet=_DSL_CHARS, max_size=12)
    wrapped = st.tuples(st.sampled_from(_OVERFLOW_WRAPPERS),
                        st.one_of(st.sampled_from(_DSL_POOL), generated)).map(
        lambda t: t[0].format(t[1]))
    return st.one_of(st.sampled_from(_DSL_POOL), generated, garbage, wrapped,
                     st.sampled_from([None, 3, [], {}]))


_NUMBER = st.one_of(st.integers(-5, 5), st.floats(-10.0, 10.0, allow_nan=False),
                    st.sampled_from([0.0, -0.0, 1e-300, 5e-324, 1e308, 700.0, 800.0,
                                     float("nan"), float("inf"), "1", None, True]))
_RANGE = st.one_of(
    st.sampled_from([[-1, 1], [0, 2], [700, 800], [0.5, 5], [-5, 5], [0, 1e-300],
                     [1, 1 + 1e-15], [1, 0], [0], "x"]),
    st.lists(_NUMBER, min_size=2, max_size=2))


@st.composite
def _documents(draw):
    doc = {
        "curve": {"x": draw(_dsl()), "y": draw(_dsl()), "z": draw(_dsl()),
                  "s_range": draw(_RANGE)},
        "theta": draw(st.one_of(
            st.builds(lambda t: {"mode": "rmf", "theta0": t}, _NUMBER),
            st.builds(lambda e: {"mode": "explicit", "expr": e}, _dsl()),
            st.sampled_from([{"mode": "rmf"}, {"mode": "other", "theta0": 0},
                             {"mode": "explicit", "expr": "s", "theta0": 0}]))),
        "director": {"x1": draw(_dsl()), "x2": draw(_dsl()), "x3": draw(_dsl())},
        "grid": {"n_s": draw(st.one_of(st.integers(2, 9), _NUMBER)),
                 "n_v": draw(st.one_of(st.integers(2, 5), _NUMBER)),
                 "v_range": draw(_RANGE)},
        "tolerances": draw(st.dictionaries(
            st.sampled_from(["tol_dev", "tol_inv", "tol_K"]), _NUMBER, max_size=2)),
        "expect": draw(st.dictionaries(
            st.sampled_from(["developable", "geodesic", "asymptotic", "bogus"]),
            st.sampled_from(["yes", "no", True, False]), max_size=2)),
    }
    for key in draw(st.lists(st.sampled_from(sorted(doc)), max_size=2)):
        doc[key] = draw(st.sampled_from([None, 5, [], "x", {}]))
    return doc


def _g_doc(at: str, n_s: int) -> dict:
    """example2 under the RMF on a curve whose third derivative overflows
    around s = ``at``, so that tau is infinite or NaN at some angle-table nodes."""
    g = f"1e308*(atan(100*(s-{at}))/10000)*1e-308"
    return {"curve": {"x": "s", "y": f"s^2/2 + {g}", "z": g, "s_range": [0, 1]},
            "theta": {"mode": "rmf", "theta0": 0},
            "director": {"x1": "s^2", "x2": "s", "x3": "-s^2"},
            "grid": {"n_s": n_s, "n_v": 11, "v_range": [-1, 1]},
            "expect": {"asymptotic": True, "geodesic": False}}


@given(_documents(), st.sampled_from(RUNS))
@example(_g_doc("0.305", 101), RUNS[0])
@example(_g_doc("0.305", 3), RUNS[1])
@example(_g_doc("0.305", 3), RUNS[3])
@example(_g_doc("0.305", 3), RUNS[4])
# No node from s = 0 to about 0.04 has a rate: later queries bridge from node 0.
@example(_g_doc("0", 1001), RUNS[3])
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_fuzzed_config_ends_in_documented_exit_code(doc, run):
    name, extra = run
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "job.json")
        with open(cfg, "w") as fh:
            json.dump(doc, fh)  # NaN and infinity as JSON's NaN/Infinity tokens
        out_dir = os.path.join(tmp, "out")
        os.mkdir(out_dir)
        out = os.path.join(out_dir, "result")
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main([name.split("-")[0], "--config", cfg, "--out", out, *extra])
        assert code in (0, 1, 2, 3)
        assert not caught, [str(w.message) for w in caught]
        if code in (2, 3):
            assert err.getvalue().count("\n") == 1
            assert err.getvalue().startswith(("E_CONFIG: ", "E_GEOMETRY: "))
            assert os.listdir(out_dir) == []
        else:
            assert err.getvalue() == ""
            assert os.listdir(out_dir) == ["result"]
            with open(out) as fh:
                assert not nonfinite(name, fh.read())
