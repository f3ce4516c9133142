import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from differential import BAD_COEFFS, BAD_THETAS, COEFFS, THETAS
from rmfruled import expr as ex
from test_fuzz import _DSL_POOL, _dsl


def test_parse_single_power():
    e = ex.parse("s^2")
    assert e == ex.BinOp("^", ex.Var(), ex.Num(2.0))


def test_parse_function():
    assert ex.parse("atan(s)") == ex.Call("atan", ex.Var())


def test_parse_precedence_div_times():
    e = ex.parse("3/5*cos(s)")
    assert e == ex.BinOp("*", ex.BinOp("/", ex.Num(3.0), ex.Num(5.0)),
                         ex.Call("cos", ex.Var()))


def test_parse_power_right_assoc():
    e = ex.parse("2^3^2")
    assert e == ex.BinOp("^", ex.Num(2.0), ex.BinOp("^", ex.Num(3.0), ex.Num(2.0)))
    assert ex.eval_jet(e, 0.0).value == 512.0


def test_parse_unary_minus_binds_below_power():
    e = ex.parse("-s^2")
    assert e == ex.Neg(ex.BinOp("^", ex.Var(), ex.Num(2.0)))


def test_unbalanced_paren_offset():
    with pytest.raises(ex.ExprSyntaxError) as exc:
        ex.parse("sin(")
    assert exc.value.offset == 4
    assert exc.value.expected


def test_trailing_blank_is_ignored():
    assert ex.parse("s ") == ex.Var()


def test_unclosed_call_expects_its_parenthesis():
    with pytest.raises(ex.ExprSyntaxError) as exc:
        ex.parse("sin(s")
    assert exc.value.offset == 5 and exc.value.expected == ("')'",)


def test_trailing_garbage_offset():
    with pytest.raises(ex.ExprSyntaxError) as exc:
        ex.parse("1+2 )")
    assert exc.value.offset == 4


def test_unknown_identifier():
    with pytest.raises(ex.UnknownIdentifierError) as exc:
        ex.parse("2*foo(s)")
    assert exc.value.offset == 2


def test_variable_exponent_rejected():
    with pytest.raises(ex.ExprSyntaxError):
        ex.parse("2^s")
    with pytest.raises(ex.ExprSyntaxError):
        ex.parse("s^(s+1)")


def test_pi_constant():
    assert ex.eval_jet("pi", 0.0).value == pytest.approx(math.pi)
    assert ex.eval_jet("cos(pi)", 1.0).value == pytest.approx(-1.0)


def test_eval_polynomial_jet():
    j = ex.eval_jet("s^2", 3.0)
    assert (j.value, j.d1, j.d2, j.d3) == (9.0, 6.0, 2.0, 0.0)


def test_eval_sin_maclaurin():
    j = ex.eval_jet("sin(s)", 0.0)
    assert (j.value, j.d1, j.d2, j.d3) == (0.0, 1.0, 0.0, -1.0)


def test_eval_atan_third_order():
    # d3 of atan is (6 s^2 - 2)/(1 + s^2)^3, so 1/2 at s = 1
    j = ex.eval_jet("atan(s)", 1.0)
    assert j.value == pytest.approx(math.pi / 4, abs=1e-15)
    assert j.d1 == pytest.approx(0.5, abs=1e-15)
    assert j.d2 == pytest.approx(-0.5, abs=1e-15)
    assert j.d3 == pytest.approx(0.5, abs=1e-15)


def test_domain_errors_name_subexpression():
    with pytest.raises(ex.ExprDomainError) as exc:
        ex.eval_jet("1/(s-1)", 1.0)
    assert "s-1" in str(exc.value)
    with pytest.raises(ex.ExprDomainError):
        ex.eval_jet("log(s)", -1.0)
    with pytest.raises(ex.ExprDomainError):
        ex.eval_jet("sqrt(s)", -4.0)
    with pytest.raises(ex.ExprDomainError):
        ex.eval_jet("(-2)^0.5", 0.0)


def test_negative_base_integer_exponent_ok():
    j = ex.eval_jet("(s-3)^3", 1.0)
    assert j.value == -8.0
    assert j.d1 == 12.0


# ---------------------------------------------------------------------------
# properties

_leaves = st.sampled_from([ex.Var(), ex.Pi()]) | st.builds(
    ex.Num, st.floats(min_value=0.0, max_value=10.0, allow_nan=False).map(
        lambda v: round(v, 3)))


def _exprs():
    def extend(children):
        return (
            st.builds(ex.Neg, children)
            | st.builds(lambda op, a, b: ex.BinOp(op, a, b),
                        st.sampled_from("+-*/"), children, children)
            | st.builds(lambda a, p: ex.BinOp("^", a, ex.Num(float(p))),
                        children, st.integers(min_value=0, max_value=3))
            | st.builds(lambda f, a: ex.Call(f, a),
                        st.sampled_from(ex.FUNCTIONS), children)
        )
    return st.recursive(_leaves, extend, max_leaves=12)


@given(_exprs())
@settings(max_examples=200)
def test_print_parse_round_trip(e):
    assert ex.parse(ex.to_string(e)) == e


def _central_differences(e, s, h):
    """Five-point central estimates of (d1, d2, d3) with step h, and the
    rounding floor eps * max|value| / h^k of each."""
    v = [ex.eval_jet(e, s + k * h).value for k in (-2, -1, 0, 1, 2)]
    rounding = [np.finfo(float).eps * max(map(abs, v)) / h ** k for k in (1, 2, 3)]
    return ((v[3] - v[1]) / (2 * h), (v[3] - 2 * v[2] + v[1]) / h ** 2,
            (v[4] - 2 * v[3] + 2 * v[1] - v[0]) / (2 * h ** 3)), rounding


_JET_TOLS = (1e-5, 1e-3, 1e-1)  # on d1, d2, d3, relative to the largest

# sqrt(c - s) at 2.5e-4 from its branch point: the differences with h = 1e-4
# miss d3 by more than the bound, so only the closed form can judge the jet
_BRANCH_C, _BRANCH_S = 0.594, 0.59375
_NEAR_BRANCH = ex.Call("sqrt", ex.BinOp("-", ex.Num(_BRANCH_C), ex.Var()))


@given(_exprs(), st.floats(min_value=0.3, max_value=2.4))
@example(_NEAR_BRANCH, _BRANCH_S)
@settings(max_examples=200)
def test_jet_matches_finite_differences(e, s):
    h = 1e-4
    try:
        j = ex.eval_jet(e, s)
        (coarse, rounding), (fine, _) = (_central_differences(e, s, step)
                                         for step in (h, h / 2))
    except ex.ExprDomainError:
        return
    # The oracle's own error at h: truncation, by Richardson (the h and h/2
    # estimates differ by about 3/4 of it), plus rounding.  Where that is not
    # below half the tolerance on the oracle's own scale, or not finite, the
    # differences have not converged and cannot judge the jet.
    own = max(1.0, *map(abs, fine))
    if not (math.isfinite(own) and all(
            abs(c - f) + r <= tol * own / 2
            for c, f, r, tol in zip(coarse, fine, rounding, _JET_TOLS))):
        return
    scale = max(1.0, abs(j.d1), abs(j.d2), abs(j.d3))
    for got, want, tol in zip((j.d1, j.d2, j.d3), coarse, _JET_TOLS):
        assert abs(got - want) < tol * scale


def test_jet_near_branch_point_matches_closed_form():
    j = ex.eval_jet(_NEAR_BRANCH, _BRANCH_S)
    r = _BRANCH_C - _BRANCH_S
    closed = (r ** 0.5, -0.5 * r ** -0.5, -0.25 * r ** -1.5, -0.375 * r ** -2.5)
    scale = max(1.0, *map(abs, closed[1:]))
    assert j.value == pytest.approx(closed[0], rel=1e-15)
    for got, want, tol in zip((j.d1, j.d2, j.d3), closed[1:], _JET_TOLS):
        assert abs(got - want) < tol * scale


# ---------------------------------------------------------------------------
# grid evaluation


def _bits(j):
    """The bytes of each field of a jet, d2 and d3 left out at order 1."""
    return [np.asarray(f, dtype=float).tobytes() for f in (j.value, j.d1, j.d2, j.d3)
            if f is not None]


def _assert_grid_matches_points(e, grid, order=3):
    """Each grid row is NaN in every field exactly where the float evaluation
    raises, and equal to it bit for bit elsewhere.  Returns the rows that are
    NaN."""
    jg = ex.eval_jet(e, grid, order)
    failed = []
    for k, s in enumerate(grid.tolist()):
        row = [f[k] for f in (jg.value, jg.d1, jg.d2, jg.d3) if f is not None]
        try:
            jp = ex.eval_jet(e, s, order)
        except ex.ExprDomainError:
            assert np.isnan(row).all(), (e, s)
            failed.append(k)
            continue
        assert _bits(jp) == [np.asarray(f).tobytes() for f in row], (e, s)
    return failed


@pytest.mark.parametrize("text,lo,hi", [
    ("sin(s)", -40.0, 40.0), ("cos(3*s)", -40.0, 40.0), ("tan(s)", -1.5, 1.5),
    ("atan(s^2)", -30.0, 30.0), ("sqrt(s)", 1e-3, 50.0), ("exp(-s/2)", -20.0, 20.0),
    ("log(s)", 1e-3, 1e3), ("abs(s)", -2.0, 2.0), ("abs(s^3)", -1.0, 1.0),
    ("s^3", -3.0, 3.0), ("s^-2", 0.1, 9.0), ("s^1.5", 0.01, 4.0), ("s^0.5", 0.5, 4.0),
    ("(s-1)^0", -2.0, 2.0), ("1/(2+s)", -1.0, 7.0), ("s/(1+s^2)", -5.0, 5.0),
    ("-s^2", -3.0, 3.0), ("-(sin(s)*cos(s))", -3.0, 3.0), ("2", -1.0, 1.0),
    ("pi*s", -1.0, 1.0), ("3/5*cos(s)", -5.0, 5.0),
    ("exp(sin(s))/sqrt(2+cos(s))^3", -4.0, 4.0), ("log(1+s^2)*atan(s)", -9.0, 9.0),
])
def test_grid_jet_equals_pointwise_jets(text, lo, hi):
    grid = np.concatenate([np.linspace(lo, hi, 257),
                           np.random.default_rng(7).uniform(lo, hi, 200)])
    _assert_grid_matches_points(ex.parse(text), grid)


@given(_exprs(), st.floats(min_value=-3.0, max_value=3.0),
       st.floats(min_value=0.01, max_value=3.0))
@settings(max_examples=150, deadline=None)
def test_grid_jet_property(e, lo, width):
    # a grid never raises; its rows follow the float evaluation, row by row
    _assert_grid_matches_points(e, np.linspace(lo, lo + width, 9))


# The rows of np.linspace(lo, hi, 11) where each float evaluation raises: at a
# pole, outside a domain, past the float range, and (a failing subexpression
# without s) at every row.
_FAILING_ROWS = {
    "log(s)": range(6), "sqrt(s)": range(6), "1/s": [5], "s^-1": [5],
    "s^0.5": range(6), "exp(s)": range(1, 11), "tan(1/s)": [5], "sin(1/s)": [5],
    "atan(1/s)": [5], "log(s)^0": range(6), "(1/s)^0": [5],
    "exp(1000)*s": range(11), "s+1/0": range(11), "0^-1": range(11),
    "s^(2^3^4^5)": range(11), "1/(1e200+s)": range(11),
}


@pytest.mark.parametrize("text,lo,hi", [
    ("log(s)", -1.0, 1.0), ("sqrt(s)", -1.0, 1.0), ("1/s", -1.0, 1.0),
    ("s^-1", -1.0, 1.0), ("s^0.5", -1.0, 1.0), ("exp(s)", 700.0, 800.0),
    ("tan(1/s)", -1.0, 1.0), ("sin(1/s)", -1.0, 1.0), ("atan(1/s)", -1.0, 1.0),
    ("log(s)^0", -1.0, 1.0), ("(1/s)^0", -1.0, 1.0), ("exp(1000)*s", -1.0, 1.0),
    ("s+1/0", -1.0, 1.0), ("0^-1", -1.0, 1.0), ("s^(2^3^4^5)", -1.0, 1.0),
    ("1/(1e200+s)", -1.0, 1.0),  # x^2 overflows, though -1/x^2 would not
])
def test_grid_domain_error_on_some_nodes(text, lo, hi):
    failed = _assert_grid_matches_points(ex.parse(text), np.linspace(lo, hi, 11))
    assert failed == list(_FAILING_ROWS[text])


_BASES = np.concatenate([
    [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 2.0, 0.5, 1.7e308, -1.7e308, 1e103, 1e155],
    np.random.default_rng(11).choice([-1.0, 1.0], 4000)
    * 10.0 ** np.random.default_rng(12).uniform(-324.0, 308.2, 4000),
])


@pytest.mark.parametrize("p", [-4.0, -3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0,
                               0.5, -0.5, 1.5, 2.5, 1 / 3, -2.75, 3.7])
def test_power_on_an_array_rounds_as_float_power(p):
    # a negative base takes only integer exponents (the DSL refuses the rest)
    bases = _BASES if p == round(p) else np.abs(_BASES)
    with np.errstate(all="ignore"):
        got = ex.power(bases, p)
    for x, g in zip(bases.tolist(), got.tolist()):
        try:
            want = x ** p
        except (OverflowError, ZeroDivisionError):  # numpy gives inf instead
            assert math.isinf(g), (x, p)
            continue
        assert np.float64(g).tobytes() == np.float64(want).tobytes(), (x, p)


# ---------------------------------------------------------------------------
# jets of order 1

_ORDER_1_GRID = np.r_[np.linspace(-2.0, 2.0, 41), -0.0, 1e-300, 700.0, 800.0]


def _assert_order_1_is_order_3_cut_short(text):
    """At order 1, d2 and d3 are None, and the value and d1 equal order 3's
    bit for bit, at floats and on a grid, wherever order 3 does not raise;
    the order-1 grid keeps the float path of order-1 float calls."""
    try:
        e = ex.parse(text)
    except (ex.ExprSyntaxError, RecursionError):
        return
    grid1, grid3 = ex.eval_jet(e, _ORDER_1_GRID, 1), ex.eval_jet(e, _ORDER_1_GRID)
    assert grid1.d2 is None and grid1.d3 is None
    for k, s in enumerate(_ORDER_1_GRID.tolist()):
        try:
            want = _bits(ex.eval_jet(e, s))[:2]
        except ex.ExprDomainError:
            continue
        point = ex.eval_jet(e, s, 1)
        assert point.d2 is None and point.d3 is None
        assert _bits(point) == want, (text, s)
        assert _bits(ex.Jet3(grid1.value[k], grid1.d1[k], None, None)) == want, (text, s)
        assert _bits(ex.Jet3(grid3.value[k], grid3.d1[k], None, None)) == want, (text, s)
    _assert_grid_matches_points(e, _ORDER_1_GRID, order=1)


@pytest.mark.parametrize("text", sorted(set(_DSL_POOL + COEFFS + BAD_COEFFS
                                            + THETAS + BAD_THETAS)))
def test_order_1_is_order_3_cut_short_on_the_pools(text):
    _assert_order_1_is_order_3_cut_short(text)


@settings(max_examples=200, deadline=None)
@given(_dsl())
def test_order_1_is_order_3_cut_short_on_generated_dsl(text):
    if isinstance(text, str):
        _assert_order_1_is_order_3_cut_short(text)


def test_order_1_reaches_a_point_where_d2_is_not_finite():
    # s^1.5 is C^1 at 0, where its d2 takes 0^-0.5
    with pytest.raises(ex.ExprDomainError, match="zero base with negative exponent"):
        ex.eval_jet("s^1.5", 0.0)
    assert ex.eval_jet("s^1.5", 0.0, 1) == ex.Jet3(0.0, 0.0, None, None)
    grid = ex.eval_jet("s^1.5", np.array([0.0, 1.0]), 1)
    assert grid.value.tolist() == [0.0, 1.0] and grid.d1.tolist() == [0.0, 1.5]
    # a row that is not finite is probed by a float call of order 1
    grid = ex.eval_jet("s^1.5 + 1e308*10", np.array([0.0, 1.0]), 1)
    assert grid.value.tolist() == [math.inf] * 2 and grid.d1.tolist() == [0.0, 1.5]


@pytest.mark.parametrize("text,lo,hi", [
    *((text, -1.0, 1.0) for text in sorted(_FAILING_ROWS) if text != "exp(s)"),
    ("exp(s)", 700.0, 800.0), ("s/exp(s)", 350.0, 360.0)])
def test_grid_of_order_1_fails_where_its_float_calls_do(text, lo, hi):
    # exp(s)^2 overflows from s = 354.9: -1/exp(s)^2 is -0 on the grid, while
    # the float call raises
    failed = _assert_grid_matches_points(ex.parse(text), np.linspace(lo, hi, 11), 1)
    assert failed == list(_FAILING_ROWS.get(text, range(5, 11)))
