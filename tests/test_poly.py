from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superskel.errors import NotInvertibleError, SuperskelError
from superskel.poly import Polynomial, RationalFunction


def poly(nvars, terms):
    return Polynomial(nvars, terms)


def test_constructor_canonicalizes():
    p = poly(2, {(1, 0): F(2), (0, 0): F(0), (1, 0): F(2)})
    assert p.terms == {(1, 0): F(2)}
    assert poly(1, {(0,): 1}) + poly(1, {(0,): -1}) == Polynomial.zero(1)
    # outside input is validated: exponent arity, signs, exact coefficients
    for nvars, terms, error in ((2, {(1,): 1}, SuperskelError),
                                (1, {(-1,): 1}, SuperskelError),
                                (1, {(0,): 0.5}, TypeError)):
        with pytest.raises(error):
            Polynomial(nvars, terms)


def test_arithmetic():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    assert (x + y) * (x - y) == x * x - y * y
    assert (x + 1) ** 3 == x ** 3 + 3 * x ** 2 + 3 * x + 1
    assert x * 0 == Polynomial.zero(2)


def test_eval_and_derivative():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    p = x ** 2 * y + 2 * y
    assert p.eval((F(3), F(5))) == 45 + 10
    assert p.derivative(0) == 2 * x * y
    assert p.derivative(1) == x ** 2 + 2


def test_divide_by_linear():
    x = Polynomial.variable(1, 0)
    p = x ** 2
    q = p.divide_by_linear(0, F(1))
    assert q == x + 1
    assert q * (x - 1) + Polynomial.constant(1, p.eval((F(1),))) == p


def test_divide_by_variable():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    assert (x * y + x * x).divide_by_variable(0) == y + x
    with pytest.raises(SuperskelError):
        (x + y).divide_by_variable(1)


def test_rational_equality_cross_multiplied():
    x = Polynomial.variable(1, 0)
    a = RationalFunction(x ** 2 - 1, x - 1)
    b = RationalFunction(x + 1)
    assert a == b
    assert RationalFunction(x, x) == RationalFunction(Polynomial.one(1))


def test_rational_arithmetic_and_quotient_rule():
    x = Polynomial.variable(1, 0)
    inv = RationalFunction(Polynomial.one(1), x)
    assert inv + inv == RationalFunction(Polynomial.constant(1, 2), x)
    assert inv.derivative(0) == RationalFunction(-Polynomial.one(1), x ** 2)
    assert (inv * inv).invert() == RationalFunction(x ** 2)
    with pytest.raises(NotInvertibleError):
        RationalFunction(Polynomial.zero(1)).invert()


def test_constant_denominators_fold():
    x = Polynomial.variable(1, 0)
    r = RationalFunction(x, Polynomial.constant(1, 2))
    assert r.is_polynomial()
    assert r.num == x * F(1, 2)


def test_eval_in_with_ring_values():
    x = Polynomial.variable(1, 0)
    p = x ** 2 + 1
    assert p.eval_in([F(3)], F(1)) == F(10)


_FRACTIONS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def _polynomial_pairs(draw):
    """Two polynomials in 1-3 variables; the second repeats some terms of the
    first negated, so sums, differences and products cancel."""
    nvars = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    a = draw(st.dictionaries(exps, _FRACTIONS, max_size=4))
    b = draw(st.dictionaries(exps, _FRACTIONS, max_size=4))
    cancelled = draw(st.sets(st.sampled_from(sorted(a)))) if a else set()
    b.update({e: -a[e] for e in cancelled})
    return nvars, Polynomial(nvars, a), Polynomial(nvars, b)


@settings(max_examples=60, deadline=None)
@given(_polynomial_pairs(), _FRACTIONS, st.integers(0, 3), st.integers(0, 2))
def test_results_canonical_and_equal_to_sympy(pair, scalar, power, index):
    sympy = pytest.importorskip("sympy")
    nvars, p, q = pair
    index %= nvars
    xs = sympy.symbols(f"x0:{nvars + 1}")

    def expr(poly):
        return sum((sympy.Rational(c.numerator, c.denominator)
                    * sympy.Mul(*(x ** e for x, e in zip(xs, exps)))
                    for exps, c in poly.terms.items()), sympy.Integer(0))

    P, Q, x = expr(p), expr(q), xs[index]
    s = sympy.Rational(scalar.numerator, scalar.denominator)
    cases = [
        (p + q, P + Q), (p - q, P - Q), (-p, -P), (p * q, P * Q), (p ** power, P ** power),
        (p * scalar, P * s), (p * 0, 0), (p.derivative(index), sympy.diff(P, x)),
        (p.partial_eval({index: scalar}), P.subs(x, s)),
        (p.divide_by_linear(index, scalar), sympy.cancel((P - P.subs(x, s)) / (x - s))),
        (p.pad(nvars + 1), P),
    ]
    for result, expected in cases:
        # canonical (each exponent tuple once, no zero coefficient), which
        # __eq__ and __hash__ compare
        assert all(result.terms.values())
        assert Polynomial(result.nvars, result.terms).terms == result.terms
        assert sympy.expand(expr(result) - expected) == 0
