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


# Denominator factors come from pools of irreducible, pairwise non-associate
# polynomials over Q, and numerators are a constant times 1 or one irreducible
# polynomial.  Trial division by irreducible factors finds every common factor,
# so each result below must be stored exactly in lowest terms.
_IRREDUCIBLE = {
    1: [{(2,): 1, (0,): 1}, {(1,): 1, (0,): -2}, {(1,): 1, (0,): 1},
        {(2,): 1, (1,): 1, (0,): 1}, {(2,): 1, (0,): -3}, {(3,): 1, (1,): -1, (0,): -1}],
    2: [{(2, 0): 1, (0, 0): 1}, {(1, 1): 1, (0, 0): 1}, {(0, 1): 1, (0, 0): 2},
        {(1, 0): 1, (0, 1): 1}, {(2, 0): 1, (0, 2): 1, (0, 0): 1},
        {(1, 0): 1, (0, 1): -1, (0, 0): 1}, {(0, 2): 1, (0, 0): -2}],
}
_NONZERO = _FRACTIONS.filter(bool)


@st.composite
def _factored_rationals(draw, nvars):
    """c * N / prod(p^d), built by arithmetic so the denominator is factored."""
    pool = [Polynomial(nvars, t) for t in _IRREDUCIBLE[nvars]]
    num = Polynomial.constant(nvars, draw(_NONZERO))
    if draw(st.booleans()):
        num = num * draw(st.sampled_from(pool))
    rf = RationalFunction(num)
    for factor in draw(st.lists(st.sampled_from(pool), max_size=3)):
        # a constant multiple of the factor: the normal form makes it monic
        rf = rf * RationalFunction(Polynomial.one(nvars), factor * draw(_NONZERO))
    return rf


@st.composite
def _affine_values(draw, nvars):
    """x_i -> d_i x_i + (later variables) + c_i with d_i nonzero, the images
    maybe swapped: an invertible affine change of variables, as rational
    functions.  It keeps irreducible polynomials irreducible and non-associate."""
    images = []
    for i in range(nvars):
        terms = {(0,) * nvars: draw(_FRACTIONS)}
        for j in range(i, nvars):
            terms[tuple(int(k == j) for k in range(nvars))] = draw(
                _NONZERO if j == i else _FRACTIONS)
        images.append(RationalFunction(Polynomial(nvars, terms)))
    return images[::-1] if draw(st.booleans()) else images


@st.composite
def _rational_cases(draw):
    nvars = draw(st.integers(1, 2))
    return (nvars, draw(_factored_rationals(nvars)), draw(_factored_rationals(nvars)),
            draw(_affine_values(nvars)))


@settings(max_examples=40, deadline=None)
@given(_rational_cases(), st.integers(0, 3), st.integers(0, 1))
def test_rational_results_in_lowest_terms(case, power, index):
    sympy = pytest.importorskip("sympy")
    nvars, a, b, values = case
    index %= nvars
    xs = sympy.symbols(f"x0:{nvars}")

    def poly_expr(poly, at=xs):
        return sum((sympy.Rational(c.numerator, c.denominator)
                    * sympy.Mul(*(x ** e for x, e in zip(at, exps)))
                    for exps, c in poly.terms.items()), sympy.Integer(0))

    def expr(rf, at=xs):
        return poly_expr(rf.num, at) / poly_expr(rf.den, at)

    A, B = expr(a), expr(b)
    at = [expr(v) for v in values]
    one = RationalFunction.constant(nvars, 1)
    cases = [(a + b, A + B), (a - b, A - B), (a * b, A * B), (a / b, A / B),
             (a ** power, A ** power), (a.invert(), 1 / A),
             (a.derivative(index), sympy.diff(A, xs[index])),
             (a.eval_in(values, one), expr(a, at))]
    for result, expected in cases:
        assert sympy.cancel(expr(result) - expected) == 0
        factors = [f for f, _ in result.factors]
        assert all(f.terms[max(f.terms)] == 1 and not f.is_constant() for f in factors)
        assert all(m >= 1 for _, m in result.factors)
        assert len(set(factors)) == len(factors)
        if result.is_zero():
            assert not result.factors
            continue
        num, den = sympy.fraction(sympy.cancel(expected))
        assert result.num.degree() == sympy.Poly(num, *xs).total_degree()
        assert result.den.degree() == sympy.Poly(den, *xs).total_degree()


def test_composite_factors_cancel_in_every_result():
    """A factor need not be irreducible: 1/x^2 has the one factor x^2, and x/x^2
    is reduced with respect to it.  Products, powers and inverses of such
    operands can still cancel, so each is trial-divided as a whole."""
    x = Polynomial.variable(1, 0)
    one = Polynomial.one(1)
    half = RationalFunction(one, x ** 2) * x
    assert (half.num, half.factors) == (x, ((x ** 2, 1),))
    for result, num, factors in [(half.invert(), x, ()),
                                 (half ** 2, one, ((x ** 2, 1),)),
                                 (half * x, one, ()),
                                 (half * half, one, ((x ** 2, 1),))]:
        assert (result.num, result.factors) == (num, factors)
