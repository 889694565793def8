import math
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superskel.errors import NotInvertibleError, SuperskelError
from superskel.poly import Polynomial, RationalFunction, _gcd_cofactors


def poly(nvars, terms):
    return Polynomial(nvars, terms)


def test_constructor_canonicalizes():
    p = poly(2, {(1, 0): F(2), (0, 0): F(0), (1, 0): F(2)})
    assert p.terms == {(1, 0): F(2)}
    assert poly(1, {(0,): 1}) + poly(1, {(0,): -1}) == Polynomial.zero(1)
    # two raw keys of one exponent tuple are summed, and can cancel to zero
    assert poly(1, {range(1, 2): 1, (1,): -1}).is_zero()
    assert poly(1, {range(1, 2): F(1, 2), (1,): F(1, 3), (0,): 1}) == \
        poly(1, {(1,): F(5, 6), (0,): 1})
    # mixed denominators come out over their lcm
    p = poly(2, {(1, 0): F(1, 4), (0, 1): F(1, 6), (0, 0): 2})
    assert (p._content, p._ints) == (F(1, 12), {(1, 0): 3, (0, 1): 2, (0, 0): 24})
    # outside input is validated: exponent arity, signs, integer exponents,
    # exact coefficients
    for nvars, terms, error in ((2, {(1,): 1}, SuperskelError),
                                (1, {(-1,): 1}, SuperskelError),
                                (1, {(1.5,): 1}, TypeError),
                                (1, {("1",): 1}, TypeError),
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
    # (p - p|_{x=1}) / (x - 1), the telescope step of hadamard_decompose
    x = Polynomial.variable(1, 0)
    p = x ** 2
    q = (p - p.partial_eval({0: F(1)})).exact_quotient(x - 1)
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
    one = Polynomial.one(1)
    # equal values whose factor lists differ: one factor x^2 + x against the
    # coprime pair x, x + 1
    a = RationalFunction(x ** 2 + x).invert()
    b = RationalFunction(one, x) * RationalFunction(one, x + 1)
    assert a.factors != b.factors and a.num == b.num
    assert a == b and b == a
    # equal numerators over different lists, unequal values
    c = RationalFunction(one, x * (x + 2))
    assert a.factors != c.factors and a.num == c.num
    assert a != c and c != a
    # an unreduced value still equals its reduced form
    from superskel import poly as poly_module

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(poly_module, "_gcd_cofactors", lambda p, q: None)
        unreduced = RationalFunction(x ** 2 - 1, x - 1)
        assert unreduced.factors == ((x - 1, 1),)
        assert unreduced == x + 1


def test_rational_arithmetic_and_quotient_rule():
    x = Polynomial.variable(1, 0)
    inv = RationalFunction(Polynomial.one(1), x)
    assert inv + inv == RationalFunction(Polynomial.constant(1, 2), x)
    assert inv.derivative(0) == RationalFunction(-Polynomial.one(1), x ** 2)
    assert (inv * inv).invert() == RationalFunction(x ** 2)
    with pytest.raises(NotInvertibleError):
        RationalFunction(Polynomial.zero(1)).invert()
    # a number over a rational function runs the reflected division
    assert 3 / RationalFunction(x + 1) == RationalFunction(Polynomial.constant(1, 3), x + 1)
    assert F(1, 2) / inv == RationalFunction(x * F(1, 2))
    with pytest.raises(NotInvertibleError):
        1 / RationalFunction(Polynomial.zero(1))


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
        ((p - p.partial_eval({index: scalar})).exact_quotient(
            Polynomial.variable(nvars, index) - scalar),
         sympy.cancel((P - P.subs(x, s)) / (x - s))),
        (p.pad(nvars + 1), P),
    ]
    for result, expected in cases:
        # canonical (each exponent tuple once, no zero coefficient), which
        # __eq__ and __hash__ compare
        assert all(result.terms.values())
        assert Polynomial(result.nvars, result.terms).terms == result.terms
        assert sympy.expand(expr(result) - expected) == 0


# Coefficients whose denominators share primes, so common denominators and
# contents are not plain products; negative numerators included.
_SHARED_PRIMES = st.builds(F, st.integers(-30, 30), st.sampled_from((1, 2, 3, 6, 10, 15)))


@st.composite
def _dense_or_sparse(draw, nvars):
    """A dense polynomial (every monomial up to a total degree) or a sparse
    one (a few monomials of degree up to 6 in each variable)."""
    if draw(st.booleans()):
        degree = draw(st.integers(0, 3))
        monomials = [e for e in product(range(degree + 1), repeat=nvars) if sum(e) <= degree]
        return Polynomial(nvars, {e: draw(_SHARED_PRIMES) for e in monomials})
    exps = st.tuples(*[st.integers(0, 6)] * nvars)
    return Polynomial(nvars, draw(st.dictionaries(exps, _SHARED_PRIMES, max_size=4)))


@st.composite
def _representation_cases(draw):
    nvars = draw(st.integers(1, 3))
    a, b, c = (draw(_dense_or_sparse(nvars)) for _ in range(3))
    return nvars, a, b, c


def _assert_stored_form(p):
    """Content a positive Fraction (1 for zero), integer part primitive with
    no zero entry, exponent tuples of the polynomial's arity."""
    assert type(p._content) is F and p._content > 0
    assert all(type(c) is int and c for c in p._ints.values())
    assert all(len(e) == p.nvars and min(e, default=0) >= 0 for e in p._ints)
    if p._ints:
        assert math.gcd(*p._ints.values()) == 1
    else:
        assert p._content == 1


@settings(max_examples=80, deadline=None)
@given(_representation_cases(), _SHARED_PRIMES.filter(bool), st.integers(0, 2))
def test_content_times_primitive_part_after_every_operation(case, scalar, index):
    """Every operation returns the stored form, agrees with sympy's
    polynomial ring over QQ, reads back from its own ``terms``, and hashes
    equal to the same value built by another route."""
    sympy = pytest.importorskip("sympy")
    nvars, a, b, c = case
    index %= nvars
    ring, *gens = sympy.ring(",".join(f"x{i}" for i in range(nvars)), sympy.QQ)

    def element(p):
        out = ring.zero
        for exps, coeff in p.terms.items():
            term = ring(sympy.QQ(coeff.numerator, coeff.denominator))
            for gen, e in zip(gens, exps):
                term *= gen ** e
            out += term
        return out

    A, B = element(a), element(b)
    s = sympy.QQ(scalar.numerator, scalar.denominator)
    cases = [(a + b, A + B), (a - b, A - B), (-a, -A), (a * b, A * B), (a * scalar, A * s),
             (a / scalar, A / s), (a * 0, ring.zero), (a.derivative(index), A.diff(gens[index]))]
    if not b.is_zero():
        cases.append(((a * b).exact_quotient(b), A))
        quotient = a.exact_quotient(b)
        if A.rem(B) == 0:
            cases.append((quotient, A.quo(B)))
        else:
            assert quotient is None
    if not a.is_zero() and not b.is_zero():
        parts = _gcd_cofactors(a, b)
        assert parts is not None  # inputs this small never exhaust GCDHEU's tries
        g = Polynomial.one(nvars) if parts[0] is None else parts[0]
        assert g * parts[1] == a and g * parts[2] == b
        cases += [(g, A.gcd(B).monic()), (a.gcd(b), A.gcd(B).monic()),
                  (parts[1], None), (parts[2], None)]
    for result, expected in cases:
        _assert_stored_form(result)
        if expected is not None:
            assert element(result) == expected
        assert Polynomial(nvars, result.terms) == result
        assert hash(Polynomial(nvars, result.terms)) == hash(result)
    padded = a.pad(nvars + 1)
    _assert_stored_form(padded)
    assert padded.terms == {e + (0,): v for e, v in a.terms.items()}
    for left, right in [((a * b) * c, a * (b * c)), (a + b - b, a), ((a + b) + c, a + (b + c)),
                        (a * scalar / scalar, a), (a * b - b * a, Polynomial.zero(nvars))]:
        assert left == right and hash(left) == hash(right)


def test_terms_is_a_fresh_fraction_view():
    p = Polynomial(1, {(2,): F(2, 3), (0,): F(-4, 9)})
    assert (p._content, p._ints) == (F(2, 9), {(2,): 3, (0,): -2})
    view = p.terms
    assert view == {(2,): F(2, 3), (0,): F(-4, 9)}
    assert all(type(c) is F for c in view.values())
    view[(1,)] = F(1)
    assert p.terms == {(2,): F(2, 3), (0,): F(-4, 9)} and p.terms is not p.terms


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
    """A factor need not be irreducible: 1/x^2 has the one factor x^2.  Its
    gcd x with the numerator x splits it, so x/x^2 is stored as 1/x, and
    products, powers and inverses of that stay in lowest terms."""
    x = Polynomial.variable(1, 0)
    one = Polynomial.one(1)
    half = RationalFunction(one, x ** 2) * x
    assert (half.num, half.factors) == (one, ((x, 1),))
    for result, num, factors in [(half.invert(), x, ()),
                                 (half ** 2, one, ((x, 2),)),
                                 (half * x, one, ()),
                                 (half * half, one, ((x, 2),))]:
        assert (result.num, result.factors) == (num, factors)


def _sympy_expr(poly, xs):
    import sympy

    return sum((sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*(x ** e for x, e in zip(xs, exps)))
                for exps, c in poly.terms.items()), sympy.Integer(0))


@st.composite
def _gcd_cases(draw):
    """Two polynomials in 1-3 variables of one of four kinds: generic (mostly
    coprime), with a planted common factor, with rational content, or with a
    constant or zero argument."""
    nvars = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 2)] * nvars)

    def poly():
        return Polynomial(nvars, draw(st.dictionaries(exps, _NONZERO, min_size=1, max_size=3)))

    kind = draw(st.sampled_from(("coprime", "planted", "content", "constant")))
    a, b = poly(), poly()
    if kind == "planted":
        common = poly()
        a, b = a * common, b * common
    elif kind == "content":
        a, b = a * F(6, 35), b * F(-10, 21)
    elif kind == "constant":
        b = draw(st.sampled_from((Polynomial.zero(nvars),
                                  Polynomial.constant(nvars, draw(_NONZERO)))))
        a, b = draw(st.permutations((a, b)))
    return nvars, a, b


@settings(max_examples=150, deadline=None)
@given(_gcd_cases())
def test_gcd_matches_sympy(case):
    sympy = pytest.importorskip("sympy")
    nvars, a, b = case
    xs = sympy.symbols(f"x0:{nvars}")
    g = a.gcd(b)
    assert g is not None  # inputs this small never exhaust GCDHEU's tries
    expected = sympy.gcd(_sympy_expr(a, xs), _sympy_expr(b, xs))
    if expected == 0:
        assert g.is_zero()
        return
    assert g.terms[max(g.terms)] == 1  # monic
    ratio = sympy.cancel(_sympy_expr(g, xs) / expected)
    assert ratio.is_number and ratio != 0
    # the candidate passed the exact-division check
    for p in (a, b):
        assert p.is_zero() or p.exact_quotient(g) is not None


def test_gcd_examples():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    assert (x ** 2 - y ** 2).gcd(x * 3 + y * 3) == x + y
    assert (x * y).gcd(x ** 2 * F(1, 2)) == x
    assert (x + 1).gcd(y + 1) == Polynomial.one(2)
    assert Polynomial.zero(2).gcd(y * 2 + 4) == y + 2
    assert Polynomial.zero(2).gcd(Polynomial.zero(2)) == Polynomial.zero(2)
    # GCDHEU checks candidates on integer polynomials, where a quotient
    # coefficient that is not an integer means "does not divide"
    from superskel.poly import _lex_quotient

    assert _lex_quotient({(1,): 3, (0,): 1}, {(1,): 2, (0,): 1}, 0) is None
    assert _lex_quotient({(2,): 2, (1,): 3, (0,): 1}, {(1,): 2, (0,): 1}, 1) == \
        {(1,): 1, (0,): 1}


@st.composite
def _composite_rationals(draw, nvars):
    """c * N / D where N and each factor of D are products of pool
    polynomials, repeats allowed, times a constant: D's factors come from
    inverting such products, so they are composite, associated, and share
    irreducible parts with each other and with numerators."""
    pool = [Polynomial(nvars, t) for t in _IRREDUCIBLE[nvars]]

    def product():
        result = Polynomial.constant(nvars, draw(_NONZERO))
        for factor in draw(st.lists(st.sampled_from(pool), max_size=3)):
            result = result * factor
        return result

    rf = RationalFunction(product())
    for _ in range(draw(st.integers(0, 2))):
        rf = rf * RationalFunction(product()).invert()
    return rf


@st.composite
def _composite_cases(draw):
    nvars = draw(st.integers(1, 2))
    return nvars, draw(_composite_rationals(nvars)), draw(_composite_rationals(nvars))


def _field(nvars):
    """sympy's field of rational functions over Q, for fast exact oracles."""
    sympy = pytest.importorskip("sympy")
    field, *gens = sympy.field(",".join(f"x{i}" for i in range(nvars)), sympy.QQ)
    return field, gens


def _ring_element(poly, field):
    ring = field.ring
    out = ring.zero
    for exps, c in poly.terms.items():
        term = ring(field.domain(c.numerator, c.denominator))
        for gen, e in zip(ring.gens, exps):
            term *= gen ** e
        out += term
    return out


def _field_element(rf, field):
    return field(_ring_element(rf.num, field)) / field(_ring_element(rf.den, field))


def _composite_results(a, b, power, index):
    """(label, result, the same operation on field elements)."""
    return [("a + b", a + b, lambda A, B, gens: A + B),
            ("a - b", a - b, lambda A, B, gens: A - B),
            ("(a + b) - b", (a + b) - b, lambda A, B, gens: A),
            ("a * b", a * b, lambda A, B, gens: A * B),
            ("a / b", a / b, lambda A, B, gens: A / B),
            ("a ** n", a ** power, lambda A, B, gens: A ** power),
            ("1 / a", a.invert(), lambda A, B, gens: 1 / A),
            ("d a", a.derivative(index), lambda A, B, gens: A.diff(gens[index]))]


def _total_degree(ring_element):
    return max((sum(m) for m in ring_element.monoms()), default=-1)


@settings(max_examples=150, deadline=None)
@given(_composite_cases(), st.integers(0, 3), st.integers(0, 1))
def test_composite_factors_stay_coprime_and_reduced(case, power, index):
    """Every result has pairwise coprime factors (I1), a numerator coprime to
    each (I2), and the stored degrees of the reduced value."""
    nvars, a, b = case
    index %= nvars
    field, gens = _field(nvars)
    A, B = _field_element(a, field), _field_element(b, field)
    for label, result, build in _composite_results(a, b, power, index):
        expected = build(A, B, gens)  # sympy keeps field elements reduced
        assert _field_element(result, field) == expected, label
        factors = [_ring_element(f, field) for f, _ in result.factors]
        num = _ring_element(result.num, field)
        for i, f in enumerate(factors):
            assert num.gcd(f).is_ground, label
            assert all(f.gcd(g).is_ground for g in factors[i + 1:]), label
        if not result.is_zero():
            assert result.num.degree() == _total_degree(expected.numer), label
            assert result.den.degree() == _total_degree(expected.denom), label


@settings(max_examples=80, deadline=None)
@given(_composite_cases(), st.integers(0, 3), st.integers(0, 1))
def test_undecided_gcd_keeps_values_exact(case, power, index):
    """With every gcd undecided, no factor cancels: results may stay out of
    lowest terms, but each value is still right."""
    from superskel import poly as poly_module

    nvars, a, b = case
    index %= nvars
    field, gens = _field(nvars)
    A, B = _field_element(a, field), _field_element(b, field)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(poly_module, "_gcd_cofactors", lambda p, q: None)
        assert a.num.gcd(b.num) is None or a.is_zero() or b.is_zero()
        results = _composite_results(a, b, power, index)
        results.append(("constructor", RationalFunction(a.num * b.num, a.den * b.den),
                        lambda A, B, gens: A * B))
    for label, result, build in results:
        assert _field_element(result, field) == build(A, B, gens), label
