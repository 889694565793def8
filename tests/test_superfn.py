import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superskel import randgen
from superskel.errors import NotInvertibleError, ParityError, SpaceMismatchError, SuperskelError
from superskel.grassmann import GrassmannElement
from superskel.poly import Polynomial, RationalFunction
from superskel.spaces import DeWittDomain, SuperSpace
from superskel.superfn import Skeleton, SuperFunction, mul_shuffle

S12 = SuperSpace(1, 2)


def x(space=S12):
    return SuperFunction.even_coordinate(space, 1)

def t(j, space=S12):
    return SuperFunction.odd_coordinate(space, j)


def test_addition():
    f = x() * t(1)
    assert f + (-1) * f == SuperFunction.zero(S12)
    two_terms = x() + t(1) * t(2)
    assert len(two_terms.terms) == 2
    inv_x = SuperFunction(S12, DeWittDomain.full(S12),
                          {(): RationalFunction(Polynomial.one(1), Polynomial.variable(1, 0))})
    assert inv_x + inv_x == SuperFunction(
        S12, DeWittDomain.full(S12),
        {(): RationalFunction(Polynomial.constant(1, 2), Polynomial.variable(1, 0))})


def test_coefficient_reads_any_label_order():
    S13 = SuperSpace(1, 3)
    f = SuperFunction(S13, DeWittDomain.full(S13), {(1,): 5, (1, 2): 3, (1, 2, 3): F(1, 2)})
    constant = lambda value: RationalFunction.constant(1, value)
    assert f.coefficient((1, 2)) == constant(3)
    assert f.coefficient((2, 1)) == constant(-3)  # t2 t1 = -t1 t2
    assert f.coefficient((1, 1)).is_zero()  # t1 t1 = 0, not the t1 coefficient
    assert f.coefficient((1,)) == constant(5)
    assert f.coefficient((3, 1, 2)) == constant(F(1, 2))
    assert f.coefficient((2, 1, 3)) == f.alt_coeff((2, 1, 3)) == constant(F(-1, 2))
    assert f.coefficient((2, 3)).is_zero()
    # zero, negative and out-of-range labels name no monomial
    for labels in ((0,), (2, 0, 1), (-1, 2), (1, -1), (4,), (3, 2, 1, 4)):
        assert f.coefficient(labels).is_zero()
    # labels are integers
    for labels in ((1.5,), ("1",)):
        with pytest.raises(TypeError):
            SuperFunction(S13, DeWittDomain.full(S13), {labels: 1})


def test_product_examples():
    assert t(1) * t(2) == SuperFunction(S12, DeWittDomain.full(S12), {(1, 2): 1})
    assert (t(1) * t(2)) * t(1) == SuperFunction.zero(S12)
    assert (x() + t(1) * t(2)) * x() == x() ** 2 + x() * t(1) * t(2)


def test_shuffle_equals_monomial_examples():
    assert mul_shuffle(t(2), t(1)) == -(t(1) * t(2))
    assert mul_shuffle(t(1), t(2)) == t(1) * t(2)
    assert mul_shuffle(t(1) * t(2), t(1)) == SuperFunction.zero(S12)
    assert mul_shuffle(x() + t(1) * t(2), x()) == (x() + t(1) * t(2)) * x()


def test_shuffle_equals_monomial_random():
    rng = random.Random(11)
    for case in range(120):
        space = randgen.random_spaces(rng, 2, 4)
        f = randgen.random_superfunction(rng, space, degree=3, terms=3,
                                         rational=case % 5 == 0)
        g = randgen.random_superfunction(rng, space, degree=3, terms=3)
        assert mul_shuffle(f, g) == f * g


def test_supercommutativity_and_associativity():
    rng = random.Random(12)
    for _ in range(40):
        space = randgen.random_spaces(rng, 2, 3)
        pa, pb = rng.randint(0, 1), rng.randint(0, 1)
        f = randgen.random_superfunction(rng, space, degree=2, parity=pa)
        g = randgen.random_superfunction(rng, space, degree=2, parity=pb)
        h = randgen.random_superfunction(rng, space, degree=2)
        sign = F(-1 if pa and pb else 1)
        assert f * g == sign * (g * f)
        assert (f * g) * h == f * (g * h)
        one = SuperFunction.constant(space, 1)
        assert f * one == f and one * f == f


def test_powers_share_one_routine():
    """Every ``**`` refuses a negative or fractional exponent with one
    message, gives the ring's one at 0 and equals the repeated product."""
    x1 = Polynomial.variable(1, 0)
    punctured = DeWittDomain.full(S12).with_excluded([x1])
    f = SuperFunction(S12, punctured, {(): RationalFunction(x1 + 1, x1), (1, 2): 3})
    cases = [(x1 + 1, Polynomial.one(1)),
             (RationalFunction(Polynomial.one(1), x1), RationalFunction.constant(1, 1)),
             (GrassmannElement.generator(2, 1) + 3, GrassmannElement.unit(2)),
             (f, SuperFunction.constant(S12, 1))]
    for value, one in cases:
        for bad in (-1, F(1, 2)):
            with pytest.raises(SuperskelError, match="^powers must be non-negative integers$"):
                value ** bad
        assert value ** 0 == one
    assert (f ** 0).domain is punctured and (f ** 3).domain is punctured

    rng = random.Random(13)
    for case in range(12):
        space = randgen.random_spaces(rng, 2, 3)
        g = randgen.random_superfunction(rng, space, degree=2, rational=case % 2 == 0)
        product = SuperFunction.constant(space, 1)
        for n in range(6):
            assert g ** n == product
            product = product * g


def test_invert():
    assert x().invert() == SuperFunction(
        S12, DeWittDomain.full(S12).with_excluded([Polynomial.variable(1, 0)]),
        {(): RationalFunction(Polynomial.one(1), Polynomial.variable(1, 0))})
    one = SuperFunction.constant(S12, 1)
    f = one + t(1) * t(2)
    assert f.invert() == one - t(1) * t(2)
    g = x() + t(1) * t(2)
    gi = g.invert()
    assert g * gi == one
    assert gi.domain.excluded  # x1 = 0 is excluded now
    with pytest.raises(ParityError):
        t(1).invert()
    with pytest.raises(NotInvertibleError):
        (t(1) * t(2)).invert()


def test_partial_examples():
    assert (x() ** 2).partial(1) == 2 * x()
    inv_x = x().invert()
    assert inv_x.partial(1) == SuperFunction(
        S12, inv_x.domain,
        {(): RationalFunction(-Polynomial.one(1), Polynomial.variable(1, 0) ** 2)})
    assert (x() * t(1) * t(2)).partial(1) == t(1) * t(2)


def test_odd_partial_right_action():
    f = t(1) * t(2)
    assert f.odd_partial(2) == t(1)
    assert f.odd_partial(1) == -t(2)
    assert f.odd_partial(1).odd_partial(2) == SuperFunction.constant(S12, -1)
    assert f.odd_partial(2).odd_partial(1) == SuperFunction.constant(S12, 1)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_partials_canonical(seed):
    """Partials keep each label once and store no zero coefficient, also where
    a constant coefficient differentiates to zero."""
    rng = random.Random(seed)
    space = randgen.random_spaces(rng, 2, 3, min_even=1)
    f = (randgen.random_superfunction(rng, space, degree=2, terms=4, rational=seed % 3 == 0)
         + randgen.random_superfunction(rng, space, degree=0, terms=3))
    partials = [f.partial(i) for i in range(1, space.even_dim + 1)]
    partials += [f.odd_partial(j) for j in range(1, space.odd_dim + 1)]
    for r in partials:
        assert all(r.terms.values())
        assert SuperFunction(r.space, r.domain, r.terms).terms == r.terms


def test_alt_coeff():
    f = t(1) * t(2)
    assert f.alt_coeff((1, 2)) == RationalFunction.constant(1, 1)
    assert f.alt_coeff((2, 1)) == RationalFunction.constant(1, -1)
    assert f.alt_coeff((1, 1)).is_zero()
    rng = random.Random(13)
    for _ in range(20):
        space = randgen.random_spaces(rng, 2, 4)
        g = randgen.random_superfunction(rng, space, degree=2, terms=4)
        for j1 in range(1, space.odd_dim + 1):
            for j2 in range(1, space.odd_dim + 1):
                assert g.alt_coeff((j1, j2)) == -g.alt_coeff((j2, j1))


def test_parity_classification():
    assert (x() + t(1) * t(2)).parity() == 0
    assert (t(1) + x() * t(2)).parity() == 1
    assert (x() + t(1)).parity() is None
    zero = SuperFunction.zero(S12)
    assert zero.is_even() and zero.is_odd()


def test_skeleton_identity_and_validation():
    ident = Skeleton.identity(S12)
    assert ident.components[0] == x()
    assert ident.components[1] == t(1)
    assert ident.components[2] == t(2)

    small = SuperSpace(0, 2)
    ident2 = Skeleton.identity(small)
    assert ident2.components[0] == SuperFunction.odd_coordinate(small, 1)

    with pytest.raises(ParityError):
        Skeleton(S12, DeWittDomain.full(S12), SuperSpace(1, 0),
                 DeWittDomain.full(SuperSpace(1, 0)), [t(1)])
    with pytest.raises(SpaceMismatchError):
        Skeleton(S12, DeWittDomain.full(S12), SuperSpace(2, 0),
                 DeWittDomain.full(SuperSpace(2, 0)), [x()])


def test_skeleton_body_image_check():
    rng = random.Random(14)
    space = SuperSpace(1, 0)
    target_domain = DeWittDomain.box(space, (F(0), None))
    square = Skeleton(space, DeWittDomain.full(space).with_excluded(
        [Polynomial.variable(1, 0)]), space, target_domain,
        [x(space) ** 2])
    assert square.check_body_image(rng, samples=20)
    shifted = Skeleton(space, DeWittDomain.full(space), space, target_domain,
                       [x(space)])
    assert not shifted.check_body_image(rng, samples=40)


def test_eval_matches_expand():
    from superskel.grassmann import GrassmannElement as G
    from superskel.spaces import LambdaPoint

    f = x() ** 2 + x() * t(1) * t(2)
    pt = LambdaPoint(S12, 2, [G.scalar(2, 2) + G.monomial(2, (1, 2))],
                     [G.generator(2, 1), G.generator(2, 2)])
    assert f.eval(pt) == G.scalar(2, 4) + 6 * G.monomial(2, (1, 2))
