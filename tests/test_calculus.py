import random
from fractions import Fraction as F
from math import factorial

import pytest

from superskel import randgen
from superskel.calculus import (bgn_quotient, check_def43, check_lambda_linearity,
                                check_taylor, derivative,
                                hadamard_decompose, taylor_polynomial,
                                taylor_remainder_vanishes)
from superskel.continuation import eval_subst
from superskel.errors import SuperskelError
from superskel.grassmann import GrassmannElement as G
from superskel.poly import Polynomial, RationalFunction
from superskel.spaces import DeWittDomain, LambdaPoint, SuperSpace, Vector
from superskel.superfn import Skeleton, SuperFunction

S10 = SuperSpace(1, 0)
S11 = SuperSpace(1, 1)
S12 = SuperSpace(1, 2)


def skeleton_of(space, *components, target=None):
    target = target or SuperSpace(
        sum(1 for c in components if c.is_even() and not c.is_odd()),
        sum(1 for c in components if c.is_odd() and not c.is_even()))
    return Skeleton(space, DeWittDomain.full(space), target,
                    DeWittDomain.full(target), list(components))


def x(space):
    return SuperFunction.even_coordinate(space, 1)


def t(space, j=1):
    return SuperFunction.odd_coordinate(space, j)


def test_bgn_square():
    f = skeleton_of(S10, x(S10) ** 2)
    q = bgn_quotient(f)
    ext = q.extended_space
    assert ext == SuperSpace(3, 0)
    xe, ve, te = (SuperFunction.even_coordinate(ext, i) for i in (1, 2, 3))
    assert q.quotient.components[0] == 2 * xe * ve + te * ve ** 2
    assert q.identity_holds()


def test_bgn_odd_component():
    f = skeleton_of(S11, x(S11) * t(S11), target=SuperSpace(0, 1))
    q = bgn_quotient(f)
    ext = q.extended_space
    assert ext == SuperSpace(3, 2)
    xe, ve, te = (SuperFunction.even_coordinate(ext, i) for i in (1, 2, 3))
    th, w = (SuperFunction.odd_coordinate(ext, j) for j in (1, 2))
    assert q.quotient.components[0] == ve * th + xe * w + te * ve * w
    assert q.identity_holds()


def test_bgn_constant():
    f = skeleton_of(S10, SuperFunction.constant(S10, 5))
    q = bgn_quotient(f)
    assert q.quotient.components[0].is_zero()


def test_bgn_rational_identity():
    domain = DeWittDomain.full(S10).with_excluded([Polynomial.variable(1, 0)])
    inv = Skeleton(S10, domain, S10, DeWittDomain.full(S10),
                   [SuperFunction(S10, domain,
                                  {(): RationalFunction(Polynomial.one(1),
                                                        Polynomial.variable(1, 0))})])
    q = bgn_quotient(inv)
    assert q.identity_holds()


def test_bgn_identity_random_skeletons():
    rng = random.Random(20)
    for case in range(20):
        src = randgen.random_spaces(rng, 2, 2)
        tgt = randgen.random_spaces(rng, 2, 2)
        f = randgen.random_skeleton(rng, src, tgt, degree=3, terms=2,
                                    rational=case % 4 == 0)
        assert bgn_quotient(f).identity_holds()


def test_derivative_examples():
    square = skeleton_of(S10, x(S10) ** 2)
    d1 = derivative(square, 1)
    assert d1.components((("x", 1),))[0] == 2 * x(S10)
    d2 = derivative(square, 2)
    assert d2.components((("x", 1), ("x", 1)))[0] == SuperFunction.constant(S10, 2)

    f = skeleton_of(S12, x(S12) * t(S12, 1) * t(S12, 2))
    d1 = derivative(f, 1)
    assert d1.components((("x", 1),))[0] == t(S12, 1) * t(S12, 2)


def test_derivative_agrees_with_quotient_at_zero_t():
    rng = random.Random(21)
    for _ in range(10):
        src = randgen.random_spaces(rng, 2, 2)
        tgt = randgen.random_spaces(rng, 2, 2)
        f = randgen.random_skeleton(rng, src, tgt, degree=3, terms=2)
        q = bgn_quotient(f).at_zero_t()
        data = derivative(f, 1)
        rank = 4
        x_pt = randgen.random_point(rng, src, rank)
        v = randgen.random_vector(rng, src, rank)
        # assemble the (x, v, t=0) point of the extended space
        ext = q.source_space
        evens = list(x_pt.even_values) + [val for val in v.values[:src.even_dim]]
        evens.append(G.zero(rank))
        odds = list(x_pt.odd_values) + [val for val in v.values[src.even_dim:]]
        ext_pt = LambdaPoint(ext, rank, evens, odds)
        lhs = eval_subst(q, ext_pt, check_domain=False)
        rhs = data.apply(x_pt, [v])
        assert list(lhs.entries()) == list(rhs.values)


def test_derivative_symmetry_even_pairs():
    rng = random.Random(22)
    for _ in range(15):
        src = randgen.random_spaces(rng, 2, 2)
        tgt = randgen.random_spaces(rng, 2, 2, min_total=1)
        f = randgen.random_skeleton(rng, src, tgt, degree=3)
        data = derivative(f, 2)
        dirs = data.directions
        for a in range(len(dirs)):
            for b in range(len(dirs)):
                if dirs[a][0] == "t" and dirs[b][0] == "t":
                    continue  # odd-odd pairs anticommute (supersymmetry)
                assert data.components((dirs[a], dirs[b])) == \
                    data.components((dirs[b], dirs[a]))


def test_lambda_linearity_trivial_and_random():
    square = skeleton_of(S10, x(S10) ** 2)
    rng = random.Random(23)
    rep = check_lambda_linearity(square, 4, rng=rng, sample_count=4)
    assert rep.ok
    for _ in range(10):
        src = randgen.random_spaces(rng, 2, 2)
        tgt = randgen.random_spaces(rng, 2, 2)
        f = randgen.random_skeleton(rng, src, tgt, degree=3, rational=rng.random() < 0.3)
        rep = check_lambda_linearity(f, 5, rng=rng, sample_count=3)
        assert rep.ok, rep.summary()


def test_hadamard_examples():
    square = skeleton_of(S10, x(S10) ** 2)
    hd = hadamard_decompose(square, [F(1)])
    assert hd.base_values == (F(1),)
    assert hd.factors[0].components[0] == x(S10) + 1
    assert hd.identity_holds()

    two = SuperSpace(2, 0)
    prod = Skeleton(two, DeWittDomain.full(two), S10, DeWittDomain.full(S10),
                    [SuperFunction.even_coordinate(two, 1)
                     * SuperFunction.even_coordinate(two, 2)])
    hd = hadamard_decompose(prod, [F(0), F(0)])
    assert hd.factors[0].components[0] == SuperFunction.even_coordinate(two, 2)
    assert hd.identity_holds()

    const = skeleton_of(S10, SuperFunction.constant(S10, 9))
    hd = hadamard_decompose(const, [F(2)])
    assert all(f.components[0].is_zero() for f in hd.factors)
    assert hd.identity_holds()


def test_hadamard_includes_odd_generators():
    f = skeleton_of(S12, x(S12) + x(S12) * t(S12, 1) * t(S12, 2))
    hd = hadamard_decompose(f, [F(3)])
    assert hd.identity_holds()
    labels = [factor.label for factor in hd.factors]
    assert labels == ["x1 - 3", "t1", "t2"]


def test_hadamard_rejects_rational():
    domain = DeWittDomain.full(S10).with_excluded([Polynomial.variable(1, 0)])
    inv = Skeleton(S10, domain, S10, DeWittDomain.full(S10),
                   [SuperFunction(S10, domain,
                                  {(): RationalFunction(Polynomial.one(1),
                                                        Polynomial.variable(1, 0))})])
    with pytest.raises(SuperskelError):
        hadamard_decompose(inv, [F(1)])


def test_hadamard_random():
    rng = random.Random(24)
    for _ in range(25):
        src = randgen.random_spaces(rng, 2, 2)
        tgt = randgen.random_spaces(rng, 2, 2)
        f = randgen.random_skeleton(rng, src, tgt, degree=3, terms=3)
        x0 = DeWittDomain.full(src).sample_bodies(rng, 1)[0]
        assert hadamard_decompose(f, x0).identity_holds()


def test_taylor_polynomial_geometric():
    domain = DeWittDomain.full(S10).with_excluded([Polynomial.variable(1, 0)])
    inv = Skeleton(S10, domain, S10, DeWittDomain.full(S10),
                   [SuperFunction(S10, domain,
                                  {(): RationalFunction(Polynomial.one(1),
                                                        Polynomial.variable(1, 0))})])
    p = taylor_polynomial(inv, [F(1)], 2)
    xs = Polynomial.variable(1, 0)
    ones = Polynomial.one(1)
    expected = ones - (xs - ones) + (xs - ones) ** 2
    assert p.components[0] == SuperFunction(S10, domain, {(): expected})
    assert taylor_remainder_vanishes(inv, p, [F(1)], 2)


def test_taylor_polynomial_fixes_low_degree():
    f = skeleton_of(S12, x(S12) ** 2 + x(S12) * t(S12, 1) * t(S12, 2))
    p = taylor_polynomial(f, [F(0)], 4)
    assert p.components[0] == f.components[0]


def test_taylor_polynomial_truncates_by_odd_degree():
    f = skeleton_of(S11, x(S11) * t(S11), target=SuperSpace(0, 1))
    p = taylor_polynomial(f, [F(0)], 1)
    # the t1 coefficient only keeps its order-0 part at x0 = 0, which is 0
    assert p.components[0].is_zero()
    assert taylor_remainder_vanishes(f, p, [F(0)], 1)


def test_taylor_polynomial_random_remainders():
    rng = random.Random(25)
    for case in range(25):
        src = randgen.random_spaces(rng, 2, 2)
        tgt = randgen.random_spaces(rng, 2, 2)
        f = randgen.random_skeleton(rng, src, tgt, degree=3, terms=3,
                                    rational=case % 3 == 0)
        x0 = f.source_domain.sample_bodies(rng, 1)[0]
        degree = rng.randint(0, 3)
        p = taylor_polynomial(f, x0, degree)
        assert taylor_remainder_vanishes(f, p, x0, degree)


def test_family_examples():
    # f = t1*t2: order-2 values on odd basis directions
    f = skeleton_of(S12, t(S12, 1) * t(S12, 2))
    data = derivative(f, 2)
    rank = 3
    base = LambdaPoint(S12, rank, [G.scalar(rank, 1)], [G.zero(rank), G.zero(rank)])
    e1 = Vector.basis(S12, rank, 1)
    e2 = Vector.basis(S12, rank, 2)
    assert data.apply(base, [e1, e2]).values[0] == G.unit(rank)
    assert data.apply(base, [e2, e1]).values[0] == -G.unit(rank)

    square = skeleton_of(S10, x(S10) ** 2)
    d1 = derivative(square, 1)
    pt = LambdaPoint(S10, 2, [G.scalar(2, 5)], [])
    ex = Vector.basis(S10, 2, 0)
    assert d1.apply(pt, [ex]).values[0] == G.scalar(2, 10)
    d2 = derivative(square, 2)
    assert d2.apply(pt, [ex, ex]).values[0] == G.scalar(2, 2)
    # expansion at y = g1g2 * e_x: x^2 + 2x g1g2
    y = Vector.basis(S10, 2, 0, G.monomial(2, (1, 2)))
    total = derivative(square, 0).apply(pt, [])
    for k in (1, 2):
        term = derivative(square, k).apply(pt, [y] * k)
        total = total + term.scale(F(1, factorial(k)))
    assert total.values[0] == G.scalar(2, 25) + 10 * G.monomial(2, (1, 2))
    # beyond the polynomial degree everything vanishes
    d3 = derivative(square, 3)
    assert d3.apply(pt, [ex, ex, ex]).values[0] == G.zero(2)


def test_def43_random():
    rng = random.Random(26)
    for _ in range(5):
        src = randgen.random_spaces(rng, 2, 2, min_total=1)
        tgt = randgen.random_spaces(rng, 2, 2)
        f = randgen.random_skeleton(rng, src, tgt, degree=3, terms=3)
        rep = check_def43(f, 4, rng, cases=2, orders=(1, 2))
        assert rep.ok, rep.summary()
    # a source without coordinates skips supersymmetry instead of failing
    point_map = randgen.random_skeleton(rng, SuperSpace(0, 0), SuperSpace(1, 1))
    rep = check_def43(point_map, 2, rng, cases=1, orders=(1, 2))
    assert rep.ok and rep.counts()[2] == 1, rep.summary()


def test_check_taylor_battery():
    rng = random.Random(27)
    f = skeleton_of(S12, x(S12) ** 2 + x(S12) * t(S12, 1) * t(S12, 2))
    rep = check_taylor(f, 5, rng, cases=5)
    assert rep.ok, rep.summary()
