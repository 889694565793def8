import random
import time
from fractions import Fraction as F

import pytest

from superskel import randgen
from superskel.calculus import derivative, taylor_increment
from superskel.continuation import (check_naturality, default_morphism_battery,
                                    eval_subst, eval_taylor, taylor_shells,
                                    truncation_consistent)
from superskel.errors import DigitCapError, DomainError, SuperskelError
from superskel.grassmann import GrassmannElement as G
from superskel.grassmann import GrassmannMorphism
from superskel.poly import Polynomial, RationalFunction
from superskel.spaces import DeWittDomain, LambdaPoint, SuperSpace, Vector
from superskel.superfn import Skeleton, SuperFunction

S12 = SuperSpace(1, 2)
S10 = SuperSpace(1, 0)
FULL12 = DeWittDomain.full(S12)


def narrow_skeleton():
    x = SuperFunction.even_coordinate(S12, 1)
    t1 = SuperFunction.odd_coordinate(S12, 1)
    t2 = SuperFunction.odd_coordinate(S12, 2)
    return Skeleton(S12, FULL12, S10, DeWittDomain.full(S10),
                    [x ** 2 + x * t1 * t2])


def test_eval_subst_example():
    pt = LambdaPoint(S12, 2, [G.scalar(2, 2) + G.monomial(2, (1, 2))],
                     [G.generator(2, 1), G.generator(2, 2)])
    out = eval_subst(narrow_skeleton(), pt)
    assert out.even_values[0] == G.scalar(2, 4) + 6 * G.monomial(2, (1, 2))
    assert eval_taylor(narrow_skeleton(), pt) == out


def test_identity_fixes_points():
    rng = random.Random(0)
    ident = Skeleton.identity(S12)
    for _ in range(10):
        pt = randgen.random_point(rng, S12, 4)
        assert eval_subst(ident, pt) == pt
        assert eval_taylor(ident, pt) == pt


def test_reciprocal_geometric_series():
    domain = DeWittDomain.full(S10).with_excluded([Polynomial.variable(1, 0)])
    inv = Skeleton(S10, domain, S10, DeWittDomain.full(S10),
                   [SuperFunction(S10, domain,
                                  {(): RationalFunction(Polynomial.one(1),
                                                        Polynomial.variable(1, 0))})])
    pt = LambdaPoint(S10, 2, [G.unit(2) + G.monomial(2, (1, 2))], [])
    out = eval_subst(inv, pt)
    assert out.even_values[0] == G.unit(2) - G.monomial(2, (1, 2))
    assert eval_taylor(inv, pt) == out


def test_taylor_odd_insertion_example():
    # f = x * t1 at (a + g2g3; g1) equals a*g1 + g1g2g3
    space = SuperSpace(1, 1)
    f = Skeleton(space, DeWittDomain.full(space), SuperSpace(0, 1),
                 DeWittDomain.full(SuperSpace(0, 1)),
                 [SuperFunction.even_coordinate(space, 1)
                  * SuperFunction.odd_coordinate(space, 1)])
    a = F(5, 3)
    pt = LambdaPoint(space, 3, [G.scalar(3, a) + G.monomial(3, (2, 3))],
                     [G.generator(3, 1)])
    expected = a * G.generator(3, 1) + G.monomial(3, (1, 2, 3))
    assert eval_subst(f, pt).odd_values[0] == expected
    assert eval_taylor(f, pt) == eval_subst(f, pt)


def test_soul_free_points_are_body_evaluation():
    rng = random.Random(1)
    for _ in range(10):
        src = randgen.random_spaces(rng, 2, 2)
        tgt = randgen.random_spaces(rng, 2, 2)
        f = randgen.random_skeleton(rng, src, tgt, degree=3)
        body = DeWittDomain.full(src).sample_bodies(rng, 1)[0]
        pt = LambdaPoint.from_body(src, 3, body)
        shells = taylor_shells(f, pt)
        assert set(shells) <= {(0, 0)}


def test_taylor_equals_subst_random():
    rng = random.Random(2)
    for case in range(60):
        src = randgen.random_spaces(rng, 3, 3)
        tgt = randgen.random_spaces(rng, 2, 2)
        f = randgen.random_skeleton(rng, src, tgt, degree=4, terms=3,
                                    rational=case % 6 == 0)
        pt = randgen.random_point(rng, src, rng.randint(1, 6))
        assert eval_taylor(f, pt) == eval_subst(f, pt)


def test_taylor_shells_bounded_by_rank():
    rng = random.Random(3)
    for _ in range(20):
        src = randgen.random_spaces(rng, 2, 3)
        tgt = randgen.random_spaces(rng, 2, 2)
        f = randgen.random_skeleton(rng, src, tgt, degree=4, terms=4)
        rank = rng.randint(1, 6)
        pt = randgen.random_point(rng, src, rank)
        shells = taylor_shells(f, pt, max_total=rank + 2)
        assert all(m + k <= rank for (m, k) in shells)


def test_taylor_shells_omit_cancelled_shells():
    # with t1 = t2 = g1 + g2, the four ordered odd pairs of y1's t1*t2 term
    # contribute +-g1g2 and cancel, so shell (0, 2) is omitted; shell (0, 1)
    # is nonzero in h1 alone and shell (0, 0) in y1 alone
    f = Skeleton(S12, FULL12, SuperSpace(1, 1), DeWittDomain.full(SuperSpace(1, 1)),
                 [SuperFunction(S12, FULL12, {(): Polynomial(1, {(1,): 1}), (1, 2): 1}),
                  SuperFunction.odd_coordinate(S12, 1)])
    soul = G.generator(2, 1) + G.generator(2, 2)
    pt = LambdaPoint(S12, 2, [G.scalar(2, 3)], [soul, soul])
    shells = taylor_shells(f, pt)
    assert shells == {(0, 0): (G.scalar(2, 3), G.zero(2)), (0, 1): (G.zero(2), soul)}
    assert eval_taylor(f, pt) == eval_subst(f, pt)


def test_domain_enforced():
    domain = DeWittDomain.full(S10).with_excluded([Polynomial.variable(1, 0)])
    inv = Skeleton(S10, domain, S10, DeWittDomain.full(S10),
                   [SuperFunction(S10, domain,
                                  {(): RationalFunction(Polynomial.one(1),
                                                        Polynomial.variable(1, 0))})])
    soul_only = LambdaPoint(S10, 2, [G.monomial(2, (1, 2))], [])
    with pytest.raises(DomainError):
        eval_subst(inv, soul_only)
    with pytest.raises(DomainError):
        eval_taylor(inv, soul_only)


def test_dishonest_denominator_is_a_domain_error():
    # 1/x1 on the full domain: the point passes the domain check, and the
    # denominator's value x1 = g1g2 has zero body, so it has no inverse
    inv = SuperFunction(S10, DeWittDomain.full(S10),
                        {(): RationalFunction(Polynomial.one(1), Polynomial.variable(1, 0))})
    f = Skeleton(S10, DeWittDomain.full(S10), S10, DeWittDomain.full(S10), [inv])
    soul_only = LambdaPoint(S10, 2, [G.monomial(2, (1, 2))], [])
    with pytest.raises(DomainError, match="zero body"):
        inv.eval(soul_only)
    with pytest.raises(DomainError, match="zero body"):
        eval_subst(f, soul_only)
    with pytest.raises(DomainError, match="zero body"):
        derivative(f, 1).apply(soul_only, [Vector(S10, 2, [G.scalar(2, 1)])])


def test_eval_subst_edge_points():
    """Rank-0 points, 0|q sources and zero superfunctions: the point
    evaluator agrees with generic substitution and with the Taylor route."""
    rng = random.Random(5)
    S02 = SuperSpace(0, 2)
    cases = []
    for space, rank in ((S12, 0), (SuperSpace(2, 1), 0), (S02, 0), (S02, 3), (SuperSpace(0, 3), 4)):
        f = randgen.random_skeleton(rng, space, SuperSpace(1, 1), degree=2, rational=True)
        cases.append((f, randgen.random_point(rng, space, rank)))
    zero = Skeleton(S12, FULL12, SuperSpace(1, 1), DeWittDomain.full(SuperSpace(1, 1)),
                    [SuperFunction.zero(S12), SuperFunction.zero(S12)])
    cases.append((zero, randgen.random_point(rng, S12, 3)))
    for f, x in cases:
        one = G.unit(x.rank)
        value = eval_subst(f, x)
        assert list(value.values) == [c.substitute(x.even_values, x.odd_values, one)
                                      for c in f.components]
        assert value == eval_taylor(f, x)
    assert eval_subst(zero, cases[-1][1]).is_zero()
    # a rank-0 point is its body: the value is the body map there
    f, x = cases[0]
    assert eval_subst(f, x).even_values[0] == G.scalar(0, f.body_maps()[0].eval(x.body()))


def test_high_power_by_squaring():
    # x1^10000000 at 1 + g1g2 = 1 + 10^7 g1g2, built by squaring (about 24
    # products) rather than one factor at a time; at 2 + g1g2, x1^13000 =
    # 2^13000 + 13000 * 2^12999 g1g2 (3914 and 3917 digits) is computed, and
    # x1^100000 (2^100000 has 30103 digits) is refused before the power
    def power(n):
        return SuperFunction(S12, FULL12, {(): Polynomial(1, {(n,): 1})})

    def at(body):
        return LambdaPoint(S12, 2, [G(2, {(): body, (1, 2): 1})], [G.zero(2), G.zero(2)])
    start = time.perf_counter()
    assert power(10 ** 7).eval(at(1)) == G(2, {(): 1, (1, 2): 10 ** 7})
    assert power(13000).eval(at(2)) == G(2, {(): 2 ** 13000, (1, 2): 13000 * 2 ** 12999})
    with pytest.raises(DigitCapError):
        power(100000).eval(at(2))
    assert time.perf_counter() - start < 1


def test_naturality_swap_example():
    # f = x + t1*t2 at (a; g1, g2): both routes give a - g1g2 after the swap
    x = SuperFunction.even_coordinate(S12, 1)
    t1 = SuperFunction.odd_coordinate(S12, 1)
    t2 = SuperFunction.odd_coordinate(S12, 2)
    f = Skeleton(S12, FULL12, S10, DeWittDomain.full(S10), [x + t1 * t2])
    a = F(7, 2)
    pt = LambdaPoint(S12, 2, [G.scalar(2, a)], [G.generator(2, 1), G.generator(2, 2)])
    swap = GrassmannMorphism.permutation(2, [2, 1])
    lhs = eval_subst(f, pt.map(swap))
    rhs = eval_subst(f, pt).map(swap)
    assert lhs == rhs
    assert lhs.even_values[0] == G.scalar(2, a) - G.monomial(2, (1, 2))


def test_naturality_battery_random():
    rng = random.Random(4)
    for case in range(15):
        src = randgen.random_spaces(rng, 2, 2)
        tgt = randgen.random_spaces(rng, 2, 2)
        f = randgen.random_skeleton(rng, src, tgt, degree=3, rational=case % 5 == 0)
        report = check_naturality(f, rng.randint(2, 5), rng=rng, sample_count=3)
        assert report.ok, report.summary()
    # a report with no checked item is not a pass
    report = check_naturality(f, 2, rng=rng, sample_count=0)
    assert not report.items and not report.ok
    assert report.summary().startswith("FAIL")


def test_battery_contents():
    labels = [label for label, _ in default_morphism_battery(4)]
    assert labels == ["to_body", "rotate", "swap12", "scale1", "kill1", "odd_cubic"]
    assert [label for label, _ in default_morphism_battery(1)] == ["to_body", "scale1", "kill1"]


def test_taylor_increment_single():
    x = SuperFunction.even_coordinate(S10, 1)
    square = Skeleton(S10, DeWittDomain.full(S10), S10, DeWittDomain.full(S10), [x ** 2])
    base = LambdaPoint(S10, 3, [G.scalar(3, 4)], [])
    y = LambdaPoint(S10, 3, [G.monomial(3, (1, 2), F(1, 3))], [])
    inc = taylor_increment(square, base, [y])
    # f(x+y) - f(x) = 2xy exactly since y^2 = 0
    assert inc.even_values[0] == 8 * y.even_values[0]
    assert inc == eval_subst(square, base + y) - eval_subst(square, base)


def test_taylor_increment_two_increments():
    x = SuperFunction.even_coordinate(S10, 1)
    square = Skeleton(S10, DeWittDomain.full(S10), S10, DeWittDomain.full(S10), [x ** 2])
    base = LambdaPoint(S10, 4, [G.scalar(4, 3)], [])
    y1 = LambdaPoint(S10, 4, [G.monomial(4, (1, 2))], [])
    y2 = LambdaPoint(S10, 4, [G.monomial(4, (2, 3)) + G.monomial(4, (2, 4))], [])
    inc = taylor_increment(square, base, [y1, y2])
    direct = eval_subst(square, base + y1 + y2) - eval_subst(square, base)
    assert inc == direct
    # 2x(y1+y2) + 2 y1 y2
    expected = 6 * (y1.even_values[0] + y2.even_values[0]) \
        + 2 * y1.even_values[0] * y2.even_values[0]
    assert inc.even_values[0] == expected


def test_taylor_increment_empty():
    f = narrow_skeleton()
    base = LambdaPoint(S12, 3, [G.scalar(3, 1)], [G.generator(3, 1), G.zero(3)])
    assert taylor_increment(f, base, []) == LambdaPoint.zero(S10, 3)


def test_taylor_increment_rejects_unsupported():
    f = narrow_skeleton()
    base = LambdaPoint(S12, 3, [G.scalar(3, 1)], [G.zero(3), G.zero(3)])
    bad = LambdaPoint(S12, 3, [G.monomial(3, (1, 2)) + G.monomial(3, (2, 3))],
                      [G.zero(3), G.zero(3)])
    # monomials share generator 2, so the increment IS supported; remove that
    bad2 = LambdaPoint(S12, 3, [G.monomial(3, (1, 2)) + G.zero(3)],
                       [G.generator(3, 3), G.zero(3)])
    with pytest.raises(SuperskelError):
        taylor_increment(f, base, [bad2])
    assert taylor_increment(f, base, [bad]) is not None


def test_taylor_increment_random():
    rng = random.Random(5)
    for _ in range(30):
        src = randgen.random_spaces(rng, 2, 2)
        tgt = randgen.random_spaces(rng, 2, 2)
        f = randgen.random_skeleton(rng, src, tgt, degree=3, terms=3)
        rank = rng.randint(2, 5)
        x = randgen.random_point(rng, src, rank)
        count = rng.randint(1, min(4, rank))
        gens = rng.sample(range(1, rank + 1), count)
        ys = [randgen.random_increment(rng, src, rank, g) for g in gens]
        total = x
        for y in ys:
            total = total + y
        assert taylor_increment(f, x, ys) == eval_subst(f, total) - eval_subst(f, x)


def test_truncation_consistency():
    rng = random.Random(6)
    for _ in range(15):
        src = randgen.random_spaces(rng, 2, 2)
        tgt = randgen.random_spaces(rng, 2, 2)
        f = randgen.random_skeleton(rng, src, tgt, degree=3)
        x = randgen.random_point(rng, src, rng.randint(1, 5))
        assert truncation_consistent(f, x)
