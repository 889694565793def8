import random
import time
from fractions import Fraction as F

import pytest

from superskel import parsing, randgen
from superskel.errors import ParityError, SpaceMismatchError
from superskel.grassmann import GrassmannElement, GrassmannMorphism
from superskel.poly import Polynomial
from superskel.spaces import DeWittDomain, LambdaPoint, SuperSpace, Vector

G = GrassmannElement


def test_split_examples():
    space = SuperSpace(1, 1)
    x = LambdaPoint(space, 2, [G.scalar(2, 2) + G.monomial(2, (1, 2))],
                    [G.generator(2, 1)])
    body, souls, odds = x.split()
    assert body == (F(2),)
    assert souls == (G.monomial(2, (1, 2)),)
    assert odds == (G.generator(2, 1),)

    zero = LambdaPoint.zero(space, 2)
    assert zero.split()[0] == (F(0),)

    y = LambdaPoint(SuperSpace(1, 0), 2, [G.monomial(2, (1, 2))], [])
    assert y.body() == (F(0),)
    assert y.split()[1] == (G.monomial(2, (1, 2)),)


def test_split_reassembles():
    rng = random.Random(1)
    for _ in range(30):
        space = randgen.random_spaces(rng, 3, 3)
        x = randgen.random_point(rng, space, 4)
        body, souls, odds = x.split()
        rebuilt = LambdaPoint(space, 4,
                              [G.scalar(4, b) + s for b, s in zip(body, souls)],
                              odds)
        assert rebuilt == x


def test_parity_validation():
    space = SuperSpace(1, 1)
    with pytest.raises(ParityError):
        LambdaPoint(space, 2, [G.generator(2, 1)], [G.zero(2)])
    with pytest.raises(ParityError):
        LambdaPoint(space, 2, [G.unit(2)], [G.unit(2)])


def test_domain_membership():
    space = SuperSpace(1, 0)
    punctured = DeWittDomain.full(space).with_excluded([Polynomial.variable(1, 0)])
    inside = LambdaPoint(space, 2, [G.scalar(2, 2) + G.monomial(2, (1, 2))], [])
    assert punctured.contains(inside)
    soul_only = LambdaPoint(space, 2, [G.monomial(2, (1, 2))], [])
    assert not punctured.contains(soul_only)

    box = DeWittDomain.box(space, (F(0), F(1)))
    pt = LambdaPoint(SuperSpace(1, 0), 4, [G.scalar(4, F(1, 2)) + G.monomial(4, (1, 2))], [])
    assert box.contains(pt)
    assert not box.contains(LambdaPoint(space, 4, [G.scalar(4, 2)], []))
    with pytest.raises(SpaceMismatchError):
        box.contains(LambdaPoint(SuperSpace(2, 0), 2, [G.unit(2), G.unit(2)], []))


def test_excluded_polynomials_normalized_by_the_constructor():
    space = SuperSpace(1, 0)
    x1 = Polynomial.variable(1, 0)
    boxes = [((F(-5), F(5)),)]
    domain = DeWittDomain(space, boxes, [2 * x1 - 2, x1 - 1, Polynomial.constant(1, 3)])
    assert domain.excluded == (x1 - 1,)
    same = DeWittDomain(space, boxes, [x1 - 1])
    assert domain == same
    assert domain.with_excluded([3 * x1 - 3, Polynomial.constant(1, 7)]) is domain
    assert domain.intersect(same) is domain


def test_domain_intersect_and_sampling():
    space = SuperSpace(2, 0)
    a = DeWittDomain.box(space, (F(0), F(10)), (None, None))
    b = DeWittDomain.box(space, (F(5), None), (F(-1), F(1))).with_excluded(
        [Polynomial.variable(2, 0) - 7])
    both = a.intersect(b)
    assert both.contains_body((F(6), F(0)))
    assert not both.contains_body((F(7), F(0)))
    assert not both.contains_body((F(11), F(0)))
    rng = random.Random(0)
    for body in both.sample_bodies(rng, 25):
        assert both.contains_body(body)
    # half-bounded boxes: the README's "box 0 inf" example and its mirror
    for box in ("box 0 inf\nexclude x1 - 1", "box -inf 0"):
        skeleton = parsing.parse_skeleton_file(
            f"source 1|2\ntarget 1|0\n{box}\ny1 = x1^2 + 2*x1*t1*t2\n")
        domain = skeleton.source_domain
        bodies = domain.sample_bodies(random.Random(3), 25)
        assert all(domain.contains_body(body) for body in bodies)
        assert bodies == domain.sample_bodies(random.Random(3), 25)


def test_boxes_inside_another_are_dropped():
    space = SuperSpace(2, 0)
    wide = ((F(0), F(4)), (None, F(1)))
    inner = ((F(1), F(2)), (F(-3), F(0)))
    left = ((None, F(1)), (None, None))
    domain = DeWittDomain(space, [inner, wide, wide, ((F(1), F(3)), (None, F(0))), left,
                                  ((None, F(-1)), (F(5), F(6)))])
    assert domain.boxes == (wide, left)  # survivors in input order, equal ones once

    # chart A has 60 boxes (k, k+3), and its overlaps with B and C the same
    # boxes shifted by 1/2 and 1/3; every pairwise cut used to be kept
    def boxes(shift):
        return [(k + shift, k + shift + 3) for k in range(60)]

    lines = ["chart A 1|0"] + [f"box {lo} {hi}" for lo, hi in boxes(0)]
    lines += ["chart B 1|0", "chart C 1|0"]
    for cid, shift in (("B", F(1, 2)), ("C", F(1, 3))):
        lines += [f"overlap A {cid}"] + [f"box {lo} {hi}" for lo, hi in boxes(shift)]
    text = "\n".join(lines) + "\n"
    data = parsing.parse_manifold_file(text)
    o_ab, o_ac = data.overlaps[("A", "B")], data.overlaps[("A", "C")]
    both = o_ab.intersect(o_ac)
    assert len(o_ab.boxes) <= 120 and len(both.boxes) <= 180

    def cuts(a, b):
        out = []
        for (alo, ahi) in a:
            for (blo, bhi) in b:
                if max(alo, blo) < min(ahi, bhi):
                    out.append((max(alo, blo), min(ahi, bhi)))
        return out

    uncut_ab = cuts(boxes(0), boxes(F(1, 2)))
    uncut_both = cuts(uncut_ab, cuts(boxes(0), boxes(F(1, 3))))
    for k in range(-12, 400):
        v = F(k, 6) + F(1, 60)
        for domain, uncut in ((o_ab, uncut_ab), (both, uncut_both)):
            assert domain.contains_body((v,)) == any(lo < v < hi for lo, hi in uncut)
    printed = parsing.format_manifold(data)
    assert parsing.format_manifold(parsing.parse_manifold_file(printed)) == printed

    # 60 x-strips against 60 y-strips: 3600 cuts, none inside another, all
    # kept in order and quickly; an exclusion keeps them as they are
    xs = DeWittDomain(space, [((F(2 * k), F(2 * k + 1)), (None, None)) for k in range(60)])
    ys = DeWittDomain(space, [((None, None), (F(2 * k), F(2 * k + 1))) for k in range(60)])
    start = time.perf_counter()
    grid = xs.intersect(ys)
    punctured = grid.with_excluded([Polynomial.variable(2, 0)])
    assert time.perf_counter() - start < 2
    assert grid.boxes == punctured.boxes == tuple((a[0], b[1]) for a in xs.boxes for b in ys.boxes)


def test_point_map_functoriality():
    rng = random.Random(2)
    for _ in range(20):
        space = randgen.random_spaces(rng, 2, 2)
        x = randgen.random_point(rng, space, 4)
        m1 = randgen.random_morphism(rng, 4, 4)
        m2 = randgen.random_morphism(rng, 4, 3)
        assert x.map(m2.after(m1)) == x.map(m1).map(m2)


def test_point_map_preserves_membership():
    # morphisms never move the body, so domain membership is invariant
    rng = random.Random(3)
    space = SuperSpace(1, 1)
    domain = DeWittDomain.full(space).with_excluded([Polynomial.variable(1, 0)])
    for _ in range(20):
        x = randgen.random_point(rng, space, 4, domain)
        m = randgen.random_morphism(rng, 4, 4)
        assert domain.contains(x.map(m)) == domain.contains(x)
        assert x.map(GrassmannMorphism.to_body(4)).even_values[0] == \
            G.scalar(0, x.body()[0])


def test_point_map_swap_example():
    space = SuperSpace(1, 0)
    x = LambdaPoint(space, 2, [G.unit(2) + G.monomial(2, (1, 2))], [])
    swap = GrassmannMorphism.permutation(2, [2, 1])
    assert x.map(swap).even_values[0] == G.unit(2) - G.monomial(2, (1, 2))


def test_vector_parity():
    space = SuperSpace(1, 1)
    even_vec = Vector(space, 2, [G.unit(2), G.generator(2, 1)])
    assert even_vec.parity() == 0
    odd_vec = Vector(space, 2, [G.generator(2, 1), G.unit(2)])
    assert odd_vec.parity() == 1
    mixed = Vector(space, 2, [G.unit(2), G.unit(2)])
    assert mixed.parity() is None
    assert Vector.zero(space, 2).parity() == 0
    assert even_vec.to_point() == LambdaPoint(space, 2, [G.unit(2)], [G.generator(2, 1)])


def test_point_arithmetic_and_embedding():
    space = SuperSpace(1, 1)
    rng = random.Random(4)
    x = randgen.random_point(rng, space, 3)
    y = randgen.random_point(rng, space, 3)
    assert (x + y) - y == x
    emb = x.embed(5)
    assert emb.rank == 5
    assert emb.body() == x.body()


def test_point_is_a_parity_checked_vector():
    space = SuperSpace(1, 1)
    rng = random.Random(5)
    x = randgen.random_point(rng, space, 3)
    y = randgen.random_point(rng, space, 3)
    assert x == Vector(space, 3, x.even_values + x.odd_values)
    assert x.values == x.even_values + x.odd_values
    for result in (x + y, x - y, x.map(randgen.random_morphism(rng, 3, 2)), x.embed(4),
                   Vector(space, 3, x.values).to_point()):
        assert type(result) is LambdaPoint
    assert type(Vector(space, 3, x.values) + x) is Vector
    assert type(Vector(space, 3, x.values).embed(4)) is Vector
    odd_shift = Vector.basis(space, 3, 0, G.generator(3, 1))
    assert odd_shift.parity() == 1
    with pytest.raises(ParityError):
        x + odd_shift
    with pytest.raises(ParityError):
        x - odd_shift
