import random
from fractions import Fraction as F

import pytest

from superskel import randgen
from superskel.atlas import (GluingData, ManifoldPoint, check_cocycle,
                             check_global_morphism, projective_superline,
                             superline_squaring_map, transport)
from superskel.errors import DomainError
from superskel.grassmann import GrassmannElement as G
from superskel.poly import Polynomial
from superskel.spaces import DeWittDomain, LambdaPoint, SuperSpace
from superskel.superfn import Skeleton, SuperFunction

S11 = SuperSpace(1, 1)


def test_single_chart_passes():
    space = SuperSpace(1, 0)
    data = GluingData({"U": (space, DeWittDomain.full(space))}, {}, {})
    report = check_cocycle(data, random.Random(0), samples=5, rank=2)
    assert report.ok


def test_superline_cocycle():
    line = projective_superline()
    report = check_cocycle(line, random.Random(1), samples=25, rank=4)
    assert report.ok, report.summary()


def test_superline_round_trip_symbolic():
    from superskel.morphisms import compose_subst

    line = projective_superline()
    forward = line.transitions[("A", "B")]
    backward = line.transitions[("B", "A")]
    both = compose_subst(backward, forward)
    assert both.components[0] == SuperFunction.even_coordinate(S11, 1)
    assert both.components[1] == SuperFunction.odd_coordinate(S11, 1)


def test_transport_example():
    line = projective_superline()
    point = LambdaPoint(S11, 2, [G.scalar(2, 2)], [G.generator(2, 1)])
    moved = transport(line, ManifoldPoint("A", point), "B")
    assert moved.chart == "B"
    assert moved.point.even_values[0] == G.scalar(2, F(1, 2))
    assert moved.point.odd_values[0] == F(1, 2) * G.generator(2, 1)
    back = transport(line, moved, "A")
    assert back.point == point


def test_transport_same_chart_and_guards():
    line = projective_superline()
    point = LambdaPoint(S11, 2, [G.scalar(2, 2)], [G.generator(2, 1)])
    mp = ManifoldPoint("A", point)
    assert transport(line, mp, "A") is mp
    zero_body = ManifoldPoint("A", LambdaPoint(S11, 2, [G.monomial(2, (1, 2))],
                                               [G.generator(2, 1)]))
    with pytest.raises(DomainError):
        transport(line, zero_body, "B")


def test_transport_round_trips_random():
    rng = random.Random(2)
    line = projective_superline()
    for _ in range(50):
        rank = rng.randint(1, 4)
        body = [randgen.random_fraction(rng, nonzero=True)]
        point = randgen.random_point_with_body(rng, S11, rank, body)
        mp = ManifoldPoint("A", point)
        assert transport(line, transport(line, mp, "B"), "A").point == point


def test_global_degree_two_map():
    line = projective_superline()
    report = check_global_morphism(line, line, superline_squaring_map(),
                                   random.Random(3), samples=10)
    assert report.ok, report.summary()


def test_global_identity_components():
    line = projective_superline()
    components = {("A", "A"): Skeleton.identity(S11),
                  ("B", "B"): Skeleton.identity(S11)}
    report = check_global_morphism(line, line, components, random.Random(4),
                                   samples=8)
    assert report.ok, report.summary()


def test_global_morphism_inconsistency_detected():
    # B-side (y^2, y*h) contradicts the declared transitions
    space = S11
    full = DeWittDomain.full(space)
    x = Polynomial.variable(1, 0)
    f_a = Skeleton(space, full, space, full,
                   [SuperFunction(space, full, {(): x * x}),
                    SuperFunction(space, full, {(1,): x})])
    components = {("A", "A"): f_a, ("B", "B"): f_a}
    line = projective_superline()
    report = check_global_morphism(line, line, components, random.Random(5),
                                   samples=8)
    assert not report.ok


def test_corrupted_cocycle_detected():
    space = SuperSpace(1, 0)
    full = DeWittDomain.full(space)
    x = Polynomial.variable(1, 0)
    forward = Skeleton(space, full, space, full,
                       [SuperFunction(space, full, {(): x})])
    backward = Skeleton(space, full, space, full,
                        [SuperFunction(space, full, {(): x + Polynomial.one(1)})])
    data = GluingData({"U": (space, full), "V": (space, full)},
                      {("U", "V"): full, ("V", "U"): full},
                      {("U", "V"): forward, ("V", "U"): backward})
    report = check_cocycle(data, random.Random(6), samples=5, rank=2)
    assert not report.ok
    assert any("transition" in item.label for item in report.failures)


def test_three_chart_cocycle():
    # affine shifts on the line: transitions compose exactly
    space = SuperSpace(1, 0)
    full = DeWittDomain.full(space)
    x = Polynomial.variable(1, 0)

    def shift(c):
        return Skeleton(space, full, space, full,
                        [SuperFunction(space, full, {(): x + Polynomial.constant(1, c)})])

    charts = {"U": (space, full), "V": (space, full), "W": (space, full)}
    overlaps = {(i, j): full for i in "UVW" for j in "UVW" if i != j}
    shifts = {("U", "V"): F(1), ("V", "U"): F(-1),
              ("U", "W"): F(3), ("W", "U"): F(-3),
              ("V", "W"): F(2), ("W", "V"): F(-2)}
    transitions = {key: shift(c) for key, c in shifts.items()}
    data = GluingData(charts, overlaps, transitions)
    report = check_cocycle(data, random.Random(7), samples=8, rank=2)
    assert report.ok, report.summary()
    # transport is functorial across the triple overlap
    pt = ManifoldPoint("U", LambdaPoint(space, 2, [G.scalar(2, 10)], []))
    via_v = transport(data, transport(data, pt, "V"), "W")
    direct = transport(data, pt, "W")
    assert via_v.point == direct.point


def test_bad_triple_cocycle_detected():
    space = SuperSpace(1, 0)
    full = DeWittDomain.full(space)
    x = Polynomial.variable(1, 0)

    def shift(c):
        return Skeleton(space, full, space, full,
                        [SuperFunction(space, full, {(): x + Polynomial.constant(1, c)})])

    charts = {"U": (space, full), "V": (space, full), "W": (space, full)}
    overlaps = {(i, j): full for i in "UVW" for j in "UVW" if i != j}
    shifts = {("U", "V"): F(1), ("V", "U"): F(-1),
              ("U", "W"): F(5), ("W", "U"): F(-5),  # should be 3 for consistency
              ("V", "W"): F(2), ("W", "V"): F(-2)}
    data = GluingData(charts, overlaps, {k: shift(c) for k, c in shifts.items()})
    report = check_cocycle(data, random.Random(8), samples=5, rank=2)
    assert not report.ok
    assert any("cocycle" in item.label for item in report.failures)
