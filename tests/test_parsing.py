import random
from fractions import Fraction as F

import pytest

from superskel import parsing, randgen
from superskel.errors import ParseError
from superskel.grassmann import GrassmannElement as G
from superskel.poly import Polynomial
from superskel.spaces import DeWittDomain, SuperSpace
from superskel.superfn import SuperFunction

S12 = SuperSpace(1, 2)


def test_expression_examples():
    f = parsing.parse_superfunction("x1^2 + x1*t1*t2", S12)
    assert len(f.terms) == 2
    assert f.is_even()

    g = parsing.parse_superfunction("t2*t1", SuperSpace(0, 2))
    assert g.format() == "-1*t1*t2"

    z = parsing.parse_superfunction("t1*t1", SuperSpace(0, 2))
    assert z.is_zero()


def test_division_validation():
    with pytest.raises(ParseError) as err:
        parsing.parse_superfunction("1/t1", SuperSpace(0, 1))
    assert "invertible" in str(err.value)
    ok = parsing.parse_superfunction("1/(2 + t1*t2)", SuperSpace(0, 2))
    one = SuperFunction.constant(SuperSpace(0, 2), 1)
    assert ok * parsing.parse_superfunction("2 + t1*t2", SuperSpace(0, 2)) == one


def test_positions_in_errors():
    with pytest.raises(ParseError) as err:
        parsing.parse_superfunction("x1 + * 2", SuperSpace(1, 0))
    assert err.value.line == 1 and err.value.column == 6
    with pytest.raises(ParseError):
        parsing.parse_grassmann("g1 @ g2", 2)
    with pytest.raises(ParseError):
        parsing.parse_grassmann("g9", 2)
    with pytest.raises(ParseError):
        parsing.parse_superfunction("x1 x1 +", SuperSpace(1, 0))


def test_grassmann_format_spec():
    value = G.scalar(3, 2) + G.monomial(3, (1, 2))
    assert value.format() == "2*1 + 1*g1g2"
    assert G.zero(3).format() == "0"
    assert (-G.monomial(3, (1,), F(1, 2))).format() == "-1/2*g1"
    assert parsing.parse_grassmann("2*1 + 1*g1g2", 3) == value


def test_superfunction_format_spec():
    minus = parsing.parse_superfunction("t2*t1", SuperSpace(0, 2))
    assert minus.format() == "-1*t1*t2"
    assert SuperFunction.zero(S12).format() == "0"


def test_round_trip_many_values():
    rng = random.Random(42)
    for case in range(200):
        kind = case % 3
        if kind == 0:
            rank = rng.randint(0, 6)
            value = randgen.random_grassmann(rng, rank, terms=4)
            assert parsing.parse_grassmann(value.format(), rank) == value
        elif kind == 1:
            space = randgen.random_spaces(rng, 3, 3)
            value = randgen.random_superfunction(rng, space, degree=3, terms=4,
                                                 rational=case % 6 == 0)
            assert parsing.parse_superfunction(value.format(), space) == value
        else:
            space = randgen.random_spaces(rng, 2, 2)
            value = randgen.random_point(rng, space, rng.randint(0, 5))
            assert parsing.parse_point_file(parsing.format_point(value), space) == value


def test_point_file_features():
    text = """
# a comment
rank 3
x1 = 2*1 + 1*g1g2
t1 = 1*g3
"""
    point = parsing.parse_point_file(text, SuperSpace(1, 1))
    assert point.rank == 3
    assert point.even_values[0] == G.scalar(3, 2) + G.monomial(3, (1, 2))
    # rank inferred from generators when not declared
    inferred = parsing.parse_point_file("x1 = 1*g1g2\n", SuperSpace(1, 0))
    assert inferred.rank == 2
    # missing coordinates default to zero
    sparse = parsing.parse_point_file("rank 2\nx1 = 1*1\n", SuperSpace(1, 2))
    assert sparse.odd_values == (G.zero(2), G.zero(2))
    with pytest.raises(ParseError):
        parsing.parse_point_file("x1 = 1*g1\nbogus line\n", SuperSpace(1, 0))
    with pytest.raises(ParseError):
        parsing.parse_point_file("t1 = 1*1\n", SuperSpace(0, 1))  # parity violation
    with pytest.raises(ParseError) as err:
        parsing.parse_point_file("x1 = 1*1\nx1 = 2*1\n", SuperSpace(1, 0))
    assert err.value.line == 2 and "repeated" in str(err.value)


def test_skeleton_file_round_trip_and_domains():
    text = """\
source 1|2
target 1|0
box 0 inf
exclude x1 - 1
y1 = x1^2 + 2*x1*t1*t2
"""
    skeleton = parsing.parse_skeleton_file(text)
    assert skeleton.source_space == S12
    assert skeleton.target_space == SuperSpace(1, 0)
    assert skeleton.source_domain.boxes == (((F(0), None),),)
    assert skeleton.source_domain.excluded == (Polynomial.variable(1, 0) - 1,)
    assert parsing.format_skeleton(skeleton) == text
    again = parsing.parse_skeleton_file(parsing.format_skeleton(skeleton))
    assert all(a == b for a, b in zip(again.components, skeleton.components))


def test_multi_box_domain_round_trip():
    text = """\
source 2|0
target 1|0
box 0 1 -inf inf
box 5 9 0 inf
exclude x1 - 1/2
y1 = x1 + x2
"""
    skeleton = parsing.parse_skeleton_file(text)
    assert len(skeleton.source_domain.boxes) == 2
    assert parsing.format_skeleton(skeleton) == text
    again = parsing.parse_skeleton_file(parsing.format_skeleton(skeleton))
    assert again.source_domain == skeleton.source_domain


def test_body_polynomial_directives():
    poly = parsing.parse_body_polynomial("x1/2 - 1", 1)
    assert poly == Polynomial.variable(1, 0) * F(1, 2) - 1
    with pytest.raises(ParseError):
        parsing.parse_body_polynomial("1/x1", 1)  # nonconstant divisor
    with pytest.raises(ParseError):
        parsing.parse_body_polynomial("t1", 1)  # odd variables not allowed


def test_skeleton_file_errors():
    with pytest.raises(ParseError):
        parsing.parse_skeleton_file("target 1|0\ny1 = 1\n")  # no source
    with pytest.raises(ParseError):
        parsing.parse_skeleton_file("source 1|0\ntarget 1|0\n")  # missing y1
    with pytest.raises(ParseError):
        parsing.parse_skeleton_file("source 1|1\ntarget 1|0\ny1 = t1\n")  # parity
    with pytest.raises(ParseError):
        parsing.parse_skeleton_file("source 1|0\ntarget 0|1\nh1 = x1\n")  # parity
    with pytest.raises(ParseError):
        parsing.parse_skeleton_file("source 1|0\ntarget 1|0\ny1 = x2\n")  # range
    with pytest.raises(ParseError) as err:
        parsing.parse_skeleton_file("source 1|0\ntarget 1|0\ny1 = x1\ny1 = x1^2\n")
    assert err.value.line == 4 and "repeated" in str(err.value)
    with pytest.raises(ParseError) as err:
        parsing.parse_skeleton_file("source 1|0\ntarget 1|0\ny1 = x1\nh3 = x1\n")
    assert err.value.line == 4 and "exceeds" in str(err.value)


def test_skeleton_random_round_trip():
    rng = random.Random(43)
    for case in range(40):
        src = randgen.random_spaces(rng, 2, 2)
        tgt = randgen.random_spaces(rng, 2, 2)
        domain = DeWittDomain.full(src)
        if case % 3 == 0 and src.even_dim:
            domain = DeWittDomain.box(
                src, *[(F(-2), F(2))] * src.even_dim).with_excluded(
                [Polynomial.variable(src.even_dim, 0)])
        f = randgen.random_skeleton(rng, src, tgt, degree=3,
                                    rational=case % 4 == 0, domain=domain)
        text = parsing.format_skeleton(f)
        back = parsing.parse_skeleton_file(text)
        assert all(a == b for a, b in zip(back.components, f.components))
        assert back.source_domain == f.source_domain
        assert parsing.format_skeleton(back) == text


def test_manifold_file_round_trip():
    from superskel.atlas import check_cocycle, projective_superline

    line = projective_superline()
    text = parsing.format_manifold(line)
    back = parsing.parse_manifold_file(text)
    assert parsing.format_manifold(back) == text
    assert check_cocycle(back, random.Random(0), samples=8, rank=3).ok
    assert back.overlap("A", "B").excluded == (Polynomial.variable(1, 0),)


def test_manifold_file_errors():
    with pytest.raises(ParseError):
        parsing.parse_manifold_file("overlap A B\n")  # unknown charts
    with pytest.raises(ParseError):
        parsing.parse_manifold_file("chart A 1|1\ntransition A A\ny1 = x1\n")  # missing h1
    with pytest.raises(ParseError):
        parsing.parse_manifold_file("box 0 1\n")  # directive outside any section
    # components beyond the target dimensions, as in skeleton files
    for extra, line in (("y2 = x1^2\n", 4), ("h3 = x1\n", 4)):
        with pytest.raises(ParseError) as err:
            parsing.parse_manifold_file("chart A 1|0\ntransition A A\ny1 = x1\n" + extra)
        assert err.value.line == line and "exceeds" in str(err.value)
    with pytest.raises(ParseError) as err:
        parsing.parse_manifold_file("chart A 1|0\ntransition A A\ny1 = x1\ny1 = x1\n")
    assert err.value.line == 4 and "repeated" in str(err.value)
    with pytest.raises(ParseError) as err:
        parsing.parse_manifold_file("chart A 1|1\ntransition A A\ny1 = x1\nh1 = x1\n")
    assert err.value.line == 4 and "parity-odd" in str(err.value)
