import random
import sys
import threading
import time
from fractions import Fraction as F

import pytest

from superskel import poly, randgen
from superskel.continuation import eval_subst
from superskel.errors import ParityError, SpaceMismatchError, SuperskelError
from superskel.grassmann import GrassmannElement as G
from superskel.morphisms import (PointEvaluation, check_algebra_morphism, compose_formula,
                                 compose_subst, decode_point, substitute_superfunction)
from superskel.poly import Polynomial, RationalFunction
from superskel.spaces import DeWittDomain, SuperSpace
from superskel.superfn import Skeleton, SuperFunction

S10 = SuperSpace(1, 0)
S12 = SuperSpace(1, 2)


def full(space):
    return DeWittDomain.full(space)


def test_compose_example():
    f = Skeleton(S12, full(S12), S10, full(S10),
                 [SuperFunction.even_coordinate(S12, 1)
                  + SuperFunction.odd_coordinate(S12, 1)
                  * SuperFunction.odd_coordinate(S12, 2)])
    g = Skeleton(S10, full(S10), S10, full(S10),
                 [SuperFunction.even_coordinate(S10, 1) ** 2])
    x = SuperFunction.even_coordinate(S12, 1)
    expected = x ** 2 + 2 * x * SuperFunction.odd_coordinate(S12, 1) \
        * SuperFunction.odd_coordinate(S12, 2)
    for compose in (compose_subst, compose_formula):
        out = compose(g, f)
        assert out.components[0] == expected
    # the witness: both routes agree at random points
    rng = random.Random(0)
    composed = compose_subst(g, f)
    for _ in range(10):
        pt = randgen.random_point(rng, S12, 4)
        assert eval_subst(composed, pt) == eval_subst(g, eval_subst(f, pt))


def test_double_reciprocal():
    punctured = full(S10).with_excluded([Polynomial.variable(1, 0)])
    inv = Skeleton(S10, punctured, S10, punctured,
                   [SuperFunction(S10, punctured,
                                  {(): RationalFunction(Polynomial.one(1),
                                                        Polynomial.variable(1, 0))})])
    out = compose_subst(inv, inv)
    assert out.components[0] == SuperFunction.even_coordinate(S10, 1)
    assert any(not poly.is_constant() for poly in out.source_domain.excluded)


def test_formula_route_excludes_where_an_outer_denominator_vanishes():
    # y1/y2 through (x, x) cancels to 1, but f(0) lies outside the domain of g
    S20 = SuperSpace(2, 0)
    y2 = Polynomial.variable(2, 1)
    mid = full(S20).with_excluded([y2])
    g = Skeleton(S20, mid, S10, full(S10),
                 [SuperFunction(S20, mid, {(): RationalFunction(Polynomial.variable(2, 0), y2)})])
    x = SuperFunction.even_coordinate(S10, 1)
    f = Skeleton(S10, full(S10), S20, mid, [x, x])
    by_subst, by_formula = compose_subst(g, f), compose_formula(g, f)
    assert by_formula == by_subst
    assert by_formula.components[0] == SuperFunction.constant(S10, 1, full(S10))
    for out in (by_subst, by_formula):
        assert out.components[0].domain.excluded == (Polynomial.variable(1, 0),)


def test_identity_laws():
    rng = random.Random(1)
    for _ in range(10):
        src = randgen.random_spaces(rng, 2, 2)
        tgt = randgen.random_spaces(rng, 2, 2)
        f = randgen.random_skeleton(rng, src, tgt, degree=2)
        left = compose_subst(Skeleton.identity(tgt), f)
        right = compose_subst(f, Skeleton.identity(src))
        assert all(a == b for a, b in zip(left.components, f.components))
        assert all(a == b for a, b in zip(right.components, f.components))


def test_space_mismatch():
    f = Skeleton.identity(S10)
    g = Skeleton.identity(S12)
    with pytest.raises(SpaceMismatchError):
        compose_subst(g, f)


def test_associativity_random():
    rng = random.Random(2)
    for _ in range(15):
        spaces = [randgen.random_spaces(rng, 2, 2) for _ in range(4)]
        f = randgen.random_skeleton(rng, spaces[0], spaces[1], degree=2, terms=2)
        g = randgen.random_skeleton(rng, spaces[1], spaces[2], degree=2, terms=2)
        h = randgen.random_skeleton(rng, spaces[2], spaces[3], degree=2, terms=2)
        left = compose_subst(h, compose_subst(g, f))
        right = compose_subst(compose_subst(h, g), f)
        assert all(a == b for a, b in zip(left.components, right.components))


def test_formula_equals_subst_random():
    rng = random.Random(3)
    for case in range(40):
        src = randgen.random_spaces(rng, 2, 2)
        mid = randgen.random_spaces(rng, 2, 2)
        tgt = randgen.random_spaces(rng, 2, 2)
        f = randgen.random_skeleton(rng, src, mid, degree=3, terms=2,
                                    rational=case % 5 == 0)
        g = randgen.random_skeleton(rng, mid, tgt, degree=3, terms=2)
        a = compose_subst(g, f)
        b = compose_formula(g, f)
        assert all(u == v for u, v in zip(a.components, b.components))
        for body in f.source_domain.sample_bodies(rng, 5):
            for u, v in zip(a.components, b.components):
                for labels in set(u.terms) | set(v.terms):
                    assert u.coefficient(labels).eval(body) == \
                        v.coefficient(labels).eval(body)


def test_formula_with_rational_body_maps():
    # the superline transitions have genuinely rational body maps; composing
    # them by the combinatorial route must still return the identity
    from superskel.atlas import projective_superline

    line = projective_superline()
    forward = line.transitions[("A", "B")]
    backward = line.transitions[("B", "A")]
    out = compose_formula(backward, forward)
    space = SuperSpace(1, 1)
    assert out.components[0] == SuperFunction.even_coordinate(space, 1)
    assert out.components[1] == SuperFunction.odd_coordinate(space, 1)


def test_compose_on_punctured_domains():
    rng = random.Random(77)
    for case in range(10):
        src = randgen.random_spaces(rng, 2, 2, min_even=1)
        mid = randgen.random_spaces(rng, 2, 2)
        tgt = randgen.random_spaces(rng, 2, 2)
        p = src.even_dim
        xpoly = Polynomial.variable(p, 0)
        dom = DeWittDomain.full(src).with_excluded([xpoly])
        comps = []
        for _ in range(mid.even_dim):
            base = randgen.random_superfunction(rng, src, degree=2, terms=2,
                                                parity=0, domain=dom)
            comps.append(base + SuperFunction(
                src, dom, {(): RationalFunction(Polynomial.one(p), xpoly)}))
        for _ in range(mid.odd_dim):
            comps.append(randgen.random_superfunction(rng, src, degree=2, terms=2,
                                                      parity=1, domain=dom))
        f = Skeleton(src, dom, mid, full(mid), comps)
        g = randgen.random_skeleton(rng, mid, tgt, degree=2, terms=2)
        a = compose_subst(g, f)
        b = compose_formula(g, f)
        assert all(u == v for u, v in zip(a.components, b.components))
        for _ in range(3):
            x = randgen.random_point(rng, src, 4, dom)
            assert eval_subst(a, x, check_domain=False) == \
                eval_subst(g, eval_subst(f, x, check_domain=False), check_domain=False)


def test_formula_reaches_the_square_of_a_soul():
    # the soul t1*t2 + t3*t4 + x1*t1*t3 squares to 2*t1*t2*t3*t4, so the
    # m = 2 term of the formula, weighted 1/alpha! = 1/2, survives
    from superskel.parsing import parse_skeleton_file

    inner = parse_skeleton_file(
        "source 1|4\ntarget 1|4\ny1 = x1 + t1*t2 + t3*t4 + x1*t1*t3\n"
        "h1 = t1\nh2 = t2 + x1*t1*t3*t4\nh3 = t3\nh4 = t4\n")
    for outer_text in ("source 1|4\ntarget 1|0\ny1 = x1^3\n",
                       "source 1|4\ntarget 1|1\ny1 = 1/(1 + x1^2)\nh1 = x1*t1\n"):
        outer = parse_skeleton_file(outer_text)
        by_subst, by_formula = compose_subst(outer, inner), compose_formula(outer, inner)
        assert by_formula.components == by_subst.components
        assert [c.domain for c in by_formula.components] == \
            [c.domain for c in by_subst.components]
        assert by_formula.source_domain == by_subst.source_domain


def test_formula_odd_linear():
    # outer odd-linear map h -> c*h picks up the inner odd component
    S01 = SuperSpace(0, 1)
    c = F(5, 3)
    outer = Skeleton(S01, full(S01), S01, full(S01),
                     [c * SuperFunction.odd_coordinate(S01, 1)])
    inner = Skeleton(S12, full(S12), S01, full(S01),
                     [SuperFunction.odd_coordinate(S12, 1)])
    out = compose_formula(outer, inner)
    assert out.components[0] == c * SuperFunction.odd_coordinate(S12, 1)


def test_pullback():
    rng = random.Random(4)
    for _ in range(20):
        src = randgen.random_spaces(rng, 2, 2)
        tgt = randgen.random_spaces(rng, 2, 2, min_even=1)
        f = randgen.random_skeleton(rng, src, tgt, degree=2, terms=2)
        h1 = randgen.random_superfunction(rng, tgt, degree=2, terms=2)
        h2 = randgen.random_superfunction(rng, tgt, degree=2, terms=2)
        assert substitute_superfunction(h1 * h2, f) == \
            substitute_superfunction(h1, f) * substitute_superfunction(h2, f)
        coord = SuperFunction.even_coordinate(tgt, 1)
        assert substitute_superfunction(coord, f) == f.components[0]
        assert substitute_superfunction(SuperFunction.constant(tgt, 1), f) == \
            SuperFunction.constant(src, 1)


def test_decode_point_examples():
    space = SuperSpace(1, 1)
    point = decode_point(space, 2, [G.scalar(2, 3) + G.monomial(2, (1, 2))],
                         [G.generator(2, 1)])
    assert point.even_values[0] == G.scalar(2, 3) + G.monomial(2, (1, 2))
    square = SuperFunction.even_coordinate(space, 1) ** 2
    assert square.eval(point) == G.scalar(2, 9) + 6 * G.monomial(2, (1, 2))

    body = decode_point(space, 2, [G.scalar(2, 3)], [G.zero(2)])
    assert body.split()[1] == (G.zero(2),)

    with pytest.raises(ParityError):
        decode_point(space, 2, [G.generator(2, 1)], [G.zero(2)])


def test_decode_point_domain():
    space = SuperSpace(1, 0)
    punctured = DeWittDomain.full(space).with_excluded([Polynomial.variable(1, 0)])
    from superskel.errors import DomainError

    with pytest.raises(DomainError):
        decode_point(space, 2, [G.monomial(2, (1, 2))], [], domain=punctured)


def test_encode_decode_bijection():
    rng = random.Random(5)
    for _ in range(40):
        space = randgen.random_spaces(rng, 2, 2)
        rank = rng.randint(0, 5)
        x = randgen.random_point(rng, space, rank)
        ev = PointEvaluation(x)
        evens = [ev(SuperFunction.even_coordinate(space, i + 1))
                 for i in range(space.even_dim)]
        odds = [ev(SuperFunction.odd_coordinate(space, j + 1))
                for j in range(space.odd_dim)]
        assert decode_point(space, rank, evens, odds) == x


def test_encode_multiplicative():
    rng = random.Random(6)
    for _ in range(25):
        space = randgen.random_spaces(rng, 2, 2)
        x = randgen.random_point(rng, space, rng.randint(1, 5))
        ev = PointEvaluation(x)
        h1 = randgen.random_superfunction(rng, space, degree=3)
        h2 = randgen.random_superfunction(rng, space, degree=3)
        assert ev(h1 * h2) == ev(h1) * ev(h2)
        assert ev(SuperFunction.constant(space, 1)) == G.unit(x.rank)


def test_check_algebra_morphism():
    space = SuperSpace(1, 1)
    rng = random.Random(7)
    x = randgen.random_point(rng, space, 3)
    coord_x = SuperFunction.even_coordinate(space, 1)
    coord_t = SuperFunction.odd_coordinate(space, 1)
    square = coord_x * coord_x

    table = [(coord_x, x.even_values[0]), (coord_t, x.odd_values[0])]
    assert check_algebra_morphism(space, 3, table).ok

    table.append((square, square.eval(x)))
    assert check_algebra_morphism(space, 3, table).ok

    broken = table[:-1] + [(square, square.eval(x) + 1)]
    report = check_algebra_morphism(space, 3, broken)
    assert not report.ok

    with pytest.raises(SuperskelError):
        check_algebra_morphism(space, 3, [(coord_x, x.even_values[0])])


def test_skeleton_reconstructs_from_coordinate_pullbacks():
    rng = random.Random(8)
    for _ in range(10):
        src = randgen.random_spaces(rng, 2, 2)
        tgt = randgen.random_spaces(rng, 2, 2)
        f = randgen.random_skeleton(rng, src, tgt, degree=2)
        comps = [substitute_superfunction(SuperFunction.even_coordinate(tgt, i + 1), f)
                 for i in range(tgt.even_dim)]
        comps += [substitute_superfunction(SuperFunction.odd_coordinate(tgt, j + 1), f)
                  for j in range(tgt.odd_dim)]
        assert all(a == b for a, b in zip(comps, f.components))


def _degrees(functions):
    """(stored, reduced): the largest numerator/denominator total degree over
    the coefficients as stored, and after ``sympy.cancel``."""
    sympy = pytest.importorskip("sympy")
    stored = reduced = 0
    for fn in functions:
        for coeff in fn.terms.values():
            xs = sympy.symbols(f"x0:{coeff.nvars}")

            def expr(poly):
                return sum((sympy.Rational(c.numerator, c.denominator)
                            * sympy.Mul(*(x ** e for x, e in zip(xs, exps)))
                            for exps, c in poly.terms.items()), sympy.Integer(0))

            stored = max(stored, coeff.num.degree(), coeff.den.degree())
            if coeff.is_polynomial():
                reduced = max(reduced, coeff.num.degree())
                continue
            num, den = sympy.fraction(sympy.cancel(expr(coeff.num) / expr(coeff.den)))
            reduced = max(reduced, sympy.Poly(num, *xs).total_degree(),
                          sympy.Poly(den, *xs).total_degree())
    return stored, reduced


def test_rational_self_composition_stays_reduced():
    # stored at degree 50 (f o f) and 460 (f o f o f, 22 s) without cancellation
    f = randgen.random_skeleton(random.Random(1), S12, S12, degree=2, terms=2, rational=True)
    started = time.perf_counter()
    ff = compose_subst(f, f)
    fff = compose_subst(f, ff)
    assert compose_formula(f, f) == ff
    assert compose_formula(f, ff) == fff
    assert time.perf_counter() - started < 10
    assert _degrees(ff.components) == (12, 12)
    assert _degrees(fff.components) == (28, 28)


def test_random_rational_results_stay_reduced():
    """Stored degrees equal reduced degrees on random rational skeletons: the
    coefficient derivatives the Taylor route evaluates, compositions by both
    routes, and the difference quotient at t = 0."""
    from superskel.calculus import bgn_quotient

    rng = random.Random(2)
    for _ in range(4):
        src, mid, tgt = (randgen.random_spaces(rng, 2, 2, min_total=1) for _ in range(3))
        f = randgen.random_skeleton(rng, src, mid, degree=3, terms=2, rational=True)
        g = randgen.random_skeleton(rng, mid, tgt, degree=2, terms=2, rational=True)
        checked = []
        for comp in f.components:
            for i in range(1, src.even_dim + 1):
                checked += [comp.partial(i), comp.partial(i).partial(i)]
        composed = compose_subst(g, f)
        assert compose_formula(g, f) == composed
        checked += composed.components
        checked += bgn_quotient(f).at_zero_t().components
        stored, reduced = _degrees(checked)
        assert stored == reduced


def test_no_memo_survives_a_call(monkeypatch):
    """The substitution memo (powers and inverted factor images) lives for
    one call: a second call on the same outer skeleton, whose factors key
    the memo, with other values gets its own values, in either order.  So
    does the gcd memo: each route call, also one nested in another memo's
    block or one in a second thread, decides its gcds in a memo of its own,
    and none is left set after a call returns or raises."""
    from superskel.errors import DomainError, NotInvertibleError
    from superskel.parsing import parse_skeleton_file

    outer = parse_skeleton_file(
        "source 1|2\ntarget 1|2\n"
        "y1 = x1^3 + 1/(x1^2 + 1) + t1*t2/(x1^2 + 1)^2\n"
        "h1 = t1/(x1^2 + 1) + x1^2*t2\nh2 = x1*t2\n")
    inner1 = parse_skeleton_file("source 1|2\ntarget 1|2\ny1 = x1 + t1*t2\nh1 = t1\nh2 = t2\n")
    inner2 = parse_skeleton_file(
        "source 1|2\ntarget 1|2\ny1 = 2*x1 - 1 + x1*t1*t2\nh1 = t2\nh2 = t1 + x1*t2\n")
    forward = forward_compositions = [compose_subst(outer, inner) for inner in (inner1, inner2)]
    backward = [compose_subst(outer, inner) for inner in (inner2, inner1)]
    assert forward[0] != forward[1]
    assert forward[1] == backward[0] == compose_formula(outer, inner2)
    assert forward[0] == backward[1] == compose_formula(outer, inner1)
    rng = random.Random(3)
    points = [randgen.random_point(rng, S12, 4) for _ in range(2)]
    for inner, composed in zip((inner1, inner2), forward):
        for x in points:
            assert eval_subst(composed, x) == eval_subst(outer, eval_subst(inner, x))
    # two substitute calls at different Grassmann values, in either order,
    # against the point evaluator, which keeps no memo of its own
    h = outer.components[0]
    one = G.unit(4)

    def substituted(x):
        return h.substitute(x.even_values, x.odd_values, one)
    forward = [substituted(x) for x in points]
    backward = [substituted(x) for x in reversed(points)]
    assert forward[0] != forward[1]
    assert forward == backward[::-1] == [h.eval(x) for x in points]

    # the memo in force at each gcd that is computed, not read from a memo
    seen = []
    computed = poly._gcd_parts

    def spy(p, q):
        seen.append((threading.get_ident(), poly._MEMO.get()))
        return computed(p, q)
    monkeypatch.setattr(poly, "_gcd_parts", spy)

    def memos_of(call, *args):
        before = poly._MEMO.get()
        del seen[:]
        call(*args)
        assert poly._MEMO.get() is before
        memos = [memo for _, memo in seen]
        assert memos and memos[0] is not None, call
        assert all(memo is memos[0] for memo in memos), call
        return memos[0]
    # the memo objects are kept, so their ids are not reused
    memos = [memos_of(route, outer, inner)
             for inner in (inner1, inner2, inner1) for route in (compose_subst, compose_formula)]
    assert len({id(memo) for memo in memos}) == len(memos)
    with poly._gcd_memo():
        enclosing = poly._MEMO.get()
        memos += [memos_of(route, outer, inner1) for route in (compose_subst, compose_formula)]
        assert poly._MEMO.get() is enclosing
    assert poly._MEMO.get() is None
    assert len({id(memo) for memo in memos + [enclosing]}) == len(memos) + 1
    # the body map 1 sends x1 - 1 to 0 (see the next test)
    dishonest = parse_skeleton_file("source 1|2\ntarget 1|0\nexclude x1 - 1\n"
                                    "y1 = 1/(x1^2 + 1) + t1*t2/(x1 - 1)\n")
    vanishing = parse_skeleton_file("source 1|2\ntarget 1|2\ny1 = 1 + t1*t2\nh1 = t1\nh2 = t2\n")
    for route, error in ((compose_subst, NotInvertibleError), (compose_formula, DomainError)):
        with pytest.raises(error):
            route(dishonest, vanishing)
        assert poly._MEMO.get() is None

    # four threads (more than the two cores of a small host) inside their
    # compositions at the same time, switching often, each with one memo of
    # its own: at its first gcd each reads its memo, waits until all have
    # set theirs, reads it again and waits for the others
    threads_n = 4
    barrier = threading.Barrier(threads_n, timeout=30)
    waited = set()

    def meeting_spy(p, q):
        ident = threading.get_ident()
        if ident not in waited:
            waited.add(ident)
            for _ in range(2):
                seen.append((ident, poly._MEMO.get()))
                barrier.wait()
        return spy(p, q)
    monkeypatch.setattr(poly, "_gcd_parts", meeting_spy)
    del seen[:]
    inners = [inner1, inner2] * (threads_n // 2)
    results = [None] * threads_n

    def compose_in_thread(index):
        results[index] = compose_subst(outer, inners[index])
    threads = [threading.Thread(target=compose_in_thread, args=(i,)) for i in range(threads_n)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    by_thread = {}
    for ident, memo in seen:
        by_thread.setdefault(ident, []).append(memo)
    assert len(by_thread) == threads_n
    for memos_of_one in by_thread.values():
        assert memos_of_one[0] is not None
        assert all(memo is memos_of_one[0] for memo in memos_of_one)
    assert len({id(memos_of_one[0]) for memos_of_one in by_thread.values()}) == threads_n
    assert poly._MEMO.get() is None
    assert results == forward_compositions * (threads_n // 2)


def test_denominator_vanishing_identically_after_composing():
    """An inner body map that sends an outer factor to 0 makes both routes
    raise, call after call: the failed inversion is not kept as a value."""
    from superskel.errors import DomainError, NotInvertibleError
    from superskel.parsing import parse_skeleton_file

    outer = parse_skeleton_file("source 1|2\ntarget 1|0\nexclude x1 - 1\n"
                                "y1 = 1/(x1^2 + 1) + t1*t2/(x1 - 1)\n")
    # the body map is 1, so the image of x1 - 1 is the soul t1*t2
    vanishing = parse_skeleton_file("source 1|2\ntarget 1|2\ny1 = 1 + t1*t2\nh1 = t1\nh2 = t2\n")
    for _ in range(2):
        with pytest.raises(NotInvertibleError):
            compose_subst(outer, vanishing)
        with pytest.raises(DomainError, match="vanishes identically"):
            compose_formula(outer, vanishing)
    honest = parse_skeleton_file("source 1|2\ntarget 1|2\ny1 = 2 + t1*t2\nh1 = t1\nh2 = t2\n")
    assert compose_subst(outer, honest) == compose_formula(outer, honest) == parse_skeleton_file(
        "source 1|2\ntarget 1|0\ny1 = 1/5 + 21/25*t1*t2\n")
