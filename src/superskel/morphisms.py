"""Composition of skeletons, pullback by substitution, and the point/evaluation
dictionary.

``compose_subst`` substitutes the inner skeleton's component superfunctions
into the outer one's, inverting coefficient denominators in the superfunction
algebra.  It is the semantic definition of composition.

``compose_formula`` recomputes the same composition through the combinatorial
route: write the inner map as body map + even souls + odd parts, then expand

    sum_{alpha, J} 1/alpha! (d^alpha of the outer coefficient of t_J)(body map)
                   * soul^alpha * odd_J

entirely in symbols, composing coefficient derivatives through the body map
only.  Even partials commute, so the even directions are multisets alpha
with the multinomial weight 1/alpha!; the odd parts anticommute, so the odd
directions are ascending tuples J, taken once with weight 1, and odd_J is
the product of the odd parts in J's order.
Equality with ``compose_subst`` is a first-class test.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import factorial, prod

from .errors import DomainError, NotInvertibleError, SpaceMismatchError, SuperskelError
from .grassmann import GrassmannElement
from .poly import RationalFunction, _Substitution
from .report import CheckReport
from .spaces import DeWittDomain, LambdaPoint, SuperSpace
from .superfn import Skeleton, SuperFunction


def substitute_superfunction(h: SuperFunction, skeleton: Skeleton) -> SuperFunction:
    """h composed with a skeleton whose target is h's space: the pullback of
    h along the skeleton."""
    if h.space != skeleton.target_space:
        raise SpaceMismatchError("superfunction does not live on the skeleton's target")
    one = SuperFunction.constant(skeleton.source_space, 1, skeleton.source_domain)
    return h.substitute(skeleton.even_components, skeleton.odd_components, one=one)


def compose_subst(outer: Skeleton, inner: Skeleton) -> Skeleton:
    """Composition by substitution; denominators met along the way join the
    result's excluded zero sets automatically."""
    if inner.target_space != outer.source_space:
        raise SpaceMismatchError("skeletons do not compose: target/source spaces differ")
    comps = [substitute_superfunction(c, inner) for c in outer.components]
    return Skeleton(inner.source_space, inner.source_domain,
                    outer.target_space, outer.target_domain, comps)


def compose_formula(outer: Skeleton, inner: Skeleton) -> Skeleton:
    """Composition by the combinatorial expansion through the body map.
    Each power of a body map and each denominator factor's image and its
    inverse are computed once per call, in a memo dropped when it returns;
    the image gives the factor's excluded zero set."""
    if inner.target_space != outer.source_space:
        raise SpaceMismatchError("skeletons do not compose: target/source spaces differ")
    src = inner.source_space
    q_src = src.odd_dim

    body_maps = list(inner.body_maps())
    souls = [c.soul() for c in inner.even_components]
    odds = list(inner.odd_components)
    one_rf = RationalFunction.constant(src.even_dim, 1)

    soul_min = [s.min_odd_degree() for s in souls]
    odd_min = [o.min_odd_degree() for o in odds]

    subst = _Substitution(body_maps, one_rf)
    excluded = [[] for _ in outer.components]

    def composed_derivative(ci, sorted_odd, even_dirs):
        """(d^m along even_dirs of the ascending degree-k coefficient of the
        outer component ci) composed through the body map; None when zero.
        Records the zero set of each denominator factor's image as excluded
        from component ci, also where that factor cancels in the result.
        The loops below ask for each (ci, sorted_odd, even_dirs) once."""
        rf = outer.components[ci].coefficient(sorted_odd)
        for d in even_dirs:
            rf = rf.derivative(d)
        if rf.is_zero():
            return None
        for factor, _ in rf.factors:
            excluded[ci].append(subst.image(factor).num)
        try:
            return subst.rational(rf)
        except NotInvertibleError:
            raise DomainError(
                "a denominator vanishes identically after composing "
                "through the body map; the declared domains are dishonest")

    one = SuperFunction.constant(src, 1, inner.source_domain)
    accs = [SuperFunction.zero(src, inner.source_domain) for _ in outer.components]
    for m in range(0, q_src // 2 + 1):
        for evens in combinations_with_replacement(range(len(souls)), m):
            degree = sum(soul_min[i] for i in evens)
            if degree > q_src:
                continue
            soul_product = one
            for i in evens:
                soul_product = soul_product * souls[i]
            if soul_product.is_zero():
                continue
            weight = Fraction(1, prod(factorial(evens.count(i)) for i in set(evens)))
            for k in range(0, q_src + 1):
                for odd_dirs in combinations(range(len(odds)), k):
                    if degree + sum(odd_min[j] for j in odd_dirs) > q_src:
                        continue
                    sorted_odd = tuple(j + 1 for j in odd_dirs)
                    term = None
                    for ci, acc in enumerate(accs):
                        scalar = composed_derivative(ci, sorted_odd, evens)
                        if scalar is None:
                            continue
                        if term is None:
                            term = soul_product
                            for j in odd_dirs:
                                term = term * odds[j]
                        if not term.is_zero():
                            coeff = SuperFunction(src, inner.source_domain, {(): scalar * weight})
                            accs[ci] = acc + coeff * term
    results = []
    for ci, acc in enumerate(accs):
        # so are the denominator factors of the final coefficients
        dens = excluded[ci] + [f for c in acc._coeffs.values() for f, _ in c.factors]
        results.append(SuperFunction._make(src, acc.domain.with_excluded(dens), acc._coeffs))
    return Skeleton(inner.source_space, inner.source_domain,
                    outer.target_space, outer.target_domain, results)


class PointEvaluation:
    """The evaluation morphism of a lambda-point: superfunctions to algebra values.

    Unital, even and multiplicative: the point is exactly this morphism's
    restriction to the coordinate functions.
    """

    def __init__(self, point: LambdaPoint):
        self.point = point

    def __call__(self, h: SuperFunction) -> GrassmannElement:
        return h.eval(self.point)

    def __repr__(self):
        return f"PointEvaluation({self.point!r})"


def decode_point(space: SuperSpace, rank: int, even_images, odd_images,
                 domain: DeWittDomain | None = None) -> LambdaPoint:
    """Rebuild the lambda-point from the coordinate images of an evaluation
    morphism; parity violations and out-of-domain bodies are rejected."""
    point = LambdaPoint(space, rank, even_images, odd_images)
    if domain is not None and not domain.contains(point):
        raise DomainError("decoded point lies outside the domain")
    return point


def check_algebra_morphism(space: SuperSpace, rank: int, table) -> CheckReport:
    """Consistency of a finite value table with evaluation at its decoded point.

    ``table`` is a list of (superfunction, claimed value) pairs and must
    contain every coordinate function; the point is decoded from those rows
    and every row is re-checked against honest evaluation there.
    """
    report = CheckReport("algebra-morphism consistency")
    even_images = [None] * space.even_dim
    odd_images = [None] * space.odd_dim
    for h, value in table:
        for i in range(space.even_dim):
            if h == SuperFunction.even_coordinate(space, i + 1):
                even_images[i] = value
        for j in range(space.odd_dim):
            if h == SuperFunction.odd_coordinate(space, j + 1):
                odd_images[j] = value
    if any(v is None for v in even_images + odd_images):
        raise SuperskelError("the table must contain every coordinate function")
    point = decode_point(space, rank, even_images, odd_images)
    for idx, (h, value) in enumerate(table):
        actual = h.eval(point)
        report.add(f"row {idx}", actual == value,
                   "" if actual == value else f"evaluates to {actual.format()}, table says {value.format()}")
    return report
