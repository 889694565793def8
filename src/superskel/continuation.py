"""Extending a skeleton to a map on lambda-points, two independent ways.

``eval_subst`` is the semantic ground truth: plug the Grassmann coordinate
values straight into the component superfunctions and compute in the algebra,
inverting denominators by their terminating geometric series.

``eval_taylor`` is the finite Taylor route: split the point into body, even
souls and odd values, write each as a sum of Grassmann monomials (pieces),
and sum

    sum_{m,k} d^m(degree-k coefficient)(body) * (m soul pieces) * (k odd pieces)

over sets of m distinct soul pieces and k odd pieces on strictly increasing
coordinates, each set once, in pool order.  A repeated piece squares to
zero, even partials commute and the m! orderings of a set give equal terms,
so the Taylor weight 1/m! cancels; odd pieces anticommute, so the k!
orderings of a set, each with the sign of its sort, give the ascending one.
A piece v*gI contributes its label monomial, multiplied in set order.
Nilpotency truncates the sum: no term with m + k > rank survives.  The two
routes must agree exactly on every input; their equality is a first-class
test.
"""

from __future__ import annotations

from fractions import Fraction

from . import randgen
from .errors import DomainError, SuperskelError
from .grassmann import GrassmannElement, GrassmannMorphism, merge_sign
from .poly import _accumulate
from .report import CheckReport
from .spaces import LambdaPoint
from .superfn import Skeleton, _evaluator_at


def eval_subst(skeleton: Skeleton, point: LambdaPoint,
               check_domain: bool = True) -> LambdaPoint:
    """Evaluate by direct substitution into the component superfunctions."""
    if point.space != skeleton.source_space:
        raise SuperskelError("point lives in a different space than the skeleton source")
    if check_domain and not skeleton.source_domain.contains(point):
        raise DomainError("point lies outside the skeleton's source domain")
    evaluator = _evaluator_at(point)
    values = [comp._eval_at(evaluator) for comp in skeleton.components]
    result = LambdaPoint.of(skeleton.target_space, point.rank, values)
    if check_domain and not skeleton.target_domain.contains(result):
        raise DomainError("image body falls outside the declared target domain")
    return result


def _soul_monomials(point: LambdaPoint):
    """Monomial decompositions of the even souls and the odd values.

    Returns (A, B): lists of (0-based coordinate, label tuple, Fraction).
    """
    evens = []
    for i, v in enumerate(point.even_values):
        for labels, coeff in v.terms.items():
            if labels:
                evens.append((i, labels, coeff))
    odds = []
    for j, v in enumerate(point.odd_values):
        for labels, coeff in v.terms.items():
            odds.append((j, labels, coeff))
    return evens, odds


def _subsets(pool, length, sign, labels, coeff, chosen=(), start=0, odd=False):
    """Sets of pieces from pool, in pool order, whose label product survives.

    Yields (chosen coordinates, sign, merged labels, coefficient product);
    the running Grassmann monomial product prunes dead branches early.  Odd
    pieces take strictly increasing coordinates (t_j t_j = 0); the pool is
    sorted by coordinate, so the chosen coordinates are ascending.
    """
    if length == 0:
        yield chosen, sign, labels, coeff
        return
    for idx in range(start, len(pool)):
        coord, mono, c = pool[idx]
        if odd and chosen and coord == chosen[-1]:
            continue
        s, merged = merge_sign(labels, mono)
        if s == 0:
            continue
        yield from _subsets(pool, length - 1, sign * s, merged, coeff * c,
                            chosen + (coord,), idx + 1, odd)


def taylor_shells(skeleton: Skeleton, point: LambdaPoint, max_total: int | None = None):
    """Per-(m, k) contributions of the Taylor route, for each component.

    Returns a dict (m, k) -> tuple of GrassmannElements (one per target
    coordinate).  Each shell sums, over every set of m soul pieces and k odd
    pieces (each set once, with weight 1), its contributions as Fractions
    per label tuple, and builds its values once.  Shells whose contributions
    all vanish are omitted.  By exactness there is no surviving shell with
    m + k > rank.
    """
    rank = point.rank
    if max_total is None:
        max_total = rank
    body = point.body()
    evens, odds = _soul_monomials(point)
    components = skeleton.components
    derivative_cache: dict = {}

    def derived_at_body(sorted_odd, even_dirs):
        """(component index, nonzero value) pairs of the coefficient of
        t_sorted_odd, differentiated along even_dirs, at the body."""
        key = (sorted_odd, even_dirs)
        values = derivative_cache.get(key)
        if values is None:
            values = []
            for ci, comp in enumerate(components):
                rf = comp.coefficient(sorted_odd)
                for i in even_dirs:
                    rf = rf.derivative(i)
                value = 0 if rf.is_zero() else rf.eval(body)
                if value:
                    values.append((ci, value))
            derivative_cache[key] = values
        return values

    shells = {}
    for m in range(0, rank // 2 + 1):
        even_sets = list(_subsets(evens, m, 1, (), Fraction(1)))
        if not even_sets:
            break
        for k in range(0, max_total - m + 1):
            sums = [{} for _ in components]  # label tuple -> Fraction, per component
            for even_dirs, e_sign, e_labels, e_coeff in even_sets:
                odd_sets = _subsets(odds, k, e_sign, e_labels, e_coeff, odd=True)
                for o_chosen, sign, labels, coeff in odd_sets:
                    if sign < 0:
                        coeff = -coeff
                    for ci, value in derived_at_body(tuple(j + 1 for j in o_chosen), even_dirs):
                        _accumulate(sums[ci], labels, coeff * value)
            if any(sums):
                shells[(m, k)] = tuple(GrassmannElement(rank, terms) for terms in sums)
    return shells


def eval_taylor(skeleton: Skeleton, point: LambdaPoint) -> LambdaPoint:
    """Evaluate by the exact Taylor double sum at the body point."""
    if point.space != skeleton.source_space:
        raise SuperskelError("point lives in a different space than the skeleton source")
    if not skeleton.source_domain.contains(point):
        raise DomainError("point lies outside the skeleton's source domain")
    rank = point.rank
    totals = [GrassmannElement.zero(rank) for _ in skeleton.components]
    for contributions in taylor_shells(skeleton, point).values():
        totals = [a + b for a, b in zip(totals, contributions)]
    p = skeleton.target_space.even_dim
    result = LambdaPoint(skeleton.target_space, rank, totals[:p], totals[p:])
    if not skeleton.target_domain.contains(result):
        raise DomainError("image body falls outside the declared target domain")
    return result


def default_morphism_battery(rank: int):
    """The standard battery: body projection, permutations, scalings,
    generator kills, and an odd cubic substitution (when the rank allows)."""
    battery = [("to_body", GrassmannMorphism.to_body(rank))]
    if rank >= 2:
        rotation = list(range(2, rank + 1)) + [1]
        battery.append(("rotate", GrassmannMorphism.permutation(rank, rotation)))
        swap = list(range(1, rank + 1))
        swap[0], swap[1] = swap[1], swap[0]
        battery.append(("swap12", GrassmannMorphism.permutation(rank, swap)))
    if rank >= 1:
        battery.append(("scale1", GrassmannMorphism.scale_generator(rank, 1, Fraction(3, 2))))
        battery.append(("kill1", GrassmannMorphism.kill_generator(rank, 1)))
    if rank >= 3:
        cubic = GrassmannElement.monomial(rank, (rank - 2, rank - 1, rank))
        images = [GrassmannElement.generator(rank, i + 1) for i in range(rank)]
        images[0] = cubic
        battery.append(("odd_cubic", GrassmannMorphism(rank, rank, images)))
    return battery


def check_naturality(skeleton: Skeleton, rank: int, rng,
                     sample_count: int = 4) -> CheckReport:
    """Verify eval(f, m(x)) == m(eval(f, x)) over the default morphism battery
    at points drawn in the source domain; the battery fixes bodies, so every
    mapped point stays in the domain."""
    report = CheckReport(f"naturality at rank {rank}")
    battery = default_morphism_battery(rank)
    samples = [randgen.random_point(rng, skeleton.source_space, rank, skeleton.source_domain)
               for _ in range(sample_count)]
    for s_idx, x in enumerate(samples):
        through_f = eval_subst(skeleton, x)
        for label, morphism in battery:
            lhs = eval_subst(skeleton, x.map(morphism))
            rhs = through_f.map(morphism)
            report.add(f"{label} on sample {s_idx}", lhs == rhs)
    return report


def truncation_consistent(skeleton: Skeleton, point: LambdaPoint) -> bool:
    """Evaluate-then-embed equals embed-then-evaluate, one rank up."""
    higher = point.embed(point.rank + 1)
    return eval_subst(skeleton, point).embed(point.rank + 1) == eval_subst(skeleton, higher)
