"""Seeded random generators for property suites and tests.

Everything takes an explicit ``random.Random`` so suites are reproducible.
Rational-coefficient skeletons use denominators from a family that cannot
vanish on the sampled domains (powers of 1 + x_i^2, or a bare coordinate
paired with a punctured domain), keeping every generated case honest.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .grassmann import GrassmannElement, GrassmannMorphism
from .poly import Polynomial, RationalFunction
from .spaces import DeWittDomain, LambdaPoint, SuperSpace, Vector
from .superfn import Skeleton, SuperFunction


def random_fraction(rng, bound: int = 6, den_bound: int = 4, nonzero: bool = False) -> Fraction:
    while True:
        value = Fraction(rng.randint(-bound, bound), rng.randint(1, den_bound))
        if value or not nonzero:
            return value


def random_grassmann(rng, rank: int, parity=None, terms: int = 3,
                     body=None, nonzero_body: bool = False) -> GrassmannElement:
    """Random element; ``parity`` 0/1 restricts monomial lengths."""
    labels_pool = []
    for size in range(rank + 1):
        if parity is not None and size % 2 != parity:
            continue
        labels_pool.extend(combinations(range(1, rank + 1), size))
    result = {}
    if labels_pool:
        for _ in range(terms):
            labels = labels_pool[rng.randrange(len(labels_pool))]
            coeff = random_fraction(rng)
            if coeff:
                result[labels] = result.get(labels, Fraction(0)) + coeff
    element = GrassmannElement(rank, result)
    if body is not None:
        element = element - element.body() + Fraction(body)
    elif nonzero_body and element.body() == 0:
        element = element + random_fraction(rng, nonzero=True)
    return element


def random_soul(rng, rank: int, terms: int = 2) -> GrassmannElement:
    """Random even element with zero body."""
    element = random_grassmann(rng, rank, parity=0, terms=terms)
    return element - element.body()


def random_morphism(rng, source_rank: int, target_rank: int,
                    image_terms: int = 2) -> GrassmannMorphism:
    images = [random_grassmann(rng, target_rank, parity=1, terms=image_terms)
              for _ in range(source_rank)]
    return GrassmannMorphism(source_rank, target_rank, images)


def random_polynomial(rng, nvars: int, degree: int = 3, terms: int = 3,
                      bound: int = 4) -> Polynomial:
    result = {}
    for _ in range(terms):
        exps = [0] * nvars
        budget = rng.randint(0, degree)
        for _ in range(budget):
            if nvars == 0:
                break
            exps[rng.randrange(nvars)] += 1
        coeff = random_fraction(rng, bound=bound)
        if coeff:
            key = tuple(exps)
            result[key] = result.get(key, Fraction(0)) + coeff
    return Polynomial(nvars, result)


def _safe_denominator(rng, nvars: int) -> Polynomial:
    """1 + x_i^2 (+ optionally x_j^2): no rational zeros, any domain works."""
    if nvars == 0:
        return Polynomial.one(0)
    i = rng.randrange(nvars)
    den = Polynomial.one(nvars) + Polynomial.variable(nvars, i) ** 2
    if nvars > 1 and rng.random() < 0.3:
        j = rng.randrange(nvars)
        den = den + Polynomial.variable(nvars, j) ** 2
    return den


def random_coefficient(rng, nvars: int, degree: int = 3, rational: bool = False) -> RationalFunction:
    num = random_polynomial(rng, nvars, degree)
    if not rational or nvars == 0:
        return RationalFunction(num)
    return RationalFunction(num, _safe_denominator(rng, nvars))


def random_superfunction(rng, space: SuperSpace, degree: int = 3, terms: int = 3,
                         parity=None, rational: bool = False,
                         domain: DeWittDomain | None = None) -> SuperFunction:
    domain = domain or DeWittDomain.full(space)
    pool = []
    for size in range(space.odd_dim + 1):
        if parity is not None and size % 2 != parity:
            continue
        pool.extend(combinations(range(1, space.odd_dim + 1), size))
    result = {}
    for _ in range(terms):
        if not pool:
            break
        labels = pool[rng.randrange(len(pool))]
        coeff = random_coefficient(rng, space.even_dim, degree, rational)
        if coeff.is_zero():
            continue
        if labels in result:
            coeff = result[labels] + coeff
        result[labels] = coeff
    return SuperFunction(space, domain, result)


def random_skeleton(rng, source: SuperSpace, target: SuperSpace, degree: int = 3,
                    terms: int = 3, rational: bool = False,
                    domain: DeWittDomain | None = None,
                    target_domain: DeWittDomain | None = None) -> Skeleton:
    domain = domain or DeWittDomain.full(source)
    target_domain = target_domain or DeWittDomain.full(target)
    comps = [random_superfunction(rng, source, degree, terms, parity=0,
                                  rational=rational, domain=domain)
             for _ in range(target.even_dim)]
    comps += [random_superfunction(rng, source, degree, terms, parity=1,
                                   rational=rational, domain=domain)
              for _ in range(target.odd_dim)]
    return Skeleton(source, domain, target, target_domain, comps)


def random_point_with_body(rng, space: SuperSpace, rank: int, body,
                           soul_terms: int = 2) -> LambdaPoint:
    evens = []
    for value in body:
        evens.append(random_soul(rng, rank, soul_terms) + Fraction(value))
    odds = [random_grassmann(rng, rank, parity=1, terms=soul_terms)
            for _ in range(space.odd_dim)]
    return LambdaPoint(space, rank, evens, odds)


def random_point(rng, space: SuperSpace, rank: int,
                 domain: DeWittDomain | None = None,
                 soul_terms: int = 2) -> LambdaPoint:
    domain = domain or DeWittDomain.full(space)
    body = domain.sample_bodies(rng, 1)[0]
    return random_point_with_body(rng, space, rank, body, soul_terms)


def random_vector(rng, space: SuperSpace, rank: int, terms: int = 2) -> Vector:
    """Parity-correct vector: even entries on even coordinates, odd on odd."""
    values = [random_grassmann(rng, rank, parity=0, terms=terms)
              for _ in range(space.even_dim)]
    values += [random_grassmann(rng, rank, parity=1, terms=terms)
               for _ in range(space.odd_dim)]
    return Vector(space, rank, values)


def random_pure_vector(rng, space: SuperSpace, rank: int):
    """Vector supported on one coordinate with a single monomial value.

    Returns (vector, coordinate parity, scalar-monomial parity); the vector's
    total parity is their sum mod 2.
    """
    from itertools import combinations as _comb

    coord = rng.randrange(space.even_dim + space.odd_dim)
    coord_parity = 0 if coord < space.even_dim else 1
    pool = [labels for size in range(rank + 1)
            for labels in _comb(range(1, rank + 1), size)]
    labels = pool[rng.randrange(len(pool))]
    coeff = random_fraction(rng, nonzero=True)
    value = GrassmannElement.monomial(rank, labels, coeff)
    return Vector.basis(space, rank, coord, value), coord_parity, len(labels) % 2


def random_increment(rng, space: SuperSpace, rank: int, generator: int,
                     terms: int = 2) -> LambdaPoint:
    """Parity-correct increment supported on one generator.

    Every stored monomial of every coordinate contains ``generator``.
    """
    theta = GrassmannElement.generator(rank, generator)

    def supported(parity):
        for _ in range(8):
            factor = random_grassmann(rng, rank, parity=(parity + 1) % 2, terms=terms)
            value = factor * theta
            if not value.is_zero():
                return value
        return GrassmannElement.zero(rank) if parity == 0 else theta

    evens = [supported(0) for _ in range(space.even_dim)]
    odds = [supported(1) for _ in range(space.odd_dim)]
    return LambdaPoint(space, rank, evens, odds)


def random_soul_increment(rng, space: SuperSpace, rank: int,
                          terms: int = 2) -> LambdaPoint:
    """Parity-correct increment with zero body (nilpotent in every coordinate)."""
    evens = [random_soul(rng, rank, terms) for _ in range(space.even_dim)]
    odds = [random_grassmann(rng, rank, parity=1, terms=terms)
            for _ in range(space.odd_dim)]
    return LambdaPoint(space, rank, evens, odds)


def random_spaces(rng, max_even: int = 3, max_odd: int = 3,
                  min_even: int = 0, min_odd: int = 0,
                  min_total: int = 0) -> SuperSpace:
    while True:
        space = SuperSpace(rng.randint(min_even, max_even), rng.randint(min_odd, max_odd))
        if space.even_dim + space.odd_dim >= min_total:
            return space
