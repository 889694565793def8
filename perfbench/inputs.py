"""Seeded input generation for the benchmark, independent of ``superskel.randgen``.

Inputs are generated in two steps.  The generator functions (``gen_*``) draw
plain nested tuples of ints from a ``random.Random``; nothing of the library
is involved, so the digest of that raw data (``digest``) names the inputs
exactly and is the same on any commit of the library.  The builder functions
(``build_*``) turn raw data into library objects through public constructors
only: ``Polynomial``, ``RationalFunction``, ``SuperFunction``, ``Skeleton``,
``GrassmannElement``, ``LambdaPoint``, ``Vector``, ``SuperSpace`` and
``DeWittDomain``.

Raw formats:

    fraction     (num, den)
    polynomial   (nvars, ((exps, fraction), ...))
    coefficient  (numerator polynomial, denominator polynomial or None)
    superfn      ((labels, coefficient), ...); a repeated label sums
    skeleton     ((p, q) source, (p, q) target, (superfn, ...))
    grassmann    ((labels, fraction), ...)
    point        ((p, q), rank, (grassmann, ...) evens, (grassmann, ...) odds)

Every generator draws from a ``Draw``: shapes (spaces come from the caller;
which odd labels carry terms, which monomials occur) from ``Draw.shape``,
which is seeded by the workload name and the slot of the workload's schedule
alone, and coefficient values from ``Draw.value``, which is seeded by the
workload name and the seed.  The cost of an operation depends mostly on its
shape, so every seed gets the same shapes, every cycle of the schedule the
same mix, and the cost of a run stays steady across seeds and run lengths,
while every seed still gives different inputs.
"""

from __future__ import annotations

import functools
import hashlib
import random
from fractions import Fraction
from itertools import combinations

import superskel as sk


def stored_degree(poly) -> int:
    """Largest total degree among a polynomial's stored terms (0 when it has
    none), read from the terms without calling the library."""
    return max(map(sum, poly.terms)) if poly.terms else 0


def digest(raw) -> str:
    """Short sha256 of the raw data's ``repr`` (plain ints and tuples only)."""
    return hashlib.sha256(repr(raw).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# raw generation


class Draw:
    """The two random streams of one workload: shapes and values."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.shape = random.Random(f"{workload}:shape")
        self.value = random.Random(f"{workload}:{seed}")

    def slot(self, index: int):
        """Restart the shape stream for schedule slot ``index``: every cycle
        of a workload's schedule then repeats the same shapes, so any whole
        number of cycles has the same mix, however many a run completes."""
        self.shape = random.Random(f"{self.workload}:shape:{index}")


def gen_fraction(rng):
    """Nonzero fraction num/den with |num| <= 4 and 1 <= den <= 3."""
    while True:
        num = rng.randint(-4, 4)
        if num:
            return (num, rng.randint(1, 3))


def gen_numerator(draw: Draw, nvars: int, degree: int, terms: int):
    """Polynomial of total degree exactly ``degree`` with ``terms`` monomials.

    The leading monomial has degree ``degree``; the others have lower degree,
    so the numerator's degree never depends on the seed.
    """
    shape = draw.shape
    out = {}
    lead = [0] * nvars
    for _ in range(degree):
        lead[shape.randrange(nvars)] += 1
    out[tuple(lead)] = gen_fraction(draw.value)
    for _ in range(8 * terms):
        if len(out) >= terms or degree == 0:
            break
        exps = [0] * nvars
        for _ in range(shape.randrange(degree)):
            exps[shape.randrange(nvars)] += 1
        out.setdefault(tuple(exps), gen_fraction(draw.value))
    return (nvars, tuple(sorted(out.items())))


@functools.cache
def _labels(q: int, parity: int) -> tuple:
    return tuple(labels for size in range(q + 1) if size % 2 == parity
                 for labels in combinations(range(1, q + 1), size))


def gen_superfn(draw: Draw, p: int, q: int, parity: int, degree: int, terms: int,
                rational: bool, num_terms: int = 2):
    """``terms`` odd monomials of the given parity, each with a degree-``degree``
    coefficient; even functions always carry a body term, so every body map is
    a genuine degree-``degree`` function of x.  Rational coefficients use the
    denominator 1 + x1^2, which has no real zero."""
    pool = _labels(q, parity)
    if parity == 0:
        labels = [()] + draw.shape.sample(pool[1:], min(terms - 1, len(pool) - 1))
    else:
        labels = draw.shape.sample(pool, min(terms, len(pool)))
    den = None
    if rational:
        one, sq = [0] * p, [0] * p
        sq[0] = 2
        den = (p, ((tuple(one), (1, 1)), (tuple(sq), (1, 1))))
    return tuple((tuple(l), (gen_numerator(draw, p, degree, num_terms), den))
                 for l in sorted(labels))


def gen_skeleton(draw: Draw, source, target, degree: int = 2, terms: int = 2,
                 rational: bool = False, num_terms: int = 2):
    p, q = source
    comps = [gen_superfn(draw, p, q, 0, degree, terms, rational, num_terms)
             for _ in range(target[0])]
    comps += [gen_superfn(draw, p, q, 1, degree, terms, rational, num_terms)
              for _ in range(target[1])]
    return (tuple(source), tuple(target), tuple(comps))


def gen_recipe_skeleton(draw: Draw, source, target):
    """The family of the ROADMAP's rational blowup recipe: per component two
    terms on odd labels drawn with replacement (a repeated label sums its
    coefficients), numerators of up to three monomials of degree at most 2,
    denominators 1 + x_i^2, plus x_j^2 three times in ten."""
    p, q = source
    shape = draw.shape

    def term(parity):
        labels = shape.choice(_labels(q, parity))
        num = {}
        for _ in range(3):
            exps = [0] * p
            for _ in range(shape.randint(0, 2)):
                exps[shape.randrange(p)] += 1
            num[tuple(exps)] = gen_fraction(draw.value)
        den = {(0,) * p: (1, 1)}
        for index in [shape.randrange(p)] + ([shape.randrange(p)]
                                             if p > 1 and shape.random() < 0.3 else []):
            exps = tuple(2 if i == index else 0 for i in range(p))
            den[exps] = (den.get(exps, (0, 1))[0] + 1, 1)
        return (labels, ((p, tuple(sorted(num.items()))), (p, tuple(sorted(den.items())))))

    comps = [tuple(term(0) for _ in range(2)) for _ in range(target[0])]
    comps += [tuple(term(1) for _ in range(2)) for _ in range(target[1])]
    return (tuple(source), tuple(target), tuple(comps))


def gen_grassmann(draw: Draw, rank: int, parity: int, terms: int, body: bool = False):
    """``terms`` distinct nonzero-length monomials of the given parity, plus a
    nonzero body when ``body`` is set."""
    pool = _labels(rank, parity)[1 - parity:]  # drop the empty label
    out = [(l, gen_fraction(draw.value))
           for l in draw.shape.sample(pool, min(terms, len(pool)))]
    if body:
        out.append(((), gen_fraction(draw.value)))
    return tuple(sorted(out))


def gen_point(draw: Draw, space, rank: int):
    """Lambda-point with a nonzero rational body and four monomials in every
    coordinate's soul."""
    p, q = space
    evens = tuple(gen_grassmann(draw, rank, 0, 4, body=True) for _ in range(p))
    odds = tuple(gen_grassmann(draw, rank, 1, 4) for _ in range(q))
    return (tuple(space), rank, evens, odds)


def gen_vector(draw: Draw, space, rank: int):
    """Parity-correct argument vector (even values on even coordinates), two
    soul monomials per coordinate."""
    p, q = space
    return (tuple(space), rank,
            tuple(gen_grassmann(draw, rank, 0, 2, body=True) for _ in range(p)),
            tuple(gen_grassmann(draw, rank, 1, 2) for _ in range(q)))


# ---------------------------------------------------------------------------
# building library objects


def _frac(raw) -> Fraction:
    return Fraction(raw[0], raw[1])


def build_polynomial(raw) -> sk.Polynomial:
    nvars, terms = raw
    return sk.Polynomial(nvars, {exps: _frac(c) for exps, c in terms})


def build_coefficient(raw) -> sk.RationalFunction:
    num, den = raw
    if den is None:
        return sk.RationalFunction(build_polynomial(num))
    return sk.RationalFunction(build_polynomial(num), build_polynomial(den))


def build_skeleton(raw) -> sk.Skeleton:
    (p, q), (tp, tq), comps = raw
    source, target = sk.SuperSpace(p, q), sk.SuperSpace(tp, tq)
    domain = sk.DeWittDomain.full(source)
    functions = []
    for comp in comps:
        terms = {}
        for labels, raw_coeff in comp:
            coeff = build_coefficient(raw_coeff)
            terms[labels] = terms[labels] + coeff if labels in terms else coeff
        functions.append(sk.SuperFunction(source, domain, terms))
    return sk.Skeleton(source, domain, target, sk.DeWittDomain.full(target), functions)


def build_grassmann(rank: int, raw) -> sk.GrassmannElement:
    return sk.GrassmannElement(rank, {labels: _frac(c) for labels, c in raw})


def build_point(raw) -> sk.LambdaPoint:
    (p, q), rank, evens, odds = raw
    return sk.LambdaPoint(sk.SuperSpace(p, q), rank,
                          [build_grassmann(rank, v) for v in evens],
                          [build_grassmann(rank, v) for v in odds])


def build_vector(raw) -> sk.Vector:
    (p, q), rank, evens, odds = raw
    return sk.Vector(sk.SuperSpace(p, q), rank,
                     [build_grassmann(rank, v) for v in evens + odds])
