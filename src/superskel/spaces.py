"""Coordinate superspaces, their lambda-points, and body-determined domains.

A point of R^{p|q} over the rank-N Grassmann algebra assigns an even element
to each of the p even coordinates and an odd element to each of the q odd
coordinates.  Domains only constrain the body (the scalar part of the even
coordinates): they are finite unions of open rational boxes minus finitely
many polynomial zero sets, so membership of a rational body point is exactly
decidable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, ParityError, RankMismatchError, SpaceMismatchError, SuperskelError
from .grassmann import GrassmannElement, GrassmannMorphism
from .poly import Polynomial, _as_fraction

_ZERO = Fraction(0)


@dataclass(frozen=True)
class SuperSpace:
    """R^{p|q}: even coordinates x1..xp, odd coordinates t1..tq."""

    even_dim: int
    odd_dim: int

    def __post_init__(self):
        if self.even_dim < 0 or self.odd_dim < 0:
            raise SuperskelError("dimensions must be non-negative")

    def __repr__(self):
        return f"SuperSpace({self.even_dim}|{self.odd_dim})"


def _interval_contains(lo, hi, v: Fraction) -> bool:
    if lo is not None and not v > lo:
        return False
    if hi is not None and not v < hi:
        return False
    return True


def _interval_intersect(a, b):
    lo = a[0] if b[0] is None else (b[0] if a[0] is None else max(a[0], b[0]))
    hi = a[1] if b[1] is None else (b[1] if a[1] is None else min(a[1], b[1]))
    if lo is not None and hi is not None and not lo < hi:
        return None
    return (lo, hi)


class DeWittDomain:
    """Open domain in a superspace, stored purely as body data.

    ``boxes`` is a union of open boxes, each a tuple of (lo, hi) pairs with
    None for an unbounded side; ``excluded`` lists polynomials whose zero
    sets are removed.  Membership of a point depends only on its body.
    """

    __slots__ = ("space", "boxes", "excluded")

    def __init__(self, space: SuperSpace, boxes, excluded=()):
        p = space.even_dim
        norm_boxes = []
        for box in boxes:
            box = tuple(box)
            if len(box) != p:
                raise SuperskelError(f"box needs {p} intervals, got {len(box)}")
            iv = []
            for lo, hi in box:
                lo = None if lo is None else _as_fraction(lo)
                hi = None if hi is None else _as_fraction(hi)
                if lo is not None and hi is not None and not lo < hi:
                    raise SuperskelError(f"empty interval ({lo}, {hi})")
                iv.append((lo, hi))
            norm_boxes.append(tuple(iv))
        excl = []
        for poly in excluded:
            if not isinstance(poly, Polynomial) or poly.nvars != p:
                raise SuperskelError("excluded zero sets must be polynomials in the even variables")
            if poly.is_zero():
                raise SuperskelError("cannot exclude the zero set of the zero polynomial")
            if poly not in excl:
                excl.append(poly)
        self.space = space
        self.boxes = tuple(norm_boxes)
        self.excluded = tuple(excl)

    @classmethod
    def full(cls, space: SuperSpace) -> "DeWittDomain":
        return cls(space, [((None, None),) * space.even_dim])

    @classmethod
    def box(cls, space: SuperSpace, *bounds) -> "DeWittDomain":
        return cls(space, [tuple(bounds)])

    def with_excluded(self, polys) -> "DeWittDomain":
        extra = [p for p in polys if not p.is_constant()]
        if not extra:
            return self
        return DeWittDomain(self.space, self.boxes, self.excluded + tuple(extra))

    def contains_body(self, body) -> bool:
        body = tuple(body)
        if len(body) != self.space.even_dim:
            raise SpaceMismatchError("body point has the wrong dimension")
        in_box = any(all(_interval_contains(lo, hi, v) for (lo, hi), v in zip(box, body))
                     for box in self.boxes)
        if not in_box:
            return False
        return all(poly.eval(body) != 0 for poly in self.excluded)

    def contains(self, point: "LambdaPoint") -> bool:
        if point.space != self.space:
            raise SpaceMismatchError(f"point in {point.space} vs domain in {self.space}")
        return self.contains_body(point.body())

    def intersect(self, other: "DeWittDomain") -> "DeWittDomain":
        if other.space != self.space:
            raise SpaceMismatchError("cannot intersect domains over different spaces")
        boxes = []
        for a in self.boxes:
            for b in other.boxes:
                cut = [_interval_intersect(ia, ib) for ia, ib in zip(a, b)]
                if all(iv is not None for iv in cut):
                    boxes.append(tuple(cut))
        merged = DeWittDomain(self.space, boxes or [], ())
        return merged.with_excluded(self.excluded + other.excluded)

    def sample_bodies(self, rng, count: int, max_tries: int = 400):
        """Deterministically sample rational body points inside the domain."""
        if not self.boxes:
            raise DomainError("cannot sample from an empty domain")
        out = []
        tries = 0
        while len(out) < count and tries < max_tries * max(count, 1):
            tries += 1
            box = self.boxes[rng.randrange(len(self.boxes))]
            body = tuple(_sample_interval(rng, lo, hi) for lo, hi in box)
            if all(poly.eval(body) != 0 for poly in self.excluded):
                out.append(body)
        if len(out) < count:
            raise DomainError("failed to sample enough points from the domain")
        return out

    def __eq__(self, other):
        if not isinstance(other, DeWittDomain):
            return NotImplemented
        return (self.space == other.space and set(self.boxes) == set(other.boxes)
                and set(self.excluded) == set(other.excluded))

    def __repr__(self):
        return f"DeWittDomain({self.space}, {len(self.boxes)} box(es), {len(self.excluded)} exclusion(s))"


def _sample_interval(rng, lo, hi) -> Fraction:
    den = rng.randint(5, 23)
    if lo is None and hi is None:
        num = rng.randint(-6 * den, 6 * den)
        return Fraction(num, den)
    if lo is None:
        return hi - Fraction(rng.randint(1, 4 * den), den)
    if hi is None:
        return lo + Fraction(rng.randint(1, 4 * den), den)
    num = rng.randint(1, den - 1)
    return lo + (hi - lo) * Fraction(num, den)


class LambdaPoint:
    """A lambda-point of a superspace: parity-correct coordinate values."""

    __slots__ = ("space", "rank", "even_values", "odd_values")

    def __init__(self, space: SuperSpace, rank: int, even_values, odd_values):
        even_values = tuple(even_values)
        odd_values = tuple(odd_values)
        if len(even_values) != space.even_dim or len(odd_values) != space.odd_dim:
            raise SpaceMismatchError("coordinate count does not match the space")
        for v in even_values + odd_values:
            if not isinstance(v, GrassmannElement):
                raise TypeError("coordinate values must be Grassmann elements")
            if v.rank != rank:
                raise RankMismatchError("all coordinate values must share the point's rank")
        for v in even_values:
            if not v.is_even():
                raise ParityError("even coordinates must carry even values")
        for v in odd_values:
            if not v.is_odd():
                raise ParityError("odd coordinates must carry odd values")
        self.space = space
        self.rank = rank
        self.even_values = even_values
        self.odd_values = odd_values

    @classmethod
    def from_body(cls, space: SuperSpace, rank: int, body) -> "LambdaPoint":
        evens = [GrassmannElement.scalar(rank, _as_fraction(v)) for v in body]
        odds = [GrassmannElement.zero(rank) for _ in range(space.odd_dim)]
        return cls(space, rank, evens, odds)

    @classmethod
    def zero(cls, space: SuperSpace, rank: int) -> "LambdaPoint":
        return cls.from_body(space, rank, [_ZERO] * space.even_dim)

    def body(self) -> tuple[Fraction, ...]:
        return tuple(v.body() for v in self.even_values)

    def split(self):
        """(body, even souls, odd values) with exact reassembly."""
        body = self.body()
        souls = tuple(v.soul() for v in self.even_values)
        return body, souls, self.odd_values

    def entries(self) -> tuple[GrassmannElement, ...]:
        return self.even_values + self.odd_values

    def map(self, morphism: GrassmannMorphism) -> "LambdaPoint":
        """Push the point along a Grassmann-algebra morphism, coordinatewise."""
        if morphism.source_rank != self.rank:
            raise RankMismatchError("morphism source rank does not match the point")
        return LambdaPoint(self.space, morphism.target_rank,
                           [morphism(v) for v in self.even_values],
                           [morphism(v) for v in self.odd_values])

    def embed(self, new_rank: int) -> "LambdaPoint":
        return LambdaPoint(self.space, new_rank,
                           [v.embed(new_rank) for v in self.even_values],
                           [v.embed(new_rank) for v in self.odd_values])

    def _check_compatible(self, other):
        if not isinstance(other, LambdaPoint):
            raise TypeError("expected a LambdaPoint")
        if other.space != self.space:
            raise SpaceMismatchError("points live in different spaces")
        if other.rank != self.rank:
            raise RankMismatchError("points have different ranks")

    def __add__(self, other):
        self._check_compatible(other)
        return LambdaPoint(self.space, self.rank,
                           [a + b for a, b in zip(self.even_values, other.even_values)],
                           [a + b for a, b in zip(self.odd_values, other.odd_values)])

    def __sub__(self, other):
        self._check_compatible(other)
        return LambdaPoint(self.space, self.rank,
                           [a - b for a, b in zip(self.even_values, other.even_values)],
                           [a - b for a, b in zip(self.odd_values, other.odd_values)])

    def to_vector(self) -> "Vector":
        return Vector(self.space, self.rank, self.entries())

    def __eq__(self, other):
        if not isinstance(other, LambdaPoint):
            return NotImplemented
        return (self.space == other.space and self.rank == other.rank
                and self.even_values == other.even_values
                and self.odd_values == other.odd_values)

    def __repr__(self):
        coords = [f"x{i + 1}={v.format()}" for i, v in enumerate(self.even_values)]
        coords += [f"t{j + 1}={v.format()}" for j, v in enumerate(self.odd_values)]
        return f"LambdaPoint(rank {self.rank}: " + "; ".join(coords) + ")"


class Vector(object):
    """Coordinate vector with unconstrained parities.

    Used for derivative arguments: an element of the full tensor product
    assigns an arbitrary Grassmann value to every coordinate.  A vector is
    homogeneous of parity s when every nonzero entry has parity
    s + (parity of its coordinate).
    """

    __slots__ = ("space", "rank", "values")

    def __init__(self, space: SuperSpace, rank: int, values):
        values = tuple(values)
        if len(values) != space.even_dim + space.odd_dim:
            raise SpaceMismatchError("vector entry count does not match the space")
        for v in values:
            if not isinstance(v, GrassmannElement):
                raise TypeError("vector entries must be Grassmann elements")
            if v.rank != rank:
                raise RankMismatchError("all vector entries must share one rank")
        self.space = space
        self.rank = rank
        self.values = values

    @classmethod
    def zero(cls, space: SuperSpace, rank: int) -> "Vector":
        n = space.even_dim + space.odd_dim
        return cls(space, rank, [GrassmannElement.zero(rank)] * n)

    @classmethod
    def basis(cls, space: SuperSpace, rank: int, coord: int, value=None) -> "Vector":
        """Vector supported on one coordinate (0-based over evens then odds)."""
        if value is None:
            value = GrassmannElement.unit(rank)
        values = [GrassmannElement.zero(rank)] * (space.even_dim + space.odd_dim)
        values[coord] = value
        return cls(space, rank, values)

    def entry(self, coord: int) -> GrassmannElement:
        return self.values[coord]

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.values)

    def parity(self):
        """Homogeneous parity 0/1, or None when mixed; zero counts as even."""
        p = self.space.even_dim
        seen = set()
        for i, v in enumerate(self.values):
            if v.is_zero():
                continue
            vp = v.parity()
            if vp is None:
                return None
            seen.add((vp + (0 if i < p else 1)) % 2)
        if not seen:
            return 0
        if len(seen) > 1:
            return None
        return seen.pop()

    def scale(self, factor) -> "Vector":
        """Left multiplication by a scalar or Grassmann element."""
        return Vector(self.space, self.rank, [factor * v for v in self.values])

    def __add__(self, other):
        if not isinstance(other, Vector):
            return NotImplemented
        if other.space != self.space or other.rank != self.rank:
            raise SpaceMismatchError("vectors are incompatible")
        return Vector(self.space, self.rank,
                      [a + b for a, b in zip(self.values, other.values)])

    def __sub__(self, other):
        if not isinstance(other, Vector):
            return NotImplemented
        if other.space != self.space or other.rank != self.rank:
            raise SpaceMismatchError("vectors are incompatible")
        return Vector(self.space, self.rank,
                      [a - b for a, b in zip(self.values, other.values)])

    def to_point(self) -> LambdaPoint:
        p = self.space.even_dim
        return LambdaPoint(self.space, self.rank, self.values[:p], self.values[p:])

    def __eq__(self, other):
        if not isinstance(other, Vector):
            return NotImplemented
        return (self.space == other.space and self.rank == other.rank
                and self.values == other.values)

    def __repr__(self):
        return f"Vector(rank {self.rank}: " + "; ".join(v.format() for v in self.values) + ")"
