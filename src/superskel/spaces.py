"""Coordinate superspaces, vectors and lambda-points, and body-determined domains.

A vector of R^{p|q} over the rank-N Grassmann algebra assigns a Grassmann
element to each of the p even and q odd coordinates.  A point is a vector of
parity 0 (an even element on each even coordinate, an odd element on each odd
one), so ``LambdaPoint`` is a ``Vector`` that checks its parity.  Domains only
constrain the body (the scalar part of the even coordinates): they are finite
unions of open rational boxes minus finitely many polynomial zero sets, so
membership of a rational body point is exactly decidable.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import le

from .errors import DomainError, ParityError, RankMismatchError, SpaceMismatchError, SuperskelError
from .grassmann import GrassmannElement, GrassmannMorphism
from .poly import Polynomial, _as_fraction, _monic


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


def _outer_boxes(boxes: list) -> list:
    """The boxes inside no other one (of equal ones the first), in input
    order.  Sorted by sides, a box follows every box holding it; it is tested
    only against kept boxes holding its interval on one axis, by bisection."""
    if len(boxes) < 2 or not boxes[0]:
        return boxes[:1]
    inf = float("inf")
    # lower ends and negated upper ends as ranks: a box holds another iff <=
    flat = [[v for lo, hi in box for v in (-inf if lo is None else lo, -inf if hi is None else -hi)]
            for box in boxes]
    ranks = [{v: r for r, v in enumerate(sorted(set(col)))} for col in zip(*flat)]
    keys = [tuple(rank[v] for rank, v in zip(ranks, key)) for key in flat]
    # the axis with the most distinct intervals keeps stacked strips apart
    axis = 2 * max(range(len(boxes[0])), key=lambda i: len({key[2 * i:2 * i + 2] for key in keys}))
    ends, kept = [], []  # kept boxes by decreasing upper end on the axis
    for j in sorted(range(len(boxes)), key=lambda j: (keys[j][axis:axis + 2], keys[j])):
        at = bisect_right(ends, keys[j][axis + 1])
        if not any(all(map(le, keys[i], keys[j])) for i in kept[:at]):
            ends.insert(at, keys[j][axis + 1])
            kept.insert(at, j)
    return [boxes[j] for j in sorted(kept)]


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

    The constructor is the one place an excluded polynomial is normalized:
    it is stored monic (lex-leading coefficient 1), a nonzero constant (an
    empty zero set) is dropped, and of equal monic polynomials only the
    first is kept.  Likewise a box lying inside another one is dropped (of
    equal boxes the first is kept), and the others keep their order.
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
        excl = {}  # insertion-ordered set
        for poly in excluded:
            if not isinstance(poly, Polynomial) or poly.nvars != p:
                raise SuperskelError("excluded zero sets must be polynomials in the even variables")
            if poly.is_zero():
                raise SuperskelError("cannot exclude the zero set of the zero polynomial")
            if not poly.is_constant():
                excl.setdefault(_monic(poly)[1])
        self.space = space
        self.boxes = tuple(_outer_boxes(norm_boxes))
        self.excluded = tuple(excl)

    @classmethod
    def full(cls, space: SuperSpace) -> "DeWittDomain":
        return cls(space, [((None, None),) * space.even_dim])

    @classmethod
    def box(cls, space: SuperSpace, *bounds) -> "DeWittDomain":
        return cls(space, [tuple(bounds)])

    def with_excluded(self, polys) -> "DeWittDomain":
        """This domain minus the zero sets of ``polys``, exclusions normalized
        by the constructor; ``self`` when every one is already excluded."""
        merged = DeWittDomain(self.space, self.boxes, self.excluded + tuple(polys))
        return self if len(merged.excluded) == len(self.excluded) else merged

    def contains_body(self, body) -> bool:
        body = tuple(body)
        if len(body) != self.space.even_dim:
            raise SpaceMismatchError("body point has the wrong dimension")
        in_box = any(all((lo is None or lo < v) and (hi is None or v < hi)
                         for (lo, hi), v in zip(box, body)) for box in self.boxes)
        if not in_box:
            return False
        return all(poly.eval(body) != 0 for poly in self.excluded)

    def contains(self, point: "LambdaPoint") -> bool:
        if point.space != self.space:
            raise SpaceMismatchError(f"point in {point.space} vs domain in {self.space}")
        return self.contains_body(point.body())

    def intersect(self, other: "DeWittDomain") -> "DeWittDomain":
        if other is self or other == self:
            return self
        if other.space != self.space:
            raise SpaceMismatchError("cannot intersect domains over different spaces")
        boxes = []
        for a in self.boxes:
            for b in other.boxes:
                cut = [_interval_intersect(ia, ib) for ia, ib in zip(a, b)]
                if all(iv is not None for iv in cut):
                    boxes.append(tuple(cut))
        return DeWittDomain(self.space, boxes, self.excluded + other.excluded)

    def sample_bodies(self, rng, count: int):
        """Deterministically sample rational body points inside the domain,
        giving up after 400 draws per point."""
        if not self.boxes:
            raise DomainError("cannot sample from an empty domain")
        out = []
        tries = 0
        while len(out) < count and tries < 400 * max(count, 1):
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


class Vector:
    """Coordinate vector: one Grassmann value per coordinate, evens first.

    An element of the tensor product of the Grassmann algebra with the
    coordinate space assigns an arbitrary Grassmann value to every
    coordinate; derivative arguments are vectors.  A vector is homogeneous of
    parity s when every nonzero entry has parity s + (parity of its
    coordinate).  Validation and the vector operations live here once; each
    operation builds its result through ``of``, so it keeps the operand's
    class (a point plus a point is a point).
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
    def of(cls, space: SuperSpace, rank: int, values) -> "Vector":
        """An instance of this class with the given entries, evens first."""
        return cls(space, rank, values)

    @classmethod
    def zero(cls, space: SuperSpace, rank: int) -> "Vector":
        n = space.even_dim + space.odd_dim
        return cls.of(space, rank, [GrassmannElement.zero(rank)] * n)

    @classmethod
    def basis(cls, space: SuperSpace, rank: int, coord: int, value=None) -> "Vector":
        """Vector supported on one coordinate (0-based over evens then odds)."""
        if value is None:
            value = GrassmannElement.unit(rank)
        values = [GrassmannElement.zero(rank)] * (space.even_dim + space.odd_dim)
        values[coord] = value
        return cls.of(space, rank, values)

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
        return self.of(self.space, self.rank, [factor * v for v in self.values])

    def map(self, morphism: GrassmannMorphism) -> "Vector":
        """Push along a Grassmann-algebra morphism, entrywise."""
        if morphism.source_rank != self.rank:
            raise RankMismatchError("morphism source rank does not match the vector")
        return self.of(self.space, morphism.target_rank, [morphism(v) for v in self.values])

    def embed(self, new_rank: int) -> "Vector":
        return self.of(self.space, new_rank, [v.embed(new_rank) for v in self.values])

    def _check_compatible(self, other) -> None:
        if other.space != self.space:
            raise SpaceMismatchError("vectors live in different spaces")
        if other.rank != self.rank:
            raise RankMismatchError("vectors have different ranks")

    def __add__(self, other):
        if not isinstance(other, Vector):
            return NotImplemented
        self._check_compatible(other)
        return self.of(self.space, self.rank,
                       [a + b for a, b in zip(self.values, other.values)])

    def __sub__(self, other):
        if not isinstance(other, Vector):
            return NotImplemented
        self._check_compatible(other)
        return self.of(self.space, self.rank,
                       [a - b for a, b in zip(self.values, other.values)])

    def to_point(self) -> "LambdaPoint":
        return LambdaPoint.of(self.space, self.rank, self.values)

    def __eq__(self, other):
        if not isinstance(other, Vector):
            return NotImplemented
        return (self.space == other.space and self.rank == other.rank
                and self.values == other.values)

    def __repr__(self):
        return f"Vector(rank {self.rank}: " + "; ".join(v.format() for v in self.values) + ")"


class LambdaPoint(Vector):
    """A lambda-point of a superspace: a vector of parity 0.

    Even coordinates carry even values and odd coordinates odd values; the
    point adds only that check to ``Vector``, and ``even_values`` and
    ``odd_values`` are the two parts of its one ``values`` tuple.
    """

    __slots__ = ()

    def __init__(self, space: SuperSpace, rank: int, even_values, odd_values):
        even_values = tuple(even_values)
        odd_values = tuple(odd_values)
        if len(even_values) != space.even_dim or len(odd_values) != space.odd_dim:
            raise SpaceMismatchError("coordinate count does not match the space")
        super().__init__(space, rank, even_values + odd_values)
        if self.parity() != 0:
            if not all(v.is_even() for v in even_values):
                raise ParityError("even coordinates must carry even values")
            raise ParityError("odd coordinates must carry odd values")

    @classmethod
    def of(cls, space: SuperSpace, rank: int, values) -> "LambdaPoint":
        p = space.even_dim
        return cls(space, rank, values[:p], values[p:])

    @classmethod
    def from_body(cls, space: SuperSpace, rank: int, body) -> "LambdaPoint":
        evens = [GrassmannElement.scalar(rank, _as_fraction(v)) for v in body]
        odds = [GrassmannElement.zero(rank) for _ in range(space.odd_dim)]
        return cls(space, rank, evens, odds)

    @property
    def even_values(self) -> tuple[GrassmannElement, ...]:
        return self.values[:self.space.even_dim]

    @property
    def odd_values(self) -> tuple[GrassmannElement, ...]:
        return self.values[self.space.even_dim:]

    def body(self) -> tuple[Fraction, ...]:
        return tuple(v.body() for v in self.even_values)

    def split(self):
        """(body, even souls, odd values) with exact reassembly."""
        body = self.body()
        souls = tuple(v.soul() for v in self.even_values)
        return body, souls, self.odd_values

    def __repr__(self):
        coords = [f"x{i + 1}={v.format()}" for i, v in enumerate(self.even_values)]
        coords += [f"t{j + 1}={v.format()}" for j, v in enumerate(self.odd_values)]
        return f"LambdaPoint(rank {self.rank}: " + "; ".join(coords) + ")"
