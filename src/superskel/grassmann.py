"""Exact arithmetic in finite-rank Grassmann algebras over the rationals.

Elements are sparse sums of monomials in anticommuting generators g1..gN,
indexed by strictly increasing label tuples; the empty tuple is the body
(scalar) component.  The product follows the usual exterior-algebra sign law:
two monomials sharing a generator multiply to zero, otherwise the result is
the merged monomial times (-1)^(number of label inversions).

The arithmetic itself is written once, as private functions over ``terms``
dicts, and works over any coefficient ring whose zero is falsy: Fractions
here, rational functions for the odd-monomial part of a ``SuperFunction``
(an element of C(U) tensor the exterior algebra on the odd coordinates).

Morphisms between these algebras are determined by the generator images,
which must be purely odd; this makes the induced map even and unital.
"""

from __future__ import annotations

import os
from fractions import Fraction

from .errors import NotInvertibleError, ParityError, RankCapError, RankMismatchError, SuperskelError
from .poly import _as_fraction, _signed_sum

_ZERO = Fraction(0)
_ONE = Fraction(1)

DEFAULT_MAX_RANK = 8
MAX_RANK_ENV = "SUPERSKEL_MAX_RANK"


def max_rank() -> int:
    raw = os.environ.get(MAX_RANK_ENV)
    if raw is None:
        return DEFAULT_MAX_RANK
    try:
        return int(raw)
    except ValueError:
        raise RankCapError(f"{MAX_RANK_ENV} must be an integer, got {raw!r}")


def _check_rank_cap(rank: int) -> None:
    cap = max_rank()
    if rank > cap:
        raise RankCapError(
            f"rank {rank} exceeds the cap {cap}; raise {MAX_RANK_ENV} to allow it")


def merge_sign(a: tuple[int, ...], b: tuple[int, ...]):
    """Merge two strictly increasing label tuples.

    Returns (sign, merged); sign is 0 when the tuples share a label (the
    monomial product vanishes), otherwise (-1)^inversions.
    """
    i = j = 0
    inversions = 0
    out = []
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return 0, None
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
            inversions += len(a) - i
    out.extend(a[i:])
    out.extend(b[j:])
    return (-1 if inversions & 1 else 1), tuple(out)


def sort_sign(labels) -> tuple[int, tuple[int, ...]]:
    """Sign of the permutation sorting ``labels`` ascending; 0 on repeats."""
    labels = list(labels)
    sign = 1
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            if labels[i] == labels[j]:
                return 0, ()
            if labels[i] > labels[j]:
                labels[i], labels[j] = labels[j], labels[i]
                sign = -sign
    return sign, tuple(labels)


# -- exterior-algebra kernel -------------------------------------------------
# ``terms`` dicts map strictly increasing label tuples to nonzero coefficients
# of a ring whose zero is falsy (Fraction, RationalFunction).  ``_canonical``
# builds one from raw input and ``_accumulate`` updates one in place; the
# others leave their arguments alone and return new canonical dicts.


def _accumulate(terms: dict, labels, coeff) -> None:
    """terms[labels] += coeff in place, dropping the entry when it cancels."""
    old = terms.get(labels)
    new = coeff if old is None else old + coeff
    if new:
        terms[labels] = new
    else:
        terms.pop(labels, None)


def _canonical(terms, top: int, coerce, what: str) -> dict:
    """Validate raw input: coerce coefficients, drop zeros, require labels in
    1..top and strictly increasing, and sum repeated labels."""
    clean = {}
    for labels, coeff in (terms or {}).items():
        coeff = coerce(coeff)
        if not coeff:
            continue
        labels = tuple(int(l) for l in labels)
        if any(l < 1 or l > top for l in labels):
            raise SuperskelError(f"{what} label out of range in {labels} (at most {top})")
        if any(a >= b for a, b in zip(labels, labels[1:])):
            raise SuperskelError(f"{what} labels must be strictly increasing, got {labels}")
        _accumulate(clean, labels, coeff)
    return clean


def _sum(a: dict, b: dict) -> dict:
    terms = dict(a)
    for labels, coeff in b.items():
        _accumulate(terms, labels, coeff)
    return terms


def _negate(terms: dict) -> dict:
    return {l: -c for l, c in terms.items()}


def _scale(terms: dict, factor) -> dict:
    if not factor:
        return {}
    return {l: c * factor for l, c in terms.items()}


def _soul(terms: dict) -> dict:
    """Everything except the body (empty-label) term."""
    return {l: c for l, c in terms.items() if l}


def _product(a: dict, b: dict) -> dict:
    """Exterior product: monomials sharing a label vanish, the rest merge
    with the sign of their label inversions."""
    terms = {}
    for l1, c1 in a.items():
        for l2, c2 in b.items():
            sign, merged = merge_sign(l1, l2)
            if not sign:
                continue
            _accumulate(terms, merged, c1 * c2 if sign > 0 else -(c1 * c2))
    return terms


def _power(terms: dict, n, one) -> dict:
    """``terms ** n`` by repeated squaring; ``one`` is the ring's unit."""
    if not isinstance(n, int) or n < 0:
        raise SuperskelError("powers must be non-negative integers")
    result = {(): one}
    while n:
        if n & 1:
            result = _product(result, terms)
        n >>= 1
        if n:
            terms = _product(terms, terms)
    return result


def _has_parity(terms: dict, parity: int) -> bool:
    return all(len(l) % 2 == parity for l in terms)


def _parity(terms: dict):
    """0 for even, 1 for odd, None for mixed; zero counts as even."""
    if _has_parity(terms, 0):
        return 0
    if _has_parity(terms, 1):
        return 1
    return None


def _geometric_inverse(inv_body, soul: dict, steps: int) -> dict:
    """Inverse of body + soul, given inv_body = 1/body and a nilpotent soul.

    1/(b + n) = sum_k (-1)^k n^k / b^(k+1), which terminates because n^k
    vanishes once k exceeds ``steps`` (or earlier).
    """
    result = {(): inv_body}
    power = None
    scale = inv_body
    for _ in range(steps):
        power = soul if power is None else _product(power, soul)
        if not power:
            break
        scale = -scale * inv_body
        result = _sum(result, _scale(power, scale))
    return result


class GrassmannElement:
    """Element of the rank-N Grassmann algebra over the rationals."""

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms=None):
        if rank < 0:
            raise SuperskelError("rank must be non-negative")
        _check_rank_cap(rank)
        self.rank = rank
        self.terms = _canonical(terms, rank, _as_fraction, "generator")

    @classmethod
    def _make(cls, rank, terms):
        # trusted constructor for internal use: terms already canonical
        el = object.__new__(cls)
        el.rank = rank
        el.terms = terms
        return el

    @classmethod
    def zero(cls, rank: int) -> "GrassmannElement":
        return cls(rank, {})

    @classmethod
    def unit(cls, rank: int) -> "GrassmannElement":
        return cls(rank, {(): _ONE})

    @classmethod
    def scalar(cls, rank: int, value) -> "GrassmannElement":
        return cls(rank, {(): _as_fraction(value)})

    @classmethod
    def generator(cls, rank: int, index: int) -> "GrassmannElement":
        return cls(rank, {(index,): _ONE})

    @classmethod
    def monomial(cls, rank: int, labels, coeff=1) -> "GrassmannElement":
        return cls(rank, {tuple(labels): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def body(self) -> Fraction:
        """Coefficient of the empty monomial (the unique algebra map to Q)."""
        return self.terms.get((), _ZERO)

    def soul(self) -> "GrassmannElement":
        """The nilpotent part: everything except the body."""
        return GrassmannElement._make(self.rank, _soul(self.terms))

    def is_even(self) -> bool:
        return _has_parity(self.terms, 0)

    def is_odd(self) -> bool:
        return _has_parity(self.terms, 1)

    def parity(self):
        """0 for even, 1 for odd, None for mixed; zero counts as even."""
        return _parity(self.terms)

    def coefficient(self, labels) -> Fraction:
        return self.terms.get(tuple(labels), _ZERO)

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return GrassmannElement.scalar(self.rank, other)
        if not isinstance(other, GrassmannElement):
            return None
        if self.rank != other.rank:
            raise RankMismatchError(
                f"elements of rank {self.rank} and {other.rank} are incompatible")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GrassmannElement._make(self.rank, _sum(self.terms, other.terms))

    __radd__ = __add__

    def __neg__(self):
        return GrassmannElement._make(self.rank, _negate(self.terms))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return GrassmannElement._make(self.rank, _scale(self.terms, _as_fraction(other)))
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GrassmannElement._make(self.rank, _product(self.terms, other.terms))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _as_fraction(other)
            if other == 0:
                raise NotInvertibleError("division by zero")
            return self * (_ONE / other)
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        return self * other.invert()

    def __pow__(self, n: int):
        return GrassmannElement._make(self.rank, _power(self.terms, n, _ONE))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GrassmannElement.scalar(self.rank, other)
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        return self.rank == other.rank and self.terms == other.terms

    def __hash__(self):
        return hash((self.rank, frozenset(self.terms.items())))

    def invert(self) -> "GrassmannElement":
        """Inverse via the terminating geometric series in the soul.

        Requires an invertible body; the series stops within ``rank`` steps
        because every soul term carries at least one generator.
        """
        b = self.body()
        if b == 0:
            raise NotInvertibleError("element has zero body, hence no inverse")
        return GrassmannElement._make(
            self.rank, _geometric_inverse(_ONE / b, _soul(self.terms), self.rank))

    def embed(self, new_rank: int) -> "GrassmannElement":
        """Reinterpret inside a larger algebra (generator labels unchanged)."""
        if new_rank < self.rank:
            raise RankMismatchError("cannot embed into a smaller algebra")
        return GrassmannElement(new_rank, dict(self.terms))

    def format(self) -> str:
        """Canonical text: terms sorted by (length, labels), ``c*g1g2``-style,
        with ``1`` standing for the empty monomial."""
        parts = []
        for labels in sorted(self.terms, key=lambda l: (len(l), l)):
            coeff = self.terms[labels]
            gens = "".join(f"g{i}" for i in labels) or "1"
            parts.append((coeff < 0, f"{abs(coeff)}*{gens}"))
        return _signed_sum(parts)

    def __repr__(self):
        return f"GrassmannElement({self.rank}, {self.format()!r})"


class GrassmannMorphism:
    """Even unital algebra morphism between Grassmann algebras.

    Determined by the images of the source generators, which must be purely
    odd elements of the target algebra.
    """

    __slots__ = ("source_rank", "target_rank", "images")

    def __init__(self, source_rank: int, target_rank: int, images):
        _check_rank_cap(max(source_rank, target_rank))
        images = tuple(images)
        if len(images) != source_rank:
            raise SuperskelError("need one image per source generator")
        for img in images:
            if not isinstance(img, GrassmannElement) or img.rank != target_rank:
                raise RankMismatchError("generator images must live in the target algebra")
            if not img.is_odd():
                raise ParityError("generator images must be purely odd")
        self.source_rank = source_rank
        self.target_rank = target_rank
        self.images = images

    @classmethod
    def identity(cls, rank: int) -> "GrassmannMorphism":
        return cls(rank, rank, [GrassmannElement.generator(rank, i + 1) for i in range(rank)])

    @classmethod
    def to_body(cls, rank: int) -> "GrassmannMorphism":
        """The unique morphism onto the rank-0 algebra (kills every generator)."""
        return cls(rank, 0, [GrassmannElement.zero(0)] * rank)

    @classmethod
    def permutation(cls, rank: int, perm) -> "GrassmannMorphism":
        """g_i -> g_perm[i] for a permutation given as a 1-based image list."""
        perm = tuple(perm)
        if sorted(perm) != list(range(1, rank + 1)):
            raise SuperskelError(f"{perm} is not a permutation of 1..{rank}")
        return cls(rank, rank, [GrassmannElement.generator(rank, p) for p in perm])

    @classmethod
    def scale_generator(cls, rank: int, index: int, factor) -> "GrassmannMorphism":
        images = [GrassmannElement.generator(rank, i + 1) for i in range(rank)]
        images[index - 1] = images[index - 1] * _as_fraction(factor)
        return cls(rank, rank, images)

    @classmethod
    def kill_generator(cls, rank: int, index: int) -> "GrassmannMorphism":
        images = [GrassmannElement.generator(rank, i + 1) for i in range(rank)]
        images[index - 1] = GrassmannElement.zero(rank)
        return cls(rank, rank, images)

    def __call__(self, element: GrassmannElement) -> GrassmannElement:
        if element.rank != self.source_rank:
            raise RankMismatchError(
                f"morphism expects rank {self.source_rank}, got {element.rank}")
        acc = GrassmannElement.zero(self.target_rank)
        for labels, coeff in element.terms.items():
            value = GrassmannElement.unit(self.target_rank)
            for label in labels:
                value = value * self.images[label - 1]
                if value.is_zero():
                    break
            acc = acc + value * coeff
        return acc

    def after(self, other: "GrassmannMorphism") -> "GrassmannMorphism":
        """Composite self(other(.))."""
        if other.target_rank != self.source_rank:
            raise RankMismatchError("morphisms do not compose")
        return GrassmannMorphism(other.source_rank, self.target_rank,
                                 [self(img) for img in other.images])

    def __eq__(self, other):
        if not isinstance(other, GrassmannMorphism):
            return NotImplemented
        return (self.source_rank == other.source_rank
                and self.target_rank == other.target_rank
                and self.images == other.images)

    def __repr__(self):
        imgs = ", ".join(img.format() for img in self.images)
        return f"GrassmannMorphism({self.source_rank}->{self.target_rank}: [{imgs}])"
