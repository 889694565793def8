"""Exact arithmetic in finite-rank Grassmann algebras over the rationals.

Elements are sparse sums of monomials in anticommuting generators g1..gN.
A monomial g_l1...g_lk with l1 < ... < lk is keyed by the int bitmask whose
bit l - 1 is set for each label l; mask 0 is the body (scalar) component.
The product follows the usual exterior-algebra sign law: two monomials
sharing a generator (``m1 & m2``) multiply to zero, otherwise the result is
the monomial ``m1 | m2`` times (-1)^(number of label inversions).  That sign
is read from a row of signs per left mask, built on first use and cached per
rank (``_sign_row``), so a product runs no merge of label sequences.

The exterior-algebra kernel is written once, as private functions over
mask-keyed dicts with coefficients in any ring whose zero is falsy: int
numerators here, rational functions for the odd-monomial part of a
``SuperFunction`` (an element of C(U) tensor the exterior algebra on the odd
coordinates).  Sums, negation, scaling and the power ``_power`` are the
sparse-term kernel of ``poly.py``; only what is particular to the exterior
algebra lives here: label validation, the sign-law ``_product``, parity,
``_geometric_inverse`` and ``_PointEvaluator``, which evaluates an exterior
polynomial at Grassmann images of its generators, with polynomial or
rational-function coefficients evaluated at Grassmann images of the even
variables (a superfunction at a lambda-point), or with rational coefficients
(a morphism applied to an element).  It sums int numerators and reduces once
per value, and one evaluator shares its monomial values across everything
evaluated at its point.

A ``GrassmannElement`` is stored as int numerators ``_ints`` over one
positive int denominator ``_den`` with gcd(_den, *_ints) = 1.  That form is
unique, so equality and hashing compare (rank, _den, _ints).  Gauss's lemma
does not hold here (the algebra has zero divisors: (g1 + 3g2)(g1 - 3g2) =
-6 g1g2), so every product, sum and part is reduced against ``_den``
afterwards.

Label tuples appear only at the boundary: the public constructors (which
read their input with ``poly._read_numerators``), ``coefficient``,
``format``, the parser's monomials and the read-only ``terms`` view, a new
dict from label tuples to Fractions built on each read.  ``coefficient``
and the parser read any label sequence up to sign with ``_signed_mask``,
which counts inversions on masks.  ``merge_sign`` works on label tuples and
the product does not share it; only the Taylor route
(``continuation.taylor_shells``) uses it, which keeps it an oracle
independent of the mask kernel.

Morphisms between these algebras are determined by the generator images,
which must be purely odd; this makes the induced map even and unital.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from operator import index as _index

from .errors import (NotInvertibleError, ParityError, RankCapError, RankMismatchError,
                     SuperskelError)
from .poly import (_accumulate, _add_multiple, _as_fraction, _number_text, _power,
                   _read_numerators, _refuse_power, _scale, _signed_sum, _sum)

_ZERO = Fraction(0)

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


# -- masks and label tuples ----------------------------------------------------

_LABELS: dict[int, tuple[int, ...]] = {0: ()}


def _labels(mask: int) -> tuple[int, ...]:
    """The ascending labels of a mask (cached)."""
    labels = _LABELS.get(mask)
    if labels is None:
        labels = _LABELS[mask] = tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)
    return labels


def _label_mask(labels, top: int, what: str) -> int:
    """The mask of outside input: labels in 1..top, strictly increasing."""
    labels = tuple(map(_index, labels))
    mask = previous = 0
    increasing = True
    for label in labels:
        if label < 1 or label > top:
            raise SuperskelError(f"{what} label out of range in {labels} (at most {top})")
        if label <= previous:
            increasing = False
        previous = label
        mask |= 1 << (label - 1)
    if not increasing:
        raise SuperskelError(f"{what} labels must be strictly increasing, got {labels}")
    return mask


def _signed_mask(labels, top: int) -> tuple[int, int]:
    """(sign, mask) with g_labels = sign * g_mask for any label sequence; the
    sign is 0 when a label repeats or is outside 1..top (no such monomial),
    so no mask is built past bit ``top``.  The sign is that of sorting the
    labels: each label passes the larger ones read before it."""
    mask = inversions = 0
    for label in labels:
        if label < 1 or label > top:
            return 0, 0
        bit = 1 << (label - 1)
        if mask & bit:
            return 0, 0
        inversions += (mask >> label).bit_count()
        mask |= bit
    return -1 if inversions & 1 else 1, mask


def _label_key(mask: int):
    """Sort key of the printed order: by length, then by labels."""
    return mask.bit_count(), _labels(mask)


# -- sign rows -------------------------------------------------------------------
# _SIGN_ROWS[rank][m1][m2] is the sign of g_m1 * g_m2 in the rank's algebra:
# 0 when the masks share a generator, else (-1)^inversions.  A row is built on
# first use, so a high rank costs only the rows that its products reach; all
# rows of rank r take 8 * 4^r bytes of list slots (0.5 MiB at rank 8).

_SIGN_ROWS: dict[int, list] = {}


def _sign_row(rows: list, m1: int) -> list:
    """Build and cache rows[m1]."""
    row = [0] * len(rows)
    row[0] = 1
    for m2 in range(1, len(rows)):
        low = m2 & -m2
        rest = row[m2 ^ low]
        if rest and not m1 & low:
            # the lowest label of m2 passes every label of m1 above it
            row[m2] = -rest if (m1 >> low.bit_length()).bit_count() & 1 else rest
    rows[m1] = row
    return row


# -- exterior-algebra kernel -------------------------------------------------
# Mask-keyed ``terms`` dicts, canonical as in poly.py.  ``_canonical`` builds
# one from raw input; the others leave their arguments alone and return new
# canonical dicts.


def _canonical(terms, top: int, coerce, what: str) -> dict:
    """Validate raw input keyed by label tuples: coerce coefficients, drop
    zeros, require labels in 1..top and strictly increasing, and sum
    repeated labels."""
    clean = {}
    for labels, coeff in (terms or {}).items():
        coeff = coerce(coeff)
        if coeff:
            _accumulate(clean, _label_mask(labels, top, what), coeff)
    return clean


def _soul(terms: dict) -> dict:
    """Everything except the body (mask 0) term."""
    return {m: c for m, c in terms.items() if m}


def _product(a: dict, b: dict, rank: int) -> dict:
    """Exterior product of two rank-``rank`` terms dicts."""
    rows = _SIGN_ROWS.get(rank)
    if rows is None:
        rows = _SIGN_ROWS[rank] = [None] * (1 << rank)
    terms = {}
    for m1, c1 in a.items():
        row = rows[m1] or _sign_row(rows, m1)
        for m2, c2 in b.items():
            sign = row[m2]
            if not sign:
                continue
            m = m1 | m2
            c = c1 * c2
            old = terms.get(m)
            if old is None:
                terms[m] = c if sign > 0 else -c
            else:
                c = old + c if sign > 0 else old - c
                if c:
                    terms[m] = c
                else:
                    del terms[m]
    return terms


def _has_parity(terms: dict, parity: int) -> bool:
    return all(m.bit_count() & 1 == parity for m in terms)


def _parity(terms: dict):
    """0 for even, 1 for odd, None for mixed; zero counts as even."""
    if _has_parity(terms, 0):
        return 0
    if _has_parity(terms, 1):
        return 1
    return None


def _soul_powers(soul: dict, rank: int, steps: int) -> list:
    """[soul, soul^2, ...] up to the last nonzero power, at most ``steps``."""
    powers = []
    while len(powers) < steps:
        power = _product(powers[-1], soul, rank) if powers else soul
        if not power:
            break
        powers.append(power)
    return powers


def _geometric_inverse(inv_body, soul: dict, rank: int, steps: int) -> dict:
    """Inverse of body + soul, given inv_body = 1/body and a nilpotent soul.

    1/(b + n) = sum_k (-1)^k n^k / b^(k+1), which terminates because n^k
    vanishes once k exceeds ``steps`` (or earlier).
    """
    result = {0: inv_body}
    scale = inv_body
    for power in _soul_powers(soul, rank, steps):
        scale = -scale * inv_body
        result = _sum(result, _scale(power, scale))
    return result


def _lowest(ints: dict, den: int):
    """(ints, den) with the common factor of den and the numerators
    cancelled; den 1 for zero."""
    if not ints:
        return ints, 1
    g = math.gcd(den, *ints.values())
    if g != 1:
        ints = {m: c // g for m, c in ints.items()}
        den //= g
    return ints, den


class GrassmannElement:
    """Element of the rank-N Grassmann algebra over the rationals."""

    __slots__ = ("rank", "_ints", "_den")

    def __init__(self, rank: int, terms=None):
        if rank < 0:
            raise SuperskelError("rank must be non-negative")
        _check_rank_cap(rank)
        ints, den = _read_numerators(terms, lambda labels: _label_mask(labels, rank, "generator"))
        self.rank = rank
        self._ints, self._den = _lowest(ints, den)

    @classmethod
    def _make(cls, rank, ints, den=1):
        # trusted constructor for internal use: rank checked, ints nonzero
        # and in lowest terms against den > 0 (1 for zero)
        el = object.__new__(cls)
        el.rank = rank
        el._ints = ints
        el._den = den
        return el

    @classmethod
    def _reduced(cls, rank, ints, den):
        # trusted, for nonzero ints over den > 0 that may share a factor
        if den != 1:
            ints, den = _lowest(ints, den)
        return cls._make(rank, ints, den)

    @classmethod
    def zero(cls, rank: int) -> "GrassmannElement":
        return cls(rank, {})

    @classmethod
    def unit(cls, rank: int) -> "GrassmannElement":
        return cls(rank, {(): 1})

    @classmethod
    def scalar(cls, rank: int, value) -> "GrassmannElement":
        return cls(rank, {(): _as_fraction(value)})

    @classmethod
    def generator(cls, rank: int, index: int) -> "GrassmannElement":
        return cls(rank, {(index,): 1})

    @classmethod
    def monomial(cls, rank: int, labels, coeff=1) -> "GrassmannElement":
        return cls(rank, {tuple(labels): coeff})

    @property
    def terms(self) -> dict:
        """A new dict from label tuples to the nonzero Fraction
        coefficients; changing it does not change the element."""
        den = self._den
        return {_labels(m): Fraction(c, den) for m, c in self._ints.items()}

    def is_zero(self) -> bool:
        return not self._ints

    def body(self) -> Fraction:
        """Coefficient of the empty monomial (the unique algebra map to Q)."""
        return Fraction(self._ints.get(0, 0), self._den)

    def soul(self) -> "GrassmannElement":
        """The nilpotent part: everything except the body."""
        return GrassmannElement._reduced(self.rank, _soul(self._ints), self._den)

    def is_even(self) -> bool:
        return _has_parity(self._ints, 0)

    def is_odd(self) -> bool:
        return _has_parity(self._ints, 1)

    def parity(self):
        """0 for even, 1 for odd, None for mixed; zero counts as even."""
        return _parity(self._ints)

    def coefficient(self, labels) -> Fraction:
        """The coefficient of g_l1...g_lk for any label sequence: the stored
        one times the sign of sorting the labels, 0 on a repeated label."""
        sign, mask = _signed_mask(labels, self.rank)
        c = self._ints.get(mask) if sign else None
        return _ZERO if c is None else Fraction(sign * c, self._den)

    def _scaled(self, factor) -> "GrassmannElement":
        """self * factor for an int or Fraction."""
        n, d = factor.as_integer_ratio()
        if not n or not self._ints:
            return GrassmannElement._make(self.rank, {})
        ints = self._ints if n == 1 else {m: c * n for m, c in self._ints.items()}
        return GrassmannElement._reduced(self.rank, ints, self._den * d)

    def _combined(self, other, sign: int) -> "GrassmannElement":
        """self + sign * other over the lcm of the two denominators."""
        b = other._ints
        if not b:
            return self
        a = self._ints
        if not a:
            return other if sign > 0 else -other
        da, db = self._den, other._den
        h = math.gcd(da, db)
        sa, sb, den = db // h, sign * (da // h), da // h * db
        ints = dict(a) if sa == 1 else {m: c * sa for m, c in a.items()}
        _add_multiple(ints, b, sb)
        return GrassmannElement._reduced(self.rank, ints, den)

    def _coerce(self, other):
        """``other`` as an element of the same rank, or None for a foreign
        type.  The own type is tested first: ``isinstance`` against
        ``Fraction``, an abstract base class, is slow for other types."""
        if isinstance(other, GrassmannElement):
            if self.rank != other.rank:
                raise RankMismatchError(
                    f"elements of rank {self.rank} and {other.rank} are incompatible")
            return other
        if isinstance(other, (int, Fraction)):
            n, d = other.as_integer_ratio()
            return GrassmannElement._make(self.rank, {0: n} if n else {}, d if n else 1)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._combined(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return GrassmannElement._make(self.rank, {m: -c for m, c in self._ints.items()},
                                      self._den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._combined(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, GrassmannElement):
            if isinstance(other, (int, Fraction)):
                return self._scaled(other)
            return NotImplemented
        rank = self._coerce(other).rank
        return GrassmannElement._reduced(rank, _product(self._ints, other._ints, rank),
                                         self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, GrassmannElement):
            return self * other.invert()
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if other == 0:
            raise NotInvertibleError("division by zero")
        return self._scaled(1 / _as_fraction(other))

    def __pow__(self, n: int):
        return _power(self, n, GrassmannElement._make(self.rank, {0: 1}))

    def __eq__(self, other):
        if not isinstance(other, GrassmannElement):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = self._coerce(other)
        return (self.rank == other.rank and self._den == other._den
                and self._ints == other._ints)

    def __hash__(self):
        return hash((self.rank, self._den, frozenset(self._ints.items())))

    def invert(self) -> "GrassmannElement":
        """Inverse via the terminating geometric series in the soul.

        For self = (b + n) / d with an int body b and int soul n, 1/self =
        d sum_k (-n)^k b^(K-k) / b^(K+1), where n^K is the last nonzero
        power (K <= rank, as every soul term carries a generator).
        """
        b = self._ints.get(0)
        if not b:
            raise NotInvertibleError("element has zero body, hence no inverse")
        powers = _soul_powers(_soul(self._ints), self.rank, self.rank)
        top = len(powers)
        ints = {0: b ** top}
        for k, power in enumerate(powers, 1):
            _add_multiple(ints, power, b ** (top - k) if k % 2 == 0 else -b ** (top - k))
        den = b ** (top + 1)
        scale = self._den if den > 0 else -self._den
        ints = {m: c * scale for m, c in ints.items()}
        return GrassmannElement._reduced(self.rank, ints, abs(den))

    def embed(self, new_rank: int) -> "GrassmannElement":
        """Reinterpret inside a larger algebra (generator labels unchanged)."""
        if new_rank < self.rank:
            raise RankMismatchError("cannot embed into a smaller algebra")
        _check_rank_cap(new_rank)
        return GrassmannElement._make(new_rank, self._ints, self._den)

    def format(self) -> str:
        """Canonical text: terms sorted by (length, labels), ``c*g1g2``-style,
        with ``1`` standing for the empty monomial."""
        parts = []
        for mask in sorted(self._ints, key=_label_key):
            coeff = self._ints[mask]
            gens = "".join(f"g{i}" for i in _labels(mask)) or "1"
            parts.append((coeff < 0, f"{_number_text(Fraction(abs(coeff), self._den))}*{gens}"))
        return _signed_sum(parts)

    def __repr__(self):
        return f"GrassmannElement({self.rank}, {self.format()!r})"


class _PointEvaluator:
    """Values at one point of the Grassmann algebra of rank ``rank``: even
    values n_i / d_i substituted for commuting variables and odd values for
    the generators of an exterior algebra, each stored as its int numerators
    ``_ints`` over its ``_den``.

    One evaluator serves every value computed at its point, and is dropped
    with the call that built it.  It caches each power n_i^e (by
    square-and-multiply) with d_i^e, each even monomial prod_i n_i^a_i by
    exponent tuple and each ordered product of odd values by mask, so a
    monomial value shared by several coefficients or components is built
    once.  A polynomial is summed in ints over prod_i d_i^(top exponent of
    x_i) and a superfunction over the lcm of its terms' denominators, with
    one reduction per value.

    A power whose body numerator n_i[0]^e or denominator d_i^e would be
    longer than ``MAX_LITERAL_DIGITS`` is refused with ``DigitCapError``
    before it is computed, as the parser refuses such a literal: its value
    could not be printed unless a later sum cancelled it.  So is a power
    of an inverted denominator factor to its multiplicity.
    """

    __slots__ = ("rank", "_dens", "_powers", "_monomials", "_odds", "_odd_products")

    def __init__(self, rank: int, even_values, odd_values):
        self.rank = rank
        self._dens = tuple(v._den for v in even_values)
        self._powers = [{1: (v._ints, v._den)} for v in even_values]
        # the constant monomial is seeded, so every other one has a factor
        self._monomials = {(0,) * len(self._dens): ({0: 1}, 1)}
        self._odds = [(v._ints, v._den) for v in odd_values]
        self._odd_products = {0: ({0: 1}, 1)}

    def _power(self, i: int, e: int) -> tuple[dict, int]:
        """(numerators of n_i^e, d_i^e) for e >= 1, by the library's one
        power, after the digit cap on its body and denominator."""
        table = self._powers[i]
        power = table.get(e)
        if power is None:
            ints, den = table[1]
            _refuse_power(ints.get(0, 0), e)
            _refuse_power(den, e)
            base = GrassmannElement._make(self.rank, ints)
            power = table[e] = (_power(base, e, None)._ints, den ** e)
        return power

    def _monomial(self, exps: tuple) -> tuple[dict, int]:
        """(ints, den) of the even monomial: prod_i n_i^a_i over
        prod_i d_i^a_i for the exponent tuple a."""
        monomial = self._monomials.get(exps)
        if monomial is None:
            ints, den = None, 1
            for i, e in enumerate(exps):
                if e:
                    power, power_den = self._power(i, e)
                    ints = power if ints is None else _product(ints, power, self.rank)
                    den *= power_den
            monomial = self._monomials[exps] = (ints, den)
        return monomial

    def _polynomial(self, poly) -> tuple[dict, int]:
        """(ints, den) with poly = ints / den at the point; den is the
        content's denominator times prod_i d_i^(top exponent of x_i)."""
        n, den = poly._content.as_integer_ratio()
        top = 1
        for i, (d, e) in enumerate(zip(self._dens, map(max, zip(*poly._ints)))):
            if d != 1 and e:
                # the monomial with the top exponent needs this power anyway
                top *= self._power(i, e)[1]
        total = {}
        for exps, c in poly._ints.items():
            ints, mono_den = self._monomial(exps)
            _add_multiple(total, ints, c * n * (top // mono_den))
        return total, den * top

    def _rational(self, rf) -> tuple[dict, int]:
        """(ints, den) of a rational function at the point.  Each factor of
        the denominator is evaluated and inverted on its own; one with zero
        body raises ``NotInvertibleError``."""
        ints, den = self._polynomial(rf.num)
        if rf.factors:
            value = GrassmannElement._reduced(self.rank, ints, den)
            for factor, mult in rf.factors:
                inverse = GrassmannElement._reduced(self.rank, *self._polynomial(factor)).invert()
                if mult > 1:
                    _refuse_power(inverse._ints.get(0, 0), mult)
                    _refuse_power(inverse._den, mult)
                value = value * (inverse if mult == 1 else inverse ** mult)
            ints, den = value._ints, value._den
        return ints, den

    def _odd_product(self, mask: int) -> tuple[dict, int]:
        """(ints, den) of the product of the odd values of the labels in
        ``mask``, in label order."""
        product = self._odd_products.get(mask)
        if product is None:
            last = mask.bit_length() - 1
            ints, den = self._odd_product(mask ^ (1 << last))
            odd_ints, odd_den = self._odds[last]
            product = (_product(ints, odd_ints, self.rank), den * odd_den)
            self._odd_products[mask] = product
        return product

    def _odd_sum(self, terms) -> GrassmannElement:
        """The sum of ints / den times the odd product of ``mask`` over the
        (mask, ints, den) triples of ``terms``, added over the lcm of the
        denominators and reduced once."""
        parts = []
        for mask, ints, den in terms:
            if mask and ints:
                odd_ints, odd_den = self._odd_product(mask)
                ints = _product(ints, odd_ints, self.rank)
                den *= odd_den
            if ints:
                parts.append((ints, den))
        lcm = math.lcm(*[den for _, den in parts])
        total = {}
        for ints, den in parts:
            _add_multiple(total, ints, lcm // den)
        return GrassmannElement._reduced(self.rank, total, lcm)

    def value(self, coeffs: dict) -> GrassmannElement:
        """A superfunction's value from its mask-keyed rational-function
        coefficients: even values for the even coordinates, odd values for
        the odd ones."""
        return self._odd_sum((mask, *self._rational(rf)) for mask, rf in coeffs.items())


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
        """The element with each generator g_l replaced by its image."""
        if element.rank != self.source_rank:
            raise RankMismatchError(
                f"morphism expects rank {self.source_rank}, got {element.rank}")
        evaluator = _PointEvaluator(self.target_rank, (), self.images)
        den = element._den
        return evaluator._odd_sum((m, {0: c}, den) for m, c in element._ints.items())

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
