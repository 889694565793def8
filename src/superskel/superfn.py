"""Scalar superfunctions and skeletons of superdomain morphisms.

A superfunction on R^{p|q} is a finite sum of terms c_J(x) * t_J where J runs
over strictly increasing subsets of {1..q}, t_J is the ordered product of the
odd coordinates in J, and each coefficient c_J is a rational function of the
even coordinates.  Because |J| <= q, nilpotency of the odd part is built into
the representation.  The monomial arithmetic is shared with
``GrassmannElement``: the coefficients ``_coeffs`` are keyed by the bitmask
of J, as a Grassmann element's numerators are, with rational functions in
place of ints.  Sums, scaling and the power come from the sparse-term kernel
in ``poly.py``, the sign-law product, parity, geometric-series inverse and
the evaluator at a lambda-point from ``grassmann.py``; ``terms`` is a view
keyed by label tuples, built on each read.  This module adds the domain
bookkeeping, coefficient-wise equality, calculus and evaluation.

Equivalently, a superfunction is the family of its alternating coefficient
maps: the degree-k map sends a k-tuple of odd basis directions to the
coefficient of the corresponding ordered monomial, extended alternately
(``alt_coeff``).  The product can be computed either directly on monomials
with the exterior sign law, or through the shuffle-sum formula on the
alternating maps; both are implemented and must agree everywhere.

A skeleton packages one parity-correct superfunction per target coordinate
and is the finite description of a morphism between superdomains.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .errors import DomainError, NotInvertibleError, ParityError, SpaceMismatchError, SuperskelError
from .grassmann import (GrassmannElement, _canonical, _geometric_inverse, _has_parity,
                        _label_key, _labels, _parity, _PointEvaluator, _product, _signed_mask,
                        _soul)
from .poly import (Polynomial, RationalFunction, _negate, _power, _scale, _signed_sum,
                   _Substitution, _sum, monomial_text)
from .spaces import DeWittDomain, LambdaPoint, SuperSpace


def _as_rf(value, nvars):
    if isinstance(value, RationalFunction):
        return value
    if isinstance(value, Polynomial):
        return RationalFunction(value)
    if isinstance(value, (int, Fraction)):
        return RationalFunction.constant(nvars, value)
    raise TypeError(f"cannot use {type(value).__name__} as a coefficient function")


def _evaluator_at(point: LambdaPoint) -> _PointEvaluator:
    """An evaluator to share across the superfunctions evaluated at ``point``
    through ``SuperFunction._eval_at``, which checks neither space nor domain:
    its callers check the point once (``eval_subst`` may skip the domain)."""
    return _PointEvaluator(point.rank, point.even_values, point.odd_values)


def shuffles(k: int, total: int):
    """All (k, total-k) shuffles of positions 0..total-1.

    Yields (first, second, sign): the two ascending position blocks and the
    sign of the permutation that lists ``first`` then ``second``.
    """
    positions = range(total)
    for first in combinations(positions, k):
        second = tuple(i for i in positions if i not in first)
        inversions = sum(1 for a in first for b in second if a > b)
        yield first, second, -1 if inversions & 1 else 1


class SuperFunction:
    """Sum of rational-coefficient odd monomials on a superspace."""

    __slots__ = ("space", "domain", "_coeffs")
    __hash__ = None  # equality is value equality of coefficient functions

    def __init__(self, space: SuperSpace, domain: DeWittDomain, terms=None):
        if domain.space != space:
            raise SpaceMismatchError("domain belongs to a different space")
        p = space.even_dim

        def coerce(value):
            rf = _as_rf(value, p)
            if rf and rf.nvars != p:
                raise SuperskelError("coefficient arity does not match the even dimension")
            return rf

        self.space = space
        self.domain = domain
        self._coeffs = _canonical(terms, space.odd_dim, coerce, "odd")

    @classmethod
    def _make(cls, space, domain, coeffs):
        # trusted constructor for internal use: coeffs a canonical mask dict
        fn = object.__new__(cls)
        fn.space = space
        fn.domain = domain
        fn._coeffs = coeffs
        return fn

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, space: SuperSpace, domain: DeWittDomain | None = None) -> "SuperFunction":
        return cls(space, domain or DeWittDomain.full(space), {})

    @classmethod
    def constant(cls, space: SuperSpace, value, domain: DeWittDomain | None = None) -> "SuperFunction":
        return cls(space, domain or DeWittDomain.full(space), {(): value})

    @classmethod
    def even_coordinate(cls, space: SuperSpace, index: int,
                        domain: DeWittDomain | None = None) -> "SuperFunction":
        """x_index as a superfunction (1-based)."""
        if not 1 <= index <= space.even_dim:
            raise SuperskelError(f"no even coordinate x{index}")
        poly = Polynomial.variable(space.even_dim, index - 1)
        return cls(space, domain or DeWittDomain.full(space), {(): poly})

    @classmethod
    def odd_coordinate(cls, space: SuperSpace, index: int,
                       domain: DeWittDomain | None = None) -> "SuperFunction":
        """t_index as a superfunction (1-based)."""
        if not 1 <= index <= space.odd_dim:
            raise SuperskelError(f"no odd coordinate t{index}")
        return cls(space, domain or DeWittDomain.full(space), {(index,): 1})

    # -- structure ---------------------------------------------------------

    @property
    def terms(self) -> dict:
        """A new dict from label tuples to the nonzero coefficients;
        changing it does not change the function."""
        return {_labels(m): c for m, c in self._coeffs.items()}

    def coefficient(self, labels) -> RationalFunction:
        """The coefficient of t_l1...t_lk for any label sequence: the stored
        one times the sign of sorting the labels, zero on a repeated label."""
        sign, mask = _signed_mask(labels, self.space.odd_dim)
        coeff = self._coeffs.get(mask) if sign else None
        if coeff is None:
            return RationalFunction.constant(self.space.even_dim, 0)
        return coeff if sign > 0 else -coeff

    def is_zero(self) -> bool:
        return not self._coeffs

    def is_even(self) -> bool:
        return _has_parity(self._coeffs, 0)

    def is_odd(self) -> bool:
        return _has_parity(self._coeffs, 1)

    def parity(self):
        return _parity(self._coeffs)

    def min_odd_degree(self) -> int:
        """Smallest |J| with a nonzero term; q+1 for the zero function."""
        if not self._coeffs:
            return self.space.odd_dim + 1
        return min(m.bit_count() for m in self._coeffs)

    def soul(self) -> "SuperFunction":
        """The nilpotent part: every term with an odd coordinate."""
        return SuperFunction._make(self.space, self.domain, _soul(self._coeffs))

    def alt_coeff(self, labels) -> RationalFunction:
        """Alternating coefficient map on odd basis directions: zero on
        repeated labels, otherwise the ascending coefficient times the sign
        of the sorting permutation (``coefficient``), for labels in range."""
        labels = tuple(labels)
        if any(l < 1 or l > self.space.odd_dim for l in labels):
            raise SuperskelError(f"odd label out of range in {labels}")
        return self.coefficient(labels)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        """``other`` as a superfunction on the same space, or None for a
        foreign type.  ``Fraction``, an abstract base class whose
        ``isinstance`` test is slow for other types, is tested last."""
        if isinstance(other, SuperFunction):
            if other.space != self.space:
                raise SpaceMismatchError("superfunctions live on different spaces")
            return other
        if isinstance(other, (RationalFunction, Polynomial, int, Fraction)):
            return SuperFunction(self.space, self.domain, {(): other})
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return SuperFunction._make(self.space, self.domain.intersect(other.domain),
                                   _sum(self._coeffs, other._coeffs))

    __radd__ = __add__

    def __neg__(self):
        return SuperFunction._make(self.space, self.domain, _negate(self._coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Monomial-route product: exterior sign law on the odd labels."""
        if not isinstance(other, SuperFunction):
            if isinstance(other, (RationalFunction, Polynomial, int, Fraction)):
                factor = _as_rf(other, self.space.even_dim)
                return SuperFunction._make(self.space, self.domain, _scale(self._coeffs, factor))
            return NotImplemented
        other = self._coerce(other)
        return SuperFunction._make(self.space, self.domain.intersect(other.domain),
                                   _product(self._coeffs, other._coeffs, self.space.odd_dim))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return _power(self, n, SuperFunction.constant(self.space, 1, self.domain))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.invert()

    def __eq__(self, other):
        if isinstance(other, SuperFunction) and other.space != self.space:
            return False
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        zero = RationalFunction.constant(self.space.even_dim, 0)
        return all(a.get(k, zero) == b.get(k, zero) for k in set(a) | set(b))

    def invert(self) -> "SuperFunction":
        """Inverse of an even superfunction with nonzero body coefficient.

        Computed by the terminating geometric series in the nilpotent part;
        the body coefficient's zero set joins the result's excluded zeros.
        """
        if not self.is_even():
            raise ParityError("only even superfunctions are invertible")
        c0 = self.coefficient(())
        if not c0:
            raise NotInvertibleError("body coefficient is identically zero")
        domain = self.domain.with_excluded([c0.num])
        q = self.space.odd_dim
        coeffs = _geometric_inverse(c0.invert(), _soul(self._coeffs), q, q // 2)
        return SuperFunction._make(self.space, domain, coeffs)

    # -- calculus ----------------------------------------------------------

    def partial(self, index: int) -> "SuperFunction":
        """d/dx_index (1-based), termwise on the coefficient functions."""
        if not 1 <= index <= self.space.even_dim:
            raise SuperskelError(f"no even coordinate x{index}")
        coeffs = {m: d for m, c in self._coeffs.items() if (d := c.derivative(index - 1))}
        return SuperFunction._make(self.space, self.domain, coeffs)

    def odd_partial(self, index: int) -> "SuperFunction":
        """Right-acting d/dt_index: t_J -> (-1)^(#labels above index) t_{J-index}.

        This is the convention under which iterated odd partials reproduce the
        alternating coefficient maps in argument order.
        """
        if not 1 <= index <= self.space.odd_dim:
            raise SuperskelError(f"no odd coordinate t{index}")
        # removing ``index`` is injective on the masks that contain it
        bit = 1 << (index - 1)
        coeffs = {}
        for mask, coeff in self._coeffs.items():
            if mask & bit:
                above = (mask >> index).bit_count()
                coeffs[mask ^ bit] = -coeff if above & 1 else coeff
        return SuperFunction._make(self.space, self.domain, coeffs)

    # -- evaluation / substitution ------------------------------------------

    def eval(self, point: LambdaPoint) -> GrassmannElement:
        """Value at a lambda-point of the domain, computed in the Grassmann
        algebra over int numerators (``grassmann._PointEvaluator``); a point
        in another space or outside the domain is rejected.  Callers that
        evaluate several superfunctions at one point, after checking it
        themselves, share one evaluator through ``_eval_at``."""
        if point.space != self.space:
            raise SpaceMismatchError("point lives in a different space")
        if not self.domain.contains(point):
            raise DomainError("point lies outside the declared domain")
        return self._eval_at(_evaluator_at(point))

    def _eval_at(self, evaluator: _PointEvaluator) -> GrassmannElement:
        """Value at the evaluator's point, with no space or domain check."""
        try:
            return evaluator.value(self._coeffs)
        except NotInvertibleError:
            # a declared-nonvanishing denominator hit a zero body here
            raise DomainError("a denominator has zero body at this point; "
                              "the declared domain is dishonest")

    def substitute(self, even_values, odd_values, one):
        """Plug values in for the coordinates, through the generic ring
        operations: ``compose_subst`` passes superfunction values, which
        compose coordinatewise.  Grassmann values give the value at a point
        as ``eval`` does, by a route independent of its evaluator.  ``one``
        is the unit of the values' ring, which must support +, *, Fraction
        scaling and ``invert`` for denominators.  Each term c_J * t_J
        becomes c_J(even_values) times the odd values of J in label order.
        One ``_Substitution`` serves every coefficient of this call, so each
        power of an even value and each inverted denominator factor is
        computed once per call; nothing is kept after it."""
        subst = _Substitution(even_values, one)
        acc = None
        for mask, coeff in self._coeffs.items():
            value = subst.rational(coeff)
            for label in _labels(mask):
                value = value * odd_values[label - 1]
            acc = value if acc is None else acc + value
        return 0 * one if acc is None else acc

    # -- rendering -----------------------------------------------------------

    def format(self) -> str:
        """Canonical text per the expression grammar; round-trips exactly."""
        parts = []
        for mask in sorted(self._coeffs, key=_label_key):
            coeff = self._coeffs[mask]
            gens = [f"t{j}" for j in _labels(mask)]
            if coeff.is_polynomial():
                for exps, negative, c in coeff.num._print_order():
                    # negative unit coefficients stay explicit: -1*t1*t2
                    parts.append((negative, monomial_text(c, exps, list(gens),
                                                          force_coeff=negative)))
            else:
                text = coeff.format()
                if gens:
                    text += "*" + "*".join(gens)
                parts.append((False, text))
        return _signed_sum(parts)

    def __repr__(self):
        return f"SuperFunction({self.space}, {self.format()!r})"


def mul_shuffle(f: SuperFunction, g: SuperFunction) -> SuperFunction:
    """Product via the shuffle sum over the alternating coefficient maps.

    The degree-m coefficient of the product at an ascending tuple M is the sum
    over (k, m-k) shuffles of M of the signed product of the factors'
    alternating maps on the two blocks.  Independent of the monomial-route
    product ``f * g`` by construction; the two must agree on all inputs.
    """
    other = f._coerce(g)
    if other is None:
        raise TypeError("mul_shuffle expects superfunctions on one space")
    g = other
    space = f.space
    q = space.odd_dim
    terms = {}
    for m in range(q + 1):
        for monomial in combinations(range(1, q + 1), m):
            acc = None
            for k in range(m + 1):
                for first, second, sign in shuffles(k, m):
                    left = f.coefficient(tuple(monomial[i] for i in first))
                    if left.is_zero():
                        continue
                    right = g.coefficient(tuple(monomial[i] for i in second))
                    if right.is_zero():
                        continue
                    piece = left * right * Fraction(sign)
                    acc = piece if acc is None else acc + piece
            if acc is not None and not acc.is_zero():
                terms[monomial] = acc
    return SuperFunction(space, f.domain.intersect(g.domain), terms)


class Skeleton:
    """Finite description of a superdomain morphism.

    One superfunction per target coordinate; components seated in even target
    slots must be parity-even, those in odd slots parity-odd.  The body map
    (the odd-free coefficients of the even components) is declared to send the
    source domain into the target domain; this is spot-checked by sampling and
    enforced exactly at every evaluation.
    """

    __slots__ = ("source_space", "source_domain", "target_space", "target_domain",
                 "components")

    def __init__(self, source_space: SuperSpace, source_domain: DeWittDomain,
                 target_space: SuperSpace, target_domain: DeWittDomain, components):
        components = tuple(components)
        if len(components) != target_space.even_dim + target_space.odd_dim:
            raise SpaceMismatchError("need one component per target coordinate")
        if source_domain.space != source_space or target_domain.space != target_space:
            raise SpaceMismatchError("domain/space mismatch")
        domain = source_domain
        for i, comp in enumerate(components):
            if comp.space != source_space:
                raise SpaceMismatchError("components must live on the source space")
            if i < target_space.even_dim:
                if not comp.is_even():
                    raise ParityError(f"component for even coordinate y{i + 1} must be even")
            else:
                if not comp.is_odd():
                    raise ParityError(
                        f"component for odd coordinate h{i - target_space.even_dim + 1} must be odd")
            domain = domain.intersect(comp.domain)
        self.source_space = source_space
        self.source_domain = domain
        self.target_space = target_space
        self.target_domain = target_domain
        self.components = components

    @classmethod
    def identity(cls, space: SuperSpace, domain: DeWittDomain | None = None) -> "Skeleton":
        domain = domain or DeWittDomain.full(space)
        comps = [SuperFunction.even_coordinate(space, i + 1, domain)
                 for i in range(space.even_dim)]
        comps += [SuperFunction.odd_coordinate(space, j + 1, domain)
                  for j in range(space.odd_dim)]
        return cls(space, domain, space, domain, comps)

    @property
    def even_components(self) -> tuple[SuperFunction, ...]:
        return self.components[:self.target_space.even_dim]

    @property
    def odd_components(self) -> tuple[SuperFunction, ...]:
        return self.components[self.target_space.even_dim:]

    def body_maps(self) -> tuple[RationalFunction, ...]:
        return tuple(c.coefficient(()) for c in self.even_components)

    def check_body_image(self, rng, samples: int = 25) -> bool:
        """Spot-check that sampled source bodies land in the target domain."""
        for body in self.source_domain.sample_bodies(rng, samples):
            image = tuple(rf.eval(body) for rf in self.body_maps())
            if not self.target_domain.contains_body(image):
                return False
        return True

    def __eq__(self, other):
        if not isinstance(other, Skeleton):
            return NotImplemented
        return (self.source_space == other.source_space
                and self.target_space == other.target_space
                and all(a == b for a, b in zip(self.components, other.components)))

    def __repr__(self):
        lines = []
        p = self.target_space.even_dim
        for i, comp in enumerate(self.components):
            name = f"y{i + 1}" if i < p else f"h{i - p + 1}"
            lines.append(f"{name} = {comp.format()}")
        return ("Skeleton(" + f"{self.source_space} -> {self.target_space}: "
                + "; ".join(lines) + ")")
