"""Sparse multivariate polynomials and rational functions over exact rationals.

These are the coefficient functions of superfunctions: every even coordinate
dependency is a quotient of polynomials with Fraction coefficients, so every
identity in the library is decidable by exact arithmetic. Equality of rational
functions is cross-multiplied polynomial identity; no multivariate gcd is ever
computed.

This bottom layer also holds the sparse-term kernel behind every finite sum
in the library.  Only public constructors validate outside input; internal
results are built by the kernel and handed to a trusted ``_make``.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError, NotInvertibleError, SuperskelError

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _as_fraction(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


# -- sparse-term kernel ------------------------------------------------------
# A ``terms`` dict maps keys (exponent tuples here, label tuples for Grassmann
# elements and superfunctions) to coefficients of a ring whose zero is falsy,
# in canonical form: each key once, no zero coefficient; ``__eq__``,
# ``__hash__`` and ``RationalFunction.__bool__`` rely on it.  ``_accumulate``
# updates a dict in place; the others return new ones.


def _accumulate(terms: dict, key, coeff) -> None:
    """terms[key] += coeff in place, dropping the entry when it cancels."""
    old = terms.get(key)
    new = coeff if old is None else old + coeff
    if new:
        terms[key] = new
    else:
        terms.pop(key, None)


def _sum(a: dict, b: dict) -> dict:
    terms = dict(a)
    for key, coeff in b.items():
        _accumulate(terms, key, coeff)
    return terms


def _negate(terms: dict) -> dict:
    return {k: -c for k, c in terms.items()}


def _scale(terms: dict, factor) -> dict:
    if not factor:
        return {}
    return {k: c * factor for k, c in terms.items()}


class Polynomial:
    """Polynomial in ``nvars`` commuting variables.

    ``terms`` maps exponent tuples (length ``nvars``) to nonzero Fractions.
    Instances are immutable by convention and hashable.
    """

    __slots__ = ("nvars", "terms", "_hash")

    def __init__(self, nvars: int, terms=None):
        clean = {}
        for exps, coeff in (terms or {}).items():
            coeff = _as_fraction(coeff)
            if coeff == 0:
                continue
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise SuperskelError(f"bad exponent tuple {exps} for {nvars} variables")
            _accumulate(clean, exps, coeff)
        self.nvars = nvars
        self.terms = clean
        self._hash = None

    @classmethod
    def _make(cls, nvars, terms):
        # trusted constructor for internal use: terms already canonical
        poly = object.__new__(cls)
        poly.nvars = nvars
        poly.terms = terms
        poly._hash = None
        return poly

    @classmethod
    def constant(cls, nvars: int, value) -> "Polynomial":
        value = _as_fraction(value)
        return cls._make(nvars, {(0,) * nvars: value} if value else {})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Polynomial":
        """The coordinate polynomial for 0-based variable ``index``."""
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return cls._make(nvars, {exps: _ONE})

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls._make(nvars, {})

    @classmethod
    def one(cls, nvars: int) -> "Polynomial":
        return cls.constant(nvars, 1)

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise SuperskelError("polynomial is not constant")
        return self.terms.get((0,) * self.nvars, _ZERO)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def _check(self, other):
        if self.nvars != other.nvars:
            raise SuperskelError("polynomials over different variable sets")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.nvars, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        return Polynomial._make(self.nvars, _sum(self.terms, other.terms))

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._make(self.nvars, _negate(self.terms))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.nvars, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Polynomial._make(self.nvars, _scale(self.terms, _as_fraction(other)))
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                _accumulate(terms, tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
        return Polynomial._make(self.nvars, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise SuperskelError("polynomial powers must be non-negative integers")
        result = Polynomial.one(self.nvars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __truediv__(self, other):
        """Division by a nonzero constant only."""
        if isinstance(other, Polynomial):
            if not other.is_constant():
                raise SuperskelError("polynomials can only be divided by constants")
            other = other.constant_value()
        other = _as_fraction(other)
        if other == 0:
            raise NotInvertibleError("division by zero")
        return self * (_ONE / other)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.nvars, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.nvars, frozenset(self.terms.items())))
        return self._hash

    def derivative(self, index: int) -> "Polynomial":
        """Partial derivative with respect to 0-based variable ``index``."""
        # lowering one exponent is injective on the surviving terms
        terms = {}
        for exps, coeff in self.terms.items():
            e = exps[index]
            if e:
                terms[exps[:index] + (e - 1,) + exps[index + 1:]] = coeff * e
        return Polynomial._make(self.nvars, terms)

    def eval(self, values) -> Fraction:
        """Evaluate at a tuple of Fractions."""
        acc = _ZERO
        for exps, coeff in self.terms.items():
            term = coeff
            for v, e in zip(values, exps):
                if e:
                    term *= v ** e
            acc += term
        return acc

    def eval_in(self, values, one):
        """Evaluate at elements of an arbitrary commutative-enough ring.

        ``values[i]`` substitutes variable i; ``one`` is the ring unit used
        for the empty product. Ring elements must support +, * and Fraction
        scaling from the left.
        """
        # powers[i][e - 1] = values[i]**e, extended one factor at a time
        powers = [[v] for v in values]

        acc = None
        for exps, coeff in self.terms.items():
            term = one
            for i, e in enumerate(exps):
                if e:
                    cache = powers[i]
                    while len(cache) < e:
                        cache.append(cache[-1] * values[i])
                    term = term * cache[e - 1]
            term = coeff * term
            acc = term if acc is None else acc + term
        if acc is None:
            return 0 * one
        return acc

    def partial_eval(self, assignment: dict[int, Fraction]) -> "Polynomial":
        """Substitute Fractions for a subset of variables (0-based indices).

        The arity is preserved; substituted variables simply no longer occur.
        """
        terms = {}
        for exps, coeff in self.terms.items():
            c = coeff
            new = list(exps)
            for i, v in assignment.items():
                e = exps[i]
                if e:
                    c *= v ** e
                new[i] = 0
            _accumulate(terms, tuple(new), c)
        return Polynomial._make(self.nvars, terms)

    def divide_by_linear(self, index: int, root: Fraction) -> "Polynomial":
        """Exact quotient (self - self|_{x_index=root}) / (x_index - root).

        Uses x^d - r^d = (x - r) * sum_{l<d} x^l r^{d-1-l} per monomial.
        """
        root = _as_fraction(root)
        terms = {}
        for exps, coeff in self.terms.items():
            d = exps[index]
            for l in range(d):
                _accumulate(terms, exps[:index] + (l,) + exps[index + 1:],
                            coeff * root ** (d - 1 - l))
        return Polynomial._make(self.nvars, terms)

    def divide_by_variable(self, index: int) -> "Polynomial":
        """Exact quotient by x_index; every monomial must contain it."""
        terms = {}
        for exps, coeff in self.terms.items():
            if exps[index] == 0:
                raise SuperskelError("polynomial is not divisible by the variable")
            terms[exps[:index] + (exps[index] - 1,) + exps[index + 1:]] = coeff
        return Polynomial._make(self.nvars, terms)

    def pad(self, new_nvars: int) -> "Polynomial":
        """Reinterpret over a larger variable set (existing indices kept)."""
        if new_nvars < self.nvars:
            raise SuperskelError("cannot shrink a polynomial's variable set")
        extra = (0,) * (new_nvars - self.nvars)
        return Polynomial._make(new_nvars, {e + extra: c for e, c in self.terms.items()})

    def format(self, name=None) -> str:
        """Canonical rendering, e.g. ``x1^2 - 2*x1*x2 + 1``."""
        if name is None:
            name = lambda i: f"x{i + 1}"
        parts = []
        for exps in sorted(self.terms, key=lambda e: (-sum(e), tuple(-x for x in e))):
            coeff = self.terms[exps]
            parts.append((coeff < 0, monomial_text(abs(coeff), exps, name)))
        return _signed_sum(parts)

    def __repr__(self):
        return f"Polynomial({self.format()!r})"


def monomial_text(coeff: Fraction, exps, name, extra: list[str] | None = None,
                  force_coeff: bool = False) -> str:
    """Render ``coeff * prod x_i^e_i [* extra...]`` without a leading sign."""
    factors = []
    for i, e in enumerate(exps):
        if e == 1:
            factors.append(name(i))
        elif e > 1:
            factors.append(f"{name(i)}^{e}")
    if extra:
        factors.extend(extra)
    if not factors:
        return str(coeff)
    if coeff != 1 or force_coeff:
        factors.insert(0, str(coeff))
    return "*".join(factors)


def _signed_sum(parts) -> str:
    """Join (negative, unsigned text) pairs as ``a - b + c``; ``0`` when empty."""
    if not parts:
        return "0"
    out = ("-" if parts[0][0] else "") + parts[0][1]
    for negative, text in parts[1:]:
        out += (" - " if negative else " + ") + text
    return out


class RationalFunction:
    """Quotient of two polynomials; the denominator is not identically zero.

    Constant denominators are folded into the numerator, so plain polynomials
    keep denominator 1.  Equality is exact cross-multiplication.
    """

    __slots__ = ("num", "den")
    __hash__ = None  # equality is up to cross-multiplication

    def __init__(self, num: Polynomial, den: Polynomial | None = None):
        if den is None:
            den = Polynomial.one(num.nvars)
        if num.nvars != den.nvars:
            raise SuperskelError("numerator/denominator variable sets differ")
        if den.is_zero():
            raise NotInvertibleError("denominator is identically zero")
        if num.is_zero():
            den = Polynomial.one(num.nvars)
        elif den.is_constant():
            num = num * (_ONE / den.constant_value())
            den = Polynomial.one(num.nvars)
        self.num = num
        self.den = den

    @classmethod
    def constant(cls, nvars: int, value) -> "RationalFunction":
        return cls(Polynomial.constant(nvars, value))

    @classmethod
    def variable(cls, nvars: int, index: int) -> "RationalFunction":
        return cls(Polynomial.variable(nvars, index))

    @property
    def nvars(self) -> int:
        return self.num.nvars

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return bool(self.num.terms)

    def is_polynomial(self) -> bool:
        return self.den == Polynomial.one(self.nvars)

    def is_constant(self) -> bool:
        return self.is_polynomial() and self.num.is_constant()

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise SuperskelError("rational function is not constant")
        return self.num.constant_value()

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalFunction.constant(self.nvars, other)
        if isinstance(other, Polynomial):
            return RationalFunction(other)
        if isinstance(other, RationalFunction):
            return other
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise NotInvertibleError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise SuperskelError("rational powers must be non-negative integers")
        return RationalFunction(self.num ** n, self.den ** n)

    def invert(self) -> "RationalFunction":
        if self.is_zero():
            raise NotInvertibleError("the zero rational function has no inverse")
        return RationalFunction(self.den, self.num)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def derivative(self, index: int) -> "RationalFunction":
        """Quotient rule: (a/b)' = (a'b - ab') / b^2."""
        if self.is_polynomial():
            return RationalFunction(self.num.derivative(index))
        return RationalFunction(
            self.num.derivative(index) * self.den - self.num * self.den.derivative(index),
            self.den * self.den,
        )

    def eval(self, values) -> Fraction:
        den = self.den.eval(values)
        if den == 0:
            raise DomainError(f"denominator vanishes at body point {tuple(map(str, values))}")
        return self.num.eval(values) / den

    def eval_in(self, values, one):
        """Evaluate at ring elements; the denominator value must be invertible
        (Fractions, or any object exposing ``invert``)."""
        num = self.num.eval_in(values, one)
        if self.is_polynomial():
            return num
        den = self.den.eval_in(values, one)
        if isinstance(den, Fraction):
            if den == 0:
                raise NotInvertibleError("denominator evaluates to zero")
            return num * (_ONE / den)
        return num * den.invert()

    def pad(self, new_nvars: int) -> "RationalFunction":
        return RationalFunction(self.num.pad(new_nvars), self.den.pad(new_nvars))

    def format(self, name=None) -> str:
        if self.is_polynomial():
            return self.num.format(name)
        return f"({self.num.format(name)})/({self.den.format(name)})"

    def __repr__(self):
        return f"RationalFunction({self.format()!r})"
