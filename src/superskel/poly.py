"""Sparse multivariate polynomials and rational functions over exact rationals.

These are the coefficient functions of superfunctions: every even coordinate
dependency is a quotient of polynomials with Fraction coefficients, so every
identity in the library is decidable by exact arithmetic.  A rational
function keeps its denominator as a list of monic factors with
multiplicities; sums take the lcm of the factor lists, and every arithmetic
result cancels each factor that divides its numerator exactly
(``Polynomial.exact_quotient``).  Factors come from input denominators and
inverted numerators, so no multivariate gcd is ever computed.  Equality
compares numerators over equal factor lists and otherwise cross-multiplies.

This bottom layer also holds the sparse-term kernel behind every finite sum
in the library.  Only public constructors validate outside input; internal
results are built by the kernel and handed to a trusted ``_make``.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DigitCapError, DomainError, NotInvertibleError, SuperskelError

_ZERO = Fraction(0)
_ONE = Fraction(1)

# The parser refuses integer literals longer than this, below Python's own
# int-to-text limit (sys.get_int_max_str_digits(), 4300 by default); printed
# numbers obey the same cap, so every output parses back.
MAX_LITERAL_DIGITS = 4000
_LITERAL_BOUND = 10 ** MAX_LITERAL_DIGITS


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
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return Polynomial.one(self.nvars) if result is None else result

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

    def exact_quotient(self, divisor: "Polynomial") -> "Polynomial | None":
        """``self / divisor`` when ``divisor`` divides ``self`` exactly, else None.

        Lex leading-term division.  Cheap tests reject first: the quotient's
        total degree, and the lex-leading and lex-trailing monomials, which
        must each be divisible by the divisor's; when the degrees are equal
        the quotient is a constant, so supports and proportionality decide.
        """
        self._check(divisor)
        dterms = divisor.terms
        if not dterms:
            raise NotInvertibleError("division by the zero polynomial")
        terms = self.terms
        if not terms:
            return self
        room = self.degree() - divisor.degree()
        if room < 0:
            return None
        lead, dlead = max(terms), max(dterms)
        if any(a < b for a, b in zip(lead, dlead)) or \
                any(a < b for a, b in zip(min(terms), min(dterms))):
            return None
        dcoeff = dterms[dlead]
        if room == 0:
            ratio = terms[lead] / dcoeff
            if terms.keys() != dterms.keys() or \
                    any(terms[e] != ratio * c for e, c in dterms.items()):
                return None
            return Polynomial._make(self.nvars, {(0,) * self.nvars: ratio})
        rest = [(e, -c) for e, c in dterms.items() if e != dlead]
        rem = dict(terms)
        quotient = {}
        while rem:
            lead = max(rem)
            mono = tuple(a - b for a, b in zip(lead, dlead))
            if any(m < 0 for m in mono) or sum(mono) > room:
                return None
            coeff = rem.pop(lead)
            if dcoeff != 1:
                coeff /= dcoeff
            quotient[mono] = coeff
            for e, c in rest:
                _accumulate(rem, tuple(a + b for a, b in zip(mono, e)), coeff * c)
        return Polynomial._make(self.nvars, quotient)

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

    def format(self) -> str:
        """Canonical rendering, e.g. ``x1^2 - 2*x1*x2 + 1``."""
        parts = []
        for exps in sorted(self.terms, key=lambda e: (-sum(e), tuple(-x for x in e))):
            coeff = self.terms[exps]
            parts.append((coeff < 0, monomial_text(abs(coeff), exps)))
        return _signed_sum(parts)

    def __repr__(self):
        return f"Polynomial({self.format()!r})"


def monomial_text(coeff: Fraction, exps, extra: list[str] | None = None,
                  force_coeff: bool = False) -> str:
    """Render ``coeff * prod x_i^e_i [* extra...]`` without a leading sign."""
    factors = []
    for i, e in enumerate(exps):
        if e == 1:
            factors.append(f"x{i + 1}")
        elif e > 1:
            factors.append(f"x{i + 1}^{_number_text(e)}")
    if extra:
        factors.extend(extra)
    if not factors:
        return _number_text(coeff)
    if coeff != 1 or force_coeff:
        factors.insert(0, _number_text(coeff))
    return "*".join(factors)


def _number_text(value) -> str:
    """``str`` of an int or Fraction, refused with ``DigitCapError`` when its
    numerator or denominator is longer than ``MAX_LITERAL_DIGITS``: the text
    of every printed number goes through here, so all output parses back."""
    if abs(value.numerator) >= _LITERAL_BOUND or value.denominator >= _LITERAL_BOUND:
        raise DigitCapError(f"cannot print a number longer than {MAX_LITERAL_DIGITS} "
                            "digits, the parser's literal cap")
    return str(value)


def _signed_sum(parts) -> str:
    """Join (negative, unsigned text) pairs as ``a - b + c``; ``0`` when empty."""
    if not parts:
        return "0"
    out = ("-" if parts[0][0] else "") + parts[0][1]
    for negative, text in parts[1:]:
        out += (" - " if negative else " + ") + text
    return out


def _monic(poly: Polynomial):
    """(lead, poly / lead) for the lex-leading coefficient ``lead``."""
    lead = poly.terms[max(poly.terms)]
    if lead == 1:
        return _ONE, poly
    return lead, Polynomial._make(poly.nvars, _scale(poly.terms, _ONE / lead))


def _normal_factors(num: Polynomial, pairs):
    """Normal form of num / prod(f^m over pairs), without cancelling.

    Makes each factor monic (its lead folds into ``num``), drops constant
    factors and merges equal ones; returns (num, factors).
    """
    merged = {}
    for factor, mult in pairs:
        lead, factor = _monic(factor)
        if lead != 1:
            num = num * (_ONE / lead ** mult)
        if not factor.is_constant():
            merged[factor] = merged.get(factor, 0) + mult
    return num, tuple(merged.items())


def _expand(nvars: int, pairs) -> Polynomial:
    """The product of f^m over (f, m) pairs."""
    result = None
    for factor, mult in pairs:
        power = factor if mult == 1 else factor ** mult
        result = power if result is None else result * power
    return Polynomial.one(nvars) if result is None else result


def _over_lcm(a: Polynomial, fa, b: Polynomial, fb):
    """a / prod(fa) and b / prod(fb) over the lcm of their factor lists:
    (a', b', lcm), each numerator multiplied only by its missing factors."""
    lcm = dict(fa)
    for factor, mult in fb:
        if lcm.get(factor, 0) < mult:
            lcm[factor] = mult

    def raised(num, pairs):
        have = dict(pairs)
        missing = [(f, m - have.get(f, 0)) for f, m in lcm.items() if m > have.get(f, 0)]
        return num * _expand(num.nvars, missing) if missing else num

    return raised(a, fa), raised(b, fb), tuple(lcm.items())


class RationalFunction:
    """Quotient ``num / den`` of polynomials with a factored denominator.

    ``factors`` is a tuple of (monic factor, multiplicity) pairs, pairwise
    distinct; a factor is monic when its lex-leading coefficient is 1, and
    constants fold into ``num``.  A polynomial has no factors (``()``).
    ``den``, the product of the factors, is expanded on first use and
    cached.

    Arithmetic results are in lowest terms with respect to their factors:
    each is built by ``_make``, which divides ``num`` by every factor that
    divides it exactly, up to the factor's multiplicity.  Sums take the lcm
    of the two factor lists, so denominators grow only by factors they do
    not share.  The public constructor normalises but does not cancel.
    Equality compares numerators over equal factor lists, and otherwise
    cross-multiplies by the factors each side is missing.
    """

    __slots__ = ("num", "_factors", "_den")
    __hash__ = None  # equal values may have different factor lists

    def __init__(self, num: Polynomial, den: Polynomial | None = None):
        self._factors = ()
        self._den = None
        if den is not None:
            if num.nvars != den.nvars:
                raise SuperskelError("numerator/denominator variable sets differ")
            if den.is_zero():
                raise NotInvertibleError("denominator is identically zero")
            if num.terms:
                lead, den = _monic(den)
                if lead != 1:
                    num = num * (_ONE / lead)
                if not den.is_constant():
                    # ``factors`` builds the tuple on first use: a coefficient
                    # read from input then costs no container beyond num, den
                    self._factors = None
                    self._den = den
        self.num = num

    @classmethod
    def _raw(cls, num: Polynomial, factors, den=None) -> "RationalFunction":
        # trusted: factors monic, pairwise distinct, () when num is zero
        rf = object.__new__(cls)
        rf.num = num
        rf._factors = factors
        rf._den = den
        return rf

    @classmethod
    def _make(cls, num: Polynomial, factors) -> "RationalFunction":
        """Trusted constructor for arithmetic results: cancels each factor
        from ``num`` as often as it divides exactly, up to its multiplicity."""
        if not num.terms:
            return cls._raw(num, ())
        kept = []
        for pair in factors:
            factor, mult = pair
            left = mult
            while left:
                quotient = num.exact_quotient(factor)
                if quotient is None:
                    break
                num = quotient
                left -= 1
            if left:
                kept.append(pair if left == mult else (factor, left))
        return cls._raw(num, tuple(kept))

    @classmethod
    def constant(cls, nvars: int, value) -> "RationalFunction":
        return cls(Polynomial.constant(nvars, value))

    @classmethod
    def variable(cls, nvars: int, index: int) -> "RationalFunction":
        return cls(Polynomial.variable(nvars, index))

    @property
    def nvars(self) -> int:
        return self.num.nvars

    @property
    def factors(self):
        if self._factors is None:
            self._factors = ((self._den, 1),)
        return self._factors

    @property
    def den(self) -> Polynomial:
        if self._den is None:
            self._den = _expand(self.num.nvars, self.factors)
        return self._den

    def is_zero(self) -> bool:
        return not self.num.terms

    def __bool__(self) -> bool:
        return bool(self.num.terms)

    def is_polynomial(self) -> bool:
        return not self.factors

    def is_constant(self) -> bool:
        return not self.factors and self.num.is_constant()

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise SuperskelError("rational function is not constant")
        return self.num.constant_value()

    def _parts(self, other):
        """(num, factors) of an operand, or None for a foreign type."""
        if isinstance(other, RationalFunction):
            return other.num, other.factors
        if isinstance(other, Polynomial):
            return other, ()
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.num.nvars, other), ()
        return None

    def __add__(self, other):
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        b, fb = parts
        fa = self.factors
        if fa == fb:
            if not fa:
                return RationalFunction._raw(self.num + b, ())
            return RationalFunction._make(self.num + b, fa)
        a, b, lcm = _over_lcm(self.num, fa, b, fb)
        return RationalFunction._make(a + b, lcm)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction._raw(-self.num, self.factors, self._den)

    def __sub__(self, other):
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        b, fb = parts
        return self + RationalFunction._raw(-b, fb)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return RationalFunction._raw(Polynomial.zero(self.num.nvars), ())
            return RationalFunction._raw(self.num * other, self.factors, self._den)
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        b, fb = parts
        fa = self.factors
        if not fb:
            if not fa:
                return RationalFunction._raw(self.num * b, ())
            return RationalFunction._make(self.num * b, fa)
        if fa:
            merged = dict(fa)
            for factor, mult in fb:
                merged[factor] = merged.get(factor, 0) + mult
            fb = tuple(merged.items())
        return RationalFunction._make(self.num * b, fb)

    __rmul__ = __mul__

    def __truediv__(self, other):
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        if not parts[0].terms:
            raise NotInvertibleError("division by the zero rational function")
        return self * RationalFunction._raw(*parts).invert()

    def __rtruediv__(self, other):
        if self._parts(other) is None:
            return NotImplemented
        if self.is_zero():
            raise NotInvertibleError("division by the zero rational function")
        return self.invert() * other

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise SuperskelError("rational powers must be non-negative integers")
        if not self.factors:
            return RationalFunction._raw(self.num ** n, ())
        if n == 0:
            return RationalFunction.constant(self.num.nvars, 1)
        return RationalFunction._make(self.num ** n,
                                      tuple((f, m * n) for f, m in self.factors))

    def invert(self) -> "RationalFunction":
        """``den / num``: the numerator becomes one monic factor."""
        if self.is_zero():
            raise NotInvertibleError("the zero rational function has no inverse")
        lead, factor = _monic(self.num)
        num = self.den if lead == 1 else self.den * (_ONE / lead)
        if factor.is_constant():
            return RationalFunction._raw(num, ())
        return RationalFunction._make(num, ((factor, 1),))

    def __eq__(self, other):
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        b, fb = parts
        fa = self.factors
        if fa == fb:
            return self.num == b
        a, b, _ = _over_lcm(self.num, fa, b, fb)
        return a == b

    def derivative(self, index: int) -> "RationalFunction":
        """(a/D)' = (a'F - a * sum m f' F/f) / (D F), where D = prod f^m and
        F is the product of the factors that depend on the variable."""
        num = self.num.derivative(index)
        if not self.factors:
            return RationalFunction._raw(num, ())
        moving = [(f, m, df) for f, m in self.factors if (df := f.derivative(index)).terms]
        if not moving:
            return RationalFunction._make(num, self.factors)
        nvars = self.num.nvars
        num = num * _expand(nvars, [(f, 1) for f, _, _ in moving])
        for i, (_, m, df) in enumerate(moving):
            others = [(g, 1) for j, (g, _, _) in enumerate(moving) if j != i]
            term = self.num * df * m
            num = num - (term * _expand(nvars, others) if others else term)
        raised = {f: m + 1 for f, m, _ in moving}
        return RationalFunction._make(
            num, tuple((f, raised.get(f, m)) for f, m in self.factors))

    def eval(self, values) -> Fraction:
        den = _ONE
        for factor, mult in self.factors:
            den *= factor.eval(values) ** mult
        if den == 0:
            raise DomainError(f"denominator vanishes at body point {tuple(map(str, values))}")
        return self.num.eval(values) / den

    def eval_in(self, values, one):
        """Evaluate at ring elements; each factor's value must be invertible
        (Fractions, or any object exposing ``invert``) and is inverted on its
        own, so the result's denominators keep the factor structure."""
        value = self.num.eval_in(values, one)
        for factor, mult in self.factors:
            den = factor.eval_in(values, one)
            if isinstance(den, Fraction):
                if den == 0:
                    raise NotInvertibleError("denominator evaluates to zero")
                inverse = _ONE / den
            else:
                inverse = den.invert()
            value = value * (inverse if mult == 1 else inverse ** mult)
        return value

    def pad(self, new_nvars: int) -> "RationalFunction":
        # padding keeps the lex-leading monomials, so factors stay monic
        return RationalFunction._raw(self.num.pad(new_nvars),
                                     tuple((f.pad(new_nvars), m) for f, m in self.factors))

    def format(self) -> str:
        if not self.factors:
            return self.num.format()
        return f"({self.num.format()})/({self.den.format()})"

    def __repr__(self):
        return f"RationalFunction({self.format()!r})"
